"""Command-line front end: synth, verify, simulate, pagerank, gatecount.

Exit codes: 0 success, 1 verification failure (a failed verify, or
PageRank leakage out of the valid vertices), 2 invalid input, 3 I/O error.
Output files are deterministic for a fixed invocation.
"""

import argparse
import json
import sys

import numpy as np

from . import markov, oracle, pagerank, synth
from .gates import gate_count, to_text

# Spec parameters with a flag of the same name; --m gives n as 2**m.
PARAM_FLAGS = ("n", "n1", "n2", "alpha")
GRAPH_CHOICES = tuple(kind for kind, graph in markov.GRAPHS.items()
                      if set(graph.params) <= set(PARAM_FLAGS))


def build_walk(spec: dict):
    """Resolve a graph spec dict into (label, transition matrix, synthesize).

    ``synthesize()`` builds the walk circuit when a command runs it.  For
    specs outside the synthesizable classes ("custom" matrices,
    non-power-of-two sizes) it raises NoSynthesis, a ValueError that names
    the reason; commands that can run on the oracle fall back to it.  The
    label joins the type and the typed scalar params the spec gave, so
    ``{"n": 8.0}`` and ``--n 8`` give the same one; a matrix stays out.
    """
    graph, params = markov.resolve(spec)
    if spec["type"] == "circulant":
        label = f"circulant-{len(params['column'])}-x{int(params['offset_x'])}"
    else:
        label = "-".join([spec["type"], *(str(params[k]) for k in spec.get("params", {})
                                          if np.ndim(params[k]) == 0)])
    return label, graph.matrix(params), lambda: graph.synth(synth, params)


def _circuit_or_oracle(p, synthesize):
    try:
        return synthesize()
    except markov.NoSynthesis:
        return oracle.walk_operator(p)


def _spec_from_args(args) -> dict:
    flags = {name: getattr(args, name) for name in (*PARAM_FLAGS, "m", "directed")
             if getattr(args, name) is not None}
    if args.spec:
        if flags:
            raise ValueError(f"--spec takes no --{next(iter(flags))}")
        with open(args.spec) as fh:
            return json.load(fh)
    if not args.graph:
        raise ValueError("pass --graph or --spec")
    kind = args.graph
    if flags.pop("directed", False):
        kind = f"{args.graph}_directed"
        if kind not in markov.GRAPHS:
            raise ValueError(f"--graph {args.graph} takes no --directed")
    schema = markov.GRAPHS[kind].params
    for flag in flags:
        if ("n" if flag == "m" else flag) not in schema:
            raise ValueError(f"--graph {args.graph} takes no --{flag}")
    if "m" in flags:
        flags["n"] = 2 ** flags.pop("m")
    # defaults filled in, so the default output label names every parameter
    params = {**schema, **flags}
    return {"type": kind, "params": {k: v for k, v in params.items() if v is not markov.REQUIRED}}


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_synth(args) -> int:
    _, _, synthesize = build_walk(_spec_from_args(args))
    _write_or_print(to_text(synthesize()), args.out)
    return 0


def cmd_verify(args) -> int:
    _, p, synthesize = build_walk(_spec_from_args(args))
    report = synth.verify(synthesize(), p, tolerance=args.tol)
    print(json.dumps({"max_deviation": report.max_deviation,
                      "leakage": report.leakage,
                      "pass": report.passed}))
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    if args.steps < 0:
        raise ValueError(f"steps must be nonnegative, got {args.steps}")
    _, p, synthesize = build_walk(_spec_from_args(args))
    state, step = pagerank.prepare(_circuit_or_oracle(p, synthesize), p)
    state = state.astype(complex)
    for _ in range(args.steps):
        state = step(state)
    lines = [pagerank.CSV_VERSION_HEADER, "index,re,im"]
    lines += [f"{k},{state[k].real:.12e},{state[k].imag:.12e}" for k in range(state.size)]
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_pagerank(args) -> int:
    name, p, synthesize = build_walk(_spec_from_args(args))
    walk = (_circuit_or_oracle(p, synthesize) if args.backend == "circuit"
            else oracle.walk_operator(p))
    series = pagerank.run(walk, p, steps=args.steps)
    out = args.out or f"pagerank_{name}.csv"
    pagerank.export(series, out, plot_path=args.plot)
    if args.summary_json:
        with open(args.summary_json, "w") as fh:
            json.dump(pagerank.summary_json(series), fh, indent=2, sort_keys=True)
    order = np.argsort(series.average)[::-1]
    print(f"wrote {out}; top vertices: " +
          ", ".join(f"{j}={series.average[j]:.6f}" for j in order[:3]))
    return 0


def cmd_gatecount(args) -> int:
    classes = ("cycle", "complete") if args.graph == "both" else (args.graph,)
    lines = [pagerank.CSV_VERSION_HEADER, "graph,n_qubits,n_vertices,total,two_qubit_estimate"]
    for cls in classes:
        for n in range(3, args.n_max + 1):
            total, est = gate_count(markov.GRAPHS[cls].synth(synth, {"n": 2 ** n}))
            lines.append(f"{cls},{n},{2 ** n},{total},{est}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="szwalk",
                                     description="Szegedy walk circuit compiler and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, tol=False, steps=None):
        sp.add_argument("--graph", choices=GRAPH_CHOICES)
        sp.add_argument("--spec", help="path to a JSON graph spec")
        size = sp.add_mutually_exclusive_group()
        size.add_argument("--n", type=int, help="vertex count (outer count for wheels)")
        size.add_argument("--m", type=int, help="--n given as the exponent of 2**m")
        sp.add_argument("--n1", type=int)
        sp.add_argument("--n2", type=int)
        sp.add_argument("--directed", action="store_true", default=None)
        sp.add_argument("--alpha", type=float, help="damping (default 0.85)")
        sp.add_argument("--out")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-10)
        if steps is not None:
            sp.add_argument("--steps", type=int, default=steps)

    sp = sub.add_parser("synth", help="emit a walk circuit in the textual gate format")
    common(sp)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("verify", help="compare a synthesized circuit against the oracle")
    common(sp, tol=True)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("simulate", help="apply the walk and dump the statevector as CSV")
    common(sp, steps=1)
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("pagerank", help="run quantum PageRank and emit CSVs")
    common(sp, steps=1000)
    sp.add_argument("--backend", choices=("circuit", "oracle"), default="circuit")
    sp.add_argument("--plot", help="optional SVG plot path")
    sp.add_argument("--summary-json", dest="summary_json")
    sp.set_defaults(fn=cmd_pagerank)

    sp = sub.add_parser("gatecount", help="emit a class-vs-size gate scaling table")
    sp.add_argument("--graph", choices=("cycle", "complete", "both"), default="both")
    sp.add_argument("--n-max", type=int, default=10, dest="n_max")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_gatecount)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except pagerank.LeakageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
