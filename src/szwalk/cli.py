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
from .simulator import apply

SYNTH_GRAPHS = ("cycle", "complete", "bipartite", "crown", "wheel",
                "wheel_directed", "win", "k2", "directed8", "circulant")


class NoSynthesis(ValueError):
    """The spec names a valid chain that has no gate synthesis."""


def _log2_exact(n: int, what: str) -> int:
    m = int(n).bit_length() - 1
    if n < 1 or 2 ** m != n:
        raise NoSynthesis(f"no gate synthesis: {what} must be a power of two, got {n}")
    return m


def build_walk(spec: dict, require_circuit: bool = False):
    """Resolve a graph spec dict into (label, transition matrix, circuit).

    The circuit is None for specs outside the synthesizable classes
    ("custom" matrices, non-power-of-two sizes); those still work wherever
    an oracle backend suffices.  With ``require_circuit`` such a spec
    raises NoSynthesis, a ValueError that names the reason, instead.
    """
    kind = spec.get("type")
    params = spec.get("params", {})
    if kind == "circulant":
        column = np.asarray(params["column"], dtype=float)
        offset_x = int(params.get("offset_x", 1))
        p = markov.circulant(column, offset_x)
        name = f"circulant-{column.size}-x{offset_x}"
    else:
        p = markov.from_spec(spec)
        name = kind + "-" + "-".join(str(v) for v in params.values()) if params else kind
    try:
        circuit = _synthesize(kind, params, p)
    except NoSynthesis:
        if require_circuit:
            raise
        circuit = None
    return name, p, circuit


def _synthesize(kind: str, params: dict, p: np.ndarray):
    if kind == "circulant":
        _log2_exact(p.shape[0], "column length")
        return synth.synth_circulant(np.sqrt(p[:, 0]), int(params.get("offset_x", 1)))
    if kind == "cycle":
        return synth.synth_cycle(_log2_exact(int(params["n"]), "n"))
    if kind == "complete":
        return synth.synth_complete(_log2_exact(int(params["n"]), "n"))
    if kind == "bipartite":
        n1, n2 = int(params["n1"]), int(params["n2"])
        return synth.synth_bipartite(_log2_exact(n1, "n1"), _log2_exact(n2, "n2"))
    if kind == "crown":
        return synth.synth_crown(_log2_exact(int(params["n"]), "n"))
    if kind in ("wheel", "wheel_directed"):
        m = _log2_exact(int(params["n"]), "n")
        return synth.synth_wheel(m, directed=kind == "wheel_directed",
                                 alpha=float(params.get("alpha", 0.85)))
    if kind == "win":
        return synth.synth_win_cycles(_log2_exact(int(params["n1"]), "n1"),
                                      _log2_exact(int(params["n2"]), "n2"))
    if kind == "k2":
        return synth.synth_k2()
    if kind == "directed8":
        return synth.synth_directed8(float(params.get("alpha", 0.85)))
    raise NoSynthesis(f"no gate synthesis for {kind!r} specs; only the oracle backend applies")


def _spec_from_args(args) -> dict:
    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            return json.load(fh)
    if not args.graph:
        raise ValueError("pass --graph or --spec")
    kind = args.graph
    if kind == "wheel" and getattr(args, "directed", False):
        kind = "wheel_directed"
    params = {}
    if kind in ("cycle", "complete", "crown"):
        if args.n is None:
            raise ValueError(f"--graph {kind} needs --n")
        params["n"] = args.n
    elif kind in ("bipartite", "win"):
        if args.n1 is None or args.n2 is None:
            raise ValueError(f"--graph {kind} needs --n1 and --n2")
        params["n1"], params["n2"] = args.n1, args.n2
    elif kind in ("wheel", "wheel_directed"):
        n = args.n if args.n is not None else (2 ** args.m if args.m is not None else None)
        if n is None:
            raise ValueError("--graph wheel needs --n (outer vertices) or --m")
        params["n"] = n
        params["alpha"] = args.alpha
    elif kind == "directed8":
        params["alpha"] = args.alpha
    elif kind == "circulant":
        raise ValueError("circulant chains are specified via --spec JSON "
                         "(params: column, offset_x)")
    return {"type": kind, "params": params}


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_synth(args) -> int:
    _, _, circuit = build_walk(_spec_from_args(args), require_circuit=True)
    _write_or_print(to_text(circuit), args.out)
    return 0


def cmd_verify(args) -> int:
    _, p, circuit = build_walk(_spec_from_args(args), require_circuit=True)
    report = synth.verify(circuit, p, tolerance=args.tol)
    print(json.dumps({"max_deviation": report.max_deviation,
                      "leakage": report.leakage,
                      "pass": report.passed}))
    return 0 if report.passed else 1


def cmd_simulate(args) -> int:
    _, p, circuit = build_walk(_spec_from_args(args))
    n_states = p.shape[0]
    n = max((n_states - 1).bit_length(), 1)
    if circuit is not None:
        state = oracle.initial_superposition(p, n_qubits=n).astype(complex)
        for _ in range(args.steps):
            state = apply(circuit, state)
    else:
        walk = oracle.walk_operator(p)
        state = oracle.initial_superposition(p).astype(complex)
        for _ in range(args.steps):
            state = walk.apply(state)
    lines = [pagerank.CSV_VERSION_HEADER, "index,re,im"]
    lines += [f"{k},{state[k].real:.12e},{state[k].imag:.12e}" for k in range(state.size)]
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_pagerank(args) -> int:
    name, p, circuit = build_walk(_spec_from_args(args))
    if args.backend == "oracle" or circuit is None:
        walk = oracle.walk_operator(p)
    else:
        walk = circuit
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
    builders = {"cycle": synth.synth_cycle, "complete": synth.synth_complete}
    classes = list(builders) if args.graph in (None, "both") else [args.graph]
    lines = [pagerank.CSV_VERSION_HEADER, "graph,n_qubits,n_vertices,total,two_qubit_estimate"]
    for cls in classes:
        for n in range(3, args.n_max + 1):
            total, est = gate_count(builders[cls](n))
            lines.append(f"{cls},{n},{2 ** n},{total},{est}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="szwalk",
                                     description="Szegedy walk circuit compiler and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, tol=False, steps=None):
        sp.add_argument("--graph", choices=SYNTH_GRAPHS)
        sp.add_argument("--spec", help="path to a JSON graph spec")
        sp.add_argument("--n", type=int, help="vertex count (outer count for wheels)")
        sp.add_argument("--n1", type=int)
        sp.add_argument("--n2", type=int)
        sp.add_argument("--m", type=int, help="wheel outer-cycle width exponent")
        sp.add_argument("--directed", action="store_true")
        sp.add_argument("--alpha", type=float, default=0.85)
        sp.add_argument("--offset-x", type=int, default=1, dest="offset_x")
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int, default=0)
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
