"""Command-line front end: synth, verify, simulate, pagerank, gatecount.

Exit codes: 0 success, 1 verification failure (a failed verify, or
PageRank leakage out of the valid vertices), 2 invalid input, 3 I/O error.
Output files are deterministic for a fixed invocation.
``GRAPHS`` maps each JSON spec tag onto its ``markov`` matrix builder and
its ``synth`` Decomposition builder, which ``_synthesize`` assembles.
"""

import argparse
import json
import reprlib
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import markov, oracle, pagerank, synth
from .gates import gate_count, to_text

# JSON graph spec ingestion.  Schema:
#   {"type": <tag>, "params": {...}, "matrix": [[col0...], [col1...], ...]}
# where <tag> is a key of GRAPHS and "params" holds that entry's parameters
# (those with a default may be left out).  Only "custom" reads "matrix",
# kept beside the params: a row of columns, matrix[j][i] = P(i, j).

REQUIRED = object()   # schema marker for a parameter without a default
# What each spec parameter must be: its nesting depth of numbers (0 for a
# scalar) and its description.
_PARAM_TYPES = {"n": (0, "an integer"), "n1": (0, "an integer"), "n2": (0, "an integer"),
                "offset_x": (0, "an integer"), "alpha": (0, "a number"),
                "column": (1, "an array of numbers"),
                "matrix": (2, "an array of arrays of numbers")}


def _typed(kind: str, name: str, value):
    """Spec parameter ``name`` as its builders take it: an int for sizes
    and offsets (8.0 is 8), a float for alpha, a float array for column
    and matrix.  Any other JSON type raises ValueError naming it."""
    depth, what = _PARAM_TYPES[name]
    leaves = np.asarray(value, dtype=object)
    if leaves.ndim == depth and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in leaves.flat):
        if depth:
            return leaves.astype(float)
        if what == "a number":
            return float(value)
        if isinstance(value, int) or value.is_integer():
            return int(value)
    raise ValueError(f"{kind} spec param {name!r} must be {what}, got {reprlib.repr(value)}")


class Graph(NamedTuple):
    """One spec tag: its parameters, each with a default or REQUIRED; the
    transition-matrix builder ``matrix(params)``; and ``parts(params)``,
    the chain's ``Decomposition``, which raises NoSynthesis outside the
    synthesizable sizes (None for a tag with no gate synthesis)."""

    params: dict
    matrix: Callable
    parts: Callable | None


def _log2_exact(n: int, what: str) -> int:
    if n < 1 or n & (n - 1):
        raise synth.NoSynthesis(f"no gate synthesis: {what} must be a power of two, got {n}")
    return n.bit_length() - 1


def _custom(columns) -> np.ndarray:
    p = columns.T
    markov.validate(p).raise_if_invalid()
    return p


def _wheel(directed: bool) -> Graph:
    return Graph({"n": REQUIRED, "alpha": 0.85},
                 lambda q: markov.google_matrix(markov.wheel_graph(q["n"], directed), q["alpha"]),
                 lambda q: synth.wheel_parts(_log2_exact(q["n"], "n"), directed, q["alpha"]))


GRAPHS = {
    "cycle": Graph({"n": REQUIRED}, lambda q: markov.cycle_graph(q["n"]),
                   lambda q: synth.cycle_parts(_log2_exact(q["n"], "n"))),
    "complete": Graph({"n": REQUIRED}, lambda q: markov.complete_graph(q["n"]),
                      lambda q: synth.complete_parts(_log2_exact(q["n"], "n"))),
    "bipartite": Graph({"n1": REQUIRED, "n2": REQUIRED},
                       lambda q: markov.complete_bipartite(q["n1"], q["n2"]),
                       lambda q: synth.bipartite_parts(_log2_exact(q["n1"], "n1"),
                                                       _log2_exact(q["n2"], "n2"))),
    "crown": Graph({"n": REQUIRED}, lambda q: markov.crown_graph(q["n"]),
                   lambda q: synth.tensor_parts(synth.complete_parts(_log2_exact(q["n"], "n")),
                                                synth.complete_parts(1))),
    "wheel": _wheel(False),
    "wheel_directed": _wheel(True),
    "win": Graph({"n1": REQUIRED, "n2": REQUIRED},
                 lambda q: markov.win_cycles(q["n1"], q["n2"]),
                 lambda q: synth.win_cycles_parts(_log2_exact(q["n1"], "n1"),
                                                  _log2_exact(q["n2"], "n2"))),
    "k2": Graph({}, lambda q: markov.complete_graph(2), lambda q: synth.complete_parts(1)),
    "directed8": Graph({"alpha": 0.85},
                       lambda q: markov.google_matrix(markov.directed_example8(), q["alpha"]),
                       lambda q: synth.directed8_parts(q["alpha"])),
    "circulant": Graph({"column": REQUIRED, "offset_x": 1},
                       lambda q: markov.circulant(q["column"], q["offset_x"]),
                       lambda q: synth.circulant_parts(np.sqrt(q["column"]), q["offset_x"])),
    "custom": Graph({"matrix": REQUIRED}, lambda q: _custom(q["matrix"]), None),
}


def resolve(spec: dict) -> tuple[Graph, dict]:
    """A spec's GRAPHS entry and its parameters with the defaults filled in.

    Raises ValueError for a spec or ``params`` that is not a JSON object,
    an unknown type, a parameter the type does not take, a missing one or
    one of the wrong JSON type (see ``_typed``).
    """
    if not isinstance(spec, dict):
        raise ValueError(f"graph spec must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("type")
    graph = GRAPHS.get(kind) if isinstance(kind, str) else None
    if graph is None:
        raise ValueError(f"unknown graph spec type {kind!r}")
    given = spec.get("params", {})
    if not isinstance(given, dict):
        raise ValueError(f"{kind} spec params must be a JSON object, got {type(given).__name__}")
    if "matrix" in spec:
        given = {**given, "matrix": spec["matrix"]}
    unknown = [repr(name) for name in given if name not in graph.params]
    if unknown:
        raise ValueError(f"{kind} spec takes no {', '.join(unknown)}")
    params = {**graph.params, **given}
    missing = [repr(name) for name, value in params.items() if value is REQUIRED]
    if missing:
        raise ValueError(f"{kind} spec needs {', '.join(missing)}")
    return graph, {name: _typed(kind, name, value) for name, value in params.items()}


def from_spec(spec: dict) -> np.ndarray:
    """Transition matrix of a JSON graph spec."""
    graph, params = resolve(spec)
    return graph.matrix(params)


def _synthesize(graph: Graph, params: dict):
    if graph.parts is None:
        raise synth.NoSynthesis("no gate synthesis for 'custom' specs; "
                                "only the oracle backend applies")
    return synth.synth_from_parts(graph.parts(params))


# Spec parameters with a flag of the same name; --m gives n as 2**m.
PARAM_FLAGS = ("n", "n1", "n2", "alpha")
GRAPH_CHOICES = tuple(kind for kind, graph in GRAPHS.items()
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
    graph, params = resolve(spec)
    if spec["type"] == "circulant":
        label = f"circulant-{len(params['column'])}-x{int(params['offset_x'])}"
    else:
        label = "-".join([spec["type"], *(str(params[k]) for k in spec.get("params", {})
                                          if np.ndim(params[k]) == 0)])
    return label, graph.matrix(params), lambda: _synthesize(graph, params)


def _circuit_or_oracle(p, synthesize):
    try:
        return synthesize()
    except synth.NoSynthesis:
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
        if kind not in GRAPHS:
            raise ValueError(f"--graph {args.graph} takes no --directed")
    schema = GRAPHS[kind].params
    for flag in flags:
        if ("n" if flag == "m" else flag) not in schema:
            raise ValueError(f"--graph {args.graph} takes no --{flag}")
    if "m" in flags:
        flags["n"] = 2 ** flags.pop("m")
    # defaults filled in, so the default output label names every parameter
    params = {**schema, **flags}
    return {"type": kind, "params": {k: v for k, v in params.items() if v is not REQUIRED}}


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
            total, est = gate_count(_synthesize(*resolve({"type": cls, "params": {"n": 2 ** n}})))
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
