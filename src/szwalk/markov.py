"""Transition-matrix constructors for the supported graph and chain classes.

Matrices are dense float64 arrays with column-major semantics fixed
project-wide: entry ``(i, j)`` is the probability of moving from vertex j
to vertex i, and every column sums to 1.  Connectivity matrices are 0/1
arrays with the same orientation (``C[i, j] = 1`` for a link j -> i).
"""

import reprlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

COLUMN_SUM_TOL = 1e-12


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def cycle_graph(n_vertices: int) -> np.ndarray:
    """Cycle graph C_N: each column has 1/2 at the two cyclic neighbors."""
    if n_vertices < 3:
        raise ValueError(f"cycle graph needs at least 3 vertices, got {n_vertices}")
    p = np.zeros((n_vertices, n_vertices))
    for j in range(n_vertices):
        p[(j + 1) % n_vertices, j] = 0.5
        p[(j - 1) % n_vertices, j] = 0.5
    return p


def complete_graph(n_vertices: int) -> np.ndarray:
    """Complete graph K_N: 1/(N-1) off the diagonal, 0 on it."""
    if n_vertices < 2:
        raise ValueError(f"complete graph needs at least 2 vertices, got {n_vertices}")
    p = np.full((n_vertices, n_vertices), 1.0 / (n_vertices - 1))
    np.fill_diagonal(p, 0.0)
    return p


def complete_bipartite(n1: int, n2: int) -> np.ndarray:
    """Complete bipartite graph K_{N1,N2} as the block matrix
    [[0, J/N1], [J/N2, 0]]."""
    if n1 < 1 or n2 < 1:
        raise ValueError("both parts need at least one vertex")
    n = n1 + n2
    p = np.zeros((n, n))
    p[:n1, n1:] = 1.0 / n1
    p[n1:, :n1] = 1.0 / n2
    return p


def crown_graph(n: int) -> np.ndarray:
    """Crown graph S_N^0, the bipartite double cover of K_N.

    The chain K_N (x) K_2; requires N a power of two with N >= 4 to match
    the synthesizer's domain.
    """
    if not _is_power_of_two(n) or n < 4:
        raise ValueError(f"crown graph needs a power-of-two N >= 4, got {n}")
    return tensor(complete_graph(n), complete_graph(2))


def wheel_graph(n_outer: int, directed: bool = False) -> np.ndarray:
    """Connectivity matrix of the wheel W_N (or W_N' when directed).

    An N-cycle plus a hub vertex (index N).  The hub row is all ones; the
    hub column is all ones for W_N and all zeros for W_N' (the directed
    variant has no outgoing edges from the hub).
    """
    if not _is_power_of_two(n_outer) or n_outer < 4:
        raise ValueError(f"wheel needs a power-of-two outer count >= 4, got {n_outer}")
    n = n_outer + 1
    c = np.zeros((n, n))
    for j in range(n_outer):
        c[(j + 1) % n_outer, j] = 1.0
        c[(j - 1) % n_outer, j] = 1.0
    c[n_outer, :n_outer] = 1.0
    if not directed:
        c[:n_outer, n_outer] = 1.0
    return c


def directed_example8() -> np.ndarray:
    """Connectivity matrix of the 8-vertex directed example graph.

    Vertices 0-3 form a directed 4-cycle fed by vertices 4 and 5; vertices
    6 and 7 point at all of 4-7 (including themselves).
    """
    return np.array([
        [0, 0, 0, 1, 1, 0, 0, 0],
        [1, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 1, 1],
    ], dtype=float)


def google_matrix(connectivity: np.ndarray, alpha: float = 0.85) -> np.ndarray:
    """Google matrix G = alpha*E + (1-alpha)/N * J.

    E is the patched connectivity matrix: columns are out-degree
    normalized, and dangling columns (out-degree zero) are replaced by the
    uniform column 1/N.  Dense whenever alpha < 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"damping parameter must lie in [0, 1], got {alpha}")
    c = np.asarray(connectivity, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("connectivity must be square")
    n = c.shape[0]
    outdeg = c.sum(axis=0)
    e = np.empty((n, n))
    for j in range(n):
        e[:, j] = 1.0 / n if outdeg[j] == 0 else c[:, j] / outdeg[j]
    return alpha * e + (1.0 - alpha) / n


def tensor(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Kronecker product of two chains; columns stay normalized."""
    return np.kron(np.asarray(p1, dtype=float), np.asarray(p2, dtype=float))


def circulant(column: np.ndarray, offset_x: int = 1) -> np.ndarray:
    """Chain whose column i is column 0 cyclically rotated down by i*x slots;
    ``column`` must be a nonempty probability vector (ValueError names it)."""
    column = np.asarray(column, dtype=float)
    n = column.size
    if n == 0:
        raise ValueError("circulant column is empty")
    if not (column >= 0).all():
        raise ValueError(f"circulant column entries must be nonnegative, got {column.min()}")
    if not abs(column.sum() - 1.0) <= COLUMN_SUM_TOL:
        raise ValueError(f"circulant column sums to {column.sum():.12g}, not 1")
    p = np.empty((n, n))
    for i in range(n):
        p[:, i] = np.roll(column, (i * offset_x) % n)
    return p


def win_cycles(n1: int, n2: int) -> np.ndarray:
    """Weighted interdependent network: two cycles joined completely.

    Block form [[C_{N1}/(2+N2), J/(2+N1)], [J/(2+N2), C_{N2}/(2+N1)]]
    where C_N is the 0/1 cycle adjacency, so every nonzero element of a
    column carries equal weight.  Requires power-of-two sizes with
    N1 >= N2 >= 4 (a 2-cycle block would break column normalization).
    """
    if not (_is_power_of_two(n1) and _is_power_of_two(n2)):
        raise ValueError("cycle sizes must be powers of two")
    if n2 < 4 or n1 < n2:
        raise ValueError(f"need N1 >= N2 >= 4, got {n1}, {n2}")
    c1 = 2.0 * cycle_graph(n1)
    c2 = 2.0 * cycle_graph(n2)
    n = n1 + n2
    p = np.zeros((n, n))
    p[:n1, :n1] = c1 / (2.0 + n2)
    p[n1:, n1:] = c2 / (2.0 + n1)
    p[n1:, :n1] = 1.0 / (2.0 + n2)
    p[:n1, n1:] = 1.0 / (2.0 + n1)
    return p


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostics for the transition-matrix invariants."""

    n: int
    max_column_deviation: float
    min_entry: float
    ok: bool

    def raise_if_invalid(self) -> None:
        """Raise ValueError naming the column deviation and minimum entry
        unless the matrix passed."""
        if not self.ok:
            raise ValueError(f"invalid transition matrix: column deviation "
                             f"{self.max_column_deviation:.3e}, min entry {self.min_entry:.3e}")


def validate(p: np.ndarray, tol: float = COLUMN_SUM_TOL) -> ValidationReport:
    """Check nonnegativity and column sums; passes iff both hold at ``tol``."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("transition matrix must be square")
    dev = float(np.abs(p.sum(axis=0) - 1.0).max())
    min_entry = float(p.min())
    return ValidationReport(n=p.shape[0], max_column_deviation=dev,
                            min_entry=min_entry, ok=dev <= tol and min_entry >= 0.0)


# JSON graph spec ingestion.  Schema:
#   {"type": <tag>, "params": {...}, "matrix": [[col0...], [col1...], ...]}
# where <tag> is a key of GRAPHS and "params" holds that entry's parameters
# (those with a default may be left out).  Only "custom" reads "matrix",
# kept beside the params: a row of columns, matrix[j][i] = P(i, j).

class NoSynthesis(ValueError):
    """The spec names a valid chain that has no gate synthesis."""


def _log2_exact(n, what: str) -> int:
    if not _is_power_of_two(int(n)):
        raise NoSynthesis(f"no gate synthesis: {what} must be a power of two, got {n}")
    return int(n).bit_length() - 1


def _custom(columns) -> np.ndarray:
    p = columns.T
    validate(p).raise_if_invalid()
    return p


def _synth_custom(s, q):
    raise NoSynthesis("no gate synthesis for 'custom' specs; only the oracle backend applies")


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
    transition-matrix builder ``matrix(params)``; the synthesizer
    ``synth(s, params)``, where ``s`` is the ``szwalk.synth`` module, which
    raises NoSynthesis outside the synthesizable sizes."""

    params: dict
    matrix: Callable
    synth: Callable


def _wheel(directed: bool) -> Graph:
    return Graph({"n": REQUIRED, "alpha": 0.85},
                 lambda q: google_matrix(wheel_graph(q["n"], directed), q["alpha"]),
                 lambda s, q: s.synth_wheel(_log2_exact(q["n"], "n"), directed, q["alpha"]))


GRAPHS = {
    "cycle": Graph({"n": REQUIRED}, lambda q: cycle_graph(q["n"]),
                   lambda s, q: s.synth_cycle(_log2_exact(q["n"], "n"))),
    "complete": Graph({"n": REQUIRED}, lambda q: complete_graph(q["n"]),
                      lambda s, q: s.synth_complete(_log2_exact(q["n"], "n"))),
    "bipartite": Graph({"n1": REQUIRED, "n2": REQUIRED},
                       lambda q: complete_bipartite(q["n1"], q["n2"]),
                       lambda s, q: s.synth_bipartite(_log2_exact(q["n1"], "n1"),
                                                      _log2_exact(q["n2"], "n2"))),
    "crown": Graph({"n": REQUIRED}, lambda q: crown_graph(q["n"]),
                   lambda s, q: s.synth_crown(_log2_exact(q["n"], "n"))),
    "wheel": _wheel(False),
    "wheel_directed": _wheel(True),
    "win": Graph({"n1": REQUIRED, "n2": REQUIRED},
                 lambda q: win_cycles(q["n1"], q["n2"]),
                 lambda s, q: s.synth_win_cycles(_log2_exact(q["n1"], "n1"),
                                                    _log2_exact(q["n2"], "n2"))),
    "k2": Graph({}, lambda q: complete_graph(2), lambda s, q: s.synth_k2()),
    "directed8": Graph({"alpha": 0.85},
                       lambda q: google_matrix(directed_example8(), q["alpha"]),
                       lambda s, q: s.synth_directed8(q["alpha"])),
    "circulant": Graph({"column": REQUIRED, "offset_x": 1},
                       lambda q: circulant(q["column"], q["offset_x"]),
                       lambda s, q: s.synth_circulant(np.sqrt(q["column"]), q["offset_x"])),
    "custom": Graph({"matrix": REQUIRED}, lambda q: _custom(q["matrix"]), _synth_custom),
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
