"""Quantum PageRank on a synthesized or oracle walk.

The instantaneous rank of vertex j at step t is the register-2 marginal
probability ``Q(j, t) = |<j|_2 (U_walk^2)^t |psi_0>|^2`` starting from the
equal superposition over the projector states; the PageRank proper is the
running average of Q over T double-steps.  Either backend (gate circuit or
the matrix-free oracle kernel) drives the same loop: the state viewed as a
(d, d) array (``oracle`` explains the layout) gives the marginal as its
column sums, and any probability on register-2 states j >= N is leakage
out of the valid vertices, which aborts the run once it exceeds the
tolerance.  Oracle states have d = N and so never leak.
"""

import csv
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .gates import Circuit
from .oracle import WalkOracle, circuit_registers, initial_superposition
from .simulator import apply

CSV_VERSION_HEADER = "# szwalk csv v1"
LEAKAGE_TOL = 1e-8


class LeakageError(RuntimeError):
    """Raised when probability escapes the valid vertex subspace."""


@dataclass(frozen=True)
class PagerankSeries:
    """Q(j, t) for t = 0..steps-1 plus the time averages <Q(j)>."""

    n_vertices: int
    steps: int
    instantaneous: np.ndarray
    average: np.ndarray


def prepare(walk, p: np.ndarray):
    """Initial state of ``walk`` for chain ``p`` and its single-step function.

    ``walk`` is either a gate Circuit on 2*ceil(log2 N) qubits, whose state
    lies on both registers, or a WalkOracle for the same chain, whose state
    has native length N^2.
    """
    n_states = np.asarray(p).shape[0]
    if isinstance(walk, WalkOracle):
        if walk.n_states != n_states:
            raise ValueError(f"oracle is for N={walk.n_states}, matrix has N={n_states}")
        return initial_superposition(p), walk.apply
    if isinstance(walk, Circuit):
        n = circuit_registers(walk.width, n_states)
        return initial_superposition(p, n), partial(apply, walk)
    raise TypeError(f"walk must be a Circuit or WalkOracle, got {type(walk).__name__}")


def run(walk, p: np.ndarray, steps: int = 1000,
        leakage_tol: float = LEAKAGE_TOL) -> PagerankSeries:
    """Evolve by the squared walk operator and record vertex marginals.

    ``walk`` is a Circuit or WalkOracle as in ``prepare``.  Q(j, 0) is
    recorded before any evolution; each subsequent row follows one double
    application.
    """
    p = np.asarray(p, dtype=float)
    n_states = p.shape[0]
    if steps < 1:
        raise ValueError("steps must be at least 1")
    state, step = prepare(walk, p)
    dim = math.isqrt(state.size)
    inst = np.empty((steps, n_states))
    for t in range(steps):
        probs = (np.abs(state.reshape(dim, dim)) ** 2).sum(axis=0)
        stray = float(probs[n_states:].sum())
        if stray > leakage_tol:
            raise LeakageError(f"probability {stray:.3e} on invalid vertices "
                               f"at step {t} (tolerance {leakage_tol:.1e})")
        inst[t] = probs[:n_states]
        if t + 1 < steps:
            state = step(step(state))
    return PagerankSeries(n_vertices=n_states, steps=steps, instantaneous=inst,
                          average=inst.mean(axis=0))


@dataclass(frozen=True)
class HubComparison:
    """Average-rank comparison of the hub vertex (last index) across two runs."""

    hub_first: float
    hub_second: float
    difference: float
    second_exceeds_first: bool


def compare_hub(series_undirected: PagerankSeries,
                series_directed: PagerankSeries) -> HubComparison:
    """Compare hub averages; for the wheel pair the directed hub ranks higher."""
    if series_undirected.n_vertices != series_directed.n_vertices:
        raise ValueError("series have different vertex counts")
    a = float(series_undirected.average[-1])
    b = float(series_directed.average[-1])
    return HubComparison(hub_first=a, hub_second=b, difference=b - a,
                         second_exceeds_first=b > a)


def summary_json(series: PagerankSeries) -> dict:
    return {str(j): float(series.average[j]) for j in range(series.n_vertices)}


def export(series: PagerankSeries, path, summary_path=None, plot_path=None) -> None:
    """Write the time series as CSV, plus a per-vertex summary CSV.

    The main file carries rows ``t,vertex,Q``; the summary (default:
    ``<stem>_summary.csv`` next to the main file) carries ``vertex,avg_Q``.
    With ``plot_path`` an SVG line plot of the instantaneous curves is
    emitted as well.  Numbers are fixed at 12 significant digits so a given
    series always produces byte-identical files.
    """
    path = str(path)
    with open(path, "w", newline="") as fh:
        fh.write(CSV_VERSION_HEADER + "\n")
        writer = csv.writer(fh)
        writer.writerow(["t", "vertex", "Q"])
        for t in range(series.steps):
            for j in range(series.n_vertices):
                writer.writerow([t, j, f"{series.instantaneous[t, j]:.12e}"])
    if summary_path is None:
        stem, dot, ext = path.rpartition(".")
        summary_path = f"{stem}_summary.{ext}" if dot else f"{path}_summary"
    with open(summary_path, "w", newline="") as fh:
        fh.write(CSV_VERSION_HEADER + "\n")
        writer = csv.writer(fh)
        writer.writerow(["vertex", "avg_Q"])
        for j in range(series.n_vertices):
            writer.writerow([j, f"{series.average[j]:.12e}"])
    if plot_path is not None:
        with open(plot_path, "w") as fh:
            fh.write(_svg_plot(series))


def _svg_plot(series: PagerankSeries, width=720, height=360, margin=40) -> str:
    """Minimal SVG rendering of the instantaneous curves, one per vertex."""
    q = series.instantaneous
    top = max(q.max(), 1e-12)
    xs = np.linspace(margin, width - margin, series.steps)

    def ys(col):
        return height - margin - (col / top) * (height - 2 * margin)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    for j in range(series.n_vertices):
        hue = int(360 * j / series.n_vertices)
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys(q[:, j])))
        lines.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="hsl({hue},70%,40%)" stroke-width="1"/>')
    lines.append(f'<text x="{margin}" y="{margin - 10}" font-size="12">'
                 f'instantaneous quantum PageRank, max {top:.3e}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
