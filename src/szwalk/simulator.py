"""Dense statevector execution of circuits, without materializing gate matrices.

States are complex vectors of length ``2**width`` indexed with qubit 0 as
the most significant bit.  ``apply`` is purely functional (the caller's
vector is never mutated); internally gates update amplitude slices in
place, one gate at a time.  ``unitary_of`` runs the same kernel on the
identity, or on just the basis columns asked for, one block of
``_BLOCK_AMPLITUDES`` amplitudes (16 columns at width 12) at a time, so
each block stays in cache while every gate of the circuit passes over it;
the arithmetic per column is unchanged, so every column is bit-identical to
running the whole identity at once.  A walk state on two n-qubit registers
is this vector viewed as a (2**n, 2**n) array (see ``oracle``), so register
marginals are sums over one axis of that view.
"""

import math

import numpy as np

from .gates import Circuit

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

UNITARY_WIDTH_GUARD = 12

# Amplitudes per column block of unitary_of: small enough to stay in cache.
_BLOCK_AMPLITUDES = 2 ** 16


def basis_state(width: int, index: int) -> np.ndarray:
    """Computational basis state |index> on ``width`` qubits."""
    if not 0 <= index < 2 ** width:
        raise ValueError(f"basis index {index} out of range for width {width}")
    s = np.zeros(2 ** width, dtype=complex)
    s[index] = 1.0
    return s


def _apply_gate(t: np.ndarray, g) -> None:
    """Apply one gate to tensor ``t`` of shape (2,)*width (+ batch axes)."""
    base = [slice(None)] * t.ndim
    for q, p in g.controls:
        base[q] = p
    kind = g.kind
    if kind == "GPHASE":
        if g.sign == -1:
            t[tuple(base)] *= -1.0
        return
    if kind == "SWAP":
        qa, qb = g.qubits
        i01, i10 = list(base), list(base)
        i01[qa], i01[qb] = 0, 1
        i10[qa], i10[qb] = 1, 0
        i01, i10 = tuple(i01), tuple(i10)
        tmp = t[i01].copy()
        t[i01] = t[i10]
        t[i10] = tmp
        return
    tq = g.qubits[0]
    i0, i1 = list(base), list(base)
    i0[tq], i1[tq] = 0, 1
    i0, i1 = tuple(i0), tuple(i1)
    if kind == "X":
        tmp = t[i0].copy()
        t[i0] = t[i1]
        t[i1] = tmp
    elif kind == "H":
        a0, a1 = t[i0].copy(), t[i1]
        t[i0] = (a0 + a1) * _INV_SQRT2
        t[i1] = (a0 - a1) * _INV_SQRT2
    elif kind == "RY":
        c, s = math.cos(g.angle), math.sin(g.angle)
        a0, a1 = t[i0].copy(), t[i1]
        t[i0] = c * a0 - s * a1
        t[i1] = s * a0 + c * a1
    elif kind == "Z":
        t[i1] *= -1.0
    elif kind == "ZP":
        t[i0] *= -1.0
    else:  # pragma: no cover - Gate constructor rejects unknown kinds
        raise ValueError(f"unknown gate kind {kind}")


def _run(circuit: Circuit, array: np.ndarray) -> np.ndarray:
    t = array.reshape((2,) * circuit.width + array.shape[1:])
    for g in circuit.gates:
        _apply_gate(t, g)
    return array


def apply(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Return ``unitary(circuit) @ state``, computed gate by gate."""
    state = np.asarray(state)
    if state.shape != (2 ** circuit.width,):
        raise ValueError(f"state length {state.shape} does not match width {circuit.width}")
    return _run(circuit, state.astype(complex, copy=True))


def unitary_of(circuit: Circuit, columns=None) -> np.ndarray:
    """Unitary matrix of a circuit; column k is ``apply(c, |k>)``.

    With ``columns`` (a 1-D sequence of integer indices below 2**width,
    repeats and any order allowed) only those columns are computed, in that
    order, bit-identical to ``unitary_of(circuit)[:, columns]``.  The basis
    states go through the circuit one block of columns at a time.
    """
    if circuit.width > UNITARY_WIDTH_GUARD:
        raise ValueError(f"unitary extraction limited to width {UNITARY_WIDTH_GUARD}, "
                         f"got {circuit.width}")
    dim = 2 ** circuit.width
    columns = np.arange(dim) if columns is None else _checked_columns(columns, dim)
    block = max(1, _BLOCK_AMPLITUDES // dim)
    u = np.empty((dim, columns.size), dtype=complex)
    for c0 in range(0, columns.size, block):
        cols = columns[c0:c0 + block]
        basis = np.zeros((dim, cols.size), dtype=complex)
        basis[cols, np.arange(cols.size)] = 1.0
        u[:, c0:c0 + cols.size] = _run(circuit, basis)
    return u


def _checked_columns(columns, dim: int) -> np.ndarray:
    cols = np.asarray(columns)
    if cols.ndim == 1 and cols.size == 0:
        return np.zeros(0, dtype=int)
    if cols.ndim != 1 or cols.dtype.kind not in "iu":
        raise ValueError(f"columns must be a 1-D array of integer indices for dimension "
                         f"{dim}, got shape {cols.shape} of dtype {cols.dtype}")
    if cols.min() < 0 or cols.max() >= dim:
        raise ValueError(f"columns must lie in [0, {dim}) for dimension {dim}, "
                         f"got indices from {cols.min()} to {cols.max()}")
    return cols
