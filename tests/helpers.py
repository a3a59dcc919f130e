"""Shared test helpers."""

import numpy as np

from szwalk.gates import GATE_KINDS, Circuit, Gate


def random_circuit(rng, width, n_gates):
    """Random circuit over every gate kind (SWAP from width 2), with random
    control patterns."""
    kinds = [k for k in GATE_KINDS if k != "SWAP" or width > 1]
    out = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        free = list(rng.permutation(width))
        if kind == "SWAP":
            qubits, free = (free[0], free[1]), free[2:]
        elif kind == "GPHASE":
            qubits = ()
        else:
            qubits, free = (free[0],), free[1:]
        n_ctrl = rng.integers(0, min(2, len(free)) + 1)
        controls = tuple((int(q), int(rng.integers(0, 2))) for q in free[:n_ctrl])
        angle = float(rng.uniform(-np.pi, np.pi)) if kind == "RY" else None
        sign = -1 if kind == "GPHASE" else None
        out.append(Gate(kind, qubits, controls, angle=angle, sign=sign))
    return Circuit(width, out)
