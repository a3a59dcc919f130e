"""The Szegedy walk operator, applied matrix-free or built densely.

For a column-stochastic P on N states the single step operator is
``S (2 Pi - I)`` where Pi projects onto the states ``|i> (x) |phi_i>``,
``|phi_i>`` holds the square roots of column i, and S swaps the two
registers.  ``WalkOracle.apply`` is the oracle backend: it applies one
step to a state in O(N^2) without forming any N^2 x N^2 matrix, so it runs
at any N.  The dense matrix is built only on demand and guarded at N <= 64
(matrix dimension 4096); it is the tests' ground truth, while
``synth.verify`` compares circuits with the block structure that
``columns`` gives, without forming it.

A circuit acts on two registers of ``register_qubits(N)`` qubits each, so
d = 2**n >= N.  One layout rule covers both sizes: a state of length d^2
viewed as a (d, d) array holds |i,j> at [i, j], and the valid states
i, j < N are its ``[:N, :N]`` corner.  Native oracle states are the case
d = N.
"""

import math
from dataclasses import dataclass

import numpy as np

from .markov import validate

N_STATES_GUARD = 64


@dataclass(frozen=True)
class WalkOracle:
    """Walk operator of an N-state chain; row i of ``columns`` is |phi_i>."""

    n_states: int
    columns: np.ndarray

    def apply(self, state: np.ndarray) -> np.ndarray:
        """One walk step on a native length-N^2 state, real or complex.

        Viewed as an N x N array A with A[i, j] the amplitude of |i,j>, the
        reflection maps row i to ``2 c_i phi_i - A_i`` with
        ``c_i = <phi_i|A_i>`` (phi is real, so nothing is conjugated), and
        the swap transposes the result.
        """
        n = self.n_states
        a = np.asarray(state).reshape(n, n)
        c = np.einsum("ij,ij->i", a, self.columns)
        return (2.0 * c[:, None] * self.columns - a).T.reshape(n * n)

    @property
    def matrix(self) -> np.ndarray:
        """Dense N^2 x N^2 operator, built on each access: the reflection
        with row i*N+j taken from row j*N+i, which is S (2 Pi - I)."""
        n = self.n_states
        if n > N_STATES_GUARD:
            raise ValueError(f"dense oracle limited to N <= {N_STATES_GUARD}, got {n}")
        swapped = np.arange(n * n).reshape(n, n).T.reshape(n * n)
        return _reflection(self.columns)[swapped]


def column_state(p: np.ndarray, i: int) -> np.ndarray:
    """|phi_i>: entrywise square root of column i of P (unit norm)."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    if not 0 <= i < n:
        raise ValueError(f"column index {i} out of range for N={n}")
    return np.sqrt(p[:, i])


def swap_matrix(n: int) -> np.ndarray:
    """Register swap S with S[i*N+j, j*N+i] = 1; satisfies S @ S = I exactly."""
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[i * n + j, j * n + i] = 1.0
    return s


def reflection(p: np.ndarray) -> np.ndarray:
    """The reflection 2 Pi - I about the span of the projector states."""
    return _reflection(np.sqrt(np.asarray(p, dtype=float)).T)


def _reflection(columns: np.ndarray) -> np.ndarray:
    n = columns.shape[0]
    r = -np.eye(n * n)
    for i, phi in enumerate(columns):
        block = slice(i * n, (i + 1) * n)
        r[block, block] += 2.0 * np.outer(phi, phi)
    return r


def walk_operator(p: np.ndarray) -> WalkOracle:
    """Single-step Szegedy walk operator S (2 Pi - I) of a validated chain."""
    p = np.asarray(p, dtype=float)
    validate(p).raise_if_invalid()
    return WalkOracle(n_states=p.shape[0], columns=np.ascontiguousarray(np.sqrt(p).T))


def register_qubits(n_states: int) -> int:
    """Qubits per register for an N-state chain: ceil(log2 N), at least 1."""
    return max((n_states - 1).bit_length(), 1)


def circuit_registers(width: int, n_states: int) -> int:
    """Qubits per register of a walk circuit ``width`` qubits wide for an
    N-state chain; ValueError unless width is 2 * register_qubits(N)."""
    n = register_qubits(n_states)
    if width != 2 * n:
        raise ValueError(f"circuit width {width} does not match "
                         f"2*ceil(log2({n_states})) = {2 * n}")
    return n


def initial_superposition(p: np.ndarray, n_qubits: int | None = None) -> np.ndarray:
    """Equal superposition (1/sqrt(N)) sum_i |i> (x) |phi_i>.

    With ``n_qubits`` given, the state lies on two n-qubit registers (zero
    amplitude outside the valid corner); otherwise it has native length N^2.
    """
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    d = n if n_qubits is None else 2 ** n_qubits
    psi = np.zeros((d, d))
    psi[:n, :n] = (np.sqrt(p) / math.sqrt(n)).T
    return psi.reshape(d * d)
