"""Compilation of structured chains into gate-level walk circuits.

The walk operator splits into a register swap and the reflection 2 Pi - I,
and every chain's reflection is diagonalized by one ``Decomposition``: a
segment per column subset x, whose diagonalizer U_x maps each member's
projector state |y>|phi_y> onto |y>|b_x>, where a multi-controlled flip of
|b_x> under the subset's register-1 patterns acts.  ``synth_from_parts``
is the one assembler, and each ``synth_*`` wraps a ``*_parts`` builder:

- single-reference chains (cycle, complete, circulant) have one segment,
  U = (I (x) K_b^dag) T for a block transform T and a preparation K_b;
- the partitioned families (bipartite, WIN, wheel, directed-8) go through
  ``partitioned_parts``, one ``(subset, T_x, K, b_x)`` record per subset,
  checked first by one test per member y: T_x|y>|phi_y> = |y>K|b_x>;
- ``tensor_parts`` composes any two decompositions whose second factor has
  2^n states; the crown graph is K_{2^n} (x) K_2.

Sign convention used throughout: the multi-controlled flips realize
``I - 2|b><b|`` on their patterns, so a single ``GPHASE(-1)`` is appended
per assembled walk circuit (not per segment) to recover the reflection
``2 Pi - I`` exactly.  With one phase per segment the overall sign comes
out wrong whenever the number of segments is even.

Correctness of each synthesizer is defined by ``verify``: exact agreement
with the dense oracle on the valid subspace, and no leakage out of it.
A valid chain outside a builder's domain raises ``NoSynthesis``; the CLI falls back to the oracle.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from .gates import (Circuit, compose, dagger, gphase, h, on_qubits, ry, swap,
                    with_controls, x, z, zp)
from .markov import (complete_bipartite, directed_example8, google_matrix, validate,
                     wheel_graph, win_cycles)
from .oracle import circuit_registers, column_state, register_qubits, walk_operator
from .simulator import apply, basis_state, unitary_of

STATE_PREP_NORM_TOL = 1e-10
PARTITION_CHECK_TOL = 1e-10


class NoSynthesis(ValueError):
    """The chain is valid but has no gate synthesis."""


# ---------------------------------------------------------------------------
# Modular shifts

def _increment_gates(qubits, controls):
    """|v> -> |v+1 mod 2^len(qubits)> on the listed qubits (first = MSB)."""
    gates = []
    for t in range(len(qubits)):
        ctrl = tuple((qubits[s], 1) for s in range(t + 1, len(qubits))) + tuple(controls)
        gates.append(x(qubits[t], ctrl))
    return gates


def shift_circuit(n: int, amount: int, direction: str = "left", controls=(),
                  width: int | None = None, offset: int = 0) -> Circuit:
    """Modular shift |j> -> |j -/+ amount mod 2^n> (left = subtract).

    Acts on the n qubits starting at ``offset``; ``controls`` are extra
    conditions applied to every gate.  The default width is just large
    enough for the register and controls.
    """
    if n < 1:
        raise ValueError("register needs at least one qubit")
    if amount < 0:
        raise ValueError("shift amount must be nonnegative")
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    controls = tuple((int(q), int(p)) for q, p in controls)
    if width is None:
        width = max([offset + n] + [q + 1 for q, _ in controls])
    register = [offset + k for k in range(n)]
    gates = []
    amount %= 2 ** n
    for k in range(n):
        if (amount >> k) & 1:
            # adding 2^k increments the subregister above bit k
            gates.extend(_increment_gates(register[:n - k], controls))
    if direction == "left":
        gates.reverse()
    return Circuit(width, gates)


def _bit_shifts(bits, offset, width, offset_x=1, direction="left", before=(), after=()):
    """Shift the len(bits)-qubit register at ``offset`` by ``offset_x`` times
    the value of the qubits ``bits`` (first = MSB): one shift per bit,
    controlled on it, with the extra controls ``before`` and ``after``."""
    r = len(bits)
    gates = []
    for k, q in enumerate(bits):
        amount = (offset_x * 2 ** (r - 1 - k)) % 2 ** r
        gates.extend(shift_circuit(r, amount, direction,
                                   controls=(*before, (q, 1), *after),
                                   width=width, offset=offset).gates)
    return Circuit(width, gates)


def controlled_shift_transform(n: int, offset_x: int, direction: str = "left") -> Circuit:
    """The block transform ``sum_i |i><i| (x) L^(i*x)`` on 2n qubits.

    For each bit of register 1, register 2 is shifted by the corresponding
    multiple of ``offset_x`` under that bit's control ('right' gives R
    powers instead).
    """
    if n < 1:
        raise ValueError("register needs at least one qubit")
    return _bit_shifts(range(n), n, 2 * n, offset_x, direction)


# ---------------------------------------------------------------------------
# State preparation

def state_prep(target: np.ndarray, basis_b: int) -> Circuit:
    """Preparation routine K_b with ``K_b |basis_b> = target``.

    Probability-bisection construction: X gates map |b> to |0...0>, then a
    tree of prefix-controlled RY rotations splits the probability mass
    level by level.  The target must be a nonnegative unit vector of
    length 2^n; the preparation is then exact to rounding.
    """
    target = np.asarray(target, dtype=float)
    n = max(int(target.size - 1).bit_length(), 0)
    if target.size != 2 ** n:
        raise ValueError(f"target length {target.size} is not a power of two")
    if (target < 0).any():
        raise ValueError("target amplitudes must be nonnegative")
    if abs(np.linalg.norm(target) - 1.0) > STATE_PREP_NORM_TOL:
        raise ValueError(f"target norm {np.linalg.norm(target):.12f} is not 1")
    if not 0 <= basis_b < 2 ** n:
        raise ValueError(f"basis state {basis_b} out of range")

    levels = [target ** 2]
    for _ in range(n):
        levels.append(levels[-1].reshape(-1, 2).sum(axis=1))
    levels.reverse()  # levels[k] has 2^k prefix masses

    gates = [x(q) for q in range(n) if (basis_b >> (n - 1 - q)) & 1]
    for k in range(n):
        for prefix in range(2 ** k):
            m0 = levels[k + 1][2 * prefix]
            m1 = levels[k + 1][2 * prefix + 1]
            if levels[k][prefix] == 0.0 or m1 == 0.0:
                continue
            theta = math.atan2(math.sqrt(m1), math.sqrt(m0))
            ctrl = tuple((s, (prefix >> (k - 1 - s)) & 1) for s in range(k))
            gates.append(ry(k, theta, ctrl))
    return Circuit(n, gates)


def kb_cycle(n: int) -> tuple[Circuit, int]:
    """Preparation for the cycle-graph reference column.

    Maps |N/2 - 1> onto {0, 1/sqrt(2), 0, ..., 0, 1/sqrt(2)}: a Hadamard on
    the top qubit followed by a cascade of anti-controlled NOTs.
    """
    if n < 2:
        raise ValueError("cycle preparation needs at least 2 qubits")
    b = 2 ** (n - 1) - 1
    gates = [h(0)] + [x(q, [(0, 0)]) for q in range(1, n - 1)]
    return Circuit(n, gates), b


def kb_complete(n: int) -> tuple[Circuit, int]:
    """Preparation for the complete-graph reference column.

    Maps |1> onto {0, sqrt(1/(N-1)), ..., sqrt(1/(N-1))}.  Level i rotates
    mass off the all-zero prefix with cos(theta_i) =
    sqrt((2^(n-i) - 1) / (2^(n-i+1) - 1)), then finishes the peeled branch
    into a uniform block with an X and Hadamards.  (The square root in the
    angle is required for the prepared state to match the target column;
    see the angle-convention note in the README.)
    """
    if n < 1:
        raise ValueError("register needs at least one qubit")
    gates = []
    for i in range(1, n):
        t = i - 1
        theta = math.acos(math.sqrt((2 ** (n - i) - 1) / (2 ** (n - i + 1) - 1)))
        prefix0 = tuple((s, 0) for s in range(t))
        branch1 = prefix0 + ((t, 1),)
        gates.append(ry(t, theta, prefix0))
        gates.append(x(n - 1, branch1))
        gates.extend(h(q, branch1) for q in range(t + 1, n))
    return Circuit(n, gates), 1


# ---------------------------------------------------------------------------
# Decompositions, their assembly and single-reference parts

@dataclass(frozen=True)
class Decomposition:
    """A chain's diagonalizing data on two n-qubit registers.

    ``segments`` holds one ``(patterns, diagonalizer, basis_b)`` per column
    subset: ``patterns`` are the register-1 control patterns selecting the
    subset (``((),)`` selects every row), and the diagonalizer U_x, a
    circuit on both registers whose gates target register 2, maps
    |y>|phi_y> to |y>|basis_b> for every member y.  That is everything a
    walk assembly or a tensor composition needs to know.
    """

    n_qubits: int
    n_states: int
    segments: tuple


def synth_from_parts(parts: Decomposition) -> Circuit:
    """Assemble the walk circuit of a decomposition: per segment U_x, the
    flip of |b_x> on register 2 under each of its patterns and U_x^dag;
    then one GPHASE(-1) and the register swap."""
    n = parts.n_qubits
    gates = []
    for patterns, u, b in parts.segments:
        bits = [(b >> (n - 1 - k)) & 1 for k in range(n)]
        flip = z if bits[-1] else zp    # on register 2's last qubit, its others as controls
        flip_controls = tuple(zip(range(n, 2 * n - 1), bits))
        gates.extend(u.gates)
        gates.extend(flip(2 * n - 1, flip_controls + pat) for pat in patterns)
        gates.extend(dagger(u).gates)
    gates.append(gphase(-1))
    gates.extend(swap(q, q + n) for q in range(n))
    return Circuit(2 * n, gates)


def single_reference_parts(n: int, t_transform: Circuit, kb: Circuit,
                           basis_b: int) -> Decomposition:
    """One segment selecting every row, with U = (I (x) K_b^dag) T."""
    if t_transform.width != 2 * n:
        raise ValueError(f"transform must act on {2 * n} qubits, got {t_transform.width}")
    if kb.width != n:
        raise ValueError(f"preparation must act on {n} qubit(s), got {kb.width}")
    diag = compose(t_transform, on_qubits(dagger(kb), range(n, 2 * n), 2 * n))
    return Decomposition(n, 2 ** n, ((((),), diag, basis_b),))


def synth_single_reference(n: int, t_transform: Circuit, kb: Circuit,
                           basis_b: int) -> Circuit:
    """Walk circuit from a block transform, preparation routine and basis state."""
    return synth_from_parts(single_reference_parts(n, t_transform, kb, basis_b))


def circulant_parts(phi0: np.ndarray, offset_x: int = 1) -> Decomposition:
    """Parts for a chain whose column i is column 0 right-rotated i*x slots;
    K_b is built by state_prep from the reference column with b = 0."""
    phi0 = np.asarray(phi0, dtype=float)
    n = register_qubits(phi0.size)
    if phi0.size == 1:
        raise NoSynthesis("no gate synthesis: a circulant chain needs at least 2 states, got 1")
    if phi0.size != 2 ** n:
        raise NoSynthesis(f"no gate synthesis: column length must be a power of two, "
                          f"got {phi0.size}")
    return single_reference_parts(n, controlled_shift_transform(n, offset_x, "left"),
                                  state_prep(phi0, 0), 0)


def cycle_parts(n: int) -> Decomposition:
    return single_reference_parts(n, controlled_shift_transform(n, 1, "left"), *kb_cycle(n))


def complete_parts(n: int) -> Decomposition:
    return single_reference_parts(n, controlled_shift_transform(n, 1, "left"), *kb_complete(n))


def synth_circulant(phi0: np.ndarray, offset_x: int = 1) -> Circuit:
    return synth_from_parts(circulant_parts(phi0, offset_x))


def synth_cycle(n: int) -> Circuit:
    """Walk circuit for the cycle graph C_{2^n}."""
    return synth_from_parts(cycle_parts(n))


def synth_complete(n: int) -> Circuit:
    """Walk circuit for the complete graph K_{2^n}."""
    return synth_from_parts(complete_parts(n))


def synth_k2() -> Circuit:
    """Two-qubit walk circuit for the K_2 graph."""
    return synth_from_parts(complete_parts(1))


# ---------------------------------------------------------------------------
# Tensor composition

def tensor_parts(a: Decomposition, b: Decomposition) -> Decomposition:
    """Decomposition of P = P_1 (x) P_2 from those of its factors.

    Each pair of factor segments (x, y) becomes one segment: its patterns
    are the products of the factors' patterns, its U is U_x on the high
    qubits of both registers followed by U_y on the low ones, and its basis
    state is |b_x, b_y>.  Vertex i_1 * N_2 + i_2 is the bit concatenation
    of i_1 and i_2 only when N_2 = 2^n_2, so any other second factor raises
    NoSynthesis; the first may be padded.  The result nests.
    """
    n1, n2 = a.n_qubits, b.n_qubits
    if b.n_states != 2 ** n2:
        raise NoSynthesis(f"no gate synthesis: second tensor factor N={b.n_states} is not 2^{n2}")
    n = n1 + n2
    map1 = list(range(n1)) + list(range(n, n + n1))
    map2 = list(range(n1, n)) + list(range(n + n1, 2 * n))
    segments = []
    for patterns_x, u_x, b_x in a.segments:
        u1 = on_qubits(u_x, map1, 2 * n)
        for patterns_y, u_y, b_y in b.segments:
            patterns = tuple(px + tuple((map2[q], v) for q, v in py)
                             for px in patterns_x for py in patterns_y)
            segments.append((patterns, compose(u1, on_qubits(u_y, map2, 2 * n)),
                             b_x * 2 ** n2 + b_y))
    return Decomposition(n, a.n_states * b.n_states, tuple(segments))


def synth_tensor(a: Decomposition, b: Decomposition) -> Circuit:
    """Walk circuit for the Kronecker product of two synthesized chains."""
    return synth_from_parts(tensor_parts(a, b))


def synth_crown(n: int) -> Circuit:
    """Walk circuit for the crown graph S_{2^n}^0 = K_{2^n} (x) K_2."""
    if n < 2:
        raise ValueError("crown synthesis needs at least 2 qubits for the K_N factor")
    return synth_tensor(complete_parts(n), complete_parts(1))


# ---------------------------------------------------------------------------
# Partitioned decompositions

def subset_patterns(subset, n_qubits: int):
    """Register-1 control patterns selecting exactly the given vertices.

    A subset equal to all completions of a fixed bit pattern yields one
    pattern; anything else falls back to one full pattern per member.
    """
    members = sorted(set(subset))
    base = members[0]
    varying = 0
    for m in members:
        varying |= m ^ base
    if len(members) == 2 ** bin(varying).count("1"):
        pattern = tuple((q, (base >> (n_qubits - 1 - q)) & 1)
                        for q in range(n_qubits)
                        if not (varying >> (n_qubits - 1 - q)) & 1)
        return [pattern]
    return [tuple((q, (m >> (n_qubits - 1 - q)) & 1) for q in range(n_qubits))
            for m in members]


def partitioned_parts(p: np.ndarray, blocks) -> Decomposition:
    """The checked decomposition behind every partitioned family.

    ``blocks`` holds one ``(subset, transform, prep, basis_b)`` record per
    column subset x, and the subsets cover 0..N-1 exactly once.  The
    transform T_x is a circuit on both registers whose gates target
    register 2 (None is the identity); the preparation K acts on n qubits
    and basis_b is one of their 2^n states, or a ValueError names the subset.
    The one check is the segment invariant T_x|y>|phi_y> = |y>K|b_x> for
    every member y, within ``PARTITION_CHECK_TOL``: T_x cannot move
    amplitude between register-1 rows, so one ``apply`` to the state
    holding every member row checks the whole subset.  Subset x becomes
    the segment whose U_x is T_x followed by K^dag under each of the
    subset's register-1 patterns (``subset_patterns``).
    """
    p = np.asarray(p, dtype=float)
    validate(p).raise_if_invalid()
    n_states = p.shape[0]
    subsets = [sorted(block[0]) for block in blocks]
    if not all(subsets) or sorted(y for sub in subsets for y in sub) != list(range(n_states)):
        raise ValueError(f"subsets must cover 0..{n_states - 1} exactly once, none empty")
    n = register_qubits(n_states)
    dim = 2 ** n
    phi = np.zeros((n_states, dim))
    phi[:, :n_states] = np.sqrt(p).T    # row y holds |phi_y>

    segments = []
    for xi, (sub, (_, t_x, prep, b)) in enumerate(zip(subsets, blocks)):
        t_x = Circuit(2 * n) if t_x is None else t_x
        if (t_x.width, prep.width) != (2 * n, n) or not 0 <= b < dim:
            raise ValueError(f"subset {xi} needs a {2 * n}-qubit transform, a {n}-qubit "
                             f"preparation and a basis state in 0..{dim - 1}, got "
                             f"{t_x.width}, {prep.width} and {b}")
        if any(q < n for g in t_x.gates for q in g.qubits):
            raise ValueError(f"transform for subset {xi} has a gate targeting register 1")
        if t_x.gates:
            state = np.zeros((dim, dim))
            state[sub] = phi[sub]
            moved = apply(t_x, state.reshape(dim * dim)).real.reshape(dim, dim)[sub]
        else:
            moved = phi[sub]
        target = apply(prep, basis_state(n, b)).real    # every gate kind is real
        errs = np.abs(moved - target).max(axis=1)
        worst = int(np.argmax(errs))
        if errs[worst] > PARTITION_CHECK_TOL:
            raise ValueError(f"check failed for (x={xi}, y={sub[worst]}): T_x|y>|phi_y> "
                             f"is off |y>K|b_x> by {errs[worst]:.3e}")
        patterns = tuple(subset_patterns(sub, n))
        kb_dag = dagger(on_qubits(prep, range(n, 2 * n), 2 * n))
        segments.append((patterns, compose(t_x, *(with_controls(kb_dag, pat)
                                                  for pat in patterns)), b))
    return Decomposition(n, n_states, tuple(segments))


def synth_partitioned(p: np.ndarray, blocks) -> Circuit:
    """Walk circuit of a checked ``partitioned_parts`` decomposition."""
    return synth_from_parts(partitioned_parts(p, blocks))


# ---------------------------------------------------------------------------
# Specific partitioned families

def _block_shift(subset, n: int) -> Circuit:
    """T_x for a subset that is one bit-pattern block whose column y is the
    block's first column rotated by y within the block: register 2's free bits
    are shifted down by register 1's, under the block pattern on both
    registers."""
    (pattern,) = subset_patterns(subset, n)
    fixed = [q for q, _ in pattern]
    free = [q for q in range(n) if q not in fixed]
    return _bit_shifts(free, n + free[0], 2 * n, before=pattern,
                       after=tuple((n + q, v) for q, v in pattern))


def bipartite_parts(n1: int, n2: int) -> Decomposition:
    """The complete bipartite graph K_{2^n1, 2^n2}.

    Natural two-subset partition; all transforms are identity because the
    columns within each part coincide.  Register width is n1 + 1.
    """
    if n1 < n2 or n2 < 0:
        raise NoSynthesis(f"no gate synthesis: need n1 >= n2 >= 0, got {n1}, {n2}")
    big_n1, big_n2 = 2 ** n1, 2 ** n2
    n = n1 + 1
    kb1 = Circuit(n, [h(q) for q in range(n - n2, n)])
    kb2 = Circuit(n, [h(q) for q in range(1, n)])
    return partitioned_parts(complete_bipartite(big_n1, big_n2),
                             [(range(big_n1), None, kb1, big_n1),
                              (range(big_n1, big_n1 + big_n2), None, kb2, 0)])


def synth_bipartite(n1: int, n2: int) -> Circuit:
    return synth_from_parts(bipartite_parts(n1, n2))


def _cycle_pair_gates(qubits, controls):
    """|0...0> -> (|0..01> + |1..11>)/sqrt(2): the two cycle neighbors of
    vertex 0 within a block of 2^len(qubits) states."""
    first, last = qubits[0], qubits[-1]
    controls = tuple(controls)
    gates = [x(last, controls), h(first, controls)]
    gates.extend(x(q, controls + ((first, 1),)) for q in qubits[1:-1])
    return gates


def win_cycles_parts(n1: int, n2: int) -> Decomposition:
    """Two cycles C_{2^n1}, C_{2^n2} joined completely.

    Both subsets use restricted cyclic shifts: register 2 is decremented
    modulo the block size under controls keeping the complementary block
    and the padding states fixed.
    """
    if n1 < n2 or n2 < 2:
        raise ValueError(f"need n1 >= n2 >= 2, got {n1}, {n2}")
    big_n1, big_n2 = 2 ** n1, 2 ** n2
    n = n1 + 1

    theta1 = math.acos(math.sqrt(2.0 / (2.0 + big_n2)))
    kb1_gates = [ry(0, theta1)]
    kb1_gates += _cycle_pair_gates(list(range(1, n)), [(0, 0)])
    kb1_gates += [h(q, [(0, 1)]) for q in range(n - n2, n)]

    theta2 = math.acos(math.sqrt(big_n1 / (2.0 + big_n1)))
    kb2_gates = [ry(0, theta2)]
    kb2_gates += [h(q, [(0, 0)]) for q in range(1, n)]
    kb2_gates += _cycle_pair_gates(list(range(n - n2, n)), [(0, 1)])

    return partitioned_parts(win_cycles(big_n1, big_n2), [
        (sub, _block_shift(sub, n), Circuit(n, kb), 0)
        for sub, kb in ((range(big_n1), kb1_gates),
                        (range(big_n1, big_n1 + big_n2), kb2_gates))])


def synth_win_cycles(n1: int, n2: int) -> Circuit:
    return synth_from_parts(win_cycles_parts(n1, n2))


def wheel_parts(m: int, directed: bool = False, alpha: float = 0.85) -> Decomposition:
    """The Google matrix of the wheel W_{2^m} (or W'_{2^m}).

    The chain has N+1 = 2^m + 1 vertices, so registers carry m+1 qubits and
    correctness is defined on the valid subspace.  Restricted cyclic
    shifts take every outer vertex's column onto vertex 0's; the hub is its
    own subset with a one-rotation preparation.
    """
    if m < 2:
        raise ValueError(f"wheel synthesis needs m >= 2, got {m}")
    big_n = 2 ** m
    g = google_matrix(wheel_graph(big_n, directed), alpha)
    n = m + 1

    phi0 = np.zeros(2 ** n)
    phi0[:big_n + 1] = column_state(g, 0)
    theta = math.acos(math.sqrt(1.0 - g[big_n, big_n]))
    kb_hub = Circuit(n, [ry(0, theta)] + [h(q, [(0, 0)]) for q in range(1, n)])
    return partitioned_parts(g, [(range(big_n), _block_shift(range(big_n), n),
                                  state_prep(phi0, 0), 0),
                                 ([big_n], None, kb_hub, 0)])


def synth_wheel(m: int, directed: bool = False, alpha: float = 0.85) -> Circuit:
    return synth_from_parts(wheel_parts(m, directed, alpha))


def directed8_parts(alpha: float = 0.85) -> Decomposition:
    """The Google matrix of the 8-vertex directed example.

    Three subsets: the 4-cycle (restricted shifts modulo 4), the pair
    {4, 5} (vertex 5 shifted by 2), and {6, 7} whose columns already agree.
    """
    g = google_matrix(directed_example8(), alpha)
    n = 3
    (member5,) = subset_patterns([5], n)
    transforms = (_block_shift(range(4), n),
                  shift_circuit(n, 2, "left", controls=member5, width=2 * n, offset=n), None)
    return partitioned_parts(g, [(sub, t_x, state_prep(column_state(g, sub[0]), 0), 0)
                                 for sub, t_x in zip(([0, 1, 2, 3], [4, 5], [6, 7]), transforms)])


def synth_directed8(alpha: float = 0.85) -> Circuit:
    return synth_from_parts(directed8_parts(alpha))


# ---------------------------------------------------------------------------
# Verification against the dense oracle

@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a circuit-versus-oracle comparison."""

    max_deviation: float
    leakage: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def verify(circuit: Circuit, p: np.ndarray, tolerance: float = 1e-10) -> VerifyReport:
    """Compare a walk circuit against the dense oracle on the valid subspace.

    The unitary is viewed as (d, d, d, d) over output (i, j) and input
    (k, l) register values, d = 2^n; its valid columns are ``[..., :N, :N]``.
    ``max_deviation`` is the largest entrywise difference on the valid
    block, ``leakage`` the largest amplitude a valid column acquires on an
    output state with i >= N or j >= N.  A negative or non-finite
    ``tolerance`` raises ValueError.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance}")
    p = np.asarray(p, dtype=float)
    n_states = p.shape[0]
    d = 2 ** circuit_registers(circuit.width, n_states)
    u = unitary_of(circuit).reshape(d, d, d, d)[..., :n_states, :n_states]
    leak = float(max(np.abs(u[n_states:]).max(initial=0.0),
                     np.abs(u[:n_states, n_states:]).max(initial=0.0)))
    block = u[:n_states, :n_states]
    block -= walk_operator(p).matrix.reshape((n_states,) * 4)
    dev = float(np.abs(block).max())
    return VerifyReport(max_deviation=dev, leakage=leak, tolerance=tolerance,
                        passed=dev <= tolerance and leak <= tolerance)
