import math

import numpy as np
import pytest

from szwalk import markov, oracle
from szwalk.gates import (Circuit, Gate, compose, dagger, gate_count, on_qubits,
                          with_controls, x)
from szwalk.simulator import apply, basis_state, unitary_of
from szwalk.synth import (Decomposition, NoSynthesis, bipartite_parts,
                          circulant_parts, complete_parts, controlled_shift_transform,
                          cycle_parts, directed8_parts, kb_complete,
                          kb_cycle, shift_circuit, state_prep, synth_bipartite,
                          synth_circulant, synth_complete, synth_crown, synth_cycle,
                          synth_directed8, synth_from_parts, synth_k2,
                          partitioned_parts, synth_partitioned, synth_single_reference,
                          synth_tensor, synth_wheel, synth_win_cycles,
                          tensor_parts, verify, wheel_parts, win_cycles_parts)


def member_transform(t, y, n):
    """Register-2 circuit ``t`` lifted onto both n-qubit registers, under
    the register-1 controls selecting vertex y."""
    pattern = tuple((q, (y >> (n - 1 - q)) & 1) for q in range(n))
    return with_controls(on_qubits(t, list(range(n, 2 * n)), 2 * n), pattern)


def permutation_from_map(dim, fn):
    """Permutation matrix with column j carrying a single 1 at row fn(j)."""
    m = np.zeros((dim, dim))
    for j in range(dim):
        m[fn(j), j] = 1.0
    return m


class TestShiftCircuit:
    def test_decrement_examples(self):
        c = shift_circuit(3, 1, "left")
        np.testing.assert_array_equal(apply(c, basis_state(3, 0)).real, basis_state(3, 7).real)
        np.testing.assert_array_equal(apply(c, basis_state(3, 5)).real, basis_state(3, 4).real)

    def test_zero_amount_identity(self):
        assert len(shift_circuit(3, 0, "left")) == 0

    def test_right_shift_5_mod_16_brute_force(self):
        u = unitary_of(shift_circuit(4, 5, "right")).real
        expected = permutation_from_map(16, lambda j: (j + 5) % 16)
        np.testing.assert_array_equal(u, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("direction", ["left", "right"])
    def test_all_amounts_brute_force(self, n, direction):
        sign = -1 if direction == "left" else 1
        for amount in range(2 ** n):
            u = unitary_of(shift_circuit(n, amount, direction)).real
            expected = permutation_from_map(2 ** n, lambda j: (j + sign * amount) % 2 ** n)
            np.testing.assert_array_equal(u, expected)

    def test_controls_and_offset(self):
        # decrement the low 2 qubits of a 3-qubit circuit only when q0 = 1
        c = shift_circuit(2, 1, "left", controls=[(0, 1)], width=3, offset=1)
        u = unitary_of(c).real
        expected = permutation_from_map(
            8, lambda v: v if v < 4 else 4 + ((v - 4) - 1) % 4)
        np.testing.assert_array_equal(u, expected)

    def test_left_is_dagger_of_right(self):
        left = shift_circuit(3, 3, "left")
        right = shift_circuit(3, 3, "right")
        np.testing.assert_allclose(unitary_of(compose(left, right)), np.eye(8), atol=1e-15)


class TestControlledShiftTransform:
    def test_n2_x1_all_basis_states(self):
        u = unitary_of(controlled_shift_transform(2, 1)).real
        expected = permutation_from_map(
            16, lambda v: (v // 4) * 4 + ((v % 4) - (v // 4)) % 4)
        np.testing.assert_array_equal(u, expected)

    def test_x0_identity(self):
        assert len(controlled_shift_transform(3, 0)) == 0

    def test_n3_x2_single_state(self):
        c = controlled_shift_transform(3, 2)
        out = apply(c, basis_state(6, 3 * 8 + 5))
        np.testing.assert_array_equal(out.real, basis_state(6, 3 * 8 + 7).real)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("x", [0, 1, 2, 3])
    def test_brute_force_small(self, n, x):
        u = unitary_of(controlled_shift_transform(n, x)).real
        big = 2 ** n
        expected = permutation_from_map(
            big * big, lambda v: (v // big) * big + ((v % big) - (v // big) * x) % big)
        np.testing.assert_array_equal(u, expected)


class TestStatePrep:
    def test_basis_target_identity_action(self):
        target = np.zeros(8)
        target[5] = 1.0
        c = state_prep(target, 5)
        np.testing.assert_allclose(apply(c, basis_state(3, 5)), target, atol=1e-15)

    def test_uniform_four_states_pi_over_4_rotations(self):
        c = state_prep(np.full(4, 0.5), 0)
        assert all(g.kind == "RY" for g in c.gates)
        assert {g.qubits[0] for g in c.gates} == {0, 1}
        for g in c.gates:
            assert g.angle == pytest.approx(math.pi / 4, abs=1e-15)
        np.testing.assert_allclose(apply(c, basis_state(2, 0)), np.full(4, 0.5), atol=1e-12)

    def test_google_wheel_column(self):
        g = markov.google_matrix(markov.wheel_graph(8), 0.85)
        target = np.zeros(16)
        target[:9] = oracle.column_state(g, 0)
        c = state_prep(target, 0)
        np.testing.assert_allclose(apply(c, basis_state(4, 0)).real, target, atol=1e-10)

    def test_seeded_random_fidelity(self):
        rng = np.random.default_rng(42)
        for size in (8, 16, 32, 64):
            for _ in range(20):
                target = rng.random(size)
                target /= np.linalg.norm(target)
                b = int(rng.integers(size))
                out = apply(state_prep(target, b), basis_state(int(math.log2(size)), b))
                np.testing.assert_allclose(out.real, target, atol=1e-12)
                np.testing.assert_allclose(out.imag, 0, atol=1e-15)

    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError):
            state_prep(np.array([-0.6, 0.8]), 0)
        with pytest.raises(ValueError):
            state_prep(np.array([0.5, 0.5]), 0)


class TestKbCycle:
    def test_n3_prepares_c8_column(self):
        kb, b = kb_cycle(3)
        assert b == 3
        target = oracle.column_state(markov.cycle_graph(8), 0)
        np.testing.assert_allclose(apply(kb, basis_state(3, b)).real, target, atol=1e-15)

    def test_dagger_returns_to_basis(self):
        kb, b = kb_cycle(4)
        target = apply(kb, basis_state(4, b))
        np.testing.assert_allclose(apply(dagger(kb), target), basis_state(4, b), atol=1e-12)

    def test_n2(self):
        kb, b = kb_cycle(2)
        out = apply(kb, basis_state(2, b)).real
        np.testing.assert_allclose(out, [0, 1 / np.sqrt(2), 0, 1 / np.sqrt(2)], atol=1e-15)


class TestKbComplete:
    def test_n1_degenerate(self):
        kb, b = kb_complete(1)
        assert b == 1
        np.testing.assert_allclose(apply(kb, basis_state(1, 1)), [0, 1], atol=1e-15)

    def test_n3_matches_k8_column(self):
        kb, b = kb_complete(3)
        target = oracle.column_state(markov.complete_graph(8), 0)
        np.testing.assert_allclose(apply(kb, basis_state(3, b)).real, target, atol=1e-10)

    def test_unitary_inverse(self):
        kb, _ = kb_complete(3)
        np.testing.assert_allclose(unitary_of(compose(kb, dagger(kb))), np.eye(8),
                                   atol=1e-12)

    def test_sqrt_angle_resolution(self):
        # the caption formula without square roots does not hit the target
        kb, b = kb_complete(3)
        target = oracle.column_state(markov.complete_graph(8), 0)
        literal = Circuit(kb.width, [
            Gate("RY", g.qubits, g.controls, angle=math.acos(math.cos(g.angle) ** 2))
            if g.kind == "RY" else g
            for g in kb.gates])
        err = np.abs(apply(literal, basis_state(3, b)).real - target).max()
        assert err > 1e-2


class TestSingleReferenceFamilies:
    def test_cycle_c8(self):
        report = verify(synth_cycle(3), markov.cycle_graph(8))
        assert report.passed and report.max_deviation < 1e-12

    def test_complete_k8(self):
        assert verify(synth_complete(3), markov.complete_graph(8)).passed

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            verify(synth_cycle(3), markov.cycle_graph(8), tolerance=tol)

    def test_k2_equals_frozen_matrix(self):
        u = unitary_of(synth_k2()).real
        np.testing.assert_allclose(
            u, [[-1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]], atol=1e-15)
        np.testing.assert_allclose(u @ u, np.eye(4), atol=1e-15)

    def test_k2_preserves_superposition_norm(self):
        s = np.zeros(4, dtype=complex)
        s[1] = s[2] = 1 / np.sqrt(2)
        assert np.linalg.norm(apply(synth_k2(), s)) == pytest.approx(1.0, abs=1e-12)

    def test_single_reference_assembly_direct(self):
        kb, b = kb_cycle(3)
        c = synth_single_reference(3, controlled_shift_transform(3, 1), kb, b)
        assert verify(c, markov.cycle_graph(8)).passed

    def test_circulant_offset_two_random_column(self):
        rng = np.random.default_rng(77)
        col = rng.random(8)
        col /= col.sum()
        p = markov.circulant(col, 2)           # columns rolled by 2i
        c = synth_circulant(np.sqrt(col), offset_x=2)
        report = verify(c, p)
        assert report.passed, report

    def test_circulant_trivial_n2(self):
        c = synth_circulant(np.array([0.0, 1.0]), offset_x=1)
        assert verify(c, markov.complete_graph(2)).passed

    def test_diagonalizer_self_inverse(self):
        ((_, diagonalizer, _),) = complete_parts(3).segments
        u = unitary_of(compose(diagonalizer, dagger(diagonalizer)))
        np.testing.assert_allclose(u, np.eye(64), atol=1e-12)


class TestBipartite:
    def test_k84_oracle_equal(self):
        assert verify(synth_bipartite(3, 2), markov.complete_bipartite(8, 4)).passed

    def test_k11_equals_k2_oracle(self):
        u = unitary_of(synth_bipartite(0, 0)).real
        np.testing.assert_allclose(
            u, oracle.walk_operator(markov.complete_bipartite(1, 1)).matrix, atol=1e-15)

    def test_k22_is_relabeled_c4(self):
        # K_{2,2} is the 4-cycle under the vertex relabeling 0,2,1,3
        perm = [0, 2, 1, 3]
        q = np.zeros((4, 4))
        for k, v in enumerate(perm):
            q[v, k] = 1.0
        np.testing.assert_array_equal(q @ markov.cycle_graph(4) @ q.T,
                                      markov.complete_bipartite(2, 2))
        qq = np.kron(q, q)
        u_bip = unitary_of(synth_bipartite(1, 1))
        u_cyc = unitary_of(synth_cycle(2))
        np.testing.assert_allclose(u_bip, qq @ u_cyc @ qq.T, atol=1e-12)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            synth_bipartite(1, 2)


class TestTensor:
    def test_crown_s4(self):
        assert verify(synth_crown(2), markov.crown_graph(4)).passed

    def test_crown_s8(self):
        assert verify(synth_crown(3), markov.crown_graph(8)).passed

    def test_c4_x_c4(self):
        p = markov.tensor(markov.cycle_graph(4), markov.cycle_graph(4))
        assert verify(synth_tensor(cycle_parts(2), cycle_parts(2)), p).passed

    def test_mixed_factors(self):
        p = markov.tensor(markov.complete_graph(4), markov.cycle_graph(4))
        assert verify(synth_tensor(complete_parts(2), cycle_parts(2)), p).passed

    def test_trivial_factor_reduces_to_walk(self):
        trivial = Decomposition(0, 1, ((((),), Circuit(0), 0),))
        a = cycle_parts(2)
        np.testing.assert_allclose(unitary_of(synth_tensor(a, trivial)),
                                   unitary_of(synth_from_parts(a)), atol=1e-15)

    def test_nested_composition(self):
        # (K_2 x K_2) x K_2 through recursive parts
        inner = tensor_parts(complete_parts(1), complete_parts(1))
        p = markov.tensor(markov.tensor(markov.complete_graph(2), markov.complete_graph(2)),
                          markov.complete_graph(2))
        assert verify(synth_tensor(inner, complete_parts(1)), p).passed

    def test_crown_gate_count_polynomial(self):
        ratios = [gate_count(synth_crown(n))[1] / n ** 3 for n in range(2, 6)]
        assert max(ratios) < 16


class TestWinCycles:
    def test_win_84(self):
        assert verify(synth_win_cycles(3, 2), markov.win_cycles(8, 4)).passed

    def test_win_44(self):
        assert verify(synth_win_cycles(2, 2), markov.win_cycles(4, 4)).passed

    def test_win_16_4(self):
        assert verify(synth_win_cycles(4, 2), markov.win_cycles(16, 4)).passed

    def test_reference_columns_unit_norm(self):
        for (n1, n2) in ((8, 4), (4, 4)):
            p = markov.win_cycles(n1, n2)
            for r in (0, n1):
                assert np.linalg.norm(oracle.column_state(p, r)) == pytest.approx(
                    1.0, abs=1e-12)


class TestWheel:
    @pytest.mark.parametrize("directed", [False, True])
    def test_w8(self, directed):
        g = markov.google_matrix(markov.wheel_graph(8, directed), 0.85)
        report = verify(synth_wheel(3, directed=directed), g)
        assert report.passed, report

    def test_w4_alpha_one(self):
        g = markov.google_matrix(markov.wheel_graph(4), 1.0)
        np.testing.assert_allclose(g[:4, 4], 0.25)
        assert verify(synth_wheel(2, alpha=1.0), g).passed

    def test_w16(self):
        g = markov.google_matrix(markov.wheel_graph(16), 0.85)
        assert verify(synth_wheel(4), g).passed


class TestDirected8:
    def test_alpha_085(self):
        g = markov.google_matrix(markov.directed_example8(), 0.85)
        assert verify(synth_directed8(0.85), g).passed

    def test_alpha_zero_uniform(self):
        g = markov.google_matrix(markov.directed_example8(), 0.0)
        assert verify(synth_directed8(0.0), g).passed

    def test_subset_reference_states_unit_norm(self):
        g = markov.google_matrix(markov.directed_example8(), 0.85)
        for r in (0, 4, 6):
            assert np.linalg.norm(oracle.column_state(g, r)) == pytest.approx(1.0, abs=1e-12)


class TestPartitioned:
    def test_rank_one_chain_single_subset(self):
        rng = np.random.default_rng(5)
        col = rng.random(8)
        col /= col.sum()
        p = np.tile(col[:, None], 8)
        c = synth_partitioned(p, [(range(8), None, state_prep(np.sqrt(col), 0), 0)])
        assert verify(c, p).passed

    def test_reproduces_bipartite(self):
        p = markov.complete_bipartite(4, 2)
        phi1 = np.zeros(8)
        phi1[:6] = oracle.column_state(p, 0)
        phi2 = np.zeros(8)
        phi2[:6] = oracle.column_state(p, 4)
        c = synth_partitioned(p, [(range(4), None, state_prep(phi1, 0), 0),
                                  (range(4, 6), None, state_prep(phi2, 0), 0)])
        assert verify(c, p).passed
        # bipartite subsets are bitmask shaped, so segment controls stay compact
        assert max(len(g.controls) for g in c.gates) <= 4

    @staticmethod
    def wheel8_inputs(amounts):
        """W_8 and its records: the outer subset with a per-member shift
        transform (member y shifted by ``amounts[y]``), then the hub."""
        g = markov.google_matrix(markov.wheel_graph(8), 0.85)
        t0 = compose(*(member_transform(
            shift_circuit(3, amounts[y], "left", controls=[(0, 0)], width=4, offset=1), y, 4)
            for y in range(1, 8)))
        phi0 = np.zeros(16)
        phi0[:9] = oracle.column_state(g, 0)
        phi_hub = np.zeros(16)
        phi_hub[:9] = oracle.column_state(g, 8)
        return g, [(range(8), t0, state_prep(phi0, 0), 0),
                   ([8], None, state_prep(phi_hub, 0), 0)]

    def test_reproduces_wheel_unitary(self):
        c = synth_partitioned(*self.wheel8_inputs(list(range(8))))
        np.testing.assert_allclose(unitary_of(c), unitary_of(synth_wheel(3)), atol=1e-12)

    def test_wrong_shift_for_one_member_names_it(self):
        amounts = list(range(8))
        amounts[5] = 3
        with pytest.raises(ValueError, match=r"check failed for \(x=0, y=5\)"):
            synth_partitioned(*self.wheel8_inputs(amounts))

    @staticmethod
    def k22_records(prep0=None, t0=None):
        """K_{2,2} split into its two parts, each prepared from its first column."""
        p = markov.complete_bipartite(2, 2)
        if prep0 is None:
            prep0 = state_prep(oracle.column_state(p, 0), 0)
        return p, [(range(2), t0, prep0, 0),
                   (range(2, 4), None, state_prep(oracle.column_state(p, 2), 0), 0)]

    def test_transform_check_failure_reports_pair(self):
        # columns are equal; shifting member 1 breaks it
        bad = member_transform(shift_circuit(2, 1, "left"), 1, 2)
        with pytest.raises(ValueError, match=r"x=0, y=1"):
            synth_partitioned(*self.k22_records(t0=bad))

    def test_transform_targeting_register_one_rejected(self):
        # X on qubit 1 swaps members 0 and 1, whose columns are equal, so
        # only the register check can catch it
        with pytest.raises(ValueError, match="register 1"):
            synth_partitioned(*self.k22_records(t0=Circuit(4, [x(1)])))

    def test_prep_check_failure(self):
        p = markov.complete_bipartite(2, 2)
        wrong = state_prep(oracle.column_state(p, 2), 0)    # prepares the other part's column
        with pytest.raises(ValueError, match=r"check failed for \(x=0, y=0\)"):
            synth_partitioned(*self.k22_records(prep0=wrong))

    def test_wrong_basis_state_names_the_pair(self):
        p, records = self.k22_records()
        records[1] = (*records[1][:3], 1)
        with pytest.raises(ValueError, match=r"check failed for \(x=1, y=2\)"):
            synth_partitioned(p, records)

    @pytest.mark.parametrize("slot, value, got", [
        (2, Circuit(3), "4, 3 and 0"), (3, 7, "4, 2 and 7"), (1, Circuit(6), "6, 2 and 0"),
    ], ids=["prep-width", "basis-range", "gateless-transform-width"])
    def test_record_of_the_wrong_size_names_its_subset(self, slot, value, got):
        p, records = self.k22_records()
        record = list(records[1])
        record[slot] = value
        records[1] = tuple(record)
        with pytest.raises(ValueError, match=r"subset 1 needs a 4-qubit transform, a 2-qubit "
                           r"preparation and a basis state in 0..3, got " + got):
            synth_partitioned(p, records)

    def test_partition_validation(self):
        p, ((_, _, kb0, _), (_, _, kb1, _)) = self.k22_records()
        for subsets in ([[0, 1], [1, 2, 3]],       # overlapping
                        [[0, 1], [2]],             # vertex 3 missing
                        [[0, 1], [2, 3, 4]],       # member out of range
                        [[0, 1, 2, 3], []]):       # empty subset
            with pytest.raises(ValueError, match="cover 0..3 exactly once"):
                synth_partitioned(p, [(subsets[0], None, kb0, 0), (subsets[1], None, kb1, 0)])


class TestVerify:
    def test_c8_passes(self):
        report = verify(synth_cycle(3), markov.cycle_graph(8))
        assert report.passed and report.max_deviation < 1e-10

    def test_perturbed_angle_fails(self):
        kb, b = kb_complete(3)
        bad_gates = list(kb.gates)
        for i, g in enumerate(bad_gates):
            if g.kind == "RY":
                bad_gates[i] = Gate("RY", g.qubits, g.controls, angle=g.angle + 0.01)
                break
        bad_kb = Circuit(kb.width, bad_gates)
        c = synth_single_reference(3, controlled_shift_transform(3, 1), bad_kb, b)
        report = verify(c, markov.complete_graph(8))
        assert not report.passed
        assert report.max_deviation > 1e-3

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify(synth_k2(), markov.cycle_graph(8))

    @pytest.mark.parametrize("qubit", [0, 2], ids=["register-1", "register-2"])
    def test_leakage_through_either_register(self, qubit):
        # X on a register's high bit maps vertex 1 onto the invalid vertex 3
        report = verify(Circuit(4, [x(qubit)]), np.full((3, 3), 1 / 3))
        assert report.leakage == 1.0 and report.passed is False

    def test_report_dict_shape(self):
        d = verify(synth_k2(), markov.complete_graph(2)).as_dict()
        assert set(d) == {"max_deviation", "leakage", "tolerance", "passed"}


class TestShiftDirections:
    def test_right_transform_is_inverse_of_left(self):
        left = controlled_shift_transform(2, 3, "left")
        right = controlled_shift_transform(2, 3, "right")
        np.testing.assert_allclose(unitary_of(compose(left, right)), np.eye(16),
                                   atol=1e-15)

    def test_numpy_scalar_inputs_round_trip(self):
        # angles/qubits arriving as numpy scalars must not poison the text format
        from szwalk.gates import from_text, ry, to_text
        g = ry(np.int64(1), np.float64(0.25), [(np.int64(0), np.int64(1))])
        c = Circuit(2, [g])
        assert from_text(to_text(c)) == c


class TestPerMemberFallback:
    @staticmethod
    def inputs():
        # columns equal within {0, 3} and within {1, 2}; neither subset is a
        # bit pattern, so segment controls expand per member
        p = np.zeros((4, 4))
        p[:, 0] = p[:, 3] = [0.25, 0.25, 0.25, 0.25]
        p[:, 1] = p[:, 2] = [0.5, 0.0, 0.0, 0.5]
        return p, [([0, 3], None, state_prep(oracle.column_state(p, 0), 0), 0),
                   ([1, 2], None, state_prep(oracle.column_state(p, 1), 0), 0)]

    def test_non_bitmask_subsets(self):
        p, records = self.inputs()
        c = synth_partitioned(p, records)
        flips = [g for g in c.gates if g.kind in ("Z", "ZP")]
        assert len(flips) == 4  # one flip per member of each subset
        assert verify(c, p).passed

    @pytest.mark.parametrize("first", [True, False], ids=["fallback-x-k2", "k2-x-fallback"])
    def test_tensor_products_every_pattern_pair(self, first):
        p, records = self.inputs()
        fallback, k2 = partitioned_parts(p, records), complete_parts(1)
        factors = (fallback, k2) if first else (k2, fallback)
        chains = (p, markov.complete_graph(2)) if first else (markov.complete_graph(2), p)
        report = verify(synth_tensor(*factors), markov.tensor(*chains), tolerance=1e-12)
        assert report.passed, report


def _google(connectivity, alpha=0.85):
    return markov.google_matrix(connectivity, alpha)


CIRCULANT_COLUMN = np.random.default_rng(11).dirichlet(np.ones(8))

# (decomposition, its transition matrix) at register widths up to 8 qubits
FAMILY_PARTS = {
    "cycle": (lambda: cycle_parts(3), lambda: markov.cycle_graph(8)),
    "complete": (lambda: complete_parts(3), lambda: markov.complete_graph(8)),
    "circulant": (lambda: circulant_parts(np.sqrt(CIRCULANT_COLUMN), 3),
                  lambda: markov.circulant(CIRCULANT_COLUMN, 3)),
    "crown": (lambda: tensor_parts(complete_parts(2), complete_parts(1)),
              lambda: markov.crown_graph(4)),
    "k2": (lambda: complete_parts(1), lambda: markov.complete_graph(2)),
    "bipartite": (lambda: bipartite_parts(2, 1), lambda: markov.complete_bipartite(4, 2)),
    "win": (lambda: win_cycles_parts(3, 2), lambda: markov.win_cycles(8, 4)),
    "wheel": (lambda: wheel_parts(2), lambda: _google(markov.wheel_graph(4))),
    "wheel-directed": (lambda: wheel_parts(3, directed=True, alpha=0.6),
                       lambda: _google(markov.wheel_graph(8, directed=True), 0.6)),
    "directed8": (lambda: directed8_parts(), lambda: _google(markov.directed_example8())),
    "directed8-x-k2": (lambda: tensor_parts(directed8_parts(), complete_parts(1)),
                       lambda: markov.tensor(_google(markov.directed_example8()),
                                             markov.complete_graph(2))),
}


def _selects(pattern, y, n):
    return all((y >> (n - 1 - q)) & 1 == v for q, v in pattern)


class TestDecompositionInvariant:
    @pytest.mark.parametrize("family", list(FAMILY_PARTS))
    def test_segment_maps_members_onto_basis_state(self, family):
        build_parts, build_p = FAMILY_PARTS[family]
        parts, p = build_parts(), build_p()
        n, n_states = parts.n_qubits, p.shape[0]
        assert parts.n_states == n_states and 2 * n <= 8
        dim = 2 ** n
        phi = np.zeros((n_states, dim))
        phi[:, :n_states] = np.sqrt(p).T
        owners = np.zeros(n_states, dtype=int)
        for patterns, u, b in parts.segments:
            assert all(q >= n for g in u.gates for q in g.qubits)
            members = [y for y in range(n_states)
                       if any(_selects(pat, y, n) for pat in patterns)]
            owners[members] += 1
            state = np.zeros((dim, dim))
            state[members] = phi[members]
            moved = apply(u, state.reshape(-1)).reshape(dim, dim)[members]
            np.testing.assert_allclose(moved, np.broadcast_to(basis_state(n, b), moved.shape),
                                       rtol=0, atol=1e-12)
        # every valid vertex belongs to exactly one segment
        np.testing.assert_array_equal(owners, 1)


class TestMixedTensor:
    @pytest.mark.parametrize("a, b, p", [
        (lambda: wheel_parts(2), lambda: cycle_parts(2),
         lambda: markov.tensor(_google(markov.wheel_graph(4)), markov.cycle_graph(4))),
        (lambda: bipartite_parts(2, 1), lambda: complete_parts(2),
         lambda: markov.tensor(markov.complete_bipartite(4, 2), markov.complete_graph(4))),
        (lambda: directed8_parts(), lambda: complete_parts(1),
         lambda: markov.tensor(_google(markov.directed_example8()), markov.complete_graph(2))),
        (lambda: win_cycles_parts(2, 2), lambda: complete_parts(1),
         lambda: markov.tensor(markov.win_cycles(4, 4), markov.complete_graph(2))),
        (lambda: cycle_parts(2), lambda: bipartite_parts(1, 1),
         lambda: markov.tensor(markov.cycle_graph(4), markov.complete_bipartite(2, 2))),
        (lambda: cycle_parts(2), lambda: cycle_parts(2),
         lambda: markov.tensor(markov.cycle_graph(4), markov.cycle_graph(4))),
        (lambda: complete_parts(2), lambda: complete_parts(1),
         lambda: markov.tensor(markov.complete_graph(4), markov.complete_graph(2))),
    ], ids=["wheel2-x-cycle4", "bipartite21-x-k4", "directed8-x-k2", "win22-x-k2",
            "cycle4-x-bipartite11", "cycle4-x-cycle4", "k4-x-k2"])
    def test_verifies_exactly(self, a, b, p):
        report = verify(synth_tensor(a(), b()), p(), tolerance=1e-12)
        assert report.passed, report

    def test_padded_second_factor_has_no_synthesis(self):
        # wheel(2) has N = 5 on 3 qubits: i1 * 5 + i2 is no bit concatenation
        with pytest.raises(NoSynthesis, match="second tensor factor"):
            tensor_parts(cycle_parts(2), wheel_parts(2))
