import math

import numpy as np
import pytest

from szwalk import gates, simulator
from szwalk.gates import Circuit, compose
from szwalk.simulator import _apply_gate, apply, basis_state, unitary_of
from helpers import random_circuit


class TestApply:
    def test_x_flips(self):
        c = Circuit(1, [gates.x(0)])
        np.testing.assert_allclose(apply(c, basis_state(1, 0)), basis_state(1, 1), atol=1e-15)

    def test_ry_rotation_convention(self):
        theta = 0.81
        c = Circuit(1, [gates.ry(0, theta)])
        out = apply(c, basis_state(1, 0))
        np.testing.assert_allclose(out, [math.cos(theta), math.sin(theta)], atol=1e-15)
        out1 = apply(c, basis_state(1, 1))
        np.testing.assert_allclose(out1, [-math.sin(theta), math.cos(theta)], atol=1e-15)

    def test_swap_exchanges(self):
        c = Circuit(2, [gates.swap(0, 1)])
        np.testing.assert_allclose(apply(c, basis_state(2, 0b01)), basis_state(2, 0b10),
                                   atol=1e-15)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            apply(Circuit(2), basis_state(1, 0))

    def test_input_not_mutated(self):
        s = basis_state(1, 0)
        apply(Circuit(1, [gates.x(0)]), s)
        np.testing.assert_array_equal(s, basis_state(1, 0))


class TestUnitaryOf:
    def test_empty_is_identity(self):
        np.testing.assert_allclose(unitary_of(Circuit(3)), np.eye(8), atol=1e-15)

    def test_hadamard(self):
        u = unitary_of(Circuit(1, [gates.h(0)]))
        np.testing.assert_allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)

    def test_k2_walk_circuit_matches_direct_evaluation(self):
        # independent oracle: S (2 Pi - I) with Pi = |01><01| + |10><10|
        pi_proj = np.zeros((4, 4))
        pi_proj[1, 1] = pi_proj[2, 2] = 1.0
        s = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                s[i * 2 + j, j * 2 + i] = 1.0
        expected = s @ (2 * pi_proj - np.eye(4))
        np.testing.assert_array_equal(
            expected, [[-1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]])
        from szwalk.synth import synth_k2
        np.testing.assert_allclose(unitary_of(synth_k2()), expected, atol=1e-15)

    def test_width_guard(self):
        with pytest.raises(ValueError):
            unitary_of(Circuit(13))

    def test_empty_columns(self):
        for cols in ([], np.array([], dtype=np.int64)):
            assert unitary_of(Circuit(3, [gates.h(0)]), cols).shape == (8, 0)

    @pytest.mark.parametrize("cols", [[8], [-1], [0.0, 1.0], [[0, 1]], [True, False]],
                             ids=["past-end", "negative", "float", "2-D", "bool"])
    def test_bad_columns_name_columns_and_dimension(self, cols):
        with pytest.raises(ValueError, match=r"columns.*dimension 8"):
            unitary_of(Circuit(3, [gates.h(0)]), cols)


class TestInvariants:
    def test_norm_preservation(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            c = random_circuit(rng, 4, 12)
            s = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            s /= np.linalg.norm(s)
            assert np.linalg.norm(apply(c, s)) == pytest.approx(1.0, abs=1e-10)

    def test_unitarity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            u = unitary_of(random_circuit(rng, 3, 10))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-10)

    def test_apply_compose_consistency(self):
        rng = np.random.default_rng(37)
        a = random_circuit(rng, 3, 6)
        b = random_circuit(rng, 3, 6)
        s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        s /= np.linalg.norm(s)
        np.testing.assert_allclose(apply(compose(a, b), s), apply(b, apply(a, s)),
                                   atol=1e-12)


def gate_by_gate(circuit, array):
    """Reference executor: every gate in order on the whole array, no blocks."""
    array = np.array(array, dtype=complex)
    t = array.reshape((2,) * circuit.width + array.shape[1:])
    for g in circuit.gates:
        _apply_gate(t, g)
    return array


def assert_bit_identical(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got.real), np.signbit(want.real))
    np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(want.imag))


class TestMatchesGateByGate:
    @pytest.mark.parametrize("width", range(1, 11))
    def test_random_circuits_match_gate_by_gate(self, width):
        rng = np.random.default_rng(100 + width)
        c = random_circuit(rng, width, 24)
        dim = 2 ** width
        s = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        s[::3] = -0.0
        assert_bit_identical(apply(c, s), gate_by_gate(c, s))
        assert_bit_identical(unitary_of(c), gate_by_gate(c, np.eye(dim)))

    @pytest.mark.parametrize("width", range(1, 11))
    def test_column_subsets_match_full_unitary(self, width):
        rng = np.random.default_rng(200 + width)
        c = random_circuit(rng, width, 24)
        dim = 2 ** width
        full = unitary_of(c)
        k = min(dim, 5)
        subsets = {"sorted": np.sort(rng.choice(dim, k, replace=False)),
                   "unsorted": rng.permutation(dim)[:k],
                   "repeated": rng.integers(0, dim, 2 * k)}
        if width == 10:   # 64 columns per block at width 10
            subsets["several blocks"] = rng.permutation(dim)[:300]
        for cols in subsets.values():
            assert_bit_identical(unitary_of(c, cols), full[:, cols])

    def test_column_subsets_with_one_column_per_block(self, monkeypatch):
        monkeypatch.setattr(simulator, "_BLOCK_AMPLITUDES", 1)
        rng = np.random.default_rng(211)
        c = random_circuit(rng, 5, 24)
        cols = [31, 0, 7, 7, 12]
        assert_bit_identical(unitary_of(c, cols), gate_by_gate(c, np.eye(32))[:, cols])

    def test_x_and_swap_only(self):
        c = Circuit(4, [gates.x(0), gates.swap(1, 3, [(0, 1)]), gates.x(2, [(1, 0), (3, 1)]),
                        gates.swap(0, 2)])
        assert_bit_identical(unitary_of(c), gate_by_gate(c, np.eye(16)))

    def test_sign_gates_only(self):
        c = Circuit(3, [gates.z(0), gates.zp(1, [(0, 1)]), gates.gphase(-1, [(2, 0)]),
                        gates.gphase(-1)])
        assert_bit_identical(unitary_of(c), gate_by_gate(c, np.eye(8)))

    def test_width_zero_phase(self):
        u = unitary_of(Circuit(0, [gates.gphase(-1)]))
        assert_bit_identical(u, np.array([[-1.0 + 0j]]))

    def test_equal_circuits_with_signed_zero_angles_run_their_own(self):
        plus = Circuit(1, [gates.z(0), gates.ry(0, 0.0)])
        minus = Circuit(1, [gates.z(0), gates.ry(0, -0.0)])
        assert plus == minus and hash(plus) == hash(minus)
        want_plus = gate_by_gate(plus, np.eye(2))
        want_minus = gate_by_gate(minus, np.eye(2))
        assert not np.array_equal(np.signbit(want_plus.real), np.signbit(want_minus.real))
        for c, want in ((plus, want_plus), (minus, want_minus)):
            assert_bit_identical(unitary_of(c), want)
            assert_bit_identical(apply(c, np.array([1.0, 0.0])), want[:, 0])
