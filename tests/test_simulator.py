import math

import numpy as np
import pytest

from szwalk import gates
from szwalk.gates import Circuit, compose
from szwalk.simulator import apply, basis_state, unitary_of
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
