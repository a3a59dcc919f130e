import numpy as np
import pytest

from szwalk import markov, oracle


def reference_walk_matrix(p):
    """Independent construction of S (2 Pi - I) from the definitions,
    assembled state by state rather than block by block."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    pi_proj = np.zeros((n * n, n * n))
    for i in range(n):
        psi = np.zeros(n * n)
        for j in range(n):
            psi[i * n + j] = np.sqrt(p[j, i])
        pi_proj += np.outer(psi, psi)
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[i * n + j, j * n + i] = 1.0
    return s @ (2 * pi_proj - np.eye(n * n))


REFERENCE_CHAINS = [
    markov.cycle_graph(8),
    markov.complete_bipartite(4, 2),
    markov.google_matrix(markov.directed_example8(), 0.85),
    markov.win_cycles(4, 4),
]


class TestColumnState:
    def test_c8_profile(self):
        phi = oracle.column_state(markov.cycle_graph(8), 0)
        expected = np.zeros(8)
        expected[1] = expected[7] = 1 / np.sqrt(2)
        np.testing.assert_allclose(phi, expected, atol=1e-15)

    def test_k2(self):
        np.testing.assert_array_equal(oracle.column_state(markov.complete_graph(2), 0),
                                      [0, 1])

    def test_google_wheel_column(self):
        alpha = 0.85
        g = markov.google_matrix(markov.wheel_graph(8), alpha)
        phi = oracle.column_state(g, 0)
        beta = (1 - alpha) / 9
        gamma = alpha / 3 + beta
        np.testing.assert_allclose(phi[[1, 7, 8]], np.sqrt(gamma), atol=1e-15)
        np.testing.assert_allclose(phi[[0, 2, 3, 4, 5, 6]], np.sqrt(beta), atol=1e-15)
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)

    def test_index_range(self):
        with pytest.raises(ValueError):
            oracle.column_state(markov.complete_graph(2), 2)


class TestWalkOperator:
    def test_k2_matrix(self):
        w = oracle.walk_operator(markov.complete_graph(2))
        np.testing.assert_allclose(
            w.matrix, [[-1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, -1]],
            atol=1e-15)

    @pytest.mark.parametrize("p", REFERENCE_CHAINS)
    def test_matches_reference_construction(self, p):
        np.testing.assert_allclose(oracle.walk_operator(p).matrix,
                                   reference_walk_matrix(p), atol=1e-13)

    @pytest.mark.parametrize("p", REFERENCE_CHAINS)
    def test_matrix_is_swapped_reflection(self, p):
        n = p.shape[0]
        assert np.array_equal(oracle.walk_operator(p).matrix,
                              oracle.swap_matrix(n) @ oracle.reflection(p))

    def test_unitary_for_random_stochastic(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            p = rng.random((5, 5))
            p /= p.sum(axis=0)
            u = oracle.walk_operator(p).matrix
            np.testing.assert_allclose(u.T @ u, np.eye(25), atol=1e-12)

    def test_reflection_squares_to_identity(self):
        r = oracle.reflection(markov.cycle_graph(4))
        np.testing.assert_allclose(r @ r, np.eye(16), atol=1e-12)

    def test_swap_squares_exactly(self):
        s = oracle.swap_matrix(5)
        np.testing.assert_array_equal(s @ s, np.eye(25))

    def test_guard(self):
        # the kernel runs at any N; only the dense matrix is guarded
        big = oracle.walk_operator(np.eye(65))
        with pytest.raises(ValueError):
            big.matrix

    def test_rejects_invalid_matrix(self):
        with pytest.raises(ValueError):
            oracle.walk_operator(np.eye(4) * 0.5)


class TestKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64])
    def test_apply_matches_dense_matrix(self, n):
        rng = np.random.default_rng(n)
        p = rng.random((n, n))
        p /= p.sum(axis=0)
        walk = oracle.walk_operator(p)
        u = walk.matrix
        for _ in range(3):
            state = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
            assert np.abs(walk.apply(state) - u @ state).max() < 1e-12
        real = rng.normal(size=n * n)
        assert np.abs(walk.apply(real) - u @ real).max() < 1e-12


class TestInitialSuperposition:
    def test_k2_bell_like(self):
        psi = oracle.initial_superposition(markov.complete_graph(2))
        np.testing.assert_allclose(psi, [0, 1, 1, 0] / np.sqrt(2), atol=1e-15)

    def test_unit_norm(self):
        for p in (markov.cycle_graph(8), markov.win_cycles(4, 4),
                  markov.google_matrix(markov.wheel_graph(8), 0.85)):
            psi = oracle.initial_superposition(p)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_c4_amplitude(self):
        psi = oracle.initial_superposition(markov.cycle_graph(4))
        assert psi[0 * 4 + 1] == pytest.approx(0.5 * (1 / np.sqrt(2)), abs=1e-15)

    def test_embedded_layout(self):
        g = markov.google_matrix(markov.wheel_graph(8), 0.85)
        psi = oracle.initial_superposition(g, n_qubits=4)
        assert psi.size == 256
        native = oracle.initial_superposition(g)
        for i in range(9):
            for j in range(9):
                assert psi[i * 16 + j] == native[i * 9 + j]
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
