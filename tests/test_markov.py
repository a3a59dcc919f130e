import json

import numpy as np
import pytest

from szwalk import markov


def eq3_normalize(adjacency):
    """Independent reference: P_ij = A_ij / indeg(j), computed entry by entry."""
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    p = np.zeros_like(a)
    for j in range(n):
        indeg = a[:, j].sum()
        for i in range(n):
            p[i, j] = a[i, j] / indeg
    return p


def cycle_adjacency(n):
    a = np.zeros((n, n))
    for j in range(n):
        a[(j + 1) % n, j] = 1
        a[(j - 1) % n, j] = 1
    return a


ALL_CONSTRUCTED = [
    markov.cycle_graph(8),
    markov.cycle_graph(3),
    markov.complete_graph(2),
    markov.complete_graph(7),
    markov.complete_bipartite(8, 4),
    markov.complete_bipartite(1, 1),
    markov.crown_graph(4),
    markov.crown_graph(8),
    markov.google_matrix(markov.wheel_graph(8), 0.85),
    markov.google_matrix(markov.directed_example8(), 0.85),
    markov.win_cycles(8, 4),
    markov.win_cycles(4, 4),
    markov.circulant(np.array([0.0, 0.25, 0.5, 0.25]), 2),
]


class TestCycleGraph:
    def test_n4_neighbor_halves(self):
        p = markov.cycle_graph(4)
        for j in range(4):
            assert p[(j + 1) % 4, j] == 0.5
            assert p[(j - 1) % 4, j] == 0.5
            assert p[j, j] == 0.0

    def test_n8_column0_amplitude_profile(self):
        # sqrt of column 0 must be {0, 1/sqrt(2), 0, ..., 0, 1/sqrt(2)}
        phi = np.sqrt(markov.cycle_graph(8)[:, 0])
        expected = np.zeros(8)
        expected[1] = expected[7] = 1 / np.sqrt(2)
        np.testing.assert_allclose(phi, expected, atol=1e-15)

    def test_n3_matches_direct_normalization(self):
        np.testing.assert_allclose(markov.cycle_graph(3),
                                   eq3_normalize(cycle_adjacency(3)), atol=1e-15)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            markov.cycle_graph(2)


class TestCompleteGraph:
    def test_n8_column0(self):
        p = markov.complete_graph(8)
        assert p[0, 0] == 0.0
        np.testing.assert_allclose(np.sqrt(p[1:, 0]), np.sqrt(1 / 7), atol=1e-15)

    def test_k2_matrix(self):
        np.testing.assert_array_equal(markov.complete_graph(2), [[0, 1], [1, 0]])

    def test_n4_matches_direct_normalization(self):
        a = np.ones((4, 4)) - np.eye(4)
        np.testing.assert_allclose(markov.complete_graph(4), eq3_normalize(a), atol=1e-15)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            markov.complete_graph(1)


class TestCompleteBipartite:
    def test_8_4_blocks(self):
        p = markov.complete_bipartite(8, 4)
        np.testing.assert_array_equal(p[:8, 8:], np.full((8, 4), 1 / 8))
        np.testing.assert_array_equal(p[8:, :8], np.full((4, 8), 1 / 4))
        np.testing.assert_array_equal(p[:8, :8], np.zeros((8, 8)))

    def test_1_1_is_k2(self):
        np.testing.assert_array_equal(markov.complete_bipartite(1, 1), [[0, 1], [1, 0]])

    def test_2_2_matches_normalized_adjacency(self):
        a = np.zeros((4, 4))
        a[:2, 2:] = 1
        a[2:, :2] = 1
        np.testing.assert_allclose(markov.complete_bipartite(2, 2), eq3_normalize(a),
                                   atol=1e-15)


class TestCrownGraph:
    def test_n4_three_thirds_per_column(self):
        p = markov.crown_graph(4)
        assert p.shape == (8, 8)
        for j in range(8):
            col = p[:, j]
            assert np.count_nonzero(col) == 3
            np.testing.assert_allclose(col[col > 0], 1 / 3, atol=1e-15)

    def test_equals_tensor_of_factors(self):
        np.testing.assert_allclose(
            markov.crown_graph(4),
            markov.tensor(markov.complete_graph(4), markov.complete_graph(2)),
            atol=1e-15)

    def test_n8_matches_adjacency_tensor(self):
        a = np.kron(np.ones((8, 8)) - np.eye(8), [[0, 1], [1, 0]])
        p = markov.crown_graph(8)
        np.testing.assert_allclose(p, eq3_normalize(a), atol=1e-15)
        # support pattern: opposite K_2 parity and distinct K_8 halves
        for i in range(16):
            for j in range(16):
                expect = (i % 2 != j % 2) and (i // 2 != j // 2)
                assert (p[i, j] > 0) == expect

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            markov.crown_graph(6)


class TestWheelGraph:
    def test_w8_blocks(self):
        c = markov.wheel_graph(8)
        np.testing.assert_array_equal(c[:8, :8], cycle_adjacency(8))
        np.testing.assert_array_equal(c[8, :8], np.ones(8))
        np.testing.assert_array_equal(c[:8, 8], np.ones(8))
        assert c[8, 8] == 0

    def test_w8_directed_hub_column_zero(self):
        c = markov.wheel_graph(8, directed=True)
        np.testing.assert_array_equal(c[:, 8], np.zeros(9))
        np.testing.assert_array_equal(c[8, :8], np.ones(8))

    def test_w4_symmetric_degree3(self):
        c = markov.wheel_graph(4)
        np.testing.assert_array_equal(c, c.T)
        np.testing.assert_array_equal(c[:, :4].sum(axis=0), np.full(4, 3.0))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            markov.wheel_graph(6)


class TestDirectedExample8:
    def test_printed_entries(self):
        c = markov.directed_example8()
        assert c[1, 0] == 1 and c[0, 3] == 1 and c[0, 4] == 1

    def test_column6(self):
        c = markov.directed_example8()
        np.testing.assert_array_equal(c[:, 6], [0, 0, 0, 0, 1, 1, 1, 1])

    def test_cycle_columns_have_single_entry(self):
        c = markov.directed_example8()
        for j in range(4):
            assert c[:, j].sum() == 1


class TestGoogleMatrix:
    def test_w8_outer_column_beta_gamma(self):
        alpha = 0.85
        beta = (1 - alpha) / 9
        gamma = alpha / 3 + beta
        g = markov.google_matrix(markov.wheel_graph(8), alpha)
        col = g[:, 0]
        np.testing.assert_allclose(col[[1, 7, 8]], gamma, atol=1e-15)
        np.testing.assert_allclose(col[[0, 2, 3, 4, 5, 6]], beta, atol=1e-15)

    def test_alpha_zero_uniform(self):
        g = markov.google_matrix(markov.directed_example8(), 0.0)
        np.testing.assert_allclose(g, np.full((8, 8), 1 / 8), atol=1e-15)

    def test_alpha_one_on_dangling_free(self):
        c = markov.wheel_graph(8)
        g = markov.google_matrix(c, 1.0)
        np.testing.assert_allclose(g, eq3_normalize(c), atol=1e-15)

    def test_dense_for_alpha_below_one(self):
        g = markov.google_matrix(markov.wheel_graph(8, directed=True), 0.85)
        assert (g > 0).all()

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            markov.google_matrix(markov.wheel_graph(4), 1.1)


class TestTensor:
    def test_crown_identity(self):
        np.testing.assert_allclose(
            markov.tensor(markov.complete_graph(4), markov.complete_graph(2)),
            markov.crown_graph(4), atol=1e-15)

    def test_identity_factor(self):
        p = markov.cycle_graph(4)
        np.testing.assert_array_equal(markov.tensor(p, np.array([[1.0]])), p)

    def test_entrywise_product_and_column_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p1 = rng.random((3, 3))
            p1 /= p1.sum(axis=0)
            p2 = rng.random((4, 4))
            p2 /= p2.sum(axis=0)
            t = markov.tensor(p1, p2)
            np.testing.assert_allclose(t.sum(axis=0), 1.0, atol=1e-12)
            for i1 in range(3):
                for i2 in range(4):
                    for j1 in range(3):
                        for j2 in range(4):
                            assert t[i1 * 4 + i2, j1 * 4 + j2] == pytest.approx(
                                p1[i1, j1] * p2[i2, j2], abs=1e-15)


class TestWinCycles:
    def test_8_4_column0(self):
        p = markov.win_cycles(8, 4)
        col = p[:, 0]
        nz = np.flatnonzero(col)
        np.testing.assert_array_equal(nz, [1, 7, 8, 9, 10, 11])
        np.testing.assert_allclose(col[nz], 1 / 6, atol=1e-15)

    def test_columns_sum_to_one(self):
        for p in (markov.win_cycles(8, 4), markov.win_cycles(8, 8)):
            np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)

    def test_4_4_six_nonzeros_each(self):
        p = markov.win_cycles(4, 4)
        for j in range(8):
            col = p[:, j]
            assert np.count_nonzero(col) == 6
            np.testing.assert_allclose(col[col > 0], 1 / 6, atol=1e-15)

    def test_rejects_sizes(self):
        with pytest.raises(ValueError):
            markov.win_cycles(4, 8)
        with pytest.raises(ValueError):
            markov.win_cycles(8, 2)


class TestCirculant:
    def test_columns_are_rolls(self):
        col = np.array([0.0, 0.25, 0.5, 0.25])
        p = markov.circulant(col, 2)
        for i in range(4):
            np.testing.assert_array_equal(p[:, i], np.roll(col, 2 * i))

    @pytest.mark.parametrize("column, message", [
        ([], "column is empty"),
        ([-0.5, 1.5], "column entries must be nonnegative, got -0.5"),
        ([np.nan, 1.0], "column entries must be nonnegative, got nan"),
        ([0.7, 0.7], "column sums to 1.4, not 1"),
        ([0.5, 0.5 + 1e-9], "column sums to"),
    ], ids=["empty", "negative", "nan", "sum-1.4", "sum-just-off"])
    def test_column_that_is_not_a_distribution_is_named(self, column, message):
        with pytest.raises(ValueError, match=message):
            markov.circulant(np.array(column), 1)

    def test_single_state_column_is_the_trivial_chain(self):
        np.testing.assert_array_equal(markov.circulant(np.array([1.0])), [[1.0]])


class TestValidate:
    def test_cycle_passes(self):
        assert markov.validate(markov.cycle_graph(8)).ok

    def test_short_column_fails_with_deviation(self):
        p = markov.cycle_graph(4).copy()
        p[:, 2] *= 0.9
        report = markov.validate(p)
        assert not report.ok
        assert report.max_column_deviation == pytest.approx(0.1, abs=1e-12)

    def test_negative_entry_fails(self):
        p = markov.cycle_graph(4).copy()
        p[1, 1] -= 1e-6
        p[0, 1] += 1e-6
        report = markov.validate(p)
        assert not report.ok
        assert report.min_entry == pytest.approx(-1e-6, abs=1e-12)

    def test_google_of_directed8_passes(self):
        g = markov.google_matrix(markov.directed_example8(), 0.85)
        assert markov.validate(g).ok


@pytest.mark.parametrize("p", ALL_CONSTRUCTED)
def test_constructor_invariants(p):
    assert (p >= 0).all()
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)


class TestFromSpec:
    @pytest.mark.parametrize("spec, builder", [
        ({"type": "cycle", "params": {"n": 8}}, lambda: markov.cycle_graph(8)),
        ({"type": "complete", "params": {"n": 4}}, lambda: markov.complete_graph(4)),
        ({"type": "bipartite", "params": {"n1": 4, "n2": 2}},
         lambda: markov.complete_bipartite(4, 2)),
        ({"type": "crown", "params": {"n": 4}}, lambda: markov.crown_graph(4)),
        ({"type": "wheel", "params": {"n": 8, "alpha": 0.85}},
         lambda: markov.google_matrix(markov.wheel_graph(8), 0.85)),
        ({"type": "wheel_directed", "params": {"n": 8, "alpha": 0.85}},
         lambda: markov.google_matrix(markov.wheel_graph(8, directed=True), 0.85)),
        ({"type": "win", "params": {"n1": 8, "n2": 4}}, lambda: markov.win_cycles(8, 4)),
        ({"type": "k2", "params": {}}, lambda: markov.complete_graph(2)),
        ({"type": "directed8", "params": {"alpha": 0.85}},
         lambda: markov.google_matrix(markov.directed_example8(), 0.85)),
        ({"type": "circulant", "params": {"column": [0.0, 0.5, 0.25, 0.25], "offset_x": 3}},
         lambda: markov.circulant(np.array([0.0, 0.5, 0.25, 0.25]), 3)),
    ])
    def test_known_types(self, spec, builder):
        np.testing.assert_allclose(markov.from_spec(spec), builder(), atol=1e-15)

    def test_custom_row_of_columns(self):
        p = markov.cycle_graph(4)
        spec = json.loads(json.dumps({"type": "custom",
                                      "matrix": [list(p[:, j]) for j in range(4)]}))
        np.testing.assert_allclose(markov.from_spec(spec), p, atol=1e-15)

    def test_custom_rejects_zero_column(self):
        with pytest.raises(ValueError):
            markov.from_spec({"type": "custom",
                              "matrix": [[0.0, 0.0], [1.0, 0.0]]})

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            markov.from_spec({"type": "torus", "params": {}})

    def test_type_that_is_not_a_string(self):
        with pytest.raises(ValueError, match="unknown graph spec type"):
            markov.from_spec({"type": ["cycle"], "params": {"n": 8}})

    def test_missing_param_names_it(self):
        with pytest.raises(ValueError, match="'n2'"):
            markov.from_spec({"type": "win", "params": {"n1": 8}})

    def test_unknown_params_are_named(self):
        with pytest.raises(ValueError, match="cycle spec takes no 'alpha', 'bogus'"):
            markov.from_spec({"type": "cycle", "params": {"n": 8, "alpha": 0.5, "bogus": 1}})
        with pytest.raises(ValueError, match="cycle spec takes no 'matrix'"):
            markov.from_spec({"type": "cycle", "params": {"n": 4}, "matrix": [[1.0]]})

    @pytest.mark.parametrize("spec, name", [
        ({"type": "cycle", "params": {"n": None}}, "n"),
        ({"type": "cycle", "params": {"n": [8]}}, "n"),
        ({"type": "cycle", "params": {"n": 8.7}}, "n"),
        ({"type": "cycle", "params": {"n": True}}, "n"),
        ({"type": "wheel", "params": {"n": 8, "alpha": None}}, "alpha"),
        ({"type": "wheel", "params": {"n": 8, "alpha": "0.85"}}, "alpha"),
        ({"type": "circulant", "params": {"column": 0.5}}, "column"),
        ({"type": "circulant", "params": {"column": [0.5, 0.5], "offset_x": 1.5}}, "offset_x"),
        ({"type": "custom", "matrix": {"a": 1}}, "matrix"),
        ({"type": "custom", "matrix": [[0.0, 1.0], [1.0]]}, "matrix"),
    ], ids=["n-null", "n-list", "n-fraction", "n-bool", "alpha-null", "alpha-string",
            "column-scalar", "offset-fraction", "matrix-object", "matrix-ragged"])
    def test_param_of_the_wrong_type_is_named(self, spec, name):
        with pytest.raises(ValueError, match=f"spec param '{name}' must be"):
            markov.from_spec(spec)

    def test_integral_float_size_accepted(self):
        np.testing.assert_array_equal(
            markov.from_spec({"type": "cycle", "params": {"n": 8.0}}), markov.cycle_graph(8))
