import csv

import numpy as np
import pytest

from szwalk import markov, oracle, pagerank
from szwalk.synth import shift_circuit, synth_cycle, synth_k2, synth_wheel


class TestRun:
    def test_t0_marginals_match_definition(self):
        # Q(j, 0) = (1/N) sum_i P(j, i), no evolution applied yet
        p = markov.google_matrix(markov.directed_example8(), 0.85)
        series = pagerank.run(oracle.walk_operator(p), p, steps=1)
        np.testing.assert_allclose(series.instantaneous[0], p.sum(axis=1) / 8, atol=1e-12)
        assert series.instantaneous[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_rows_normalized_and_average_consistent(self):
        p = markov.cycle_graph(4)
        series = pagerank.run(synth_cycle(2), p, steps=25)
        np.testing.assert_allclose(series.instantaneous.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(series.average, series.instantaneous.mean(axis=0),
                                   atol=1e-12)

    def test_oracle_beyond_dense_guard(self):
        p = markov.google_matrix(markov.wheel_graph(1024), 0.85)
        series = pagerank.run(oracle.walk_operator(p), p, steps=3)
        assert series.instantaneous.shape == (3, 1025)
        np.testing.assert_allclose(series.instantaneous.sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("build", [
        lambda: (synth_k2(), markov.complete_graph(2)),
        lambda: (synth_cycle(2), markov.cycle_graph(4)),
        lambda: (synth_wheel(2), markov.google_matrix(markov.wheel_graph(4), 0.85)),
    ])
    def test_backend_agreement(self, build):
        circuit, p = build()
        a = pagerank.run(circuit, p, steps=40)
        b = pagerank.run(oracle.walk_operator(p), p, steps=40)
        assert np.abs(a.instantaneous - b.instantaneous).max() < 1e-9

    def test_leakage_aborts(self):
        # wheel chain on embedded registers, but a walk that drives register 2
        # out of the valid range: each double step sends |j> to |j+2 mod 16>
        p = markov.google_matrix(markov.wheel_graph(8), 0.85)
        leaky = shift_circuit(4, 1, "right", width=8, offset=4)
        with pytest.raises(pagerank.LeakageError):
            pagerank.run(leaky, p, steps=3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pagerank.run(synth_k2(), markov.cycle_graph(8), steps=2)
        with pytest.raises(ValueError):
            pagerank.run(oracle.walk_operator(markov.cycle_graph(4)),
                         markov.cycle_graph(8), steps=2)

    def test_rejects_bad_steps_and_backend(self):
        with pytest.raises(ValueError):
            pagerank.run(synth_k2(), markov.complete_graph(2), steps=0)
        with pytest.raises(TypeError):
            pagerank.run("nope", markov.complete_graph(2), steps=2)


class TestCompareHub:
    def test_identical_series_zero_difference(self):
        p = markov.google_matrix(markov.wheel_graph(4), 0.85)
        s = pagerank.run(oracle.walk_operator(p), p, steps=30)
        cmp = pagerank.compare_hub(s, s)
        assert cmp.difference == 0.0
        assert not cmp.second_exceeds_first

    def test_swapped_arguments_negate(self):
        pu = markov.google_matrix(markov.wheel_graph(4), 0.85)
        pd = markov.google_matrix(markov.wheel_graph(4, directed=True), 0.85)
        su = pagerank.run(oracle.walk_operator(pu), pu, steps=30)
        sd = pagerank.run(oracle.walk_operator(pd), pd, steps=30)
        fwd = pagerank.compare_hub(su, sd)
        rev = pagerank.compare_hub(sd, su)
        assert fwd.difference == pytest.approx(-rev.difference, abs=1e-15)


class TestExport:
    def test_row_counts_small(self, tmp_path):
        p = markov.complete_graph(2)
        series = pagerank.run(oracle.walk_operator(p), p, steps=2)
        out = tmp_path / "series.csv"
        pagerank.export(series, out)
        rows = [r for r in open(out) if not r.startswith("#")]
        assert len(rows) == 1 + 2 * 2  # header + T*N data rows

    def test_round_trip_matches_printed_precision(self, tmp_path):
        p = markov.cycle_graph(4)
        series = pagerank.run(oracle.walk_operator(p), p, steps=5)
        out = tmp_path / "series.csv"
        pagerank.export(series, out)
        with open(out) as fh:
            fh.readline()  # version comment
            for row in csv.DictReader(fh):
                t, j = int(row["t"]), int(row["vertex"])
                assert float(row["Q"]) == pytest.approx(series.instantaneous[t, j],
                                                        abs=1e-12)

    def test_wheel_export_has_nine_vertices(self, tmp_path):
        p = markov.google_matrix(markov.wheel_graph(8), 0.85)
        series = pagerank.run(oracle.walk_operator(p), p, steps=4)
        out = tmp_path / "w8.csv"
        pagerank.export(series, out, plot_path=tmp_path / "w8.svg")
        rows = [r for r in open(out) if not r.startswith("#")]
        assert len(rows) == 1 + 4 * 9
        summary = [r for r in open(tmp_path / "w8_summary.csv") if not r.startswith("#")]
        assert len(summary) == 1 + 9
        svg = (tmp_path / "w8.svg").read_text()
        assert svg.count("<polyline") == 9

    def test_summary_json(self):
        p = markov.complete_graph(2)
        series = pagerank.run(oracle.walk_operator(p), p, steps=3)
        d = pagerank.summary_json(series)
        assert set(d) == {"0", "1"}
        assert d["0"] == pytest.approx(series.average[0])


class TestSpecProperties:
    def test_running_mean_stability_wheel(self):
        # the T-step and 2T-step averages agree well before T = 1000
        p = markov.google_matrix(markov.wheel_graph(8), 0.85)
        series = pagerank.run(oracle.walk_operator(p), p, steps=2000)
        half = series.instantaneous[:1000].mean(axis=0)
        assert np.abs(half - series.average).max() < 1e-3

    def test_directed8_instantaneous_subset_symmetry(self):
        p = markov.google_matrix(markov.directed_example8(), 0.85)
        inst = pagerank.run(oracle.walk_operator(p), p, steps=50).instantaneous
        for group in ([0, 1, 2, 3], [4, 5], [6, 7]):
            spread = inst[:, group].max(axis=1) - inst[:, group].min(axis=1)
            assert spread.max() < 1e-8
