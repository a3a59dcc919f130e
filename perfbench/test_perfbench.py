"""Tests of the benchmark itself: python -m pytest perfbench"""

import json
import os
import re
import sys

import numpy as np
import pytest

import refwalk
import run
import spans

sys.path.insert(0, run.SRC)
import szwalk  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def chains():
    rng = np.random.default_rng(7)
    column = rng.random(16)
    return {
        "cycle-8": refwalk.cycle(8),
        "complete-16": refwalk.complete(16),
        "wheel-8": refwalk.google(refwalk.wheel_links(8), 9),
        "wheel-8-directed": refwalk.google(refwalk.wheel_links(8, directed=True), 9),
        "directed-8": refwalk.google(refwalk.DIRECTED8_EDGES, 8),
        "circulant-16": refwalk.circulant(column / column.sum()),
    }


@pytest.mark.parametrize("name", sorted(chains()))
def test_reference_step_matches_dense_oracle(name):
    p = chains()[name]
    n = p.shape[0]
    phi = np.sqrt(p).T
    u = szwalk.oracle.walk_operator(p).matrix
    for k in range(n * n):
        basis = np.zeros(n * n)
        basis[k] = 1.0
        column = refwalk.walk_step(basis.reshape(n, n), phi).reshape(n * n)
        assert np.abs(column - u[:, k]).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(chains()))
def test_reference_series_matches_oracle_pagerank(name):
    p = chains()[name]
    want = szwalk.pagerank.run(szwalk.oracle.walk_operator(p), p, steps=40).instantaneous
    assert np.abs(refwalk.pagerank_series(p, 40) - want).max() <= 1e-12


def test_reference_chains_match_program_chains():
    m = szwalk.markov
    pairs = [(refwalk.cycle(8), m.cycle_graph(8)),
             (refwalk.complete(16), m.complete_graph(16)),
             (chains()["wheel-8"], m.google_matrix(m.wheel_graph(8))),
             (chains()["wheel-8-directed"], m.google_matrix(m.wheel_graph(8, directed=True))),
             (chains()["directed-8"], m.google_matrix(m.directed_example8()))]
    for ours, theirs in pairs:
        assert np.abs(ours - theirs).max() <= 1e-15


def test_metric_names_and_units_are_valid():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    # pagerank-circuit runs by name only; see its docstring.
    assert {w["name"] for w in spec["workloads"]} == set(run.workloads.WORKLOADS) - {"pagerank-circuit"}


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = spans.layer_metrics([], 1, szwalk.gates.gate_count, [])
    assert set(layer) | {"trace.overhead_ratio"} == {m["name"] for m in spec["per_layer"]}
    job = run.workloads.Job("j", "verify", None, None, work=4)
    passes = [run.Pass(1.0, [(job, 0.1 * i)], {}, []) for i in range(11)]
    e2e, _ = run.end_to_end(passes, 0.5, 0, [0.02])
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("n, value, percentile", [(11, 0, 100 / 11), (12, 1, 100 / 6),
                                                  (20, 9, 50.0), (100, 89, 90.0)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, percentile):
    samples = list(range(n))[::-1]
    assert run.tail_latency(samples) == (value, pytest.approx(percentile), n)
    assert sum(x > value for x in samples) == 10


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail_latency(range(10))


def test_tracer_records_layers_and_restores_names(tmp_path):
    original = szwalk.synth.unitary_of
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("job", "verify cycle-8"):
            code = szwalk.cli.main(["verify", "--graph", "cycle", "--n", "8"])
    finally:
        tracer.remove()
    assert code == 0 and szwalk.synth.unitary_of is original
    m = spans.layer_metrics(tracer.spans, 1, szwalk.gates.gate_count, [])
    assert m["cli.calls"] == m["verify.calls"] == m["simulator.unitary_of_calls"] == 1
    assert m["oracle.walk_operator_calls"] == 1 and m["oracle.dense_bytes"] == 8 * 8 ** 4
    assert m["simulator.bytes_computed"] == 16 * 4 ** 6
    assert m["pagerank.calls"] == 0 and m["pagerank.us_per_step"] == 0.0
    assert 0.0 < m["trace.coverage"] <= 1.0


def test_setup_sample_keeps_the_modules_the_jobs_use():
    os.makedirs(run.RESULTS, exist_ok=True)
    before = run.szwalk_modules()
    assert run.sample_setup("pagerank-circuit", 0) > 0
    after = run.szwalk_modules()
    assert after.keys() == before.keys()
    assert all(after[name] is module for name, module in before.items())
