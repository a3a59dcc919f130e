import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from szwalk import cli, markov, oracle
from szwalk.cli import main
from szwalk.gates import from_text
from szwalk.synth import shift_circuit, verify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_cycle8_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--graph", "cycle", "--n", "8")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["max_deviation"] < 1e-10

    def test_unreachable_tolerance_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--graph", "cycle", "--n", "8",
                               "--tol", "1e-20")
        assert code == 1
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_exits_two(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify", "--graph", "cycle", "--n", "8", "--tol", tol)
        assert code == 2 and out == "" and "tolerance must be finite and nonnegative" in err

    def test_invalid_input_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--graph", "cycle", "--n", "6")
        assert code == 2 and "power of two" in err

    def test_no_synthesis_exits_two(self, capsys, tmp_path):
        spec = tmp_path / "circ6.json"
        spec.write_text(json.dumps({"type": "circulant",
                                    "params": {"column": [0, 0.5, 0, 0, 0, 0.5]}}))
        code, _, err = run_cli(capsys, "verify", "--spec", str(spec))
        assert code == 2 and "no gate synthesis" in err

    def test_missing_graph_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2 and "graph" in err


class TestSpecFile:
    @pytest.mark.parametrize("spec", [[1, 2], "cycle", {"type": "cycle", "params": [8]}],
                             ids=["list", "string", "params-list"])
    def test_spec_that_is_not_an_object_exits_two(self, capsys, tmp_path, spec):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "synth", "--spec", str(path))
        assert code == 2 and out == "" and "must be a JSON object" in err

    def test_param_the_type_does_not_take_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "graph.json").write_text(json.dumps(
            {"type": "cycle", "params": {"n": 8, "alpha": 0.5, "bogus": 1}}))
        code, _, err = run_cli(capsys, "pagerank", "--spec", "graph.json", "--steps", "2")
        assert code == 2 and "takes no 'alpha', 'bogus'" in err
        assert [f.name for f in tmp_path.iterdir()] == ["graph.json"]

    @pytest.mark.parametrize("params, name", [
        ({"n": None}, "n"), ({"n": [8]}, "n"), ({"n": 8.7}, "n"),
        ({"n": 8, "alpha": None}, "alpha"), ({"column": 0.5}, "column"),
    ], ids=["cycle-n-null", "cycle-n-list", "cycle-n-fraction", "wheel-alpha-null",
            "circulant-column-scalar"])
    def test_param_of_the_wrong_type_exits_two(self, capsys, tmp_path, params, name):
        kind = {"alpha": "wheel", "column": "circulant"}.get(name, "cycle")
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"type": kind, "params": params}))
        code, out, err = run_cli(capsys, "synth", "--spec", str(path))
        assert code == 2 and out == "" and f"param '{name}' must be" in err


    @pytest.mark.parametrize("column", [[], [-0.5, 1.5], [0.7, 0.7]],
                             ids=["empty", "negative", "sum-off-one"])
    def test_circulant_column_that_is_not_a_distribution_exits_two(self, capsys, tmp_path,
                                                                   column):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"type": "circulant", "params": {"column": column}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "synth", "--spec", str(path))
        assert code == 2 and out == "" and "circulant column" in err

    def test_single_state_circulant_names_its_size(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"type": "circulant", "params": {"column": [1]}}))
        code, _, err = run_cli(capsys, "synth", "--spec", str(path))
        assert code == 2 and "at least 2 states, got 1" in err and "power of two" not in err

    def test_label_comes_from_the_typed_params(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "graph.json").write_text(json.dumps({"type": "cycle", "params": {"n": 8.0}}))
        for argv in (["--spec", "graph.json"], ["--graph", "cycle", "--n", "8"]):
            code, out, _ = run_cli(capsys, "pagerank", *argv, "--backend", "oracle",
                                   "--steps", "2")
            assert code == 0 and out.startswith("wrote pagerank_cycle-8.csv;")
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "graph.json", "pagerank_cycle-8.csv", "pagerank_cycle-8_summary.csv"]

    @pytest.mark.parametrize("spec, label", [
        ({"type": "wheel", "params": {"n": 8}}, "wheel-8"),
        ({"type": "custom", "params": {"matrix": [[0.5, 0.5], [0.5, 0.5]]}}, "custom"),
    ], ids=["wheel-default-alpha", "custom-matrix-in-params"])
    def test_label_names_only_the_scalar_params_given(self, spec, label):
        assert cli.build_walk(spec)[0] == label


class TestSynthCommand:
    def test_k2_text_round_trips_to_oracle_equal_circuit(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--graph", "k2")
        assert code == 0
        circuit = from_text(out)
        assert verify(circuit, markov.complete_graph(2)).passed

    def test_wheel_synthesis_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "w8.circuit"
        code, _, _ = run_cli(capsys, "synth", "--graph", "wheel", "--n", "8",
                             "--alpha", "0.85", "--out", str(out_path))
        assert code == 0
        circuit = from_text(out_path.read_text())
        g = markov.google_matrix(markov.wheel_graph(8), 0.85)
        assert verify(circuit, g).passed

    def test_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "graph.json"
        spec.write_text(json.dumps({"type": "complete", "params": {"n": 4}}))
        code, out, _ = run_cli(capsys, "synth", "--spec", str(spec))
        assert code == 0
        assert verify(from_text(out), markov.complete_graph(4)).passed

    def test_no_synthesis_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "synth", "--graph", "cycle", "--n", "6")
        assert code == 2 and "no gate synthesis" in err and out == ""

    def test_bipartite_outside_synthesis_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "synth", "--graph", "bipartite",
                                 "--n1", "2", "--n2", "8")
        assert code == 2 and "no gate synthesis" in err and out == ""


class TestPagerankCommand:
    def test_deterministic_csv_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(capsys, "pagerank", "--graph", "wheel", "--n", "8",
                                 "--steps", "20", "--out", str(p))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (tmp_path / "a_summary.csv").read_bytes() == \
            (tmp_path / "b_summary.csv").read_bytes()

    def test_oracle_backend_and_summary(self, capsys, tmp_path):
        out = tmp_path / "d8.csv"
        summary = tmp_path / "d8.json"
        code, _, _ = run_cli(capsys, "pagerank", "--graph", "directed8",
                             "--steps", "10", "--backend", "oracle",
                             "--out", str(out), "--summary-json", str(summary))
        assert code == 0
        avg = json.loads(summary.read_text())
        assert len(avg) == 8
        assert abs(sum(avg.values()) - 1.0) < 1e-9

    def test_oracle_fallback_for_non_power_of_two(self, capsys, tmp_path):
        summary = tmp_path / "c6.json"
        code, _, _ = run_cli(capsys, "pagerank", "--graph", "cycle", "--n", "6",
                             "--steps", "5", "--backend", "oracle",
                             "--out", str(tmp_path / "c6.csv"),
                             "--summary-json", str(summary))
        assert code == 0
        avg = json.loads(summary.read_text())
        assert len(avg) == 6
        assert abs(sum(avg.values()) - 1.0) < 1e-9

    def test_bipartite_outside_synthesis_runs_on_oracle(self, capsys, tmp_path):
        summary = tmp_path / "k28.json"
        code, _, _ = run_cli(capsys, "pagerank", "--graph", "bipartite",
                             "--n1", "2", "--n2", "8", "--steps", "5", "--backend", "oracle",
                             "--out", str(tmp_path / "k28.csv"),
                             "--summary-json", str(summary))
        assert code == 0
        assert len(json.loads(summary.read_text())) == 10

    def test_oracle_backend_synthesizes_nothing(self, capsys, tmp_path, monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("synthesized a circuit the oracle backend never runs")
        monkeypatch.setattr(cli.synth, "synth_from_parts", no_synthesis)
        code, _, _ = run_cli(capsys, "pagerank", "--graph", "cycle", "--n", "8",
                             "--steps", "3", "--backend", "oracle",
                             "--out", str(tmp_path / "c8.csv"))
        assert code == 0

    def test_leakage_exits_one(self, capsys, tmp_path, monkeypatch):
        # a "wheel" circuit that drives register 2 onto invalid vertices
        monkeypatch.setattr(cli.synth, "synth_from_parts",
                            lambda parts: shift_circuit(4, 1, "right", width=8, offset=4))
        code, _, err = run_cli(capsys, "pagerank", "--graph", "wheel", "--n", "8",
                               "--steps", "3", "--out", str(tmp_path / "w8.csv"))
        assert code == 1 and "invalid vertices" in err


class TestCustomSpec:
    # a 3-state chain as a row of columns, matrix[j][i] = P(i, j)
    COLUMNS = [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.25, 0.25, 0.5]]

    @pytest.fixture
    def spec(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({"type": "custom", "matrix": self.COLUMNS}))
        return str(path)

    @pytest.mark.parametrize("command", ["synth", "verify"])
    def test_circuit_commands_exit_two(self, capsys, spec, command):
        code, out, err = run_cli(capsys, command, "--spec", spec)
        assert code == 2 and out == "" and "no gate synthesis for 'custom'" in err

    def test_pagerank_falls_back_to_the_oracle(self, capsys, tmp_path, spec):
        outs = [tmp_path / "circuit.csv", tmp_path / "oracle.csv"]
        for out, backend in zip(outs, ["circuit", "oracle"]):
            code, _, _ = run_cli(capsys, "pagerank", "--spec", spec, "--steps", "5",
                                 "--backend", backend, "--out", str(out))
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (tmp_path / "circuit_summary.csv").read_bytes() == \
            (tmp_path / "oracle_summary.csv").read_bytes()

    def test_simulate_falls_back_to_the_oracle(self, capsys, spec):
        code, out, _ = run_cli(capsys, "simulate", "--spec", spec, "--steps", "2")
        assert code == 0
        values = np.array([[float(v) for v in ln.split(",")[1:]] for ln in out.splitlines()[2:]])
        p = np.array(self.COLUMNS).T
        u = oracle.walk_operator(p).matrix
        np.testing.assert_allclose(values[:, 0] + 1j * values[:, 1],
                                   u @ u @ oracle.initial_superposition(p), atol=1e-12)


class TestSimulateCommand:
    def test_statevector_csv(self, capsys, tmp_path):
        out = tmp_path / "state.csv"
        code, _, _ = run_cli(capsys, "simulate", "--graph", "k2", "--steps", "1",
                             "--out", str(out))
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "index,re,im"
        values = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
        # one walk step maps the K_2 superposition onto itself
        np.testing.assert_allclose(values[:, 0], [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0],
                                   atol=1e-12)

    def test_oracle_fallback_matches_dense_step(self, capsys, tmp_path):
        out = tmp_path / "c6.csv"
        code, _, _ = run_cli(capsys, "simulate", "--graph", "cycle", "--n", "6",
                             "--steps", "2", "--out", str(out))
        assert code == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        values = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
        p = markov.cycle_graph(6)
        u = oracle.walk_operator(p).matrix
        np.testing.assert_allclose(values[:, 0] + 1j * values[:, 1],
                                   u @ u @ oracle.initial_superposition(p), atol=1e-12)


    def test_negative_steps_exit_two(self, capsys, tmp_path):
        out = tmp_path / "state.csv"
        code, _, err = run_cli(capsys, "simulate", "--graph", "k2", "--steps", "-3",
                               "--out", str(out))
        assert code == 2 and "steps" in err and not out.exists()

    def test_zero_steps_print_the_initial_state(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--graph", "k2", "--steps", "0")
        assert code == 0
        values = [float(ln.split(",")[1]) for ln in out.splitlines()[2:]]
        np.testing.assert_allclose(values, oracle.initial_superposition(
            markov.complete_graph(2), 1), atol=1e-12)


class TestGatecountCommand:
    def test_table_shape(self, capsys):
        code, out, _ = run_cli(capsys, "gatecount", "--graph", "both", "--n-max", "5")
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "graph,n_qubits,n_vertices,total,two_qubit_estimate"
        assert len(lines) == 1 + 2 * 3
        for ln in lines[1:]:
            cls, n, verts, total, est = ln.split(",")
            assert int(verts) == 2 ** int(n)
            assert int(est) >= int(total) - 1


class TestIOErrors:
    def test_unwritable_path_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "synth", "--graph", "k2",
                               "--out", "/nonexistent-dir/x.circuit")
        assert code == 3 and "i/o error" in err


class TestCirculantSpec:
    def test_circulant_json_synthesis_and_verify(self, capsys, tmp_path):
        spec = tmp_path / "circ.json"
        spec.write_text(json.dumps({
            "type": "circulant",
            "params": {"column": [0.0, 0.25, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0],
                       "offset_x": 2},
        }))
        code, out, _ = run_cli(capsys, "verify", "--spec", str(spec))
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_win_flags(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--graph", "win",
                               "--n1", "8", "--n2", "4")
        assert code == 0 and json.loads(out)["pass"] is True


class TestGraphFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["--graph", "cycle", "--n", "8", "--alpha", "0.5"], "--alpha"),
        (["--graph", "cycle", "--n", "8", "--directed"], "--directed"),
        (["--graph", "directed8", "--directed"], "--directed"),
        (["--graph", "wheel_directed", "--n", "8", "--directed"], "--directed"),
        (["--graph", "cycle", "--n", "8", "--n1", "4"], "--n1"),
        (["--graph", "bipartite", "--n1", "8", "--n2", "4", "--m", "3"], "--m"),
        (["--spec", "graph.json", "--n", "8"], "--n"),
        (["--graph", "cycle", "--n", "8", "--alpha", "0"], "--alpha"),
        (["--graph", "cycle", "--n", "8", "--n1", "0"], "--n1"),
    ])
    def test_flag_the_graph_does_not_take_exits_two(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "synth", *argv)
        assert code == 2 and out == ""
        assert re.search(re.escape(flag) + r"\b", err)

    @pytest.mark.parametrize("flag", ["--seed", "--offset-x"])
    def test_removed_flags_are_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--graph", "k2", flag, "1"])
        assert exc.value.code == 2 and flag in capsys.readouterr().err

    def test_zero_alpha_is_used(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, "pagerank", "--graph", "wheel", "--n", "8",
                             "--alpha", "0", "--backend", "oracle", "--steps", "4")
        assert code == 0 and (tmp_path / "pagerank_wheel-8-0.0.csv").exists()
        _, p, _ = cli.build_walk(cli._spec_from_args(
            cli.make_parser().parse_args(["pagerank", "--graph", "wheel", "--n", "8",
                                          "--alpha", "0"])))
        assert np.array_equal(p, markov.google_matrix(markov.wheel_graph(8), 0.0))

    def test_zero_size_reports_the_range(self, capsys):
        code, _, err = run_cli(capsys, "synth", "--graph", "cycle", "--n", "0")
        assert code == 2 and "at least 3 vertices, got 0" in err

    def test_m_is_an_alias_for_n(self, capsys):
        assert run_cli(capsys, "synth", "--graph", "wheel", "--m", "3") == \
            run_cli(capsys, "synth", "--graph", "wheel", "--n", "8")

    def test_directed_selects_the_directed_wheel(self, capsys):
        assert run_cli(capsys, "synth", "--graph", "wheel", "--n", "8", "--directed") == \
            run_cli(capsys, "synth", "--graph", "wheel_directed", "--n", "8")


def test_graph_table_matches_readme_and_choices():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Types, each with its `params`", 1)[1].split("```")[1]
    documented = {}
    for kind, params in re.findall(r"(\w+)\(([^)]*)\)", block):
        documented[kind] = [p.strip() for p in params.split(",") if p.strip()]
    table = {kind: [name if default is cli.REQUIRED else f"{name}={default}"
                    for name, default in graph.params.items()]
             for kind, graph in cli.GRAPHS.items()}
    assert documented == table
    assert list(documented) == list(cli.GRAPHS)
    # every type but the two that need a JSON spec is a --graph choice
    assert cli.GRAPH_CHOICES == tuple(k for k in cli.GRAPHS if k not in ("circulant", "custom"))
