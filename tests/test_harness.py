import json

import numpy as np
import pytest

import neural_mpc as nm
from neural_mpc.harness import cli_main


def small_config(**overrides):
    defaults = dict(
        duration=0.2,
        variants=("oracle", "single_layer"),
    )
    defaults.update(overrides)
    return nm.ExperimentConfig.cart_pole_default(**defaults)


class TestConfig:
    def test_defaults_are_benchmark(self):
        config = nm.ExperimentConfig.cart_pole_default()
        assert config.ts == 0.02
        assert config.horizon == 2
        assert np.array_equal(np.diag(config.q), [10.0, 1.0, 500.0, 1.0])
        assert config.input_con.lower[0] == -10.0
        assert config.input_con.upper[0] == 12.0
        assert np.array_equal(config.x0, [0.3, 0.0, 0.15, 0.0])
        assert int(round(config.duration / config.ts)) == 300

    def test_dict_round_trip(self):
        config = nm.ExperimentConfig.cart_pole_default()
        back = nm.ExperimentConfig.from_dict(config.to_dict())
        assert back.to_dict() == config.to_dict()

    def test_weight_shorthand(self):
        config = nm.ExperimentConfig.from_dict({"q": [1.0, 2.0, 3.0, 4.0], "r": 0.5})
        assert np.array_equal(config.q, np.diag([1.0, 2.0, 3.0, 4.0]))
        assert np.array_equal(config.r, [[0.5]])

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            nm.ExperimentConfig.from_dict({"horizonn": 3})

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            nm.ExperimentConfig.cart_pole_default(variants=("qp",))

    def test_at_least_one_variant(self):
        with pytest.raises(ValueError):
            nm.ExperimentConfig.cart_pole_default(variants=())


class TestRunExperiment:
    def test_equilibrium_stays_at_zero(self):
        config = small_config(x0=np.zeros(4))
        result = nm.run_experiment(config)
        for trace in result.traces.values():
            assert np.all(trace.x == 0.0)
            assert np.all(trace.u == 0.0)

    def test_time_axis_and_hold(self):
        config = small_config()
        result = nm.run_experiment(config)
        trace = result.traces["oracle"]
        assert np.allclose(np.diff(trace.t), config.ts)
        assert trace.x.shape == (10, 4)
        assert trace.u.shape == (10, 1)

    def test_all_variants_share_input_stream_shape(self):
        config = small_config(variants=("oracle", "single_layer", "slack"))
        result = nm.run_experiment(config)
        shapes = {v.u.shape for v in result.traces.values()}
        assert len(shapes) == 1

    def test_nonlinear_plant_flag(self):
        config = small_config(nonlinear_plant=True)
        result = nm.run_experiment(config)
        lin = nm.run_experiment(small_config())
        du = np.max(
            np.abs(result.traces["oracle"].u - lin.traces["oracle"].u)
        )
        assert 0.0 < du < 1.0  # small model mismatch, same qualitative behavior

    def test_gamma_graph_always_present(self):
        result = nm.run_experiment(small_config())
        assert "gamma" in result.graphs


class TestCsv:
    def test_header_contract(self, tmp_path):
        config = small_config()
        result = nm.run_experiment(config)
        path = tmp_path / "trace.csv"
        nm.write_trace_csv(result.traces["oracle"], path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,x4,u1,settled"

    def test_deterministic_output(self, tmp_path):
        paths = []
        for run in range(2):
            result = nm.run_experiment(small_config())
            path = tmp_path / f"run{run}.csv"
            nm.write_trace_csv(result.traces["single_layer"], path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestCli:
    def test_bad_flags_exit_2(self, capsys):
        assert cli_main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_condense_stdout(self, capsys):
        assert cli_main(["condense"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 12
        assert len(doc["network"]["gamma"]) == 12

    def test_simulate_writes_traces(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"duration": 0.1, "variants": ["oracle", "single_layer"]})
        )
        out = tmp_path / "traces"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "oracle.csv").exists()
        assert (out / "single_layer.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert "oracle|single_layer" in report["pairwise"]
        capsys.readouterr()

    def test_analyze_dot_on_stdout(self, tmp_path, capsys):
        matrix = tmp_path / "gamma.json"
        matrix.write_text(json.dumps([[0.0, 2.0], [0.0, 0.0]]))
        assert cli_main(["analyze", "--matrix", str(matrix), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert "1 -> 0" in out

    def test_analyze_missing_file_exit_1(self, capsys):
        assert cli_main(["analyze", "--matrix", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_perturb_reports_contraction(self, capsys):
        assert cli_main(["perturb", "--threshold", "0.01", "--shift", "1e-4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["contracting"] is True
        assert doc["nnz_after"] < doc["nnz_before"]

    def test_factorize_outputs_factors(self, capsys):
        assert cli_main(["factorize", "--s-omega", "144", "--s-psi", "144"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residual"] < 1e-8
        assert len(doc["omega1"]) == 12

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"horizonn": 2}))
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_condense_without_stabilizing_dare_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "q0.json"
        cfg.write_text(json.dumps({"q": [0, 0, 0, 0]}))
        assert cli_main(["condense", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_reproduce_writes_full_suite(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert cli_main(["reproduce-paper", "--out", str(out)]) == 0
        capsys.readouterr()
        for variant in (
            "oracle",
            "single_layer",
            "single_layer_eps",
            "multilayer_exact",
            "multilayer_approx",
            "perturbed",
            "slack",
        ):
            assert (out / "traces" / f"{variant}.csv").exists()
        assert (out / "graphs" / "gamma.json").exists()
        assert (out / "graphs" / "omega1.dot").exists()
        assert (out / "degree_distributions.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["perturbation"]["min_margin"] >= 0.0
        assert report["pairwise"]["oracle|single_layer"]["max_control_deviation"] <= 1e-3
        assert report["pairwise"]["oracle|slack"]["max_control_deviation"] <= 1e-2
