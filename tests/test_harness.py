import dataclasses
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import neural_mpc as nm
from neural_mpc.harness import cli_main


# The pruned network with shift -5 (mu = 6) blows up in closed loop: its
# control is no longer finite at sample 9 (t = 0.18 s), where |x| ~ 1.2e282.
DIVERGING = dict(variants=("single_layer", "perturbed"), prune_shift=-5.0, duration=2.0)


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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"plant": {"type": "linear", "a_c": [[0.0, 1.0], [2.0, 0.0]], "b_c": [[0.0], [1.0]]},
             "q": [[1.0, 0.0], [0.0, 2.0]], "r": [[0.5]], "x0": [0.1, 0.0],
             "state_constraints": {"c_rows": [[1.0, 0.0]], "lower": [-1.0], "upper": [2.0]}},
            {"p_term": [[4.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0],
                        [0.0, 0.0, 2.0, 0.5], [0.0, 0.0, 0.5, 1.0]]},
            {"state_constraints": {"c_rows": [[0.0, 1.0, 0.0, 0.0]], "lower": [-2.0],
                                   "upper": [3.0]},
             "input_constraints": {"lower": [-4.0], "upper": [5.5]}},
            {"nonlinear_plant": True, "warm_start": False, "horizon": 5, "rho": 100},
            {"plant": {"type": "cartpole", "cart_mass": 0.7, "length": 0.5}},
        ],
        ids=["linear", "p_term", "constraints", "flags", "cartpole_alias"],
    )
    def test_non_default_round_trip(self, overrides):
        config = nm.ExperimentConfig.from_dict(overrides)
        doc = json.loads(json.dumps(config.to_dict()))
        for key, value in overrides.items():
            if key == "plant":
                assert {k: doc[key][k] for k in value if k != "type"} == {
                    k: v for k, v in value.items() if k != "type"
                }
            else:
                assert doc[key] == value
        back = nm.ExperimentConfig.from_dict(doc)
        assert back.to_dict() == doc
        assert np.array_equal(back.plant_model.a_c, config.plant_model.a_c)
        assert np.array_equal(back.plant_model.b_c, config.plant_model.b_c)

    def test_every_field_serialized(self):
        renamed = {
            "plant_model": "plant",
            "state_con": "state_constraints",
            "input_con": "input_constraints",
        }
        keys = list(nm.ExperimentConfig.cart_pole_default().to_dict())
        assert keys == [renamed.get(f.name, f.name) for f in dataclasses.fields(nm.ExperimentConfig)]

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

    @pytest.mark.parametrize(
        "variants",
        [("oracle", "single_layer", "single_layer"), ["perturbed", "single_layer", "perturbed"]],
    )
    def test_repeated_variant_rejected(self, variants):
        # a repeat would run twice and be reported once
        with pytest.raises(ValueError, match="listed once"):
            nm.ExperimentConfig.cart_pole_default(variants=variants)
        with pytest.raises(ValueError, match="listed once"):
            nm.ExperimentConfig.from_dict({"variants": list(variants)})

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"x0": np.zeros(5)}, "x0"),
            ({"x0": np.array([0.3, 0.0, np.inf, 0.0])}, "x0"),
            ({"q": np.eye(3)}, "q"),
            ({"r": np.eye(2)}, "r"),
            ({"p_term": np.eye(4)[:, :3]}, "p_term"),
            ({"state_con": nm.StateConstraint(np.eye(2, 3), [-1.0, -1.0], [1.0, 1.0])},
             "state_con.c_rows"),
            ({"state_con": nm.StateConstraint(np.eye(2, 4), [[-1.0], [-1.0]], [[1.0], [1.0]])},
             "state_con.lower"),
            ({"input_con": nm.InputConstraint([-1.0, -1.0], [1.0, 1.0])}, "input_con.lower"),
        ],
        ids=["x0_length", "x0_inf", "q", "r", "p_term", "c_rows", "state_bounds", "input_bounds"],
    )
    def test_dimensions_checked(self, overrides, field):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            nm.ExperimentConfig.cart_pole_default(**overrides)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"duration": 0.01}, "duration"),  # rounds to 0 samples at ts = 0.02
            ({"duration": -1.0}, "duration"),
            ({"duration": np.inf}, "duration"),
            ({"ts": 0.0}, "ts"),
            ({"ts": np.nan}, "ts"),
        ],
        ids=["half_sample", "negative", "infinite", "ts_zero", "ts_nan"],
    )
    def test_sample_count_checked(self, overrides, field):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            nm.ExperimentConfig.cart_pole_default(**overrides)

    @pytest.mark.parametrize(
        "field, value",
        [("s_omega", 0), ("s_psi", -3), ("s_omega_approx", 2.5), ("s_psi_approx", 0)],
    )
    def test_factorization_budgets_checked(self, field, value):
        # checked on the config itself, also when no variant factorizes
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1"):
            nm.ExperimentConfig.cart_pole_default(variants=("oracle",), **{field: value})
        config = nm.ExperimentConfig.cart_pole_default()
        with pytest.raises(ValueError, match=rf"^{field} must"):
            dataclasses.replace(config, **{field: value})

    def test_one_sample_accepted(self):
        config = nm.ExperimentConfig.cart_pole_default(duration=0.011)  # rounds to 1 sample
        assert len(nm.run_experiment(config).traces["oracle"].t) == 1


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
        assert "diverged" not in result.report  # every variant finished

    def test_report_euler_step(self, benchmark_result):
        config, result = benchmark_result
        _, qp, data = nm.build_problem(config)
        pert = nm.prune_edges(data.gamma, config.prune_threshold, config.prune_shift)
        widened = {"single_layer": (data.gamma, 0.0), "single_layer_eps": (data.gamma, config.eps0)}
        widened["perturbed"] = (data.gamma + pert.delta, 0.0)
        widened["slack"] = (nm.augment_slack(qp, config.rho)[0].gamma, 0.0)
        for key, budgets in (
            ("exact", (config.s_omega, config.s_psi)),
            ("approx", (config.s_omega_approx, config.s_psi_approx)),
        ):
            fac = nm.harness._factorize(data, *budgets)
            widened[f"multilayer_{key}"] = (
                data.gamma, np.linalg.norm(fac["omega1"] @ fac["psi"] - data.gamma)
            )
        report = json.loads(json.dumps(result.report, allow_nan=False))
        assert list(report["euler_step"]) == [v for v in config.variants if v != "oracle"]
        for variant, (gamma, e) in widened.items():
            a = max(1.0, 1.0 + e - np.linalg.eigvalsh(gamma)[0])
            assert report["euler_step"][variant] == 2.0 / (a + 1.0), variant
        assert 0.096 < report["euler_step"]["single_layer"] < 0.098
        oracle_only = nm.run_experiment(small_config(variants=("oracle",)))
        assert oracle_only.report["euler_step"] == {}

    def test_nonlinear_plant_flag(self):
        config = small_config(nonlinear_plant=True)
        result = nm.run_experiment(config)
        lin = nm.run_experiment(small_config())
        du = np.max(
            np.abs(result.traces["oracle"].u - lin.traces["oracle"].u)
        )
        assert 0.0 < du < 1.0  # small model mismatch, same qualitative behavior

    def test_uncertified_pruned_variant_recorded(self, monkeypatch):
        recorded = []
        settle = nm.harness.settle

        def counting_settle(*args, record=False, **kwargs):
            recorded.append(record)
            return settle(*args, record=record, **kwargs)

        monkeypatch.setattr(nm.harness, "settle", counting_settle)
        # A negative shift leaves the pruned network uncertified (mu = 1.01).
        result = nm.run_experiment(
            small_config(variants=("single_layer", "perturbed"), prune_shift=-0.01)
        )
        assert len(recorded) == 20 and not any(recorded)  # no nominal trajectories
        entry = result.report["perturbation"]
        assert entry["contracting"] is False and entry["mu"] >= 1.0
        assert entry["bound_checks"] is None and entry["min_margin"] is None
        assert [trace.u.shape for trace in result.traces.values()] == [(10, 1), (10, 1)]
        assert "gamma_pruned" in result.graphs
        assert json.loads(json.dumps(result.report))["perturbation"]["min_margin"] is None

    def test_diverging_variant_recorded(self):
        config = nm.ExperimentConfig.cart_pole_default(**DIVERGING)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning escapes
            with pytest.raises(nm.ClosedLoopDiverged, match=r"perturbed at t = 0\.18 s") as info:
                nm.run_experiment(config)
        # The other variants ran on: the call's result rides on the exception.
        result = info.value.result
        report = json.loads(json.dumps(result.report, allow_nan=False))
        assert report["diverged"] == {"perturbed": 0.18}
        assert report["samples"] == 100
        single, pert = result.traces["single_layer"], result.traces["perturbed"]
        assert len(single.t) == 100 and len(pert.t) == 9
        assert np.array_equal(pert.t, single.t[:9])
        for trace in (single, pert):
            assert np.isfinite(trace.x).all() and np.isfinite(trace.u).all()
            assert len(trace.x) == len(trace.u) == len(trace.settled) == len(trace.violation)
        alone = nm.run_experiment(dataclasses.replace(config, variants=("single_layer",)))
        assert np.array_equal(single.x, alone.traces["single_layer"].x)
        assert np.array_equal(single.u, alone.traces["single_layer"].u)
        pair = report["pairwise"]["single_layer|perturbed"]
        assert pair["max_control_deviation"] == np.max(np.abs(single.u[:9] - pert.u))
        assert pair["max_state_deviation"] == np.max(np.abs(single.x[:9] - pert.x))
        assert report["constraint_violations"]["perturbed"]["max_margin"] == pert.violation.max()
        assert report["settled_fraction"]["perturbed"] == np.mean(pert.settled)
        assert report["perturbation"]["bound_checks"] is None

    def test_variants_diverging_at_the_first_sample(self, monkeypatch):
        def not_finite(*args):
            return np.array([np.nan])

        monkeypatch.setattr(nm.harness, "extract_control", not_finite)
        config = small_config(variants=("oracle", "single_layer", "perturbed"))
        # A caller that needs every sample, such as a benchmark counting
        # actions, sees the call fail even where no sample was taken at all.
        with pytest.raises(nm.ClosedLoopDiverged) as info:
            nm.run_experiment(config)
        result = info.value.result
        report = json.loads(json.dumps(result.report, allow_nan=False))
        assert report["diverged"] == {"single_layer": 0.0, "perturbed": 0.0}
        assert [len(tr.t) for tr in result.traces.values()] == [10, 0, 0]
        assert result.traces["perturbed"].x.shape == (0, 4)
        assert report["pairwise"]["oracle|single_layer"]["max_control_deviation"] is None
        assert report["pairwise"]["single_layer|perturbed"]["max_state_deviation"] is None
        assert report["constraint_violations"]["perturbed"] == {"count": 0, "max_margin": 0.0}
        assert report["settled_fraction"]["single_layer"] == 0.0
        entry = report["perturbation"]
        assert entry["contracting"] and entry["bound_checks"] == []
        assert entry["min_margin"] is None

    def test_state_overflow_stops_the_loop(self):
        # The plant overflows within the first hold, so the state at sample 1
        # is not finite: the trace keeps sample 0.
        config = small_config()
        trace, t_diverged = nm.harness._run_loop(lambda x: (np.array([1e308]), True), config, 10)
        assert t_diverged == config.ts
        assert len(trace.t) == 1 and np.array_equal(trace.x[0], config.x0)

    def test_cold_start_each_sample(self, cart_pole_setup):
        config = small_config(warm_start=False, variants=("single_layer", "multilayer_exact"))
        result = nm.run_experiment(config)
        _, _, _, data = cart_pole_setup
        fac = nm.harness._factorize(data, config.s_omega, config.s_psi)
        single = nm.FiringRateNetwork(data=data, eta=config.eta)
        multi = nm.MultilayerNetwork(
            omega1=fac["omega1"], omega2=fac["omega2"], psi=fac["psi"], eta=config.eta
        )
        budget = dict(tol=config.settle_tol, max_time=config.ts)
        for x, u in zip(result.traces["single_layer"].x, result.traces["single_layer"].u):
            single.reset()
            lam, _ = nm.settle(single, x, **budget)
            assert np.array_equal(u, nm.extract_control(single, lam, x))
        for x, u in zip(result.traces["multilayer_exact"].x, result.traces["multilayer_exact"].u):
            multi.reset()
            nm.settle_multilayer(multi, data, x, **budget)
            assert np.array_equal(u, nm.extract_control_multilayer(multi, data, x))

    def test_factorization_records_at_floor(self, caplog):
        # At N = 2 the 144/144 budgets cover identity_layer_init's nonzeros and
        # its exact start is kept; at N = 4 psi0 = gamma has 576 nonzeros, so
        # the "exact" factors are cut to 144 and are not exact.
        variants = ("multilayer_exact",)
        with caplog.at_level(logging.WARNING, logger="neural_mpc"):
            two = nm.run_experiment(small_config(variants=variants))
        assert two.report["factorization"]["exact"]["at_floor"] is True
        assert not caplog.records
        with caplog.at_level(logging.WARNING, logger="neural_mpc"):
            four = nm.run_experiment(small_config(horizon=4, variants=variants))
        entry = four.report["factorization"]["exact"]
        assert entry["at_floor"] is False and entry["residual"] > 1e-10
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "multilayer_exact is not exact" in record.getMessage()

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

    def test_simulate_diverging_variant_exit_0(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(DIVERGING))
        out = tmp_path / "traces"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["diverged"] == {"perturbed": 0.18}
        assert len((out / "perturbed.csv").read_text().splitlines()) == 1 + 9
        assert len((out / "single_layer.csv").read_text().splitlines()) == 1 + 100
        capsys.readouterr()

    @pytest.mark.parametrize("horizon, warned", [(4, True), (2, False)])
    def test_inexact_factorization_warns_by_default(self, tmp_path, horizon, warned):
        # a fresh process, as from the command line: the default log level
        # prints the warning at N = 4 and nothing at N = 2, where the
        # factorization is at its rounding floor
        cfg = tmp_path / "cfg.json"
        variants = ["oracle", "multilayer_exact"]
        cfg.write_text(json.dumps({"horizon": horizon, "duration": 0.1, "variants": variants}))
        env = {k: v for k, v in os.environ.items() if k != "NEURAL_MPC_LOG"}
        env["PYTHONPATH"] = str(Path(nm.__file__).parents[1])
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]
        run = subprocess.run(
            [sys.executable, "-m", "neural_mpc", *argv], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["factorization"]["exact"]["at_floor"] is not warned
        if warned:
            assert "WARNING neural_mpc: multilayer_exact is not exact" in run.stderr
        else:
            assert run.stderr == ""

    def test_analyze_dot_on_stdout(self, tmp_path, capsys):
        matrix = tmp_path / "gamma.json"
        matrix.write_text(json.dumps([[0.0, 2.0], [0.0, 0.0]]))
        assert cli_main(["analyze", "--matrix", str(matrix), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert "1 -> 0" in out

    def test_analyze_condense_document_keeps_labels(self, tmp_path, capsys, cart_pole_setup):
        qp_doc = tmp_path / "qp.json"
        assert cli_main(["condense", "--out", str(qp_doc)]) == 0
        assert cli_main(["analyze", "--matrix", str(qp_doc)]) == 0
        graph = json.loads(capsys.readouterr().out)
        _, _, qp, _ = cart_pole_setup
        assert [node["label"] for node in graph["nodes"]] == qp.row_labels

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

    def test_factorize_budgets_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "budgets.json"
        cfg.write_text(json.dumps({"s_omega": 40, "s_psi": 40}))
        assert cli_main(["factorize", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["s_omega"], doc["s_psi"]) == (40, 40)
        assert np.count_nonzero(doc["psi"]) <= 40

    def test_factorize_zero_budget_exit_1(self, capsys):
        assert cli_main(["factorize", "--s-omega", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: s_omega must be an integer >= 1")

    def test_duration_under_one_sample_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"duration": 0.005}))
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: duration")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"eps0": float("nan"), "duration": 0.1}, "eps0"),
            ({"eta": -1, "variants": ["oracle"], "duration": 0.1}, "eta"),
            ({"settle_tol": float("nan"), "duration": 0.1}, "settle_tol"),
            ({"settle_tol": float("inf"), "duration": 0.1}, "settle_tol"),
            ({"settle_tol": -1, "variants": ["oracle"], "duration": 0.1}, "settle_tol"),
            ({"s_omega": 0, "duration": 0.1, "variants": ["oracle", "single_layer"]}, "s_omega"),
            ({"s_psi_approx": -1, "variants": ["oracle"], "duration": 0.1}, "s_psi_approx"),
        ],
        ids=[
            "eps0_nan", "eta_negative", "settle_tol_nan", "settle_tol_inf", "settle_tol_negative",
            "s_omega_zero", "s_psi_approx_negative",
        ],
    )
    def test_network_parameters_exit_1(self, tmp_path, capsys, doc, field):
        # checked on the config itself, also when no variant builds a network
        # that would use the parameter
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} ")
        assert "Traceback" not in captured.err
        assert not (out / "report.json").exists()

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"horizonn": 2}))
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "doc",
        [
            {"plant": {"type": "cart_pole", "cart_mas": 0.3}},
            {"state_constraints": {"c_rows": [[1.0, 0, 0, 0]], "lower": [-1.0],
                                   "upper": [1.0], "uper": [2.0]}},
            {"plant": "cart_pole"},
            [{"horizon": 2}],
            {"horizon": "2"},
        ],
        ids=["nested_typo", "nested_extra_key", "plant_not_object", "top_level_list", "str_int"],
    )
    def test_malformed_config_exit_1(self, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["condense", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "doc, field",
        [({"x0": [0.3, 0, 0.15]}, "x0"), ({"x0": None}, "x0"), ({"q": [1.0]}, "q")],
        ids=["x0_short", "x0_null", "q_1x1"],
    )
    def test_config_dimensions_exit_1(self, tmp_path, capsys, doc, field):
        cfg = tmp_path / "dims.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} ")
        assert "Traceback" not in captured.err

    def test_condense_without_stabilizing_dare_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "q0.json"
        cfg.write_text(json.dumps({"q": [0, 0, 0, 0]}))
        assert cli_main(["condense", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    LINEAR_1X1 = {
        "plant": {"type": "linear", "a_c": [[1.0]], "b_c": [[1.0]]},
        "r": [1.0],
        "x0": [0.1],
        "state_constraints": {"c_rows": [[1.0]], "lower": [-1.0], "upper": [1.0]},
        "input_constraints": {"lower": [-5.0], "upper": [5.0]},
    }

    def test_condense_unweighted_unstable_mode(self, tmp_path, capsys):
        # q = 0 leaves the unstable mode unweighted; a stabilizing P exists.
        cfg = tmp_path / "q0.json"
        cfg.write_text(json.dumps({**self.LINEAR_1X1, "q": [0.0]}))
        assert cli_main(["condense", "--config", str(cfg)]) == 0
        assert "h" in json.loads(capsys.readouterr().out)

    def test_condense_overflowing_ts_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "ts.json"
        doc = {**self.LINEAR_1X1, "q": [1.0], "ts": 1e308, "duration": 1e308}  # one sample
        cfg.write_text(json.dumps(doc))
        assert cli_main(["condense", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ZOH discretization overflows")

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
