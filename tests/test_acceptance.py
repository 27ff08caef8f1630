"""Acceptance suite: every criterion prints one pass/fail line with its margin.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the session
fixture executes the full benchmark once and individual criteria re-run the
pieces they are required to time or measure independently.
"""

import time

import numpy as np
import pytest

import neural_mpc as nm

from conftest import duplicated_row_qp, primal_from_dual


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _criterion_1(horizon, **budgets):
    config = nm.ExperimentConfig.cart_pole_default(
        horizon=horizon, variants=("oracle", "single_layer", "multilayer_exact"), **budgets
    )
    tic = time.perf_counter()
    result = nm.run_experiment(config)
    runtime = time.perf_counter() - tic
    du = max(
        result.report["pairwise"][pair]["max_control_deviation"]
        for pair in (
            "oracle|single_layer",
            "oracle|multilayer_exact",
            "single_layer|multilayer_exact",
        )
    )
    dx = max(
        result.report["pairwise"][pair]["max_state_deviation"]
        for pair in (
            "oracle|single_layer",
            "oracle|multilayer_exact",
            "single_layer|multilayer_exact",
        )
    )
    ok = du <= 1e-3 and dx <= 1e-3 and runtime <= 60.0
    _report(
        f"criterion 1 (oracle equivalence, N = {horizon})",
        ok,
        f"max|du|={du:.2e} (<=1e-3), max|dx|={dx:.2e} (<=1e-3), runtime={runtime:.1f}s (<=60s)",
    )


def test_criterion_1_oracle_equivalence():
    _criterion_1(2)


@pytest.mark.parametrize("horizon", [10, 20])
def test_criterion_1_oracle_equivalence_long_horizon(horizon):
    # The cart-pole has m = 6N constraint rows.  Identity-layer budgets:
    # omega = [I; -u_dual_map gamma^-1] has 2m nonzeros, psi = gamma has m^2.
    m = 6 * horizon
    _criterion_1(horizon, s_omega=2 * m, s_psi=m * m)


def test_criterion_2_lqr_recovery(cart_pole_setup):
    _, problem, _, _ = cart_pole_setup
    scale = 1e6
    relaxed = nm.MpcProblem(
        plant=problem.plant,
        horizon=problem.horizon,
        q=problem.q,
        r=problem.r,
        p_term=problem.p_term,
        state_con=nm.StateConstraint(
            problem.state_con.c_rows,
            problem.state_con.lower * scale,
            problem.state_con.upper * scale,
        ),
        input_con=nm.InputConstraint(
            problem.input_con.lower * scale, problem.input_con.upper * scale
        ),
    )
    data = nm.build_network(nm.condense(relaxed))
    k_lqr = nm.plant.lqr_gain(
        problem.plant.a, problem.plant.b, problem.q, problem.r, problem.p_term
    )
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        x0 = rng.uniform(-1.0, 1.0, 4)
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        lam, _ = nm.settle(net, x0, tol=1e-10, max_time=0.02)
        u = nm.extract_control(net, lam, x0)
        worst = max(worst, float(np.max(np.abs(u - (-k_lqr @ x0)))))
    _report(
        "criterion 2 (LQR recovery)",
        worst <= 1e-6,
        f"worst |u - (-K x0)| over 20 draws = {worst:.2e} (<=1e-6)",
    )


def _criterion_3(config, qp, data):
    net = nm.FiringRateNetwork(data=data, eta=config.eta)
    x = config.x0.copy()
    worst_feas, worst_lam, worst_comp = 0.0, 0.0, 0.0
    settled_count = 0
    for _ in range(300):
        lam, settled = nm.settle(
            net, x, tol=config.settle_tol, max_time=config.ts
        )
        u_full = primal_from_dual(qp, x, lam)
        if settled:
            settled_count += 1
            slack = qp.g_vec + qp.t_mat @ x - qp.g_mat @ u_full
            worst_feas = max(worst_feas, float(-np.min(slack)))
            worst_lam = max(worst_lam, float(-np.min(lam)))
            worst_comp = max(worst_comp, float(abs(lam @ slack)))
        u = nm.extract_control(net, lam, x)
        x = nm.propagate_linear(config.plant_model, x, u, config.ts)
    ok = (
        settled_count > 0
        and worst_feas <= 1e-6
        and worst_lam <= 1e-12
        and worst_comp <= 1e-6
    )
    _report(
        f"criterion 3 (KKT residuals, N = {config.horizon})",
        ok,
        f"{settled_count}/300 settled; worst primal={worst_feas:.2e} (<=1e-6), "
        f"worst -lam={worst_lam:.2e} (<=1e-12), worst compl={worst_comp:.2e} (<=1e-6)",
    )


def test_criterion_3_kkt_residuals(cart_pole_setup):
    config, _, qp, data = cart_pole_setup
    _criterion_3(config, qp, data)


@pytest.mark.parametrize("horizon", [10, 20])
def test_criterion_3_kkt_residuals_long_horizon(horizon):
    config = nm.ExperimentConfig.cart_pole_default(horizon=horizon)
    _, qp, data = nm.build_problem(config)
    _criterion_3(config, qp, data)


def test_criterion_4_minimal_norm_dual():
    qp = duplicated_row_qp()
    oracle = nm.solve_qp(qp, np.zeros(1))
    net = nm.FiringRateNetwork(data=nm.build_network(qp), eta=1e-3, eps0=0.1)
    lam, _ = nm.settle(net, np.zeros(1), tol=1e-12, max_time=2.0)
    err = float(np.max(np.abs(lam - oracle.lam)))
    _report(
        "criterion 4 (minimal-norm dual)",
        err <= 1e-4,
        f"|lam - least-norm dual| = {err:.2e} (<=1e-4), oracle dual = {oracle.lam}",
    )


def test_criterion_5_palm(cart_pole_setup, benchmark_result):
    _, _, _, data = cart_pole_setup
    _, result = benchmark_result
    theta = nm.stack_target(data.gamma, data.u_dual_map)
    omega0, psi0 = nm.identity_layer_init(data.gamma, data.u_dual_map)
    monotone = True
    for s in (144, 40):
        prob = nm.FactorizationProblem(theta=theta, s_omega=s, s_psi=s)
        _, _, hist = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
        monotone &= bool(np.all(np.diff(hist) <= 1e-12))
    exact_dev = result.report["pairwise"]["single_layer|multilayer_exact"][
        "max_control_deviation"
    ]
    approx_dev = result.report["pairwise"]["oracle|multilayer_approx"][
        "max_control_deviation"
    ]
    approx_res = result.report["factorization"]["approx"]["residual"]
    ok = monotone and exact_dev <= 1e-3 and approx_dev <= 0.5
    _report(
        "criterion 5 (PALM)",
        ok,
        f"monotone={monotone}, exact-budget closed-loop dev={exact_dev:.2e} (<=1e-3), "
        f"s=40 residual={approx_res:.2e}, s=40 dev={approx_dev:.2e} (tripwire <=0.5)",
    )


def test_criterion_6_deviation_bound_soundness(benchmark_result):
    _, result = benchmark_result
    pert = result.report["perturbation"]
    min_margin = pert["min_margin"]
    ok = pert["contracting"] and min_margin >= 0.0
    _report(
        "criterion 6 (deviation-bound soundness)",
        ok,
        f"pruned matrix contracting={pert['contracting']} (mu={pert['mu']:.6f}); "
        f"min (bound - measured) over {len(pert['bound_checks'])} samples = {min_margin:.3e} (>=0)",
    )


def test_criterion_7_slack_formulation(cart_pole_setup, benchmark_result):
    _, _, qp, data = cart_pole_setup
    _, result = benchmark_result
    dev = result.report["pairwise"]["oracle|slack"]["max_control_deviation"]
    rho = result.report["slack"]["rho"]
    sdata, meta = nm.augment_slack(qp, rho)
    m, m_s = meta.m, meta.m_s
    e_sel = np.zeros((m, m_s))
    e_sel[meta.state_rows, np.arange(m_s)] = 1.0
    template_ok = (
        np.array_equal(sdata.gamma[:m, :m], data.gamma - (e_sel @ e_sel.T) / rho)
        and np.array_equal(sdata.gamma[:m, m:], -e_sel / rho)
        and np.array_equal(sdata.gamma[m:, :m], -e_sel.T / rho)
        and np.array_equal(sdata.gamma[m:, m:], (1 - 1 / rho) * np.eye(m_s))
    )
    ok = dev <= 1e-2 and template_ok
    _report(
        "criterion 7 (slack formulation)",
        ok,
        f"rho={rho:.0e} max|du| vs oracle = {dev:.2e} (<=1e-2), block template exact = {template_ok}",
    )


def test_criterion_8_structure_analytics(cart_pole_setup, benchmark_result):
    _, _, _, data = cart_pole_setup
    _, result = benchmark_result
    handshake = True
    for graph in result.graphs.values():
        in_hist, out_hist = nm.degree_distributions(graph)
        edges = len(graph.src)
        handshake &= sum(k * c for k, c in enumerate(in_hist)) == edges
        handshake &= sum(k * c for k, c in enumerate(out_hist)) == edges
    brute = sum(
        1 for i in range(12) for j in range(12) if i != j and abs(data.gamma[i, j]) > 1e-5
    )
    gamma_edges = len(result.graphs["gamma"].src)
    in_gamma, _ = nm.degree_distributions(result.graphs["gamma"])
    in_omega1, _ = nm.degree_distributions(result.graphs["omega1"])
    mass_shift = in_omega1[0] > in_gamma[0]
    ok = handshake and gamma_edges == brute and mass_shift
    _report(
        "criterion 8 (structure analytics)",
        ok,
        f"handshake={handshake}, gamma edges={gamma_edges} vs brute={brute}, "
        f"in-degree mass at 0: omega1={in_omega1[0]} > gamma={in_gamma[0]}",
    )


def test_criterion_9_numerical_hygiene(cart_pole_setup):
    _, problem, _, _ = cart_pole_setup
    model = nm.cart_pole_model()
    q = np.diag([10.0, 1.0, 500.0, 1.0])
    r = np.array([[0.1]])
    dare_res = nm.plant.dare_residual(
        problem.plant.a, problem.plant.b, q, r, problem.p_term
    )

    ts = 0.02
    blk = np.zeros((5, 5))
    blk[:4, :4] = model.a_c
    blk[:4, 4:] = model.b_c
    series = np.eye(5)
    term = np.eye(5)
    for k in range(1, 21):
        term = term @ (blk * ts) / k
        series = series + term
    dp = nm.discretize_zoh(model, ts)
    zoh_err = max(
        float(np.max(np.abs(dp.a - series[:4, :4]))),
        float(np.max(np.abs(dp.b - series[:4, 4:]))),
    )

    params = model.cart_pole_params
    h = 1e-6
    jac_err = 0.0
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        col = (nm.plant.cart_pole_rhs(params, e, 0.0) - nm.plant.cart_pole_rhs(params, -e, 0.0)) / (
            2 * h
        )
        jac_err = max(jac_err, float(np.max(np.abs(col - model.a_c[:, j]))))
    col_u = (
        nm.plant.cart_pole_rhs(params, np.zeros(4), h)
        - nm.plant.cart_pole_rhs(params, np.zeros(4), -h)
    ) / (2 * h)
    jac_err = max(jac_err, float(np.max(np.abs(col_u - model.b_c.ravel()))))

    ok = dare_res <= 1e-9 and zoh_err <= 1e-10 and jac_err <= 1e-6
    _report(
        "criterion 9 (numerical hygiene)",
        ok,
        f"DARE residual={dare_res:.2e} (<=1e-9), ZOH vs series={zoh_err:.2e} (<=1e-10), "
        f"Jacobian FD err={jac_err:.2e} (<=1e-6)",
    )
