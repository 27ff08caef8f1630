import numpy as np
import pytest
from scipy.linalg import block_diag

import neural_mpc as nm

from conftest import dual_objective, primal_from_dual


def rollout(problem, x0, u_stack):
    """Step-by-step state recursion, independent of the prediction matrices."""
    n = problem.plant.state_dim
    p = problem.plant.input_dim
    xs = [np.asarray(x0, dtype=float)]
    for k in range(problem.horizon):
        u_k = u_stack[k * p : (k + 1) * p]
        xs.append(problem.plant.a @ xs[-1] + problem.plant.b @ u_k)
    return xs


def rollout_cost(problem, x0, u_stack):
    """Summed stage costs along the recursion (terminal weight on the last state)."""
    xs = rollout(problem, x0, u_stack)
    p = problem.plant.input_dim
    cost = 0.5 * xs[-1] @ problem.p_term @ xs[-1]
    for k in range(problem.horizon):
        u_k = u_stack[k * p : (k + 1) * p]
        cost += 0.5 * (xs[k] @ problem.q @ xs[k] + u_k @ problem.r @ u_k)
    return cost


def boxes_hold(problem, x0, u_stack):
    """Direct check of every box constraint over the horizon."""
    xs = rollout(problem, x0, u_stack)
    p = problem.plant.input_dim
    ic, sc = problem.input_con, problem.state_con
    for k in range(problem.horizon):
        u_k = u_stack[k * p : (k + 1) * p]
        if np.any(u_k > ic.upper) or np.any(u_k < ic.lower):
            return False
    for x_k in xs[1:]:
        out = sc.c_rows @ x_k
        if np.any(out > sc.upper) or np.any(out < sc.lower):
            return False
    return True


class TestPredictionMatrices:
    def test_single_step(self, cart_pole_setup):
        _, problem, _, _ = cart_pole_setup
        one = nm.MpcProblem(
            plant=problem.plant,
            horizon=1,
            q=problem.q,
            r=problem.r,
            p_term=problem.p_term,
            state_con=problem.state_con,
            input_con=problem.input_con,
        )
        s_x, s_u = nm.condenser.build_prediction_matrices(one)
        assert np.allclose(s_x, problem.plant.a)
        assert np.allclose(s_u, problem.plant.b)

    def test_scalar_hand_expansion(self):
        plant = nm.DiscretePlant(a=[[1.0]], b=[[1.0]], ts=1.0)
        problem = nm.MpcProblem(
            plant=plant,
            horizon=2,
            q=[[1.0]],
            r=[[1.0]],
            p_term=[[1.0]],
            state_con=nm.StateConstraint([[1.0]], [-1.0], [1.0]),
            input_con=nm.InputConstraint([-1.0], [1.0]),
        )
        s_x, s_u = nm.condenser.build_prediction_matrices(problem)
        assert np.allclose(s_x, [[1.0], [1.0]])
        assert np.allclose(s_u, [[1.0, 0.0], [1.0, 1.0]])

    def test_stacked_rollout_matches_recursion(self, cart_pole_setup):
        _, problem, _, _ = cart_pole_setup
        s_x, s_u = nm.condenser.build_prediction_matrices(problem)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x0 = rng.normal(size=4)
            u = rng.normal(size=2)
            stacked = s_x @ x0 + s_u @ u
            xs = rollout(problem, x0, u)
            assert np.max(np.abs(stacked - np.concatenate(xs[1:]))) < 1e-12


    @pytest.mark.parametrize("horizon", [1, 2, 40])
    def test_s_u_bitwise_equals_blockwise_products(self, horizon):
        config = nm.ExperimentConfig.cart_pole_default(horizon=horizon)
        problem, _, _ = nm.build_problem(config)
        a, b = problem.plant.a, problem.plant.b
        n, p = problem.plant.state_dim, problem.plant.input_dim
        # Oracle: one product A^(i-j) B per block, as the condensation is defined.
        powers = [np.eye(n)]
        for _ in range(horizon):
            powers.append(a @ powers[-1])
        expected = np.zeros((horizon * n, horizon * p))
        for i in range(horizon):
            for j in range(i + 1):
                expected[i * n : (i + 1) * n, j * p : (j + 1) * p] = powers[i - j] @ b
        _, s_u = nm.condenser.build_prediction_matrices(problem)
        assert np.array_equal(s_u, expected)


class TestCondense:
    def test_benchmark_row_count(self, cart_pole_setup):
        _, _, qp, _ = cart_pole_setup
        # 2 rows per scalar input per step plus 2 rows per constrained output
        # per step over steps 1..N
        assert qp.m == 12
        assert qp.input_row_count == 4
        assert qp.row_labels[0] == "input[k=0,i=0,upper]"
        assert qp.row_labels[1] == "input[k=0,i=0,lower]"
        assert qp.row_labels[4] == "state[k=1,j=0,upper]"
        assert qp.row_labels[-1] == "state[k=2,j=1,lower]"

    def test_cost_matches_rollout_oracle(self, cart_pole_setup):
        _, problem, qp, _ = cart_pole_setup
        rng = np.random.default_rng(2)
        for _ in range(10):
            x0 = rng.normal(size=4)
            u = rng.normal(size=2)
            quad = 0.5 * u @ qp.h @ u + x0 @ qp.s.T @ u
            const = rollout_cost(problem, x0, np.zeros(2))
            assert abs(quad + const - rollout_cost(problem, x0, u)) < 1e-9

    def test_zero_weights_decouple(self, cart_pole_setup):
        _, problem, _, _ = cart_pole_setup
        free = nm.MpcProblem(
            plant=problem.plant,
            horizon=2,
            q=np.zeros((4, 4)),
            r=problem.r,
            p_term=np.zeros((4, 4)),
            state_con=problem.state_con,
            input_con=problem.input_con,
        )
        qp = nm.condense(free)
        assert np.allclose(qp.h, block_diag(problem.r, problem.r))
        assert np.allclose(qp.s, 0.0)

    def test_constraints_equivalent_to_boxes(self, cart_pole_setup):
        _, problem, qp, _ = cart_pole_setup
        rng = np.random.default_rng(3)
        seen = {True: 0, False: 0}
        for _ in range(200):
            x0 = rng.uniform(-0.5, 0.5, size=4)
            u = rng.uniform(-15.0, 15.0, size=2)
            condensed_ok = bool(np.all(qp.g_mat @ u <= qp.g_vec + qp.t_mat @ x0 + 1e-12))
            direct_ok = boxes_hold(problem, x0, u)
            assert condensed_ok == direct_ok
            seen[direct_ok] += 1
        assert seen[True] > 0 and seen[False] > 0

    def test_invalid_weights_rejected(self, cart_pole_setup):
        _, problem, _, _ = cart_pole_setup
        with pytest.raises(ValueError):
            nm.MpcProblem(
                plant=problem.plant,
                horizon=2,
                q=problem.q,
                r=np.zeros((1, 1)),
                p_term=problem.p_term,
                state_con=problem.state_con,
                input_con=problem.input_con,
            )
        with pytest.raises(ValueError):
            nm.InputConstraint([1.0], [-1.0])


def condense_rows_reference(problem):
    """The constraint rows as first written, one row per loop pass, kept as the
    bitwise oracle of ``condense``: (g_mat, t_mat, g_vec, labels, input_row_count)."""
    s_x, s_u = nm.condenser.build_prediction_matrices(problem)
    n = problem.plant.state_dim
    p = problem.plant.input_dim
    big_n = problem.horizon
    rows_u, rhs_u, labels = [], [], []
    for k in range(big_n):
        for i in range(p):
            row = np.zeros(big_n * p)
            row[k * p + i] = 1.0
            rows_u.append(row)
            rhs_u.append(problem.input_con.upper[i])
            labels.append(f"input[k={k},i={i},upper]")
            rows_u.append(-row)
            rhs_u.append(-problem.input_con.lower[i])
            labels.append(f"input[k={k},i={i},lower]")
    g_u = np.array(rows_u).reshape(-1, big_n * p)
    c = problem.state_con.c_rows
    rows_x, rhs_x = [], []
    for k in range(1, big_n + 1):
        for j in range(c.shape[0]):
            row = np.zeros(big_n * n)
            row[(k - 1) * n : k * n] = c[j]
            rows_x.append(row)
            rhs_x.append(problem.state_con.upper[j])
            labels.append(f"state[k={k},j={j},upper]")
            rows_x.append(-row)
            rhs_x.append(-problem.state_con.lower[j])
            labels.append(f"state[k={k},j={j},lower]")
    g_x_stack = np.array(rows_x).reshape(-1, big_n * n)
    g_mat = np.vstack([g_u, g_x_stack @ s_u])
    t_mat = np.vstack([np.zeros((g_u.shape[0], n)), -g_x_stack @ s_x])
    g_vec = np.concatenate([np.array(rhs_u), np.array(rhs_x)])
    return g_mat, t_mat, g_vec, labels, g_u.shape[0]


def two_input_problem():
    """A 2-state, 2-input plant with three state rows, one of them signed."""
    plant = nm.DiscretePlant(a=[[1.0, 0.1], [-0.2, 0.9]], b=[[0.0, 0.5], [1.0, -0.3]], ts=0.1)
    return nm.MpcProblem(
        plant=plant,
        horizon=3,
        q=np.eye(2),
        r=np.eye(2),
        p_term=np.eye(2),
        state_con=nm.StateConstraint([[1.0, -0.5], [0.0, 2.0], [-1.0, 0.0]], [-1, -2, -3], [1, 2, 3]),
        input_con=nm.InputConstraint([-1.0, -2.0], [1.5, 2.5]),
    )


class TestCondenseRowsOracle:
    @pytest.mark.parametrize("case", ["N=1", "N=2", "N=40", "two_inputs"])
    def test_matches_loop_reference_bitwise(self, case):
        if case == "two_inputs":
            problem = two_input_problem()
        else:
            horizon = int(case.removeprefix("N="))
            problem, _, _ = nm.build_problem(nm.ExperimentConfig.cart_pole_default(horizon=horizon))
        qp = nm.condense(problem)
        g_mat, t_mat, g_vec, labels, input_row_count = condense_rows_reference(problem)
        for got, want in ((qp.g_mat, g_mat), (qp.t_mat, t_mat), (qp.g_vec, g_vec)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert qp.row_labels == labels
        assert qp.input_row_count == input_row_count


class TestBuildNetwork:
    def test_no_constraints_limit(self):
        qp = nm.CondensedQp(
            h=np.eye(2),
            s=np.ones((2, 3)),
            g_mat=np.zeros((4, 2)),
            t_mat=np.arange(12.0).reshape(4, 3),
            g_vec=np.ones(4),
            m=4,
            upsilon_rows=1,
        )
        data = nm.build_network(qp)
        assert np.allclose(data.gamma, np.eye(4))
        assert np.allclose(data.m_map, qp.t_mat)

    def test_gamma_symmetric(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        assert np.linalg.norm(data.gamma - data.gamma.T, "fro") <= 1e-10

    @pytest.mark.parametrize("horizon", [2, 40])
    def test_gamma_exactly_symmetric(self, horizon):
        config = nm.ExperimentConfig.cart_pole_default(horizon=horizon)
        _, qp, data = nm.build_problem(config)
        assert np.array_equal(data.gamma, data.gamma.T)
        sdata, _ = nm.augment_slack(qp, config.rho)
        assert np.array_equal(sdata.gamma, sdata.gamma.T)

    def test_indefinite_h_rejected(self, cart_pole_setup):
        _, _, qp, _ = cart_pole_setup
        bad = nm.CondensedQp(
            h=-qp.h, s=qp.s, g_mat=qp.g_mat, t_mat=qp.t_mat, g_vec=qp.g_vec,
            m=qp.m, upsilon_rows=qp.upsilon_rows,
        )
        with pytest.raises(np.linalg.LinAlgError, match="H factorization failed"):
            nm.build_network(bad)

    def test_gamma_spectrum(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        # I - gamma is the dual Hessian, which is PSD
        evals = np.linalg.eigvalsh(np.eye(data.size) - data.gamma)
        assert np.min(evals) >= -1e-10

    def test_control_maps(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        hinv = np.linalg.inv(qp.h)
        assert np.allclose(data.u_feedback, hinv[:1] @ qp.s, atol=1e-10)
        assert np.allclose(data.u_dual_map, (hinv @ qp.g_mat.T)[:1], atol=1e-10)


class TestOneFactor:
    def test_h_factored_once_per_qp(self, cart_pole_setup, monkeypatch):
        _, problem, _, _ = cart_pole_setup
        qp = nm.condense(problem)
        calls = []
        cholesky = np.linalg.cholesky

        def counting(h):
            calls.append(h.shape)
            return cholesky(h)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        nm.build_network(qp)
        nm.augment_slack(qp, 1e4)
        sol = nm.solve_qp(qp, x0)
        primal_from_dual(qp, x0, sol.lam)
        dual_objective(qp, x0, sol.lam)
        assert len(calls) == 1

    def test_problem_and_slack_share_one_network(self, monkeypatch):
        calls = {"cholesky": 0, "build_network": 0}
        cholesky, build_network = np.linalg.cholesky, nm.condenser.build_network

        def counting_cholesky(h):
            calls["cholesky"] += 1
            return cholesky(h)

        def counting_build(qp):
            calls["build_network"] += 1
            return build_network(qp)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(nm.condenser, "build_network", counting_build)
        config = nm.ExperimentConfig.cart_pole_default(horizon=40)
        _, qp, data = nm.build_problem(config)
        nm.augment_slack(qp, config.rho)
        assert calls == {"cholesky": 1, "build_network": 1}
        assert qp.network is data

    def test_factor_reproduces_h(self, cart_pole_setup):
        _, _, qp, _ = cart_pole_setup
        low, w_g, w_s = qp.factor
        assert np.allclose(low @ low.T, qp.h, rtol=1e-13, atol=0.0)
        assert np.allclose(low @ w_g, qp.g_mat.T, atol=1e-12)
        assert np.allclose(low @ w_s, qp.s, atol=1e-12)

    def test_indefinite_h_rejected_by_every_solve(self, cart_pole_setup):
        _, _, qp, _ = cart_pole_setup
        bad = nm.CondensedQp(
            h=-qp.h, s=qp.s, g_mat=qp.g_mat, t_mat=qp.t_mat, g_vec=qp.g_vec,
            m=qp.m, upsilon_rows=qp.upsilon_rows,
        )
        with pytest.raises(np.linalg.LinAlgError, match="H factorization failed"):
            nm.solve_qp(bad, np.zeros(4))


def slack_gamma_reference(gamma, input_row_count, rho):
    """The slack block formula as first written, from products of the selector E."""
    m = gamma.shape[0]
    m_s = m - input_row_count
    state_rows = np.arange(input_row_count, m)
    e_sel = np.zeros((m, m_s))
    e_sel[state_rows, np.arange(m_s)] = 1.0

    inv_rho = 1.0 / rho
    gamma_aug = np.zeros((m + m_s, m + m_s))
    gamma_aug[:m, :m] = gamma - inv_rho * (e_sel @ e_sel.T)
    gamma_aug[:m, m:] = -inv_rho * e_sel
    gamma_aug[m:, :m] = -inv_rho * e_sel.T
    gamma_aug[m:, m:] = (1.0 - inv_rho) * np.eye(m_s)
    return gamma_aug


class TestAugmentSlack:
    def test_block_template_exact(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        rho = 1e4
        sdata, meta = nm.augment_slack(qp, rho)
        m, m_s = meta.m, meta.m_s
        assert (m, m_s) == (12, 8)
        assert sdata.gamma.shape == (20, 20)
        e_sel = np.zeros((m, m_s))
        e_sel[meta.state_rows, np.arange(m_s)] = 1.0
        assert np.array_equal(sdata.gamma[:m, :m], data.gamma - (e_sel @ e_sel.T) / rho)
        assert np.array_equal(sdata.gamma[:m, m:], -e_sel / rho)
        assert np.array_equal(sdata.gamma[m:, :m], -e_sel.T / rho)
        assert np.array_equal(sdata.gamma[m:, m:], (1.0 - 1.0 / rho) * np.eye(m_s))
        # selector hits exactly the state rows
        assert np.trace(e_sel @ e_sel.T) == m_s
        # off-diagonal blocks are transposes of each other
        assert np.array_equal(sdata.gamma[:m, m:], sdata.gamma[m:, :m].T)

    def test_maps_extended_with_zeros(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        sdata, meta = nm.augment_slack(qp, 100.0)
        assert np.array_equal(sdata.m_map[: meta.m], data.m_map)
        assert np.all(sdata.m_map[meta.m :] == 0.0)
        assert np.all(sdata.bias[meta.m :] == 0.0)
        assert np.all(sdata.u_dual_map[:, meta.m :] == 0.0)
        assert sdata.node_labels[meta.m] == "slack[0]"

    def test_large_rho_limit(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        sdata, meta = nm.augment_slack(qp, 1e300)
        expect = block_diag(data.gamma, np.eye(meta.m_s))
        assert np.max(np.abs(sdata.gamma - expect)) < 1e-200

    def test_rho_must_be_positive(self, cart_pole_setup):
        _, _, qp, _ = cart_pole_setup
        with pytest.raises(ValueError):
            nm.augment_slack(qp, 0.0)

    @pytest.mark.parametrize("rho", [np.nan, -1.0, 1e-320])
    def test_rho_with_no_finite_inverse_rejected(self, cart_pole_setup, rho):
        _, _, qp, _ = cart_pole_setup
        with pytest.raises(ValueError, match="rho must be positive"):
            nm.augment_slack(qp, rho)

    @pytest.mark.parametrize("horizon", [1, 2, 40])
    @pytest.mark.parametrize("rho", [1e4, 1.0, 0.5, 1e300, np.inf])
    def test_matches_block_formula_bitwise(self, horizon, rho):
        # rho < 1 makes the zeros of (1 - 1/rho) I negative; -1/rho E leaves
        # -0.0 off its support for every rho.
        _, qp, data = nm.build_problem(nm.ExperimentConfig.cart_pole_default(horizon=horizon))
        got = nm.augment_slack(qp, rho)[0].gamma
        want = slack_gamma_reference(data.gamma, qp.input_row_count, rho)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestRelaxationAndDuality:
    def _relaxed(self, problem, scale=1e6):
        sc = problem.state_con
        ic = problem.input_con
        return nm.MpcProblem(
            plant=problem.plant,
            horizon=problem.horizon,
            q=problem.q,
            r=problem.r,
            p_term=problem.p_term,
            state_con=nm.StateConstraint(sc.c_rows, sc.lower * scale, sc.upper * scale),
            input_con=nm.InputConstraint(ic.lower * scale, ic.upper * scale),
        )

    def test_relaxed_constraints_recover_unconstrained_law(self, cart_pole_setup):
        _, problem, _, _ = cart_pole_setup
        qp = nm.condense(self._relaxed(problem))
        data = nm.build_network(qp)
        rng = np.random.default_rng(4)
        for _ in range(5):
            x0 = rng.uniform(-1.0, 1.0, size=4)
            net = nm.FiringRateNetwork(data=data, eta=1e-3)
            lam, settled = nm.settle(net, x0, tol=1e-10, max_time=0.02)
            assert settled and np.max(np.abs(lam)) == 0.0
            u = nm.extract_control(net, lam, x0)
            assert np.allclose(u, -data.u_feedback @ x0)

    def test_relaxed_law_equals_lqr(self, cart_pole_setup):
        _, problem, _, _ = cart_pole_setup
        qp = nm.condense(self._relaxed(problem))
        data = nm.build_network(qp)
        k_lqr = nm.plant.lqr_gain(
            problem.plant.a, problem.plant.b, problem.q, problem.r, problem.p_term
        )
        rng = np.random.default_rng(5)
        for _ in range(10):
            x0 = rng.uniform(-1.0, 1.0, size=4)
            net = nm.FiringRateNetwork(data=data, eta=1e-3)
            lam, _ = nm.settle(net, x0, tol=1e-10, max_time=0.02)
            u = nm.extract_control(net, lam, x0)
            assert np.max(np.abs(u - (-k_lqr @ x0))) < 1e-8

    def test_stationarity_identity(self, cart_pole_setup):
        _, _, qp, _ = cart_pole_setup
        rng = np.random.default_rng(6)
        for _ in range(10):
            x0 = rng.normal(size=4)
            lam = rng.uniform(0.0, 2.0, size=qp.m)
            u = primal_from_dual(qp, x0, lam)
            grad = qp.h @ u + qp.s @ x0 + qp.g_mat.T @ lam
            assert np.max(np.abs(grad)) < 1e-10
