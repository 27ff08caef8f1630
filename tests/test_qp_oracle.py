import numpy as np
import pytest

import neural_mpc as nm

from conftest import dual_objective, duplicated_row_qp, one_dim_qp

# Sampling box for oracle cross-checks: wide enough to saturate the input
# bounds at many draws, narrow enough that the near-singular state-constraint
# faces (whose dual Hessian eigenvalues are ~1e-6) stay inactive and the
# network's projected-gradient flow settles within its default budget.
SAMPLE_BOX = np.array([0.3, 0.5, 0.05, 0.2])


def _horizon_qp(horizon):
    _, qp, _ = nm.build_problem(nm.ExperimentConfig.cart_pole_default(horizon=horizon))
    return qp


def _assert_kkt(qp, x0, sol):
    slack = qp.g_vec + qp.t_mat @ x0 - qp.g_mat @ sol.u
    assert np.min(slack) >= -1e-9
    assert np.min(sol.lam) >= 0.0
    assert np.max(np.abs(sol.lam * slack)) <= 1e-9
    grad = qp.h @ sol.u + qp.s @ x0 + qp.g_mat.T @ sol.lam
    assert np.max(np.abs(grad)) < 1e-8


class _SolverCases:
    """Cases every exact solver must pass; subclasses set ``solve``."""

    solve = None
    copies = (2, 3, 16, 17, 24)  # row counts for the duplicated-row dual

    def test_interior_point_unconstrained(self, cart_pole_setup):
        _, _, qp, _ = cart_pole_setup
        x0 = np.array([0.01, 0.0, 0.001, 0.0])
        sol = self.solve(qp, x0)
        assert sol.active == ()
        assert np.all(sol.lam == 0.0)
        assert np.allclose(sol.u, -np.linalg.solve(qp.h, qp.s @ x0), atol=1e-10)

    def test_one_dim_hand_kkt(self):
        sol = self.solve(one_dim_qp(), np.zeros(1))
        assert abs(sol.u[0] + 1.0) < 1e-12
        assert abs(sol.lam[0] - 1.0) < 1e-12

    def test_saturated_control_is_exact_bound(self, cart_pole_setup):
        _, _, qp, _ = cart_pole_setup
        sol = self.solve(qp, np.array([0.0, 0.0, 0.3, 0.0]))
        assert min(abs(sol.u[0] + 10.0), abs(sol.u[0] - 12.0)) < 1e-9

    def test_kkt_residuals_on_random_samples(self, cart_pole_setup):
        _, _, qp, _ = cart_pole_setup
        rng = np.random.default_rng(0)
        for _ in range(50):
            x0 = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX)
            _assert_kkt(qp, x0, self.solve(qp, x0))

    def test_minimal_norm_dual_on_duplicated_rows(self):
        # k scaled copies of one row: the minimal-norm dual is c / (c'c) at any k
        for k in self.copies:
            c = np.linspace(0.5, 2.0, k)
            sol = self.solve(duplicated_row_qp(c), np.zeros(1))
            assert abs(sol.u[0] + 1.0) < 1e-12
            assert np.max(np.abs(sol.lam - c / (c @ c))) < 1e-12, f"k = {k}"

    def test_infeasible_problem_reported(self):
        # u <= -1 and u >= 2 simultaneously
        qp = nm.CondensedQp(
            h=[[1.0]],
            s=[[0.0]],
            g_mat=[[1.0], [-1.0]],
            t_mat=[[0.0], [0.0]],
            g_vec=[-1.0, -2.0],
            m=2,
            upsilon_rows=1,
        )
        with pytest.raises(nm.InfeasibleProblem):
            self.solve(qp, np.zeros(1))


class TestActiveSetEnumeration(_SolverCases):
    solve = staticmethod(nm.qp_oracle.solve_active_set_enumeration)

    def test_enumeration_guard(self):
        m = 25
        qp = nm.CondensedQp(
            h=np.eye(2),
            s=np.zeros((2, 1)),
            g_mat=np.zeros((m, 2)),
            t_mat=np.zeros((m, 1)),
            g_vec=np.ones(m),
            m=m,
            upsilon_rows=1,
        )
        with pytest.raises(ValueError, match="guard"):
            nm.qp_oracle.solve_active_set_enumeration(qp, np.zeros(1))


class TestSolveQp(_SolverCases):
    solve = staticmethod(nm.solve_qp)
    copies = _SolverCases.copies + (40,)  # past the enumeration guard

    @pytest.mark.parametrize("horizon, count", [(2, 200), (3, 20)])
    def test_matches_enumeration(self, horizon, count):
        qp = _horizon_qp(horizon)
        rng = np.random.default_rng(horizon)
        for _ in range(count):
            x0 = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX)
            sol = nm.solve_qp(qp, x0)
            ref = nm.qp_oracle.solve_active_set_enumeration(qp, x0)
            assert np.max(np.abs(sol.u - ref.u)) <= 1e-9
            assert abs(
                dual_objective(qp, x0, sol.lam) - dual_objective(qp, x0, ref.lam)
            ) <= 1e-9

    @pytest.mark.parametrize("horizon", [10, 20])
    def test_kkt_residuals_beyond_enumeration_guard(self, horizon):
        qp = _horizon_qp(horizon)
        assert qp.m > 24
        rng = np.random.default_rng(horizon)
        states = [rng.uniform(-SAMPLE_BOX, SAMPLE_BOX) for _ in range(50)]
        saturated = 0
        for x0 in states + [np.array([0.0, 0.0, 0.3, 0.0])]:
            sol = nm.solve_qp(qp, x0)
            _assert_kkt(qp, x0, sol)
            saturated += bool(sol.active)
        assert saturated > 0

    @pytest.mark.parametrize("horizon", [10, 20])
    def test_minimal_norm_dual_on_duplicated_cart_pole_rows(self, horizon):
        # every row twice: each copy carries half the plain QP's multiplier
        qp = _horizon_qp(horizon)
        dup = nm.CondensedQp(
            h=qp.h,
            s=qp.s,
            g_mat=np.vstack([qp.g_mat, qp.g_mat]),
            t_mat=np.vstack([qp.t_mat, qp.t_mat]),
            g_vec=np.tile(qp.g_vec, 2),
            m=2 * qp.m,
            upsilon_rows=qp.upsilon_rows,
        )
        x0 = np.array([0.0, 0.0, 0.45, 0.0])
        plain = nm.solve_qp(qp, x0)
        sol = nm.solve_qp(dup, x0)
        assert len(sol.active) == 2 * len(plain.active) >= 14
        assert np.max(np.abs(sol.u - plain.u)) <= 1e-9
        scale = max(1.0, np.max(np.abs(plain.lam)))
        assert np.max(np.abs(sol.lam - np.tile(plain.lam / 2, 2))) <= 1e-9 * scale

    def test_no_constraints(self):
        # nnls aborts the interpreter on a matrix without columns
        qp = nm.CondensedQp(
            h=[[2.0]],
            s=[[1.0]],
            g_mat=np.zeros((0, 1)),
            t_mat=np.zeros((0, 1)),
            g_vec=np.zeros(0),
            m=0,
            upsilon_rows=1,
        )
        sol = nm.solve_qp(qp, np.ones(1))
        assert abs(sol.u[0] + 0.5) < 1e-15
        assert sol.lam.shape == (0,) and sol.active == ()

    def test_wrong_nnls_answer_fails_kkt_check(self, cart_pole_setup, monkeypatch):
        # y = 0 is the unconstrained optimum, which breaks the input bound here
        _, _, qp, _ = cart_pole_setup
        monkeypatch.setattr(
            nm.qp_oracle, "nnls", lambda a, b: (np.zeros(a.shape[1]), 1.0)
        )
        with pytest.raises(nm.KktCheckError, match="feasibility"):
            nm.solve_qp(qp, np.array([0.0, 0.0, 0.3, 0.0]))


class TestProjectedGradient:
    """The network (``settle``) runs the projected-gradient flow on the dual;
    its equilibrium attains the enumeration's dual objective."""

    def test_objective_agrees_with_enumeration(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        x0 = np.array([0.0, 0.0, 0.3, 0.0])
        sol = nm.qp_oracle.solve_active_set_enumeration(qp, x0)
        lam, settled = nm.settle(nm.FiringRateNetwork(data=data), x0)
        assert settled
        assert abs(
            dual_objective(qp, x0, lam) - dual_objective(qp, x0, sol.lam)
        ) < 1e-8


class TestSelfConsistency:
    def test_enumeration_vs_projected_gradient(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        net = nm.FiringRateNetwork(data=data)
        rng = np.random.default_rng(1)
        for _ in range(50):
            x0 = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX)
            sol = nm.qp_oracle.solve_active_set_enumeration(qp, x0)
            net.reset()
            lam, settled = nm.settle(net, x0)
            assert settled
            assert abs(
                dual_objective(qp, x0, lam) - dual_objective(qp, x0, sol.lam)
            ) < 1e-7
