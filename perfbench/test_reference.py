"""Tests of the benchmark's independent reference.

    python3 -m pytest perfbench/test_reference.py -q
"""

from itertools import combinations

import numpy as np
import pytest
from scipy.signal import cont2discrete

import reference
from reference import Qp, ReferenceCheckError


def random_qp(rng, n, m, feasible=True):
    a = rng.standard_normal((n, n))
    h = a @ a.T + 0.5 * np.eye(n)
    g = rng.standard_normal((m, n))
    u0 = rng.standard_normal(n)
    # Feasible: u0 meets every row with slack in [0, 1); rows can bind at the optimum.
    w = g @ u0 + (rng.random(m) if feasible else -1.0)
    return Qp(h=h, f_x=rng.standard_normal((n, 2)), g=g, w_0=w, w_x=np.zeros((m, 2)))


def brute_force(qp, x0):
    """Smallest objective over all KKT points of every candidate active set."""
    f, w = qp.at(x0)
    n, m = qp.h.shape[0], qp.g.shape[0]
    best = None
    for size in range(0, min(n, m) + 1):
        for act in combinations(range(m), size):
            idx = list(act)
            kkt = np.block([[qp.h, qp.g[idx].T], [qp.g[idx], np.zeros((size, size))]])
            try:
                sol = np.linalg.solve(kkt, np.concatenate([-f, w[idx]]))
            except np.linalg.LinAlgError:
                continue
            u, lam = sol[:n], sol[n:]
            if np.any(lam < -1e-10) or np.any(qp.g @ u > w + 1e-10):
                continue
            obj = 0.5 * u @ qp.h @ u + f @ u
            if best is None or obj < best[0]:
                best = (obj, u)
    return best[1]


@pytest.mark.parametrize("seed", range(40))
def test_random_qp_matches_enumeration_and_meets_kkt(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 8))
    qp = random_qp(rng, n, m)
    x0 = rng.standard_normal(2) * 3.0
    sol = reference.solve_qp(qp, x0)
    assert np.allclose(sol.u, brute_force(qp, x0), atol=1e-9)
    kkt = reference.kkt_residuals(qp, x0, sol.u, sol.lam)
    assert max(kkt.values()) < 1e-10


def test_infeasible_qp_is_refused():
    qp = Qp(h=np.eye(1), f_x=np.zeros((1, 1)), g=np.array([[1.0], [-1.0]]),
            w_0=np.array([-1.0, -1.0]), w_x=np.zeros((2, 1)))  # u <= -1 and u >= 1
    with pytest.raises(ReferenceCheckError):
        reference.solve_qp(qp, np.zeros(1))


def test_answer_failing_kkt_is_refused(monkeypatch):
    qp = random_qp(np.random.default_rng(0), 3, 5)
    real = reference.nnls

    def skewed(mat, rhs, **kw):
        y, rnorm = real(mat, rhs, **kw)
        return y + 0.1, rnorm

    monkeypatch.setattr(reference, "nnls", skewed)
    with pytest.raises(ReferenceCheckError):
        reference.solve_qp(qp, np.ones(2))


def test_zoh_matches_scipy_signal():
    a_c, b_c = reference.cart_pole(0.5, 0.4, 1.0, 9.81)
    a, b = reference.zoh(a_c, b_c, 0.02)
    a2, b2, *_ = cont2discrete((a_c, b_c, np.eye(4), np.zeros((4, 1))), 0.02, method="zoh")
    assert np.allclose(a, a2, atol=1e-14) and np.allclose(b, b2, atol=1e-14)


def test_cart_pole_matches_finite_differences_of_nonlinear_model():
    mc, mp, ell, grav = 0.5, 0.4, 1.0, 9.81

    def rhs(x, u):
        _, yd, th, thd = x
        mass = np.array([[mc + mp, mp * ell * np.cos(th)], [np.cos(th), ell]])
        ydd, thdd = np.linalg.solve(mass, [u + mp * ell * thd**2 * np.sin(th), grav * np.sin(th)])
        return np.array([yd, ydd, thd, thdd])

    a_c, b_c = reference.cart_pole(mc, mp, ell, grav)
    eps = 1e-6
    jac = np.column_stack([(rhs(eps * e, 0.0) - rhs(-eps * e, 0.0)) / (2 * eps) for e in np.eye(4)])
    assert np.allclose(a_c, jac, atol=1e-6)
    assert np.allclose(b_c[:, 0], (rhs(np.zeros(4), eps) - rhs(np.zeros(4), -eps)) / (2 * eps), atol=1e-6)


def test_dare_solution_satisfies_the_equation():
    a_c, b_c = reference.cart_pole(0.5, 0.4, 1.0, 9.81)
    a, b = reference.zoh(a_c, b_c, 0.02)
    q, r = np.diag([10.0, 1.0, 500.0, 1.0]), np.array([[0.1]])
    p = reference.dare(a, b, q, r)
    k = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    assert np.abs(q + a.T @ p @ a - a.T @ p @ b @ k - p).max() < 1e-8 * np.abs(p).max()


def cart_pole_mpc(horizon):
    a_c, b_c = reference.cart_pole(0.5, 0.4, 1.0, 9.81)
    return reference.build_mpc(
        a_c, b_c, 0.02, horizon, np.diag([10.0, 1.0, 500.0, 1.0]), np.array([[0.1]]),
        np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]]), [-0.62, -0.1], [0.62, 1.0], [-10.0], [12.0],
    )


def test_condensed_qp_reproduces_rollout_cost_and_constraints():
    horizon = 5
    mpc = cart_pole_mpc(horizon)
    rng = np.random.default_rng(1)
    x0, u = rng.standard_normal(4) * 0.2, rng.standard_normal(horizon)
    q, r = np.diag([10.0, 1.0, 500.0, 1.0]), 0.1
    p_term = reference.dare(mpc.a, mpc.b, q, np.array([[r]]))
    x, cost, outs = x0, 0.5 * x0 @ q @ x0, []
    for k in range(horizon):
        cost += 0.5 * r * u[k] ** 2
        x = mpc.a @ x + mpc.b[:, 0] * u[k]
        cost += 0.5 * x @ (p_term if k == horizon - 1 else q) @ x
        outs.append(mpc.c_rows @ x)
    f, w = mpc.qp.at(x0)
    # The QP drops the u-independent terms; they cancel in a difference.
    x, const = x0, 0.5 * x0 @ q @ x0
    for k in range(horizon):
        x = mpc.a @ x
        const += 0.5 * x @ (p_term if k == horizon - 1 else q) @ x
    assert np.isclose(0.5 * u @ mpc.qp.h @ u + f @ u + const, cost, rtol=1e-10)
    outs = np.array(outs)
    expected = np.concatenate(
        [u - 12.0, -10.0 - u]
        + [np.concatenate([o - [0.62, 1.0], [-0.62, -0.1] - o]) for o in outs]
    )
    assert np.allclose(mpc.qp.g @ u - w, expected, atol=1e-12)


def test_strict_margin_separates_interior_from_infeasible_states():
    mpc = cart_pole_mpc(2)
    assert reference.strict_margin(mpc.qp, np.array([0.3, 0.0, 0.15, 0.0])) > 0.01
    # Far past the position bound and moving away: no input brings it back in time.
    assert reference.strict_margin(mpc.qp, np.array([0.9, 3.0, 0.0, 0.0])) < 0


def test_soft_qp_slack_equals_state_dual_over_rho():
    mpc = cart_pole_mpc(2)
    rho = 1e4
    soft = mpc.soft_qp(rho)
    x0 = np.array([0.59, 0.41, 0.01, 0.04])  # the position bound at k = 2 binds
    hard = reference.solve_qp(mpc.qp, x0)
    assert hard.lam[mpc.state_rows].max() > 0
    sol = reference.solve_qp(soft, x0)
    n_u = mpc.qp.h.shape[0]
    slack = sol.u[n_u:]
    assert slack.max() > 0
    assert np.allclose(slack, sol.lam[mpc.state_rows] / rho, atol=1e-10)
    interior = np.array([0.0, 0.0, 0.01, 0.0])
    assert np.allclose(reference.solve_qp(soft, interior).u[:n_u],
                       reference.solve_qp(mpc.qp, interior).u, atol=1e-12)
