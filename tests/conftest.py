import numpy as np
import pytest

import neural_mpc as nm


@pytest.fixture(scope="session")
def cart_pole_setup():
    """Benchmark problem, condensed QP, and network weights (built once)."""
    config = nm.ExperimentConfig.cart_pole_default()
    problem, qp, data = nm.build_problem(config)
    return config, problem, qp, data


@pytest.fixture(scope="session")
def benchmark_result():
    """Full benchmark run with every controller variant (built once)."""
    config = nm.ExperimentConfig.cart_pole_default(
        variants=(
            "oracle",
            "single_layer",
            "single_layer_eps",
            "multilayer_exact",
            "multilayer_approx",
            "perturbed",
            "slack",
        )
    )
    return config, nm.run_experiment(config)


def one_dim_qp():
    """min 1/2 u^2  s.t.  u <= -1; optimum u* = -1 with dual 1."""
    return nm.CondensedQp(
        h=[[1.0]],
        s=[[0.0]],
        g_mat=[[1.0]],
        t_mat=[[0.0]],
        g_vec=[-1.0],
        m=1,
        upsilon_rows=1,
    )


def duplicated_row_qp(scales=(1.0, 1.0)):
    """u <= -1 written once per scale c_i as c_i u <= -c_i (degenerate duals).

    The optimum is u* = -1 and the minimal-norm dual is c / (c'c).
    """
    c = np.asarray(scales, dtype=float)
    return nm.CondensedQp(
        h=[[1.0]],
        s=[[0.0]],
        g_mat=c[:, None],
        t_mat=np.zeros((c.size, 1)),
        g_vec=-c,
        m=c.size,
        upsilon_rows=1,
    )


def dual_objective(qp, x0, lam):
    """Dual objective 1/2 lam' G H^-1 G' lam + (G H^-1 S x0 + g + T x0)' lam.

    With H = L L' and W_G = L^-1 G' (``qp.factor``), the quadratic term is
    1/2 ||W_G lam||^2.
    """
    x0 = np.asarray(x0, dtype=float)
    _, w_g, w_s = qp.factor
    q_vec = w_g.T @ (w_s @ x0) + qp.g_vec + qp.t_mat @ x0
    v = w_g @ lam
    return float(0.5 * v @ v + q_vec @ lam)


def primal_from_dual(qp, x0, lam):
    """Stationarity recovery  u = -H^-1 (G' lam + S x0) = -L^-T (W_G lam + W_S x0)."""
    low, w_g, w_s = qp.factor
    return -np.linalg.solve(low.T, w_g @ lam + w_s @ np.asarray(x0, dtype=float))


def envelope_violation(times, lambda1_traj, lambda2_traj, mu, forcing):
    """Worst excess of the measured dual difference over its decay envelope.

    Evaluates exp(-(1-mu) t) ||lam1(0) - lam2(0)||
    + ((1 - exp(-(1-mu) t)) / (1-mu)) * forcing on the common grid and returns
    max_t (||lam1(t) - lam2(t)|| - envelope(t)), which is <= 0 (up to
    integration tolerance) when the contraction certificate is valid.  ``times``
    must be in units of the network time constant, since the dynamics decay at
    rate (1 - mu) per time constant.
    """
    times = np.asarray(times, dtype=float)
    lambda1_traj = np.atleast_2d(np.asarray(lambda1_traj, dtype=float))
    lambda2_traj = np.atleast_2d(np.asarray(lambda2_traj, dtype=float))
    if lambda1_traj.shape != lambda2_traj.shape or len(times) != lambda1_traj.shape[0]:
        raise ValueError("trajectories must share one common time grid")
    diffs = np.linalg.norm(lambda1_traj - lambda2_traj, axis=1)
    rate = 1.0 - mu
    decay = np.exp(-rate * times)
    if rate == 0.0:
        growth = times
    else:
        growth = -np.expm1(-rate * times) / rate
    envelope = decay * diffs[0] + growth * forcing
    return float(np.max(diffs - envelope))
