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
