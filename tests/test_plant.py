import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

import neural_mpc as nm


def taylor_expm(mat, terms=20):
    """Truncated-series matrix exponential, independent of the library path."""
    out = np.eye(mat.shape[0])
    term = np.eye(mat.shape[0])
    for k in range(1, terms + 1):
        term = term @ mat / k
        out = out + term
    return out


def riccati_recursion(a, b, q, r, steps=10_000):
    """Backward value recursion in gain form, independent of solve_dare."""
    p = q.copy()
    gain = None
    for _ in range(steps):
        gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
        acl = a - b @ gain
        p = q + gain.T @ r @ gain + acl.T @ p @ acl
        p = 0.5 * (p + p.T)
    return p, gain


class TestDiscretizeZoh:
    def test_zero_dynamics_identity(self):
        model = nm.PlantModel(np.zeros((2, 2)), np.zeros((2, 1)))
        dp = nm.discretize_zoh(model, 1.0)
        assert np.allclose(dp.a, np.eye(2), atol=1e-14)
        assert np.allclose(dp.b, 0.0, atol=1e-14)

    def test_scalar_closed_form(self):
        # xdot = -x + u over ts = ln 2: a = 1/2, b = 1 - e^-ts = 1/2
        model = nm.PlantModel(np.array([[-1.0]]), np.array([[1.0]]))
        dp = nm.discretize_zoh(model, np.log(2.0))
        assert abs(dp.a[0, 0] - 0.5) < 1e-12
        assert abs(dp.b[0, 0] - 0.5) < 1e-12

    def test_cart_pole_matches_series_oracle(self):
        model = nm.cart_pole_model()
        ts = 0.02
        dp = nm.discretize_zoh(model, ts)
        blk = np.zeros((5, 5))
        blk[:4, :4] = model.a_c
        blk[:4, 4:] = model.b_c
        big = taylor_expm(blk * ts)
        assert np.max(np.abs(dp.a - big[:4, :4])) < 1e-10
        assert np.max(np.abs(dp.b - big[:4, 4:])) < 1e-10

    def test_zoh_exactness_property(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            model = nm.PlantModel(rng.normal(size=(3, 3)), rng.normal(size=(3, 2)))
            ts = rng.uniform(0.01, 0.2)
            dp = nm.discretize_zoh(model, ts)
            x = rng.normal(size=3)
            u = rng.normal(size=2)
            prop = nm.propagate_linear(model, x, u, ts, substeps=100)
            assert np.max(np.abs(prop - (dp.a @ x + dp.b @ u))) < 1e-9

    def test_rejects_bad_inputs(self):
        model = nm.PlantModel(np.zeros((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            nm.discretize_zoh(model, 0.0)
        with pytest.raises(ValueError):
            nm.PlantModel(np.array([[np.nan, 0], [0, 0]]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            nm.PlantModel(np.zeros((2, 3)), np.zeros((2, 1)))


class TestSolveDare:
    def test_one_step_substitution(self):
        q = np.array([[3.0]])
        p = nm.solve_dare(np.array([[0.0]]), np.array([[1.0]]), q, np.array([[1.0]]))
        assert np.allclose(p, q, atol=1e-12)

    def test_scalar_golden_ratio(self):
        one = np.array([[1.0]])
        p = nm.solve_dare(one, one, one, one)
        assert abs(p[0, 0] - (1.0 + np.sqrt(5.0)) / 2.0) < 1e-10

    def test_cart_pole_against_recursion_oracle(self):
        dp = nm.discretize_zoh(nm.cart_pole_model(), 0.02)
        q = np.diag([10.0, 1.0, 500.0, 1.0])
        r = np.array([[0.1]])
        p = nm.solve_dare(dp.a, dp.b, q, r)
        p_oracle, _ = riccati_recursion(dp.a, dp.b, q, r)
        assert np.max(np.abs(p - p_oracle)) < 1e-8
        assert np.max(np.abs(p - solve_discrete_are(dp.a, dp.b, q, r))) < 1e-7

    def test_solution_properties(self):
        dp = nm.discretize_zoh(nm.cart_pole_model(), 0.02)
        q = np.diag([10.0, 1.0, 500.0, 1.0])
        r = np.array([[0.1]])
        p = nm.solve_dare(dp.a, dp.b, q, r)
        assert nm.dare_residual(dp.a, dp.b, q, r, p) <= 1e-9
        assert np.allclose(p, p.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-10

    def test_nonconvergence_raises(self):
        # Uncontrollable unstable mode: value iteration diverges.
        with pytest.raises(np.linalg.LinAlgError):
            nm.solve_dare(np.array([[2.0]]), np.array([[0.0]]), np.eye(1), np.eye(1))

    def test_unobserved_unit_circle_modes_raise(self):
        # q = 0 leaves the cart-pole's two unit-circle modes unobserved:
        # P = 0 solves the DARE but does not stabilize.  At r = 0.1 scipy
        # raises; at r = 1 it returns a P whose closed loop keeps them.
        dp = nm.discretize_zoh(nm.cart_pole_model(), 0.02)
        for r in (0.1, 1.0):
            with pytest.raises(np.linalg.LinAlgError):
                nm.solve_dare(dp.a, dp.b, np.zeros((4, 4)), np.array([[r]]))

    def test_unweighted_unstable_mode_raises(self):
        # The unstable mode is uncontrollable and unweighted: a finite PSD P
        # solves the DARE but does not stabilize.
        with pytest.raises(np.linalg.LinAlgError):
            nm.solve_dare(
                np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]), np.diag([0.0, 1.0]), np.eye(1)
            )


class TestLqrGain:
    def test_zero_dynamics_zero_gain(self):
        k = nm.lqr_gain(
            np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2), np.eye(2)
        )
        assert np.allclose(k, 0.0)

    def test_scalar_golden_gain(self):
        one = np.array([[1.0]])
        p = nm.solve_dare(one, one, one, one)
        k = nm.lqr_gain(one, one, one, one, p)
        assert abs(k[0, 0] - p[0, 0] / (1.0 + p[0, 0])) < 1e-10
        assert abs(k[0, 0] - 0.6180339887498949) < 1e-9

    def test_cart_pole_gain_and_stability(self):
        dp = nm.discretize_zoh(nm.cart_pole_model(), 0.02)
        q = np.diag([10.0, 1.0, 500.0, 1.0])
        r = np.array([[0.1]])
        p = nm.solve_dare(dp.a, dp.b, q, r)
        k = nm.lqr_gain(dp.a, dp.b, q, r, p)
        _, k_oracle = riccati_recursion(dp.a, dp.b, q, r)
        assert np.max(np.abs(k - k_oracle)) < 1e-8
        assert np.max(np.abs(np.linalg.eigvals(dp.a - dp.b @ k))) < 1.0


class TestPropagation:
    def test_equilibrium_stays(self):
        model = nm.cart_pole_model()
        out = nm.propagate_linear(model, np.zeros(4), np.zeros(1), 0.02)
        assert np.allclose(out, 0.0)

    def test_scalar_decay(self):
        model = nm.PlantModel(np.array([[-1.0]]), np.array([[0.0]]))
        out = nm.propagate_linear(model, np.ones(1), np.zeros(1), 1.0, substeps=100)
        assert abs(out[0] - np.exp(-1.0)) < 1e-8

    def test_cart_pole_matches_zoh(self):
        model = nm.cart_pole_model()
        dp = nm.discretize_zoh(model, 0.02)
        x0 = np.array([0.0, 0.0, 0.1, 0.0])
        out = nm.propagate_linear(model, x0, np.zeros(1), 0.02)
        assert np.max(np.abs(out - dp.a @ x0)) < 1e-9


class TestNonlinearCartPole:
    def test_upright_equilibrium(self):
        params = nm.CartPoleParams()
        out = nm.propagate_nonlinear_cartpole(params, np.zeros(4), np.zeros(1), 0.02)
        assert np.allclose(out, 0.0)

    def test_hanging_equilibrium(self):
        params = nm.CartPoleParams()
        x0 = np.array([0.0, 0.0, np.pi, 0.0])
        out = nm.propagate_nonlinear_cartpole(params, x0, np.zeros(1), 0.02)
        assert np.max(np.abs(out - x0)) < 1e-12

    def test_small_angle_matches_linear(self):
        model = nm.cart_pole_model()
        x0 = np.array([0.0, 0.0, 0.01, 0.0])
        lin = nm.propagate_linear(model, x0, np.zeros(1), 0.02)
        nonlin = nm.propagate_nonlinear_cartpole(
            model.cart_pole_params, x0, np.zeros(1), 0.02
        )
        assert np.max(np.abs(lin - nonlin)) <= 1e-5

    def test_jacobian_matches_linearization(self):
        model = nm.cart_pole_model()
        params = model.cart_pole_params
        h = 1e-6
        jac_x = np.zeros((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            jac_x[:, j] = (
                nm.cart_pole_rhs(params, e, 0.0) - nm.cart_pole_rhs(params, -e, 0.0)
            ) / (2 * h)
        jac_u = (
            nm.cart_pole_rhs(params, np.zeros(4), h)
            - nm.cart_pole_rhs(params, np.zeros(4), -h)
        ) / (2 * h)
        assert np.max(np.abs(jac_x - model.a_c)) < 1e-6
        assert np.max(np.abs(jac_u - model.b_c.ravel())) < 1e-6

    def test_positive_params_required(self):
        with pytest.raises(ValueError):
            nm.CartPoleParams(cart_mass=0.0)
