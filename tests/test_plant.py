import numpy as np
import pytest
from scipy.linalg import expm, solve_discrete_are

import neural_mpc as nm
from neural_mpc import plant
from neural_mpc.plant import _dare_subspace, _expm, _sda


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

    @pytest.mark.parametrize(
        "a_c, ts", [(1.0, np.inf), (1.0, np.nan), (1.0, 1e300), (1.0, 1e308), (2.0, 1e308)]
    )
    def test_rejects_overflowing_ts(self, a_c, ts):
        # a_c ts = 2e308 overflows the block itself; 1e300 and 1e308 overflow
        # only its exponential.
        model = nm.PlantModel(np.array([[a_c]]), np.eye(1))
        with pytest.raises(ValueError):
            nm.discretize_zoh(model, ts)


def cart_pole_block(ts):
    model = nm.cart_pole_model()
    blk = np.zeros((5, 5))
    blk[:4, :4] = model.a_c
    blk[:4, 4:] = model.b_c
    return blk * ts


def assert_expm_close(mat):
    """_expm within 1e-13 max(1, ||mat||_1) of scipy, relative to its largest entry."""
    ref = expm(mat)
    tol = 1e-13 * max(1.0, np.abs(mat).sum(axis=0).max())
    assert np.max(np.abs(_expm(mat) - ref)) <= tol * np.max(np.abs(ref))


class TestExpm:
    @pytest.mark.parametrize("norm", np.logspace(-3, 2, 11))
    def test_random_against_scipy(self, norm):
        # theta_13 = 5.37: the 1-norms span 0 to 5 squarings.
        rng = np.random.default_rng(int(norm * 1000))
        for n in range(1, 9):
            mat = rng.normal(size=(n, n))
            assert_expm_close(mat * norm / np.abs(mat).sum(axis=0).max())

    @pytest.mark.parametrize("ts", [0.02, 0.1, 1.0])
    def test_defective_cart_pole_block(self, ts):
        # The augmented block has a defective zero eigenvalue.
        assert_expm_close(cart_pole_block(ts))

    def test_zero_matrix_is_exact_identity(self):
        for n in (1, 3, 5):
            assert np.array_equal(_expm(np.zeros((n, n))), np.eye(n))


def random_stabilizable(rng, n):
    """Random (a, b, q, r) with spectral radius of a in [0.5, 1.5] and q > 0."""
    p = int(rng.integers(1, 3))
    a = rng.normal(size=(n, n))
    a *= rng.uniform(0.5, 1.5) / np.max(np.abs(np.linalg.eigvals(a)))
    c = rng.normal(size=(n, n))
    q = c.T @ c / n + 1e-3 * np.eye(n)
    return a, rng.normal(size=(n, p)), q, np.eye(p) * rng.uniform(0.1, 2.0)


class TestSolveDareDoubling:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_against_scipy_and_recursion(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(2):
            a, b, q, r = random_stabilizable(rng, n)
            p = nm.solve_dare(a, b, q, r)
            p_scipy = solve_discrete_are(a, b, q, r)
            p_rec, _ = riccati_recursion(a, b, q, r)
            scale = np.max(np.abs(p_scipy))
            assert np.max(np.abs(p - p_scipy)) <= 1e-10 * scale
            assert np.max(np.abs(p - p_rec)) <= 1e-8 * scale

    def test_doubling_cap_raises(self):
        # H doubles every step and never meets the stop test.
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            nm.solve_dare(np.eye(1), np.zeros((1, 1)), np.eye(1), np.eye(1))


def sda_reference(a, g, h):
    """The doubling loop as first written, kept as the bitwise oracle of _sda."""
    n = a.shape[0]
    eye = np.eye(n)
    stop = 64 * np.finfo(float).eps
    with np.errstate(all="ignore"):
        for _ in range(64):
            sol = np.linalg.solve(eye + g @ h, np.hstack([a, g]))
            winv_a, winv_g = sol[:, :n], sol[:, n:]
            h_next = h + a.T @ h @ winv_a
            g = g + a @ winv_g @ a.T
            a = a @ winv_a
            if not np.isfinite(h_next).all():
                raise np.linalg.LinAlgError("DARE doubling iterate is not finite")
            if np.abs(h_next - h).max() <= stop * np.abs(h_next).max():
                return h_next
            h = h_next
    raise np.linalg.LinAlgError("DARE doubling did not converge in 64 steps")


def sda_outcome(sda, a, g, h):
    """The returned iterate, or the type and message of the error raised."""
    try:
        return sda(a, g, h)
    except np.linalg.LinAlgError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSdaBitwiseOracle:
    def assert_same(self, a, g, h):
        got, want = sda_outcome(_sda, a, g, h), sda_outcome(sda_reference, a, g, h)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    def test_cart_pole(self, cart_pole_setup):
        config, problem, _, _ = cart_pole_setup
        b, r = problem.plant.b, config.r
        self.assert_same(problem.plant.a, b @ np.linalg.solve(r, b.T), config.q)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_systems(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            a, b, q, r = random_stabilizable(rng, n)
            self.assert_same(a, b @ np.linalg.solve(r, b.T), q)

    @pytest.mark.parametrize(
        "a, g, h",
        [
            ([[1.0]], [[0.0]], [[1.0]]),  # H doubles every step: the cap
            # H = 2^959 reaches 2^1023 at the cap; from 2^960 it overflows on
            # the last doubling, so these two pin the cap at 64 doublings.
            ([[1.0]], [[0.0]], [[2.0**959]]),
            ([[1.0]], [[0.0]], [[2.0**960]]),
            ([[1e200]], [[0.0]], [[1.0]]),  # H overflows
            ([[1.0]], [[0.0]], [[np.nan]]),
            ([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]),
        ],
    )
    def test_raising_and_degenerate_inputs(self, a, g, h):
        self.assert_same(np.array(a), np.array(g), np.array(h))

    def test_solve_dare_paths(self, monkeypatch):
        # solve_dare runs _sda for the doubling and for the subspace path's
        # Newton step; both answers stay bit for bit.
        rng = np.random.default_rng(7)
        cases = [random_stabilizable(rng, 4), random_undetectable(rng, 3)]
        got = [nm.solve_dare(*case) for case in cases]
        monkeypatch.setattr(plant, "_sda", sda_reference)
        for p, case in zip(got, cases):
            assert np.array_equal(p, nm.solve_dare(*case))


def random_undetectable(rng, n):
    """Random stabilizable (a, b, q, r) whose q is zero on a's unstable modes."""
    while True:
        a = rng.normal(size=(n, n))
        vals, vecs = np.linalg.eig(a)
        moduli = 1.3 * np.abs(vals) / np.max(np.abs(vals))
        a *= 1.3 / np.max(np.abs(vals))
        span = np.hstack([vecs[:, moduli > 1].real, vecs[:, moduli > 1].imag])
        rank = np.linalg.matrix_rank(span)
        if rank < n and np.min(np.abs(moduli - 1)) > 0.05:
            break
    null = np.linalg.svd(span.T)[2][rank:]
    return a, rng.normal(size=(n, 1)), null.T @ null, np.eye(1)


class TestSolveDareSubspace:
    def test_unweighted_unstable_scalar(self):
        # Doubling from H = q = 0 stays at the non-stabilizing P = 0.
        p = nm.solve_dare([[2.0]], [[1.0]], [[0.0]], [[1.0]])
        assert np.allclose(p, [[3.0]], rtol=1e-14)

    def test_unweighted_unstable_block(self):
        # H e0 = 0 and W e0 = e0 hold exactly, so doubling keeps H e0 = 0.
        a, b, q, r = np.diag([2.0, 0.5]), np.ones((2, 1)), np.diag([0.0, 1.0]), np.eye(1)
        p = nm.solve_dare(a, b, q, r)
        p_scipy = solve_discrete_are(a, b, q, r)
        assert np.max(np.abs(p - p_scipy)) <= 1e-13 * np.max(np.abs(p_scipy))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_against_scipy(self, n):
        # Doubling either fails here or drifts to the stabilizing solution
        # through rounding error, which costs accuracy (8e-11 at n = 2).
        rng = np.random.default_rng(200 + n)
        a, b, q, r = random_undetectable(rng, n)
        p = nm.solve_dare(a, b, q, r)
        p_scipy = solve_discrete_are(a, b, q, r)
        assert np.max(np.abs(p - p_scipy)) <= 1e-9 * np.max(np.abs(p_scipy))
        k = nm.plant.lqr_gain(a, b, q, r, p)
        assert np.max(np.abs(np.linalg.eigvals(a - b @ k))) < 1.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_newton_step_reaches_rounding_level(self, n):
        # The eigenvector solution alone leaves residuals up to 1.9e-14 here.
        a, b, q, r = random_undetectable(np.random.default_rng(200 + n), n)
        p = _dare_subspace(a, b, q, r, b @ np.linalg.solve(r, b.T))
        p = 0.5 * (p + p.T)
        assert nm.plant.dare_residual(a, b, q, r, p) <= 1e-15 * max(1.0, np.linalg.norm(p))


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
        assert nm.plant.dare_residual(dp.a, dp.b, q, r, p) <= 1e-9
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

    @pytest.mark.parametrize(
        "b, q, r",
        [
            (np.ones((3, 1)), np.eye(2), np.eye(1)),
            (np.ones((2, 1)), np.eye(3), np.eye(1)),
            (np.ones((2, 1)), np.eye(2), np.eye(2)),
        ],
    )
    def test_shape_mismatch_raises_linalg_error(self, b, q, r):
        # A b, q or r that does not fit a is refused with the documented error.
        with pytest.raises(np.linalg.LinAlgError, match="cannot solve the DARE"):
            nm.solve_dare(np.eye(2), b, q, r)

    def test_unweighted_unstable_mode_raises(self):
        # The unstable mode is uncontrollable and unweighted: a finite PSD P
        # solves the DARE but does not stabilize.
        with pytest.raises(np.linalg.LinAlgError):
            nm.solve_dare(
                np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]), np.diag([0.0, 1.0]), np.eye(1)
            )


class TestLqrGain:
    def test_zero_dynamics_zero_gain(self):
        k = nm.plant.lqr_gain(
            np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2), np.eye(2)
        )
        assert np.allclose(k, 0.0)

    def test_scalar_golden_gain(self):
        one = np.array([[1.0]])
        p = nm.solve_dare(one, one, one, one)
        k = nm.plant.lqr_gain(one, one, one, one, p)
        assert abs(k[0, 0] - p[0, 0] / (1.0 + p[0, 0])) < 1e-10
        assert abs(k[0, 0] - 0.6180339887498949) < 1e-9

    def test_cart_pole_gain_and_stability(self):
        dp = nm.discretize_zoh(nm.cart_pole_model(), 0.02)
        q = np.diag([10.0, 1.0, 500.0, 1.0])
        r = np.array([[0.1]])
        p = nm.solve_dare(dp.a, dp.b, q, r)
        k = nm.plant.lqr_gain(dp.a, dp.b, q, r, p)
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

    @pytest.mark.parametrize("dt", [0.0, -0.02, np.nan, np.inf])
    def test_rejects_bad_steps(self, dt):
        model = nm.cart_pole_model()
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            nm.propagate_linear(model, np.zeros(4), np.zeros(1), dt)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            nm.propagate_nonlinear_cartpole(
                model.cart_pole_params, np.zeros(4), np.zeros(1), dt
            )

    @pytest.mark.parametrize("ts", [0.0, -0.02, np.nan, np.inf])
    def test_discrete_plant_rejects_bad_ts(self, ts):
        with pytest.raises(ValueError, match="ts must be positive and finite"):
            nm.DiscretePlant(np.eye(2), np.ones((2, 1)), ts)


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
                nm.plant.cart_pole_rhs(params, e, 0.0) - nm.plant.cart_pole_rhs(params, -e, 0.0)
            ) / (2 * h)
        jac_u = (
            nm.plant.cart_pole_rhs(params, np.zeros(4), h)
            - nm.plant.cart_pole_rhs(params, np.zeros(4), -h)
        ) / (2 * h)
        assert np.max(np.abs(jac_x - model.a_c)) < 1e-6
        assert np.max(np.abs(jac_u - model.b_c.ravel())) < 1e-6

    def test_positive_params_required(self):
        with pytest.raises(ValueError):
            nm.CartPoleParams(cart_mass=0.0)
