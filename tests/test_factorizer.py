import numpy as np
import pytest

import neural_mpc as nm


class TestHardThreshold:
    def test_budget_covers_everything(self):
        mat = np.array([[1.0, -2.0], [0.5, 0.0]])
        assert np.array_equal(nm.hard_threshold(mat, 4), mat)
        assert np.array_equal(nm.hard_threshold(mat, 10), mat)

    def test_magnitude_selection(self):
        mat = np.array([[3.0, -5.0], [1.0, 2.0]])
        assert np.array_equal(nm.hard_threshold(mat, 2), [[3.0, -5.0], [0.0, 0.0]])

    def test_tie_break_row_major(self):
        mat = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(nm.hard_threshold(mat, 2), [[1.0, 1.0], [0.0, 0.0]])

    def test_zero_budget(self):
        assert np.array_equal(nm.hard_threshold(np.ones((2, 2)), 0), np.zeros((2, 2)))

    def test_nonzero_count_bounded_by_actual_nonzeros(self):
        mat = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = nm.hard_threshold(mat, 3)
        assert np.count_nonzero(out) == 1


class TestPalmFactorize:
    def test_identity_is_fixed_point(self):
        eye = np.eye(12)
        prob = nm.FactorizationProblem(theta=eye, s_omega=144, s_psi=144, k_bar=100)
        omega, psi, hist = nm.palm_factorize(prob, omega0=eye, psi0=eye)
        assert hist[0] == 0.0
        assert np.array_equal(omega, eye)
        assert np.array_equal(psi, eye)

    def test_rank_one_recovery(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=5)
        b = rng.normal(size=4)
        theta = np.outer(a, b)
        prob = nm.FactorizationProblem(
            theta=theta, s_omega=a.size + b.size, s_psi=a.size + b.size, k_bar=50_000
        )
        omega, psi, hist = nm.palm_factorize(prob)
        assert hist[-1] <= 1e-6
        assert np.count_nonzero(omega) <= a.size + b.size
        assert np.count_nonzero(psi) <= a.size + b.size

    def test_residual_monotone_on_benchmark(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        for s in (144, 40):
            prob = nm.FactorizationProblem(theta=theta, s_omega=s, s_psi=s, k_bar=20_000)
            _, _, hist = nm.palm_factorize(prob)
            assert np.all(np.diff(hist) <= 1e-12)

    def test_sparsity_contract(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        prob = nm.FactorizationProblem(theta=theta, s_omega=40, s_psi=40, k_bar=500)
        omega, psi, _ = nm.palm_factorize(prob)
        assert np.count_nonzero(omega) <= 40
        assert np.count_nonzero(psi) <= 40

    def test_identity_layer_init_zero_residual(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        omega0, psi0 = nm.identity_layer_init(data.gamma, data.u_dual_map)
        assert nm.factorization_residual(theta, omega0, psi0) <= 1e-10
        assert np.array_equal(omega0[:12], np.eye(12))

    def test_stops_at_rounding_noise(self):
        # At N = 40 the identity-layer start is exact up to rounding; the
        # relative-change rule alone can cycle between noise values for
        # the whole sweep cap.
        _, _, data = nm.build_problem(nm.ExperimentConfig.cart_pole_default(horizon=40))
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        m = data.gamma.shape[0]
        omega0, psi0 = nm.identity_layer_init(data.gamma, data.u_dual_map)
        prob = nm.FactorizationProblem(theta=theta, s_omega=2 * m, s_psi=m * m)
        _, _, hist = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
        assert len(hist) <= 2
        assert hist[-1] <= 64 * np.finfo(float).eps * np.linalg.norm(theta, "fro")

    def test_noise_floor_leaves_sparse_budget_run_alone(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        omega0, psi0 = nm.identity_layer_init(data.gamma, data.u_dual_map)
        prob = nm.FactorizationProblem(theta=theta, s_omega=40, s_psi=40)
        _, _, hist = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
        # every residual stays above the floor, so only the change rule stops
        assert np.min(hist) > 64 * np.finfo(float).eps * np.linalg.norm(theta, "fro")
        assert len(hist) > 1000
        assert hist[-1] == pytest.approx(7.952195e-3, rel=1e-6)

    def test_collapsed_factor_floor(self):
        # an all-zero starting factor must not divide by zero
        theta = np.eye(3)
        prob = nm.FactorizationProblem(theta=theta, s_omega=9, s_psi=9, k_bar=50)
        omega, psi, hist = nm.palm_factorize(prob, omega0=np.zeros((3, 3)), psi0=np.zeros((3, 3)))
        assert np.all(np.isfinite(hist))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            nm.FactorizationProblem(theta=np.eye(2), s_omega=0, s_psi=1)
        with pytest.raises(ValueError):
            nm.FactorizationProblem(theta=np.eye(2), s_omega=1, s_psi=1, beta1=1.0)
        with pytest.raises(ValueError):
            nm.FactorizationProblem(theta=np.full((2, 2), np.nan), s_omega=1, s_psi=1)


def palm_sweeps_reference(prob, omega, psi):
    """The PALM sweep loop as first written, kept as the bitwise oracle."""
    theta = prob.theta
    floor = 64 * np.finfo(float).eps * np.linalg.norm(theta, "fro")
    history = []
    prev = None
    for _ in range(prob.k_bar):
        denom = max(np.linalg.norm(psi @ psi.T, "fro"), 1e-12)
        omega = nm.hard_threshold(
            omega - (1.0 / (prob.beta1 * denom)) * (omega @ psi - theta) @ psi.T,
            prob.s_omega,
        )
        denom = max(np.linalg.norm(omega.T @ omega, "fro"), 1e-12)
        psi = nm.hard_threshold(
            psi - (1.0 / (prob.beta2 * denom)) * omega.T @ (omega @ psi - theta),
            prob.s_psi,
        )
        res = float(np.linalg.norm(theta - omega @ psi, "fro"))
        if not np.isfinite(res):
            raise FloatingPointError("PALM iterates diverged (non-finite residual)")
        history.append(res)
        if res <= floor:
            break
        if prev is not None and abs(res - prev) <= 1e-10 * max(prev, 1e-12):
            break
        prev = res
    return omega, psi, np.array(history)


class TestPalmBitwiseOracle:
    @pytest.mark.parametrize(
        "horizon, budget, k_bar, start",
        [
            (2, 40, 100_000, "identity_layer"),
            (2, 144, 100_000, "identity_layer"),
            (4, 30, 100_000, "identity_layer"),
            (2, 40, 5, "identity_layer"),
            (2, 40, 5, "default"),
            (2, 40, 50, "zeros"),
        ],
    )
    def test_matches_reference_loop(self, horizon, budget, k_bar, start):
        _, _, data = nm.build_problem(nm.ExperimentConfig.cart_pole_default(horizon=horizon))
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        prob = nm.FactorizationProblem(theta=theta, s_omega=budget, s_psi=budget, k_bar=k_bar)
        m = data.gamma.shape[0]
        if start == "identity_layer":
            omega0, psi0 = nm.identity_layer_init(data.gamma, data.u_dual_map)
        elif start == "default":
            omega0, psi0 = theta, np.eye(m)
        else:
            omega0, psi0 = np.zeros_like(theta), np.zeros((m, m))
        got = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
        want = palm_sweeps_reference(prob, omega0.copy(), psi0.copy())
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        if k_bar == 5:
            assert len(got[2]) == k_bar


class TestSplitFactors:
    def test_benchmark_shapes(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        omega1, omega2 = nm.split_factors(theta, 1)
        assert omega1.shape == (12, 12)
        assert omega2.shape == (1, 12)

    def test_stack_back_reproduces(self):
        rng = np.random.default_rng(4)
        omega = rng.normal(size=(7, 5))
        omega1, omega2 = nm.split_factors(omega, 2)
        assert np.array_equal(np.vstack([omega1, omega2]), omega)

    def test_identity_factorization_split(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        omega1, omega2 = nm.split_factors(theta, 1)
        assert np.array_equal(omega1, data.gamma)
        assert np.array_equal(omega2, -data.u_dual_map)

    def test_row_mismatch_raises(self):
        with pytest.raises(ValueError):
            nm.split_factors(np.eye(3), 3)


class TestFactorizationResidual:
    def test_exact_factorization_zero(self):
        rng = np.random.default_rng(5)
        omega = rng.normal(size=(6, 4))
        psi = rng.normal(size=(4, 4))
        assert nm.factorization_residual(omega @ psi, omega, psi) < 1e-12

    def test_zero_factor_gives_target_norm(self):
        theta = np.arange(12.0).reshape(4, 3)
        res = nm.factorization_residual(theta, np.zeros((4, 3)), np.zeros((3, 3)))
        assert abs(res - np.linalg.norm(theta, "fro")) < 1e-12

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            nm.factorization_residual(np.eye(3), np.eye(2), np.eye(2))
