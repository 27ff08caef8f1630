import dataclasses

import numpy as np
import pytest

import neural_mpc as nm
from neural_mpc import factorizer
from neural_mpc.factorizer import _hard_threshold, _sweep


class TestHardThreshold:
    def test_budget_covers_everything(self):
        mat = np.array([[1.0, -2.0], [0.5, 0.0]])
        assert np.array_equal(_hard_threshold(mat, 4), mat)
        assert np.array_equal(_hard_threshold(mat, 10), mat)

    def test_magnitude_selection(self):
        mat = np.array([[3.0, -5.0], [1.0, 2.0]])
        assert np.array_equal(_hard_threshold(mat, 2), [[3.0, -5.0], [0.0, 0.0]])

    def test_tie_break_row_major(self):
        mat = np.array([[1.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(_hard_threshold(mat, 2), [[1.0, 1.0], [0.0, 0.0]])

    def test_zero_budget(self):
        assert np.array_equal(_hard_threshold(np.ones((2, 2)), 0), np.zeros((2, 2)))

    def test_nonzero_count_bounded_by_actual_nonzeros(self):
        mat = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = _hard_threshold(mat, 3)
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
        # every residual stays above the floor, and the change rule stops the run
        assert np.min(hist) > 64 * np.finfo(float).eps * np.linalg.norm(theta, "fro")
        assert abs(hist[-1] - hist[-2]) <= 1e-10 * hist[-2]
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
        with pytest.raises(ValueError, match="k_bar"):
            nm.FactorizationProblem(theta=np.eye(2), s_omega=1, s_psi=1, k_bar=0)
        with pytest.raises(ValueError, match="s_omega"):
            nm.FactorizationProblem(theta=np.eye(2), s_omega=4.5, s_psi=1)
        with pytest.raises(ValueError, match="s_psi"):
            nm.FactorizationProblem(theta=np.eye(2), s_omega=1, s_psi=2.0)
        with pytest.raises(ValueError, match="theta"):
            nm.FactorizationProblem(theta=np.ones(4), s_omega=1, s_psi=1)
        with pytest.raises(ValueError, match="theta"):
            nm.FactorizationProblem(theta=np.zeros((0, 3)), s_omega=1, s_psi=1)


def hard_threshold_reference(mat, s):
    """The hard threshold as first written, kept as the oracle of ``_hard_threshold``."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    mat = np.asarray(mat, dtype=float)
    if s >= mat.size:
        return mat.copy()
    flat = mat.ravel(order="C")
    order = np.argsort(-np.abs(flat), kind="stable")
    keep = order[:s]
    out = np.zeros(mat.size)
    out[keep] = flat[keep]
    return out.reshape(mat.shape)


class TestHardThresholdOracle:
    @pytest.mark.parametrize("s", [0, 1, 7, 29, 30, 31, 100])
    def test_matches_reference(self, s):
        rng = np.random.default_rng(s)
        # Rounded draws give ties; signed zeros and a transposed (F-ordered)
        # view exercise the scan order and the sign of what is kept.
        mat = np.round(rng.normal(size=(6, 5)), 1)
        mat[0, 0], mat[2, 3] = -0.0, 0.0
        for arg in (mat, mat.T):
            got, want = _hard_threshold(arg, s), hard_threshold_reference(arg, s)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def palm_sweeps_reference(prob, omega, psi):
    """The PALM sweep loop as first written, kept as the bitwise oracle."""
    theta = prob.theta
    floor = 64 * np.finfo(float).eps * np.linalg.norm(theta, "fro")
    history = []
    prev = None
    for _ in range(prob.k_bar):
        denom = max(np.linalg.norm(psi @ psi.T, "fro"), 1e-12)
        omega = hard_threshold_reference(
            omega - (1.0 / (prob.beta1 * denom)) * (omega @ psi - theta) @ psi.T,
            prob.s_omega,
        )
        denom = max(np.linalg.norm(omega.T @ omega, "fro"), 1e-12)
        psi = hard_threshold_reference(
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


def palm_plain_first_reference(prob, omega, psi):
    """The inertial PALM loop as first written, kept as the bitwise oracle.

    Each step runs the plain sweep, then, once a_k > 0 and that sweep kept
    both supports, an extrapolated sweep that is kept below the plain
    sweep's residual: up to two sweeps per step.
    """
    history = []
    prev = None
    t = 1.0
    omega_prev, psi_prev = omega, psi
    for _ in range(prob.k_bar):
        new_omega, new_psi, res = _sweep(prob, omega, psi)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        a = (t - 1.0) / t_next
        same = np.array_equal(new_omega != 0, omega != 0) and np.array_equal(new_psi != 0, psi != 0)
        if not same:
            t = 1.0
        elif a == 0.0:
            t = t_next
        else:
            ext_omega, ext_psi, ext_res = _sweep(
                prob, omega + a * (omega - omega_prev), psi + a * (psi - psi_prev)
            )
            if (
                ext_res < res
                and np.array_equal(ext_omega != 0, omega != 0)
                and np.array_equal(ext_psi != 0, psi != 0)
            ):
                new_omega, new_psi, res = ext_omega, ext_psi, ext_res
                t = t_next
            else:
                t = 1.0
        omega_prev, psi_prev, omega, psi = omega, psi, new_omega, new_psi
        history.append(res)
        if res <= prob.floor:
            break
        if prev is not None and abs(res - prev) <= 1e-10 * max(prev, 1e-12):
            break
        prev = res
    return omega, psi, np.array(history)


def _palm_start(horizon, budget, k_bar, start):
    """A cart-pole problem at ``horizon`` and its named PALM starting factors."""
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
    return prob, omega0, psi0


class TestPalmBitwiseOracle:
    @pytest.mark.parametrize("start", ["identity_layer", "default", "zeros", "mid_run"])
    def test_sweep_matches_reference_sweep(self, start):
        first = "identity_layer" if start == "mid_run" else start
        prob, omega0, psi0 = _palm_start(2, 40, 1, first)
        if start == "mid_run":
            run = dataclasses.replace(prob, k_bar=200)
            omega0, psi0, _ = palm_sweeps_reference(run, omega0.copy(), psi0.copy())
        omega, psi, res = _sweep(prob, omega0, psi0)
        want_omega, want_psi, want_hist = palm_sweeps_reference(prob, omega0.copy(), psi0.copy())
        assert np.array_equal(omega, want_omega)
        assert np.array_equal(psi, want_psi)
        assert res == want_hist[0]

    @pytest.mark.parametrize(
        "horizon, budget, k_bar, start",
        [
            (2, 40, 100_000, "identity_layer"),
            (4, 30, 100_000, "identity_layer"),
            (2, 40, 5, "identity_layer"),
            (2, 40, 5, "default"),
            (2, 40, 50, "zeros"),
            (2, 40, 100_000, "default"),
            (2, 144, 100_000, "default"),
        ],
    )
    def test_matches_reference_loop(self, horizon, budget, k_bar, start):
        # The same supports, a residual no larger and a non-increasing history.
        prob, omega0, psi0 = _palm_start(horizon, budget, k_bar, start)
        got = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
        want = palm_sweeps_reference(prob, omega0.copy(), psi0.copy())
        (omega, psi, hist), (want_omega, want_psi, want_hist) = got, want
        assert np.array_equal(omega != 0, want_omega != 0)
        assert np.array_equal(psi != 0, want_psi != 0)
        assert hist[-1] <= want_hist[-1]
        assert np.all(np.diff(hist) <= 1e-12)
        if k_bar == 5:
            assert len(hist) == k_bar
        if (horizon, budget, k_bar, start) == (2, 40, 100_000, "identity_layer"):
            assert 5 * len(hist) <= len(want_hist)

    @pytest.mark.parametrize("budget", [30, 40])
    def test_matches_plain_first_loop(self, budget):
        # Sweeping the extrapolated point first keeps the same steps here:
        # factors, signed zeros and history are the plain-first loop's.
        prob, omega0, psi0 = _palm_start(2, budget, 100_000, "identity_layer")
        got = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
        want = palm_plain_first_reference(prob, omega0.copy(), psi0.copy())
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))

    def test_one_sweep_per_kept_step(self, monkeypatch):
        # At the paper's 40/40 budget, 169 steps run 175 sweeps; the
        # plain-first loop ran 328.
        calls = []

        def counted(*args):
            calls.append(None)
            return _sweep(*args)

        monkeypatch.setattr(factorizer, "_sweep", counted)
        prob, omega0, psi0 = _palm_start(2, 40, 100_000, "identity_layer")
        _, _, hist = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
        assert len(hist) == 169
        assert len(calls) <= 185

    @pytest.mark.parametrize("horizon, s_omega, s_psi", [(2, 144, 144), (40, 480, 57_600)])
    def test_exact_start_returned_untouched(self, horizon, s_omega, s_psi):
        # identity_layer_init's factors fit these budgets (omega0 = [I; -u_dual_map
        # gamma^-1] has 2m nonzeros, psi0 = gamma has m^2) with a residual at
        # the floor, so no sweep runs: the start comes back bit for bit.
        _, _, data = nm.build_problem(nm.ExperimentConfig.cart_pole_default(horizon=horizon))
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        omega0, psi0 = nm.identity_layer_init(data.gamma, data.u_dual_map)
        assert np.count_nonzero(omega0) <= s_omega and np.count_nonzero(psi0) <= s_psi
        prob = nm.FactorizationProblem(theta=theta, s_omega=s_omega, s_psi=s_psi)
        omega, psi, hist = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
        r0 = nm.factorization_residual(theta, omega0, psi0)
        assert r0 <= prob.floor
        assert hist.tolist() == [r0]
        assert np.array_equal(omega, omega0) and np.array_equal(psi, psi0)
        assert omega is not omega0 and psi is not psi0

    @pytest.mark.parametrize("s_omega, s_psi", [(144, 143), (23, 144)])
    def test_exact_start_over_budget_sweeps(self, s_omega, s_psi):
        # One nonzero over a budget, the exact start is swept: its first two
        # steps, before any inertial step can be tried, are the reference's bit
        # for bit, and the full run keeps the reference's psi support and
        # ends with no larger a residual.
        _, _, data = nm.build_problem(nm.ExperimentConfig.cart_pole_default(horizon=2))
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        omega0, psi0 = nm.identity_layer_init(data.gamma, data.u_dual_map)
        prob = nm.FactorizationProblem(theta=theta, s_omega=s_omega, s_psi=s_psi)
        two = dataclasses.replace(prob, k_bar=2)
        got = nm.palm_factorize(two, omega0=omega0, psi0=psi0)
        want = palm_sweeps_reference(two, omega0.copy(), psi0.copy())
        assert len(got[2]) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        _, psi, hist = nm.palm_factorize(prob, omega0=omega0, psi0=psi0)
        _, want_psi, want_hist = palm_sweeps_reference(prob, omega0.copy(), psi0.copy())
        assert np.array_equal(psi != 0, want_psi != 0)
        assert hist[-1] <= want_hist[-1]


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
