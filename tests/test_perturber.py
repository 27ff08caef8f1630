import numpy as np
import pytest

import neural_mpc as nm

from conftest import envelope_violation


@pytest.fixture(scope="module")
def pruned(cart_pole_setup):
    _, _, _, data = cart_pole_setup
    pert = nm.prune_edges(data.gamma, 0.01, 1e-4)
    pdata = nm.NetworkData(
        gamma=data.gamma + pert.delta,
        m_map=data.m_map,
        bias=data.bias,
        u_feedback=data.u_feedback,
        u_dual_map=data.u_dual_map,
    )
    return data, pert, pdata


def prune_edges_reference(gamma, threshold, diag_shift):
    """prune_edges as first written, with a dense off-diagonal mask and shift * I."""
    gamma = np.asarray(gamma, dtype=float)
    pruned = gamma.copy()
    off = ~np.eye(gamma.shape[0], dtype=bool)
    pruned[off & (np.abs(gamma) < threshold)] = 0.0
    pruned -= diag_shift * np.eye(gamma.shape[0])
    delta = pruned - gamma
    contracting, mu = nm.perturber.check_contraction(gamma + delta)
    return nm.Perturbation(delta=delta, mu=mu, contracting=contracting)


def signed_zero_matrix():
    """A symmetric matrix with -0.0 and +0.0 on and off its diagonal."""
    rng = np.random.default_rng(12)
    w = np.round(rng.normal(scale=0.02, size=(6, 6)), 2)
    w = w + w.T
    w[0, 0] = w[1, 2] = w[2, 1] = -0.0
    w[3, 3] = w[4, 5] = w[5, 4] = 0.0
    return w


def assert_same_perturbation(got, want, gamma):
    assert np.array_equal(got.delta, want.delta)
    assert np.array_equal(np.signbit(got.delta), np.signbit(want.delta))
    pruned_got, pruned_want = gamma + got.delta, gamma + want.delta
    assert np.array_equal(np.signbit(pruned_got), np.signbit(pruned_want))
    assert (got.mu, got.contracting) == (want.mu, want.contracting)


class TestCheckContraction:
    def test_zero_matrix(self):
        contracting, mu = nm.perturber.check_contraction(np.zeros((3, 3)))
        assert contracting and mu == 0.0

    def test_identity_boundary_excluded(self):
        contracting, mu = nm.perturber.check_contraction(np.eye(3))
        assert not contracting
        assert abs(mu - 1.0) < 1e-12

    def test_benchmark_gamma_not_contracting(self, cart_pole_setup):
        # the dual Hessian is PSD but rank deficient, so the synaptic matrix
        # sits exactly on the boundary
        _, _, _, data = cart_pole_setup
        contracting, mu = nm.perturber.check_contraction(data.gamma)
        assert not contracting
        assert abs(mu - 1.0) < 1e-10

    def test_negative_spectrum_clamped(self):
        _, mu = nm.perturber.check_contraction(-2.0 * np.eye(2))
        assert mu == 0.0


class TestPruneEdges:
    def test_zero_threshold_zero_shift(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        pert = nm.prune_edges(data.gamma, 0.0, 0.0)
        assert np.array_equal(pert.delta, np.zeros_like(data.gamma))

    def test_benchmark_recipe_contracts(self, pruned):
        _, pert, _ = pruned
        assert pert.contracting
        assert pert.mu < 1.0

    def test_infinite_threshold_leaves_diagonal(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        pert = nm.prune_edges(data.gamma, np.inf, 1e-4)
        perturbed = data.gamma + pert.delta
        off = perturbed - np.diag(np.diag(perturbed))
        assert np.all(off == 0.0)
        assert np.allclose(np.diag(perturbed), np.diag(data.gamma) - 1e-4)

    def test_negative_threshold_rejected(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        with pytest.raises(ValueError):
            nm.prune_edges(data.gamma, -1.0, 0.0)

    @pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, cart_pole_setup, shift):
        _, _, _, data = cart_pole_setup
        with pytest.raises(ValueError, match="diag_shift must be finite"):
            nm.prune_edges(data.gamma, 0.01, shift)

    @pytest.mark.parametrize("horizon", [1, 2, 40])
    @pytest.mark.parametrize(
        "threshold, shift", [(0.01, 1e-4), (0.0, 0.0), (0.01, -5.0), (1.0, -0.01), (0.0, -1e-4)]
    )
    def test_matches_former_implementation(self, horizon, threshold, shift):
        _, _, data = nm.build_problem(nm.ExperimentConfig.cart_pole_default(horizon=horizon))
        got = nm.prune_edges(data.gamma, threshold, shift)
        want = prune_edges_reference(data.gamma, threshold, shift)
        assert_same_perturbation(got, want, data.gamma)

    @pytest.mark.parametrize("threshold", [0.0, 0.01, np.inf])
    @pytest.mark.parametrize("shift", [0.5, 0.0, -0.0, -0.5])
    def test_signed_zeros_match_former_implementation(self, threshold, shift):
        w = signed_zero_matrix()
        got = nm.prune_edges(w, threshold, shift)
        assert_same_perturbation(got, prune_edges_reference(w, threshold, shift), w)


class TestOneSidedLipschitz:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the identity-metric one-sided constant of the pruned synaptic "
            "matrix exceeds the symmetric-part estimate mu for adversarial "
            "activation patterns (worst sampled ratio ~1.27, binary-slope "
            "worst ~2.19 vs mu ~0.9999); the symmetric-part test is only a "
            "sufficient certificate in a problem-dependent metric, see the "
            "decisions ledger"
        ),
    )
    def test_inequality_for_unrestricted_triples(self, pruned):
        _, pert, pdata = pruned
        w = pdata.gamma
        mu = pert.mu
        rng = np.random.default_rng(0)
        for _ in range(1000):
            lam1 = rng.uniform(0.0, 5.0, 12)
            lam2 = rng.uniform(0.0, 5.0, 12)
            b = rng.normal(0.0, 5.0, 12)
            d = lam1 - lam2
            inner = (nm.network.relu(w @ lam1 + b) - nm.network.relu(w @ lam2 + b)) @ d
            assert mu * d @ d - inner >= -1e-10

    def test_inequality_along_realized_trajectories(self, pruned):
        # slopes realized by the flow itself (trajectory-local differences)
        # respect the estimate
        _, pert, pdata = pruned
        w = pdata.gamma
        mu = pert.mu
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        b = -(pdata.m_map @ x0 + pdata.bias)
        net = nm.FiringRateNetwork(data=pdata, eta=1e-3)
        _, _, _, traj = nm.settle(net, x0, tol=1e-300, max_time=0.02, record=True)
        for lam1, lam2 in zip(traj[:-1], traj[1:]):
            d = lam1 - lam2
            dd = d @ d
            if dd == 0.0:
                continue
            inner = (nm.network.relu(w @ lam1 + b) - nm.network.relu(w @ lam2 + b)) @ d
            assert mu * dd - inner >= -1e-10 * max(1.0, dd)


class TestControlDeviationBound:
    def test_no_perturbation_same_state(self, pruned):
        data, pert, _ = pruned
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        traj = np.zeros((5, 12))
        bound = nm.control_deviation_bound(
            data, np.zeros((12, 12)), x0, x0, traj, pert.mu
        )
        assert bound == 0.0

    def test_no_perturbation_reduces_to_state_terms(self, pruned):
        data, pert, _ = pruned
        x1 = np.array([0.3, 0.0, 0.15, 0.0])
        x2 = np.array([0.2, 0.1, 0.05, 0.0])
        traj = np.zeros((5, 12))
        bound = nm.control_deviation_bound(data, np.zeros((12, 12)), x1, x2, traj, pert.mu)
        expect = np.linalg.norm(data.u_feedback @ (x1 - x2)) + np.linalg.norm(
            data.u_dual_map, 2
        ) / (1 - pert.mu) * np.linalg.norm(data.m_map @ (x1 - x2))
        assert abs(bound - expect) < 1e-12

    def test_forcing_term_is_max_row_norm(self, pruned):
        data, _, _ = pruned
        rng = np.random.default_rng(11)
        # A row's two reductions differ in the last bit about one time in five,
        # so forty draws tell sqrt(d.dot(d)) from add.reduce.
        for rows in rng.integers(1, 300, size=40):
            delta = rng.normal(size=(12, 12))
            traj = rng.normal(size=(rows, 12))
            x1, x2 = rng.normal(size=4), rng.normal(size=4)
            diffs = data.m_map @ (x1 - x2) - traj @ delta.T
            expect = max(np.linalg.norm(row) for row in diffs)
            assert nm.perturber.forcing_term(data.m_map, delta, x1, x2, traj) == expect

    def test_bound_dominates_measured_deviation(self, pruned):
        data, pert, pdata = pruned
        x0 = np.array([0.0, 0.0, 0.3, 0.0])  # saturates the input bound
        base = nm.FiringRateNetwork(data=data, eta=1e-3)
        lam1, _, _, traj = nm.settle(base, x0, tol=1e-10, max_time=0.1, record=True)
        u1 = nm.extract_control(base, lam1, x0)
        perturbed_net = nm.FiringRateNetwork(data=pdata, eta=1e-3)
        lam2, _ = nm.settle(perturbed_net, x0, tol=1e-10, max_time=0.1)
        u2 = nm.extract_control(perturbed_net, lam2, x0)
        bound = nm.control_deviation_bound(data, pert.delta, x0, x0, traj, pert.mu)
        assert np.linalg.norm(u1 - u2) <= bound

    def test_mu_at_one_rejected(self, pruned):
        data, _, _ = pruned
        with pytest.raises(ValueError):
            nm.control_deviation_bound(
                data, np.zeros((12, 12)), np.zeros(4), np.zeros(4), np.zeros((2, 12)), 1.0
            )


class TestEnvelope:
    def test_identical_trajectories(self, pruned):
        _, pert, pdata = pruned
        net = nm.FiringRateNetwork(data=pdata, eta=1e-3)
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        _, _, times, traj = nm.settle(net, x0, tol=1e-300, max_time=0.01, record=True)
        v = envelope_violation(times / 1e-3, traj, traj, pert.mu, 0.0)
        assert v <= 0.0

    def test_decay_within_envelope_near_equilibrium(self, pruned):
        # perturbation pairs around the settled operating point stay inside
        # the envelope; see the ledger for why broad random pairs do not.
        # The envelope bounds the continuous flow, so the pairs are integrated
        # at dt/eta = 0.05, well below the default step (0.097), whose fast
        # mode decays by 0.9 per step where the flow's decays by 0.15.
        _, pert, pdata = pruned
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        ref = nm.FiringRateNetwork(data=pdata, eta=1e-3)
        lam_star, _ = nm.settle(ref, x0, tol=1e-12, max_time=0.5)
        rng = np.random.default_rng(2)
        for _ in range(10):
            d0 = rng.normal(0.0, 1e-3, 12)
            net_a = nm.FiringRateNetwork(
                data=pdata, eta=1e-3, lam=np.maximum(lam_star + d0, 0.0)
            )
            net_b = nm.FiringRateNetwork(
                data=pdata, eta=1e-3, lam=np.maximum(lam_star - d0, 0.0)
            )
            _, _, ta, tra = nm.settle(net_a, x0, tol=1e-300, max_time=0.02, dt=5e-5, record=True)
            _, _, _, trb = nm.settle(net_b, x0, tol=1e-300, max_time=0.02, dt=5e-5, record=True)
            assert envelope_violation(ta / 1e-3, tra, trb, pert.mu, 0.0) <= 1e-6

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "broad random initial-state pairs exhibit transient Euclidean "
            "growth that the identity-metric envelope with the symmetric-part "
            "mu cannot cover (worst measured overshoot ~0.18); see the "
            "decisions ledger"
        ),
    )
    def test_decay_within_envelope_for_random_pairs(self, pruned):
        _, pert, pdata = pruned
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        rng = np.random.default_rng(1)
        for _ in range(20):
            net_a = nm.FiringRateNetwork(data=pdata, eta=1e-3, lam=rng.uniform(0, 3, 12))
            net_b = nm.FiringRateNetwork(data=pdata, eta=1e-3, lam=rng.uniform(0, 3, 12))
            _, _, ta, tra = nm.settle(net_a, x0, tol=1e-300, max_time=0.05, record=True)
            _, _, _, trb = nm.settle(net_b, x0, tol=1e-300, max_time=0.05, record=True)
            assert envelope_violation(ta / 1e-3, tra, trb, pert.mu, 0.0) <= 1e-6

    def test_grid_mismatch_raises(self):
        with pytest.raises(ValueError):
            envelope_violation(np.arange(3.0), np.zeros((3, 2)), np.zeros((4, 2)), 0.5, 0.0)
