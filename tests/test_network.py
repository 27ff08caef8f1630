import dataclasses
import re

import numpy as np
import pytest

import neural_mpc as nm
from neural_mpc import harness

from conftest import dual_objective, duplicated_row_qp, one_dim_qp, primal_from_dual


class TestRelu:
    def test_mixed_signs(self):
        assert np.array_equal(nm.network.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        assert np.array_equal(nm.network.relu(-np.arange(1.0, 4.0)), np.zeros(3))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=50)
        assert np.array_equal(nm.network.relu(nm.network.relu(v)), nm.network.relu(v))


class TestStepSingleLayer:
    def test_inactive_constraints_keep_zero(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        relaxed = nm.NetworkData(
            gamma=data.gamma,
            m_map=data.m_map,
            bias=data.bias * 1e6,
            u_feedback=data.u_feedback,
            u_dual_map=data.u_dual_map,
        )
        net = nm.FiringRateNetwork(data=relaxed, eta=1e-3)
        for _ in range(50):
            nm.settle(net, np.array([0.3, 0, 0.15, 0]), tol=1e-300, max_time=5e-5, dt=5e-5)
        assert np.all(net.lam == 0.0)

    def test_scalar_fixed_point(self):
        # single unit with zero recurrence and constant positive drive
        data = nm.build_network(one_dim_qp())
        assert np.allclose(data.gamma, 0.0)
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        lam, settled = nm.settle(net, np.zeros(1), tol=1e-12, max_time=0.05)
        assert settled
        assert abs(lam[0] - 1.0) < 1e-10

    def test_step_size_guard(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        with pytest.raises(ValueError):
            nm.settle(net, np.zeros(4), tol=1e-300, max_time=1e-3, dt=1e-3)


class TestStepGuard:
    """Both entry points require 0 < dt/eta < 2/max(1, 1 + e - lambda_min(gamma))."""

    @pytest.mark.parametrize("dt", [0.0, -5e-5, -1e-3, 6e-4, float("nan")])
    def test_settle_rejects(self, cart_pole_setup, dt):
        _, _, _, data = cart_pole_setup
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        with pytest.raises(ValueError, match="dt/eta"):
            nm.settle(net, np.zeros(4), dt=dt)
        assert np.all(net.lam == 0.0)

    @pytest.mark.parametrize("dt", [0.0, -5e-5, -1e-3, 6e-4, float("nan")])
    def test_settle_multilayer_rejects(self, cart_pole_setup, dt):
        _, _, _, data = cart_pole_setup
        multi = nm.MultilayerNetwork(
            omega1=data.gamma, omega2=-data.u_dual_map, psi=np.eye(data.size), eta=1e-3
        )
        with pytest.raises(ValueError, match="dt/eta"):
            nm.settle_multilayer(multi, data, np.zeros(4), dt=dt)
        assert np.all(multi.tilde_lam == 0.0)

    @pytest.mark.parametrize("dt", [0.0, -5e-5])
    def test_steps_reject(self, cart_pole_setup, dt):
        # one-step calls (max_time = dt): the guard fires before max_time / dt
        _, _, _, data = cart_pole_setup
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        multi = nm.MultilayerNetwork(
            omega1=data.gamma, omega2=-data.u_dual_map, psi=np.eye(data.size), eta=1e-3
        )
        with pytest.raises(ValueError, match="dt/eta"):
            nm.settle(net, np.zeros(4), tol=1e-300, max_time=dt, dt=dt)
        with pytest.raises(ValueError, match="dt/eta"):
            nm.settle_multilayer(multi, data, np.zeros(4), tol=1e-300, max_time=dt, dt=dt)

    @pytest.mark.parametrize("ratio", [0.3, 0.5])
    def test_unsettling_steps_rejected(self, cart_pole_setup, ratio):
        # The former guard accepted dt/eta <= 0.5, but at 0.3 and 0.5 the
        # Euler map of the N = 2 cart-pole network has not settled after 200
        # time constants; the default step settles well within them.
        _, _, _, data = cart_pole_setup
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        bias_in = data.m_map @ x0 + data.bias
        lam0 = np.zeros(data.size)
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        pre, post = nm.network._synapses(net, data.gamma, None)
        assert pre == data.gamma.dot and post is None  # the dense product at N = 2
        assert not nm.network._euler(pre, post, lam0, bias_in, ratio, round(200 / ratio), 1e-8)[1]
        h_max, h = nm.step_limits(net)
        assert nm.network._euler(pre, post, lam0, bias_in, h, round(200 / h), 1e-8)[1]
        multi = nm.MultilayerNetwork(
            omega1=data.gamma, omega2=-data.u_dual_map, psi=np.eye(data.size), eta=1e-3
        )
        dt = ratio * 1e-3
        limit = re.escape(repr(h_max))
        for call in (
            lambda: nm.settle(net, x0, dt=dt),
            lambda: nm.settle_multilayer(multi, data, x0, dt=dt),
        ):
            with pytest.raises(ValueError, match=f"dt/eta < {limit}"):
                call()
        assert np.all(net.lam == 0.0) and np.all(multi.tilde_lam == 0.0)


class TestSettleBudget:
    """Both entry points take tol and max_time in (0, inf) only, NaN refused:
    an infinite tol settles at the first evaluation, a NaN one never settles,
    and a max_time that is not positive and finite has no step count."""

    @staticmethod
    def entry_points(data):
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        multi = nm.MultilayerNetwork(
            omega1=data.gamma, omega2=-data.u_dual_map, psi=np.eye(data.size), eta=1e-3
        )
        calls = (
            lambda **kw: nm.settle(net, X0, **kw),
            lambda **kw: nm.settle_multilayer(multi, data, X0, **kw),
        )
        return net, multi, calls

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tol_rejected(self, cart_pole_setup, tol):
        _, _, _, data = cart_pole_setup
        net, multi, calls = self.entry_points(data)
        for call in calls:
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                call(tol=tol)
        assert np.all(net.lam == 0.0) and np.all(multi.tilde_lam == 0.0)

    @pytest.mark.parametrize("max_time", [0.0, -1.0, float("nan"), float("inf")])
    def test_max_time_rejected(self, cart_pole_setup, max_time):
        _, _, _, data = cart_pole_setup
        net, multi, calls = self.entry_points(data)
        for call in calls:
            with pytest.raises(ValueError, match="max_time must be positive and finite"):
                call(max_time=max_time)
        assert np.all(net.lam == 0.0) and np.all(multi.tilde_lam == 0.0)

    def test_short_max_time_takes_one_step(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        net, _, _ = self.entry_points(data)
        _, settled, _, traj = nm.settle(net, X0, tol=1e-300, max_time=1e-9, record=True)
        assert not settled and len(traj) == 2


class TestParameters:
    """Construction rejects a time constant that is not positive and a
    regularizer that is negative or not finite, NaN included."""

    @pytest.mark.parametrize("eta", [0.0, -1e-3, float("nan")])
    def test_eta_rejected(self, cart_pole_setup, eta):
        _, _, _, data = cart_pole_setup
        with pytest.raises(ValueError, match="eta must be positive"):
            nm.FiringRateNetwork(data=data, eta=eta)
        with pytest.raises(ValueError, match="eta must be positive"):
            nm.MultilayerNetwork(
                omega1=data.gamma, omega2=-data.u_dual_map, psi=np.eye(data.size), eta=eta
            )

    @pytest.mark.parametrize("eps0", [-0.1, float("nan"), float("inf")])
    def test_eps0_rejected(self, cart_pole_setup, eps0):
        _, _, _, data = cart_pole_setup
        with pytest.raises(ValueError, match="eps0 must be nonnegative and finite"):
            nm.FiringRateNetwork(data=data, eps0=eps0)


X0 = np.array([0.3, 0.0, 0.15, 0.0])
NETWORK_KINDS = ("plain", "eps0", "slack", "pruned", "multilayer_exact", "multilayer_approx")


@pytest.fixture(scope="module")
def networks(cart_pole_setup):
    """kind -> (make, gamma, e): a fresh (net, aux) pair, the gamma whose
    spectrum sets its step, and its widening e."""
    config, _, qp, data = cart_pole_setup
    sdata, _ = nm.augment_slack(qp, config.rho)
    pert = nm.prune_edges(data.gamma, config.prune_threshold, config.prune_shift)
    pdata = dataclasses.replace(data, gamma=data.gamma + pert.delta)
    out = {
        "plain": (lambda: (nm.FiringRateNetwork(data=data), None), data.gamma, 0.0),
        "eps0": (lambda: (nm.FiringRateNetwork(data=data, eps0=0.1), None), data.gamma, 0.1),
        "slack": (lambda: (nm.FiringRateNetwork(data=sdata), None), sdata.gamma, 0.0),
        "pruned": (lambda: (nm.FiringRateNetwork(data=pdata), None), pdata.gamma, 0.0),
    }
    for key, budgets in (
        ("exact", (config.s_omega, config.s_psi)),
        ("approx", (config.s_omega_approx, config.s_psi_approx)),
    ):
        fac = harness._factorize(data, *budgets)
        e = np.linalg.norm(fac["omega1"] @ fac["psi"] - data.gamma)

        def make(fac=fac):
            multi = nm.MultilayerNetwork(
                omega1=fac["omega1"], omega2=fac["omega2"], psi=fac["psi"], residual=0.0
            )
            return multi, data

        out[f"multilayer_{key}"] = (make, data.gamma, e)
    return out


def settle_at(net, aux):
    """Settle either network form for 20 steps at an explicit dt."""
    if aux is None:
        return lambda dt: nm.settle(net, X0, dt=dt, max_time=20 * dt)
    return lambda dt: nm.settle_multilayer(net, aux, X0, dt=dt, max_time=20 * dt)


class TestStepLimits:
    """The step limit 2/a and default step 2/(a + 1), a = max(1, 1 + e -
    lambda_min(gamma)), per network."""

    @pytest.mark.parametrize("kind", NETWORK_KINDS)
    def test_limit_is_the_formula_and_sharp(self, networks, kind):
        make, gamma, e = networks[kind]
        a = max(1.0, 1.0 + e - np.linalg.eigvalsh(gamma)[0])
        net, aux = make()
        assert nm.step_limits(net, aux) == (2.0 / a, 2.0 / (a + 1.0))
        h_max = 2.0 / a
        settle = settle_at(net, aux)
        below, above = h_max * (1 - 1e-9) * 1e-3, h_max * (1 + 1e-9) * 1e-3
        settle(below)
        with pytest.raises(ValueError, match="dt/eta <"):
            settle(above)

    def test_cart_pole_figures(self, networks):
        # lambda_min(gamma) = -18.61 at N = 2: limit 0.1020, default 0.0970
        h_max, h = nm.step_limits(networks["plain"][0]()[0])
        assert abs(h_max - 0.10198) < 1e-5 and abs(h - 0.09703) < 1e-5
        assert nm.step_limits(networks["eps0"][0]()[0])[0] < h_max

    def test_mismatched_factors_get_a_smaller_limit(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        plain = nm.step_limits(nm.FiringRateNetwork(data=data))
        eye = np.eye(data.size)

        def multi(omega1):
            # residual left at its default 0: the limit reads the factors
            return nm.MultilayerNetwork(omega1=omega1, omega2=-data.u_dual_map, psi=eye)

        assert nm.step_limits(multi(data.gamma), data) == plain
        off = 0.05 * np.random.default_rng(3).normal(size=data.gamma.shape)
        off = off + off.T  # symmetric, so gamma + off is a valid aux below
        e = np.linalg.norm(off)
        a = 1.0 + e - np.linalg.eigvalsh(data.gamma)[0]
        wrong = multi(data.gamma + off)
        assert nm.step_limits(wrong, data) == (2.0 / a, 2.0 / (a + 1.0))
        assert 2.0 / a < plain[0]
        # kept per aux: against gamma + off itself e = 0, and lambda_min moves
        # by at most ||off||_2 < e (Weyl), so the limit is larger
        aux = dataclasses.replace(data, gamma=data.gamma + off)
        assert nm.step_limits(wrong, aux)[0] > 2.0 / a
        assert nm.step_limits(wrong, data) == (2.0 / a, 2.0 / (a + 1.0))

    def test_exact_factors_at_n40_are_a_wire_with_the_single_layer_step(self):
        config = nm.ExperimentConfig.cart_pole_default(horizon=40)
        _, _, data = nm.build_problem(config)
        fac = nm.harness._factorize(data, 480, 57_600)
        assert fac["at_floor"] and np.array_equal(fac["psi"], data.gamma)
        multi = nm.MultilayerNetwork(omega1=fac["omega1"], omega2=fac["omega2"], psi=fac["psi"])
        # omega1 is exactly the identity, so its map is a wire
        assert nm.network._synapses(multi, multi.omega1, multi.psi)[0] is nm.network._identity
        assert nm.step_limits(multi, data) == nm.step_limits(nm.FiringRateNetwork(data=data))

    def test_wire_error_equals_the_product_form(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        eye = np.eye(data.size)
        off = 0.05 * np.random.default_rng(4).normal(size=data.gamma.shape)
        wire = nm.MultilayerNetwork(omega1=eye, omega2=-data.u_dual_map, psi=data.gamma + off)
        e = np.linalg.norm(eye @ wire.psi - data.gamma)
        a = 1.0 + e - np.linalg.eigvalsh(data.gamma)[0]
        assert nm.step_limits(wire, data) == (2.0 / a, 2.0 / (a + 1.0))

    def test_inactive_decay_caps_the_step(self):
        # gamma = 0.5 I: the active modes decay at rate 0.5, inactive units at
        # rate 1, so a = 1 and not 0.5
        data = nm.NetworkData(
            gamma=0.5 * np.eye(2),
            m_map=np.zeros((2, 1)),
            bias=np.array([-1.0, 1.0]),
            u_feedback=np.zeros((1, 1)),
            u_dual_map=np.zeros((1, 2)),
        )
        net = nm.FiringRateNetwork(data=data)
        assert nm.step_limits(net) == (2.0, 1.0)
        lam, settled = nm.settle(net, np.zeros(1), max_time=0.2)
        assert settled and np.allclose(lam, [2.0, 0.0])

    def test_lambda_min_computed_once(self, cart_pole_setup, monkeypatch):
        _, _, _, data = cart_pole_setup
        fresh = dataclasses.replace(data)
        calls = [0]
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls[0] += 1
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        net = nm.FiringRateNetwork(data=fresh)
        for _ in range(3):
            net.reset()
            nm.settle(net, X0)
        assert calls[0] == 1 and fresh.lambda_min == eigvalsh(data.gamma)[0]


LO = np.array([-0.4, -1.0, -0.1, -1.0])
HI = np.array([0.4, 1.0, 0.5, 1.0])


def input_bound_states(qp, n, seed=0):
    """n states from the cold-query box at whose optimum an input row binds
    and no state row does, with their exact solutions."""
    rng = np.random.default_rng(seed)
    k = qp.input_row_count
    out = []
    while len(out) < n:
        x = rng.uniform(LO, HI)
        try:
            sol = nm.solve_qp(qp, x)
        except nm.InfeasibleProblem:
            continue
        if (sol.lam[:k] > 1e-6).any() and not (sol.lam[k:] > 1e-6).any():
            out.append((x, sol))
    return out


class TestColdStart:
    """Cold starts with the default step and a one-sample budget settle in a
    stated number of rate evaluations (counted through ``network.relu``, as
    the benchmark counts Euler steps).  At dt/eta = 0.05 the same states took
    up to 95 at N = 2 and 183 at N = 40."""

    @pytest.mark.parametrize("horizon, n_states, max_evals", [(2, 20, 48), (40, 6, 96)])
    def test_settles_within_budget(self, monkeypatch, horizon, n_states, max_evals):
        config = nm.ExperimentConfig.cart_pole_default(horizon=horizon)
        _, qp, data = nm.build_problem(config)
        calls = TestBenchmarkHooks.count_relu(monkeypatch)
        net = nm.FiringRateNetwork(data=data, eta=config.eta)
        for x, sol in input_bound_states(qp, n_states):
            net.reset()
            calls[0] = 0
            lam, settled = nm.settle(net, x, tol=config.settle_tol, max_time=config.ts)
            assert settled and calls[0] <= max_evals
            u = nm.extract_control(net, lam, x)
            assert np.max(np.abs(u - sol.u[: qp.upsilon_rows])) <= 1e-6


class TestSettle:
    def test_relaxed_settles_to_zero(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        relaxed = nm.NetworkData(
            gamma=data.gamma,
            m_map=data.m_map,
            bias=data.bias * 1e6,
            u_feedback=data.u_feedback,
            u_dual_map=data.u_dual_map,
        )
        net = nm.FiringRateNetwork(data=relaxed, eta=1e-3)
        lam, settled = nm.settle(net, np.array([0.3, 0, 0.15, 0]))
        assert settled and np.all(lam == 0.0)

    def test_one_dim_qp_dual(self):
        data = nm.build_network(one_dim_qp())
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        lam, settled = nm.settle(net, np.zeros(1), tol=1e-10, max_time=0.05)
        assert settled
        assert abs(lam[0] - 1.0) < 1e-8
        u = nm.extract_control(net, lam, np.zeros(1))
        assert abs(u[0] + 1.0) < 1e-8

    def test_duplicated_rows_reach_least_norm_dual(self):
        data = nm.build_network(duplicated_row_qp())
        net = nm.FiringRateNetwork(data=data, eta=1e-3, eps0=0.1)
        lam, _ = nm.settle(net, np.zeros(1), tol=1e-12, max_time=2.0)
        assert np.max(np.abs(lam - 0.5)) < 1e-4

    def test_cart_pole_equilibrium_matches_oracle_dual(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        sol = nm.solve_qp(qp, x0)
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        lam, settled = nm.settle(net, x0, tol=1e-10, max_time=0.2)
        assert settled
        u = primal_from_dual(qp, x0, lam)
        slack = qp.g_vec + qp.t_mat @ x0 - qp.g_mat @ u
        assert abs(lam @ slack) <= 1e-6
        assert np.max(np.abs(lam - sol.lam)) < 1e-6


class TestExtractControl:
    def test_zero_dual_gives_state_feedback(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        x0 = np.array([0.1, 0.0, 0.02, 0.0])
        u = nm.extract_control(net, np.zeros(data.size), x0)
        assert np.allclose(u, -data.u_feedback @ x0)

    def test_saturated_control_hits_bound(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        x0 = np.array([0.0, 0.0, 0.3, 0.0])
        sol = nm.solve_qp(qp, x0)
        assert min(abs(sol.u[0] + 10.0), abs(sol.u[0] - 12.0)) < 1e-9
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        lam, _ = nm.settle(net, x0, tol=1e-10, max_time=0.1)
        u = nm.extract_control(net, lam, x0)
        assert min(abs(u[0] + 10.0), abs(u[0] - 12.0)) < 1e-6


class TestMultilayer:
    def test_identity_factorization_trajectories_identical(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        single = nm.FiringRateNetwork(data=data, eta=1e-3)
        multi = nm.MultilayerNetwork(
            omega1=data.gamma.copy(),
            omega2=-data.u_dual_map.copy(),
            psi=np.eye(data.size),
            eta=1e-3,
        )
        dt = 5e-5
        for _ in range(400):
            nm.settle(single, x0, tol=1e-300, max_time=dt, dt=dt)
            nm.settle_multilayer(multi, data, x0, tol=1e-300, max_time=dt, dt=dt)
            assert np.max(np.abs(single.lam - multi.tilde_lam)) == 0.0

    def test_any_exact_factorization_matches_outputs(self, cart_pole_setup):
        # behavioral equivalence holds for every zero-residual factorization
        _, _, _, data = cart_pole_setup
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        rng = np.random.default_rng(7)
        psi = np.eye(data.size) + 0.1 * rng.normal(size=(data.size, data.size))
        omega = theta @ np.linalg.inv(psi)
        assert nm.factorization_residual(theta, omega, psi) <= 1e-10
        omega1, omega2 = nm.split_factors(omega, 1)

        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        single = nm.FiringRateNetwork(data=data, eta=1e-3)
        multi = nm.MultilayerNetwork(omega1=omega1, omega2=omega2, psi=psi, eta=1e-3)
        dt = 5e-5
        for _ in range(400):
            nm.settle(single, x0, tol=1e-300, max_time=dt, dt=dt)
            nm.settle_multilayer(multi, data, x0, tol=1e-300, max_time=dt, dt=dt)
            y_single = data.gamma @ single.lam
            y_multi = omega1 @ multi.tilde_lam
            u_single = -data.u_dual_map @ single.lam
            u_multi = omega2 @ multi.tilde_lam
            assert np.max(np.abs(y_single - y_multi)) < 1e-8
            assert np.max(np.abs(u_single - u_multi)) < 1e-8

    def test_settled_controls_match(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        theta = nm.stack_target(data.gamma, data.u_dual_map)
        omega0, psi0 = nm.identity_layer_init(data.gamma, data.u_dual_map)
        assert nm.factorization_residual(theta, omega0, psi0) <= 1e-8
        omega1, omega2 = nm.split_factors(omega0, 1)
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        single = nm.FiringRateNetwork(data=data, eta=1e-3)
        multi = nm.MultilayerNetwork(omega1=omega1, omega2=omega2, psi=psi0, eta=1e-3)
        lam, _ = nm.settle(single, x0, tol=1e-10, max_time=0.2)
        nm.settle_multilayer(multi, data, x0, tol=1e-10, max_time=0.2)
        u_single = nm.extract_control(single, lam, x0)
        u_multi = nm.extract_control_multilayer(multi, data, x0)
        assert np.max(np.abs(u_single - u_multi)) < 1e-6

    def test_hidden_state_may_go_negative(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        rng = np.random.default_rng(8)
        psi = np.eye(data.size) + 0.3 * rng.normal(size=(data.size, data.size))
        omega = nm.stack_target(data.gamma, data.u_dual_map) @ np.linalg.inv(psi)
        omega1, omega2 = nm.split_factors(omega, 1)
        multi = nm.MultilayerNetwork(omega1=omega1, omega2=omega2, psi=psi, eta=1e-3)
        nm.settle_multilayer(multi, data, np.array([0.3, 0, 0.15, 0]), max_time=0.05)
        assert np.min(multi.tilde_lam) < 0.0

    def test_factors_converted_to_arrays(self):
        multi = nm.MultilayerNetwork(omega1=[[1.0]], omega2=[[1.0]], psi=[[1.0]])
        for factor in (multi.omega1, multi.omega2, multi.psi):
            assert isinstance(factor, np.ndarray) and factor.dtype == float
        with pytest.raises(ValueError, match="omega2 must be 2-D"):
            nm.MultilayerNetwork(omega1=[[1.0]], omega2=[1.0], psi=[[1.0]])

    def test_psi_columns_must_match_omega1_rows(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        m = data.size
        with pytest.raises(ValueError, match=f"psi has {m + 1} columns but omega1 has {m} rows"):
            nm.MultilayerNetwork(omega1=data.gamma, omega2=-data.u_dual_map, psi=np.eye(m, m + 1))

    def test_aux_size_must_match_omega1_rows(self, cart_pole_setup, monkeypatch):
        config, _, qp, data = cart_pole_setup
        multi = nm.MultilayerNetwork(
            omega1=data.gamma, omega2=-data.u_dual_map, psi=np.eye(data.size)
        )
        sdata, _ = nm.augment_slack(qp, config.rho)
        with pytest.raises(ValueError, match=f"aux has {sdata.size} neurons but omega1 has 12 rows"):
            nm.settle_multilayer(multi, sdata, X0)
        assert nm.settle_multilayer(multi, data, X0, max_time=0.2)[1]
        # checked only when the kept step limits are refreshed for a new aux
        norm = np.linalg.norm
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        nm.settle_multilayer(multi, data, X0)
        assert calls[0] == 0


class TestStateLength:
    """A state of the wrong length raises a ValueError naming both sizes, at
    construction and when assigned before a settle."""

    def test_network_lam(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        with pytest.raises(ValueError, match="^lam has 5 entries but the network has 12 neurons$"):
            nm.FiringRateNetwork(data, lam=np.zeros(5))

    def test_multilayer_tilde_lam(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        with pytest.raises(
            ValueError, match="^tilde_lam has 3 entries but the network has 12 hidden units$"
        ):
            nm.MultilayerNetwork(
                omega1=data.gamma,
                omega2=-data.u_dual_map,
                psi=np.eye(data.size),
                tilde_lam=np.zeros(3),
            )

    def test_settle_assigned_lam(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        net = nm.FiringRateNetwork(data)
        net.lam = np.zeros(13)
        with pytest.raises(ValueError, match="^lam has 13 entries but the network has 12 neurons$"):
            nm.settle(net, X0)
        net.lam = np.zeros((12, 1))
        with pytest.raises(ValueError, match=r"^lam has shape \(12, 1\) but the network has 12"):
            nm.settle(net, X0)

    def test_settle_multilayer_assigned_tilde_lam(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        multi = nm.MultilayerNetwork(
            omega1=data.gamma, omega2=-data.u_dual_map, psi=np.eye(data.size)
        )
        multi.tilde_lam = np.zeros(11)
        with pytest.raises(
            ValueError, match="^tilde_lam has 11 entries but the network has 12 hidden units$"
        ):
            nm.settle_multilayer(multi, data, X0)


class TestInvariants:
    def test_orthant_forward_invariance(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        rng = np.random.default_rng(9)
        for _ in range(5):
            net = nm.FiringRateNetwork(
                data=data, eta=1e-3, lam=rng.uniform(0.0, 3.0, data.size)
            )
            x0 = rng.uniform(-0.5, 0.5, 4)
            dt = 5e-5
            _, _, _, traj = nm.settle(net, x0, tol=1e-300, max_time=200 * dt, dt=dt, record=True)
            assert np.min(traj) >= -1e-12

    def test_equilibrium_kkt_residuals(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        rng = np.random.default_rng(10)
        for _ in range(5):
            x0 = rng.uniform(-0.4, 0.4, 4)
            net = nm.FiringRateNetwork(data=data, eta=1e-3)
            lam, settled = nm.settle(net, x0, tol=1e-9, max_time=0.5)
            if not settled:
                continue
            u = primal_from_dual(qp, x0, lam)
            slack = qp.g_vec + qp.t_mat @ x0 - qp.g_mat @ u
            assert np.min(slack) >= -1e-6
            assert np.min(lam) >= -1e-12
            assert abs(lam @ slack) <= 1e-6

    def test_dual_objective_descends_along_settle(self, cart_pole_setup):
        _, _, qp, data = cart_pole_setup
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        _, _, _, traj = nm.settle(net, x0, tol=1e-12, max_time=0.02, record=True)
        objs = np.array([dual_objective(qp, x0, lam) for lam in traj])
        assert np.max(np.diff(objs)) <= 1e-8


class TestBenchmarkHooks:
    """The benchmark patches module-level names: it counts Euler steps through
    ``network.relu`` and times actions from ``harness.settle*`` to
    ``harness.extract_control*``."""

    @staticmethod
    def count_relu(monkeypatch):
        calls = [0]
        relu = nm.network.relu

        def counted(v):
            calls[0] += 1
            return relu(v)

        monkeypatch.setattr(nm.network, "relu", counted)
        return calls

    def test_relu_once_per_rate_evaluation(self, cart_pole_setup, monkeypatch):
        _, _, _, data = cart_pole_setup
        calls = self.count_relu(monkeypatch)
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        net = nm.FiringRateNetwork(data=data, eta=1e-3)
        _, settled, _, traj = nm.settle(net, x0, tol=1e-8, max_time=0.2, record=True)
        # steps taken, plus the evaluation that found the rate below tol
        assert settled and calls[0] == (len(traj) - 1) + 1
        calls[0] = 0
        dt = 1e-3 * nm.step_limits(net)[1]
        _, settled, _, traj = nm.settle(net, x0, tol=1e-300, max_time=100 * dt, record=True)
        assert not settled and calls[0] == len(traj) - 1 == 100

    def test_relu_once_per_multilayer_rate_evaluation(self, cart_pole_setup, monkeypatch):
        _, _, _, data = cart_pole_setup
        calls = self.count_relu(monkeypatch)
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        multi = nm.MultilayerNetwork(
            omega1=data.gamma, omega2=-data.u_dual_map, psi=np.eye(data.size), eta=1e-3
        )
        single = nm.FiringRateNetwork(data=data, eta=1e-3)
        _, settled, _, traj = nm.settle(single, x0, tol=1e-8, max_time=0.2, record=True)
        calls[0] = 0
        assert nm.settle_multilayer(multi, data, x0, tol=1e-8, max_time=0.2)[1]
        assert calls[0] == len(traj)
        calls[0] = 0
        dt = 1e-3 * nm.step_limits(multi, data)[1]
        assert not nm.settle_multilayer(multi, data, x0 + 0.1, tol=1e-300, max_time=100 * dt)[1]
        assert calls[0] == 100
        calls[0] = 0
        nm.settle(single, x0, tol=1e-300, max_time=5e-5, dt=5e-5)
        nm.settle_multilayer(multi, data, x0, tol=1e-300, max_time=5e-5, dt=5e-5)
        assert calls[0] == 2

    def test_settle_then_readout_once_per_action(self, monkeypatch):
        log = []

        def logged(name, fn):
            def wrapper(*args, **kwargs):
                log.append(name)
                return fn(*args, **kwargs)

            return wrapper

        hooks = ("settle", "settle_multilayer", "extract_control", "extract_control_multilayer")
        for name in hooks:
            monkeypatch.setattr(harness, name, logged(name, getattr(harness, name)))
        variants = ("oracle", "single_layer", "single_layer_eps", "multilayer_exact", "slack")
        config = nm.ExperimentConfig.cart_pole_default(duration=0.2, variants=variants)
        result = nm.run_experiment(config)
        n_samples = len(result.traces["oracle"].t)
        assert n_samples == 10
        actions = [("settle", "extract_control")] * n_samples * 2
        actions += [("settle_multilayer", "extract_control_multilayer")] * n_samples
        actions += [("settle", "extract_control")] * n_samples
        assert log == [name for pair in actions for name in pair]
