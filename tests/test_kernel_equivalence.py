"""The shared Euler kernel against verbatim copies of the four loops it replaced.

``settle`` and ``settle_multilayer`` must return bitwise-equal states, flags,
times and trajectories.  The former one-step loops subtracted the input map
and the bias one after the other, where the kernel forms the input drive
once, so a settle's per-step states stay within rounding of theirs; a settle
of k steps ends bitwise where a longer one's trajectory is after k.  The
copied settle loops differ from the former ones only in their default step,
which is now taken from the spectrum of gamma (``default_dt``, computed here
on its own).  At N = 40 the kernel sums over firing neurons alone, in another
order, so there the copies are matched to rounding (``TestSparsePath``).
"""

import dataclasses

import numpy as np
import pytest

import neural_mpc as nm
from neural_mpc.harness import _factorize

from conftest import duplicated_row_qp, one_dim_qp


# --- reference loops, copied from the former network.py --------------------
# The two settle loops take the spectral default step and leave the step check
# (formerly dt/eta <= 0.5, which the default step exceeds where gamma = 0) to
# the package; tests/test_network.py covers it.  The loops are unchanged.


def relu(v):
    return np.maximum(v, 0.0)


def old_step_single_layer(net, x0, dt, t=0.0):
    if dt <= 0 or dt / net.eta > 0.5:
        raise ValueError(f"step size must satisfy 0 < dt/eta <= 0.5, got {dt / net.eta}")
    d = net.data
    drive = d.gamma @ net.lam - net.epsilon(t) * net.lam - d.m_map @ x0 - d.bias
    net.lam = net.lam + (dt / net.eta) * (-net.lam + relu(drive))
    return net.lam


def default_dt(eta, gamma, e):
    """eta times the default Euler step 2/(a + 1), a = max(1, 1 + e - lambda_min(gamma))."""
    a = max(1.0, 1.0 + e - np.linalg.eigvalsh(gamma)[0])
    return eta * (2.0 / (a + 1.0))


def old_settle(net, x0, tol=1e-8, max_time=0.02, dt=None, record=False):
    if tol <= 0:
        raise ValueError("tol must be positive")
    dt = default_dt(net.eta, net.data.gamma, net.eps0) if dt is None else dt
    d = net.data
    x0 = np.asarray(x0, dtype=float)
    bias_in = d.m_map @ x0 + d.bias
    gamma = d.gamma
    lam = net.lam
    step = dt / net.eta
    n_steps = max(1, int(round(max_time / dt)))
    settled = False
    times = [0.0] if record else None
    traj = [lam.copy()] if record else None
    t = 0.0
    for k in range(n_steps):
        eps = net.epsilon(t)
        rate = -lam + relu(gamma @ lam - eps * lam - bias_in)
        if np.max(np.abs(rate)) <= tol:
            settled = True
            break
        lam = lam + step * rate
        t = (k + 1) * dt
        if record:
            times.append(t)
            traj.append(lam.copy())
    net.lam = lam
    if record:
        return lam, settled, np.array(times), np.array(traj)
    return lam, settled


def old_step_multilayer(net, aux, x0, dt):
    if dt <= 0 or dt / net.eta > 0.5:
        raise ValueError(f"step size must satisfy 0 < dt/eta <= 0.5, got {dt / net.eta}")
    drive = net.omega1 @ net.tilde_lam - aux.m_map @ x0 - aux.bias
    net.tilde_lam = net.tilde_lam + (dt / net.eta) * (-net.tilde_lam + net.psi @ relu(drive))
    return net.tilde_lam


def old_settle_multilayer(net, aux, x0, tol=1e-8, max_time=0.02, dt=None):
    if tol <= 0:
        raise ValueError("tol must be positive")
    if dt is None:
        dt = default_dt(net.eta, aux.gamma, np.linalg.norm(net.omega1 @ net.psi - aux.gamma))
    x0 = np.asarray(x0, dtype=float)
    bias_in = aux.m_map @ x0 + aux.bias
    state = net.tilde_lam
    step = dt / net.eta
    n_steps = max(1, int(round(max_time / dt)))
    settled = False
    for _ in range(n_steps):
        rate = -state + net.psi @ relu(net.omega1 @ state - bias_in)
        if np.max(np.abs(rate)) <= tol:
            settled = True
            break
        state = state + step * rate
    net.tilde_lam = state
    return state, settled


# --- helpers -----------------------------------------------------------------


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_outcome(new, old):
    assert len(new) == len(old)
    for got, want in zip(new, old):
        if isinstance(want, (bool, np.bool_)):
            assert got is want
        else:
            assert_bitwise(got, want)


def states(n, seed=0):
    """The benchmark x0 and n draws from the cold-query box (some infeasible)."""
    rng = np.random.default_rng(seed)
    lo = np.array([-0.4, -1.0, -0.1, -1.0])
    hi = np.array([0.4, 1.0, 0.5, 1.0])
    return [np.array([0.3, 0.0, 0.15, 0.0])] + list(rng.uniform(lo, hi, size=(n, 4)))


def single_pair(data, eps0=0.0):
    return (
        nm.FiringRateNetwork(data=data, eta=1e-3, eps0=eps0),
        nm.FiringRateNetwork(data=data, eta=1e-3, eps0=eps0),
    )


def multi_pair(factors):
    def make():
        return nm.MultilayerNetwork(
            omega1=factors["omega1"], omega2=factors["omega2"], psi=factors["psi"], eta=1e-3
        )

    return make(), make()


def run_single(data, xs, warm, eps0=0.0, **kwargs):
    new, old = single_pair(data, eps0)
    for x in xs:
        if not warm:
            new.reset()
            old.reset()
        assert_same_outcome(nm.settle(new, x, **kwargs), old_settle(old, x, **kwargs))
        assert_bitwise(new.lam, old.lam)


def run_multi(factors, aux, xs, warm, **kwargs):
    new, old = multi_pair(factors)
    for x in xs:
        if not warm:
            new.reset()
            old.reset()
        assert_same_outcome(
            nm.settle_multilayer(new, aux, x, **kwargs),
            old_settle_multilayer(old, aux, x, **kwargs),
        )
        assert_bitwise(new.tilde_lam, old.tilde_lam)


@pytest.fixture(scope="module")
def factors(cart_pole_setup):
    config, _, _, data = cart_pole_setup
    return {
        "exact": _factorize(data, config.s_omega, config.s_psi),
        "approx": _factorize(data, config.s_omega_approx, config.s_psi_approx),
    }


def edge_network(rate0):
    """gamma = 0 and bias = -rate0: from lam = 0 the first rate is rate0 exactly."""
    m = len(rate0)
    return nm.NetworkData(
        gamma=np.zeros((m, m)),
        m_map=np.zeros((m, 1)),
        bias=-np.asarray(rate0, dtype=float),
        u_feedback=np.zeros((1, 1)),
        u_dual_map=np.zeros((1, m)),
    )


# --- settle / settle_multilayer: bitwise ------------------------------------


class TestSettleBitwise:
    @pytest.mark.parametrize("warm", [False, True])
    def test_cart_pole(self, cart_pole_setup, warm):
        _, _, _, data = cart_pole_setup
        run_single(data, states(12), warm)

    def test_cart_pole_warm_repeats(self, cart_pole_setup):
        # a warm re-settle at the same state stops after a step or two
        _, _, _, data = cart_pole_setup
        xs = [x for x in states(4) for _ in range(3)]
        run_single(data, xs, warm=True)

    @pytest.mark.parametrize("warm", [False, True])
    def test_vanishing_regularizer(self, cart_pole_setup, warm):
        config, _, _, data = cart_pole_setup
        run_single(data, states(6), warm, eps0=config.eps0)

    @pytest.mark.parametrize("eps0", [0.0, 0.1])
    def test_record(self, cart_pole_setup, eps0):
        _, _, _, data = cart_pole_setup
        run_single(data, states(4), warm=True, eps0=eps0, record=True)

    def test_tiny_tol_never_settles(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        run_single(data, states(2), warm=False, tol=1e-300, max_time=0.005, record=True)

    def test_tiny_tol_exact_zero_rate_settles(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        relaxed = nm.NetworkData(
            gamma=data.gamma,
            m_map=data.m_map,
            bias=data.bias * 1e6,
            u_feedback=data.u_feedback,
            u_dual_map=data.u_dual_map,
        )
        new, _ = single_pair(relaxed)
        assert nm.settle(new, states(0)[0], tol=1e-300)[1]
        run_single(relaxed, states(2), warm=False, tol=1e-300)

    def test_explicit_dt_and_budget(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        # dt/eta = 0.1, below the limit 0.10198 (the default step is 0.0970)
        run_single(data, states(3), warm=False, tol=1e-10, max_time=0.05, dt=1e-4, record=True)

    def test_slack_network(self, cart_pole_setup):
        config, _, qp, _ = cart_pole_setup
        sdata, _ = nm.augment_slack(qp, config.rho)
        assert sdata.size == 20
        for warm in (False, True):
            run_single(sdata, states(8), warm)

    def test_scalar_networks(self):
        one = nm.build_network(one_dim_qp())
        run_single(one, [np.zeros(1), np.ones(1)], warm=False, tol=1e-12, max_time=0.05)
        dup = nm.build_network(duplicated_row_qp())
        run_single(dup, [np.zeros(1)], warm=True, eps0=0.1, tol=1e-12, max_time=0.2, record=True)

    @pytest.mark.parametrize("key", ["exact", "approx"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_multilayer(self, cart_pole_setup, factors, key, warm):
        _, _, _, data = cart_pole_setup
        run_multi(factors[key], data, states(12), warm)

    def test_multilayer_tiny_tol(self, cart_pole_setup, factors):
        _, _, _, data = cart_pole_setup
        run_multi(factors["approx"], data, states(2), warm=False, tol=1e-300, max_time=0.005)


# numpy warns when rate . rate overflows; the rate then reads as not settled.
OVERFLOWS = pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")


class TestStopTest:
    """Rates at the stop rule's edge, where the squared-norm pre-filter must
    leave the answer to the sup-norm."""

    TOL = 1e-8
    ABOVE = np.nextafter(1e-8, 1.0)

    @pytest.mark.parametrize(
        "tol, rate0",
        [
            (TOL, [TOL] + [1e-20] * 11),
            (TOL, [ABOVE] + [1e-20] * 11),
            (TOL, [TOL] * 12),
            (TOL, [ABOVE] * 12),
            (TOL, [-TOL, TOL, 0.5 * TOL]),
            (1e-160, [1e-160] * 12),  # tol^2 is subnormal
            (1e-300, [1e-300, 5e-301]),  # tol^2 underflows to 0
            (1e-300, [2e-300]),
            pytest.param(1e155, [2e155], marks=OVERFLOWS),  # tol^2 and s overflow
            pytest.param(1e155, [1e155, -1e155], marks=OVERFLOWS),
        ],
    )
    def test_rate_at_tol(self, tol, rate0):
        data = edge_network(rate0)
        new, _ = single_pair(data)
        at_tol = bool(max(abs(r) for r in rate0) <= tol)
        assert nm.settle(new, np.zeros(1), tol=tol, max_time=5e-5)[1] is at_tol
        run_single(data, [np.zeros(1)], warm=False, tol=tol, record=True)
        eye = {"omega1": data.gamma, "omega2": data.u_dual_map, "psi": np.eye(len(rate0))}
        run_multi(eye, data, [np.zeros(1)], warm=False, tol=tol)

    def test_nan_rate_never_settles(self):
        data = edge_network([np.nan, 0.0])
        new, _ = single_pair(data)
        assert nm.settle(new, np.zeros(1), max_time=1e-4)[1] is False
        run_single(data, [np.zeros(1)], warm=False, max_time=1e-4)


# --- per-step states ---------------------------------------------------------
# One Euler step is a settle call with max_time = dt; tol = 1e-300 lets only an
# exactly zero rate stop it.


# The former steps subtracted m_map @ x0 and bias one after the other; the
# kernel subtracts their sum, which moves the drive by about an ulp per step.
ROUNDING = 64 * np.finfo(float).eps


class TestSteps:
    @pytest.mark.parametrize("eps0", [0.0, 0.1])
    def test_steps_reproduce_settle_trajectory(self, cart_pole_setup, eps0):
        _, _, _, data = cart_pole_setup
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        dt = default_dt(1e-3, data.gamma, eps0)
        stepped, settled = single_pair(data, eps0)
        _, _, _, traj = nm.settle(settled, x0, tol=1e-300, max_time=0.01, record=True)
        for k in range(1, len(traj)):
            stepped.reset()
            nm.settle(stepped, x0, tol=1e-300, max_time=k * dt, dt=dt)
            assert_bitwise(stepped.lam, traj[k])

    def test_multilayer_steps_reproduce_settle(self, cart_pole_setup, factors):
        _, _, _, data = cart_pole_setup
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        fac = factors["approx"]
        stepped, settled = multi_pair(fac)
        dt = default_dt(1e-3, data.gamma, np.linalg.norm(fac["omega1"] @ fac["psi"] - data.gamma))
        for n in range(1, 40):
            nm.settle_multilayer(stepped, data, x0, tol=1e-300, max_time=dt, dt=dt)
            settled.reset()
            nm.settle_multilayer(settled, data, x0, tol=1e-300, max_time=n * dt)
            assert_bitwise(stepped.tilde_lam, settled.tilde_lam)

    @pytest.mark.parametrize("eps0", [0.0, 0.1])
    def test_single_layer_steps_match_former_to_rounding(self, cart_pole_setup, eps0):
        _, _, _, data = cart_pole_setup
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        dt = 5e-5
        new, old = single_pair(data, eps0)
        _, _, _, traj = nm.settle(new, x0, tol=1e-300, max_time=400 * dt, dt=dt, record=True)
        assert len(traj) == 401
        for k in range(400):
            old_step_single_layer(old, x0, dt, t=k * dt)
            scale = 1.0 + np.max(np.abs(old.lam))
            assert np.max(np.abs(traj[k + 1] - old.lam)) <= ROUNDING * scale

    def test_multilayer_steps_match_former_to_rounding(self, cart_pole_setup, factors):
        _, _, _, data = cart_pole_setup
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        new, old = multi_pair(factors["approx"])
        for _ in range(400):
            nm.settle_multilayer(new, data, x0, tol=1e-300, max_time=5e-5, dt=5e-5)
            old_step_multilayer(old, data, x0, 5e-5)
            scale = 1.0 + np.max(np.abs(old.tilde_lam))
            assert np.max(np.abs(new.tilde_lam - old.tilde_lam)) <= ROUNDING * scale


# --- the sparse path at N = 40 -------------------------------------------------
# Networks of m >= 224 neurons of which few fire sum their products over the
# firing presynaptic neurons alone.  That sum runs in another order than the
# dense product, so their states agree with the dense reference loops to
# rounding, with the same flags and step counts; the N = 2 networks above
# never take it.

N40_ROUNDING = 1e-12


@pytest.fixture(scope="module")
def long_horizon():
    """The N = 40 networks (m = 240; 400 with slack) and warm-start states
    along the first 0.4 s of the oracle's closed loop from the benchmark x0."""
    config = nm.ExperimentConfig.cart_pole_default(horizon=40)
    _, qp, data = nm.build_problem(config)
    sdata, _ = nm.augment_slack(qp, config.rho)
    pert = nm.prune_edges(data.gamma, config.prune_threshold, config.prune_shift)
    pruned = dataclasses.replace(data, gamma=data.gamma + pert.delta)
    loop = nm.run_experiment(dataclasses.replace(config, variants=("oracle",), duration=0.4))
    return {
        "data": {"single": data, "slack": sdata, "pruned": pruned},
        "exact": _factorize(data, 480, 57_600),
        "xs": list(loop.traces["oracle"].x[:20]),
    }


def firing_counts(monkeypatch):
    """(firing count, m) of every product the kernel routes through ``_fired_dot``."""
    seen = []
    fired_dot = nm.network._fired_dot

    def spy(w, v):
        seen.append((np.count_nonzero(v), len(v)))
        return fired_dot(w, v)

    monkeypatch.setattr(nm.network, "_fired_dot", spy)
    return seen


def spy_euler(monkeypatch):
    """Whether each kernel call was handed a kept product."""
    handed = []
    euler = nm.network._euler

    def spy(*args):
        handed.append(args[-1] is not None)
        return euler(*args)

    monkeypatch.setattr(nm.network, "_euler", spy)
    return handed


def count_relu(monkeypatch):
    calls = [0]
    relu = nm.network.relu

    def counted(v):
        calls[0] += 1
        return relu(v)

    monkeypatch.setattr(nm.network, "relu", counted)
    return calls


def sparse_products(seen):
    return sum(nm.network._SPARSE_MAX_SHARE * k <= m for k, m in seen)


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= N40_ROUNDING * max(1.0, np.max(np.abs(want)))


def run_single_close(data, xs, warm, eps0=0.0):
    new, old = single_pair(data, eps0)
    for x in xs:
        if not warm:
            new.reset()
            old.reset()
        lam, settled, times, traj = nm.settle(new, x, record=True)
        lam_old, settled_old, times_old, traj_old = old_settle(old, x, record=True)
        assert settled is settled_old and len(times) == len(times_old)
        assert_close(traj, traj_old)
        assert_close(lam, lam_old)


class TestSparsePath:
    @pytest.mark.parametrize(
        "kind, eps0", [("single", 0.0), ("single", 0.1), ("slack", 0.0), ("pruned", 0.0)]
    )
    @pytest.mark.parametrize("warm", [False, True])
    def test_single_layer(self, long_horizon, monkeypatch, kind, eps0, warm):
        seen = firing_counts(monkeypatch)
        data = long_horizon["data"][kind]
        assert data.size >= nm.network._SPARSE_MIN_SIZE
        run_single_close(data, long_horizon["xs"] + states(3), warm, eps0=eps0)
        assert sparse_products(seen) > 0

    @pytest.mark.parametrize("warm", [False, True])
    def test_exact_multilayer(self, long_horizon, monkeypatch, warm):
        seen = firing_counts(monkeypatch)
        data = long_horizon["data"]["single"]
        steps = [0, 0]

        def counting(index, fn):
            def counted(v):
                steps[index] += 1
                return fn(v)

            return counted

        monkeypatch.setattr(nm.network, "relu", counting(0, nm.network.relu))
        monkeypatch.setitem(globals(), "relu", counting(1, relu))
        new, old = multi_pair(long_horizon["exact"])
        for x in long_horizon["xs"] + states(3):
            if not warm:
                new.reset()
                old.reset()
            got = nm.settle_multilayer(new, data, x)
            want = old_settle_multilayer(old, data, x)
            assert got[1] is want[1] and steps[0] == steps[1]
            assert_close(got[0], want[0])
        assert sparse_products(seen) > 0

    def test_cold_start_fires_nothing(self, long_horizon, monkeypatch):
        # from lam = 0 the first product reads an empty firing set
        seen = firing_counts(monkeypatch)
        data = long_horizon["data"]["single"]
        run_single_close(data, long_horizon["xs"][:1], warm=False)
        assert seen[0] == (0, data.size)
        new, old = single_pair(data)
        x = long_horizon["xs"][0]
        step = dict(tol=1e-300, max_time=1e-4, dt=1e-4)
        assert_same_outcome(nm.settle(new, x, **step), old_settle(old, x, **step))

    def test_dense_fallback(self, long_horizon, monkeypatch):
        # With more than m/32 neurons firing the product is the dense one, bit
        # for bit.  A neuron that has fired only decays geometrically, so all
        # 16 still fire when the settle ends.
        seen = firing_counts(monkeypatch)
        data = long_horizon["data"]["single"]
        lam0 = np.zeros(data.size)
        lam0[:: data.size // 16] = 0.5
        new, old = single_pair(data)
        new.lam, old.lam = lam0.copy(), lam0.copy()
        x = long_horizon["xs"][0]
        assert_same_outcome(nm.settle(new, x, record=True), old_settle(old, x, record=True))
        assert len(seen) > 1 and sparse_products(seen) == 0
        assert seen[0] == (16, data.size)

    def test_relu_once_per_evaluation(self, long_horizon, monkeypatch):
        seen = firing_counts(monkeypatch)
        calls = count_relu(monkeypatch)
        net = nm.FiringRateNetwork(data=long_horizon["data"]["slack"])
        # a call that starts from the state the last one returned settled
        # reuses that call's final product
        reused = False
        for x in long_horizon["xs"]:
            calls[0], before = 0, len(seen)
            _, settled, _, traj = nm.settle(net, x, record=True)
            assert calls[0] == (len(traj) - 1) + settled
            assert len(seen) - before == calls[0] - reused
            reused = settled
        assert sparse_products(seen) == len(seen)

    def test_small_networks_stay_dense(self, cart_pole_setup, monkeypatch):
        config, _, qp, data = cart_pole_setup
        seen = firing_counts(monkeypatch)
        sdata, _ = nm.augment_slack(qp, config.rho)
        for d in (data, sdata):
            assert d.size < nm.network._SPARSE_MIN_SIZE
            nm.settle(nm.FiringRateNetwork(data=d), states(0)[0])
        assert seen == []


# --- the kept product ----------------------------------------------------------
# A settle that ends settled keeps w @ state for the state it returns, and the
# next settle from that same state object and weight starts from it.  Handing
# each call a copy of the state defeats the reuse; both runs must agree bit for
# bit, relu calls included.


@pytest.fixture(scope="module", params=[2, 40])
def warm_networks(request):
    """Every network of one horizon and a warm closed-loop sequence of states:
    20 samples of the oracle's loop from the benchmark x0, then 3 jumps."""
    horizon = request.param
    config = nm.ExperimentConfig.cart_pole_default(horizon=horizon)
    _, qp, data = nm.build_problem(config)
    sdata, _ = nm.augment_slack(qp, config.rho)
    pert = nm.prune_edges(data.gamma, config.prune_threshold, config.prune_shift)
    exact = (config.s_omega, config.s_psi) if horizon == 2 else (480, 57_600)
    loop = nm.run_experiment(dataclasses.replace(config, variants=("oracle",), duration=0.4))
    return {
        "horizon": horizon,
        "data": {
            "single": data,
            "slack": sdata,
            "pruned": dataclasses.replace(data, gamma=data.gamma + pert.delta),
        },
        "exact": _factorize(data, *exact),
        "approx": _factorize(data, config.s_omega_approx, config.s_psi_approx),
        "xs": list(loop.traces["oracle"].x[:20]) + states(3),
    }


def make_network(nets, kind):
    """(network, settle call, state attribute) of one variant."""
    data = nets["data"]["single"]
    if kind in ("exact", "approx"):
        fac = nets[kind]
        net = nm.MultilayerNetwork(omega1=fac["omega1"], omega2=fac["omega2"], psi=fac["psi"])
        return net, lambda x: nm.settle_multilayer(net, data, x), "tilde_lam"
    eps0 = 0.1 if kind == "eps" else 0.0
    net = nm.FiringRateNetwork(data=nets["data"].get(kind, data), eps0=eps0)
    return net, lambda x: nm.settle(net, x, record=True), "lam"


def warm_run(nets, kind, copy, calls):
    """Outcome and relu count of each call of a warm sequence."""
    net, call, attr = make_network(nets, kind)
    out = []
    for x in nets["xs"]:
        if copy:
            setattr(net, attr, getattr(net, attr).copy())
        calls[0] = 0
        out.append((call(x), calls[0]))
    return out


class TestKeptProduct:
    @pytest.mark.parametrize("kind", ["single", "eps", "slack", "pruned", "exact", "approx"])
    def test_bitwise_against_recomputed(self, warm_networks, monkeypatch, kind):
        handed = spy_euler(monkeypatch)
        calls = count_relu(monkeypatch)
        kept = warm_run(warm_networks, kind, copy=False, calls=calls)
        assert any(handed)
        handed.clear()
        fresh = warm_run(warm_networks, kind, copy=True, calls=calls)
        assert not any(handed)
        for (got, got_calls), (want, want_calls) in zip(kept, fresh):
            assert_same_outcome(got, want)
            assert got_calls == want_calls

    def test_hits_and_misses(self, cart_pole_setup, factors, monkeypatch):
        _, _, _, data = cart_pole_setup
        handed = spy_euler(monkeypatch)
        x = states(0)[0]
        single = nm.FiringRateNetwork(data=data)
        multi, _ = multi_pair(factors["approx"])

        def settles(net, **kwargs):
            handed.clear()
            if isinstance(net, nm.FiringRateNetwork):
                ok = nm.settle(net, x, **kwargs)[1]
            else:
                ok = nm.settle_multilayer(net, data, x, **kwargs)[1]
            return handed[0], ok

        for net, attr in ((single, "lam"), (multi, "tilde_lam")):
            assert settles(net) == (False, True)
            assert settles(net) == (True, True)  # warm, settled: reused
            net.reset()
            assert settles(net) == (False, True)
            setattr(net, attr, getattr(net, attr).copy())
            assert settles(net) == (False, True)
            assert settles(net, tol=1e-300, max_time=1e-4) == (True, False)
            assert settles(net) == (False, True)  # after an unsettled return
        single.data = dataclasses.replace(data, gamma=data.gamma.copy())
        assert settles(single) == (False, True)
        multi.omega1 = multi.omega1.copy()
        assert settles(multi) == (False, True)

    def test_replaced_weight_is_used(self, cart_pole_setup, factors):
        # a stale product would drive the new network with the old weights
        _, _, _, data = cart_pole_setup
        x = states(0)[0]
        net = nm.FiringRateNetwork(data=data)
        nm.settle(net, x)
        net.data = dataclasses.replace(data, gamma=0.5 * data.gamma)
        want = nm.FiringRateNetwork(data=net.data, lam=net.lam)
        assert_same_outcome(nm.settle(net, x), nm.settle(want, x))
        fac = factors["approx"]
        multi, want = multi_pair(fac)
        nm.settle_multilayer(multi, data, x)
        multi.omega1 = want.omega1 = 0.5 * fac["omega1"]
        want.tilde_lam = multi.tilde_lam
        got = nm.settle_multilayer(multi, data, x)
        assert_same_outcome(got, nm.settle_multilayer(want, data, x))

    def test_stored_state_is_read_only(self, cart_pole_setup, factors):
        _, _, _, data = cart_pole_setup
        x = states(0)[0]
        single = nm.FiringRateNetwork(data=data)
        lam, _ = nm.settle(single, x)
        assert lam is single.lam
        with pytest.raises(ValueError):
            single.lam[0] = 1.0
        multi, _ = multi_pair(factors["exact"])
        nm.settle_multilayer(multi, data, x)
        with pytest.raises(ValueError):
            multi.tilde_lam[0] = 1.0
        # an unsettled return is read-only too
        nm.settle(single, x, tol=1e-300, max_time=1e-4)
        assert not single.lam.flags.writeable


# --- the synaptic maps ------------------------------------------------------------
# Each weight gets one map v -> w @ v, chosen once per weight object: a wire for
# an exact square identity, the fired-only sum for gamma or psi at m >= 224,
# else the dense w.dot.  I @ state adds only exact zeros, so forcing the dense
# product on a wire must give the same bits.


def synapses(net):
    """(pre, post) maps a network settles with."""
    if isinstance(net, nm.FiringRateNetwork):
        return nm.network._synapses(net, net.data.gamma, None)
    return nm.network._synapses(net, net.omega1, net.psi)


def map_kind(fn, w):
    """The kind of map ``fn`` ("wire", "fired" or "dense"), which must act by ``w``."""
    if fn is nm.network._identity:
        return "wire"
    if getattr(fn, "func", None) is nm.network._fired_dot:
        assert len(fn.args) == 1 and fn.args[0] is w
        return "fired"
    assert fn == w.dot  # a bound method equals another only on the same object
    return "dense"


class TestIdentityWire:
    def test_exact_factors_are_wired(self, warm_networks):
        # the kind every network picks: dense at N = 2, fired-only for the
        # rectified-reading weights at N = 40, a wire for the exact omega1
        far = "fired" if warm_networks["horizon"] == 40 else "dense"
        omega1 = warm_networks["exact"]["omega1"]
        assert np.array_equal(omega1, np.eye(len(omega1)))
        for kind in ("single", "slack", "pruned"):
            net, _, _ = make_network(warm_networks, kind)
            pre, post = synapses(net)
            assert (map_kind(pre, net.data.gamma), post) == (far, None)
        net, _, _ = make_network(warm_networks, "exact")
        pre, post = synapses(net)
        assert (map_kind(pre, net.omega1), map_kind(post, net.psi)) == ("wire", far)
        approx, _, _ = make_network(warm_networks, "approx")
        pre, post = synapses(approx)
        assert (map_kind(pre, approx.omega1), map_kind(post, approx.psi)) == ("dense", far)

    @pytest.mark.parametrize("warm", [False, True])
    def test_bitwise_against_dense_product(self, warm_networks, monkeypatch, warm):
        calls = count_relu(monkeypatch)
        data = warm_networks["data"]["single"]
        wired, _, _ = make_network(warm_networks, "exact")
        dense, _, _ = make_network(warm_networks, "exact")
        assert synapses(dense)[0] is nm.network._identity
        products = [0]

        def dense_product(v):
            products[0] += v.ndim == 1  # step_limits applies it to psi once
            return dense.omega1.dot(v)

        dense._maps = (dense.omega1, dense.psi, (dense_product, synapses(dense)[1]))
        settled, total = False, 0
        for x in warm_networks["xs"]:
            if not warm:
                wired.reset()
                dense.reset()
            calls[0] = 0
            got = nm.settle_multilayer(wired, data, x)
            got_calls, calls[0], products[0] = calls[0], 0, 0
            want = nm.settle_multilayer(dense, data, x)
            assert_same_outcome(got, want)
            assert got_calls == calls[0]
            # one omega1 product per evaluation, but the first of a warm
            # settle from a settled state, which reuses the kept product
            assert products[0] == calls[0] - (warm and settled)
            settled, total = want[1], total + products[0]
        assert total > 0

    def test_decided_per_omega1(self, cart_pole_setup):
        _, _, _, data = cart_pole_setup
        m = data.size
        net = nm.MultilayerNetwork(omega1=np.eye(m), omega2=-data.u_dual_map, psi=data.gamma)
        assert synapses(net)[0] is nm.network._identity
        net.omega1 = np.eye(m) + 1e-300
        assert map_kind(synapses(net)[0], net.omega1) == "dense"
        rect = nm.MultilayerNetwork(
            omega1=np.eye(m, m + 1), omega2=np.zeros((1, m + 1)), psi=np.eye(m + 1, m)
        )
        assert map_kind(synapses(rect)[0], rect.omega1) == "dense"

    def test_replaced_weight_gets_a_new_map(self, cart_pole_setup, factors):
        # kept while the weight objects stay, rebuilt for an equal copy
        _, _, _, data = cart_pole_setup
        x = states(0)[0]
        single = nm.FiringRateNetwork(data=data)
        multi, _ = multi_pair(factors["approx"])
        nm.settle(single, x)
        nm.settle_multilayer(multi, data, x)
        for net, attr in ((single, "data"), (multi, "omega1"), (multi, "psi")):
            maps = synapses(net)
            assert synapses(net) is maps
            old = getattr(net, attr)
            if attr == "data":
                setattr(net, attr, dataclasses.replace(old, gamma=old.gamma.copy()))
                weights = (net.data.gamma,)
            else:
                setattr(net, attr, old.copy())
                weights = (net.omega1, net.psi)
            new = synapses(net)
            assert new is not maps
            assert [map_kind(fn, w) for fn, w in zip(new, weights)] == ["dense"] * len(weights)
