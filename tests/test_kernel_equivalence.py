"""The shared Euler kernel against verbatim copies of the four loops it replaced.

``settle`` and ``settle_multilayer`` must return bitwise-equal states, flags,
times and trajectories; the one-step functions now form the input drive once,
as ``settle`` does, so they must reproduce ``settle``'s trajectory bitwise and
stay within rounding of their former arithmetic.  The copied settle loops
differ from the former ones only in their default step, which is now taken
from the spectrum of gamma (``default_dt``, computed here on its own).
"""

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


# --- one-step functions -----------------------------------------------------


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
            nm.step_single_layer(stepped, x0, dt, t=(k - 1) * dt)
            assert_bitwise(stepped.lam, traj[k])

    def test_multilayer_steps_reproduce_settle(self, cart_pole_setup, factors):
        _, _, _, data = cart_pole_setup
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        fac = factors["approx"]
        stepped, settled = multi_pair(fac)
        dt = default_dt(1e-3, data.gamma, np.linalg.norm(fac["omega1"] @ fac["psi"] - data.gamma))
        for n in range(1, 40):
            nm.step_multilayer(stepped, data, x0, dt)
            settled.reset()
            nm.settle_multilayer(settled, data, x0, tol=1e-300, max_time=n * dt)
            assert_bitwise(stepped.tilde_lam, settled.tilde_lam)

    @pytest.mark.parametrize("eps0", [0.0, 0.1])
    def test_single_layer_steps_match_former_to_rounding(self, cart_pole_setup, eps0):
        _, _, _, data = cart_pole_setup
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        dt = 5e-5
        new, old = single_pair(data, eps0)
        for k in range(400):
            nm.step_single_layer(new, x0, dt, t=k * dt)
            old_step_single_layer(old, x0, dt, t=k * dt)
            scale = 1.0 + np.max(np.abs(old.lam))
            assert np.max(np.abs(new.lam - old.lam)) <= ROUNDING * scale

    def test_multilayer_steps_match_former_to_rounding(self, cart_pole_setup, factors):
        _, _, _, data = cart_pole_setup
        x0 = np.array([0.3, 0.0, 0.15, 0.0])
        new, old = multi_pair(factors["approx"])
        for _ in range(400):
            nm.step_multilayer(new, data, x0, 5e-5)
            old_step_multilayer(old, data, x0, 5e-5)
            scale = 1.0 + np.max(np.abs(old.tilde_lam))
            assert np.max(np.abs(new.tilde_lam - old.tilde_lam)) <= ROUNDING * scale
