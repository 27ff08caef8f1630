"""Firing-rate network dynamics: single-layer, regularized, and multilayer forms.

The single-layer network integrates

    eta * d(lam)/dt = -lam + relu(gamma @ lam - eps(t) * lam - m_map @ x0 - bias)

whose equilibria are dual solutions of the condensed QP; the first control
action is recovered as  u = -u_dual_map @ lam - u_feedback @ x0.  The
regularizer eps(t) = eps0 / (1 + t/eta) vanishes over time (non-increasing,
integral divergent, bounded derivative) and steers the state toward the
minimal-norm dual solution when eps0 > 0.  Time in the schedule is measured in
units of the network time constant eta.

The multilayer form evolves a hidden state with weights (omega1, omega2, psi)
obtained from factorizing the stacked matrix [gamma; -u_dual_map]; its hidden
state may be negative, so no orthant invariance is claimed for it.

One forward-Euler kernel, ``_euler``, runs both forms: ``settle`` and
``settle_multilayer`` loop it until quiescent, and both form the input drive
m_map @ x0 + bias once.  One Euler step is a call with max_time = dt.  A
network has settled when ||rate||_inf <= tol; the squared norm rate . rate
decides that alone unless it lies between tol^2 and len(rate) tol^2.

Each weight acts through one synaptic map v -> w @ v, chosen once per weight
object (``_synaptic_map``): the identity for an exact square identity (I @ v
adds only exact zeros); for gamma or psi, which read m >= 224 rectified
neurons, a sum over the firing ones alone whenever at most m/32 fire (silent
neurons send nothing; it runs in another order, so states may differ by
rounding); otherwise w.dot.  A settle that ends settled has applied the first
map to the state it returns, so the network keeps that product, keyed by the
state and map objects, for the next settle from the same state; anything else
(``reset()``, an assigned state, a replaced weight, an unsettled return)
recomputes it.  A stored state is read-only, so states, flags and step counts
stay bitwise those of computing every product.

The Euler step comes from the spectrum of gamma (``step_limits``).  Over every
activation pattern the Jacobian's eigenvalues are -1 (inactive units) and
-1 + eig(gamma_AA - eps) (active ones), which Cauchy interlacing puts at real
part >= -(1 + eps0 - lambda_min(gamma)); a multilayer network adds the disc of
radius e = ||omega1 psi - gamma||_F (Bauer-Fike).  With a = max(1, 1 + e -
lambda_min), both entry points require 0 < dt/eta < 2/a, and settling defaults
to dt/eta = 2/(a + 1), which contracts the fastest mode and the decay of
inactive units by the same factor (a - 1)/(a + 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .condenser import NetworkData


def relu(v: np.ndarray) -> np.ndarray:
    """Elementwise max with zero."""
    return np.maximum(v, 0.0)


def _check_size(name: str, state: np.ndarray, size: int, unit: str) -> None:
    """ValueError unless ``state`` is a vector of ``size`` entries."""
    if state.shape != (size,):
        got = f"{len(state)} entries" if state.ndim == 1 else f"shape {state.shape}"
        raise ValueError(f"{name} has {got} but the network has {size} {unit}")


def _budget(eta: float, tol: float, max_time: float, dt: float | None, limits):
    """Validated (dt, dt/eta, step count) of a settle call; tol must lie in
    (0, inf), dt defaults to eta times the network's default step
    ``limits[1]``, dt/eta must lie in (0, limits[0]), and max_time in (0, inf)."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    h_max, h = limits
    dt = h * eta if dt is None else dt
    step = dt / eta
    if not 0.0 < step < h_max:
        raise ValueError(
            f"step size must satisfy 0 < dt/eta < {h_max!r}, the Euler stability "
            f"limit 2/max(1, 1 + e - lambda_min(gamma)); got dt/eta = {step}"
        )
    if not 0.0 < max_time < np.inf:
        raise ValueError(f"max_time must be positive and finite, got {max_time}")
    return dt, step, max(1, int(round(max_time / dt)))


def step_limits(net, aux: NetworkData | None = None) -> tuple[float, float]:
    """Euler steps per time constant of a network: (limit, default) = (2/a, 2/(a + 1)).

    a = max(1, 1 + e - lambda_min(gamma)) bounds the decay rate of the
    Jacobian's fastest mode over every activation pattern, with e = eps0 for a
    ``FiringRateNetwork`` and e = ||omega1 psi - aux.gamma||_F for a
    ``MultilayerNetwork`` (``aux`` is the NetworkData it integrates against;
    e is kept per aux and factor objects, and omega1's map gives omega1 psi).
    A step must lie below the limit; the default contracts the fastest mode
    and the decay of inactive units alike, by (a - 1)/(a + 1).
    """
    if isinstance(net, FiringRateNetwork):
        lambda_min, e = net.data.lambda_min, net.eps0
    else:
        kept = net._step_cache
        fresh = kept is None or kept[0] is not aux
        if fresh or kept[1] is not net.omega1 or kept[2] is not net.psi:
            if aux.size != net.omega1.shape[0]:
                raise ValueError(
                    f"aux has {aux.size} neurons but omega1 has {net.omega1.shape[0]} rows"
                )
            pre, _ = _synapses(net, net.omega1, net.psi)
            e = float(np.linalg.norm(pre(net.psi) - aux.gamma))
            net._step_cache = kept = (aux, net.omega1, net.psi, e)
        lambda_min, e = aux.lambda_min, kept[3]
    a = max(1.0, 1.0 + e - lambda_min)
    return 2.0 / a, 2.0 / (a + 1.0)


# Fired-only products: a weight reading m rectified neurons takes them when
# m >= _SPARSE_MIN_SIZE and _SPARSE_MAX_SHARE * (firing count) <= m.  Measured
# with OpenBLAS at 2 threads on a 2-core Xeon, the sparse product (nonzero,
# column gather, product) against the dense m x m one: at m <= 160 it did not
# win even with one neuron firing (time ratio 0.9-1.5), at m = 208 it broke
# even; at m = 224-256 it took 0.6-1.0 of the dense time with up to m/32
# firing, 0.9-1.3 with m/16; at m = 400, 0.3-0.6 with m/32.  At N = 40 (m =
# 240, 400 with slack) a warm network fires 2 neurons per evaluation.
_SPARSE_MIN_SIZE = 224
_SPARSE_MAX_SHARE = 32


def _fired_dot(w, v):
    """w @ v, summed over the nonzero entries of v alone when at most
    len(v) / _SPARSE_MAX_SHARE of them are nonzero."""
    on = v.nonzero()[0]
    if _SPARSE_MAX_SHARE * len(on) <= len(v):
        return w[:, on].dot(v[on])
    return w.dot(v)


# The wire v -> v: np.asarray returns a float array itself, without a Python frame.
_identity = np.asarray


def _synaptic_map(w, fired):
    """v -> w @ v: the identity when w is exactly the square identity, the
    fired-only sum when w reads rectified neurons (``fired``) and has at least
    ``_SPARSE_MIN_SIZE`` columns, else the bound method ``w.dot``."""
    m, n = w.shape
    if m == n and np.count_nonzero(w) == n and (w.diagonal() == 1).all():
        return _identity
    if fired and n >= _SPARSE_MIN_SIZE:
        return partial(_fired_dot, w)
    return w.dot


def _synapses(net, w, psi):
    """Maps (pre, post) of weights w and psi (None: single layer), kept per
    pair of weight objects.  A multilayer's first layer reads a signed state."""
    maps = net._maps
    if maps is None or maps[0] is not w or maps[1] is not psi:
        post = None if psi is None else _synaptic_map(psi, True)
        net._maps = maps = (w, psi, (_synaptic_map(w, psi is None), post))
    return maps[2]


def _euler(pre, post, state, bias_in, step, n_steps, tol, eps=None, record=False, product=None):
    """Forward Euler on  d(state)/d(t/eta) = -state + post relu(pre state - eps_k state - bias_in).

    ``pre`` and ``post`` are synaptic maps (``_synaptic_map``), and ``post is
    None`` is the single layer (post = I); ``eps`` maps the step index to the
    regularizer.  ``product`` is pre(state) for the initial state when the
    caller already has it.  Each step evaluates the rate (one relu call) and
    stops before the update once ||rate||_inf <= tol.  Returns (state, settled,
    traj, product): ``traj`` lists the initial state and every stepped one when
    ``record``, and ``product`` is pre(state) of the returned state when
    settled, None when the budget ran out.
    """
    # The squared norm s = rate . rate settles a rate when s <= tol^2 and rules
    # settling out when s > n tol^2; only in between is the sup-norm taken.
    # The margins cover the rounding of s.  Outside 1e-300 < tol^2 < 1e300 only
    # the upper test runs; it stays exact there, since tol^2 rounds monotonically
    # and an infinite bound defers to the sup-norm.
    tol2 = tol * tol
    min_sq = tol2 * (1.0 - 1e-9) if 1e-300 < tol2 < 1e300 else -1.0
    max_sq = len(state) * tol2 * (1.0 + 1e-9)
    traj = [state] if record else None
    for k in range(n_steps):
        if product is None:
            product = pre(state)
        drive = product if eps is None else product - eps(k) * state
        rate = relu(drive - bias_in)
        if post is not None:
            rate = post(rate)
        rate = rate - state
        s = rate.dot(rate)
        if s <= min_sq or (s <= max_sq and abs(rate).max() <= tol):
            return state, True, traj, product
        state = state + step * rate
        product = None
        if record:
            traj.append(state)
    return state, False, traj, None


def _resume(net, w, psi, state, bias_in, step, n_steps, tol, eps=None, record=False):
    """``_euler`` on the maps of w and psi from ``state``, reusing the product
    pre(state) the last settle kept if it ended settled on this state and map.
    Marks the returned state read-only and keeps its product (if settled) in
    ``net._kept``; returns (state, settled, traj)."""
    pre, post = _synapses(net, w, psi)
    kept = net._kept
    hit = kept is not None and kept[0] is state and kept[1] is pre
    new, settled, traj, product = _euler(
        pre, post, state, bias_in, step, n_steps, tol, eps, record, kept[2] if hit else None
    )
    # Settled at once from a kept state: that state is read-only and its entry
    # still holds (marking an array read-only costs about a 12 x 12 product).
    if not (hit and new is state):
        new.flags.writeable = False
        net._kept = None if product is None else (new, pre, product)
    return new, settled, traj


@dataclass
class FiringRateNetwork:
    """Single-layer firing-rate network with mutable state ``lam``.

    Its Euler step limits come from ``data.lambda_min`` and ``eps0``
    (``step_limits``).  ``settle`` stores a read-only ``lam``; assign a new
    array of ``data.size`` entries to change it (any other length raises
    ``ValueError`` at construction or at the next ``settle``).

    Parameters
    ----------
    data : NetworkData
        Synaptic matrix, input map, bias and control read-out maps (may be the
        slack-augmented variant).
    eta : float
        Network time constant in seconds.
    eps0 : float
        Initial value of the vanishing regularizer; 0 disables it.
    """

    data: NetworkData
    eta: float = 1e-3
    eps0: float = 0.0
    lam: np.ndarray = field(default=None)  # type: ignore[assignment]
    # (gamma, None, maps) and (lam, gamma's map, gamma @ lam) after a settled settle
    _maps: tuple = field(default=None, init=False, repr=False, compare=False)
    _kept: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 0 <= self.eps0 < np.inf:
            raise ValueError(f"eps0 must be nonnegative and finite, got {self.eps0}")
        if self.lam is None:
            self.lam = np.zeros(self.data.size)
        else:
            self.lam = np.asarray(self.lam, dtype=float).copy()
            _check_size("lam", self.lam, self.data.size, "neurons")

    def reset(self):
        """Cold start: zero the firing rates."""
        self.lam = np.zeros(self.data.size)

    def epsilon(self, t: float) -> float:
        """Regularizer value at elapsed time t (seconds)."""
        return self.eps0 / (1.0 + t / self.eta)


def _bias_in(data: NetworkData, x0) -> np.ndarray:
    return data.m_map.dot(np.asarray(x0, dtype=float)) + data.bias


def settle(
    net: FiringRateNetwork,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_time: float = 0.02,
    dt: float | None = None,
    record: bool = False,
):
    """Integrate until the update rate is below tol or max_time elapses.

    The stopping metric is the sup-norm of the state update rate measured per
    time constant, ||-lam + relu(drive)||_inf; with a vanishing regularizer the
    equilibrium drifts, so the flag may stay False even near convergence.

    ``dt`` defaults to eta times the network's default step (``step_limits``),
    so max_time buys max_time / dt steps; max_time = dt takes one step.  With
    lam >= 0 and dt <= eta each step is a convex combination of lam and a
    nonnegative term, so the nonnegative orthant is forward invariant.

    Returns
    -------
    (lam, settled) or (lam, settled, times, traj) when ``record`` is True;
    ``times`` are in seconds and ``traj`` has one row of lam per step.
    """
    _check_size("lam", net.lam, net.data.size, "neurons")
    dt, step, n_steps = _budget(net.eta, tol, max_time, dt, step_limits(net))
    eps = (lambda k: net.epsilon(k * dt)) if net.eps0 else None
    lam, settled, traj = _resume(
        net, net.data.gamma, None, net.lam, _bias_in(net.data, x0), step, n_steps, tol, eps, record
    )
    net.lam = lam
    if record:
        return lam, settled, np.arange(len(traj)) * dt, np.array(traj)
    return lam, settled


def extract_control(net: FiringRateNetwork, lam: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """First control action  u = -u_dual_map @ lam - u_feedback @ x0.

    The state-feedback term is computable with lam = 0, preserving the split
    into an offline unconstrained feedback and the online network correction.
    """
    # Negation is exact, so this equals (-u_dual_map) @ lam - u_feedback @ x0.
    d = net.data
    return -(d.u_dual_map.dot(lam) + d.u_feedback.dot(np.asarray(x0, dtype=float)))


@dataclass
class MultilayerNetwork:
    """Two-layer realization with hidden state ``tilde_lam`` (sign-unconstrained).

    Its synaptic maps are chosen once per pair of omega1 and psi objects, and
    its Euler step limits read e = ||omega1 psi - aux.gamma||_F, kept per
    ``aux`` and maps (``step_limits``): replace the factors, never edit them.
    ``settle_multilayer`` stores a read-only ``tilde_lam``; assign a new array
    of ``psi.shape[0]`` entries to change it (any other length raises
    ``ValueError`` at construction or at the next ``settle_multilayer``).
    """

    omega1: np.ndarray
    omega2: np.ndarray
    psi: np.ndarray
    eta: float = 1e-3
    residual: float = 0.0
    tilde_lam: np.ndarray = field(default=None)  # type: ignore[assignment]
    # (omega1, psi, (their maps)), (aux, maps, e) and (state, omega1's map, product)
    _maps: tuple = field(default=None, init=False, repr=False, compare=False)
    _step_cache: tuple = field(default=None, init=False, repr=False, compare=False)
    _kept: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        for name in ("omega1", "omega2", "psi"):
            factor = np.asarray(getattr(self, name), dtype=float)
            if factor.ndim != 2:
                raise ValueError(f"{name} must be 2-D, got shape {factor.shape}")
            setattr(self, name, factor)
        k = self.psi.shape[0]
        if self.omega1.shape[1] != k or self.omega2.shape[1] != k:
            raise ValueError("omega1/omega2 column counts must match psi rows")
        if self.psi.shape[1] != self.omega1.shape[0]:
            raise ValueError(
                f"psi has {self.psi.shape[1]} columns but omega1 has {self.omega1.shape[0]} rows"
            )
        if self.tilde_lam is None:
            self.tilde_lam = np.zeros(k)
        else:
            self.tilde_lam = np.asarray(self.tilde_lam, dtype=float).copy()
            _check_size("tilde_lam", self.tilde_lam, k, "hidden units")

    def reset(self):
        self.tilde_lam = np.zeros(self.psi.shape[0])


def settle_multilayer(
    net: MultilayerNetwork,
    aux: NetworkData,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_time: float = 0.02,
    dt: float | None = None,
):
    """Integrate the multilayer dynamics until quiescent; returns (state, settled).

    ``aux`` must have as many neurons as omega1 has rows (``ValueError``)."""
    _check_size("tilde_lam", net.tilde_lam, net.psi.shape[0], "hidden units")
    _, step, n_steps = _budget(net.eta, tol, max_time, dt, step_limits(net, aux))
    bias_in = _bias_in(aux, x0)
    state, settled, _ = _resume(
        net, net.omega1, net.psi, net.tilde_lam, bias_in, step, n_steps, tol
    )
    net.tilde_lam = state
    return state, settled


def extract_control_multilayer(
    net: MultilayerNetwork, aux: NetworkData, x0: np.ndarray
) -> np.ndarray:
    """Control read-out  u = omega2 @ tilde_lam - u_feedback @ x0."""
    return net.omega2.dot(net.tilde_lam) - aux.u_feedback.dot(np.asarray(x0, dtype=float))
