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
``settle_multilayer`` loop it until quiescent, ``step_single_layer`` and
``step_multilayer`` take one step, and all four form the input drive
m_map @ x0 + bias once.  A network has settled when ||rate||_inf <= tol; the
squared norm rate . rate decides that alone unless it lies between tol^2 and
len(rate) tol^2.

The Euler step comes from the spectrum of gamma (``step_limits``).  Over every
activation pattern the Jacobian's eigenvalues are -1 (inactive units) and
-1 + eig(gamma_AA - eps) (active ones), which Cauchy interlacing puts at real
part >= -(1 + eps0 - lambda_min(gamma)); a multilayer network adds the disc of
radius e = ||omega1 psi - gamma||_F (Bauer-Fike).  With a = max(1, 1 + e -
lambda_min), every entry point requires 0 < dt/eta < 2/a, and settling defaults
to dt/eta = 2/(a + 1), which contracts the fastest mode and the decay of
inactive units by the same factor (a - 1)/(a + 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .condenser import NetworkData


def relu(v: np.ndarray) -> np.ndarray:
    """Elementwise max with zero."""
    return np.maximum(v, 0.0)


def _step_ratio(dt: float, eta: float, h_max: float) -> float:
    """Euler step per time constant, dt/eta; it must lie in (0, h_max)."""
    step = dt / eta
    if not 0.0 < step < h_max:
        raise ValueError(
            f"step size must satisfy 0 < dt/eta < {h_max!r}, the Euler stability "
            f"limit 2/max(1, 1 + e - lambda_min(gamma)); got dt/eta = {step}"
        )
    return step


def _budget(eta: float, tol: float, max_time: float, dt: float | None, limits):
    """Validated (dt, dt/eta, step count) of a settle call; dt defaults to
    eta times the network's default step ``limits[1]``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    h_max, h = limits
    dt = h * eta if dt is None else dt
    return dt, _step_ratio(dt, eta, h_max), max(1, int(round(max_time / dt)))


def step_limits(net, aux: NetworkData | None = None) -> tuple[float, float]:
    """Euler steps per time constant of a network: (limit, default) = (2/a, 2/(a + 1)).

    a = max(1, 1 + e - lambda_min(gamma)) bounds the decay rate of the
    Jacobian's fastest mode over every activation pattern, with e = eps0 for a
    ``FiringRateNetwork`` and e = ||omega1 psi - aux.gamma||_F for a
    ``MultilayerNetwork`` (``aux`` is the NetworkData it integrates against;
    e is kept for the last aux).  A step must lie below the limit; the default
    contracts the fastest mode and the decay of inactive units alike, by
    (a - 1)/(a + 1).
    """
    if isinstance(net, FiringRateNetwork):
        lambda_min, e = net.data.lambda_min, net.eps0
    else:
        if net._step_cache is None or net._step_cache[0] is not aux:
            net._step_cache = (aux, float(np.linalg.norm(net.omega1.dot(net.psi) - aux.gamma)))
        lambda_min, e = aux.lambda_min, net._step_cache[1]
    a = max(1.0, 1.0 + e - lambda_min)
    return 2.0 / a, 2.0 / (a + 1.0)


def _euler(w, psi, state, bias_in, step, n_steps, tol, eps=None, record=False):
    """Forward Euler on  d(state)/d(t/eta) = -state + psi relu(w state - eps_k state - bias_in).

    ``psi is None`` is the single layer (psi = I); ``eps`` maps the step index
    to the regularizer.  Each step evaluates the rate (one relu call) and stops
    before the update once ||rate||_inf <= tol.  Returns (state, settled, traj);
    ``traj`` lists the initial state and every stepped one when ``record``.
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
        drive = w.dot(state)
        if eps is not None:
            drive = drive - eps(k) * state
        rate = relu(drive - bias_in)
        if psi is not None:
            rate = psi.dot(rate)
        rate = rate - state
        s = rate.dot(rate)
        if s <= min_sq or (s <= max_sq and abs(rate).max() <= tol):
            return state, True, traj
        state = state + step * rate
        if record:
            traj.append(state)
    return state, False, traj


@dataclass
class FiringRateNetwork:
    """Single-layer firing-rate network with mutable state ``lam``.

    Its Euler step limits come from ``data.lambda_min`` and ``eps0``
    (``step_limits``).

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

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.eps0 < 0:
            raise ValueError("eps0 must be nonnegative")
        if self.lam is None:
            self.lam = np.zeros(self.data.size)
        else:
            self.lam = np.asarray(self.lam, dtype=float).copy()

    def reset(self):
        """Cold start: zero the firing rates."""
        self.lam = np.zeros(self.data.size)

    def epsilon(self, t: float) -> float:
        """Regularizer value at elapsed time t (seconds)."""
        return self.eps0 / (1.0 + t / self.eta)


def _bias_in(data: NetworkData, x0) -> np.ndarray:
    return data.m_map @ np.asarray(x0, dtype=float) + data.bias


def step_single_layer(
    net: FiringRateNetwork, x0: np.ndarray, dt: float, t: float = 0.0
) -> np.ndarray:
    """One forward-Euler step of the single-layer dynamics; returns updated lam.

    Requires dt/eta below the network's stability limit (``step_limits``).
    With lam >= 0 and dt <= eta the update is a convex combination of lam and
    a nonnegative term, so the nonnegative orthant is forward invariant.
    """
    step = _step_ratio(dt, net.eta, step_limits(net)[0])
    eps = (lambda k: net.epsilon(t)) if net.eps0 else None
    bias_in = _bias_in(net.data, x0)
    # tol = 0 skips the update only when the rate is exactly zero, a no-op.
    net.lam, _, _ = _euler(net.data.gamma, None, net.lam, bias_in, step, 1, 0.0, eps)
    return net.lam


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
    so max_time buys max_time / dt steps.

    Returns
    -------
    (lam, settled) or (lam, settled, times, traj) when ``record`` is True;
    ``times`` are in seconds and ``traj`` has one row of lam per step.
    """
    dt, step, n_steps = _budget(net.eta, tol, max_time, dt, step_limits(net))
    eps = (lambda k: net.epsilon(k * dt)) if net.eps0 else None
    lam, settled, traj = _euler(
        net.data.gamma, None, net.lam, _bias_in(net.data, x0), step, n_steps, tol, eps, record
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
    d = net.data
    return -d.u_dual_map @ lam - d.u_feedback @ np.asarray(x0, dtype=float)


@dataclass
class MultilayerNetwork:
    """Two-layer realization with hidden state ``tilde_lam`` (sign-unconstrained).

    Its Euler step limits read e = ||omega1 psi - aux.gamma||_F, computed on
    first use with a given ``aux`` and kept (``step_limits``), so the factors
    must not change after that.
    """

    omega1: np.ndarray
    omega2: np.ndarray
    psi: np.ndarray
    eta: float = 1e-3
    residual: float = 0.0
    tilde_lam: np.ndarray = field(default=None)  # type: ignore[assignment]
    _step_cache: tuple = field(default=None, init=False, repr=False, compare=False)  # (aux, e)

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        k = self.psi.shape[0]
        if self.omega1.shape[1] != k or self.omega2.shape[1] != k:
            raise ValueError("omega1/omega2 column counts must match psi rows")
        if self.tilde_lam is None:
            self.tilde_lam = np.zeros(k)
        else:
            self.tilde_lam = np.asarray(self.tilde_lam, dtype=float).copy()

    def reset(self):
        self.tilde_lam = np.zeros(self.psi.shape[0])


def step_multilayer(
    net: MultilayerNetwork, aux: NetworkData, x0: np.ndarray, dt: float
) -> np.ndarray:
    """One forward-Euler step of the multilayer dynamics; returns updated state."""
    step = _step_ratio(dt, net.eta, step_limits(net, aux)[0])
    bias_in = _bias_in(aux, x0)
    net.tilde_lam, _, _ = _euler(net.omega1, net.psi, net.tilde_lam, bias_in, step, 1, 0.0)
    return net.tilde_lam


def settle_multilayer(
    net: MultilayerNetwork,
    aux: NetworkData,
    x0: np.ndarray,
    tol: float = 1e-8,
    max_time: float = 0.02,
    dt: float | None = None,
):
    """Integrate the multilayer dynamics until quiescent; returns (state, settled)."""
    _, step, n_steps = _budget(net.eta, tol, max_time, dt, step_limits(net, aux))
    bias_in = _bias_in(aux, x0)
    state, settled, _ = _euler(net.omega1, net.psi, net.tilde_lam, bias_in, step, n_steps, tol)
    net.tilde_lam = state
    return state, settled


def extract_control_multilayer(
    net: MultilayerNetwork, aux: NetworkData, x0: np.ndarray
) -> np.ndarray:
    """Control read-out  u = omega2 @ tilde_lam - u_feedback @ x0."""
    return net.omega2 @ net.tilde_lam - aux.u_feedback @ np.asarray(x0, dtype=float)
