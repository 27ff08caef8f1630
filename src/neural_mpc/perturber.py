"""Perturbed networks: edge pruning, contraction checks, deviation bounds.

A perturbation delta added to the synaptic matrix changes the network's
equilibria and hence the control it computes.  When the perturbed dynamics are
contracting, the deviation between the original and perturbed control actions
admits an explicit upper bound in terms of the perturbation, the drive
difference, and the contraction rate.  All bounds here use the identity metric:
a sufficient symmetric-part spectral test certifies contraction, and with the
Euclidean norm the maximization over activation slopes collapses onto the
undamped vector norm (||diag(d) v|| <= ||v|| for d in [0,1], equality at 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .condenser import NetworkData


@dataclass
class Perturbation:
    """A synaptic-weight perturbation and its contraction certificate.

    ``mu`` is the one-sided Lipschitz estimate for the perturbed activation map
    (identity metric); contraction of the perturbed dynamics requires mu < 1.
    """

    delta: np.ndarray
    mu: float
    contracting: bool
    metric: str = "identity"
    gamma_tol: float | None = None


def check_contraction(w: np.ndarray) -> tuple[bool, float]:
    """Symmetric-part contraction test for  d(lam)/dt = -lam + relu(w lam + b).

    Computes the largest eigenvalue of (w + w')/2; the dynamics are certified
    contracting iff it is strictly below 1 (sufficient condition, sharp for
    symmetric w).  Returns (contracting, mu) with mu = max(eigenvalue, 0),
    the rate estimate used by the deviation bounds.
    """
    w = np.asarray(w, dtype=float)
    alpha_sym = float(np.max(np.linalg.eigvalsh(0.5 * (w + w.T))))
    return alpha_sym < 1.0, max(alpha_sym, 0.0)


def prune_edges(gamma: np.ndarray, threshold: float, diag_shift: float) -> Perturbation:
    """Zero sub-threshold off-diagonal weights and shift the diagonal down.

    Returns delta = (pruned gamma - gamma) - diag_shift * I together with the
    contraction check of the perturbed matrix (carried in the result, never
    raised).
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    gamma = np.asarray(gamma, dtype=float)
    pruned = gamma.copy()
    off = ~np.eye(gamma.shape[0], dtype=bool)
    pruned[off & (np.abs(gamma) < threshold)] = 0.0
    pruned -= diag_shift * np.eye(gamma.shape[0])
    delta = pruned - gamma
    contracting, mu = check_contraction(gamma + delta)
    return Perturbation(delta=delta, mu=mu, contracting=contracting)


def forcing_term(
    m_map: np.ndarray,
    delta: np.ndarray,
    x0_1: np.ndarray,
    x0_2: np.ndarray,
    lambda1_traj: np.ndarray,
) -> float:
    """max over the recorded trajectory of ||m_map (x0_1 - x0_2) - delta lam1(t)||.

    The maximization over activation slopes in [0,1] is already absorbed: for
    the Euclidean norm the worst slope is 1.
    """
    lambda1_traj = np.atleast_2d(np.asarray(lambda1_traj, dtype=float))
    dx = np.asarray(x0_1, dtype=float) - np.asarray(x0_2, dtype=float)
    base = m_map @ dx
    diffs = base[None, :] - lambda1_traj @ delta.T
    # Each row's squared norm as a (1 x n)(n x 1) product, which numpy takes
    # with the dot kernel that np.linalg.norm applies to a vector, so delta = 0
    # reproduces ||m_map (x0_1 - x0_2)|| exactly.  sqrt is monotone and
    # correctly rounded, so it commutes with the max; a NaN row stays NaN.
    squares = np.matmul(diffs[:, None, :], diffs[:, :, None])
    return math.sqrt(squares.max())


def control_deviation_bound(
    data: NetworkData,
    delta: np.ndarray,
    x0_1: np.ndarray,
    x0_2: np.ndarray,
    lambda1_traj: np.ndarray,
    mu: float,
) -> float:
    """Upper bound on the deviation between original and perturbed controls.

        ||u1 - u2|| <= ||u_feedback (x0_1 - x0_2)||
                       + (||u_dual_map|| / (1 - mu)) * forcing

    where forcing maximizes ||m_map (x0_1 - x0_2) - delta lam1(t)|| over the
    recorded unperturbed trajectory.  Requires mu < 1 (perturbed dynamics
    contracting); matrix norms are spectral (identity metric).
    """
    if mu >= 1.0:
        raise ValueError(f"bound undefined for mu = {mu} >= 1")
    dx = np.asarray(x0_1, dtype=float) - np.asarray(x0_2, dtype=float)
    term_state = float(np.linalg.norm(data.u_feedback @ dx))
    gain = float(np.linalg.norm(data.u_dual_map, 2))
    return term_state + gain / (1.0 - mu) * forcing_term(
        data.m_map, delta, x0_1, x0_2, lambda1_traj
    )


def envelope_violation(
    times: np.ndarray,
    lambda1_traj: np.ndarray,
    lambda2_traj: np.ndarray,
    mu: float,
    forcing: float,
) -> float:
    """Worst excess of the measured dual difference over its decay envelope.

    Evaluates exp(-(1-mu) t) ||lam1(0) - lam2(0)||
    + ((1 - exp(-(1-mu) t)) / (1-mu)) * forcing on the common grid and returns
    max_t (||lam1(t) - lam2(t)|| - envelope(t)), which is <= 0 (up to
    integration tolerance) when the contraction certificate is valid.  ``times``
    must be in units of the network time constant, since the dynamics decay at
    rate (1 - mu) per time constant.
    """
    times = np.asarray(times, dtype=float)
    lambda1_traj = np.atleast_2d(np.asarray(lambda1_traj, dtype=float))
    lambda2_traj = np.atleast_2d(np.asarray(lambda2_traj, dtype=float))
    if lambda1_traj.shape != lambda2_traj.shape or len(times) != lambda1_traj.shape[0]:
        raise ValueError("trajectories must share one common time grid")
    diffs = np.linalg.norm(lambda1_traj - lambda2_traj, axis=1)
    rate = 1.0 - mu
    decay = np.exp(-rate * times)
    if rate == 0.0:
        growth = times
    else:
        growth = -np.expm1(-rate * times) / rate
    envelope = decay * diffs[0] + growth * forcing
    return float(np.max(diffs - envelope))


def redesign_sparse(gamma: np.ndarray, gamma_tol: float, tau: float) -> Perturbation:
    """Heuristic sparse redesign of a symmetric synaptic matrix.

    Soft-thresholds the off-diagonal entries at level tau (promoting sparsity
    of the redesigned matrix), symmetrizes, shifts the diagonal down just
    enough to certify contraction, then scales the perturbation back onto the
    ball ||delta||_2 <= gamma_tol if exceeded.  Because the symmetric-part
    abscissa is convex and the unperturbed matrix satisfies alpha <= 1, the
    scaled result stays contracting whenever gamma_tol > 0; gamma_tol = 0
    forces the zero perturbation.
    """
    if gamma_tol < 0 or tau < 0:
        raise ValueError("gamma_tol and tau must be nonnegative")
    gamma = np.asarray(gamma, dtype=float)
    if np.linalg.norm(gamma - gamma.T, "fro") > 1e-8 * max(1.0, np.linalg.norm(gamma, "fro")):
        raise ValueError("redesign_sparse expects a symmetric matrix")
    m = gamma.shape[0]
    w = gamma.copy()
    off = ~np.eye(m, dtype=bool)
    w[off] = np.sign(w[off]) * np.maximum(np.abs(w[off]) - tau, 0.0)
    w = 0.5 * (w + w.T)
    alpha_sym = float(np.max(np.linalg.eigvalsh(w)))
    shift = max(alpha_sym - 1.0 + 1e-6, 0.0)
    w -= shift * np.eye(m)
    delta = w - gamma
    norm = float(np.linalg.norm(delta, 2))
    if norm > gamma_tol:
        delta = delta * (gamma_tol / norm) if gamma_tol > 0 else np.zeros_like(delta)
    contracting, mu = check_contraction(gamma + delta)
    return Perturbation(delta=delta, mu=mu, contracting=contracting, gamma_tol=gamma_tol)
