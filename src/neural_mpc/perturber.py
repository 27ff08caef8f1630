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


def check_contraction(w: np.ndarray) -> tuple[bool, float]:
    """Symmetric-part contraction test for  d(lam)/dt = -lam + relu(w lam + b).

    Computes the largest eigenvalue of (w + w')/2; the dynamics are certified
    contracting iff it is strictly below 1 (sufficient condition, sharp for
    symmetric w).  A symmetric w is its own symmetric part and is used as it
    is.  Returns (contracting, mu) with mu = max(eigenvalue, 0), the rate
    estimate used by the deviation bounds.
    """
    w = np.asarray(w, dtype=float)
    sym = w if np.array_equal(w, w.T) else 0.5 * (w + w.T)
    alpha_sym = float(np.max(np.linalg.eigvalsh(sym)))
    return alpha_sym < 1.0, max(alpha_sym, 0.0)


def prune_edges(gamma: np.ndarray, threshold: float, diag_shift: float) -> Perturbation:
    """Zero sub-threshold off-diagonal weights and shift the diagonal down.

    Returns delta = (pruned gamma - gamma) - diag_shift * I together with the
    contraction check of the perturbed matrix (carried in the result, never
    raised).  Raises ``ValueError`` for a negative threshold or a diag_shift
    that is not finite.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if not math.isfinite(diag_shift):
        raise ValueError(f"diag_shift must be finite, got {diag_shift}")
    gamma = np.asarray(gamma, dtype=float)
    pruned = np.where(np.abs(gamma) < threshold, 0.0, gamma)
    diag = np.diag_indices(gamma.shape[0])
    pruned[diag] = gamma[diag] - diag_shift
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
