"""Sparsity-constrained matrix factorization for multilayer network synthesis.

Factorizes the stacked matrix theta = [gamma; -u_dual_map] into omega @ psi
under hard nonzero budgets on each factor, using proximal alternating
linearized minimization (PALM): alternating gradient steps on the squared
Frobenius residual, each followed by a hard-threshold projection onto the
nonzero budget.  Any factorization with zero residual yields a multilayer
network whose input/output behavior matches the single-layer network exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class FactorizationProblem:
    """Data for  min ||theta - omega @ psi||_F^2  s.t. nnz budgets on factors.

    Fields
    ------
    theta : ndarray, (m+p) x m
        Stacked target matrix.
    s_omega, s_psi : int
        Maximum number of nonzero entries kept in omega / psi.
    beta1, beta2 : float
        Step-size safety multipliers, > 1.
    k_bar : int
        Iteration cap.
    inner_dim : int or None
        Columns of omega (rows of psi); defaults to theta's column count.
    """

    theta: np.ndarray
    s_omega: int
    s_psi: int
    beta1: float = 1.1
    beta2: float = 1.1
    k_bar: int = 100_000
    inner_dim: int | None = None

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if not np.isfinite(self.theta).all():
            raise ValueError("theta must be finite")
        if self.s_omega < 1 or self.s_psi < 1:
            raise ValueError("sparsity budgets must be >= 1")
        if self.beta1 <= 1 or self.beta2 <= 1:
            raise ValueError("beta1 and beta2 must exceed 1")
        if self.inner_dim is None:
            self.inner_dim = self.theta.shape[1]


def hard_threshold(mat: np.ndarray, s: int) -> np.ndarray:
    """Keep the s largest-magnitude entries, zeroing the rest.

    Ties are broken by row-major scan order (earliest entries kept).
    """
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


def factorization_residual(theta: np.ndarray, omega: np.ndarray, psi: np.ndarray) -> float:
    """Frobenius norm of theta - omega @ psi."""
    theta = np.asarray(theta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if omega.shape[0] != theta.shape[0] or psi.shape[1] != theta.shape[1]:
        raise ValueError("factor shapes inconsistent with theta")
    if omega.shape[1] != psi.shape[0]:
        raise ValueError("omega columns must match psi rows")
    return float(np.linalg.norm(theta - omega @ psi, "fro"))


def _frobenius(mat: np.ndarray) -> float:
    """||mat||_F as np.linalg.norm(mat, "fro") computes it, without its wrapper."""
    flat = mat.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def palm_factorize(
    prob: FactorizationProblem,
    omega0: np.ndarray | None = None,
    psi0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run PALM on a FactorizationProblem.

    Each sweep takes a gradient step on omega with step 1/(beta1 ||psi psi'||_F)
    followed by hard thresholding to s_omega nonzeros, then the symmetric
    update for psi.  A floor of 1e-12 on the step denominators guards against a
    collapsed factor.  By default the iteration starts at the exact identity
    factorization omega = theta, psi = I (zero residual), so sparsification
    proceeds from an exact point; this requires inner_dim equal to theta's
    column count.

    Returns
    -------
    (omega, psi, residual_history)
        residual_history[i] is the Frobenius residual after sweep i; it is
        non-increasing up to 1e-12 slack.  Iteration stops at k_bar sweeps,
        when the relative residual change drops below 1e-10, or when the
        residual reaches rounding noise, 64 eps ||theta||_F; below that floor
        the change rule can fail forever as the residual alternates between
        noise values.
    """
    theta = prob.theta
    k = prob.inner_dim
    if omega0 is None or psi0 is None:
        if k != theta.shape[1]:
            raise ValueError(
                "default initialization requires inner_dim == theta column count; "
                "pass omega0 and psi0 explicitly"
            )
        omega = theta.copy() if omega0 is None else np.asarray(omega0, dtype=float).copy()
        psi = np.eye(k) if psi0 is None else np.asarray(psi0, dtype=float).copy()
    else:
        omega = np.asarray(omega0, dtype=float).copy()
        psi = np.asarray(psi0, dtype=float).copy()
    if omega.shape != (theta.shape[0], k) or psi.shape != (k, theta.shape[1]):
        raise ValueError("initial factor shapes inconsistent with problem")

    floor = 64 * np.finfo(float).eps * np.linalg.norm(theta, "fro")
    history = []
    prev = None
    r = omega @ psi - theta  # carried from each stop test into the next omega gradient
    for _ in range(prob.k_bar):
        denom = max(_frobenius(psi @ psi.T), 1e-12)
        omega = hard_threshold(
            omega - (1.0 / (prob.beta1 * denom)) * r @ psi.T, prob.s_omega
        )
        denom = max(_frobenius(omega.T @ omega), 1e-12)
        psi = hard_threshold(
            psi - (1.0 / (prob.beta2 * denom)) * omega.T @ (omega @ psi - theta),
            prob.s_psi,
        )
        r = omega @ psi - theta
        res = _frobenius(r)
        if not math.isfinite(res):
            raise FloatingPointError("PALM iterates diverged (non-finite residual)")
        history.append(res)
        if res <= floor:
            break
        if prev is not None and abs(res - prev) <= 1e-10 * max(prev, 1e-12):
            break
        prev = res
    return omega, psi, np.array(history)


def split_factors(omega: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Split the stacked factor into its synaptic block (top) and read-out block.

    The top m rows multiply the hidden state inside the activation; the bottom
    p rows form the control read-out.
    """
    omega = np.asarray(omega, dtype=float)
    if not 0 < p < omega.shape[0]:
        raise ValueError(f"p = {p} incompatible with {omega.shape[0]} rows")
    return omega[:-p], omega[-p:]


def stack_target(gamma: np.ndarray, u_dual_map: np.ndarray) -> np.ndarray:
    """Stacked factorization target [gamma; -u_dual_map]."""
    return np.vstack([gamma, -np.atleast_2d(u_dual_map)])


def identity_layer_init(
    gamma: np.ndarray, u_dual_map: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-residual factorization with an identity hidden layer.

    Returns (omega0, psi0) with omega0 = [I; -u_dual_map gamma^-1] and
    psi0 = gamma, so omega0 @ psi0 reproduces the stacked target exactly while
    the recurrent structure lives entirely in the second factor.  Starting PALM
    here keeps the hidden layer's off-diagonal weights at zero when the budgets
    allow it, instead of at the dense self-factorization.  Requires gamma to be
    invertible.
    """
    gamma = np.asarray(gamma, dtype=float)
    u_dual_map = np.atleast_2d(np.asarray(u_dual_map, dtype=float))
    omega2 = -np.linalg.solve(gamma.T, u_dual_map.T).T
    omega0 = np.vstack([np.eye(gamma.shape[0]), omega2])
    return omega0, gamma.copy()
