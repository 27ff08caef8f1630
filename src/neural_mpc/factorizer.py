"""Sparsity-constrained matrix factorization for multilayer network synthesis.

Factorizes the stacked matrix theta = [gamma; -u_dual_map] into omega @ psi
under hard nonzero budgets on each factor, using proximal alternating
linearized minimization (PALM): alternating gradient steps on the squared
Frobenius residual, each followed by a hard-threshold projection onto the
nonzero budget.  Once a step leaves both supports unchanged, the next step
sweeps first from an inertially extrapolated point (iPALM, Pock & Sabach
2016), and keeps that sweep only when it keeps the supports and lowers the
residual; otherwise it takes the plain sweep and restarts the momentum
(O'Donoghue & Candes 2015).  A step thus runs one sweep, two only on a
restart.  The history holds one entry per kept step, and so do the step
counts reported from it.
A start that already fits both budgets with a residual at the rounding floor
(``FactorizationProblem.floor``) is returned as it is, since a sweep could
only add rounding noise to it; ``identity_layer_init``'s exact factors are
such a start whenever the budgets cover their nonzeros.  Any factorization
with zero residual yields a multilayer network whose input/output behavior
matches the single-layer network exactly.
"""

from __future__ import annotations

import math
import numbers
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
        Maximum number of nonzero entries kept in omega / psi, >= 1.
    beta1, beta2 : float
        Step-size safety multipliers, > 1.
    k_bar : int
        Cap on PALM steps, >= 1.

    The inner dimension (columns of omega, rows of psi) is theta's column count.
    """

    theta: np.ndarray
    s_omega: int
    s_psi: int
    beta1: float = 1.1
    beta2: float = 1.1
    k_bar: int = 100_000

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 2 or self.theta.size == 0:
            raise ValueError(f"theta must be a non-empty 2-D array, got shape {self.theta.shape}")
        if not np.isfinite(self.theta).all():
            raise ValueError("theta must be finite")
        for name in ("s_omega", "s_psi", "k_bar"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.beta1 <= 1 or self.beta2 <= 1:
            raise ValueError("beta1 and beta2 must exceed 1")

    @property
    def floor(self) -> float:
        """Rounding noise of the target, 64 eps ||theta||_F: a residual at or
        below it counts as exact, and PALM stops there."""
        return 64 * np.finfo(float).eps * np.linalg.norm(self.theta, "fro")


def _hard_threshold(mat: np.ndarray, s: int) -> np.ndarray:
    """Keep the s >= 0 largest-magnitude entries of a float array, zeroing the rest.

    Ties are broken by row-major scan order (earliest entries kept); returns
    ``mat`` itself when s >= its size.
    """
    if s >= mat.size:
        return mat
    flat = mat.ravel()
    keep = (-np.abs(flat)).argsort(kind="stable")[:s]
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


def _sweep(
    prob: FactorizationProblem, omega: np.ndarray, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """One PALM sweep from (omega, psi): (omega', psi', ||theta - omega' psi'||_F).

    A gradient step on omega with step 1/(beta1 ||psi psi'||_F), then hard
    thresholding to s_omega nonzeros, then the symmetric update of psi.  A
    floor of 1e-12 on the step denominators guards against a collapsed factor.
    Products are ndarray.dot, the BLAS call of ``@`` at less dispatch cost,
    and each Frobenius norm is sqrt(f . f) over the raveled array, as
    np.linalg.norm(., "fro") computes it, so the sweep rounds as written.
    """
    theta = prob.theta
    flat = psi.dot(psi.T).ravel("K")
    denom = max(math.sqrt(flat.dot(flat)), 1e-12)
    omega = _hard_threshold(
        omega - ((1.0 / (prob.beta1 * denom)) * (omega.dot(psi) - theta)).dot(psi.T),
        prob.s_omega,
    )
    flat = omega.T.dot(omega).ravel("K")
    denom = max(math.sqrt(flat.dot(flat)), 1e-12)
    psi = _hard_threshold(
        psi - ((1.0 / (prob.beta2 * denom)) * omega.T).dot(omega.dot(psi) - theta), prob.s_psi
    )
    flat = (omega.dot(psi) - theta).ravel("K")
    return omega, psi, math.sqrt(flat.dot(flat))


def palm_factorize(
    prob: FactorizationProblem,
    omega0: np.ndarray | None = None,
    psi0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run PALM with a monotone inertial step on a FactorizationProblem.

    Each step has the momentum a_k = (t_k - 1)/t_{k+1} of the FISTA sequence
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2, t_1 = 1.  While a_k = 0 the step is
    the plain sweep (``_sweep``) from the current iterate x, and t advances
    only if that sweep left the supports of both factors unchanged.  Once
    a_k > 0, the step first sweeps from the extrapolated point
    x + a_k (x - x_prev) (after iPALM, Pock & Sabach 2016) and keeps the
    result if it leaves both supports unchanged and its residual is strictly
    below x's; otherwise it takes the plain sweep from x and t restarts at 1.
    Supports are compared as the bytes of each iterate's boolean masks.  By
    default the iteration starts at the exact identity factorization
    omega = theta, psi = I (zero residual), so sparsification proceeds from
    an exact point.

    A start that has at most s_omega and s_psi nonzeros and a residual r0 at
    or below ``prob.floor`` is already a solution: it is returned unchanged
    (as copies) with history [r0], and no sweep runs.  Checking costs one
    product, omega0 @ psi0.

    Returns
    -------
    (omega, psi, residual_history)
        residual_history[i] is the Frobenius residual after kept step i (one
        entry per step, whichever sweep it kept), or [r0] alone for a start
        returned unchanged.  It is non-increasing up to 1e-12 slack, since
        an extrapolated sweep is kept only below the previous entry.
        Iteration stops at k_bar steps, when the relative residual change
        drops below 1e-10, or when the residual reaches rounding noise,
        ``prob.floor``; below that floor the change rule can fail forever as
        the residual alternates between noise values.
    """
    theta = prob.theta
    k = theta.shape[1]
    omega = theta.copy() if omega0 is None else np.asarray(omega0, dtype=float).copy()
    psi = np.eye(k) if psi0 is None else np.asarray(psi0, dtype=float).copy()
    if omega.shape != (theta.shape[0], k) or psi.shape != (k, theta.shape[1]):
        raise ValueError("initial factor shapes inconsistent with problem")

    floor = prob.floor
    if np.count_nonzero(omega) <= prob.s_omega and np.count_nonzero(psi) <= prob.s_psi:
        flat = (omega.dot(psi) - theta).ravel("K")
        res = math.sqrt(flat.dot(flat))
        if res <= floor:
            return omega, psi, np.array([res])
    history = []
    prev = None
    t = 1.0
    omega_prev, psi_prev = omega, psi
    supports = (omega != 0).tobytes(), (psi != 0).tobytes()
    for _ in range(prob.k_bar):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        a = (t - 1.0) / t_next
        advance = False
        if a > 0.0:
            new_omega, new_psi, res = _sweep(
                prob, omega + a * (omega - omega_prev), psi + a * (psi - psi_prev)
            )
            new_supports = (new_omega != 0).tobytes(), (new_psi != 0).tobytes()
            advance = res < prev and new_supports == supports
        if not advance:
            new_omega, new_psi, res = _sweep(prob, omega, psi)
            new_supports = (new_omega != 0).tobytes(), (new_psi != 0).tobytes()
            advance = a == 0.0 and new_supports == supports
        t = t_next if advance else 1.0
        omega_prev, psi_prev, omega, psi = omega, psi, new_omega, new_psi
        supports = new_supports
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
