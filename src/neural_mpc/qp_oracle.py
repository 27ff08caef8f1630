"""Exact reference solvers for the condensed QP.

``solve_qp`` is the trust anchor for every equivalence check in the package:
it writes the QP as a least-distance problem and solves that with one
Lawson-Hanson NNLS call, which terminates finitely at any horizon, and refuses
any answer that fails its own KKT check; a second such solve picks the
minimal-norm dual when the active rows are rank-deficient.  The brute-force
active-set enumeration, which visits every candidate active set (m <= 24),
cross-checks it in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import nnls

from .condenser import CondensedQp


class InfeasibleProblem(Exception):
    """Raised when the constraints admit no primal-feasible point."""


class KktCheckError(RuntimeError):
    """Raised when a solver's answer fails its KKT check."""


@dataclass
class QpSolution:
    """Primal/dual optimum of the condensed QP at a given initial state."""

    u: np.ndarray
    lam: np.ndarray
    active: tuple[int, ...]
    objective: float


def _objective(qp: CondensedQp, x0: np.ndarray, u: np.ndarray) -> float:
    return float(0.5 * u @ qp.h @ u + x0 @ qp.s.T @ u)


def solve_qp(qp: CondensedQp, x0: np.ndarray, tol: float = 1e-9) -> QpSolution:
    """Solve the condensed QP exactly by NNLS on its least-distance form.

    With H = L L' (``qp.factor``) and v = L'u + L^-1 S x0 the QP becomes
    min 1/2 ||v||^2 s.t. E v <= f, with E = G L^-T = W_G' and
    f = g + T x0 + G H^-1 S x0, which ``_least_distance`` solves; then
    u = -H^-1 S x0 + L^-T v.  Among multiple optimal dual vectors the
    minimal-Euclidean-norm one is returned (``_minimal_norm_dual``).

    Raises
    ------
    InfeasibleProblem
        If no u satisfies all constraints.
    KktCheckError
        If the answer misses primal feasibility, dual sign, stationarity or
        complementarity by more than ``tol`` (scaled to the data).
    """
    x0 = np.asarray(x0, dtype=float)
    low, w_g, w_s = qp.factor
    c_vec = w_s @ x0  # L^-1 S x0
    w_vec = qp.g_vec + qp.t_mat @ x0
    found = _least_distance(w_g.T, w_vec + w_g.T @ c_vec)
    if found is None:
        raise InfeasibleProblem("least-distance problem has no solution; QP is infeasible")
    v, lam = found
    u = np.linalg.solve(low.T, v - c_vec)
    slack = w_vec - qp.g_mat @ u
    lam = _minimal_norm_dual(qp, x0, u, lam, slack, tol)
    active = tuple(np.flatnonzero(lam > tol).tolist())
    sol = QpSolution(u=u, lam=lam, active=active, objective=_objective(qp, x0, u))
    _check_kkt(qp, x0, sol, w_vec, slack, tol)
    return sol


def _least_distance(e: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve min ||v|| s.t. e v <= f; return (v, multipliers), or None if infeasible.

    One NNLS solve y = argmin_{y >= 0} ||[-e'; -f'] y - e_{n+1}|| with
    residual r gives v = -r[:n] / r[n] and the multipliers y / (1 + f'y)
    (Lawson & Hanson, *Solving Least Squares Problems*, 1974, ch. 23).  It
    terminates finitely, and a vanishing residual certifies that no v
    satisfies the rows.
    """
    n = e.shape[1]
    if f.size == 0:  # no rows; nnls would abort on a matrix without columns
        return np.zeros(n), np.zeros(0)
    mat = np.vstack([-e.T, -f])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    y, rnorm = nnls(mat, rhs)
    resid = mat @ y - rhs
    if rnorm <= 1e-12 or resid[n] >= 0.0:
        return None
    return -resid[:n] / resid[n], y / -resid[n]


def _check_kkt(qp, x0, sol: QpSolution, w_vec, slack, tol: float) -> None:
    """Raise KktCheckError unless (u, lam) is optimal to within ``tol``.

    Each component is scaled by the magnitudes of the terms it sums, so the
    test does not depend on the units of the rows.
    """
    u, lam = sol.u, sol.lam
    sx0 = qp.s @ x0
    grad = qp.h @ u + sx0 + qp.g_mat.T @ lam
    grad_scale = 1.0 + np.abs(qp.h) @ np.abs(u) + np.abs(sx0) + np.abs(qp.g_mat.T) @ lam
    con_scale = 1.0 + np.abs(w_vec) + np.abs(qp.g_mat) @ np.abs(u)
    residuals = {
        "stationarity": (np.abs(grad) / grad_scale).max(),
        "feasibility": (-slack / con_scale).max(initial=0.0),
        "dual_sign": -lam.min(initial=0.0),
        "complementarity": (lam / (1.0 + lam) * np.abs(slack) / con_scale).max(initial=0.0),
    }
    failed = {k: float(r) for k, r in residuals.items() if r > tol}
    if failed:
        raise KktCheckError(f"QP solution failed its KKT check: {failed}")


def solve_active_set_enumeration(
    qp: CondensedQp, x0: np.ndarray, tol: float = 1e-9
) -> QpSolution:
    """Solve the condensed QP by enumerating candidate active sets.

    Candidate sets larger than the number of decision variables have
    rank-deficient constraint gradients and a singular KKT matrix, so they are
    skipped; singular KKT systems for smaller sets are skipped as well.  Among
    multiple optimal dual vectors the minimal-Euclidean-norm one is returned
    (``_minimal_norm_dual``, shared with ``solve_qp``).

    Raises
    ------
    ValueError
        If the constraint count exceeds the enumeration guard (m > 24).
    InfeasibleProblem
        If no candidate satisfies all constraints.
    """
    if qp.m > 24:
        raise ValueError(f"enumeration guard: m = {qp.m} exceeds 24")
    x0 = np.asarray(x0, dtype=float)
    n_u = qp.h.shape[0]
    low, _, w_s = qp.factor
    sx0 = qp.s @ x0
    rhs_con = qp.g_vec + qp.t_mat @ x0

    best: QpSolution | None = None
    for size in range(0, min(qp.m, n_u) + 1):
        for subset in combinations(range(qp.m), size):
            idx = list(subset)
            if size == 0:
                u = -np.linalg.solve(low.T, w_s @ x0)
                lam_a = np.zeros(0)
            else:
                g_a = qp.g_mat[idx]
                kkt = np.block(
                    [[qp.h, g_a.T], [g_a, np.zeros((size, size))]]
                )
                rhs = np.concatenate([-sx0, rhs_con[idx]])
                try:
                    sol = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    continue
                u, lam_a = sol[:n_u], sol[n_u:]
            if size and np.min(lam_a) < -tol:
                continue
            slack = rhs_con - qp.g_mat @ u
            if np.min(slack) < -tol:
                continue
            obj = _objective(qp, x0, u)
            if best is None or obj < best.objective - 1e-14:
                lam = np.zeros(qp.m)
                if size:
                    lam[idx] = np.maximum(lam_a, 0.0)
                best = QpSolution(u=u, lam=lam, active=subset, objective=obj)
    if best is None:
        raise InfeasibleProblem("no feasible active set found; problem is infeasible")

    best.lam = _minimal_norm_dual(qp, x0, best.u, best.lam, rhs_con - qp.g_mat @ best.u, tol)
    best.active = tuple(np.flatnonzero(best.lam > tol).tolist())
    return best


def _minimal_norm_dual(qp, x0, u, lam, slack, tol: float) -> np.ndarray:
    """Least-norm nonnegative dual on the rows A active at u*, else ``lam``.

    Solves min ||l|| s.t. G_A' l_A = r = -(H u* + S x0), l >= 0.  One SVD of
    G_A' gives its rank (by ``matrix_rank``'s rule), the pseudo-inverse
    solution l_p and an orthonormal basis N of its null space; then
    l_A = l_p + N z with z = argmin ||z|| s.t. -N z <= l_p, and since l_p is
    orthogonal to N, ||l||^2 = ||l_p||^2 + ||z||^2.  Where l_p is negative by
    rounding, l may stay down to -tol before it is clipped to 0.  ``lam`` is
    returned unchanged when G_A' has full rank or at most one row (the dual
    is unique) or when no such l exists.
    """
    act = np.flatnonzero(slack <= tol * max(1.0, np.max(np.abs(qp.g_vec), initial=0.0)))
    if act.size < 2:
        return lam
    g_act_t = qp.g_mat[act].T
    left, sing, right_t = np.linalg.svd(g_act_t)
    rank = np.count_nonzero(sing > sing.max() * max(g_act_t.shape) * np.finfo(float).eps)
    if rank == act.size:
        return lam
    resid = -(qp.h @ u + qp.s @ x0)
    lam_p = right_t[:rank].T @ (left[:, :rank].T @ resid / sing[:rank])
    null = right_t[rank:].T
    found = _least_distance(-null, lam_p - np.clip(lam_p, -tol, 0.0))
    if found is None:
        return lam
    lam_min = np.zeros(qp.m)
    lam_min[act] = np.maximum(lam_p + null @ found[0], 0.0)
    return lam_min
