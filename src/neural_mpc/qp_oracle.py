"""Exact reference solvers for the condensed QP.

``solve_qp`` is the trust anchor for every equivalence check in the package:
it writes the QP as a least-distance problem and solves that with one
Lawson-Hanson NNLS call, which terminates finitely at any horizon, and refuses
any answer that fails its own KKT check.  The brute-force active-set
enumeration, which visits every candidate active set (m <= 24), cross-checks
it in the tests; the networks' own projected-gradient flow (``settle``) is
checked against both through ``dual_objective``.
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
    f = g + T x0 + G H^-1 S x0 (Lawson & Hanson, *Solving Least Squares
    Problems*, 1974, ch. 23).  One NNLS solve
    y = argmin_{y >= 0} ||[-E'; -f'] y - e_{n+1}|| with residual r gives
    v = -r[:n] / r[n], the dual lam = y / (1 + f'y) and u = -H^-1 S x0 + L^-T v.
    A vanishing residual certifies that the constraints are infeasible.

    Among multiple optimal dual vectors the minimal-Euclidean-norm one is
    returned: when the rows active at u* are rank-deficient, the support
    search of the enumeration replaces the NNLS dual (for up to 16 active
    rows; beyond that the NNLS dual is kept).

    Raises
    ------
    InfeasibleProblem
        If no u satisfies all constraints.
    KktCheckError
        If the answer misses primal feasibility, dual sign, stationarity or
        complementarity by more than ``tol`` (scaled to the data).
    """
    x0 = np.asarray(x0, dtype=float)
    n_u = qp.h.shape[0]
    low, w_g, w_s = qp.factor
    c_vec = w_s @ x0  # L^-1 S x0
    w_vec = qp.g_vec + qp.t_mat @ x0
    mat = np.vstack([-w_g, -(w_vec + w_g.T @ c_vec)])
    rhs = np.zeros(n_u + 1)
    rhs[n_u] = 1.0
    y, rnorm = nnls(mat, rhs)
    resid = mat @ y - rhs
    if rnorm <= 1e-12 or resid[n_u] >= 0.0:
        raise InfeasibleProblem("least-distance problem has no solution; QP is infeasible")
    u = np.linalg.solve(low.T, -resid[:n_u] / resid[n_u] - c_vec)
    sol = QpSolution(u=u, lam=y / -resid[n_u], active=(), objective=_objective(qp, x0, u))

    slack = w_vec - qp.g_mat @ u
    act = np.flatnonzero(slack <= tol * max(1.0, np.max(np.abs(qp.g_vec))))
    if act.size > 1 and np.linalg.matrix_rank(qp.g_mat[act]) < act.size:
        lam_min = _minimal_norm_dual(qp, x0, sol, tol)
        if lam_min is not None:
            sol.lam = lam_min
    sol.active = tuple(np.flatnonzero(sol.lam > tol).tolist())
    _check_kkt(qp, x0, sol, w_vec, slack, tol)
    return sol


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
    multiple optimal dual vectors the minimal-Euclidean-norm one is returned,
    computed by a least-norm solve over the constraints active at the optimum.

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

    lam_min = _minimal_norm_dual(qp, x0, best, tol)
    if lam_min is not None:
        best = QpSolution(
            u=best.u,
            lam=lam_min,
            active=tuple(np.flatnonzero(lam_min > tol)),
            objective=best.objective,
        )
    return best


def _minimal_norm_dual(qp, x0, sol: QpSolution, tol: float) -> np.ndarray | None:
    """Least-norm nonnegative dual supported on the constraints active at u*.

    Solves min ||lam|| s.t. G_I' lam_I = -(H u* + S x0), lam >= 0 by support
    enumeration: the optimum restricted to its support is the least-norm
    solution of the support-restricted equality system.
    """
    resid = -(qp.h @ sol.u + qp.s @ x0)
    slack = qp.g_vec + qp.t_mat @ x0 - qp.g_mat @ sol.u
    act = np.flatnonzero(slack <= tol * max(1.0, np.max(np.abs(qp.g_vec))))
    if act.size == 0:
        return np.zeros(qp.m) if np.linalg.norm(resid) <= 1e-7 else None
    if act.size > 16:
        return None  # support enumeration too large; keep the enumerated dual
    scale = max(1.0, float(np.linalg.norm(resid)))
    best_lam, best_norm = None, np.inf
    for size in range(0, act.size + 1):
        for support in combinations(act, size):
            if size == 0:
                if np.linalg.norm(resid) <= 1e-7 * scale:
                    cand = np.zeros(qp.m)
                else:
                    continue
            else:
                g_sup = qp.g_mat[list(support)]
                lam_s, *_ = np.linalg.lstsq(g_sup.T, resid, rcond=None)
                if np.linalg.norm(g_sup.T @ lam_s - resid) > 1e-7 * scale:
                    continue
                if np.min(lam_s) < -tol:
                    continue
                cand = np.zeros(qp.m)
                cand[list(support)] = np.maximum(lam_s, 0.0)
            norm = float(np.linalg.norm(cand))
            if norm < best_norm - 1e-12:
                best_norm, best_lam = norm, cand
    return best_lam


def dual_objective(qp: CondensedQp, x0: np.ndarray, lam: np.ndarray) -> float:
    """Dual objective 1/2 lam' G H^-1 G' lam + (G H^-1 S x0 + g + T x0)' lam.

    With H = L L' and W_G = L^-1 G' (``qp.factor``), G H^-1 G' = W_G' W_G.
    """
    x0 = np.asarray(x0, dtype=float)
    _, w_g, w_s = qp.factor
    q_vec = w_g.T @ (w_s @ x0) + qp.g_vec + qp.t_mat @ x0
    return float(0.5 * lam @ (w_g.T @ w_g) @ lam + q_vec @ lam)


def primal_from_dual(qp: CondensedQp, x0: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Stationarity recovery  u = -H^-1 (G' lam + S x0) = -L^-T (W_G lam + W_S x0)."""
    low, w_g, w_s = qp.factor
    return -np.linalg.solve(low.T, w_g @ lam + w_s @ np.asarray(x0, dtype=float))
