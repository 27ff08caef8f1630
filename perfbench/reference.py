"""Exact reference for the MPC control law, written apart from ``neural_mpc``.

Nothing here imports the package.  The reference rebuilds the problem from the
plant's continuous-time matrices and the MPC data:

* zero-order hold through ``scipy.linalg.expm`` of the augmented matrix;
* the terminal weight through ``scipy.linalg.solve_discrete_are``;
* the condensed QP from an explicit rollout of the prediction model;
* the QP optimum by Lawson-Hanson NNLS applied to the least-distance form
  (Lawson & Hanson, *Solving Least Squares Problems*, 1974, ch. 23).

Every solve checks its own KKT residuals and raises ``ReferenceCheckError`` rather
than serve a point that fails them.  Only the primal optimum is compared with
the package: H is positive definite, so u* is unique, while the dual need not
be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, expm, solve_discrete_are, solve_triangular
from scipy.optimize import linprog, nnls

# KKT acceptance thresholds, relative to the scale of the data they test.
KKT_STATIONARITY = 1e-9
KKT_FEASIBILITY = 1e-9
KKT_COMPLEMENTARITY = 1e-9


class ReferenceCheckError(RuntimeError):
    """The reference could not certify its own answer."""


def cart_pole(cart_mass, pend_mass, length, gravity) -> tuple[np.ndarray, np.ndarray]:
    """Cart-pole linearized about upright, state (y, ydot, theta, thetadot).

    The equations of motion are M(theta) [ydd, thdd] = [u + m l thd^2 sin th,
    g sin th] with M = [[mc + m, m l cos th], [cos th, l]]; at th = 0 the
    accelerations are M(0)^-1 [u, g th].
    """
    mass = np.array([[cart_mass + pend_mass, pend_mass * length], [1.0, length]])
    inv = np.linalg.inv(mass)
    a_c = np.zeros((4, 4))
    a_c[0, 1] = a_c[2, 3] = 1.0
    a_c[[1, 3], 2] = inv[:, 1] * gravity
    b_c = np.zeros((4, 1))
    b_c[[1, 3], 0] = inv[:, 0]
    return a_c, b_c


def zoh(a_c: np.ndarray, b_c: np.ndarray, ts: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold pair (a, b) from exp([[a_c, b_c], [0, 0]] ts)."""
    n, p = b_c.shape
    blk = np.zeros((n + p, n + p))
    blk[:n, :n] = a_c
    blk[:n, n:] = b_c
    big = expm(blk * ts)
    return big[:n, :n], big[:n, n:]


def dare(a, b, q, r) -> np.ndarray:
    """Stabilizing solution of the discrete algebraic Riccati equation."""
    p = solve_discrete_are(a, b, q, r)
    return 0.5 * (p + p.T)


@dataclass
class Qp:
    """min 1/2 u'Hu + f'u  s.t.  G u <= w, with f and w affine in x0.

    f = f_x x0 and w = w_0 + w_x x0.
    """

    h: np.ndarray
    f_x: np.ndarray
    g: np.ndarray
    w_0: np.ndarray
    w_x: np.ndarray

    def at(self, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.f_x @ x0, self.w_0 + self.w_x @ x0


@dataclass
class MpcReference:
    """Reference MPC problem: plant pair, QP in the stacked inputs, soft variant."""

    a: np.ndarray
    b: np.ndarray
    qp: Qp
    n_inputs: int
    state_rows: np.ndarray  # indices of the constraint rows on predicted states
    c_rows: np.ndarray
    x_lower: np.ndarray
    x_upper: np.ndarray

    def soft_qp(self, rho: float) -> Qp:
        """The QP with one slack s >= 0 per state row, penalized by rho/2 ||s||^2.

        Decision vector (u, s); rows: G u - E s <= w, then -s <= 0.
        """
        qp = self.qp
        n_u, m_s = qp.h.shape[0], self.state_rows.size
        m = qp.g.shape[0]
        e_sel = np.zeros((m, m_s))
        e_sel[self.state_rows, np.arange(m_s)] = 1.0
        h = np.zeros((n_u + m_s, n_u + m_s))
        h[:n_u, :n_u] = qp.h
        h[n_u:, n_u:] = rho * np.eye(m_s)
        g = np.zeros((m + m_s, n_u + m_s))
        g[:m, :n_u] = qp.g
        g[:m, n_u:] = -e_sel
        g[m:, n_u:] = -np.eye(m_s)
        nx = qp.f_x.shape[1]
        return Qp(
            h=h,
            f_x=np.vstack([qp.f_x, np.zeros((m_s, nx))]),
            g=g,
            w_0=np.concatenate([qp.w_0, np.zeros(m_s)]),
            w_x=np.vstack([qp.w_x, np.zeros((m_s, nx))]),
        )


def build_mpc(
    a_c, b_c, ts, horizon, q, r, c_rows, x_lower, x_upper, u_lower, u_upper, p_term=None
) -> MpcReference:
    """Condense the box-constrained LQ problem by an explicit rollout.

    Cost: sum_{k=0}^{N-1} (x_k'Q x_k + u_k'R u_k) / 2 + x_N'P x_N / 2, where
    the x_0 term is constant and dropped.  Constraints: the input box at
    k = 0..N-1 and the output box C x_k at k = 1..N.  P defaults to the DARE
    solution.
    """
    a, b = zoh(np.asarray(a_c, float), np.asarray(b_c, float), ts)
    n, p = b.shape
    q, r = np.atleast_2d(q).astype(float), np.atleast_2d(r).astype(float)
    p_term = dare(a, b, q, r) if p_term is None else np.atleast_2d(p_term)
    big_n = horizon
    # x_k = phi[k] x0 + sum_j psi[k][j] u_j, built by stepping the model.
    phi = [np.eye(n)]
    psi = [np.zeros((n, big_n * p))]
    for k in range(big_n):
        nxt = a @ psi[k]
        nxt[:, k * p : (k + 1) * p] += b
        psi.append(nxt)
        phi.append(a @ phi[k])
    h = np.kron(np.eye(big_n), r)
    f_x = np.zeros((big_n * p, n))
    for k in range(1, big_n + 1):
        wk = p_term if k == big_n else q
        h += psi[k].T @ wk @ psi[k]
        f_x += psi[k].T @ wk @ phi[k]
    h = 0.5 * (h + h.T)

    c_rows = np.atleast_2d(np.asarray(c_rows, float))
    x_lower, x_upper = np.atleast_1d(x_lower).astype(float), np.atleast_1d(x_upper).astype(float)
    u_lower, u_upper = np.atleast_1d(u_lower).astype(float), np.atleast_1d(u_upper).astype(float)
    eye_u = np.eye(big_n * p)
    g_rows = [eye_u, -eye_u]
    w0_rows = [np.tile(u_upper, big_n), -np.tile(u_lower, big_n)]
    wx_rows = [np.zeros((2 * big_n * p, n))]
    for k in range(1, big_n + 1):
        out_u = c_rows @ psi[k]
        out_x = c_rows @ phi[k]
        g_rows += [out_u, -out_u]
        w0_rows += [x_upper, -x_lower]
        wx_rows += [-out_x, out_x]
    g = np.vstack(g_rows)
    n_input_rows = 2 * big_n * p
    return MpcReference(
        a=a,
        b=b,
        qp=Qp(h=h, f_x=f_x, g=g, w_0=np.concatenate(w0_rows), w_x=np.vstack(wx_rows)),
        n_inputs=p,
        state_rows=np.arange(n_input_rows, g.shape[0]),
        c_rows=c_rows,
        x_lower=x_lower,
        x_upper=x_upper,
    )


@dataclass
class Solution:
    u: np.ndarray
    lam: np.ndarray


def solve_qp(qp: Qp, x0: np.ndarray) -> Solution:
    """Exact QP optimum by NNLS on the least-distance form, KKT-checked.

    With H = L L' and z = L'u + L^-1 f the QP becomes min 1/2 ||z||^2 s.t.
    E z <= h, E = G L^-T, h = w + G H^-1 f.  Lawson-Hanson: y = argmin_{y>=0}
    ||[-E'; -h'] y - e_{n+1}||, r = residual; infeasible iff r = 0, else
    z = -r[:n] / r[n] and lam = y / (1 + h'y).
    """
    x0 = np.asarray(x0, dtype=float)
    f, w = qp.at(x0)
    chol = cho_factor(qp.h, lower=True)
    low = np.tril(chol[0])
    e_mat = solve_triangular(low, qp.g.T, lower=True).T  # G L^-T
    h_vec = w + qp.g @ cho_solve(chol, f)
    n = qp.h.shape[0]
    mat = np.vstack([-e_mat.T, -h_vec[None, :]])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    y, rnorm = nnls(mat, rhs, maxiter=50 * mat.shape[1])
    resid = mat @ y - rhs
    if rnorm <= 1e-12 or resid[n] >= 0:
        raise ReferenceCheckError("least-distance problem infeasible: QP has no feasible point")
    z = -resid[:n] / resid[n]
    lam = y / (1.0 + h_vec @ y)
    u = solve_triangular(low.T, z - solve_triangular(low, f, lower=True), lower=False)
    kkt = kkt_residuals(qp, x0, u, lam)
    if (
        kkt["stationarity"] > KKT_STATIONARITY
        or kkt["feasibility"] > KKT_FEASIBILITY
        or kkt["dual_sign"] > 0.0
        or kkt["complementarity"] > KKT_COMPLEMENTARITY
    ):
        raise ReferenceCheckError(f"reference solve failed its KKT check: {kkt}")
    return Solution(u=u, lam=lam)


def kkt_residuals(qp: Qp, x0, u, lam) -> dict:
    """Scaled KKT residuals of (u, lam); all are 0 at an exact optimum."""
    f, w = qp.at(np.asarray(x0, float))
    grad = qp.h @ u + f
    scale_grad = 1.0 + np.abs(qp.h).max() * np.abs(u).max() + np.abs(f).max()
    slack = w - qp.g @ u
    scale_con = 1.0 + np.abs(w).max() + np.abs(qp.g).max() * np.abs(u).max()
    return {
        "stationarity": float(np.abs(grad + qp.g.T @ lam).max() / scale_grad),
        "feasibility": float(max(0.0, -slack.min()) / scale_con),
        "dual_sign": float(max(0.0, -lam.min())),
        "complementarity": float(
            np.abs(lam * slack).max() / (scale_con * (1.0 + np.abs(lam).max()))
        ),
    }


def strict_margin(qp: Qp, x0: np.ndarray, cap: float = 1.0) -> float:
    """Largest t <= cap such that some u satisfies G u + t <= w (an LP).

    A positive value means x0 lies strictly inside the feasible set; -inf
    means the LP found no point.
    """
    _, w = qp.at(np.asarray(x0, float))
    n_u = qp.h.shape[0]
    cost = np.zeros(n_u + 1)
    cost[-1] = -1.0
    a_ub = np.hstack([qp.g, np.ones((qp.g.shape[0], 1))])
    res = linprog(
        cost, A_ub=a_ub, b_ub=w, bounds=[(None, None)] * n_u + [(None, cap)], method="highs"
    )
    return float(-res.fun) if res.status == 0 else -np.inf
