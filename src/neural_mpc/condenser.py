"""Condense an MPC problem into a dense QP, its dual data, and network weights.

The condensation eliminates the predicted states using the rollout relation,
leaving a strictly convex QP in the stacked inputs.  The dual of that QP is a
nonnegatively constrained quadratic program whose projected-gradient flow is a
firing-rate network; this module builds the synaptic matrix, input map and bias
of that network, plus the slack-augmented variant that keeps the QP feasible
when state constraints cannot be met.

Constraint row ordering contract (relied on by the slack augmentation and by
graph node labels): input box rows come first, step-major over k = 0..N-1, two
rows per scalar input (upper bound then lower bound); state rows follow,
step-major over k = 1..N, two rows per constrained output (upper then lower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .plant import DiscretePlant


@dataclass
class InputConstraint:
    """Elementwise box  lower <= u_k <= upper  on every input over the horizon."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must have equal length")
        if not np.all(self.lower < self.upper):
            raise ValueError("input bounds must satisfy lower < upper elementwise")


@dataclass
class StateConstraint:
    """Box  lower <= c_rows @ x_k <= upper  on selected outputs over the horizon."""

    c_rows: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.c_rows = np.atleast_2d(np.asarray(self.c_rows, dtype=float))
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if self.c_rows.shape[0] != self.lower.size or self.lower.size != self.upper.size:
            raise ValueError("c_rows/lower/upper row counts must agree")
        if not np.all(self.lower < self.upper):
            raise ValueError("state bounds must satisfy lower < upper elementwise")


@dataclass
class MpcProblem:
    """Finite-horizon constrained LQ optimal control problem data.

    Fields
    ------
    plant : DiscretePlant
        Discrete pair (A, B).
    horizon : int
        Prediction horizon N >= 1.
    q, r, p_term : ndarray
        Stage state weight (PSD), stage input weight (PD), terminal weight (PSD).
    state_con, input_con :
        Polyhedral box constraint data.
    """

    plant: DiscretePlant
    horizon: int
    q: np.ndarray
    r: np.ndarray
    p_term: np.ndarray
    state_con: StateConstraint
    input_con: InputConstraint

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.q = np.atleast_2d(np.asarray(self.q, dtype=float))
        self.r = np.atleast_2d(np.asarray(self.r, dtype=float))
        self.p_term = np.atleast_2d(np.asarray(self.p_term, dtype=float))
        if np.min(np.linalg.eigvalsh(0.5 * (self.r + self.r.T))) <= 0:
            raise ValueError("r must be positive definite")
        for name, w in (("q", self.q), ("p_term", self.p_term)):
            if np.min(np.linalg.eigvalsh(0.5 * (w + w.T))) < -1e-10:
                raise ValueError(f"{name} must be positive semidefinite")
        if self.input_con.lower.size != self.plant.input_dim:
            raise ValueError("input constraint dimension does not match plant")
        if self.state_con.c_rows.shape[1] != self.plant.state_dim:
            raise ValueError("state constraint selector width does not match plant")


@dataclass
class CondensedQp:
    """Dense QP  min 1/2 u'Hu + x0'S'u  s.t.  G u <= g + T x0.

    ``upsilon_rows`` is the number of leading components of the stacked input
    that form the first control action (the selector width).  ``row_labels``
    describe each constraint row and ``input_row_count`` marks where the input
    block ends, per the module-level ordering contract.  ``factor`` and
    ``network`` are computed on first use and kept.
    """

    h: np.ndarray
    s: np.ndarray
    g_mat: np.ndarray
    t_mat: np.ndarray
    g_vec: np.ndarray
    m: int
    upsilon_rows: int
    row_labels: list[str] = field(default_factory=list)
    input_row_count: int = 0

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        self.g_mat = np.asarray(self.g_mat, dtype=float)
        self.t_mat = np.asarray(self.t_mat, dtype=float)
        self.g_vec = np.asarray(self.g_vec, dtype=float)
        if not (self.g_mat.shape[0] == self.t_mat.shape[0] == self.g_vec.size == self.m):
            raise ValueError("g_mat, t_mat, g_vec row counts must all equal m")
        if not self.row_labels:
            self.row_labels = [f"row[{i}]" for i in range(self.m)]

    @cached_property
    def factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(L, W_G, W_S)`` with H = L L' and [W_G W_S] = L^-1 [G' S].

        Computed on first use and kept: every solve with H in the package
        (network weights, the oracle, the dual data) goes through this one
        factorization, so h, g_mat and s must not change after that.  The
        arrays are shared by every caller and read-only.  Raises LinAlgError
        if H is not positive definite.
        """
        try:
            low = np.linalg.cholesky(self.h)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"H factorization failed: {exc}") from exc
        w = np.linalg.solve(low, np.hstack([self.g_mat.T, self.s]))
        low.flags.writeable = w.flags.writeable = False
        return low, w[:, : self.m], w[:, self.m :]

    @cached_property
    def network(self) -> NetworkData:
        """``build_network(self)``, built on first use and kept: the network
        the pipeline runs and the base of ``augment_slack`` are this one object,
        shared by every caller, so its arrays must not be edited in place."""
        return build_network(self)


@dataclass
class NetworkData:
    """Firing-rate network weights derived from a condensed QP.

    gamma is the synaptic matrix I - G H^-1 G', m_map maps the state
    observation to the bias, bias is the constraint offset, and the two
    u_* maps recover the first control action:
    u = -u_dual_map @ lam - u_feedback @ x0.
    """

    gamma: np.ndarray
    m_map: np.ndarray
    bias: np.ndarray
    u_feedback: np.ndarray
    u_dual_map: np.ndarray
    node_labels: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.gamma.shape[0]

    @cached_property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of the symmetric gamma.

        One ``eigvalsh`` on first use, then kept, so gamma must not change
        after that; it sets the networks' Euler step (``network.step_limits``).
        """
        return float(np.linalg.eigvalsh(self.gamma)[0])


@dataclass
class SlackMeta:
    """Bookkeeping for a slack-augmented network."""

    rho: float
    m: int
    m_s: int
    state_rows: np.ndarray
    slack_labels: list[str]


def build_prediction_matrices(problem: MpcProblem) -> tuple[np.ndarray, np.ndarray]:
    """Stacked rollout matrices (s_x, s_u) with  x_stack = s_x x0 + s_u u_stack.

    s_x stacks A, A^2, ..., A^N; s_u is the lower block-triangular convolution
    matrix with A^(i-j) B in block (i, j) for j <= i.
    """
    a, b = problem.plant.a, problem.plant.b
    n, p, big_n = problem.plant.state_dim, problem.plant.input_dim, problem.horizon
    powers = [np.eye(n)]
    for _ in range(big_n):
        powers.append(a @ powers[-1])
    s_x = np.vstack(powers[1:])
    # Block column j is block column 0, A^0 B .. A^(N-1) B, shifted down j blocks.
    col = np.vstack([pw @ b for pw in powers[:big_n]])
    s_u = np.zeros((big_n * n, big_n * p))
    for j in range(big_n):
        s_u[j * n :, j * p : (j + 1) * p] = col[: (big_n - j) * n]
    return s_x, s_u


def _stacked_weights(problem: MpcProblem) -> tuple[np.ndarray, np.ndarray]:
    big_n = problem.horizon
    blocks = [problem.q] * (big_n - 1) + [problem.p_term]
    q_bar = np.zeros((big_n * problem.plant.state_dim,) * 2)
    n = problem.plant.state_dim
    for k, blk in enumerate(blocks):
        q_bar[k * n : (k + 1) * n, k * n : (k + 1) * n] = blk
    p = problem.plant.input_dim
    r_bar = np.zeros((big_n * p,) * 2)
    for k in range(big_n):
        r_bar[k * p : (k + 1) * p, k * p : (k + 1) * p] = problem.r
    return q_bar, r_bar


def condense(problem: MpcProblem) -> CondensedQp:
    """Condense an MpcProblem into the dense QP over the stacked inputs.

    Returns
    -------
    CondensedQp
        With H = s_u' q_bar s_u + r_bar, S = s_u' q_bar s_x, and constraint
        rows ordered per the module-level contract.  For any rollout,
        G u <= g + T x0 holds iff every box constraint over the horizon holds
        (states from step 1 to N, inputs from step 0 to N-1).
    """
    s_x, s_u = build_prediction_matrices(problem)
    q_bar, r_bar = _stacked_weights(problem)
    h = s_u.T @ q_bar @ s_u + r_bar
    h = 0.5 * (h + h.T)
    s = s_u.T @ q_bar @ s_x

    n = problem.plant.state_dim
    p = problem.plant.input_dim
    big_n = problem.horizon

    # Each bound is a row and its negation (upper then lower bound), written
    # by index: an input row picks one entry of u_k, a state row applies one
    # row of c_rows to x_k.  The negated rows carry -0.0 off their support.
    ic, sc = problem.input_con, problem.state_con
    c = sc.c_rows
    n_c = c.shape[0]
    g_u = np.empty((2 * big_n * p, big_n * p))
    g_u[0::2] = np.eye(big_n * p)
    g_u[1::2] = -g_u[0::2]
    input_row_count = g_u.shape[0]
    c_stack = np.zeros((big_n * n_c, big_n * n))
    steps = np.arange(big_n)
    c_stack.reshape(big_n, n_c, big_n, n)[steps, :, steps] = c
    g_x_stack = np.empty((2 * big_n * n_c, big_n * n))
    g_x_stack[0::2] = c_stack
    g_x_stack[1::2] = -c_stack
    rhs_u = np.tile(np.column_stack([ic.upper, -ic.lower]).ravel(), big_n)
    rhs_x = np.tile(np.column_stack([sc.upper, -sc.lower]).ravel(), big_n)
    bounds = ("upper", "lower")
    labels = [f"input[k={k},i={i},{b}]" for k in range(big_n) for i in range(p) for b in bounds]
    labels += [
        f"state[k={k},j={j},{b}]" for k in range(1, big_n + 1) for j in range(n_c) for b in bounds
    ]

    g_mat = np.vstack([g_u, g_x_stack @ s_u])
    t_mat = np.vstack([np.zeros((input_row_count, n)), -g_x_stack @ s_x])
    g_vec = np.concatenate([rhs_u, rhs_x])

    return CondensedQp(
        h=h,
        s=s,
        g_mat=g_mat,
        t_mat=t_mat,
        g_vec=g_vec,
        m=g_mat.shape[0],
        upsilon_rows=p,
        row_labels=labels,
        input_row_count=input_row_count,
    )


def build_network(qp: CondensedQp) -> NetworkData:
    """Build firing-rate network weights from a condensed QP.

    gamma = I - G H^-1 G' and m_map = G H^-1 S + T; H is never inverted, only
    factored as H = L L' (``qp.factor``).  With [W_G W_S] = L^-1 [G' S],
    gamma = I - W_G' W_G, which is exactly symmetric, with all eigenvalues
    <= 1 because W_G' W_G is positive semidefinite, and m_map = W_G' W_S + T.
    """
    low, w_g, w_s = qp.factor
    p = qp.upsilon_rows
    readout = np.linalg.solve(low.T, np.hstack([w_g, w_s]))[:p]  # rows of H^-1 [G' S]
    return NetworkData(
        gamma=np.eye(qp.m) - w_g.T @ w_g,
        m_map=w_g.T @ w_s + qp.t_mat,
        bias=qp.g_vec.copy(),
        u_feedback=readout[:, qp.m :],
        u_dual_map=readout[:, : qp.m],
        node_labels=list(qp.row_labels),
    )


def augment_slack(qp: CondensedQp, rho: float) -> tuple[NetworkData, SlackMeta]:
    """Slack-augmented network that relaxes the state constraints.

    One nonnegative slack per state-constraint row enters the QP as
    G u <= g + T x0 + E s with quadratic penalty weight rho; input rows are
    never relaxed.  The augmented synaptic matrix has the block form

        [ gamma - rho^-1 E E'    -rho^-1 E      ]
        [ -rho^-1 E'             (1 - rho^-1) I ]

    where E (m x m_s) selects the state rows; the blocks are written by index
    from the gamma of ``qp.network``, never formed as products of E.  The input
    map and bias gain zero rows for the slack nodes.  Raises ``ValueError``
    unless rho > 0 and 1/rho is finite.

    Returns the augmented NetworkData together with SlackMeta describing which
    rows were relaxed.
    """
    if not (rho > 0 and math.isfinite(1.0 / rho)):
        raise ValueError(f"rho must be positive, with 1/rho finite, got {rho}")
    inv_rho = 1.0 / rho
    base = qp.network
    m = qp.m
    m_s = m - qp.input_row_count
    state_rows = np.arange(qp.input_row_count, m)
    slack_rows = np.arange(m, m + m_s)

    # The block template written entry by entry: the zeros off E's support are
    # the products -rho^-1 * 0 and (1 - rho^-1) * 0, signs included.
    gamma_aug = np.empty((m + m_s, m + m_s))
    gamma_aug[:m, :m] = base.gamma
    gamma_aug[:m, m:] = gamma_aug[m:, :m] = -inv_rho * 0.0
    gamma_aug[m:, m:] = (1.0 - inv_rho) * 0.0
    gamma_aug[state_rows, state_rows] -= inv_rho
    gamma_aug[state_rows, slack_rows] = gamma_aug[slack_rows, state_rows] = -inv_rho
    gamma_aug[slack_rows, slack_rows] = 1.0 - inv_rho

    slack_labels = [f"slack[{i}]" for i in range(m_s)]
    p = qp.upsilon_rows
    data = NetworkData(
        gamma=gamma_aug,
        m_map=np.vstack([base.m_map, np.zeros((m_s, base.m_map.shape[1]))]),
        bias=np.concatenate([base.bias, np.zeros(m_s)]),
        u_feedback=base.u_feedback,
        u_dual_map=np.hstack([base.u_dual_map, np.zeros((p, m_s))]),
        node_labels=list(qp.row_labels) + slack_labels,
    )
    meta = SlackMeta(
        rho=rho, m=m, m_s=m_s, state_rows=state_rows, slack_labels=slack_labels
    )
    return data, meta
