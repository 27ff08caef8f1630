"""Continuous-time plant models, ZOH discretization, DARE/LQR tools, propagation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve_discrete_are


@dataclass
class CartPoleParams:
    """Physical parameters of the pendulum-on-a-cart benchmark plant."""

    cart_mass: float = 0.5
    pend_mass: float = 0.4
    length: float = 1.0
    gravity: float = 9.81

    def __post_init__(self):
        for name in ("cart_mass", "pend_mass", "length", "gravity"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass
class PlantModel:
    """Continuous-time linear plant  xdot = a_c x + b_c u.

    ``cart_pole_params`` carries the physical parameters when the model is the
    linearized cart-pole, so the nonlinear dynamics remain available.
    """

    a_c: np.ndarray
    b_c: np.ndarray
    cart_pole_params: CartPoleParams | None = None

    def __post_init__(self):
        self.a_c = np.asarray(self.a_c, dtype=float)
        self.b_c = np.asarray(self.b_c, dtype=float)
        if self.b_c.ndim == 1:
            self.b_c = self.b_c.reshape(-1, 1)
        if self.a_c.ndim != 2 or self.a_c.shape[0] != self.a_c.shape[1]:
            raise ValueError(f"a_c must be square, got shape {self.a_c.shape}")
        if self.b_c.shape[0] != self.a_c.shape[0]:
            raise ValueError(
                f"a_c and b_c row counts differ: {self.a_c.shape[0]} vs {self.b_c.shape[0]}"
            )
        if not (np.isfinite(self.a_c).all() and np.isfinite(self.b_c).all()):
            raise ValueError("plant matrices must contain only finite entries")

    @property
    def state_dim(self) -> int:
        return self.a_c.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b_c.shape[1]


@dataclass
class DiscretePlant:
    """Zero-order-hold discretization  x+ = a x + b u  at sample period ``ts``."""

    a: np.ndarray
    b: np.ndarray
    ts: float

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim == 1:
            self.b = self.b.reshape(-1, 1)
        if self.ts <= 0:
            raise ValueError(f"ts must be positive, got {self.ts}")
        if self.a.shape[0] != self.a.shape[1] or self.b.shape[0] != self.a.shape[0]:
            raise ValueError("inconsistent a/b dimensions")

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]


def cart_pole_model(params: CartPoleParams | None = None) -> PlantModel:
    """Cart-pole plant linearized about the upright position.

    State is (cart position, cart velocity, pole angle, angular rate); input is
    the horizontal force on the cart.  Angle is measured from upright.
    """
    params = params or CartPoleParams()
    mc, mp = params.cart_mass, params.pend_mass
    ell, grav = params.length, params.gravity
    a_c = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -mp * grav / mc, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, (mc + mp) * grav / (mc * ell), 0.0],
        ]
    )
    b_c = np.array([[0.0], [1.0 / mc], [0.0], [-1.0 / (mc * ell)]])
    return PlantModel(a_c, b_c, cart_pole_params=params)


def discretize_zoh(model: PlantModel, ts: float) -> DiscretePlant:
    """Exact zero-order-hold discretization of a linear plant.

    Computes a = exp(a_c ts) and b = (integral of exp(a_c s) ds over [0, ts]) b_c
    via the matrix exponential of the augmented block matrix
    [[a_c, b_c], [0, 0]] * ts (scaling-and-squaring Pade kernel).
    """
    if ts <= 0:
        raise ValueError(f"ts must be positive, got {ts}")
    n, p = model.state_dim, model.input_dim
    blk = np.zeros((n + p, n + p))
    blk[:n, :n] = model.a_c
    blk[:n, n:] = model.b_c
    big = expm(blk * ts)
    return DiscretePlant(a=big[:n, :n], b=big[:n, n:], ts=ts)


def solve_dare(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Solves P = q + a'Pa - a'Pb (r + b'Pb)^-1 b'Pa with scipy's generalized
    Schur method (``scipy.linalg.solve_discrete_are``) and returns the
    symmetrized 0.5 (P + P').

    Parameters
    ----------
    a, b : ndarray
        Discrete-time system pair; (a, b) must be stabilizable.
    q : ndarray
        State weight, positive semidefinite.
    r : ndarray
        Input weight, positive definite.

    Returns
    -------
    ndarray
        Symmetric PSD stabilizing solution P.

    Raises
    ------
    numpy.linalg.LinAlgError
        When no stabilizing solution exists ((a, b) is not stabilizable, or q
        does not observe a mode of a on the unit circle), when scipy rejects
        the inputs, or when P is not finite, its ``dare_residual`` exceeds
        1e-9 max(1, ||P||_F), or the closed loop a - b K (K = ``lqr_gain``)
        has an eigenvalue of modulus at least 1 - sqrt(eps).  Only the
        stabilizing solution is returned: where it does not exist this
        raises, even if a non-stabilizing PSD solution does (q = 0 on the
        cart-pole has P = 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] != a.shape[0]:
        b = b.reshape(a.shape[0], -1)
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    try:
        p = solve_discrete_are(a, b, q, r)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise np.linalg.LinAlgError(f"cannot solve the DARE: {exc}") from exc
    p = 0.5 * (p + p.T)
    if not np.isfinite(p).all():
        raise np.linalg.LinAlgError("DARE solution is not finite")
    residual = dare_residual(a, b, q, r, p)
    if not residual <= 1e-9 * max(1.0, float(np.linalg.norm(p, "fro"))):
        raise np.linalg.LinAlgError(f"DARE solution residual {residual:.3g} is too large")
    # scipy can count eigenvalues of the pencil that lie on the unit circle
    # as stable and return a non-stabilizing P (the cart-pole with q = 0 and
    # r = 1).  A double eigenvalue there is computed only to about sqrt(eps),
    # so one that close to the circle counts as on it.
    radius = float(np.max(np.abs(np.linalg.eigvals(a - b @ lqr_gain(a, b, q, r, p)))))
    if not radius < 1.0 - np.sqrt(np.finfo(float).eps):
        raise np.linalg.LinAlgError(
            f"DARE solution is not stabilizing (closed-loop spectral radius {radius!r})"
        )
    return p


def dare_residual(a, b, q, r, p) -> float:
    """Frobenius norm of P - (q + a'Pa - a'Pb (r + b'Pb)^-1 b'Pa)."""
    bpb = r + b.T @ p @ b
    bpa = b.T @ p @ a
    rhs = q + a.T @ p @ a - bpa.T @ np.linalg.solve(bpb, bpa)
    return float(np.linalg.norm(p - rhs, "fro"))


def lqr_gain(a, b, q, r, p) -> np.ndarray:
    """Infinite-horizon LQR gain K = (r + b'Pb)^-1 b'Pa for P from solve_dare."""
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] != np.asarray(a).shape[0]:
        b = b.reshape(np.asarray(a).shape[0], -1)
    return np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)


def _rk4(f, x: np.ndarray, dt: float, substeps: int) -> np.ndarray:
    h = dt / substeps
    for _ in range(substeps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def propagate_linear(
    model: PlantModel, x: np.ndarray, u: np.ndarray, dt: float, substeps: int = 10
) -> np.ndarray:
    """Advance the linear plant under a constant input via fixed-step RK4."""
    if dt <= 0 or substeps < 1:
        raise ValueError("dt must be positive and substeps >= 1")
    x = np.asarray(x, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not (np.isfinite(x).all() and np.isfinite(u).all()):
        raise ValueError("state and input must be finite")
    drive = model.b_c @ u
    return _rk4(lambda s: model.a_c @ s + drive, x, dt, substeps)


def cart_pole_rhs(params: CartPoleParams, x: np.ndarray, u: float) -> np.ndarray:
    """Nonlinear cart-pole state derivative for state (y, ydot, theta, thetadot).

    Solves the 2x2 mass matrix [[M+m, m l cos(th)], [cos(th), l]] for the cart
    and angular accelerations at the current configuration.
    """
    mc, mp = params.cart_mass, params.pend_mass
    ell, grav = params.length, params.gravity
    _, ydot, theta, thetadot = x
    c, s = np.cos(theta), np.sin(theta)
    mass = np.array([[mc + mp, mp * ell * c], [c, ell]])
    det = mass[0, 0] * mass[1, 1] - mass[0, 1] * mass[1, 0]
    if abs(det) < 1e-12:
        raise np.linalg.LinAlgError("cart-pole mass matrix is singular")
    rhs = np.array([u + mp * ell * thetadot**2 * s, grav * s])
    ydd, thdd = np.linalg.solve(mass, rhs)
    return np.array([ydot, ydd, thetadot, thdd])


def propagate_nonlinear_cartpole(
    params: CartPoleParams, x: np.ndarray, u: np.ndarray, dt: float, substeps: int = 10
) -> np.ndarray:
    """Advance the nonlinear cart-pole under a constant input via fixed-step RK4."""
    if dt <= 0 or substeps < 1:
        raise ValueError("dt must be positive and substeps >= 1")
    x = np.asarray(x, dtype=float)
    u_scalar = float(np.atleast_1d(u)[0])
    return _rk4(lambda s: cart_pole_rhs(params, s, u_scalar), x, dt, substeps)
