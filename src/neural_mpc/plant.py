"""Continuous-time plant models, ZOH discretization, DARE/LQR tools, propagation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


# Numerator coefficients of the [13/13] Pade approximant of exp, and the
# largest 1-norm at which it is accurate to unit roundoff (Higham, SIAM J.
# Matrix Anal. Appl. 26, 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring the [13/13] Pade approximant.

    Scales by 2^-s so the 1-norm is at most theta_13, evaluates the
    approximant (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U with six products and
    one ``np.linalg.solve``, then squares s times (Higham 2005).  The second
    form makes exp(0) exactly I.  Raises ``ValueError`` if the 1-norm is not
    finite.
    """
    norm = float(np.abs(mat).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError("matrix exponential needs a matrix with a finite 1-norm")
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a1 = mat / 2.0**squarings
    eye = np.eye(mat.shape[0])
    a2 = a1 @ a1
    a4 = a2 @ a2
    a6 = a4 @ a2
    c = _PADE13
    u = a1 @ (
        a6 @ (c[13] * a6 + c[11] * a4 + c[9] * a2)
        + c[7] * a6 + c[5] * a4 + c[3] * a2 + c[1] * eye
    )
    v = (
        a6 @ (c[12] * a6 + c[10] * a4 + c[8] * a2)
        + c[6] * a6 + c[4] * a4 + c[2] * a2 + c[0] * eye
    )
    out = eye + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(squarings):
        out = out @ out
    return out


def discretize_zoh(model: PlantModel, ts: float) -> DiscretePlant:
    """Exact zero-order-hold discretization of a linear plant.

    Computes a = exp(a_c ts) and b = (integral of exp(a_c s) ds over [0, ts]) b_c
    via the matrix exponential of the augmented block matrix
    [[a_c, b_c], [0, 0]] * ts (``_expm``: scaling and squaring of the [13/13]
    Pade approximant, on numpy's LAPACK).  Raises ``ValueError`` unless ts is
    positive and finite and the scaled block and its exponential are finite.
    """
    if not (math.isfinite(ts) and ts > 0):
        raise ValueError(f"ts must be positive and finite, got {ts}")
    n, p = model.state_dim, model.input_dim
    blk = np.zeros((n + p, n + p))
    blk[:n, :n] = model.a_c
    blk[:n, n:] = model.b_c
    with np.errstate(over="ignore", invalid="ignore"):
        big = _expm(blk * ts)
    if not np.isfinite(big).all():
        raise ValueError(f"ZOH discretization overflows at ts = {ts}")
    return DiscretePlant(a=big[:n, :n], b=big[:n, n:], ts=ts)


_SDA_MAX_DOUBLINGS = 64


def _sda(a: np.ndarray, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Structure-preserving doubling from A = a, G = b r^-1 b', H = q; returns H.

    Products are ndarray.dot, the BLAS call of ``@`` at less dispatch cost;
    max|H_new| is finite exactly when every entry of H_new is.
    """
    n = a.shape[0]
    eye = np.eye(n)
    stop = 64 * np.finfo(float).eps
    with np.errstate(all="ignore"):
        for _ in range(_SDA_MAX_DOUBLINGS):
            sol = np.linalg.solve(eye + g.dot(h), np.concatenate((a, g), axis=1))
            winv_a, winv_g = sol[:, :n], sol[:, n:]
            h_next = h + a.T.dot(h).dot(winv_a)
            g = g + a.dot(winv_g).dot(a.T)
            a = a.dot(winv_a)
            scale = np.abs(h_next).max()
            if not math.isfinite(scale):
                raise np.linalg.LinAlgError("DARE doubling iterate is not finite")
            if np.abs(h_next - h).max() <= stop * scale:
                return h_next
            h = h_next
    raise np.linalg.LinAlgError(f"DARE doubling did not converge in {_SDA_MAX_DOUBLINGS} steps")


def solve_dare(a: np.ndarray, b: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Solves P = q + a'Pa - a'Pb (r + b'Pb)^-1 b'Pa by the structure-preserving
    doubling algorithm (Lin & Xu, SIAM J. Matrix Anal. Appl. 28, 2006) and
    returns the symmetrized 0.5 (P + P').  From A = a, G = b r^-1 b', H = q,
    each doubling solves W = I + G H for [A G] once and sets
    A <- A W^-1 A, G <- G + A W^-1 G A', H <- H + A' H W^-1 A; H converges
    quadratically to P and the loop stops once max|H_new - H| <= 64 eps max|H_new|.
    Started from H = q, the doubling reaches the stabilizing solution only if
    q weights every unstable mode of a; where its result fails the checks
    below, P is taken instead from the stable invariant subspace of the
    symplectic matrix (``np.linalg.eig``) and refined by one Newton step, so
    a = 2, b = 1, q = 0, r = 1 gives P = 3.

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
        does not observe a mode of a on the unit circle) or the inputs do not
        fit: r is singular, a shape does not match, or both the doubling and
        the subspace solution fail.  The error raised is the doubling's: it
        did not converge within 64 steps, an iterate is not finite, W is
        singular, P's ``dare_residual`` exceeds 1e-9 max(1, ||P||_F), or the
        closed loop a - b K (K = ``lqr_gain``) has an eigenvalue of modulus
        at least 1 - sqrt(eps).  Only the stabilizing solution is returned:
        where it does not exist this raises, even if a non-stabilizing PSD
        solution does (q = 0 on the cart-pole has P = 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] != a.shape[0]:
        b = b.reshape(a.shape[0], -1)
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    try:
        g = b @ np.linalg.solve(r, b.T)
        try:
            return _checked_dare(a, b, q, r, _sda(a, g, q))
        except np.linalg.LinAlgError as exc:
            error = exc
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        raise np.linalg.LinAlgError(f"cannot solve the DARE: {exc}") from exc
    try:
        return _checked_dare(a, b, q, r, _dare_subspace(a, b, q, r, g))
    except ValueError:  # LinAlgError included
        raise error from None


def _dare_subspace(a, b, q, r, g) -> np.ndarray:
    """DARE solution from the stable invariant subspace, refined by one Newton step.

    The symplectic matrix [[a + G a'^-1 q, -G a'^-1], [-a'^-1 q, a'^-1]] has
    [I; P] spanning its stable invariant subspace, so P = U2 U1^-1 for the
    eigenvectors [U1; U2] of its n eigenvalues inside the unit circle.  One
    Newton (Hewer) step then solves P = F'PF + q + K'rK for F = a - b K by
    doubling with G = 0.  Needs a invertible (always so after ZOH); raises
    ``LinAlgError`` unless exactly n eigenvalues lie inside the circle.
    """
    n = a.shape[0]
    ait = np.linalg.solve(a.T, np.eye(n))
    with np.errstate(all="ignore"):
        z = np.block([[a + g @ ait @ q, -g @ ait], [-ait @ q, ait]])
    vals, vecs = np.linalg.eig(z)
    stable = np.abs(vals) < 1.0
    if stable.sum() != n:
        raise np.linalg.LinAlgError("symplectic matrix has no stable n-dimensional subspace")
    u = vecs[:, stable]
    p = np.linalg.solve(u[:n].T, u[n:].T).T.real
    k = lqr_gain(a, b, q, r, 0.5 * (p + p.T))
    return _sda(a - b @ k, np.zeros_like(a), q + k.T @ r @ k)


def _checked_dare(a, b, q, r, h) -> np.ndarray:
    """Symmetrized 0.5 (H + H'), or ``LinAlgError`` if it is not the stabilizing solution."""
    p = 0.5 * (h + h.T)
    residual = dare_residual(a, b, q, r, p)
    if not residual <= 1e-9 * max(1.0, float(np.linalg.norm(p, "fro"))):
        raise np.linalg.LinAlgError(f"DARE solution residual {residual:.3g} is too large")
    # A solution of the DARE need not stabilize when the pencil has
    # eigenvalues on the unit circle (the cart-pole with q = 0 gives P = 0).
    # A double eigenvalue there is computed only to about sqrt(eps), so one
    # that close to the circle counts as on it.
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
