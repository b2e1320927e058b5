"""Mobius group of the unit ball: boosts, rotations, their composition and
inversion, and the invariants of the hyperbolic metric they preserve.

Every operation is a pure function of its inputs and arrays are never
mutated after construction, so the whole module is safe for concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPHERE_TOL = 1e-12
ROTATION_TOL = 1e-10
DISTINCT_TOL = 1e-10

LEFT = "left"
RIGHT = "right"

__all__ = [
    "GeometryError",
    "MobiusMap",
    "LEFT",
    "RIGHT",
    "as_vector",
    "as_sphere_point",
    "as_ball_point",
    "as_rotation",
    "as_antisymmetric",
    "antisymmetric_from_upper",
    "random_antisymmetric",
    "random_rotation",
    "nearest_rotation",
    "boost_apply",
    "identity_map",
    "mobius_apply",
    "mobius_inverse",
    "mobius_compose",
    "convert_form",
    "hyperbolic_distance",
    "cross_ratio",
    "infinitesimal_generator",
]


class GeometryError(ValueError):
    """An input violates a geometric invariant (off sphere, outside ball, ...)."""


# ---------------------------------------------------------------------------
# validated constructors


def as_vector(v, dim=None):
    """Validate a finite vector in R^d with d >= 2 and return it as a float array."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise GeometryError(f"expected a 1-d vector, got shape {v.shape}")
    if v.size < 2:
        raise GeometryError("ambient dimension must be at least 2")
    if dim is not None and v.size != dim:
        raise GeometryError(f"expected dimension {dim}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise GeometryError("vector has non-finite components")
    return v


def as_sphere_point(v, dim=None):
    """Validate a unit vector (within SPHERE_TOL of the sphere)."""
    v = as_vector(v, dim)
    err = abs(float(np.linalg.norm(v)) - 1.0)
    if err > SPHERE_TOL:
        raise GeometryError(f"point is off the unit sphere by {err:.3e}")
    return v


def as_ball_point(v, dim=None):
    """Validate a point strictly inside the open unit ball.

    Points on or outside the boundary are rejected loudly; clamping them
    back inside would mask integrator blow-up.
    """
    v = as_vector(v, dim)
    r = float(np.linalg.norm(v))
    if r >= 1.0:
        raise GeometryError(f"point lies outside the open unit ball (|v| = {r:.17g})")
    return v


def as_rotation(m, tol=ROTATION_TOL):
    """Validate a matrix in SO(d): orthogonal within tol, determinant +1."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GeometryError(f"rotation must be square, got shape {m.shape}")
    if m.shape[0] < 2:
        raise GeometryError("rotation dimension must be at least 2")
    if not np.all(np.isfinite(m)):
        raise GeometryError("rotation has non-finite entries")
    d = m.shape[0]
    ortho = float(np.max(np.abs(m.T @ m - np.eye(d))))
    if ortho > tol:
        raise GeometryError(f"matrix is not orthogonal (residual {ortho:.3e})")
    det = float(np.linalg.det(m))
    if abs(det - 1.0) > max(tol, 1e-10):
        raise GeometryError(f"matrix is not orientation-preserving (det = {det:.17g})")
    return m


def as_antisymmetric(m, dim=None):
    """Validate an exactly antisymmetric matrix (m.T == -m entrywise).

    Build candidates with antisymmetric_from_upper so the identity holds
    exactly in floating point.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GeometryError(f"antisymmetric matrix must be square, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise GeometryError(f"expected dimension {dim}, got {m.shape[0]}")
    if not np.all(np.isfinite(m)):
        raise GeometryError("matrix has non-finite entries")
    if not np.array_equal(m.T, -m):
        raise GeometryError("matrix is not exactly antisymmetric; build it with antisymmetric_from_upper")
    return m


def antisymmetric_from_upper(m):
    """Antisymmetric matrix determined by the strict upper triangle of m.

    Returned as U - U.T, which is exactly antisymmetric in floating point.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GeometryError(f"expected a square matrix, got shape {m.shape}")
    u = np.triu(m, 1)
    return u - u.T


def random_antisymmetric(d, rng, scale=1.0):
    """Antisymmetric matrix with i.i.d. normal strict-upper entries times scale."""
    return antisymmetric_from_upper(scale * rng.standard_normal((d, d)))


def nearest_rotation(m):
    """Closest matrix in SO(d) in Frobenius norm (polar / symmetric orthogonalization)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


def random_rotation(d, rng):
    """Rotation drawn as the polar factor of a Gaussian matrix (Haar on SO(d))."""
    return nearest_rotation(rng.standard_normal((d, d)))


# ---------------------------------------------------------------------------
# boosts and Mobius maps


def boost_apply(w, x):
    """Apply the boost that carries w to the origin.

    The general ball formula

        ((1 - |w|^2) x - (1 - 2<w,x> + |x|^2) w) / (1 - 2<w,x> + |w|^2 |x|^2)

    is used for every input; it maps the closed ball to itself and restricts
    to a sphere-to-sphere map on the boundary.

    Validates its input once, then calls _boost: w must be a finite vector
    strictly inside the unit ball, x must match its dimension, and no
    denominator may fall below 1e-300 in magnitude; each violation raises
    GeometryError.

    Parameters
    ----------
    w : array, shape (d,)
        Boost parameter, |w| < 1.
    x : array, shape (d,) or (n, d)
        Point or batch of points with |x| <= 1.

    Returns
    -------
    Array of the same shape as x.
    """
    w = as_ball_point(w)
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[1] != w.size:
        raise GeometryError(f"dimension mismatch: boost in R^{w.size}, point in R^{pts.shape[1]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out, denom = _boost(w, pts, np.einsum("ij,ij->i", pts, pts))
    if np.any(np.abs(denom) < 1e-300):
        raise GeometryError("boost denominator vanished; state is corrupted")
    return out[0] if x.ndim == 1 else out


def _boost(w, x, x2):
    """boost_apply without validation, for right-hand sides run once per RK stage.

    x is an (n, d) array and x2 its squared row norms; returns the images and
    their denominators.  Precondition: |w| < 1 and unit rows.  Then each
    denominator is |x_i - w|^2 >= (1 - |w|)^2 > 0, so nothing is checked here.
    """
    w2 = float(w @ w)
    c = 1.0 - 2.0 * (x @ w)
    denom = c + w2 * x2
    return ((1.0 - w2) * x - (c + x2)[:, None] * w) / denom[:, None], denom


@dataclass(frozen=True)
class MobiusMap:
    """Orientation-preserving isometry of the hyperbolic ball.

    form fixes how the (rotation, boost) pair acts:

      * left:  x -> rotation @ M_boost(x)
      * right: x -> M_{-boost}(rotation @ x)

    Both factorizations parametrize the same group; convert_form moves
    between them without changing the underlying map.
    """

    rotation: np.ndarray
    boost: np.ndarray
    form: str = LEFT

    def __post_init__(self):
        rotation = as_rotation(self.rotation)
        boost = as_ball_point(self.boost, rotation.shape[0])
        if self.form not in (LEFT, RIGHT):
            raise GeometryError(f"unknown Mobius form {self.form!r}")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "boost", boost)

    @property
    def dim(self) -> int:
        return self.boost.size


def identity_map(d):
    """The identity element of the Mobius group of B^d."""
    return MobiusMap(np.eye(d), np.zeros(d), form=LEFT)


def mobius_apply(g, x):
    """Apply a MobiusMap to one point or a batch of points (rows)."""
    if g.form == LEFT:
        return boost_apply(g.boost, x) @ g.rotation.T
    return boost_apply(-g.boost, np.asarray(x, dtype=float) @ g.rotation.T)


def convert_form(g):
    """Switch a map between its left and right factorizations.

    Left(rot, w) corresponds to Right(rot, -rot @ w); a double conversion
    reproduces the original parameters up to one orthogonal matmul round trip.
    """
    if g.form == LEFT:
        return MobiusMap(g.rotation, -(g.rotation @ g.boost), form=RIGHT)
    return MobiusMap(g.rotation, -(g.rotation.T @ g.boost), form=LEFT)


def mobius_inverse(g):
    """Inverse group element, returned in the same form as the input."""
    left = g if g.form == LEFT else convert_form(g)
    inv = MobiusMap(left.rotation.T, -(left.rotation @ left.boost), form=LEFT)
    return inv if g.form == LEFT else convert_form(inv)


def mobius_compose(g1, g2):
    """Left-form parameters of the composition g1 o g2.

    The parameters are recovered from the action itself: the boost is the
    point sent to the origin, w = g2^-1(g1^-1(0)), and column j of the
    rotation is the image of the boosted basis vector M_{-w}(e_j).  No
    symbolic composition law is used.
    """
    d = g1.dim
    if g2.dim != d:
        raise GeometryError("cannot compose maps of different dimensions")
    origin = np.zeros(d)
    w = mobius_apply(mobius_inverse(g2), mobius_apply(mobius_inverse(g1), origin))
    images = mobius_apply(g1, mobius_apply(g2, boost_apply(-w, np.eye(d))))
    zeta = images.T
    residual = float(np.max(np.abs(zeta.T @ zeta - np.eye(d))))
    if residual > 1e-8:
        raise GeometryError(f"composition lost orthogonality (residual {residual:.3e})")
    if residual > ROTATION_TOL:
        zeta = nearest_rotation(zeta)
    return MobiusMap(zeta, w, form=LEFT)


# ---------------------------------------------------------------------------
# metric quantities


def hyperbolic_distance(x, y):
    """Distance in the curvature -1 metric ds = 2|dx| / (1 - |x|^2) on the ball.

    Computed as arcosh(1 + 2|x-y|^2 / ((1-|x|^2)(1-|y|^2))); symmetric, zero
    exactly when x == y, and invariant under every MobiusMap.
    """
    x = as_ball_point(x)
    y = as_ball_point(y, x.size)
    diff = x - y
    q = 1.0 + 2.0 * float(diff @ diff) / ((1.0 - float(x @ x)) * (1.0 - float(y @ y)))
    return float(np.arccosh(max(q, 1.0)))


def cross_ratio(a, b, c, e):
    """|a-c||b-e| / (|a-e||b-c|) for four pairwise distinct sphere points.

    Each point enters the numerator and denominator once, so the conformal
    factors of a Mobius map cancel and the value is invariant when the same
    map is applied to all four points.
    """
    pts = [as_sphere_point(p) for p in (a, b, c, e)]
    for i in range(4):
        for j in range(i + 1, 4):
            if float(np.linalg.norm(pts[i] - pts[j])) <= DISTINCT_TOL:
                raise GeometryError("cross-ratio requires four pairwise distinct points")
    a, b, c, e = pts
    return float(
        np.linalg.norm(a - c) * np.linalg.norm(b - e)
        / (np.linalg.norm(a - e) * np.linalg.norm(b - c))
    )


def infinitesimal_generator(A, Z, y):
    """Velocity at y of a one-parameter family of Mobius maps.

    Returns A y - <Z, y> y + (1 + |y|^2) Z / 2.  On the unit sphere this
    coincides with the model right-hand side, and the pure-boost family
    t -> M_{t w} is generated by A = 0, Z = -2 w.
    """
    A = as_antisymmetric(A)
    Z = as_vector(Z, A.shape[0])
    y = as_vector(y, Z.size)
    return _generator(A, Z, y)


def _generator(A, Z, y):
    """infinitesimal_generator without validation, for right-hand sides run
    once per RK stage: (1 + |y|^2) Z / 2 - <Z, y> y, plus A y unless A is None.
    The rotation-first reduced flow and the mean-field flow share it."""
    out = 0.5 * (1.0 + float(y @ y)) * Z - float(Z @ y) * y
    return out if A is None else out + A @ y
