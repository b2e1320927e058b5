"""Dynamics reduced to the Mobius group.

A trajectory of the full system with one shared rotation term stays on the
group orbit of its initial configuration, so it is determined by a boost
vector w (or z) and a rotation.  This module integrates those coordinates,
reconstructs full configurations from them, and handles base-point changes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BOUNDARY_TOL,
    LinearWeighted,
    MeanField,
    _boundary,
    _drive,
    _inside_ball,
    _result,
    order_parameter,
    validate_configuration,
)
from .geometry import (
    DISTINCT_TOL,
    GeometryError,
    as_antisymmetric,
    as_ball_point,
    as_rotation,
    boost_apply,
    mobius_apply,
    nearest_rotation,
)

__all__ = [
    "ReducedStateW",
    "ReducedStateZ",
    "ReducedPoint",
    "ReducedPointZ",
    "WTrajectory",
    "integrate_reduced_z",
    "validate_base_points",
    "initial_state",
    "skew_pair_apply",
    "skew_pair_matrix",
    "wzeta_rhs",
    "zzeta_rhs",
    "w_rhs",
    "reconstruct",
    "integrate_reduced",
    "integrate_w",
    "basepoint_change",
    "recover_rotation",
]


def validate_base_points(p):
    """Check that a base configuration is in general position.

    Required: unit rows, pairwise Euclidean distance above DISTINCT_TOL, and
    at least three distinct directions up to sign (otherwise the orbit
    coordinates are not unique).
    """
    p = validate_configuration(p)
    n = p.shape[0]
    if n < 3:
        raise GeometryError("base configurations need at least 3 points")
    gram = p @ p.T
    d2 = np.maximum(2.0 - 2.0 * gram, 0.0)
    iu = np.triu_indices(n, 1)
    if float(np.min(d2[iu])) <= DISTINCT_TOL**2:
        raise GeometryError("base points must be pairwise distinct (distance > 1e-10)")
    reps = []
    for row in p:
        if all(abs(float(row @ r)) < 1.0 - 1e-10 for r in reps):
            reps.append(row)
        if len(reps) >= 3:
            break
    if len(reps) < 3:
        raise GeometryError("base points span fewer than three directions up to sign")
    return p


@dataclass(frozen=True)
class ReducedStateW:
    """Orbit coordinates (w, zeta): the configuration is x_i = zeta M_w(base_i)."""

    w: np.ndarray
    zeta: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        base = validate_base_points(self.base)
        w = as_ball_point(self.w, base.shape[1])
        zeta = as_rotation(self.zeta)
        if zeta.shape[0] != base.shape[1]:
            raise GeometryError("rotation dimension does not match the base points")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "base", base)


@dataclass(frozen=True)
class ReducedStateZ:
    """Orbit coordinates (z, zeta): the configuration is x_i = M_{-z}(zeta base_i)."""

    z: np.ndarray
    zeta: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        base = validate_base_points(self.base)
        z = as_ball_point(self.z, base.shape[1])
        zeta = as_rotation(self.zeta)
        if zeta.shape[0] != base.shape[1]:
            raise GeometryError("rotation dimension does not match the base points")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "base", base)


def initial_state(x0):
    """Coordinates of x0 on its own orbit: base = x0, w = 0, zeta = I.

    This convention makes the reconstruction exact at t = 0.
    """
    x0 = validate_base_points(x0)
    d = x0.shape[1]
    return ReducedStateW(np.zeros(d), np.eye(d), x0)


# ---------------------------------------------------------------------------
# right-hand sides


def skew_pair_apply(y1, y2, y):
    """<y1, y> y2 - <y2, y> y1: the antisymmetric operator spanned by a pair.

    Always orthogonal to y; identically zero when y1 and y2 are parallel.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(y1 @ y) * y2 - float(y2 @ y) * y1


def skew_pair_matrix(y1, y2):
    """Matrix of skew_pair_apply(y1, y2, .): y2 y1^T - y1 y2^T."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    return np.outer(y2, y1) - np.outer(y1, y2)


def _shared_rotation_term(A, d):
    if A is None:
        return None
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise GeometryError(
            "the reduced equations require one shared rotation term; "
            "per-particle terms do not stay on a group orbit"
        )
    return as_antisymmetric(A, d)


def _check_equivariant(spec):
    # Rotation equivariance zeta Z(p) = Z(zeta p) is what lets the boost
    # equation drop the rotation; both supported specs are linear, hence fine.
    if not isinstance(spec, (LinearWeighted, MeanField)):
        raise GeometryError(f"order parameter spec {spec!r} is not rotation-equivariant")


def _wzeta_rhs_raw(w, zeta, base, A, spec):
    boosted = boost_apply(w, base)  # M_w(p)
    Z0 = order_parameter(boosted, spec)  # equivariance: equals zeta^-1 Z at the configuration
    wdot = -0.5 * (1.0 - float(w @ w)) * Z0
    generator = -skew_pair_matrix(zeta @ w, zeta @ Z0)
    if A is not None:
        generator = A + generator
    return wdot, generator @ zeta


def wzeta_rhs(state, A, spec):
    """Time derivatives (w', zeta') of the boost-first orbit coordinates.

    The coupling vector is evaluated at the reconstructed configuration
    zeta M_w(p).  For the rotation-equivariant specs supported here it equals
    zeta Z(M_w(p)), so w' = -(1 - |w|^2) Z(M_w(p)) / 2 is computed without
    touching zeta at all; this is the same arithmetic path as w_rhs.
    """
    _check_equivariant(spec)
    A = _shared_rotation_term(A, state.w.size)
    if float(np.linalg.norm(state.w)) >= 1.0 - BOUNDARY_TOL:
        raise GeometryError("boost parameter has reached the ball boundary")
    return _wzeta_rhs_raw(state.w, state.zeta, state.base, A, spec)


def _zzeta_rhs_raw(z, zeta, base, A, spec):
    x = boost_apply(-z, base @ zeta.T)  # M_{-z}(zeta p)
    Z = order_parameter(x, spec)
    zdot = 0.5 * (1.0 + float(z @ z)) * Z - float(Z @ z) * z
    generator = skew_pair_matrix(z, Z)
    if A is not None:
        zdot = zdot + A @ z
        generator = A + generator
    return zdot, generator @ zeta


def zzeta_rhs(state, A, spec):
    """Time derivatives (z', zeta') of the rotation-first orbit coordinates:
    z' = A z + (1 + |z|^2) Z / 2 - <Z, z> z and zeta' = (A + skew(z, Z)) zeta,
    with Z evaluated at M_{-z}(zeta p)."""
    _check_equivariant(spec)
    A = _shared_rotation_term(A, state.z.size)
    if float(np.linalg.norm(state.z)) >= 1.0 - BOUNDARY_TOL:
        raise GeometryError("boost parameter has reached the ball boundary")
    return _zzeta_rhs_raw(state.z, state.zeta, state.base, A, spec)


def w_rhs(w, base, weights):
    """Boost-only flow for linear coupling:
    w' = -(1 - |w|^2) sum_i a_i M_w(p_i) / 2.  The rotation drops out, so this
    d-dimensional equation alone decides synchrony versus incoherence."""
    w = np.asarray(w, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return -0.5 * (1.0 - float(w @ w)) * (weights @ boost_apply(w, base))


# ---------------------------------------------------------------------------
# reconstruction and integration


def _configuration_w(w, zeta, base):
    """x_i = zeta M_w(base_i), for a base validated once by the caller."""
    return boost_apply(w, base) @ zeta.T


def _configuration_z(z, zeta, base):
    """x_i = M_{-z}(zeta base_i), for a base validated once by the caller."""
    return boost_apply(-z, base @ zeta.T)


def reconstruct(state):
    """Full configuration represented by reduced coordinates; rows on the sphere."""
    if isinstance(state, ReducedStateW):
        return _configuration_w(state.w, state.zeta, state.base)
    if isinstance(state, ReducedStateZ):
        return _configuration_z(state.z, state.zeta, state.base)
    raise TypeError(f"cannot reconstruct from {state!r}")


def _integrate_orbit(p0, zeta0, base, A, spec, raw_rhs, configuration, h, t_end, stride):
    """RK4 on a (ball point p, rotation zeta) pair stacked into one vector.

    After each step the rotation is polar-projected back to SO(d) and its
    pre-projection orthogonality residual recorded; p stops the run cleanly
    at the ball boundary.  Returns ([(t, p, zeta, Znorm, residual)], stop).
    """
    _check_equivariant(spec)
    d = p0.size
    A = _shared_rotation_term(A, d)
    eye = np.eye(d)

    def rhs(y):
        pdot, zetadot = raw_rhs(y[:d], y[d:].reshape(d, d), base, A, spec)
        return np.concatenate([pdot, zetadot.ravel()])

    def after_step(y):
        if _boundary(y[:d]):
            return y, 0.0, "boundary"
        zeta = y[d:].reshape(d, d)
        residual = float(np.max(np.abs(zeta.T @ zeta - eye)))
        return np.concatenate([y[:d], nearest_rotation(zeta).ravel()]), residual, None

    records, stop = _drive(_inside_ball(rhs, d), np.concatenate([p0, zeta0.ravel()]),
                           h, t_end, stride, after_step)
    rows = []
    for t, y, residual in records:
        p, zeta = y[:d], y[d:].reshape(d, d)
        Z = order_parameter(configuration(p, zeta, base), spec)
        rows.append((t, p, zeta, float(np.linalg.norm(Z)), residual))
    return rows, stop


@dataclass(frozen=True)
class ReducedPoint:
    """One recorded instant of a reduced run.

    ortho_residual is the pre-projection orthogonality defect of the rotation
    at this step (zero at t = 0).
    """

    t: float
    w: np.ndarray
    zeta: np.ndarray
    Znorm: float
    ortho_residual: float


def integrate_reduced(state0, A, spec, h, t_end, stride=1):
    """RK4 on the (w, zeta) pair.

    The rotation is polar-projected back to SO(d) after every step (the
    projection residual is recorded).  The run stops cleanly, with its last
    accepted state recorded, when the boost reaches the unit-sphere boundary
    (|w| >= 1 - BOUNDARY_TOL after a step, or an RK stage outside the ball);
    a non-finite state raises IntegrationAbort carrying the prefix.
    """
    if not isinstance(state0, ReducedStateW):
        raise TypeError("integrate_reduced expects boost-first coordinates (ReducedStateW)")
    rows, stop = _integrate_orbit(state0.w, state0.zeta, state0.base, A, spec, _wzeta_rhs_raw,
                                  _configuration_w, h, t_end, stride)
    return _result([ReducedPoint(*row) for row in rows], stop)


@dataclass(frozen=True)
class ReducedPointZ:
    """One recorded instant of a rotation-first reduced run."""

    t: float
    z: np.ndarray
    zeta: np.ndarray
    Znorm: float
    ortho_residual: float


def integrate_reduced_z(state0, A, spec, h, t_end, stride=1):
    """RK4 on the (z, zeta) pair; same guards and recording as integrate_reduced."""
    if not isinstance(state0, ReducedStateZ):
        raise TypeError("integrate_reduced_z expects rotation-first coordinates (ReducedStateZ)")
    rows, stop = _integrate_orbit(state0.z, state0.zeta, state0.base, A, spec, _zzeta_rhs_raw,
                                  _configuration_z, h, t_end, stride)
    return _result([ReducedPointZ(*row) for row in rows], stop)


@dataclass(frozen=True)
class WTrajectory:
    """Recorded boost-only flow: times (k,), ws (k, d), and whether the run
    stopped at the ball boundary (the numerical signature of synchronization)."""

    times: np.ndarray
    ws: np.ndarray
    boundary_reached: bool

    @property
    def final(self):
        return self.ws[-1]


def integrate_w(w0, base, weights, h, t_end, stride=1):
    """Integrate the boost-only flow with RK4.

    Stops cleanly when |w| reaches 1 - BOUNDARY_TOL or an RK stage leaves the
    ball: forward time drives the boost to the boundary in finite numerical
    time once the population synchronizes, so this is an expected exit, not
    an error.  The last accepted state is always recorded.
    """
    base = validate_configuration(base)
    w0 = as_ball_point(w0, base.shape[1])
    weights = np.asarray(weights, dtype=float)
    if weights.size != base.shape[0]:
        raise GeometryError(f"{weights.size} weights for {base.shape[0]} base points")
    rhs = _inside_ball(lambda w: w_rhs(w, base, weights), w0.size)
    records, stop = _drive(rhs, w0, h, t_end, stride, lambda w: (w, 0.0, _boundary(w)))
    times, ws, _ = map(np.asarray, zip(*records))
    return _result(WTrajectory(times, ws, stop[0] == "boundary"), stop)


# ---------------------------------------------------------------------------
# base-point changes


def basepoint_change(w, mobius):
    """New boost coordinate after moving the base points by a Mobius map.

    If the configuration has coordinates (w, zeta) over base p, then over the
    base p' = M(p) its boost coordinate is M(w): the coordinates transform
    exactly as the base points do.
    """
    w = as_ball_point(w)
    return mobius_apply(mobius, w)


def recover_rotation(source, target):
    """Rotation R in SO(d) minimizing sum_i |R s_i - t_i|^2 (orthogonal
    Procrustes with the determinant constraint)."""
    s = np.asarray(source, dtype=float)
    t = np.asarray(target, dtype=float)
    if s.shape != t.shape or s.ndim != 2:
        raise GeometryError("source and target must be matching (N, d) arrays")
    u, _, vt = np.linalg.svd(s.T @ t)
    fix = np.ones(s.shape[1])
    if float(np.linalg.det(u) * np.linalg.det(vt)) < 0.0:
        fix[-1] = -1.0
    return (vt.T * fix) @ u.T
