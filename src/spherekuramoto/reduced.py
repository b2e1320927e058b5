"""Dynamics reduced to the Mobius group.

A trajectory of the full system with one shared rotation term stays on the
group orbit of its initial configuration: x_i(t) = g(t)(base_i) for one
Mobius map g(t).  ReducedState holds g as a boost and a rotation in either
factorization of geometry.MobiusMap, boost-first (LEFT, x_i = zeta M_w(base_i))
or rotation-first (RIGHT, x_i = M_{-z}(zeta base_i)).  This module integrates
those coordinates in either form, reconstructs full configurations from them
with geometry.mobius_apply, integrates the boost-only flow that decides
synchrony, and handles base-point changes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BOUNDARY_TOL,
    NORM_DRIFT_LIMIT,
    _drive,
    _result,
    as_weights,
    validate_configuration,
)
from .geometry import (
    LEFT,
    RIGHT,
    GeometryError,
    MobiusMap,
    _boost,
    _coupling_sum,
    _generator,
    as_antisymmetric,
    as_ball_point,
    boost_apply,  # noqa: F401  (unused here; perfbench/tracing.py rebinds reduced.boost_apply)
    mobius_apply,
    nearest_rotation,
)

__all__ = [
    "ReducedState",
    "ReducedPoint",
    "WTrajectory",
    "validate_base_points",
    "initial_state",
    "skew_pair_apply",
    "skew_pair_matrix",
    "reduced_rhs",
    "w_rhs",
    "reconstruct",
    "integrate_reduced",
    "integrate_w",
    "basepoint_change",
    "recover_rotation",
]


def validate_base_points(p):
    """Check that a base configuration is in general position.

    Required: unit rows, pairwise distinct points, and at least three
    distinct directions up to sign (otherwise the orbit coordinates are not
    unique).

    The distance test reads the gram matrix: |p_i - p_j|^2 = 2 - 2 g_ij, and
    for every double g < 1 the computed 2 - 2g is at least 2^-52, far above
    DISTINCT_TOL^2, so a pair fails exactly when g_ij >= 1.  Its resolution
    is therefore about 1e-8: closer pairs have a gram entry that rounds to 1
    and are rejected.
    """
    p = validate_configuration(p)
    n = p.shape[0]
    if n < 3:
        raise GeometryError("base configurations need at least 3 points")
    gram = p @ p.T
    np.fill_diagonal(gram, -np.inf)
    if float(np.max(gram)) >= 1.0:
        raise GeometryError("base points must be pairwise distinct: "
                            "no two closer than about 1e-8")
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
class ReducedState:
    """Orbit coordinates: the configuration is x_i = g(base_i) with
    g = MobiusMap(zeta, boost, form).

    form LEFT is boost-first, x_i = zeta M_w(base_i) with boost w; RIGHT is
    rotation-first, x_i = M_{-z}(zeta base_i) with boost z.  Both factor the
    same group element: (w, zeta) in LEFT is (-zeta w, zeta) in RIGHT.
    """

    boost: np.ndarray
    zeta: np.ndarray
    base: np.ndarray
    form: str = LEFT

    def __post_init__(self):
        base = validate_base_points(self.base)
        g = MobiusMap(self.zeta, self.boost, self.form)
        if g.dim != base.shape[1]:
            raise GeometryError("rotation dimension does not match the base points")
        object.__setattr__(self, "boost", g.boost)
        object.__setattr__(self, "zeta", g.rotation)
        object.__setattr__(self, "base", base)


def initial_state(x0):
    """Coordinates of x0 on its own orbit: base = x0, w = 0, zeta = I.

    This convention makes the reconstruction exact at t = 0.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.shape[1] if x0.ndim == 2 else 0  # a bad shape fails base validation first
    return ReducedState(np.zeros(d), np.eye(d), x0)


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


def _zzeta_rhs_raw(z, zeta, base, A, a):
    x = base @ zeta.T
    x, _ = _boost(-z, x, np.einsum("ij,ij->i", x, x))  # M_{-z}(zeta p)
    Z = a @ x
    generator = skew_pair_matrix(z, Z)
    if A is not None:
        generator = A + generator
    return _generator(A, Z, z), generator @ zeta


def _orbit_rhs(form, base, A, weights):
    """(boost, zeta) -> (boost', zeta') for orbit coordinates over base in the
    given form; A is validated.  The weights are checked and |p_i|^2 is
    computed here, once per run, not in every RK stage.

    LEFT sums Z(M_w(p)) with the fused kernel geometry._coupling_sum; RIGHT
    boosts the rotated points and takes their order parameter.  Both are
    kept: the rotation-first integration is an independent check on the
    boost-first one.
    """
    a = as_weights(weights, base.shape[0])
    if form == RIGHT:
        return lambda z, zeta: _zzeta_rhs_raw(z, zeta, base, A, a)
    x2 = np.einsum("ij,ij->i", base, base)

    def wzeta(w, zeta):
        Z0, _ = _coupling_sum(w, base, x2, a)  # Z is linear: equals zeta^-1 Z at the configuration
        generator = -skew_pair_matrix(zeta @ w, zeta @ Z0)
        if A is not None:
            generator = A + generator
        return -0.5 * (1.0 - float(w @ w)) * Z0, generator @ zeta

    return wzeta


def reduced_rhs(state, A, weights):
    """Time derivatives (boost', zeta') of orbit coordinates in either form,
    with Z = sum_i a_i x_i for the weights a.

    LEFT: w' = -(1 - |w|^2) Z(M_w(p)) / 2 and zeta' = (A - skew(zeta w,
    zeta Z(M_w(p)))) zeta.  Z is linear, so the coupling vector at the
    configuration zeta M_w(p) is zeta Z(M_w(p)) and w' never touches zeta;
    it is the arithmetic of w_rhs.
    RIGHT: z' = A z + (1 + |z|^2) Z / 2 - <Z, z> z, the Mobius generator of
    geometry.infinitesimal_generator, and zeta' = (A + skew(z, Z)) zeta, with
    Z evaluated at M_{-z}(zeta p).
    """
    A = _shared_rotation_term(A, state.boost.size)
    if float(np.linalg.norm(state.boost)) >= 1.0 - BOUNDARY_TOL:
        raise GeometryError("boost parameter has reached the ball boundary")
    return _orbit_rhs(state.form, state.base, A, weights)(state.boost, state.zeta)


def w_rhs(w, base, weights):
    """Boost-only flow for linear coupling:
    w' = -(1 - |w|^2) sum_i a_i M_w(p_i) / 2.  The rotation drops out, so this
    d-dimensional equation alone decides synchrony versus incoherence.

    Validates like geometry.boost_apply: w must be a finite vector strictly
    inside the unit ball, base must match its dimension, the weights must
    pass dynamics.as_weights, and no boost denominator may fall below 1e-300 in
    magnitude; each violation raises GeometryError.  The sum itself is the
    fused kernel geometry._coupling_sum, the same arithmetic that integrate_w
    and the boost-first reduced_rhs run in every RK stage.
    """
    w = as_ball_point(w)
    base = np.atleast_2d(np.asarray(base, dtype=float))
    if base.shape[1] != w.size:
        raise GeometryError(f"dimension mismatch: boost in R^{w.size}, point in R^{base.shape[1]}")
    weights = as_weights(weights, base.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        Z0, denom = _coupling_sum(w, base, np.einsum("ij,ij->i", base, base), weights)
    if np.any(np.abs(denom) < 1e-300):
        raise GeometryError("boost denominator vanished; state is corrupted")
    return -0.5 * (1.0 - float(w @ w)) * Z0


# ---------------------------------------------------------------------------
# reconstruction and integration


def reconstruct(state):
    """Full configuration represented by reduced coordinates; rows on the sphere."""
    if not isinstance(state, ReducedState):
        raise TypeError(f"cannot reconstruct from {state!r}")
    return mobius_apply(MobiusMap(state.zeta, state.boost, state.form), state.base)


@dataclass(frozen=True)
class ReducedPoint:
    """One recorded instant of a reduced run, in the form of its initial state.

    ortho_residual is the pre-projection orthogonality defect of the rotation
    at this step (zero at t = 0).
    """

    t: float
    boost: np.ndarray
    zeta: np.ndarray
    ortho_residual: float


def integrate_reduced(state0, A, weights, h, t_end, stride=1):
    """RK4 on the orbit coordinates (boost, zeta) of state0, in its form,
    stacked into one vector.

    The rotation is polar-projected back to SO(d) after every step (the
    projection residual is recorded); a step whose residual exceeds
    NORM_DRIFT_LIMIT is a failed step, the abort "unstable".  The boost is
    the ball point of dynamics._drive's stop contract: the run stops cleanly
    at the boundary with its last accepted state recorded, and an abort
    raises IntegrationAbort carrying the prefix.
    """
    if not isinstance(state0, ReducedState):
        raise TypeError("integrate_reduced expects orbit coordinates (ReducedState)")
    base, form, d = state0.base, state0.form, state0.boost.size
    raw_rhs = _orbit_rhs(form, base, _shared_rotation_term(A, d), weights)
    eye = np.eye(d)

    def rhs(y):
        pdot, zetadot = raw_rhs(y[:d], y[d:].reshape(d, d))
        return np.concatenate([pdot, zetadot.ravel()])

    def after_step(y):
        zeta = y[d:].reshape(d, d)
        residual = float(np.max(np.abs(zeta.T @ zeta - eye)))
        if residual > NORM_DRIFT_LIMIT:
            return y, residual, "unstable"
        return np.concatenate([y[:d], nearest_rotation(zeta).ravel()]), residual, None

    y0 = np.concatenate([state0.boost, state0.zeta.ravel()])
    records, stop = _drive(rhs, y0, h, t_end, stride, d, after_step)
    return _result([ReducedPoint(t, y[:d], y[d:].reshape(d, d), residual)
                    for t, y, residual in records], stop)


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

    w is the ball point of dynamics._drive's stop contract.  Forward time
    drives it to the boundary in finite numerical time once the population
    synchronizes, so that stop is an expected exit, not an error.  The last
    accepted state is always recorded.
    """
    base = validate_configuration(base)
    w0 = as_ball_point(w0, base.shape[1])
    weights = as_weights(weights, base.shape[0])
    x2 = np.einsum("ij,ij->i", base, base)

    def rhs(w):  # w_rhs on the unvalidated kernel, with |base_i|^2 computed once
        return -0.5 * (1.0 - float(w @ w)) * _coupling_sum(w, base, x2, weights)[0]

    records, stop = _drive(rhs, w0, h, t_end, stride, w0.size)
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
