"""Dynamics reduced to the Mobius group.

A trajectory of the full system with one shared rotation term stays on the
group orbit of its initial configuration: x_i(t) = g(t)(base_i) for one
Mobius map g(t).  ReducedState holds g as a boost and a rotation in either
factorization of geometry.MobiusMap, boost-first (LEFT, x_i = zeta M_w(base_i))
or rotation-first (RIGHT, x_i = M_{-z}(zeta base_i)).  This module integrates
those coordinates in either form, reconstructs full configurations from them
with the unchecked kernel geometry._mobius_apply, integrates the boost-only
flow that decides synchrony, and handles base-point changes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    BOUNDARY_TOL,
    NORM_DRIFT_LIMIT,
    IntegrationAbort,
    _ball_step,
    _drive,
    _pair_dots,
    as_rotation_terms,
    as_weights,
    validate_configuration,
)
from .geometry import (
    LEFT,
    GeometryError,
    MobiusMap,
    _array,
    _coupling_sum,
    _generator,
    _mobius_apply,
    as_ball_point,
    boost_apply,  # noqa: F401  (unused here; perfbench/tracing.py rebinds reduced.boost_apply)
    mobius_apply,
    nearest_rotation,
)

__all__ = [
    "ReducedState",
    "validate_base_points",
    "initial_state",
    "skew_pair_matrix",
    "reduced_rhs",
    "w_rhs",
    "reconstruct",
    "integrate_reduced",
    "integrate_w",
    "basepoint_change",
    "recover_rotation",
]


SAME_DIRECTION = 1.0 - 4.0 * 2.0**-52  # normalized rows this aligned count as one point


def validate_base_points(p):
    """Check that a base configuration is in general position: unit rows,
    pairwise distinct points, and at least three distinct directions up to
    sign (otherwise the orbit coordinates are not unique).

    Two rows are one point when the dot g_ij = <u_i, u_j> of the normalized
    rows u_i = p_i / |p_i| reaches SAME_DIRECTION = 1 - 4 * 2^-52.  Every exact
    duplicate row does, whatever its rounded norm, since a normalized row's
    computed <u, u> is within a few units in the last place of 1.  As
    |u_i - u_j|^2 = 2 - 2 g_ij, the resolution is 2^-24.5, about 4.2e-8, and
    every pair closer than about 1e-8, whose raw dot rounds to 1, is rejected.
    The dots are streamed in fixed blocks of rows (dynamics._pair_dots), so
    memory does not grow as N^2, and only if _may_coincide finds two rows
    within delta in every coordinate: with e = 2^-53, |u_i|^2 is 1 within
    (d + 6) e and g_ij is the exact dot within d e, so a failing pair has
    |u_i - u_j|^2 <= (4d + 28) e < delta^2 = (d + 8) 2^-50.
    """
    p = validate_configuration(p)
    n = p.shape[0]
    if n < 3:
        raise GeometryError("base configurations need at least 3 points")
    u = p / np.linalg.norm(p, axis=1)[:, None]
    if _may_coincide(u) and any(float(g.max()) >= SAME_DIRECTION for g in _pair_dots(u)):
        raise GeometryError("base points must be pairwise distinct: no two closer than "
                            "about 1e-8; directions within 4.2e-8 count as one point")
    reps = []
    for row in p:
        if all(abs(float(row @ r)) < 1.0 - 1e-10 for r in reps):
            reps.append(row)
        if len(reps) >= 3:
            break
    if len(reps) < 3:
        raise GeometryError("base points span fewer than three directions up to sign")
    return p


def _may_coincide(u):
    """Whether two rows of u may be within delta in every coordinate: such rows
    have dots q with one unit direction (each off by d 2^-53 at most) within
    delta + delta^2.  Sorted by q, rows up to 8 apart are compared, then True."""
    delta2 = (u.shape[1] + 8) * 2.0**-50
    delta = delta2**0.5
    v = np.linspace(1.0, 2.0, u.shape[1])
    q = u @ (v / np.linalg.norm(v))
    order = np.argsort(q)
    q, u = q[order], u[order]
    for k in range(1, u.shape[0]):
        close = np.flatnonzero(q[k:] - q[:-k] <= delta + delta2)
        if close.size == 0:
            return False
        if k > 8 or np.any(np.all(np.abs(u[close + k] - u[close]) <= delta, axis=1)):
            return True
    return False


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


def skew_pair_matrix(y1, y2):
    """y2 y1^T - y1 y2^T, the antisymmetric operator y -> <y1, y> y2 - <y2, y> y1
    spanned by a pair: its image is orthogonal to y, and it is zero when y1
    and y2 are parallel."""
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    return np.outer(y2, y1) - np.outer(y1, y2)


def reduced_rhs(state, A, weights):
    """Time derivatives (boost', zeta') of orbit coordinates in either form,
    with Z = sum_i a_i x_i for the weights a.

    LEFT: w' = -(1 - |w|^2) Z0 / 2 and zeta' = A zeta + zeta (w Z0^T - Z0 w^T)
    with Z0 = Z(M_w(p)).  Z is linear, so the coupling vector at the
    configuration zeta M_w(p) is zeta Z0 and w' never touches zeta; both come
    from geometry._coupling_sum, the arithmetic of w_rhs.
    RIGHT: z' = A z + (1 + |z|^2) Z / 2 - <Z, z> z, the Mobius generator of
    geometry.infinitesimal_generator, and zeta' = (A + skew(z, Z)) zeta, with
    Z evaluated at M_{-z}(zeta p).  A is None or one shared (d, d) term
    (dynamics.as_rotation_terms without a particle count).
    """
    boost, zeta, base = state.boost, state.zeta, state.base
    A = as_rotation_terms(A, boost.size)
    if float(np.linalg.norm(boost)) >= 1.0 - BOUNDARY_TOL:
        raise GeometryError("boost parameter has reached the ball boundary")
    a = as_weights(weights, base.shape[0])
    if state.form == LEFT:
        wdot, Z0, _ = _coupling_sum(base, a)(boost, float(boost.dot(boost)))
        B = skew_pair_matrix(Z0, boost)
        return np.array(wdot), zeta @ B if A is None else A @ zeta + zeta @ B
    Z = a @ _mobius_apply(zeta, boost, state.form, base)  # M_{-z}(zeta p)
    generator = skew_pair_matrix(boost, Z) if A is None else A + skew_pair_matrix(boost, Z)
    return np.array(_generator(A, Z, boost, float(boost @ boost))), generator @ zeta


def w_rhs(w, base, weights):
    """Boost-only flow for linear coupling:
    w' = -(1 - |w|^2) sum_i a_i M_w(p_i) / 2.  The rotation drops out, so this
    d-dimensional equation alone decides synchrony versus incoherence.

    Validates like integrate_w: base must pass
    dynamics.validate_configuration (unit rows), w must be a finite vector
    of its dimension strictly inside the unit ball, and the weights must pass
    dynamics.as_weights; each violation raises GeometryError.  The flow itself
    is the coupling-sum kernel geometry._coupling_sum, the same arithmetic
    that integrate_w and the boost-first reduced_rhs run in every RK stage.
    """
    base = validate_configuration(base)
    w = as_ball_point(w, base.shape[1])
    weights = as_weights(weights, base.shape[0])
    return np.array(_coupling_sum(base, weights)(w, float(w.dot(w)))[0])


# ---------------------------------------------------------------------------
# reconstruction and integration


def reconstruct(state):
    """Full configuration represented by reduced coordinates; rows on the sphere.
    The state was checked when it was built, so the unchecked kernel
    geometry._mobius_apply maps its base: the doubles of mobius_apply."""
    if not isinstance(state, ReducedState):
        raise TypeError(f"cannot reconstruct from {state!r}")
    return _mobius_apply(state.zeta, state.boost, state.form, state.base)


_CHUNK = 1024  # RK steps whose stages integrate_reduced buffers per rotation pass


def integrate_reduced(state0, A, weights, h, t_end, stride=1):
    """RK4 on the orbit coordinates of state0 as a skew product on the Mobius
    group: a dynamics.Trajectory of (d + 1, d) states (boost; zeta) in the
    form of state0, for A None or one shared (d, d) term.  Both forms run
    boost-first (RIGHT enters as w = -zeta^T z, leaves as z = -zeta w).

    The step that _drive takes runs integrate_w's ball step
    (dynamics._ball_step) on w, bit for bit, and puts each stage's (w, Z0)
    into a buffer of _CHUNK steps.  Each full buffer, and the rest at the
    stop, then advances the rotation zeta <- E zeta cay(Omega), one whole
    chunk at a time: cay is the Cayley map, Omega the RK-Munthe-Kaas
    increment of Omega' = (I + Omega/2) B (I - Omega/2) on the stages'
    B = w Z0^T - Z0 w^T, and E the polar factor of RK4's rotation step
    I + hA + ... + (hA)^4/24.  zeta and its defect are stored only at the
    recorded steps.  If E's polynomial is off SO(d) by over NORM_DRIFT_LIMIT,
    or overflows, the first step is the abort "unstable", or "nonfinite".
    Nothing is projected: info is the defect max |zeta^T zeta - I|."""
    if not isinstance(state0, ReducedState):
        raise TypeError("integrate_reduced expects orbit coordinates (ReducedState)")
    base, zeta, d = state0.base, state0.zeta, state0.boost.size
    A = as_rotation_terms(A, d)
    coupling = _coupling_sum(base, as_weights(weights, base.shape[0]))
    eye = np.eye(d)
    with np.errstate(over="ignore", invalid="ignore"):
        hA = np.zeros((d, d)) if A is None else h * A
        poly = eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0)
        defect = float(np.max(np.abs(poly.T @ poly - eye)))
    fail = None if defect <= NORM_DRIFT_LIMIT else "unstable" if defect < np.inf else "nonfinite"
    E = eye if fail else nearest_rotation(poly)
    stages = np.empty((4 * _CHUNK, 2, d))  # (w, Z0) of every RK stage of the chunk
    calls = done = 0  # stages in the chunk, accepted steps
    zetas, defects = [zeta], [0.0]

    def rhs(w, w2):
        nonlocal calls
        wdot, Z0, _ = coupling(w, w2)
        stages[calls] = w, Z0
        calls += 1
        return wdot

    def keep():
        zetas.append(zeta)
        defects.append(float(np.max(np.abs(zeta.T @ zeta - eye))))

    def advance(n):  # the rotation over the chunk's first n steps, which end at step done
        nonlocal zeta
        w, Z0 = (stages[:4 * n, j].reshape(n, 4, d) for j in (0, 1))
        B = w[..., :, None] * Z0[..., None, :] - Z0[..., :, None] * w[..., None, :]
        k1 = B[:, 0]
        k2 = (eye + (h / 4.0) * k1) @ B[:, 1] @ (eye - (h / 4.0) * k1)
        k3 = (eye + (h / 4.0) * k2) @ B[:, 2] @ (eye - (h / 4.0) * k2)
        k4 = (eye + (h / 2.0) * k3) @ B[:, 3] @ (eye - (h / 2.0) * k3)
        half = 0.5 * ((h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))  # Omega / 2
        every = int(stride)
        for k, cay in enumerate(np.linalg.solve(eye - half, eye + half), done - n + 1):
            zeta = E @ zeta @ cay
            if k % every == 0:
                keep()

    w0 = state0.boost if state0.form == LEFT else -(zeta.T @ state0.boost)
    ball = _ball_step(rhs, w0, h)

    def step(w):  # ball keeps the |w|^2 of the state it returned, so that state goes on unchanged
        nonlocal calls, done
        w, info, stop = ball(w)
        if not (stop or fail):
            done += 1
            if done % _CHUNK == 0:
                advance(_CHUNK)
                calls = 0
        return w, info, stop or fail

    def finish(traj):  # zeta at the records of traj, the last accepted step included
        advance(done % _CHUNK)
        if len(zetas) < len(traj.times):
            keep()
        zeta_k = np.stack(zetas)
        states = np.concatenate([traj.states[:, None, :], zeta_k], axis=1)
        if state0.form != LEFT:  # z = (-zeta) w, never -0
            states[:, 0] = np.einsum("kij,kj->ki", -zeta_k, traj.states)
        return replace(traj, states=states, info=np.array(defects))

    try:
        traj = _drive(step, w0, h, t_end, stride)
    except IntegrationAbort as exc:
        exc.trajectory = finish(exc.trajectory)
        raise
    return finish(traj)


def integrate_w(w0, base, weights, h, t_end, stride=1):
    """Integrate the boost-only flow with RK4; returns the
    dynamics.Trajectory of the (d,) boosts w.

    w is a ball point, stepped by dynamics._ball_step.  Forward time
    drives it to the boundary in finite numerical time once the population
    synchronizes, so that stop ("boundary") is an expected exit, not an
    error.  The last accepted state is always recorded.
    """
    base = validate_configuration(base)
    w0 = as_ball_point(w0, base.shape[1])
    coupling = _coupling_sum(base, as_weights(weights, base.shape[0]))

    def rhs(w, w2):  # w_rhs on the unvalidated kernel, its base copy made once
        return coupling(w, w2)[0]

    return _drive(_ball_step(rhs, w0, h), w0, h, t_end, stride)


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
    Procrustes with the determinant constraint): the polar factor of
    target^T source, geometry.nearest_rotation."""
    s = _array(source, "source", (None, None))
    return nearest_rotation(_array(target, "target", s.shape).T @ s)
