"""The full N-body system on the sphere: order parameters, the governing
right-hand side, fixed-step RK4 integration, and synchrony diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, as_antisymmetric
from .sampling import rng_from, uniform_sphere

NORM_DRIFT_LIMIT = 1e-3  # largest drift of an unprojected run, or defect a projection may correct
BOUNDARY_TOL = 1e-12  # a ball coordinate with |y| >= 1 - BOUNDARY_TOL has reached the boundary
NEAR_BOUNDARY = 0.1  # an RK stage leaves the ball as synchrony only from 1 - |y| <= this

__all__ = [
    "SimulationError",
    "IntegrationAbort",
    "TrajectoryPoint",
    "SyncMetrics",
    "equal_weights",
    "explicit_weights",
    "gaussian_riemann_weights",
    "majority_weights",
    "mean_field_weights",
    "as_weights",
    "random_configuration",
    "validate_configuration",
    "order_parameter",
    "full_rhs",
    "rk4_step",
    "integrate_full",
    "min_pair_dot",
    "sync_metrics",
]


class SimulationError(RuntimeError):
    """Integration failed (non-finite state, norm drift or an unstable step)."""


class IntegrationAbort(SimulationError):
    """Integration failure that still carries the valid prefix of the run.

    trajectory has the integrator's return type, cut at the last accepted
    state; reason is "drift", "nonfinite" or "unstable".
    """

    def __init__(self, message, trajectory, reason):
        super().__init__(message)
        self.trajectory = trajectory
        self.reason = reason


# ---------------------------------------------------------------------------
# coupling weights: the order parameter is Z = sum_i a_i x_i


def as_weights(a, n):
    """The coupling weights a of Z = sum_i a_i x_i over n points (the
    particles, or the base points of their orbit) as a float array.

    Raises GeometryError unless a is a finite 1-d array of length n.  Every
    public function that takes weights calls this once, at entry.
    """
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"weights must be numbers: {exc}") from exc
    if a.ndim != 1:
        raise GeometryError(f"weights must be a 1-d array, got shape {a.shape}")
    if a.size != n:
        raise GeometryError(f"{a.size} weights for {n} base points")
    if not np.all(np.isfinite(a)):
        raise GeometryError("weights must be finite")
    return a


def mean_field_weights(n, K):
    """Mean-field coupling Z = (K/N) sum_i x_i as weights: K/n each."""
    return np.full(int(n), K / int(n))


def equal_weights(n):
    return np.full(int(n), 1.0 / int(n))


def explicit_weights(values, normalized=True):
    """Validate user-supplied weights; with normalized=True they must sum to 1."""
    a = as_weights(values, len(values))
    if np.any(a < 0.0):
        raise GeometryError("weights must be nonnegative")
    if normalized and abs(float(a.sum()) - 1.0) > 1e-12:
        raise GeometryError(f"weights sum to {float(a.sum()):.17g}, expected 1")
    return a


def gaussian_riemann_weights(n, half_width=3.0):
    """Riemann-sum weights of a standard normal density.

    The interval [-half_width, half_width] is split into n equal subintervals;
    each weight is the density at the midpoint times the subinterval length,
    normalized so the total is 1.
    """
    n = int(n)
    if n < 1:
        raise GeometryError("need at least one weight")
    edges = np.linspace(-half_width, half_width, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    w = np.exp(-0.5 * mids**2) * (edges[1] - edges[0])
    return w / w.sum()


def majority_weights(n, dominant=0.6, index=0):
    """One particle carries weight dominant, the rest split the remainder evenly."""
    n = int(n)
    if n < 2:
        raise GeometryError("majority weights need at least two particles")
    if not 0.0 < dominant < 1.0:
        raise GeometryError("dominant weight must lie in (0, 1)")
    w = np.full(n, (1.0 - dominant) / (n - 1))
    w[int(index)] = dominant
    return w


# ---------------------------------------------------------------------------
# configurations and the governing field


def random_configuration(n, d, seed, stream=0):
    """Seeded i.i.d. uniform points on the sphere (normalized Gaussians)."""
    return uniform_sphere(int(n), int(d), rng_from(seed, stream))


def validate_configuration(x):
    """Check an (N, d) array of unit rows and return it as float."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise GeometryError(f"configuration must be (N, d), got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 2:
        raise GeometryError("configuration needs N >= 1 points in dimension d >= 2")
    if not np.all(np.isfinite(x)):
        raise GeometryError("configuration has non-finite entries")
    err = float(np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)))
    if err > 1e-12:
        raise GeometryError(f"configuration is off the unit sphere by {err:.3e}")
    return x


def order_parameter(x, weights):
    """Coupling vector Z = weights @ x of a configuration (rows of x on the
    sphere).  weights is an as_weights array; only its length is checked,
    since full_rhs calls this in every RK stage.
    """
    x = np.asarray(x, dtype=float)
    if weights.size != x.shape[0]:
        raise GeometryError(f"{weights.size} weights for {x.shape[0]} particles")
    return weights @ x


def _validate_rotation_terms(A, n, d):
    if A is None:
        return None
    A = np.asarray(A, dtype=float)
    if A.ndim == 2:
        return as_antisymmetric(A, d)
    if A.ndim == 3:
        if A.shape[0] != n:
            raise GeometryError(f"{A.shape[0]} rotation terms for {n} particles")
        for i in range(A.shape[0]):
            as_antisymmetric(A[i], d)
        return A
    raise GeometryError(f"rotation terms must be (d, d) or (N, d, d), got shape {A.shape}")


def full_rhs(x, A, weights):
    """Velocities x_i' = A_i x_i + Z - <Z, x_i> x_i.

    A may be None (no rotation term), a shared (d, d) antisymmetric matrix,
    or a stack of N per-particle matrices.  Each velocity is tangent to the
    sphere at its particle.
    """
    x = np.asarray(x, dtype=float)
    Z = order_parameter(x, weights)
    v = Z[None, :] - (x @ Z)[:, None] * x
    if A is not None:
        A = np.asarray(A, dtype=float)
        if A.ndim == 2:
            v = v + x @ A.T
        else:
            v = v + np.einsum("nij,nj->ni", A, x)
    return v


# ---------------------------------------------------------------------------
# integration


def rk4_step(f, y, h):
    """One classical 4th-order Runge-Kutta step for autonomous y' = f(y).

    h may be negative (backward time).  Aborts on non-finite output.
    """
    k1 = f(y)
    k2 = f(y + (0.5 * h) * k1)
    k3 = f(y + (0.5 * h) * k2)
    k4 = f(y + h * k3)
    out = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    if not np.all(np.isfinite(out)):
        raise SimulationError("non-finite state after RK4 step")
    return out


def step_count(t_end, h):
    """Number of steps to reach t_end at step h; signs must agree."""
    if t_end == 0.0:
        return 0
    if h == 0.0 or t_end * h <= 0.0:
        raise GeometryError("time step must advance toward t_end (t_end * h > 0)")
    if not np.isfinite(t_end / h):
        raise GeometryError(f"t_end = {t_end} is not a finite number of steps of size {h}")
    n = int(round(t_end / h))
    if n < 1 or abs(n * h - t_end) > 1e-9 * max(abs(t_end), 1.0):
        raise GeometryError(f"t_end = {t_end} is not an integer number of steps of size {h}")
    return n


class _LeftBall(Exception):
    """An RK stage left the open unit ball."""


def _drive(rhs, y0, h, t_end, stride, ball, after_step=lambda y: (y, 0.0, None)):
    """Fixed-step RK4 from y0 under the stop contract of every integrator.

    The first ball coordinates of the state are a point of the open unit
    ball (ball = 0: none); no other integration code tests it.  A step that
    lands within BOUNDARY_TOL of the sphere stops at "boundary" (synchrony),
    as does an RK stage leaving the ball from an accepted state within
    NEAR_BOUNDARY of the sphere; from farther inside, that stage is a failed
    step, "unstable".  A non-finite step stops at "nonfinite".  Otherwise
    after_step(y) returns (y, info, stop): the state as accepted (projected),
    a value recorded with it, and None, "drift" or "unstable" to stop.
    Returns (records, (reason, t)): (t, y, info) at t = 0, every stride
    steps, the last step and, after an early stop, the last accepted state;
    reason is "end" or the stop reason, t the time of the last or the
    rejected step.
    """
    n_steps = step_count(t_end, h)
    if int(stride) < 1:
        raise GeometryError("stride must be a positive integer")
    stride = int(stride)

    def inside(y):  # v.dot(v) >= 1 is exactly norm(v) >= 1
        if y[:ball].dot(y[:ball]) >= 1.0:
            raise _LeftBall
        return rhs(y)

    y, info, last = y0, 0.0, 0
    records = [(0.0, y.copy(), info)]
    # a run that overflows ends as "nonfinite", not with numpy warnings on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            try:
                y_next = rk4_step(inside if ball else rhs, y, h)
            except _LeftBall:
                near = 1.0 - float(np.linalg.norm(y[:ball])) <= NEAR_BOUNDARY
                reason = "boundary" if near else "unstable"
            except SimulationError:
                reason = "nonfinite"
            else:
                if ball and float(np.linalg.norm(y_next[:ball])) >= 1.0 - BOUNDARY_TOL:
                    reason = "boundary"
                else:
                    y_next, info_next, reason = after_step(y_next)
            if reason is not None:
                if last < k - 1:
                    records.append(((k - 1) * h, y.copy(), info))
                return records, (reason, k * h)
            y, info = y_next, info_next
            if k % stride == 0 or k == n_steps:
                records.append((k * h, y.copy(), info))
                last = k
    return records, ("end", n_steps * h)


_ABORTS = {
    "drift": f"norm drift exceeded {NORM_DRIFT_LIMIT:g} with projection off (integrator failure)",
    "nonfinite": "non-finite state after RK4 step",
    "unstable": "step too large: an RK stage left the unit ball from far inside it, "
                f"or a step needed a projection beyond {NORM_DRIFT_LIMIT:g}",
}


def _result(value, stop):
    """value, or IntegrationAbort carrying it when the run stopped on a failure."""
    reason, t = stop
    if reason in _ABORTS:
        raise IntegrationAbort(f"{_ABORTS[reason]} at t = {t:.6g}", value, reason)
    return value


@dataclass(frozen=True)
class TrajectoryPoint:
    """One recorded instant of a full-system run.

    drift is the maximum | |x_i| - 1 | seen since t = 0, measured before any
    renormalization.
    """

    t: float
    x: np.ndarray
    Z: np.ndarray
    drift: float


def integrate_full(x0, A, weights, h, t_end, projection=True, stride=1):
    """Integrate the full system with fixed-step RK4.

    Records every stride steps plus the initial and final states.  With
    projection on, every particle is renormalized to unit length after each
    step and the pre-projection drift is tracked; a step whose own drift
    exceeds NORM_DRIFT_LIMIT is a failed step (abort "unstable").  With
    projection off, drift beyond NORM_DRIFT_LIMIT is the abort "drift".  An
    abort, like a non-finite state, raises IntegrationAbort carrying the
    prefix.

    Parameters
    ----------
    x0 : (N, d) array of unit rows
    A : None, (d, d) antisymmetric, or (N, d, d) stack
    weights : (N,) coupling weights a of Z = sum_i a_i x_i (as_weights);
        mean_field_weights(N, K) for mean-field coupling
    h : signed time step; t_end * h > 0 unless t_end == 0
    """
    x0 = validate_configuration(x0)
    n, d = x0.shape
    A = _validate_rotation_terms(A, n, d)
    weights = as_weights(weights, n)
    drift = 0.0

    def after_step(x):
        nonlocal drift
        norms = np.linalg.norm(x, axis=1)
        defect = float(np.max(np.abs(norms - 1.0)))
        drift = max(drift, defect)
        if projection:
            return x / norms[:, None], drift, "unstable" if defect > NORM_DRIFT_LIMIT else None
        return x, drift, "drift" if drift > NORM_DRIFT_LIMIT else None

    records, stop = _drive(lambda x: full_rhs(x, A, weights), x0, h, t_end, stride, 0, after_step)
    return _result([TrajectoryPoint(t, x, order_parameter(x, weights), dr)
                    for t, x, dr in records], stop)


# ---------------------------------------------------------------------------
# diagnostics


def min_pair_dot(x):
    """Worst pairwise alignment min_{i<j} <x_i, x_j>; 1 for fewer than two rows."""
    n = x.shape[0]
    if n < 2:
        return 1.0
    gram = x @ x.T
    return float(np.min(gram[np.triu_indices(n, 1)]))


@dataclass(frozen=True)
class SyncMetrics:
    Znorm: float
    min_pair_dot: float
    dist_to_diagonal: float


def sync_metrics(x, weights):
    """Synchrony diagnostics for a configuration.

    Znorm is |Z| (also the distance-to-incoherence proxy); min_pair_dot is
    the worst pairwise alignment; dist_to_diagonal is max_i |x_i - c| with c
    the normalized centroid (zero exactly at full synchrony).  The centroid
    direction is undefined when the centroid vanishes, which is reported as
    an error.
    """
    x = validate_configuration(x)
    Z = order_parameter(x, as_weights(weights, x.shape[0]))
    min_dot = min_pair_dot(x)
    centroid = x.mean(axis=0)
    cnorm = float(np.linalg.norm(centroid))
    if cnorm < 1e-12:
        raise GeometryError("distance to the diagonal is undefined: centroid is at the origin")
    dist = float(np.max(np.linalg.norm(x - centroid / cnorm, axis=1)))
    return SyncMetrics(float(np.linalg.norm(Z)), min_dot, dist)
