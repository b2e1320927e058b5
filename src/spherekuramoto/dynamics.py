"""The full N-body system on the sphere: order parameters, the governing
right-hand side, fixed-step RK4 integration, and synchrony diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, as_antisymmetric
from .sampling import rng_from, uniform_sphere

NORM_DRIFT_LIMIT = 1e-3  # unprojected runs abort beyond this
BOUNDARY_TOL = 1e-12  # a ball coordinate with |y| >= 1 - BOUNDARY_TOL has reached the boundary

__all__ = [
    "SimulationError",
    "IntegrationAbort",
    "LinearWeighted",
    "MeanField",
    "TrajectoryPoint",
    "SyncMetrics",
    "equal_weights",
    "explicit_weights",
    "gaussian_riemann_weights",
    "majority_weights",
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
    """Integration failed (non-finite state or norm drift)."""


class IntegrationAbort(SimulationError):
    """Integration failure that still carries the valid prefix of the run.

    trajectory has the integrator's return type, cut at the last accepted
    state; reason is "drift" or "nonfinite".
    """

    def __init__(self, message, trajectory, reason):
        super().__init__(message)
        self.trajectory = trajectory
        self.reason = reason


# ---------------------------------------------------------------------------
# order parameter specifications


@dataclass(frozen=True)
class LinearWeighted:
    """Order parameter Z = sum_i a_i x_i with fixed weights a_i."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise GeometryError("weights must be a finite 1-d array")
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class MeanField:
    """Order parameter Z = (K/N) sum_i x_i with coupling gain K."""

    coupling: float

    def __post_init__(self):
        if not np.isfinite(self.coupling):
            raise GeometryError("mean-field coupling must be finite")


def equal_weights(n):
    return np.full(int(n), 1.0 / int(n))


def explicit_weights(values, normalized=True):
    """Validate user-supplied weights; with normalized=True they must sum to 1."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or not np.all(np.isfinite(a)):
        raise GeometryError("weights must be a finite 1-d array")
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


def order_parameter(x, spec):
    """Coupling vector Z of a configuration (rows of x on the sphere)."""
    x = np.asarray(x, dtype=float)
    if isinstance(spec, LinearWeighted):
        if spec.weights.size != x.shape[0]:
            raise GeometryError(
                f"{spec.weights.size} weights for {x.shape[0]} particles"
            )
        return spec.weights @ x
    if isinstance(spec, MeanField):
        return (spec.coupling / x.shape[0]) * x.sum(axis=0)
    raise TypeError(f"unknown order parameter spec {spec!r}")


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


def full_rhs(x, A, spec):
    """Velocities x_i' = A_i x_i + Z - <Z, x_i> x_i.

    A may be None (no rotation term), a shared (d, d) antisymmetric matrix,
    or a stack of N per-particle matrices.  Each velocity is tangent to the
    sphere at its particle.
    """
    x = np.asarray(x, dtype=float)
    Z = order_parameter(x, spec)
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
    n = int(round(t_end / h))
    if n < 1 or abs(n * h - t_end) > 1e-9 * max(abs(t_end), 1.0):
        raise GeometryError(f"t_end = {t_end} is not an integer number of steps of size {h}")
    return n


class _LeftBall(Exception):
    """An RK stage left the open unit ball."""


def _inside_ball(rhs, d):
    """rhs that raises _LeftBall for a stage whose first d coordinates leave
    the open unit ball; v.dot(v) >= 1 is exactly the fields' norm(v) >= 1."""

    def guarded(y):
        if y[:d].dot(y[:d]) >= 1.0:
            raise _LeftBall
        return rhs(y)

    return guarded


def _boundary(v):
    """Stop reason of a ball coordinate after a step: None or "boundary"."""
    return "boundary" if float(np.linalg.norm(v)) >= 1.0 - BOUNDARY_TOL else None


def _drive(rhs, y0, h, t_end, stride, after_step):
    """Fixed-step RK4 from y0 under the stop contract of every integrator.

    after_step(y) takes each new state and returns (y, info, stop): the state
    as accepted (projected), a value recorded with it, and None or a reason
    ("boundary", "drift") to reject the step and stop.  A stage raising
    _LeftBall stops at "boundary", a non-finite step at "nonfinite".  Returns
    (records, (reason, t)): (t, y, info) at t = 0, every stride steps, the
    last step and, after an early stop, the last accepted state; reason is
    "end" or the stop reason, t the time of the last or the rejected step.
    """
    n_steps = step_count(t_end, h)
    if int(stride) < 1:
        raise GeometryError("stride must be a positive integer")
    stride = int(stride)
    y, info, last = y0, 0.0, 0
    records = [(0.0, y.copy(), info)]
    # a run that overflows ends as "nonfinite", not with numpy warnings on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            try:
                y_next = rk4_step(rhs, y, h)
            except _LeftBall:
                reason = "boundary"
            except SimulationError:
                reason = "nonfinite"
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


def integrate_full(x0, A, spec, h, t_end, projection=True, stride=1):
    """Integrate the full system with fixed-step RK4.

    Records every stride steps plus the initial and final states.  With
    projection on, every particle is renormalized to unit length after each
    step and the pre-projection drift is tracked; with projection off, drift
    beyond NORM_DRIFT_LIMIT raises IntegrationAbort carrying the prefix, as
    does a non-finite state.

    Parameters
    ----------
    x0 : (N, d) array of unit rows
    A : None, (d, d) antisymmetric, or (N, d, d) stack
    spec : LinearWeighted or MeanField
    h : signed time step; t_end * h > 0 unless t_end == 0
    """
    x0 = validate_configuration(x0)
    n, d = x0.shape
    A = _validate_rotation_terms(A, n, d)
    drift = 0.0

    def after_step(x):
        nonlocal drift
        norms = np.linalg.norm(x, axis=1)
        drift = max(drift, float(np.max(np.abs(norms - 1.0))))
        if projection:
            return x / norms[:, None], drift, None
        return x, drift, "drift" if drift > NORM_DRIFT_LIMIT else None

    records, stop = _drive(lambda x: full_rhs(x, A, spec), x0, h, t_end, stride, after_step)
    return _result([TrajectoryPoint(t, x, order_parameter(x, spec), dr)
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


def sync_metrics(x, spec):
    """Synchrony diagnostics for a configuration.

    Znorm is |Z| (also the distance-to-incoherence proxy); min_pair_dot is
    the worst pairwise alignment; dist_to_diagonal is max_i |x_i - c| with c
    the normalized centroid (zero exactly at full synchrony).  The centroid
    direction is undefined when the centroid vanishes, which is reported as
    an error.
    """
    x = validate_configuration(x)
    Z = order_parameter(x, spec)
    min_dot = min_pair_dot(x)
    centroid = x.mean(axis=0)
    cnorm = float(np.linalg.norm(centroid))
    if cnorm < 1e-12:
        raise GeometryError("distance to the diagonal is undefined: centroid is at the origin")
    dist = float(np.max(np.linalg.norm(x - centroid / cnorm, axis=1)))
    return SyncMetrics(float(np.linalg.norm(Z)), min_dot, dist)
