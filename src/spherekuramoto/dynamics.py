"""The full N-body system on the sphere: order parameters, the governing
right-hand side, fixed-step RK4 integration, and synchrony diagnostics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, _array, _number, as_antisymmetric
from .sampling import _row_norms, rng_from, uniform_sphere

NORM_DRIFT_LIMIT = 1e-3  # largest sphere or SO(d) defect a step may leave or a projection correct
BOUNDARY_TOL = 1e-12  # a ball coordinate with |y| >= 1 - BOUNDARY_TOL has reached the boundary
NEAR_BOUNDARY = 0.1  # an RK stage leaves the ball as synchrony only from 1 - |y| <= this

__all__ = [
    "SimulationError",
    "IntegrationAbort",
    "Trajectory",
    "SyncMetrics",
    "equal_weights",
    "explicit_weights",
    "gaussian_riemann_weights",
    "majority_weights",
    "mean_field_weights",
    "as_weights",
    "as_rotation_terms",
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


@dataclass(frozen=True)
class Trajectory:
    """The records of one run of any integrator.

    states[j], the state at times[j], has the integrator's own shape: (N, d)
    in integrate_full, (d,) in integrate_w and integrate_continuum, (d + 1, d)
    in integrate_reduced (row 0 the boost, rows 1..d the rotation).  info[j]
    is the worst drift so far in integrate_full, the rotation's defect
    max |zeta^T zeta - I| in integrate_reduced (never projected), 0 elsewhere.
    stop is "end", "boundary" (a clean stop at the ball boundary) or the
    abort "drift", "nonfinite" or "unstable".
    """

    times: np.ndarray
    states: np.ndarray
    info: np.ndarray
    stop: str

    @property
    def final(self):
        return self.states[-1]


class IntegrationAbort(SimulationError):
    """Integration failure that still carries the valid prefix of the run.

    trajectory is the Trajectory cut at the last accepted state; reason is
    its stop, "drift", "nonfinite" or "unstable".
    """

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory
        self.reason = trajectory.stop


# ---------------------------------------------------------------------------
# coupling weights: the order parameter is Z = sum_i a_i x_i


def as_weights(a, n):
    """The coupling weights a of Z = sum_i a_i x_i over n points (the
    particles, or the base points of their orbit) as a float array.

    Raises GeometryError unless a is a finite 1-d array of length n.  Every
    public function that takes weights calls this once, at entry.
    """
    a = _array(a, "weights", (None,))
    if a.size != n:
        raise GeometryError(f"{a.size} weights for {n} base points")
    return a


def mean_field_weights(n, K):
    """Mean-field coupling Z = (K/N) sum_i x_i as weights: K/n each."""
    n = _number(n, "n", 0, kinds=())
    return np.full(n, _number(K, "K") / n)


def equal_weights(n):
    n = _number(n, "n", 0, kinds=())
    return np.full(n, 1.0 / n)


def explicit_weights(values, normalized=True):
    """Validate user-supplied weights: nonnegative, summing to 1 if normalized (a bool)."""
    if not isinstance(normalized, bool):
        raise GeometryError(f"'normalized' must be true or false, got {normalized!r}")
    a = _array(values, "weights", (None,))
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
    n, half_width = _gaussian_riemann_args(n, half_width)
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(-half_width, half_width, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        w = np.exp(-0.5 * mids**2) * (edges[1] - edges[0])
    return w / w.sum()


def _gaussian_riemann_args(n, half_width):
    """gaussian_riemann_weights' checked (n, half_width), without its n weights:
    their sum is positive and finite exactly when the largest, a middle one,
    is.  The edges are np.linspace's doubles."""
    n, hw = _number(n, "n", 0, kinds=()), float(_number(half_width, "half_width", 0.0))
    step = 2.0 * hw / n
    e = np.array([hw if i == n else (i * step if step else i / n * (2.0 * hw)) - hw
                  for i in (0, 1, *range((n - 1) // 2, n // 2 + 2))])
    with np.errstate(over="ignore", invalid="ignore"):  # all 0 or all NaN: so is their sum
        top = float(np.max(np.exp(-0.5 * (0.5 * (e[2:-1] + e[3:]))**2) * (e[1] - e[0])))
    if not 0.0 < top < np.inf:
        raise GeometryError(f"'half_width' {hw:g} is too wide for n = {n}: "
                            f"the midpoint densities sum to {top:g}")
    return n, hw


def majority_weights(n, dominant=0.6, index=0):
    """One particle carries weight dominant, the rest split the remainder evenly."""
    n, dominant, index = _majority_args(n, dominant, index)
    w = np.full(n, (1.0 - dominant) / (n - 1))
    w[index] = dominant
    return w


def _majority_args(n, dominant, index):  # majority_weights' checks, without its n weights
    n, dominant = _number(n, "n", 1, kinds=()), _number(dominant, "dominant", 0.0, 1.0)
    return n, dominant, _number(index, "index", -1, n, kinds=())


# ---------------------------------------------------------------------------
# configurations and the governing field


def random_configuration(n, d, seed, stream=0):
    """Seeded i.i.d. uniform points on the sphere (normalized Gaussians)."""
    return uniform_sphere(_number(n, "n", 0, kinds=()), _number(d, "d", 1, kinds=()),
                          rng_from(seed, stream))


def validate_configuration(x):
    """Check an (N, d) array of unit rows and return it as a C-ordered float
    array, so that no product with it depends on the caller's memory layout."""
    x = np.ascontiguousarray(_array(x, "configuration", (None, None)))
    if x.shape[0] < 1 or x.shape[1] < 2:
        raise GeometryError("configuration needs N >= 1 points in dimension d >= 2")
    err = float(np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)))
    if err > 1e-12:
        raise GeometryError(f"configuration is off the unit sphere by {err:.3e}")
    return x


def order_parameter(x, weights):
    """Coupling vector Z = weights @ x of a configuration (rows of x on the
    sphere); the weights pass as_weights for the rows of x.
    """
    x = np.asarray(x, dtype=float)
    return as_weights(weights, x.shape[0]) @ x


def as_rotation_terms(A, d, n=None):
    """The rotation term of x_i' = A_i x_i + ... in dimension d: None, one
    exactly antisymmetric (d, d) term, or, only when n is given, an (n, d, d)
    stack of per-particle terms (they leave the group orbit, so the reduced
    and mean-field equations take none).  Raises GeometryError otherwise.
    Every public function that takes a rotation term calls this once, at entry.
    """
    if A is None:
        return None
    A = np.asarray(A, dtype=float)
    if A.ndim != 3:
        return as_antisymmetric(A, d)
    if n is None:
        raise GeometryError("one shared rotation term is required; "
                            "per-particle terms do not stay on a group orbit")
    if A.shape[0] != n:
        raise GeometryError(f"{A.shape[0]} rotation terms for {n} particles")
    for term in A:
        as_antisymmetric(term, d)
    return A


def full_rhs(x, A, weights):
    """Velocities x_i' = A_i x_i + Z - <Z, x_i> x_i.

    A may be None (no rotation term), a shared (d, d) antisymmetric matrix,
    or a stack of N per-particle matrices; A and the weights are checked at
    entry, x is not (an RK stage lies off the sphere).  Each velocity is
    tangent to the sphere at its particle.
    """
    x = np.asarray(x, dtype=float)
    A = as_rotation_terms(A, x.shape[1], x.shape[0])
    rot = A if A is None or A.ndim == 3 else A.T
    return _field(x, as_weights(weights, x.shape[0]), rot, np.empty(x.shape))()


def _field(x, a, rot, out):
    """full_rhs unchecked, as a function of no arguments that writes the field
    of x's current entries into out and returns out.  Z = a @ x; rot is the
    rotation term as it acts on the rows: None, x @ rot for rot = A^T of a
    shared term, or the (N, d, d) stack applied row by row.  The products are
    ndarray .dot, the BLAS calls of `@`, into buffers made here once, as are
    the transposed views on which Z - <Z, x_i> x_i runs in C order: each numpy
    loop is a column N long, at most three columns a call (over four or more,
    numpy's strided loops ran at half speed for N up to 2000)."""
    Z, s = np.empty(x.shape[1]), np.empty(x.shape[0])
    groups = [(x[:, j:j + 3].T, out[:, j:j + 3].T, Z[j:j + 3, None]) for j in range(0, len(Z), 3)]

    def field():
        a.dot(x, Z)
        x.dot(Z, s)
        for xt, ot, zt in groups:
            np.multiply(s, xt, out=ot, order="C")
            np.subtract(zt, ot, out=ot, order="C")
        if rot is not None:
            np.add(out, x.dot(rot) if rot.ndim == 2 else np.einsum("nij,nj->ni", rot, x), out)
        return out
    return field


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
    if not np.isfinite(out).all():
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


def _ball_step(rhs, y0, h):
    """The RK4 step of a (d,) point of the open unit ball, for _drive, from
    y0: step(y) -> (y_next, 0.0, stop), stop None or the run's end.  rhs(y, y2)
    takes y2 = y @ y and returns d floats.  Each stage's |y|^2 is the one
    ndarray .dot that guards it and that rhs takes; the stage sums y + c k run
    on Python floats, which round as numpy's elementwise ops do.  The step
    keeps the |y|^2 of the state it returned last, so it must be passed that
    state.  A step that lands within BOUNDARY_TOL of the sphere stops at
    "boundary" (synchrony), as does an RK stage leaving the ball from an
    accepted state within NEAR_BOUNDARY of the sphere; from farther inside,
    that stage is a failed step, "unstable", and a non-finite step stops at
    "nonfinite".  No other integration code tests a ball point."""
    y2 = float(y0 @ y0)
    sixth = h / 6.0

    def step(y):
        nonlocal y2
        ys, ks, v, v2 = y.tolist(), [], y, y2
        for c in (0.5 * h, 0.5 * h, h, None):
            if v2 >= 1.0:  # v.dot(v) >= 1 is exactly norm(v) >= 1
                return y, 0.0, "boundary" if 1.0 - math.sqrt(y2) <= NEAR_BOUNDARY else "unstable"
            ks.append(rhs(v, v2))
            if c is not None:
                v = np.array([a + c * k for a, k in zip(ys, ks[-1])])
                v2 = float(v.dot(v))
        v = np.array([a + sixth * (k1 + 2.0 * (k2 + k3) + k4) for a, k1, k2, k3, k4 in zip(ys, *ks)])
        v2 = float(v.dot(v))
        if not math.isfinite(v2):  # finite entries whose square overflows lie past the sphere
            return v, 0.0, "boundary" if np.isfinite(v).all() else "nonfinite"
        if math.sqrt(v2) >= 1.0 - BOUNDARY_TOL:  # the double np.linalg.norm returns
            return v, 0.0, "boundary"
        y2 = v2
        return v, 0.0, None
    return step


def _drive(step, y0, h, t_end, stride):
    """Fixed-step RK4 from y0 under the stop contract of every integrator.

    step(y) takes the last accepted state and returns (y_next, info, stop):
    with stop None, y_next is the accepted (projected) state, which no later
    step may write into, and info a value recorded with it; otherwise stop is
    "boundary" or an abort of _ABORTS, and the run ends at y.  The ball
    flows step with _ball_step.  Returns the Trajectory of t = 0, every
    stride steps, the last step and, after an early stop, the last accepted
    state; an abort raises IntegrationAbort carrying it instead.
    """
    n_steps = step_count(t_end, h)
    stride = _number(stride, "stride", 0, kinds=())
    y, info, last = y0, 0.0, 0
    records = [(0.0, y, info)]  # no step writes into a state; np.stack copies each once
    # a run that overflows ends as "nonfinite", not with numpy warnings on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            y_next, info_next, reason = step(y)
            if reason is not None:
                if last < k - 1:
                    records.append(((k - 1) * h, y, info))
                break
            y, info = y_next, info_next
            if k % stride == 0 or k == n_steps:
                records.append((k * h, y, info))
                last = k
        else:
            reason = "end"
    times, states, infos = zip(*records)
    traj = Trajectory(np.array(times), np.stack(states), np.array(infos), reason)
    if reason in _ABORTS:
        raise IntegrationAbort(f"{_ABORTS[reason]} at t = {k * h:.6g}", traj)
    return traj


_ABORTS = {
    "drift": f"norm drift exceeded {NORM_DRIFT_LIMIT:g} with projection off (integrator failure)",
    "nonfinite": "non-finite state after RK4 step",
    "unstable": "step too large: an RK stage left the unit ball from far inside it, or a "
                f"step left the sphere, or its rotation SO(d), by more than {NORM_DRIFT_LIMIT:g}",
}


def integrate_full(x0, A, weights, h, t_end, projection=True, stride=1):
    """Integrate the full system with fixed-step RK4; returns a Trajectory
    of (N, d) states whose info is the worst drift so far.

    Records every stride steps plus the initial and final states.  With
    projection on, every particle is renormalized to unit length after each
    step and the pre-projection drift is tracked; a step whose own drift
    exceeds NORM_DRIFT_LIMIT is a failed step (abort "unstable").  With
    projection off, drift beyond NORM_DRIFT_LIMIT is the abort "drift".  An
    abort, like a non-finite state, raises IntegrationAbort carrying the
    prefix.

    Each step has the doubles of rk4_step on full_rhs.  It runs in a workspace
    made once per run, with 0-d constants so that every ufunc takes positional
    arguments: at N = 100 a numpy call costs more than its arithmetic.

    Parameters
    ----------
    x0 : (N, d) array of unit rows
    A : None, (d, d) antisymmetric, or (N, d, d) stack (as_rotation_terms)
    weights : (N,) coupling weights a of Z = sum_i a_i x_i (as_weights);
        mean_field_weights(N, K) for mean-field coupling
    h : signed time step; t_end * h > 0 unless t_end == 0
    """
    x0 = validate_configuration(x0)
    n, d = x0.shape
    A = as_rotation_terms(A, d, n)
    weights = as_weights(weights, n)
    rot = A if A is None or A.ndim == 3 else np.ascontiguousarray(A.T)
    y, x, k1, k2, k3, k4 = np.empty((6, n, d))  # x: a stage point, then the step's weighted sum
    y[...] = x0
    f1, f2, f3, f4 = (_field(p, weights, rot, k) for p, k in ((y, k1), (x, k2), (x, k3), (x, k4)))
    half, whole, two, sixth, one = (np.array(c) for c in (0.5 * h, h, 2.0, h / 6.0, 1.0))
    norms, dev = np.empty((2, n))
    cols = [y[:, j:j + 3].T for j in range(0, d, 3)]  # as in _field
    drift = 0.0

    def step(_):  # _drive passes the last accepted state, which y holds
        nonlocal drift
        f1()
        for k, c, f in ((k1, half, f2), (k2, half, f3), (k3, whole, f4)):
            np.add(y, np.multiply(k, c, x), x)
            f()
        np.add(np.multiply(np.add(k2, k3, x), two, x), k1, x)
        np.add(y, np.multiply(np.add(x, k4, x), sixth, x), y)
        _row_norms(y, norms)
        defect = float(np.abs(np.subtract(norms, one, dev), dev).max())
        if not math.isfinite(defect) and not np.isfinite(y).all():
            return y, drift, "nonfinite"  # finite rows whose squares overflow are no such step
        drift = max(drift, defect)
        if projection:  # each accepted state is a fresh copy, since the records hold it
            for yt in cols:
                np.divide(yt, norms, out=yt, order="C")
            return y.copy(), drift, "unstable" if defect > NORM_DRIFT_LIMIT else None
        return y.copy(), drift, "drift" if drift > NORM_DRIFT_LIMIT else None

    return _drive(step, x0, h, t_end, stride)


# ---------------------------------------------------------------------------
# diagnostics


_PAIR_BLOCK = 2**20  # gram entries per block of _pair_dots: N <= 1024 is one product


def _pair_dots(x):
    """Yield the gram entries <x_i, x_j>, i < j, in arrays of at most
    _PAIR_BLOCK entries, so that no (N, N) array is formed.  Each block of
    rows is one product x[lo:hi] @ x.T; it yields the strict upper triangle
    of its diagonal square, then the rectangle right of it as a view."""
    n = x.shape[0]
    rows = max(1, min(n, _PAIR_BLOCK // max(n, 1)))
    upper = np.arange(rows) > np.arange(rows)[:, None]
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        gram = x[lo:hi] @ x.T
        if hi - lo > 1:
            yield gram[:, lo:hi][upper[:hi - lo, :hi - lo]]
        if hi < n:
            yield gram[:, hi:]


def min_pair_dot(x):
    """Worst pairwise alignment min_{i<j} <x_i, x_j>; 1 for fewer than two rows."""
    mins = [d.min() for d in _pair_dots(x)]
    return float(np.min(mins)) if mins else 1.0


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
    Z = order_parameter(x, weights)
    min_dot = min_pair_dot(x)
    centroid = x.mean(axis=0)
    cnorm = float(np.linalg.norm(centroid))
    if cnorm < 1e-12:
        raise GeometryError("distance to the diagonal is undefined: centroid is at the origin")
    dist = float(np.max(np.linalg.norm(x - centroid / cnorm, axis=1)))
    return SyncMetrics(float(np.linalg.norm(Z)), min_dot, dist)
