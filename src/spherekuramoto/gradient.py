"""Gradient structure of the boost-only flow for positive linear weights.

With respect to the hyperbolic metric on the ball, the boost flow is the
(negative) gradient flow of a logarithmic potential.  This module evaluates
the potential and its gradients, locates and linearizes the interior fixed
point, studies the boundary behaviour through scaled and blow-up systems,
and classifies long-time limits empirically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import as_weights, min_pair_dot
from .geometry import GeometryError, as_ball_point, as_sphere_point, boost_apply
from .reduced import integrate_w, validate_base_points, w_rhs
from .sampling import rng_from, uniform_ball

SINGULAR_TOL = 1e-12  # the potential is singular at the base points
FLOW_STEP = 0.01  # RK4 step of the boost-flow runs that settle and classify
SETTLE_TIME = 10.0  # backward time between flow-speed checks of the settle loop
SETTLE_MAX_TIME = 400.0
VELOCITY_TOL = 1e-8  # flow speed at which the settle loop hands over to Newton
NEWTON_TOL = 1e-12
MAX_NEWTON = 50
JACOBIAN_STEP = 1e-5  # central-difference step of semiscaled_jacobian

FORWARD_SYNC = "forward_sync"
BACKWARD_INCOHERENT = "backward_incoherent"
MAJORITY_CLUSTER_ANTIPODAL = "majority_cluster_antipodal"
UNCLASSIFIED = "unclassified"

__all__ = [
    "GradientError",
    "PotentialContext",
    "LinearizationReport",
    "PolarState",
    "LimitReport",
    "FORWARD_SYNC",
    "BACKWARD_INCOHERENT",
    "MAJORITY_CLUSTER_ANTIPODAL",
    "UNCLASSIFIED",
    "potential",
    "potential_grad",
    "hyperbolic_grad",
    "flow_rhs",
    "linearization_T",
    "find_fixed_point",
    "scaled_rhs",
    "anchor_radius",
    "semiscaled_polar_rhs",
    "semiscaled_jacobian",
    "classify_limits",
]


class GradientError(RuntimeError):
    """Fixed-point search failed or a weight hypothesis is violated."""


@dataclass(frozen=True)
class PotentialContext:
    """Base configuration plus positive weights summing to one.

    With allow_majority false (the default) every weight must stay below 1/2,
    the regime in which the interior fixed point is repelling and almost
    every trajectory synchronizes; pass true to study a dominant weight.
    """

    base: np.ndarray
    weights: np.ndarray
    allow_majority: bool = False

    def __post_init__(self):
        base = validate_base_points(self.base)
        a = as_weights(self.weights, base.shape[0])
        if np.any(a <= 0.0):
            raise GeometryError("weights must be strictly positive")
        if abs(float(a.sum()) - 1.0) > 1e-12:
            raise GeometryError(f"weights sum to {float(a.sum()):.17g}, expected 1")
        if not self.allow_majority and float(a.max()) >= 0.5:
            raise GeometryError(
                f"weight {float(a.max()):.17g} is not below 1/2; "
                "pass allow_majority=True to study a dominant weight"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "weights", a)

    @property
    def n(self):
        return self.base.shape[0]

    @property
    def d(self):
        return self.base.shape[1]


def _dist2_to_base(w, ctx):
    diff = ctx.base - w
    return np.einsum("ij,ij->i", diff, diff)


def potential(w, ctx):
    """sum_i a_i log((1 - |w|^2) / |w - p_i|^2).

    Equals (1/(d-1)) sum_i a_i log of the hyperbolic Poisson kernel at
    (w, p_i); zero at the origin; decreases along the boost flow and drops to
    -infinity toward the sphere whenever every weight is below 1/2.
    """
    w = as_ball_point(w, ctx.d)
    d2 = _dist2_to_base(w, ctx)
    if float(np.min(d2)) <= SINGULAR_TOL**2:
        raise GeometryError("potential is singular within 1e-12 of a base point")
    return float(ctx.weights @ (np.log(1.0 - float(w @ w)) - np.log(d2)))


def potential_grad(w, ctx):
    """Euclidean gradient of the potential: 2 sum_i a_i M_w(p_i) / (1 - |w|^2)."""
    w = as_ball_point(w, ctx.d)
    if float(np.min(_dist2_to_base(w, ctx))) <= SINGULAR_TOL**2:
        raise GeometryError("gradient is singular within 1e-12 of a base point")
    return (2.0 / (1.0 - float(w @ w))) * (ctx.weights @ boost_apply(w, ctx.base))


def hyperbolic_grad(grad, w):
    """Convert a Euclidean gradient at w into the hyperbolic-metric gradient:
    (1 - |w|^2)^2 grad / 4."""
    w = as_ball_point(w)
    return 0.25 * (1.0 - float(w @ w)) ** 2 * np.asarray(grad, dtype=float)


def flow_rhs(w, ctx):
    """Boost flow of the context; identical to the negative hyperbolic gradient."""
    return w_rhs(w, ctx.base, ctx.weights)


# ---------------------------------------------------------------------------
# fixed point and linearization


@dataclass(frozen=True)
class LinearizationReport:
    """Certificate for the interior fixed point.

    T is the weighted outer-product operator sum_i a_i p_i p_i^T evaluated at
    the recentred base (fixed point moved to the origin); mu are its
    eigenvalues, lam = 1 - mu those of the flow linearization, and T_norm its
    operator norm.  Under the admissible-weight hypotheses T_norm < 1, so all
    lam are positive and the fixed point repels.
    """

    w_star: np.ndarray
    T: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    T_norm: float
    base_recentred: np.ndarray


def linearization_T(base, weights):
    """T = sum_i a_i p_i p_i^T for a base whose weighted centroid vanishes.

    Rejects bases that collapse onto a single +/- direction pair (there the
    operator norm reaches 1 and the repelling certificate is void).
    """
    base = np.asarray(base, dtype=float)
    weights = np.asarray(weights, dtype=float)
    Z = weights @ base
    if float(np.linalg.norm(Z)) > 1e-8:
        raise GradientError("linearization requires a vanishing weighted centroid; recentre first")
    T = (weights[:, None] * base).T @ base
    T = 0.5 * (T + T.T)
    if float(np.linalg.norm(T, ord=2)) >= 1.0 - 1e-10:
        raise GradientError("base points collapse onto a +/- pair; linearization is degenerate")
    return T


def _weighted_centroid(w, ctx):
    return ctx.weights @ boost_apply(w, ctx.base)


def find_fixed_point(ctx, seed=0):
    """Locate the unique interior equilibrium of the boost flow.

    Backward-time integration (globally convergent for admissible weights)
    settles a seeded interior point near the equilibrium until the flow speed
    drops below VELOCITY_TOL; Newton iterations on the weighted centroid map
    then polish it.  The linearization is reported after recentring the base
    so the fixed point sits at the origin.

    Raises GradientError when no interior fixed point exists (a dominant
    weight) or the search fails to converge.
    """
    if float(ctx.weights.max()) >= 0.5:
        raise GradientError(
            "no interior fixed point: a weight of "
            f"{float(ctx.weights.max()):.17g} >= 1/2 keeps the centroid away from zero"
        )
    w = uniform_ball(ctx.d, rng_from(seed, 11), radius=0.5)
    elapsed = 0.0
    settled = False
    while elapsed < SETTLE_MAX_TIME:
        traj = integrate_w(w, ctx.base, ctx.weights, -FLOW_STEP, -SETTLE_TIME)
        w = traj.final.copy()
        elapsed += SETTLE_TIME
        if float(np.linalg.norm(flow_rhs(w, ctx))) < VELOCITY_TOL:
            settled = True
            break
    if not settled:
        raise GradientError(
            "backward flow did not settle; the weight hypotheses are likely violated"
        )

    fd = 1e-7
    converged = False
    for _ in range(MAX_NEWTON):
        g = _weighted_centroid(w, ctx)
        if float(np.linalg.norm(g)) <= NEWTON_TOL:
            converged = True
            break
        jac = np.empty((ctx.d, ctx.d))
        for j in range(ctx.d):
            e = np.zeros(ctx.d)
            e[j] = fd
            jac[:, j] = (_weighted_centroid(w + e, ctx) - _weighted_centroid(w - e, ctx)) / (2.0 * fd)
        w = w - np.linalg.solve(jac, g)
        if float(np.linalg.norm(w)) >= 1.0:
            raise GradientError("Newton polish left the ball; no interior fixed point")
    if not converged:
        raise GradientError(f"Newton polish did not reach |Z| <= {NEWTON_TOL:g}")

    recentred = boost_apply(w, ctx.base)
    recentred = recentred / np.linalg.norm(recentred, axis=1)[:, None]
    T = linearization_T(recentred, ctx.weights)
    mu = np.linalg.eigvalsh(T)
    return LinearizationReport(
        w_star=w,
        T=T,
        mu=mu,
        lam=1.0 - mu,
        T_norm=float(np.max(np.abs(mu))),
        base_recentred=recentred,
    )


# ---------------------------------------------------------------------------
# boundary-scaled systems


def scaled_rhs(w, ctx):
    """Time-rescaled boost field w - sum_i a_i (1 - |w|^2)(p_i - w)/|p_i - w|^2.

    Shares its trajectories with the boost flow inside the ball (it is
    2/(1 - |w|^2) times it) but extends smoothly to all of R^d away from the
    base points, where it equals the outward radial field on the sphere.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (ctx.d,):
        raise GeometryError(f"expected a vector in R^{ctx.d}")
    diff = ctx.base - w
    d2 = np.einsum("ij,ij->i", diff, diff)
    if float(np.min(d2)) <= SINGULAR_TOL**2:
        raise GeometryError("scaled field is singular within 1e-12 of a base point")
    coeff = ctx.weights * (1.0 - float(w @ w)) / d2
    return w - coeff @ diff


@dataclass(frozen=True)
class PolarState:
    """Blow-up coordinates w = p_anchor - r u near one base point."""

    r: float
    u: np.ndarray
    anchor: int = 0

    def __post_init__(self):
        u = as_sphere_point(self.u)
        if not np.isfinite(self.r) or self.r < 0.0:
            raise GeometryError("polar radius must be finite and nonnegative")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "anchor", int(self.anchor))


def anchor_radius(ctx, anchor=0):
    """Largest radius where the blow-up system is smooth:
    min over j != anchor of |p_j - p_anchor|."""
    p = ctx.base
    diffs = np.delete(p, anchor, axis=0) - p[anchor]
    return float(np.min(np.linalg.norm(diffs, axis=1)))


def _semiscaled_raw(r, u, anchor, ctx):
    # Anchor term of the scaled field with the removable 0/0 cancelled:
    # (1 - |w|^2)(p_a - w)/|p_a - w|^2 == (2<p_a, u> - r) u  for w = p_a - r u.
    p_a = ctx.base[anchor]
    w = p_a - r * u
    others = np.delete(np.arange(ctx.n), anchor)
    diff = ctx.base[others] - w
    d2 = np.einsum("ij,ij->i", diff, diff)
    coeff = ctx.weights[others] * (1.0 - float(w @ w)) / d2
    s = w - ctx.weights[anchor] * (2.0 * float(p_a @ u) - r) * u - coeff @ diff
    us = float(u @ s)
    rdot = -r * us
    udot = us * u - s
    udot = udot - float(udot @ u) * u  # analytic value is tangent; guards roundoff
    return rdot, udot


def semiscaled_polar_rhs(state, ctx):
    """Right-hand side of the blow-up system, time-rescaled by r.

    With S the scaled field at w = p_anchor - r u (anchor term substituted
    analytically), returns r' = -r <u, S> and u' = <u, S> u - S projected
    tangent to the sphere.  Smooth through r = 0, where the slice {r = 0} is
    invariant and u' = <p_anchor, u> u - p_anchor.
    """
    if not isinstance(state, PolarState):
        raise TypeError("semiscaled_polar_rhs expects a PolarState")
    if not 0 <= state.anchor < ctx.n:
        raise GeometryError(f"anchor index {state.anchor} out of range")
    eps = anchor_radius(ctx, state.anchor)
    if not state.r < eps:
        raise GeometryError(f"polar radius must stay below {eps:.6g}")
    if state.u.size != ctx.d:
        raise GeometryError("direction dimension does not match the base points")
    return _semiscaled_raw(state.r, state.u, state.anchor, ctx)


def semiscaled_jacobian(ctx, anchor=0):
    """Numeric Jacobian of the blow-up system at its saddle (r, u) = (0, p_a).

    Central differences in an orthonormal (radial, tangent) frame; the exact
    spectrum is one eigenvalue -(1 - 2 a_anchor) and d-1 eigenvalues +1.
    """
    p_a = ctx.base[anchor]
    d = ctx.d
    m = np.eye(d)
    m[:, 0] = p_a
    q, _ = np.linalg.qr(m)
    tangent = q[:, 1:]  # orthonormal complement of p_a

    def field(coords):
        r = coords[0]
        u = p_a + tangent @ coords[1:]
        u = u / np.linalg.norm(u)
        rdot, udot = _semiscaled_raw(r, u, anchor, ctx)
        return np.concatenate([[rdot], tangent.T @ udot])

    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = JACOBIAN_STEP
        jac[:, j] = (field(e) - field(-e)) / (2.0 * JACOBIAN_STEP)
    return jac


# ---------------------------------------------------------------------------
# long-time classification


@dataclass(frozen=True)
class LimitReport:
    """Outcome of one long-horizon run of the boost flow.

    Exactly one kind is assigned per run; terminal metrics are always
    reported so unclassified runs remain diagnosable.
    """

    kind: str
    direction: str
    metrics: dict
    limit_point: np.ndarray | None = None
    w_star: np.ndarray | None = None
    dominant_index: int | None = None


def classify_limits(ctx, direction, seed=0, horizon=40.0):
    """Classify the long-time behaviour of the boost flow from a seeded start.

    direction "forward": the run synchronizes (forward_sync) when |w| reaches
    1 - 1e-3 and every reconstructed pair aligns to 0.999; the limit point is
    the common position.  direction "backward": with a dominant weight
    (> 1/2) the run is checked for the antipodal limit (majority particle
    opposite all others to -0.999); otherwise it is incoherent
    (backward_incoherent) when the weighted centroid magnitude of the
    reconstruction falls below 1e-4.  Anything else is reported unclassified
    with its terminal metrics.
    """
    if direction not in ("forward", "backward"):
        raise GeometryError("direction must be 'forward' or 'backward'")
    sign = 1.0 if direction == "forward" else -1.0
    w0 = uniform_ball(ctx.d, rng_from(seed, 7), radius=0.5)
    traj = integrate_w(w0, ctx.base, ctx.weights, sign * FLOW_STEP, sign * abs(horizon))
    w_end = traj.final
    x = boost_apply(w_end, ctx.base)  # reconstruction up to a rotation
    min_pair = min_pair_dot(x)
    z_res = float(np.linalg.norm(ctx.weights @ x))
    i_dom = int(np.argmax(ctx.weights))
    dom_dots = np.delete(x @ x[i_dom], i_dom)
    metrics = {
        "w_norm": float(np.linalg.norm(w_end)),
        "Z_residual": z_res,
        "min_pair_dot": min_pair,
        "max_dominant_dot": float(np.max(dom_dots)),
        "boundary_reached": bool(traj.boundary_reached),
    }

    if direction == "forward":
        if metrics["w_norm"] >= 1.0 - 1e-3 and min_pair >= 0.999:
            centroid = x.mean(axis=0)
            limit = centroid / np.linalg.norm(centroid)
            return LimitReport(FORWARD_SYNC, direction, metrics, limit_point=limit)
        return LimitReport(UNCLASSIFIED, direction, metrics)

    if float(ctx.weights[i_dom]) > 0.5:
        if metrics["max_dominant_dot"] <= -0.999:
            return LimitReport(
                MAJORITY_CLUSTER_ANTIPODAL, direction, metrics, dominant_index=i_dom
            )
        return LimitReport(UNCLASSIFIED, direction, metrics)
    if z_res <= 1e-4:
        return LimitReport(BACKWARD_INCOHERENT, direction, metrics, w_star=w_end.copy())
    return LimitReport(UNCLASSIFIED, direction, metrics)
