"""Independent reference implementations used only to check the library.

Each oracle is deliberately written along a different route than the code it
checks: complex one-variable arithmetic for the planar boost, the simplified
sphere-restricted boost formula, the classical angle form of the planar
model, quadrature for the radial hyperbolic length, a plain geometric series for
the hypergeometric spot value, a per-scalar recursive formatter for the
trajectory serializer, a plain RK4 loop over the public, validating boost
flow for the boost-only integrator, a plain RK4 loop over the public full_rhs
for the full integrator, a plain numpy RK4 loop over the public
continuum_rhs for the mean-field integrator's float stages, the earlier
term-by-term series for the tabled centroid ratio, plain RK4 over the
public rotation-first reduced_rhs with a polar projection after each step
for the boost-first skew-product integrator, that integrator's earlier form,
which carries the rotation through every RK stage in its own RK4 loop, for
its chunked rotation pass, the
weighted sum of the boosted image array for the fused coupling-sum kernel,
the scaled plain sum of the positions for the mean-field order parameter,
a frozen copy of the boost kernel's earlier row form, on (n, d) arrays,
for the row callers of the column kernel,
backward-flow settling with a finite-difference
Newton polish for the interior fixed point, the pair formula itself for
the skew-pair matrix, the whole (N, N) gram matrix and its strict upper
triangle for the streamed pair scan, and one draw of every sample with
numpy's own mean and standard deviation for the streamed Monte Carlo
integral, and the whole weight array and its sum for the check of the
Gaussian weights that reads only their middle.
"""
import json
import math
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad

from spherekuramoto.dynamics import (
    NORM_DRIFT_LIMIT,
    IntegrationAbort,
    Trajectory,
    as_rotation_terms,
    full_rhs,
    rk4_step,
)
from spherekuramoto.continuum import MCEstimate, continuum_rhs
from spherekuramoto.geometry import (
    RIGHT,
    GeometryError,
    as_ball_point,
    boost_apply,
    nearest_rotation,
)
from spherekuramoto.reduced import (
    integrate_w,
    reduced_rhs,
    skew_pair_matrix,
    w_rhs,
)
from spherekuramoto.sampling import rng_from, uniform_ball, uniform_sphere


def mobius_disc_complex(w, x):
    """One-variable Mobius map (x - w) / (1 - conj(w) x) on the unit disc.

    w, x are 2-vectors interpreted as complex numbers.
    """
    wc = complex(w[0], w[1])
    xc = complex(x[0], x[1])
    out = (xc - wc) / (1.0 - np.conj(wc) * xc)
    return np.array([out.real, out.imag])


def boost_sphere_form(w, x):
    """Simplified boost formula valid only for |x| = 1:
    (1 - |w|^2)(x - w)/|x - w|^2 - w."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    diff = x - w
    return (1.0 - w @ w) * diff / (diff @ diff) - w


def radial_hyperbolic_length(r):
    """Line integral of ds = 2 |dx| / (1 - |x|^2) along the radius [0, r]."""
    val, _ = quad(lambda s: 2.0 / (1.0 - s * s), 0.0, r, epsabs=1e-13, epsrel=1e-13)
    return val


def angle_kuramoto_rhs(theta, omega, weights):
    """Classical planar model: theta_i' = omega + sum_j a_j sin(theta_j - theta_i)."""
    return omega + np.sin(theta[None, :] - theta[:, None]) @ weights


def integrate_angles(theta0, omega, weights, h, t_end):
    """RK4 on the angle form (same scheme and step as the library integrator)."""
    theta = np.asarray(theta0, dtype=float).copy()
    n_steps = int(round(t_end / h))
    for _ in range(n_steps):
        theta = rk4_step(lambda th: angle_kuramoto_rhs(th, omega, weights), theta, h)
    return theta


def angles_to_plane(theta):
    return np.column_stack([np.cos(theta), np.sin(theta)])


def geometric_series(t, n_terms=5000):
    """Partial sum of sum_k t^k, the oracle for F(1, 1; 1; t)."""
    return float(sum(t**k for k in range(n_terms)))


def _format_scalar_reference(v):
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if not np.isfinite(v):
            raise ValueError("non-finite value cannot be serialized")
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


def dumps_record_reference(obj):
    """Trajectory-line serializer one scalar at a time: JSON with floats at
    17 significant digits and keys in insertion order."""
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {dumps_record_reference(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_record_reference(v) for v in obj) + "]"
    return _format_scalar_reference(obj)


def skew_pair_apply(y1, y2, y):
    """<y1, y> y2 - <y2, y> y1: the antisymmetric operator spanned by a pair,
    applied to y without forming its matrix."""
    y1, y2, y = (np.asarray(v, dtype=float) for v in (y1, y2, y))
    return float(y1 @ y) * y2 - float(y2 @ y) * y1


def gaussian_riemann_weights_reference(n, half_width):
    """The Gaussian Riemann-sum weights as the whole array, and its sum as
    the "too wide" test: all n weights, or GeometryError with that message.
    n and half_width are taken as already checked."""
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(-half_width, half_width, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        w = np.exp(-0.5 * mids**2) * (edges[1] - edges[0])
        total = w.sum()
    if not 0.0 < total < np.inf:
        raise GeometryError(f"'half_width' {half_width:g} is too wide for n = {n}: "
                            f"the midpoint densities sum to {total:g}")
    return w / total


def min_pair_dot_reference(x):
    """min_{i<j} <x_i, x_j> over the strict upper triangle of the whole gram
    matrix; 1 for fewer than two rows."""
    n = x.shape[0]
    if n < 2:
        return 1.0
    gram = x @ x.T
    return float(np.min(gram[np.triu_indices(n, 1)]))


def poisson_integral_mc_reference(f, z, n_samples, seed, stream=0):
    """Mean and standard error of f(M_{-z}(x_k)) over all n_samples uniform
    sphere samples, drawn at once and reduced by numpy's mean and std."""
    z = as_ball_point(z)
    x = uniform_sphere(int(n_samples), z.size, rng_from(seed, stream))
    vals = np.asarray(f(boost_apply(-z, x)), dtype=float)
    value = vals.mean(axis=0)
    if int(n_samples) > 1:
        stderr = vals.std(axis=0, ddof=1) / np.sqrt(n_samples)
    else:
        stderr = np.full_like(np.atleast_1d(value), np.inf)
    return MCEstimate(value, stderr, int(n_samples))


def boost_rows_reference(w, x):
    """The image kernel written on the (n, d) rows x: the general ball formula
    through x - w, with |x - w|^2 and |x|^2 each summed one column at a time
    from the first; the images and the denominators."""
    w2 = float(w @ w)
    diff = x - w
    dist2, x2 = diff[:, 0] * diff[:, 0], x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        dist2 = dist2 + diff[:, j] * diff[:, j]
        x2 = x2 + x[:, j] * x[:, j]
    denom = dist2 + (1.0 - w2) * (1.0 - x2)
    return ((1.0 - w2) * diff - dist2[:, None] * w) / denom[:, None], denom


def coupling_sum_reference(w, base, a):
    """sum_i a_i M_w(p_i) from the (N, d) array of boosted images."""
    return np.asarray(a, dtype=float) @ boost_apply(w, base)


def mean_field_order_parameter(x, K):
    """Z = (K/N) sum_i x_i, summed over the rows of x."""
    x = np.asarray(x, dtype=float)
    return (K / x.shape[0]) * x.sum(axis=0)


def integrate_w_reference(w0, base, weights, h, n_steps, stride=1):
    """RK4 on the public w_rhs, one stage at a time: (times, ws, boundary_reached).

    Records t = 0, every stride steps and the last step.  A step that lands
    within 1e-12 of the unit sphere, or a stage that w_rhs rejects as outside
    the ball, ends the run; the last accepted state is then recorded.
    """
    w = np.asarray(w0, dtype=float)
    times, ws, last = [0.0], [w], 0

    def f(v):
        return w_rhs(v, base, weights)

    for k in range(1, n_steps + 1):
        try:
            k1 = f(w)
            k2 = f(w + (0.5 * h) * k1)
            k3 = f(w + (0.5 * h) * k2)
            k4 = f(w + h * k3)
        except GeometryError:
            boundary = True
        else:
            w_next = w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            boundary = float(np.linalg.norm(w_next)) >= 1.0 - 1e-12
        if boundary:
            if last < k - 1:
                times.append((k - 1) * h)
                ws.append(w)
            return np.array(times), np.array(ws), True
        w = w_next
        if k % stride == 0 or k == n_steps:
            times.append(k * h)
            ws.append(w)
            last = k
    return np.array(times), np.array(ws), False


def integrate_full_reference(x0, A, weights, h, t_end, projection=True, stride=1):
    """Plain RK4 on the public full_rhs, one stage at a time:
    (times, states, info, stop).

    Row norms are np.linalg.norm's.  info is the worst |norm - 1| so far.
    With projection every step's rows are divided by their norms, and a step
    whose own defect exceeds NORM_DRIFT_LIMIT stops the run ("unstable");
    without, a worst defect over it stops the run ("drift").  Records t = 0,
    every stride steps, the last step and, after a stop, the last accepted
    state.
    """
    x = np.asarray(x0, dtype=float)
    n_steps = int(round(t_end / h))
    times, states, infos = [0.0], [x], [0.0]
    drift, last, stop = 0.0, 0, "end"

    def f(y):
        return full_rhs(y, A, weights)

    for k in range(1, n_steps + 1):
        k1 = f(x)
        k2 = f(x + (0.5 * h) * k1)
        k3 = f(x + (0.5 * h) * k2)
        k4 = f(x + h * k3)
        y = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        norms = np.linalg.norm(y, axis=1)
        defect = float(np.max(np.abs(norms - 1.0)))
        if not np.all(np.isfinite(y)):
            stop = "nonfinite"
        elif projection and defect > NORM_DRIFT_LIMIT:
            stop = "unstable"
        elif not projection and max(drift, defect) > NORM_DRIFT_LIMIT:
            stop = "drift"
        if stop != "end":
            if last < k - 1:
                times.append((k - 1) * h)
                states.append(x)
                infos.append(drift)
            break
        drift = max(drift, defect)
        x = y / norms[:, None] if projection else y
        if k % stride == 0 or k == n_steps:
            times.append(k * h)
            states.append(x)
            infos.append(drift)
            last = k
    return np.array(times), np.array(states), np.array(infos), stop


class _LeftBall(Exception):
    """An RK stage of a reference integrator left the open unit ball."""


def integrate_continuum_reference(state0, h, t_end, stride=1):
    """Plain numpy RK4 on the public continuum_rhs, one stage at a time:
    (times, states, stop).

    A stage z with z @ z >= 1 has left the ball: the run stops at "boundary"
    from an accepted z within 0.1 of the sphere, else at "unstable".  A stage
    holding a NaN, or a non-finite step, stops at "nonfinite"; a step landing
    within 1e-12 of the sphere at "boundary".  Records t = 0, every stride
    steps, the last step and, after a stop, the last accepted state.
    """
    z, A, K = state0.z, state0.rotation, state0.coupling
    n_steps = int(round(t_end / h))
    times, zs, last, stop = [0.0], [z], 0, "end"

    def f(v):
        if np.isnan(v).any():
            raise FloatingPointError
        if float(v @ v) >= 1.0:
            raise _LeftBall
        return continuum_rhs(v, A, K)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            try:
                k1 = f(z)
                k2 = f(z + (0.5 * h) * k1)
                k3 = f(z + (0.5 * h) * k2)
                k4 = f(z + h * k3)
            except _LeftBall:
                stop = "boundary" if 1.0 - float(np.linalg.norm(z)) <= 0.1 else "unstable"
            except FloatingPointError:
                stop = "nonfinite"
            else:
                z_next = z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
                if not np.isfinite(z_next).all():
                    stop = "nonfinite"
                elif float(np.linalg.norm(z_next)) >= 1.0 - 1e-12:
                    stop = "boundary"
            if stop != "end":
                if last < k - 1:
                    times.append((k - 1) * h)
                    zs.append(z)
                break
            z = z_next
            if k % stride == 0 or k == n_steps:
                times.append(k * h)
                zs.append(z)
                last = k
    return np.array(times), np.array(zs), stop


def centroid_ratio_reference(d, t):
    """F(1, 1 - d/2; 1 + d/2; t) / F(1, 1 - d/2; 1 + d/2; 1), each coefficient
    quotient formed term by term: the direct series for even d or t <= 1/2,
    else the logarithmic expansion in u = 1 - t (DLMF 15.8.10), each summed
    until its tail bound drops below 1e-17; 1 for a t that is not below 1."""
    if not t < 1.0:
        return 1.0
    b, c = 1.0 - d / 2.0, 1.0 + d / 2.0
    if d % 2 == 0 or t <= 0.5:
        total = term = 1.0
        k = 0
        while abs(term) > 1e-17:
            term *= (b + k) / (c + k) * t
            total += term
            k += 1
        return total * (2.0 * (d - 1)) / d
    u, m, half = 1.0 - t, d - 1, d / 2.0
    head = term = 1.0
    for n in range(m - 1):
        term *= (b + n) / (1 - m + n) * u
        head += term
    coef = math.prod(b + j for j in range(m)) / math.factorial(m - 1) * u**m
    log_u = math.log(u)
    delta = sum(2.0 / (2 * j - 1) for j in range(1, (d + 1) // 2)) - 2.0 * math.log(2.0)
    bound = abs(coef) * (abs(log_u) + delta)
    g, s, n = 1.0, 0.0, 0
    while True:
        s += g * (log_u + delta)
        ratio = (half + n) / (n + 1) * u
        g *= ratio
        delta += 1.0 / (half + n) - 1.0 / (n + 1)
        n += 1
        if ratio < 1.0 and bound * g / (1.0 - ratio) <= 1e-17:
            return head - coef * s


def integrate_reduced_stacked_reference(state0, A, weights, h, t_end, stride=1):
    """The boost-first skew product with the rotation carried through every
    RK stage: a plain RK4 loop on the stacked (d + 1, d) state (w; zeta + Omega),
    whose boost row takes w' = -(1 - |w|^2) Z0 / 2 with Z0 = sum_i a_i M_w(p_i)
    summed in numpy in the sphere form (1 - |w|^2) sum_i q_i (p_i - w) - (sum a) w,
    q = a / |p - w|^2, whose rotation rows take the Cayley-RKMK stages
    (I + Omega/2) B (I - Omega/2), and, once accepted, zeta <- E zeta cay(Omega).
    Its own loop keeps the stop contract: a stage whose w has |w|^2 >= 1 stops
    the run, at "boundary" from an accepted w within 0.1 of the sphere, else
    at "unstable"; a non-finite step at "nonfinite"; a step whose w lands
    within 1e-12 of the sphere at "boundary".  Returns, or raises with
    IntegrationAbort, the same Trajectory as reduced.integrate_reduced, whose
    chunked rotation pass advances zeta from buffered stages instead.
    """
    base, zeta, d = state0.base, state0.zeta, state0.boost.size
    A = as_rotation_terms(A, d)
    a = np.asarray(weights, dtype=float)
    pt, total, ones = np.ascontiguousarray(base.T), float(a.sum()), np.ones(d)
    eye = np.eye(d)
    with np.errstate(over="ignore", invalid="ignore"):
        hA = np.zeros((d, d)) if A is None else h * A
        poly = eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4.0) / 3.0) / 2.0)
        defect = float(np.max(np.abs(poly.T @ poly - eye)))
    fail = None if defect <= NORM_DRIFT_LIMIT else "unstable" if defect < np.inf else "nonfinite"
    E = eye if fail else nearest_rotation(poly)

    def rhs(y):
        w = y[0]
        if w.dot(w) >= 1.0:
            raise _LeftBall
        w2 = float(w @ w)
        diff = pt - w[:, None]
        q = a / ones.dot(diff * diff)
        Z0 = (1.0 - w2) * diff.dot(q) - total * w
        half = 0.5 * (y[1:] - zeta)
        return np.vstack([-0.5 * (1.0 - w2) * Z0,
                          (eye + half) @ skew_pair_matrix(Z0, w) @ (eye - half)])

    w0 = state0.boost if state0.form != RIGHT else -(zeta.T @ state0.boost)
    y, info, last, stop = np.vstack([w0, zeta]), 0.0, 0, "end"
    records = [(0.0, y, info)]
    n_steps = int(round(t_end / h))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            try:
                k1 = rhs(y)
                k2 = rhs(y + (0.5 * h) * k1)
                k3 = rhs(y + (0.5 * h) * k2)
                k4 = rhs(y + h * k3)
            except _LeftBall:
                stop = "boundary" if 1.0 - float(np.linalg.norm(y[0])) <= 0.1 else "unstable"
            else:
                y_next = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
                if not np.isfinite(y_next).all():
                    stop = "nonfinite"
                elif float(np.linalg.norm(y_next[0])) >= 1.0 - 1e-12:
                    stop = "boundary"
                elif fail:
                    stop = fail
            if stop != "end":
                if last < k - 1:
                    records.append(((k - 1) * h, y, info))
                break
            half = 0.5 * (y_next[1:] - zeta)
            zeta = E @ zeta @ np.linalg.solve(eye - half, eye + half)
            y = np.vstack([y_next[0], zeta])
            info = float(np.max(np.abs(zeta.T @ zeta - eye)))
            if k % stride == 0 or k == n_steps:
                records.append((k * h, y, info))
                last = k
    times, states, infos = zip(*records)
    states = np.stack(states)
    if state0.form == RIGHT:  # z = (-zeta) w
        states[:, 0] = np.einsum("kij,kj->ki", -states[:, 1:], states[:, 0])
    traj = Trajectory(np.array(times), states, np.array(infos), stop)
    if stop in ("nonfinite", "unstable"):
        raise IntegrationAbort(f"{stop} at t = {k * h:.6g}", traj)
    return traj


def integrate_reduced_right_reference(state0, A, weights, h, n_steps):
    """Rotation-first orbit coordinates (z, zeta) at every step, t = 0 first.

    Classical RK4 on the public reduced_rhs in RIGHT form, one stage at a
    time, with zeta replaced by its polar factor (nearest_rotation) after
    every step.  An RK stage's zeta is off SO(d), so a stage is passed as a
    plain namespace, not a validated ReducedState.  No stop contract: the run
    must stay well inside the ball.
    """
    def f(z, zeta):
        stage = SimpleNamespace(boost=z, zeta=zeta, base=state0.base, form=RIGHT)
        return reduced_rhs(stage, A, weights)

    z, zeta = state0.boost, state0.zeta
    out = [(z, zeta)]
    for _ in range(n_steps):
        k1 = f(z, zeta)
        k2 = f(z + (0.5 * h) * k1[0], zeta + (0.5 * h) * k1[1])
        k3 = f(z + (0.5 * h) * k2[0], zeta + (0.5 * h) * k2[1])
        k4 = f(z + h * k3[0], zeta + h * k3[1])
        z, zeta = (v + (h / 6.0) * (a + 2.0 * (b + c) + e)
                   for v, a, b, c, e in zip((z, zeta), k1, k2, k3, k4))
        zeta = nearest_rotation(zeta)
        out.append((z, zeta))
    return out


def fixed_point_reference(ctx, seed=0, settle_time=10.0, max_time=400.0, fd=1e-7):
    """Interior equilibrium of the boost flow of a PotentialContext, by flow.

    Integrates the flow backward (the equilibrium repels, so it attracts in
    backward time) in chunks of settle_time from the same seeded start as
    find_fixed_point until the flow speed drops below 1e-8, then polishes
    with Newton on sum_i a_i M_w(p_i) and a central-difference Jacobian until
    that centroid is below 1e-12.  Returns w_star; raises RuntimeError when
    the flow does not settle or Newton does not converge.
    """
    def centroid(w):
        return ctx.weights @ boost_apply(w, ctx.base)

    w = uniform_ball(ctx.d, rng_from(seed, 11), radius=0.5)
    elapsed = 0.0
    while True:
        if elapsed >= max_time:
            raise RuntimeError("backward flow did not settle")
        w = integrate_w(w, ctx.base, ctx.weights, -0.01, -settle_time).final.copy()
        elapsed += settle_time
        if np.linalg.norm(w_rhs(w, ctx.base, ctx.weights)) < 1e-8:
            break
    for _ in range(50):
        g = centroid(w)
        if np.linalg.norm(g) <= 1e-12:
            return w
        jac = np.empty((ctx.d, ctx.d))
        for j in range(ctx.d):
            e = np.zeros(ctx.d)
            e[j] = fd
            jac[:, j] = (centroid(w + e) - centroid(w - e)) / (2.0 * fd)
        w = w - np.linalg.solve(jac, g)
    raise RuntimeError("Newton polish did not converge")
