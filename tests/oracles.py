"""Independent reference implementations used only to check the library.

Each oracle is deliberately written along a different route than the code it
checks: complex one-variable arithmetic for the planar boost, the simplified
sphere-restricted boost formula, the classical angle form of the planar
model, quadrature for the radial hyperbolic length, a plain geometric series for
the hypergeometric spot value, a per-scalar recursive formatter for the
trajectory serializer, a plain RK4 loop over the public, validating boost
flow for the boost-only integrator, the weighted sum of the boosted image
array for the fused coupling-sum kernel, and the scaled plain sum of the
positions for the mean-field order parameter.
"""
import json

import numpy as np
from scipy.integrate import quad

from spherekuramoto.dynamics import rk4_step
from spherekuramoto.geometry import GeometryError, boost_apply
from spherekuramoto.reduced import w_rhs


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
