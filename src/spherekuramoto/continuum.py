"""Mean-field (infinite population) machinery.

The orbit of the uniform sphere measure under boosts is parametrized by one
ball point z; its density against the uniform measure is the hyperbolic
Poisson kernel and its centroid has a hypergeometric closed form.  This
module evaluates those closed forms, provides Monte Carlo oracles for them,
and integrates the reduced mean-field flow for z.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# rk4_step stays importable from here: perfbench/selftest.py checks that the
# tracer rebinds it in every module that holds it.
from .dynamics import _boundary, _drive, _inside_ball, _result, rk4_step  # noqa: F401
from .geometry import GeometryError, _generator, as_antisymmetric, as_ball_point, boost_apply
from .sampling import rng_from, uniform_sphere

__all__ = [
    "ConvergenceError",
    "ContinuumState",
    "MCEstimate",
    "hypergeom_f",
    "order_parameter_closed_form",
    "poisson_kernel_hyperbolic",
    "poisson_kernel_euclidean",
    "poisson_integral_mc",
    "sample_pushforward",
    "continuum_rhs",
    "integrate_continuum",
]


class ConvergenceError(ArithmeticError):
    """The hypergeometric series cannot be summed to tolerance."""


def _is_nonpositive_int(x):
    return x <= 0.0 and x == round(x)


_BLOCK = 4096


def hypergeom_f(a, b, c, t, rtol=1e-15, max_terms=2_000_000):
    """Gauss hypergeometric function F(a, b; c; t) = sum_k (a)_k (b)_k / (c)_k * t^k / k!.

    The series terminates exactly (a finite sum) when a or b is a nonpositive
    integer.  Otherwise it is summed for |t| < 1 until a bound on the
    remaining tail is at most rtol times the partial sum; t = 1 with
    c - a - b > 0 returns Gauss's sum G(c) G(c-a-b) / (G(c-a) G(c-b))
    (DLMF 15.4.20), and t = -1 with c - a - b > -1 the Pfaff transform
    2^-a F(a, c - b; c; 1/2) (DLMF 15.8.1).  Divergence, a pole of the
    coefficients (c a nonpositive integer reached before termination), a
    Gamma function beyond the float range in Gauss's sum, and a tail bound
    still above rtol after max_terms terms raise ConvergenceError, never a
    truncated value.
    """
    a, b, c, t = float(a), float(b), float(c), float(t)
    terminating = _is_nonpositive_int(a) or _is_nonpositive_int(b)
    if abs(t) > 1.0:
        raise ConvergenceError(f"series diverges for |t| = {abs(t):.17g} > 1")
    if not terminating:
        if t == 1.0 and c - a - b <= 0.0:
            raise ConvergenceError(f"series diverges at t = 1 (c - a - b = {c - a - b:.17g})")
        if t == -1.0 and c - a - b <= -1.0:
            raise ConvergenceError(f"series diverges at t = -1 (c - a - b = {c - a - b:.17g})")
        if _is_nonpositive_int(c):
            raise ConvergenceError(f"series hit the coefficient pole at c = {c:.17g}")
        if t == 1.0:
            if _is_nonpositive_int(c - a) or _is_nonpositive_int(c - b):
                return 0.0
            try:
                return (math.gamma(c) / math.gamma(c - a)
                        * (math.gamma(c - a - b) / math.gamma(c - b)))
            except OverflowError:
                raise ConvergenceError(f"Gauss's sum overflows for c = {c:.17g}") from None
        if t == -1.0:
            return 2.0**-a * hypergeom_f(a, c - b, c, 0.5, rtol, max_terms)

    total = 1.0
    term = 1.0
    k = 0
    while k < max_terms:
        ks = np.arange(k, k + _BLOCK, dtype=float)
        numer = (a + ks) * (b + ks)
        denom = (c + ks) * (ks + 1.0)
        stop = np.nonzero(numer == 0.0)[0]
        limit = int(stop[0]) if stop.size else _BLOCK
        if np.any(denom[:limit] == 0.0):
            raise ConvergenceError(f"series hit the coefficient pole at c = {c:.17g}")
        terms = term * np.cumprod(numer[:limit] / denom[:limit] * t)
        if stop.size:
            return total + float(terms.sum())
        # Every ratio after term j (j > |c|) is at most rho_j in magnitude, so
        # the tail after it is at most |term_j| rho_j / (1 - rho_j).
        js = ks + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = (abs(t) * np.maximum(1.0, (js + abs(a)) / (js + 1.0))
                   * (js + abs(b)) / (js - abs(c)))
            tail = np.where((js > abs(c)) & (rho < 1.0), np.abs(terms) * rho / (1.0 - rho), np.inf)
        done = np.nonzero(tail <= rtol * np.abs(total + np.cumsum(terms)))[0]
        if done.size:
            return total + float(terms[: done[0] + 1].sum())
        total += float(terms.sum())
        term = float(terms[-1])
        k += _BLOCK
    raise ConvergenceError(f"series did not converge within {max_terms} terms (t = {t:.17g})")


_TAIL = 1e-17  # absolute bound on a dropped series tail; the sums below are >= 1/2


def _centroid_ratio(d, t):
    """R_d(t) = F(1, 1 - d/2; 1 + d/2; t) / F(1, 1 - d/2; 1 + d/2; 1) for 0 <= t <= 1.

    The normalizer is Gauss's sum d / (2(d - 1)), as c - a - b = d - 1.  For
    even d the series is a polynomial; for odd d it is summed directly up to
    t = 1/2 and replaced above by the logarithmic expansion in 1 - t for the
    integer m = c - a - b (DLMF 15.8.10), where a = 1 cancels the psi(n + m + 1)
    terms and leaves psi(n + d/2) - psi(n + 1) by recurrence from its value at
    n = 0.  Each dropped tail is bounded by _TAIL, so R is accurate to a few
    units in the last place; a t that rounds to 1 returns 1, and so does a
    NaN t, whose centroid stays NaN through z.
    """
    if not t < 1.0:
        return 1.0
    b, c = 1.0 - d / 2.0, 1.0 + d / 2.0
    if d % 2 == 0 or t <= 0.5:
        # term ratio (b + k) / (c + k) * t, at most t in magnitude
        total = term = 1.0
        k = 0
        while abs(term) > _TAIL:
            term *= (b + k) / (c + k) * t
            total += term
            k += 1
        return total * (2.0 * (d - 1)) / d
    u, m, half = 1.0 - t, d - 1, d / 2.0
    # R = sum_{n<m} (b)_n / (1-m)_n u^n
    #     - (b)_m / (m-1)! u^m sum_n (d/2)_n / n! u^n (log u + psi(n + d/2) - psi(n + 1))
    head = term = 1.0
    for n in range(m - 1):
        term *= (b + n) / (1 - m + n) * u
        head += term
    coef = math.prod(b + j for j in range(m)) / math.factorial(m - 1) * u**m
    log_u = math.log(u)
    # psi(d/2) - psi(1) for half-integer d/2; it decreases to 0 in n
    delta = sum(2.0 / (2 * j - 1) for j in range(1, (d + 1) // 2)) - 2.0 * math.log(2.0)
    bound = abs(coef) * (abs(log_u) + delta)
    g, s, n = 1.0, 0.0, 0
    while True:
        s += g * (log_u + delta)
        ratio = (half + n) / (n + 1) * u  # decreasing in n
        g *= ratio
        delta += 1.0 / (half + n) - 1.0 / (n + 1)
        n += 1
        if ratio < 1.0 and bound * g / (1.0 - ratio) <= _TAIL:
            return head - coef * s


def order_parameter_closed_form(z, coupling=1.0):
    """Centroid coupling vector of the boosted uniform ensemble at z.

    Returns K * F(1, 1 - d/2; 1 + d/2; |z|^2) / F(1, 1 - d/2; 1 + d/2; 1) * z,
    always parallel to z, with the normalizer F(...; 1) = d / (2(d - 1)).
    For d = 2 the ratio is identically 1 and the result is exactly K z.
    """
    return _closed_form(as_ball_point(z), coupling)


def _closed_form(z, coupling):
    # unvalidated: the integrator's stage guard keeps z inside the ball, and a
    # NaN stage gives a NaN derivative, which ends the run as "nonfinite"
    return coupling * _centroid_ratio(z.size, float(z @ z)) * z


# ---------------------------------------------------------------------------
# Poisson kernels and Monte Carlo oracles


def poisson_kernel_hyperbolic(z, x):
    """((1 - |z|^2) / |z - x|^2)^(d-1): density of the boosted uniform sphere
    measure at parameter z against the uniform measure.  x may be a single
    sphere point or a batch of rows."""
    z = as_ball_point(z)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != z.size:
        raise GeometryError("dimension mismatch between z and x")
    d = z.size
    diff2 = np.einsum("ij,ij->i", pts - z, pts - z)
    vals = ((1.0 - float(z @ z)) / diff2) ** (d - 1)
    return float(vals[0]) if single else vals


def poisson_kernel_euclidean(z, x):
    """(1 - |z|^2) / |z - x|^d: the classical kernel of the flat Laplacian.
    Agrees with the hyperbolic kernel only when d = 2."""
    z = as_ball_point(z)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != z.size:
        raise GeometryError("dimension mismatch between z and x")
    d = z.size
    diff2 = np.einsum("ij,ij->i", pts - z, pts - z)
    vals = (1.0 - float(z @ z)) / diff2 ** (d / 2.0)
    return float(vals[0]) if single else vals


@dataclass(frozen=True)
class MCEstimate:
    value: np.ndarray
    stderr: np.ndarray
    n_samples: int


def poisson_integral_mc(f, z, n_samples, seed, stream=0):
    """Monte Carlo boundary integral of f against the boosted uniform measure.

    Averages f(M_{-z}(x_k)) over uniform sphere samples x_k, which realizes
    the pushforward measure directly.  f must accept an (n, d) array and
    return (n,) or (n, m) values.  Per-component standard errors accompany
    the estimate.
    """
    z = as_ball_point(z)
    if int(n_samples) < 1:
        raise GeometryError("need at least one Monte Carlo sample")
    x = uniform_sphere(int(n_samples), z.size, rng_from(seed, stream))
    vals = np.asarray(f(boost_apply(-z, x)), dtype=float)
    value = vals.mean(axis=0)
    if int(n_samples) > 1:
        stderr = vals.std(axis=0, ddof=1) / np.sqrt(n_samples)
    else:
        stderr = np.full_like(np.atleast_1d(value), np.inf)
    return MCEstimate(value, stderr, int(n_samples))


def sample_pushforward(z, n_samples, seed, stream=0):
    """Empirical draw from the boosted uniform measure: M_{-z}(x_k) with x_k
    uniform on the sphere.  All outputs are unit vectors."""
    z = as_ball_point(z)
    x = uniform_sphere(int(n_samples), z.size, rng_from(seed, stream))
    return boost_apply(-z, x)


# ---------------------------------------------------------------------------
# reduced mean-field flow


@dataclass(frozen=True)
class ContinuumState:
    """Mean-field ensemble coordinate: the boost parameter z of a boosted
    uniform measure, its coupling gain, and the shared rotation term."""

    z: np.ndarray
    coupling: float
    rotation: np.ndarray | None = None

    def __post_init__(self):
        z = as_ball_point(self.z)
        rotation = None if self.rotation is None else as_antisymmetric(self.rotation, z.size)
        if not np.isfinite(self.coupling):
            raise GeometryError("coupling must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "rotation", rotation)


def continuum_rhs(z, A, coupling):
    """z' = A z + (1 + |z|^2) Z(z) / 2 - <Z(z), z> z with the closed-form Z."""
    A = None if A is None else np.asarray(A, dtype=float)
    return _continuum_field(as_ball_point(z), A, coupling)


def _continuum_field(z, A, coupling):
    # continuum_rhs without validation, for the integrator's RK stages
    return _generator(A, _closed_form(z, coupling), z)


def integrate_continuum(state0, h, t_end, stride=1):
    """RK4 on the mean-field coordinate z; stops cleanly at the ball boundary
    (after a step or in an RK stage) with the last accepted state recorded.

    Returns (times, zs, boundary_reached).
    """
    if not isinstance(state0, ContinuumState):
        raise TypeError("integrate_continuum expects a ContinuumState")
    A = state0.rotation
    K = state0.coupling
    rhs = _inside_ball(lambda z: _continuum_field(z, A, K), state0.z.size)
    records, stop = _drive(rhs, state0.z, h, t_end, stride, lambda z: (z, 0.0, _boundary(z)))
    times, zs, _ = map(np.asarray, zip(*records))
    return _result((times, zs, stop[0] == "boundary"), stop)
