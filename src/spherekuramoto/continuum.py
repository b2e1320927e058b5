"""Mean-field (infinite population) machinery.

The orbit of the uniform sphere measure under boosts is parametrized by one
ball point z; its density against the uniform measure is the hyperbolic
Poisson kernel and its centroid has a hypergeometric closed form.  This
module evaluates those closed forms, provides Monte Carlo oracles for them,
and integrates the reduced mean-field flow for z.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# rk4_step stays importable from here: perfbench/selftest.py checks that the
# tracer rebinds it in every module that holds it.
from .dynamics import _boundary, _drive, _inside_ball, _result, rk4_step  # noqa: F401
from .geometry import GeometryError, as_antisymmetric, as_ball_point, boost_apply
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
    """Gauss hypergeometric series sum_k (a)_k (b)_k / (c)_k * t^k / k!.

    The series is summed directly with a term-ratio stopping rule.  It
    terminates exactly (a finite sum) when a or b is a nonpositive integer;
    otherwise it requires |t| < 1, or |t| = 1 with the classical margin
    (c - a - b > 0 at t = 1, > -1 at t = -1).  A pole of the coefficients
    (c a nonpositive integer reached before termination) and failure to
    converge are reported, never silently truncated.
    """
    a, b, c, t = float(a), float(b), float(c), float(t)
    terminating = _is_nonpositive_int(a) or _is_nonpositive_int(b)
    if abs(t) > 1.0:
        raise ConvergenceError(f"series diverges for |t| = {abs(t):.17g} > 1")
    if not terminating and t == 1.0 and c - a - b <= 0.0:
        raise ConvergenceError(f"series diverges at t = 1 (c - a - b = {c - a - b:.17g})")
    if not terminating and t == -1.0 and c - a - b <= -1.0:
        raise ConvergenceError(f"series diverges at t = -1 (c - a - b = {c - a - b:.17g})")

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
        if limit == 0:
            return total
        terms = term * np.cumprod(numer[:limit] / denom[:limit] * t)
        total += float(terms.sum())
        term = float(terms[-1])
        if stop.size:
            return total
        k += _BLOCK
        if abs(term) <= rtol * max(abs(total), 1e-30):
            return total
    raise ConvergenceError(f"series did not converge within {max_terms} terms (t = {t:.17g})")


@lru_cache(maxsize=None)
def _boundary_normalizer(d):
    """F(1, 1 - d/2; 1 + d/2; 1): the boundary value normalizing the closed form."""
    return hypergeom_f(1.0, 1.0 - d / 2.0, 1.0 + d / 2.0, 1.0)


def order_parameter_closed_form(z, coupling=1.0):
    """Centroid coupling vector of the boosted uniform ensemble at z.

    Returns K * F(1, 1 - d/2; 1 + d/2; |z|^2) / F(1, 1 - d/2; 1 + d/2; 1) * z,
    always parallel to z.  For d = 2 both series are identically 1 and the
    result is exactly K z.
    """
    z = as_ball_point(z)
    d = z.size
    t = float(z @ z)
    ratio = hypergeom_f(1.0, 1.0 - d / 2.0, 1.0 + d / 2.0, t) / _boundary_normalizer(d)
    return coupling * ratio * z


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
    z = np.asarray(z, dtype=float)
    Z = order_parameter_closed_form(z, coupling)
    out = 0.5 * (1.0 + float(z @ z)) * Z - float(Z @ z) * z
    if A is not None:
        out = out + np.asarray(A, dtype=float) @ z
    return out


def integrate_continuum(state0, h, t_end, stride=1):
    """RK4 on the mean-field coordinate z; stops cleanly at the ball boundary
    (after a step or in an RK stage) with the last accepted state recorded.

    Returns (times, zs, boundary_reached).
    """
    if not isinstance(state0, ContinuumState):
        raise TypeError("integrate_continuum expects a ContinuumState")
    A = state0.rotation
    K = state0.coupling
    rhs = _inside_ball(lambda z: continuum_rhs(z, A, K), state0.z.size)
    records, stop = _drive(rhs, state0.z, h, t_end, stride, lambda z: (z, 0.0, _boundary(z)))
    times, zs, _ = map(np.asarray, zip(*records))
    return _result((times, zs, stop[0] == "boundary"), stop)
