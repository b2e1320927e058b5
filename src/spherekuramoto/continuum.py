"""Mean-field (infinite population) machinery.

The orbit of the uniform sphere measure under boosts is parametrized by one
ball point z; its density against the uniform measure is the hyperbolic
Poisson kernel and its centroid has a hypergeometric closed form.  This
module evaluates those closed forms, provides Monte Carlo oracles for them,
and integrates the reduced mean-field flow for z.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# rk4_step stays importable from here: perfbench/selftest.py checks that the
# tracer rebinds it in every module that holds it.
from .dynamics import _ball_step, _drive, as_rotation_terms, rk4_step  # noqa: F401
from .geometry import GeometryError, _boost, _generator, _number, as_ball_point, boost_apply
from .sampling import _gaussian_rows, rng_from, uniform_sphere

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


_MC_ROWS = 2**14  # Monte Carlo samples drawn, boosted and averaged at a time


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

    total, comp, term = 1.0, 0.0, 1.0  # Neumaier's compensated sum total + comp
    for k in range(max_terms):
        numer = (a + k) * (b + k)
        if numer == 0.0:
            return total + comp
        denom = (c + k) * (k + 1.0)
        if denom == 0.0:
            raise ConvergenceError(f"series hit the coefficient pole at c = {c:.17g}")
        term *= numer / denom * t
        s = total + term
        comp += (total - s) + term if abs(total) >= abs(term) else (term - s) + total
        total = s
        # Every ratio after term j (j > |c|) is at most rho_j in magnitude, so
        # the tail after it is at most |term_j| rho_j / (1 - rho_j).
        j = k + 1.0
        if j > abs(c):
            rho = abs(t) * max(1.0, (j + abs(a)) / (j + 1.0)) * (j + abs(b)) / (j - abs(c))
            if rho < 1.0 and abs(term) * rho / (1.0 - rho) <= rtol * abs(total + comp):
                return total + comp
    raise ConvergenceError(f"series did not converge within {max_terms} terms (t = {t:.17g})")


_TAIL = 1e-17  # absolute bound on a dropped series tail; the sums below are >= 1/2


@functools.cache
def _series_ratios(d):
    """The term ratios (b + k) / (c + k) of _centroid_ratio's direct series in
    dimension d: d/2 of them for even d, where the series ends, else 64.  For
    odd d the series runs only for t <= 1/2, and each |ratio| <= 1, so the
    term after k ratios is at most 2^-k, below _TAIL from k = 57 on."""
    b, c = 1.0 - d / 2.0, 1.0 + d / 2.0
    return tuple((b + k) / (c + k) for k in range(d // 2 if d % 2 == 0 else 64))


@functools.cache
def _log_tables(d):
    """The t-free parts of _centroid_ratio's logarithmic expansion for odd d:
    the head's term ratios, the coefficient (b)_m / (m-1)! without u^m (past
    d = 171, (m-1)! is no float and this raises OverflowError), psi(d/2) -
    psi(1), and the d + 64 ratios (d/2 + n) / (n + 1) and psi increments of
    the expansion.  It stops after at most d + 55 of those for d <= 171: its
    stop test only gets harder to meet as u grows to 1/2, where that count is
    taken."""
    b, m, half = 1.0 - d / 2.0, d - 1, d / 2.0
    coef = math.prod(b + j for j in range(m)) / math.factorial(m - 1)
    delta = sum(2.0 / (2 * j - 1) for j in range(1, (d + 1) // 2)) - 2.0 * math.log(2.0)
    steps = range(d + 64)
    return (tuple((b + n) / (1 - m + n) for n in range(m - 1)), coef, delta,
            tuple((half + n) / (n + 1) for n in steps),
            tuple(1.0 / (half + n) - 1.0 / (n + 1) for n in steps))


def _centroid_ratio(d, t):
    """R_d(t) = F(1, 1 - d/2; 1 + d/2; t) / F(1, 1 - d/2; 1 + d/2; 1) for 0 <= t <= 1.

    The normalizer is Gauss's sum d / (2(d - 1)), as c - a - b = d - 1.  For
    even d the series is a polynomial; for odd d it is summed directly up to
    t = 1/2 and replaced above by the logarithmic expansion in 1 - t for the
    integer m = c - a - b (DLMF 15.8.10), where a = 1 cancels the psi(n + m + 1)
    terms and leaves psi(n + d/2) - psi(n + 1) by recurrence from its value at
    n = 0.  Each dropped tail is bounded by _TAIL, so R is accurate to a few
    units in the last place; a t that rounds to 1 returns 1, and so does a
    NaN t, whose centroid stays NaN through z.  The coefficient quotients
    come from tables cached once per d (_series_ratios, _log_tables), the
    same doubles as forming them term by term.
    """
    if not t < 1.0:
        return 1.0
    if d % 2 == 0 or t <= 0.5:
        total = term = 1.0
        for ratio in _series_ratios(d):
            term *= ratio * t
            total += term
            if abs(term) <= _TAIL:
                break
        return total * (2.0 * (d - 1)) / d
    head_ratios, coef, delta, ratios, increments = _log_tables(d)
    # R = sum_{n<m} (b)_n / (1-m)_n u^n
    #     - (b)_m / (m-1)! u^m sum_n (d/2)_n / n! u^n (log u + psi(n + d/2) - psi(n + 1))
    u = 1.0 - t
    head = term = 1.0
    for ratio in head_ratios:
        term *= ratio * u
        head += term
    coef *= u ** (d - 1)
    log_u = math.log(u)
    bound = abs(coef) * (abs(log_u) + delta)  # psi(n + d/2) - psi(n + 1) decreases to 0
    g, s = 1.0, 0.0
    for ratio, step in zip(ratios, increments):
        s += g * (log_u + delta)
        ratio *= u  # decreasing in n
        g *= ratio
        delta += step
        if ratio < 1.0 and bound * g / (1.0 - ratio) <= _TAIL:
            return head - coef * s


def order_parameter_closed_form(z, coupling=1.0):
    """Centroid coupling vector of the boosted uniform ensemble at z.

    Returns K * F(1, 1 - d/2; 1 + d/2; |z|^2) / F(1, 1 - d/2; 1 + d/2; 1) * z,
    always parallel to z, with the normalizer F(...; 1) = d / (2(d - 1)).
    For d = 2 the ratio is identically 1 and the result is exactly K z.
    """
    z = as_ball_point(z)
    return _centroid(z, float(z @ z), coupling)


def _centroid(z, z2, coupling):
    """coupling * R_d(z2) * z for z2 = z @ z; past the float range of
    _centroid_ratio's coefficient, a GeometryError that names the limit."""
    try:
        return coupling * _centroid_ratio(z.size, z2) * z
    except OverflowError:
        raise GeometryError(f"the centroid ratio of odd d > 171 (here {z.size}) "
                            "overflows the float range above |z|^2 = 1/2") from None


# ---------------------------------------------------------------------------
# Poisson kernels and Monte Carlo oracles


def poisson_kernel_hyperbolic(z, x):
    """((1 - |z|^2) / |z - x|^2)^(d-1): density of the boosted uniform sphere
    measure at parameter z against the uniform measure.  x may be a single
    sphere point or a batch of rows."""
    return _kernel(z, x, lambda s, diff2, d: (s / diff2) ** (d - 1))


def poisson_kernel_euclidean(z, x):
    """(1 - |z|^2) / |z - x|^d: the classical kernel of the flat Laplacian.
    Agrees with the hyperbolic kernel only when d = 2."""
    return _kernel(z, x, lambda s, diff2, d: s / diff2 ** (d / 2.0))


def _kernel(z, x, formula):
    """formula(1 - |z|^2, |z - x|^2, d) at a single point x (a float) or at
    each row of x, after checking z and the dimension."""
    z = as_ball_point(z)
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if pts.shape[1] != z.size:
        raise GeometryError("dimension mismatch between z and x")
    vals = formula(1.0 - float(z @ z), np.einsum("ij,ij->i", pts - z, pts - z), z.size)
    return float(vals[0]) if x.ndim == 1 else vals


@dataclass(frozen=True)
class MCEstimate:
    value: np.ndarray
    stderr: np.ndarray
    n_samples: int


def poisson_integral_mc(f, z, n_samples, seed, stream=0):
    """Monte Carlo boundary integral of f against the boosted uniform measure.

    Averages f(M_{-z}(x_k)) over uniform sphere samples x_k, which realizes
    the pushforward measure directly.  Per-component standard errors
    accompany the estimate.

    The samples are drawn, boosted and passed to f in blocks of _MC_ROWS
    rows, so memory does not grow with n_samples.  z is checked once; each
    block is normalized into a C-ordered (d, k) array, one sample per column,
    and takes the unchecked geometry._boost on it, whose precondition (unit
    points, |z| < 1) keeps every denominator positive, so the images are
    boost_apply's doubles.  The draw, the points and the images fill one
    workspace allocated per call (the images overwrite the spent draw), so
    no block faults in fresh pages.  f is
    called once per block with an (n, d) view of the images that need not be
    C-contiguous (the transpose of the (d, n) block) and that the next block
    overwrites; it must return (n,) or (n, m) values and be row-wise: output
    k may depend only on row k.  Each block's
    sums run along its rows of n values, so numpy adds them pairwise.  The
    block means and sums of squared deviations are merged by Chan, Golub &
    LeVeque (Amer. Stat. 37, 1983).  The sample stream is the one a single
    uniform_sphere draw of all n_samples rows gives, except after a zero-norm
    redraw, an event of probability zero.
    """
    z = as_ball_point(z)
    n_samples = _number(n_samples, "n_samples", 0, kinds=())
    rng, w, d = rng_from(seed, stream), -z, z.size
    work = np.empty((2, d * min(_MC_ROWS, n_samples)))  # the draw, then its images; the points
    mean = m2 = 0.0
    for done in range(0, n_samples, _MC_ROWS):
        k = min(_MC_ROWS, n_samples - done)
        v, norms = _gaussian_rows(k, d, rng, work[0, :d * k].reshape(k, d))
        xt = np.divide(v.T, norms, out=work[1, :d * k].reshape(d, k))
        del v, norms  # each input goes once used, to keep peak memory low
        img = _boost(w, xt, work[0, :d * k].reshape(d, k))[0]
        vals = np.asarray(f(img.T), dtype=float).T  # (m, k) or (k,)
        del xt, img
        block_mean = vals.sum(axis=-1) / k
        dev = vals - block_mean[..., None]
        dev *= dev
        delta = block_mean - mean
        mean = mean + delta * (k / (done + k))
        m2 = m2 + dev.sum(axis=-1) + delta * delta * (done * k / (done + k))
    if n_samples > 1:
        stderr = np.sqrt(m2 / (n_samples - 1)) / np.sqrt(n_samples)
    else:
        stderr = np.full_like(np.atleast_1d(mean), np.inf)
    return MCEstimate(mean, stderr, n_samples)


def sample_pushforward(z, n_samples, seed, stream=0):
    """Empirical draw from the boosted uniform measure: M_{-z}(x_k) with x_k
    uniform on the sphere.  All outputs are unit vectors."""
    z = as_ball_point(z)
    n_samples = _number(n_samples, "n_samples", -1, kinds=())
    x = uniform_sphere(n_samples, z.size, rng_from(seed, stream))
    return boost_apply(-z, x)


# ---------------------------------------------------------------------------
# reduced mean-field flow


@dataclass(frozen=True)
class ContinuumState:
    """Mean-field ensemble coordinate: the boost parameter z of a boosted
    uniform measure, its finite coupling gain, and the rotation term, None
    or one shared (d, d) term (dynamics.as_rotation_terms)."""

    z: np.ndarray
    coupling: float
    rotation: np.ndarray | None = None

    def __post_init__(self):
        z = as_ball_point(self.z)
        rotation = as_rotation_terms(self.rotation, z.size)
        _number(self.coupling, "coupling")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "rotation", rotation)


def continuum_rhs(z, A, coupling):
    """z' = A z + (1 + |z|^2) Z(z) / 2 - <Z(z), z> z with the closed-form Z.

    z, A and coupling are checked as a ContinuumState is.
    """
    state = ContinuumState(z, coupling, A)
    z = state.z
    return np.array(_continuum_field(z, float(z @ z), state.rotation, state.coupling))


def _continuum_field(z, z2, A, coupling):
    """continuum_rhs unvalidated, as a list of floats, for z2 = z @ z;
    integrate_continuum runs it in every RK stage, with the z2 of the stage
    guard, which keeps z inside the ball.  A NaN stage gives a NaN
    derivative, which ends the run as "nonfinite"."""
    return _generator(A, _centroid(z, z2, coupling), z, z2)


def integrate_continuum(state0, h, t_end, stride=1):
    """RK4 on the mean-field coordinate z, a ball point stepped by
    dynamics._ball_step; a boundary stop records the last accepted state.

    Returns the dynamics.Trajectory of the (d,) points z.
    """
    if not isinstance(state0, ContinuumState):
        raise TypeError("integrate_continuum expects a ContinuumState")
    A, K = state0.rotation, state0.coupling
    step = _ball_step(lambda z, z2: _continuum_field(z, z2, A, K), state0.z, h)
    return _drive(step, state0.z, h, t_end, stride)
