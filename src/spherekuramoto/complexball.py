"""Flows on the complex unit sphere and ball (even ambient dimension 2m).

The Hermitian analogue of the real model replaces antisymmetric matrices by
anti-Hermitian ones and drops the quadratic coupling term.  For m = 1 the
resulting flows coincide with the real two-dimensional ones (with the
coupling vector doubled); for m >= 2 they are genuinely different, which
divergence_from_real certifies numerically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, _array, _number, _square
from .sampling import rng_from, uniform_sphere

__all__ = [
    "DivergenceReport",
    "hermitian_inner",
    "as_complex_vector",
    "as_antihermitian",
    "random_antihermitian",
    "complex_boost",
    "complex_flow_rhs",
    "real_view",
    "complex_view",
    "real_antisymmetric_view",
    "divergence_from_real",
]


def hermitian_inner(x, y):
    """<x, y> = sum_k x_k conj(y_k): linear in x, conjugate-linear in y.

    Supports batched first arguments (rows of x against a single y).
    """
    return np.sum(np.asarray(x) * np.conj(np.asarray(y)), axis=-1)


def as_complex_vector(v, dim=None):
    v = _array(v, "vector", (dim,), complex)
    if v.size < 1:
        raise GeometryError("complex vector must not be empty")
    return v


def as_antihermitian(m, dim=None, tol=1e-12):
    """Validate an anti-Hermitian matrix: conj(m).T == -m within tol."""
    m = _square(m, "matrix", dim, complex)
    err = float(np.max(np.abs(m.conj().T + m)))
    if err > tol:
        raise GeometryError(f"matrix is not anti-Hermitian (residual {err:.3e})")
    return m


def random_antihermitian(m_dim, rng, scale=1.0):
    """Anti-Hermitian matrix B - conj(B).T for a random complex B (exact identity)."""
    b = scale * (rng.standard_normal((m_dim, m_dim)) + 1j * rng.standard_normal((m_dim, m_dim)))
    return b - b.conj().T


# ---------------------------------------------------------------------------
# boosts and the flow


def complex_boost(w, x):
    """Boost of the complex ball carrying w to the origin.

    Evaluates

        (sqrt(1-|w|^2) x + (<x, w>/(1 + sqrt(1-|w|^2)) - 1) w) / (1 - <x, w>)

    with the Hermitian inner product; maps the complex ball and sphere to
    themselves and reduces to (x - w)/(1 - x conj(w)) when m = 1.

    x may be a single vector or a batch of rows.
    """
    w = as_complex_vector(w)
    wn = float(np.linalg.norm(w))
    if wn >= 1.0:
        raise GeometryError(f"boost parameter lies outside the open unit ball (|w| = {wn:.17g})")
    x = np.asarray(x, dtype=complex)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != w.size:
        raise GeometryError("dimension mismatch between boost and point")
    s = np.sqrt(1.0 - wn**2)
    xw = hermitian_inner(pts, w)  # (n,)
    denom = 1.0 - xw
    if np.any(np.abs(denom) < 1e-300):
        raise GeometryError("complex boost denominator vanished; state is corrupted")
    num = s * pts + (xw / (1.0 + s) - 1.0)[:, None] * w
    out = num / denom[:, None]
    return out[0] if single else out


def complex_flow_rhs(x, A, Z):
    """x' = A x + Z - <x, Z> x (no quadratic |x|^2 Z term).

    Re<x', x> vanishes identically on the unit sphere, so the flow preserves
    it.  x may be a single vector or a batch of rows.
    """
    x = np.asarray(x, dtype=complex)
    Z = as_complex_vector(Z, x.shape[-1])
    coeff = hermitian_inner(x, Z)
    if x.ndim == 1:
        out = Z - coeff * x
    else:
        out = Z[None, :] - coeff[:, None] * x
    if A is not None:
        out = out + x @ np.asarray(A, dtype=complex).T
    return out


# ---------------------------------------------------------------------------
# real form and the divergence certificate


def real_view(x):
    """R^{2m} view of C^m with components interleaved as (Re, Im) pairs."""
    x = np.asarray(x, dtype=complex)
    out = np.empty(x.shape[:-1] + (2 * x.shape[-1],), dtype=float)
    out[..., 0::2] = x.real
    out[..., 1::2] = x.imag
    return out


def complex_view(v):
    """Inverse of real_view."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] % 2:
        raise GeometryError("real view must have even length")
    return v[..., 0::2] + 1j * v[..., 1::2]


def real_antisymmetric_view(A):
    """Real 2m x 2m matrix acting as the complex matrix A on interleaved views.

    Anti-Hermitian input yields an exactly antisymmetric output (the real
    part of A is antisymmetric and the imaginary part symmetric).
    """
    A = np.asarray(A, dtype=complex)
    m = A.shape[0]
    out = np.zeros((2 * m, 2 * m))
    out[0::2, 0::2] = A.real
    out[1::2, 1::2] = A.real
    out[0::2, 1::2] = -A.imag
    out[1::2, 0::2] = A.imag
    return out


@dataclass(frozen=True)
class DivergenceReport:
    """Least-squares distance between a complex flow field and the real model.

    residual is the root-mean-square field mismatch per sample point under
    the best-fitting real field A x + Y - <Y, x> x; the fitted parameters are
    included for inspection.
    """

    residual: float
    rotation_fit: np.ndarray
    coupling_fit: np.ndarray
    n_samples: int


def divergence_from_real(m_dim, seed, Z=None, A=None, n_samples=200):
    """Fit the real-model field to the complex flow over sampled sphere points.

    The complex field A x + Z - <x, Z> x, viewed in R^{2m}, is compared with
    the closest field of the real form (antisymmetric matrix plus coupling
    vector, fitted by linear least squares).  The residual is zero, up to
    roundoff, exactly when the complex flow is also a real flow: Z = 0 with
    anti-Hermitian A, or m = 1 (where the real coupling 2 Z reproduces it).
    """
    m_dim = _number(m_dim, "m_dim", 0, kinds=())
    n_samples = _number(n_samples, "n_samples", 0, kinds=())
    rng = rng_from(seed, 3)
    if A is None:
        A = random_antihermitian(m_dim, rng)
    else:
        A = as_antihermitian(A, m_dim)
    if Z is None:
        Z = complex_view(uniform_sphere(1, 2 * m_dim, rng)[0])
    else:
        Z = as_complex_vector(Z, m_dim)

    d2 = 2 * m_dim
    xs_real = uniform_sphere(n_samples, d2, rng)
    target = real_view(complex_flow_rhs(complex_view(xs_real), A, Z))

    pairs = [(i, j) for i in range(d2) for j in range(i + 1, d2)]
    n_par = len(pairs) + d2
    design = np.zeros((n_samples, d2, n_par))
    for p, (i, j) in enumerate(pairs):
        design[:, i, p] = xs_real[:, j]
        design[:, j, p] = -xs_real[:, i]
    for l in range(d2):
        col = len(pairs) + l
        design[:, l, col] = 1.0
        design[:, :, col] -= xs_real[:, l][:, None] * xs_real
    flat = design.reshape(n_samples * d2, n_par)
    theta, *_ = np.linalg.lstsq(flat, target.ravel(), rcond=None)
    resid = flat @ theta - target.ravel()
    rms = float(np.sqrt(np.mean(np.sum(resid.reshape(n_samples, d2) ** 2, axis=1))))

    rot = np.zeros((d2, d2))
    for p, (i, j) in enumerate(pairs):
        rot[i, j] = theta[p]
        rot[j, i] = -theta[p]
    return DivergenceReport(rms, rot, theta[len(pairs):].copy(), n_samples)
