"""Seeded randomness helpers.

Streams are keyed explicitly by (seed, stream indices), never by call order,
so concurrent or re-ordered callers always draw the same numbers.
"""
from __future__ import annotations

import numpy as np

from .geometry import _number


def rng_from(seed, *stream):
    """Generator for the stream identified by (seed, *stream), nonnegative integers."""
    key = tuple(_number(s, "stream", -1, kinds=()) for s in stream)
    return np.random.default_rng(
        np.random.SeedSequence(_number(seed, "seed", -1, kinds=()), spawn_key=key))


def uniform_sphere(n, d, rng):
    """n independent uniform points on S^(d-1): normalized Gaussian vectors."""
    v, norms = _gaussian_rows(n, d, rng)
    return v / norms[:, None]


def _gaussian_rows(n, d, rng, out=None):
    """(v, norms): the (n, d) Gaussian rows uniform_sphere normalizes, each
    row of norm below 1e-12 redrawn, and their norms.  v is drawn into out,
    a C-ordered (n, d) array, when one is given: the same numbers."""
    v = rng.standard_normal((n, _number(d, "d", 0, kinds=())), out=out)
    norms = _row_norms(v)
    while np.any(norms < 1e-12):  # essentially impossible; keeps the map total
        bad = norms < 1e-12
        v[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = _row_norms(v)
    return v, norms


def _row_norms(x, out=None):
    """np.linalg.norm(x, axis=1) of an (N, d) array, into out if given: the same
    doubles.  numpy adds a row shorter than 8 entries in order (from 8 on,
    pairwise), so for 2 <= d < 8 this sums the squared columns one by one, a
    fifth to a quarter of numpy's time at d = 3 (N = 2000 to 16 384)."""
    sq = x * x
    if not 2 <= x.shape[1] < 8:  # np.linalg.norm's own sum
        return np.sqrt(np.add.reduce(sq, axis=1, out=out), out)
    total = np.add(sq[:, 0], sq[:, 1], out)
    for j in range(2, x.shape[1]):
        total += sq[:, j]
    return np.sqrt(total, total)


def uniform_ball(d, rng, radius=1.0):
    """One point drawn uniformly from the ball of the given radius."""
    u = uniform_sphere(1, d, rng)[0]
    return radius * float(rng.random()) ** (1.0 / d) * u
