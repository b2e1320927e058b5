"""The pair scans and the Monte Carlo integral work in fixed blocks: they
agree with whole-array oracles and their memory does not grow as N^2 or with
the sample count."""
import math
import tracemalloc

import numpy as np
import pytest
from oracles import min_pair_dot_reference, poisson_integral_mc_reference

from spherekuramoto import continuum as cont
from spherekuramoto import dynamics as dyn
from spherekuramoto import geometry as geo
from spherekuramoto import reduced as red
from spherekuramoto.sampling import rng_from, uniform_sphere

PAIR_ROWS = math.isqrt(dyn._PAIR_BLOCK)  # the largest N scanned in one product
MC_ROWS = cont._MC_ROWS
MEMORY_LIMIT = 24 * 2**20  # bytes


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, PAIR_ROWS - 1, PAIR_ROWS, PAIR_ROWS + 1, 3 * PAIR_ROWS + 7])
def test_min_pair_dot_matches_whole_gram(n, d):
    x = dyn.random_configuration(n, d, seed=n + d)
    assert dyn.min_pair_dot(x) == min_pair_dot_reference(x)


@pytest.mark.parametrize("n", [3, 17, PAIR_ROWS + 1, 2 * PAIR_ROWS])
def test_pair_dots_yield_each_pair_once(n):
    x = dyn.random_configuration(n, 3, seed=n)
    blocks = list(dyn._pair_dots(x))
    assert sum(b.size for b in blocks) == n * (n - 1) // 2
    assert all(b.size <= dyn._PAIR_BLOCK for b in blocks)
    # x @ x.T has no repeated entries for random points, so equal multisets
    # mean each pair once
    gram = x @ x.T
    np.testing.assert_array_equal(np.sort(np.concatenate([b.ravel() for b in blocks])),
                                  np.sort(gram[np.triu_indices(n, 1)]))


def _planted_base(n, i, j):
    """A random base with rows i and j replaced by two points 1e-9 apart,
    whose dot product rounds to 1, and the same base with row j left alone."""
    p = dyn.random_configuration(n, 3, seed=5)
    p[i] = [1.0, 0.0, 0.0]
    planted = p.copy()
    planted[j] = [math.cos(1e-9), math.sin(1e-9), 0.0]
    return planted, p


@pytest.mark.parametrize("i, j, same_block", [
    (0, 2 * PAIR_ROWS - 1, False),  # the first block and the last
    (3, 600, False),                # the first block and the next
    (700, 705, True),               # one diagonal block past the first
])
def test_validate_base_points_finds_a_duplicate_in_any_block(i, j, same_block):
    n = 2 * PAIR_ROWS
    rows = dyn._PAIR_BLOCK // n
    assert (i // rows == j // rows) == same_block
    planted, clean = _planted_base(n, i, j)
    assert planted[i] @ planted[j] >= 1.0
    with pytest.raises(geo.GeometryError, match="pairwise distinct"):
        red.validate_base_points(planted)
    red.validate_base_points(clean)


@pytest.mark.parametrize("f", [lambda x: x, lambda x: x[:, 0] ** 2 + x[:, 1]],
                         ids=["vector", "scalar"])
@pytest.mark.parametrize("n", [1, 2, MC_ROWS - 1, MC_ROWS, MC_ROWS + 1, 200_000])
def test_poisson_integral_mc_matches_one_draw(n, f):
    z = np.array([0.5, -0.3, 0.2])
    got = cont.poisson_integral_mc(f, z, n, 11, stream=2)
    ref = poisson_integral_mc_reference(f, z, n, 11, stream=2)
    assert got.n_samples == n
    assert np.shape(got.value) == np.shape(ref.value)
    assert np.shape(got.stderr) == np.shape(ref.stderr)
    np.testing.assert_allclose(got.value, ref.value, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.stderr, ref.stderr, rtol=1e-12, atol=0)
    if n == 1:
        assert np.all(np.isinf(got.stderr))


@pytest.mark.parametrize("n", [1, MC_ROWS - 1, MC_ROWS, MC_ROWS + 1, 2 * MC_ROWS + 3])
@pytest.mark.parametrize("d", [2, 4, 5, 8, 9])  # _row_norms takes np.linalg.norm from d = 8 on
def test_poisson_integral_mc_matches_one_draw_in_every_dimension(d, n):
    z = np.linspace(0.3, -0.2, d) / np.sqrt(d)
    got = cont.poisson_integral_mc(lambda x: x, z, n, 12, stream=1)
    ref = poisson_integral_mc_reference(lambda x: x, z, n, 12, stream=1)
    assert got.value.shape == got.stderr.shape == (d,)
    np.testing.assert_allclose(got.value, ref.value, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.stderr, ref.stderr, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [3, 8])
def test_poisson_integral_mc_passes_f_the_samples_in_stream_order(d):
    z, n = np.full(d, 0.2), 2 * MC_ROWS + 5
    seen = []

    def f(x):
        assert x.shape[1] == d and x.dtype == float
        seen.append(x.copy())
        return x[:, 0]

    cont.poisson_integral_mc(f, z, n, 5, stream=3)
    images = geo.boost_apply(-z, uniform_sphere(n, d, rng_from(5, 3)))
    assert [x.shape[0] for x in seen] == [MC_ROWS, MC_ROWS, 5]
    # the squared norms are summed in another order, so the images may
    # differ in their last bits
    np.testing.assert_allclose(np.concatenate(seen), images, rtol=0, atol=1e-14)


class _ZeroFirstRow:
    """A generator whose first draw has an all-zero first row."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def standard_normal(self, size, out=None):  # numpy's out: fill a given array
        v = self.rng.standard_normal(size, out=out)
        if not self.calls:
            v[0] = 0.0
        self.calls += 1
        return v


def test_poisson_integral_mc_redraws_a_zero_norm_sample(monkeypatch):
    drawn = []

    def fake_rng(seed, stream):
        drawn.append(_ZeroFirstRow(seed))
        return drawn[-1]

    monkeypatch.setattr(cont, "rng_from", fake_rng)
    z, n, seen = np.array([0.5, -0.3, 0.2]), MC_ROWS + 7, []
    got = cont.poisson_integral_mc(lambda x: seen.append(x.copy()) or x, z, n, 4)
    assert drawn[0].calls == 3  # block 1, its one-row redraw, block 2
    rng = _ZeroFirstRow(4)  # the redraw follows the first block, not the last row
    samples = np.concatenate([uniform_sphere(MC_ROWS, 3, rng), uniform_sphere(7, 3, rng)])
    assert np.all(np.isfinite(samples))
    images = np.concatenate(seen)
    np.testing.assert_allclose(images, geo.boost_apply(-z, samples), rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(images, axis=1), 1.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(got.value, images.mean(axis=0), rtol=1e-12, atol=0)


def test_poisson_integral_mc_calls_f_once_per_block():
    sizes = []

    def f(x):
        sizes.append(x.shape[0])
        return x

    cont.poisson_integral_mc(f, [0.1, 0.2, 0.3], 2 * MC_ROWS + 5, 0)
    assert sizes == [MC_ROWS, MC_ROWS, 5]


def test_poisson_integral_mc_memory_does_not_grow_with_samples():
    z = np.array([0.9, 0.0, 0.0])
    assert peak_bytes(cont.poisson_integral_mc, lambda x: x, z, 10**6, 4) < MEMORY_LIMIT


@pytest.mark.parametrize("scan", [dyn.min_pair_dot, red.validate_base_points],
                         ids=["min_pair_dot", "validate_base_points"])
def test_pair_scans_hold_no_gram_matrix(scan):
    x = dyn.random_configuration(4000, 3, seed=4)
    assert peak_bytes(scan, x) < MEMORY_LIMIT


def test_reduced_run_memory_does_not_grow_with_steps():
    # the rotation pass buffers the stages of at most reduced._CHUNK steps
    x0 = dyn.random_configuration(20, 3, seed=8)
    A = geo.random_antisymmetric(3, np.random.default_rng(8), 0.5)
    a = dyn.equal_weights(20)

    def run(n_steps):  # backward, so the boost stays inside the ball
        traj = red.integrate_reduced(red.initial_state(x0), A, a, -0.001, -0.001 * n_steps, 5000)
        assert traj.stop == "end"

    assert peak_bytes(run, 20_000) <= peak_bytes(run, 5_000) + 2**20
