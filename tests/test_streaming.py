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
