import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from spherekuramoto import continuum as cont
from spherekuramoto import geometry as geo

from oracles import geometric_series


# ---------------------------------------------------------------------------
# hypergeometric series


def test_unit_value_when_b_is_zero():
    for a, c, t in [(1.0, 2.0, 0.5), (3.7, 1.2, -0.9), (2.0, 5.0, 1.0)]:
        assert cont.hypergeom_f(a, 0.0, c, t) == 1.0


def test_geometric_series_case():
    for t in (0.1, 0.5, 0.9, -0.7):
        expected = geometric_series(t)
        assert cont.hypergeom_f(1.0, 1.0, 1.0, t) == pytest.approx(expected, rel=1e-13)


def test_terminating_polynomial_case():
    for t in (0.0, 0.3, 1.0, -1.0):
        assert cont.hypergeom_f(1.0, -1.0, 3.0, t) == pytest.approx(1.0 - t / 3.0, abs=1e-15)
    # (a)_k with a = -2 terminates after the quadratic term
    val = cont.hypergeom_f(-2.0, 1.5, 2.5, 0.4)
    expected = 1.0 + (-2.0 * 1.5 / 2.5) * 0.4 + ((-2.0 * -1.0) * (1.5 * 2.5) / (2.5 * 3.5)) * 0.4**2 / 2.0
    assert val == pytest.approx(expected, rel=1e-14)


def test_gauss_value_at_one():
    # F(1, -1/2; 5/2; 1) = Gamma(5/2)Gamma(2) / (Gamma(3/2)Gamma(3)) = 3/4
    assert cont.hypergeom_f(1.0, -0.5, 2.5, 1.0) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("t", [0.5, 0.9, 0.99, 0.999])
def test_series_matches_mpmath_near_one(t):
    expected = float(mpmath.hyp2f1(1, -0.5, 2.5, t))
    assert cont.hypergeom_f(1.0, -0.5, 2.5, t) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("a, b, c", [(0.5, 0.5, 2.0), (0.3, 1.2, 3.1), (1.0, -0.5, 2.5),
                                     (2.5, -2.5, 1.5)])
def test_unit_circle_values_match_mpmath(a, b, c):
    # t = 1 is Gauss's sum (0 for c - a = -1), t = -1 the Pfaff transform at 1/2
    for t in (1.0, -1.0):
        expected = float(mpmath.hyp2f1(a, b, c, t))
        assert cont.hypergeom_f(a, b, c, t) == pytest.approx(expected, rel=1e-14)


def test_unbounded_sums_raise_instead_of_truncating():
    # terms decay like k^-3, so no tail bound reaches rtol within 10^5 terms
    with pytest.raises(cont.ConvergenceError):
        cont.hypergeom_f(1.0, -0.5, 2.5, 1.0 - 1e-12, max_terms=100_000)
    # Gamma(200) is beyond the float range
    with pytest.raises(cont.ConvergenceError):
        cont.hypergeom_f(1.0, 0.5, 200.0, 1.0)


def test_divergence_reported_not_truncated():
    with pytest.raises(cont.ConvergenceError):
        cont.hypergeom_f(1.0, 1.0, 1.0, 1.0)  # c - a - b = -1 at t = 1
    with pytest.raises(cont.ConvergenceError):
        cont.hypergeom_f(0.5, 0.5, 1.0, 1.5)  # |t| > 1
    with pytest.raises(cont.ConvergenceError):
        cont.hypergeom_f(0.5, 0.5, -1.0, 0.3)  # coefficient pole at c = -1


def test_termination_before_coefficient_pole():
    # a = -1 ends the series at the linear term, before the pole at c = -2
    val = cont.hypergeom_f(-1.0, 1.0, -2.0, 0.6)
    assert val == pytest.approx(1.0 + 0.6 / 2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# closed-form order parameter


def test_planar_closed_form_is_linear():
    z = np.array([0.3, 0.4])
    for K in (1.0, 2.5, -0.7):
        assert np.allclose(cont.order_parameter_closed_form(z, K), K * z, atol=1e-15)


def test_closed_form_vanishes_at_origin():
    assert np.allclose(cont.order_parameter_closed_form(np.zeros(3)), 0.0, atol=0)


def test_closed_form_parallel_to_z():
    rng = np.random.default_rng(0)
    for d in (3, 4, 5):
        z = rng.standard_normal(d)
        z *= 0.7 / np.linalg.norm(z)
        Z = cont.order_parameter_closed_form(z, 1.3)
        cosine = (Z @ z) / (np.linalg.norm(Z) * np.linalg.norm(z))
        assert cosine == pytest.approx(1.0, abs=1e-12)


def test_closed_form_d4_ratio_polynomial():
    # terminating case: F(1, -1; 3; t) = 1 - t/3, normalizer 2/3
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = rng.standard_normal(4)
        z *= rng.random() * 0.95 / np.linalg.norm(z)
        t = z @ z
        expected = (1.0 - t / 3.0) / (2.0 / 3.0) * z
        assert np.allclose(cont.order_parameter_closed_form(z, 1.0), expected, rtol=1e-13)


# 1 - t on both sides of the switch at t = 1/2, down to 1e-12
_T_GRID = sorted({*np.linspace(0.0, 0.95, 20), 0.5 - 1e-9, 0.5, 0.5 + 1e-9,
                  *(1.0 - np.logspace(-1.5, -12, 22))})


@pytest.mark.parametrize("d", range(2, 10))
def test_closed_form_matches_mpmath(d):
    mpmath.mp.dps = 30
    half = mpmath.mpf(d) / 2
    K = 1.3
    for t in _T_GRID:
        z = np.zeros(d)
        z[0], z[-1] = np.sqrt(0.64 * t), np.sqrt(0.36 * t)
        t_z = float(z @ z)
        ratio = mpmath.hyp2f1(1, 1 - half, 1 + half, t_z) / (half / (d - 1))
        expected = np.array([float(K * ratio * mpmath.mpf(v)) for v in z])
        got = cont.order_parameter_closed_form(z, K)
        scale = max(float(np.linalg.norm(expected)), 1e-300)
        assert np.linalg.norm(got - expected) <= 1e-14 * scale, (d, t)


def test_planar_closed_form_is_bitwise_coupling_times_z():
    rng = np.random.default_rng(4)
    for r in (0.0, 0.3, 0.7, 1.0 - 1e-12):
        z = rng.standard_normal(2)
        z *= r / np.linalg.norm(z)
        for K in (1.0, 2.5, -0.7):
            assert np.array_equal(cont.order_parameter_closed_form(z, K), K * z)


def test_closed_form_at_the_largest_valid_radius():
    # |z| = 1 - 2^-53 is the largest valid radius; t = |z|^2 lies one rounding
    # below 1 and the ratio is 1 to within that rounding
    assert all(cont._centroid_ratio(d, 1.0) == 1.0 for d in range(2, 10))
    for d in range(2, 10):
        z = np.zeros(d)
        z[0] = np.nextafter(1.0, 0.0)
        got = cont.order_parameter_closed_form(z, 1.7)
        if d % 2:
            assert np.array_equal(got, 1.7 * z)
        assert np.max(np.abs(got - 1.7 * z)) <= 2 * np.spacing(1.7)


def test_closed_form_magnitude_monotone_to_boundary():
    # |Z| = K R(t) sqrt(t) reaches K with zero slope in t (R'(1) = -1/2 for
    # d >= 3), so its increments fall below one rounding for 1 - t < 1e-7;
    # there it is nondecreasing up to rounding and never above K
    K = 1.7
    ts = np.concatenate([np.linspace(0.0, 0.98, 99), 1.0 - np.logspace(-2, -12, 101)])
    for d in range(2, 10):
        mags = []
        for t in ts:
            z = np.zeros(d)
            z[0] = np.sqrt(t)
            mags.append(np.linalg.norm(cont.order_parameter_closed_form(z, K)))
        steps = np.diff(mags)
        resolved = 1.0 - ts[1:] >= 1e-7
        assert np.all(steps[resolved] > 0.0), d
        assert np.all(steps >= -4 * np.spacing(K)), d
        assert max(mags) <= K + 4 * np.spacing(K), d


def test_closed_form_matches_monte_carlo_d3():
    z = np.array([0.5, 0.0, 0.0])
    closed = cont.order_parameter_closed_form(z, 1.0)
    mc = cont.poisson_integral_mc(lambda x: x, z, 200_000, seed=10)
    rel = np.linalg.norm(closed - mc.value) / np.linalg.norm(closed)
    assert rel <= 1e-2


def test_closed_form_rotation_equivariance():
    rng = np.random.default_rng(2)
    z = np.array([0.4, -0.2, 0.5])
    for _ in range(10):
        zeta = geo.random_rotation(3, rng)
        left = cont.order_parameter_closed_form(zeta @ z, 2.0)
        right = zeta @ cont.order_parameter_closed_form(z, 2.0)
        assert np.max(np.abs(left - right)) <= 1e-12


def test_closed_form_magnitude_monotone_to_coupling():
    radii = np.linspace(0.0, 0.999, 40)
    K = 1.7
    mags = [
        np.linalg.norm(cont.order_parameter_closed_form(np.array([r, 0.0, 0.0]), K))
        for r in radii
    ]
    assert np.all(np.diff(mags) > 0.0)
    assert mags[-1] <= K
    assert mags[-1] >= 0.99 * K  # |Z| -> K as |z| -> 1


# ---------------------------------------------------------------------------
# Poisson kernels


def test_kernels_collapse_at_origin():
    x = np.array([0.0, 1.0, 0.0])
    assert cont.poisson_kernel_hyperbolic(np.zeros(3), x) == 1.0
    assert cont.poisson_kernel_euclidean(np.zeros(3), x) == 1.0


def test_kernels_agree_only_in_the_plane():
    rng = np.random.default_rng(3)
    z2 = np.array([0.3, -0.4])
    x2 = np.array([0.6, 0.8])
    assert cont.poisson_kernel_hyperbolic(z2, x2) == pytest.approx(
        cont.poisson_kernel_euclidean(z2, x2), abs=1e-15
    )
    z3 = np.array([0.5, 0.0, 0.0])
    x3 = np.array([0.0, 1.0, 0.0])
    hyp = cont.poisson_kernel_hyperbolic(z3, x3)
    euc = cont.poisson_kernel_euclidean(z3, x3)
    assert hyp == pytest.approx(0.36, abs=1e-15)
    assert euc == pytest.approx(0.75 / 1.25**1.5, abs=1e-15)
    assert hyp != euc


def test_hyperbolic_kernel_integrates_to_one():
    # mean of the kernel over uniform boundary samples is the total mass
    z = np.array([0.4, 0.3, 0.0])
    mc = cont.poisson_integral_mc(lambda x: np.ones(x.shape[0]), z, 10, seed=4)
    assert np.allclose(mc.value, 1.0, atol=0)  # f == 1 is exact by construction
    from spherekuramoto.sampling import rng_from, uniform_sphere

    xs = uniform_sphere(1_000_000, 3, rng_from(5, 0))
    vals = cont.poisson_kernel_hyperbolic(z, xs)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 1.0) <= 3.0 * se


def test_mc_identity_integral_at_origin_and_offset():
    mc0 = cont.poisson_integral_mc(lambda x: x, np.zeros(2), 100_000, seed=6)
    assert np.all(np.abs(mc0.value) <= 3.0 * mc0.stderr)
    z = np.array([0.3, 0.4])
    mc = cont.poisson_integral_mc(lambda x: x, z, 400_000, seed=7)
    assert np.all(np.abs(mc.value - z) <= 4.0 * mc.stderr)


def test_mc_error_scales_as_root_n():
    z = np.array([0.4, 0.1, -0.2])
    small = cont.poisson_integral_mc(lambda x: x[:, 0], z, 20_000, seed=8)
    big = cont.poisson_integral_mc(lambda x: x[:, 0], z, 40_000, seed=8, stream=1)
    ratio = float(small.stderr / big.stderr)
    assert abs(ratio - np.sqrt(2.0)) <= 0.2 * np.sqrt(2.0)


# ---------------------------------------------------------------------------
# pushforward sampling


def test_pushforward_samples_on_sphere():
    z = np.array([0.5, -0.2, 0.1])
    xs = cont.sample_pushforward(z, 5000, seed=9)
    assert np.max(np.abs(np.linalg.norm(xs, axis=1) - 1.0)) <= 1e-12


def test_pushforward_centroid_matches_closed_form():
    z = np.array([0.45, 0.1, -0.3])
    xs = cont.sample_pushforward(z, 400_000, seed=10)
    closed = cont.order_parameter_closed_form(z, 1.0)
    assert np.linalg.norm(xs.mean(axis=0) - closed) <= 5e-3


def test_pushforward_at_origin_is_uniform():
    xs = cont.sample_pushforward(np.zeros(3) + np.array([1e-15, 0, 0]), 100_000, seed=11)
    assert np.linalg.norm(xs.mean(axis=0)) <= 3.0 / np.sqrt(len(xs))


def test_pushforward_density_chi_square():
    # For d = 3 the uniform measure makes u = <x, e1> uniform on [-1, 1], so
    # bin masses under the pushforward are exact kernel integrals in u.
    z = np.array([0.5, 0.0, 0.0])
    n, bins = 200_000, 20
    xs = cont.sample_pushforward(z, n, seed=12)
    u = xs[:, 0]
    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts, _ = np.histogram(u, edges)

    def mass(lo, hi):
        val, _ = quad(lambda s: 0.5 * (0.75 / (1.25 - s)) ** 2, lo, hi)
        return val

    expected = n * np.array([mass(edges[i], edges[i + 1]) for i in range(bins)])
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat <= chi2.ppf(0.999, df=bins - 1)


# ---------------------------------------------------------------------------
# the reduced mean-field flow


def test_continuum_rhs_planar_complex_form():
    omega, K = 0.7, 1.3
    A = np.array([[0.0, -omega], [omega, 0.0]])
    for r in (0.0, 0.2, 0.5, 0.8):
        for phi in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
            z = r * np.array([np.cos(phi), np.sin(phi)])
            got = cont.continuum_rhs(z, A, K)
            expected = A @ z + 0.5 * K * (1.0 - r * r) * z
            assert np.max(np.abs(got - expected)) <= 1e-12


def test_continuum_rhs_zero_at_origin():
    assert np.allclose(cont.continuum_rhs(np.zeros(3), None, 1.0), 0.0, atol=0)


def test_integrate_continuum_records_and_guard():
    state = cont.ContinuumState(np.array([0.3, 0.0, 0.0]), 1.0, None)
    times, zs, boundary = cont.integrate_continuum(state, 0.01, 2.0, stride=50)
    assert times[0] == 0.0 and times[-1] == pytest.approx(2.0)
    norms = np.linalg.norm(zs, axis=1)
    assert np.all(np.diff(norms) > 0.0)  # positive coupling pushes outward
    assert not boundary
