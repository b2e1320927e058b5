import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherekuramoto import continuum as cont
from spherekuramoto import geometry as geo
from spherekuramoto.geometry import LEFT, RIGHT
from spherekuramoto.sampling import rng_from, uniform_sphere

from oracles import (boost_rows_reference, boost_sphere_form, coupling_sum_reference,
                     mobius_disc_complex, radial_hyperbolic_length)


def random_ball(rng, d, rmax=0.9):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v) * rmax * rng.random()


def random_sphere(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_map(rng, d, rmax=0.8):
    return geo.MobiusMap(geo.random_rotation(d, rng), random_ball(rng, d, rmax))


# ---------------------------------------------------------------------------
# boosts


def test_boost_at_origin_is_identity():
    x = np.array([0.3, -0.2, 0.5])
    assert np.allclose(geo.boost_apply(np.zeros(3), x), x, atol=0)


def test_boost_sends_parameter_to_origin():
    w = np.array([0.3, 0.0, 0.0])
    assert np.allclose(geo.boost_apply(w, w), 0.0, atol=1e-15)


def test_boost_matches_complex_disc_formula():
    # frozen case: w = 0.5, x = i  ->  -0.8 + 0.6 i
    out = geo.boost_apply(np.array([0.5, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(out, [-0.8, 0.6], atol=1e-15)
    rng = np.random.default_rng(4)
    for _ in range(50):
        w = random_ball(rng, 2)
        x = random_sphere(rng, 2)
        assert np.allclose(geo.boost_apply(w, x), mobius_disc_complex(w, x), atol=1e-13)


def test_boost_matches_sphere_shortcut():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        for _ in range(20):
            w = random_ball(rng, d)
            x = random_sphere(rng, d)
            assert np.allclose(geo.boost_apply(w, x), boost_sphere_form(w, x), atol=1e-12)


def test_boost_preserves_sphere_and_ball():
    rng = np.random.default_rng(6)
    for d in (2, 3, 5):
        w = random_ball(rng, d, 0.95)
        xs = rng.standard_normal((40, d))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        ys = geo.boost_apply(w, xs)
        assert np.max(np.abs(np.linalg.norm(ys, axis=1) - 1.0)) <= 1e-12
        inside = xs * rng.random((40, 1))
        assert np.all(np.linalg.norm(geo.boost_apply(w, inside), axis=1) < 1.0)


def test_boost_rejects_parameter_outside_ball():
    with pytest.raises(geo.GeometryError):
        geo.boost_apply(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(geo.GeometryError):
        geo.boost_apply(np.array([1.2, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(geo.GeometryError, match="non-finite"):
        geo.boost_apply(np.array([np.nan, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(geo.GeometryError, match="dimension mismatch"):
        geo.boost_apply(np.array([0.1, 0.0, 0.0]), np.array([[0.0, 1.0]]))


def test_boost_rejects_vanishing_denominator_without_warnings():
    # x = w / |w|^2 is the point the boost sends to infinity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(geo.GeometryError, match="denominator"):
            geo.boost_apply(np.array([0.5, 0.0]), np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_boost_batch_matches_single():
    rng = np.random.default_rng(7)
    w = random_ball(rng, 3)
    xs = rng.standard_normal((6, 3))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    batch = geo.boost_apply(w, xs)
    for i in range(6):
        assert np.allclose(batch[i], geo.boost_apply(w, xs[i]), atol=1e-15, rtol=0)


def _layouts(x):
    """x as a C-ordered, an F-ordered and a strided (n, d) array."""
    wide = np.zeros((x.shape[0], 2 * x.shape[1]))
    wide[:, ::2] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "strided": wide[:, ::2]}


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 5, 100, 2000])
@pytest.mark.parametrize("d", range(2, 10))
def test_row_callers_keep_the_row_kernels_doubles(d, n):
    # the column kernel makes the same BLAS call and the same elementwise ops
    rng = np.random.default_rng(100 * d + n)
    w, rotation = random_ball(rng, d), geo.random_rotation(d, rng)
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1)[:, None]
    for pts in _layouts(x).values():
        left = boost_rows_reference(w, pts, np.einsum("ij,ij->i", pts, pts))[0]
        xr = pts @ rotation.T
        right = boost_rows_reference(-w, xr, np.einsum("ij,ij->i", xr, xr))[0]
        _same(geo.boost_apply(w, pts), left)
        _same(geo._mobius_apply(None, w, LEFT, pts), left)
        _same(geo._mobius_apply(rotation, w, LEFT, pts), left @ rotation.T)
        _same(geo._mobius_apply(rotation, w, RIGHT, pts), right)
    samples = uniform_sphere(n, d, rng_from(n + d, 0))
    _same(cont.sample_pushforward(w, n, n + d),
          boost_rows_reference(-w, samples, np.einsum("ij,ij->i", samples, samples))[0])


def coupling_sum(w, base, a):  # (Z0, denominators); the kernel's first output is the flow
    return geo._coupling_sum(w, float(w @ w), base, np.einsum("ij,ij->i", base, base), a)[1:]


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 5), st.integers(3, 200), st.floats(0.0, 0.99), st.integers(0, 2**32 - 1))
def test_coupling_sum_matches_image_array_sum(d, n, radius, seed):
    rng = np.random.default_rng(seed)
    base = np.array([random_sphere(rng, d) for _ in range(n)])
    w = radius * random_sphere(rng, d)
    a = rng.random(n) + 1e-3
    a /= a.sum()
    fused, denom = coupling_sum(w, base, a)
    assert np.max(np.abs(fused - coupling_sum_reference(w, base, a))) <= 1e-13
    diff = base - w
    assert np.allclose(denom, np.einsum("ij,ij->i", diff, diff), rtol=0, atol=1e-14)


def _coupling_sum_mp(w, base, a):
    """sum_i a_i M_w(p_i) at 40 digits from the same double inputs."""
    with mpmath.workdps(40):
        wm = [mpmath.mpf(float(v)) for v in w]
        w2 = sum(v * v for v in wm)
        total = [mpmath.mpf(0)] * len(wm)
        for p, ai in zip(base, a):
            pm = [mpmath.mpf(float(v)) for v in p]
            pw = sum(x * y for x, y in zip(pm, wm))
            p2 = sum(x * x for x in pm)
            scale = mpmath.mpf(float(ai)) / (1 - 2 * pw + w2 * p2)
            total = [t + scale * ((1 - w2) * x - (1 - 2 * pw + p2) * y)
                     for t, x, y in zip(total, pm, wm)]
        return np.array([float(t) for t in total])


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("gap", [1e-3, 1e-6])
def test_coupling_sum_error_near_a_base_point(d, gap):
    # w at 1 - gap toward base point 0: that term's denominator |p_0 - w|^2
    # has relative error ~eps / gap^2, which both forms share.  The fused
    # form also rounds terms of size |q_i| (1 - |w|^2) that cancel to the
    # image, so it may add about sqrt(n) eps times their sum S.
    n = 40
    rng = np.random.default_rng(900 + d)
    base = np.array([random_sphere(rng, d) for _ in range(n)])
    a = rng.random(n) + 0.1
    a /= a.sum()
    w = (1.0 - gap) * base[0]
    exact = _coupling_sum_mp(w, base, a)
    fused, denom = coupling_sum(w, base, a)
    fused_err = np.max(np.abs(fused - exact))
    image_err = np.max(np.abs(coupling_sum_reference(w, base, a) - exact))
    c_plus_x2 = 2.0 - 2.0 * (base @ w)
    S = float(np.abs(a / denom) @ ((1.0 - w @ w) + np.abs(c_plus_x2) * np.linalg.norm(w)))
    assert fused_err <= 1.01 * image_err + 1e-15 + np.sqrt(n) * np.finfo(float).eps * S


# ---------------------------------------------------------------------------
# Mobius maps


def test_identity_map_fixes_points():
    x = np.array([0.0, 0.6, 0.8])
    assert np.allclose(geo.mobius_apply(geo.identity_map(3), x), x, atol=0)


def test_pure_boost_map_sends_parameter_to_origin():
    w = np.array([0.2, -0.4, 0.1])
    g = geo.MobiusMap(np.eye(3), w)
    assert np.allclose(geo.mobius_apply(g, w), 0.0, atol=1e-15)


def test_left_and_right_forms_agree_pointwise():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        g = random_map(rng, d)
        h = geo.convert_form(g)
        xs = rng.standard_normal((10, d))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        assert np.max(np.abs(geo.mobius_apply(g, xs) - geo.mobius_apply(h, xs))) <= 1e-12


def test_convert_form_parameter_relation():
    rng = np.random.default_rng(9)
    g = random_map(rng, 3)
    h = geo.convert_form(g)
    assert h.form == geo.RIGHT
    assert np.allclose(h.rotation, g.rotation, atol=0)
    assert np.allclose(h.boost, -(g.rotation @ g.boost), atol=0)
    back = geo.convert_form(h)
    assert back.form == geo.LEFT
    assert np.max(np.abs(back.boost - g.boost)) <= 1e-14
    assert np.max(np.abs(back.rotation - g.rotation)) <= 1e-14


def test_zero_boost_conversion_is_trivial():
    rng = np.random.default_rng(10)
    zeta = geo.random_rotation(3, rng)
    g = geo.MobiusMap(zeta, np.zeros(3))
    h = geo.convert_form(g)
    assert np.allclose(h.boost, 0.0, atol=0)
    assert np.allclose(h.rotation, zeta, atol=0)


def test_inverse_of_identity():
    g = geo.identity_map(4)
    gi = geo.mobius_inverse(g)
    assert np.allclose(gi.rotation, np.eye(4), atol=0)
    assert np.allclose(gi.boost, 0.0, atol=0)


def test_inverse_of_pure_boost_negates_parameter():
    w = np.array([0.5, 0.1])
    gi = geo.mobius_inverse(geo.MobiusMap(np.eye(2), w))
    assert np.allclose(gi.rotation, np.eye(2), atol=0)
    assert np.allclose(gi.boost, -w, atol=0)


def test_inverse_round_trip_pointwise():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        g = random_map(rng, d)
        gi = geo.mobius_inverse(g)
        xs = rng.standard_normal((10, d))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        err = np.max(np.abs(geo.mobius_apply(g, geo.mobius_apply(gi, xs)) - xs))
        assert err <= 1e-12
        err = np.max(np.abs(geo.mobius_apply(gi, geo.mobius_apply(g, xs)) - xs))
        assert err <= 1e-12


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(12)
    for d in (2, 3):
        g1 = random_map(rng, d)
        g2 = random_map(rng, d)
        comp = geo.mobius_compose(g1, g2)
        xs = rng.standard_normal((20, d))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        target = geo.mobius_apply(g1, geo.mobius_apply(g2, xs))
        assert np.max(np.abs(geo.mobius_apply(comp, xs) - target)) <= 1e-10


def test_compose_with_inverse_gives_identity_parameters():
    rng = np.random.default_rng(13)
    g = random_map(rng, 3)
    comp = geo.mobius_compose(g, geo.mobius_inverse(g))
    assert np.linalg.norm(comp.boost) <= 1e-12
    assert np.max(np.abs(comp.rotation - np.eye(3))) <= 1e-12


def test_compose_with_identity_returns_same_parameters():
    rng = np.random.default_rng(14)
    g = random_map(rng, 3)
    comp = geo.mobius_compose(geo.identity_map(3), g)
    assert np.max(np.abs(comp.boost - g.boost)) <= 1e-12
    assert np.max(np.abs(comp.rotation - g.rotation)) <= 1e-12


def test_compose_associativity_pointwise():
    rng = np.random.default_rng(15)
    g1, g2, g3 = (random_map(rng, 3, 0.6) for _ in range(3))
    left = geo.mobius_compose(geo.mobius_compose(g1, g2), g3)
    right = geo.mobius_compose(g1, geo.mobius_compose(g2, g3))
    xs = rng.standard_normal((20, 3))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    assert np.max(np.abs(geo.mobius_apply(left, xs) - geo.mobius_apply(right, xs))) <= 1e-9


def test_rotation_equivariance_of_boosts():
    rng = np.random.default_rng(16)
    for _ in range(20):
        zeta = geo.random_rotation(3, rng)
        w = random_ball(rng, 3)
        x = random_sphere(rng, 3)
        left = zeta @ geo.boost_apply(w, x)
        right = geo.boost_apply(zeta @ w, zeta @ x)
        assert np.max(np.abs(left - right)) <= 1e-12


def test_sphere_preservation_under_random_maps():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_map(rng, 3, 0.9)
        x = random_sphere(rng, 3)
        assert abs(np.linalg.norm(geo.mobius_apply(g, x)) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# metric quantities


def test_distance_zero_iff_equal():
    x = np.array([0.3, 0.1, -0.2])
    assert geo.hyperbolic_distance(x, x) == 0.0
    assert geo.hyperbolic_distance(x, np.zeros(3)) > 0.0


def test_distance_from_origin_matches_line_integral():
    for r in (0.1, 0.5, 0.9, 0.99):
        x = np.array([r, 0.0])
        expected = radial_hyperbolic_length(r)
        assert abs(geo.hyperbolic_distance(np.zeros(2), x) - expected) <= 1e-10
        assert abs(expected - 2.0 * np.arctanh(r)) <= 1e-10


def test_distance_symmetry():
    rng = np.random.default_rng(18)
    x, y = random_ball(rng, 3), random_ball(rng, 3)
    assert geo.hyperbolic_distance(x, y) == pytest.approx(geo.hyperbolic_distance(y, x), abs=0)


def test_distance_is_mobius_invariant():
    rng = np.random.default_rng(19)
    for _ in range(100):
        g = random_map(rng, 3, 0.85)
        x, y = random_ball(rng, 3), random_ball(rng, 3)
        d0 = geo.hyperbolic_distance(x, y)
        d1 = geo.hyperbolic_distance(geo.mobius_apply(g, x), geo.mobius_apply(g, y))
        assert abs(d0 - d1) <= 1e-10


def test_cross_ratio_square_on_circle():
    a, b, c, e = (np.array(p) for p in ([1.0, 0], [0.0, 1], [-1.0, 0], [0.0, -1]))
    assert geo.cross_ratio(a, b, c, e) == pytest.approx(2.0, abs=1e-14)


def test_cross_ratio_rotation_invariant():
    rng = np.random.default_rng(20)
    pts = [random_sphere(rng, 3) for _ in range(4)]
    value = geo.cross_ratio(*pts)
    zeta = geo.random_rotation(3, rng)
    rotated = [zeta @ p for p in pts]
    rotated = [p / np.linalg.norm(p) for p in rotated]
    assert geo.cross_ratio(*rotated) == pytest.approx(value, abs=1e-12)


def test_cross_ratio_mobius_invariant():
    rng = np.random.default_rng(21)
    for _ in range(25):
        pts = [random_sphere(rng, 3) for _ in range(4)]
        g = random_map(rng, 3, 0.8)
        value = geo.cross_ratio(*pts)
        mapped = [geo.mobius_apply(g, p) for p in pts]
        assert geo.cross_ratio(*mapped) == pytest.approx(value, abs=1e-10)


def test_cross_ratio_rejects_coincident_points():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    c = np.array([-1.0, 0.0])
    with pytest.raises(geo.GeometryError):
        geo.cross_ratio(a, b, c, a + 0.0)


def test_cross_ratio_kernel_skips_the_sphere_check():
    # a recorded unprojected state drifts off the sphere: the kernel still
    # evaluates it, with the validated function's arithmetic
    pts = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0]),
           np.array([0.6, -0.8])]
    assert geo._cross_ratio(*pts) == geo.cross_ratio(*pts)
    off = [p * (1.0 + 1e-9) for p in pts]
    with pytest.raises(geo.GeometryError, match="off the unit sphere"):
        geo.cross_ratio(*off)
    assert geo._cross_ratio(*off) == pytest.approx(geo.cross_ratio(*pts), rel=1e-14)


# ---------------------------------------------------------------------------
# generators and antisymmetric matrices


def test_generator_matches_finite_difference_of_boost_family():
    rng = np.random.default_rng(22)
    zero = np.zeros((3, 3))
    for _ in range(10):
        w = random_ball(rng, 3, 0.8)
        x = random_sphere(rng, 3)
        h = 1e-4
        fd = (geo.boost_apply(h * w, x) - geo.boost_apply(-h * w, x)) / (2.0 * h)
        gen = geo.infinitesimal_generator(zero, -2.0 * w, x)
        assert np.max(np.abs(fd - gen)) <= 1e-6


def test_generator_boost_closed_form():
    rng = np.random.default_rng(23)
    w = random_ball(rng, 4)
    y = random_ball(rng, 4)
    gen = geo.infinitesimal_generator(np.zeros((4, 4)), -2.0 * w, y)
    expected = 2.0 * (w @ y) * y - (1.0 + y @ y) * w
    assert np.allclose(gen, expected, atol=1e-15)


def test_generator_rotation_part_is_tangent():
    rng = np.random.default_rng(24)
    A = geo.random_antisymmetric(3, rng)
    x = random_sphere(rng, 3)
    gen = geo.infinitesimal_generator(A, np.zeros(3), x)
    assert np.allclose(gen, A @ x, atol=0)
    assert abs(gen @ x) <= 1e-14


def test_generator_translation_part_is_tangent_on_sphere():
    rng = np.random.default_rng(25)
    Z = rng.standard_normal(3)
    x = random_sphere(rng, 3)
    gen = geo.infinitesimal_generator(np.zeros((3, 3)), Z, x)
    assert np.allclose(gen, Z - (Z @ x) * x, atol=1e-14)


def test_antisymmetric_constructor_is_exact():
    rng = np.random.default_rng(26)
    A = geo.random_antisymmetric(5, rng, scale=2.5)
    assert np.array_equal(A.T, -A)
    geo.as_antisymmetric(A)
    with pytest.raises(geo.GeometryError):
        geo.as_antisymmetric(A + 1e-14 * np.eye(5))


def test_random_antisymmetric_rejects_a_scale_that_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(geo.GeometryError, match="'scale'"):
            geo.random_antisymmetric(5, np.random.default_rng(0), np.finfo(float).max)
    assert np.isfinite(geo.random_antisymmetric(3, np.random.default_rng(0), 1e300)).all()


def test_nearest_rotation_projects_and_fixes_determinant():
    rng = np.random.default_rng(27)
    m = geo.random_rotation(3, rng) + 1e-6 * rng.standard_normal((3, 3))
    r = geo.nearest_rotation(m)
    assert np.max(np.abs(r.T @ r - np.eye(3))) <= 1e-12
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
    flipped = geo.nearest_rotation(np.diag([1.0, 1.0, -1.0]) + 1e-8 * rng.standard_normal((3, 3)))
    assert np.linalg.det(flipped) == pytest.approx(1.0, abs=1e-12)


def test_ball_point_rejected_on_boundary():
    with pytest.raises(geo.GeometryError):
        geo.as_ball_point(np.array([1.0, 0.0]))
    with pytest.raises(geo.GeometryError):
        geo.MobiusMap(np.eye(2), np.array([0.0, 1.0]))


def test_sphere_point_tolerance():
    geo.as_sphere_point(np.array([1.0 + 5e-13, 0.0]))
    with pytest.raises(geo.GeometryError):
        geo.as_sphere_point(np.array([1.0 + 1e-10, 0.0]))


# ---------------------------------------------------------------------------
# the array rule


def test_array_rule_converts_as_numpy_does():
    v = np.array([0.1, 0.2, 0.3])
    assert geo._array(v, "v", (3,)) is v  # a float array passes through uncopied
    big = [2**64, 1]  # an object array until it is converted
    assert np.array_equal(geo._array(big, "v", (None,)), np.asarray(big, dtype=float))
    z = geo._array([1j, 2], "z", (2,), complex)
    assert z.dtype == complex and np.array_equal(z, [1j, 2])


@pytest.mark.parametrize("value, shape, kind, message", [
    ([True, False], (None,), float, "booleans or strings"),
    (np.array([1, 0], dtype=bool), (2,), float, "booleans or strings"),
    (["0.5", "0.5"], (None,), float, "booleans or strings"),
    ([2**64, True], (None,), float, "booleans or strings"),
    (["1j", "0"], (2,), complex, "booleans or strings"),
    ([1.0, "x"], (None,), float, "numbers"),
    ([10**400], (None,), float, "numbers"),
    ([[1.0, 2.0]], (None,), float, "shape"),
    ([1.0, 2.0], (3,), float, "shape"),
    ([[1.0, 2.0]], (None, 3), float, "shape"),
    (None, (None,), float, "shape"),
    ([1.0, np.nan], (None,), float, "non-finite"),
    ([1.0, np.inf], (2,), float, "non-finite"),
    ([1.0, complex(0.0, np.inf)], (2,), complex, "non-finite"),
])
def test_array_rule_rejects_with_a_named_error(value, shape, kind, message):
    with pytest.raises(geo.GeometryError, match=message) as info:
        geo._array(value, "v", shape, kind)
    assert str(info.value).startswith("'v'")


@pytest.mark.parametrize("build, args, name", [
    (geo.antisymmetric_from_upper, ([["0", "1"], ["0", "0"]],), "matrix"),  # built from strings
    (geo.antisymmetric_from_upper, ([[0.0, np.nan], [0.0, 0.0]],), "matrix"),  # a NaN generator
    (geo.as_antisymmetric, ([[False, False], [False, False]],), "matrix"),
    (geo.as_rotation, ([[True, False], [False, True]],), "rotation"),
    (geo.as_vector, (["0.6", "0.8"],), "vector"),
    (geo.as_sphere_point, ([False, True],), "vector"),
    (geo.as_ball_point, (["0.1", "0.2"],), "vector"),
])
def test_geometry_constructors_pass_the_one_array_rule(build, args, name):
    with pytest.raises(geo.GeometryError, match=f"'{name}'"):
        build(*args)
