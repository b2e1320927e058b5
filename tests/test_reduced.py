import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    integrate_reduced_right_reference,
    integrate_reduced_stacked_reference,
    integrate_w_reference,
    skew_pair_apply,
)

from spherekuramoto import continuum as cont
from spherekuramoto import dynamics as dyn
from spherekuramoto import geometry as geo
from spherekuramoto import reduced as red


def make_system(n=10, d=3, seed=42, with_rotation=True):
    rng = np.random.default_rng(seed)
    x0 = dyn.random_configuration(n, d, seed)
    A = geo.random_antisymmetric(d, rng) if with_rotation else None
    a = rng.random(n)
    a /= a.sum()
    return x0, A, a


# ---------------------------------------------------------------------------
# the pair skew operator


def test_skew_pair_plugs_into_definition():
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert np.allclose(red.skew_pair_matrix(e1, e2) @ e1, e2, atol=0)
    assert np.allclose(skew_pair_apply(e1, e2, e1), e2, atol=0)


def test_skew_pair_vanishes_on_parallel_inputs():
    y = np.array([0.3, -1.0, 0.2])
    assert np.allclose(red.skew_pair_matrix(y, y) @ np.array([1.0, 2.0, 3.0]), 0.0, atol=0)
    assert np.allclose(red.skew_pair_matrix(y, 2.0 * y), 2.0 * (np.outer(y, y) - np.outer(y, y)), atol=0)


def test_skew_pair_output_orthogonal_to_argument():
    rng = np.random.default_rng(1)
    for _ in range(50):
        y1, y2, y = rng.standard_normal((3, 4))
        out = red.skew_pair_matrix(y1, y2) @ y
        assert abs(out @ y) <= 1e-13 * max(1.0, np.linalg.norm(out) * np.linalg.norm(y))


def test_skew_pair_matrix_matches_apply_and_is_antisymmetric():
    rng = np.random.default_rng(2)
    y1, y2, y = rng.standard_normal((3, 5))
    m = red.skew_pair_matrix(y1, y2)
    assert np.allclose(m @ y, skew_pair_apply(y1, y2, y), atol=1e-14)
    assert np.max(np.abs(m + m.T)) == 0.0


# ---------------------------------------------------------------------------
# right-hand sides


def test_wzeta_at_origin_identity():
    x0, A, spec = make_system()
    s = red.ReducedState(np.zeros(3), np.eye(3), x0)
    wdot, zetadot = red.reduced_rhs(s, A, spec)
    Zp = dyn.order_parameter(x0, spec)
    assert np.allclose(wdot, -0.5 * Zp, atol=1e-15)
    assert np.allclose(zetadot, A, atol=1e-15)


def test_zzeta_at_origin_identity():
    x0, A, spec = make_system()
    s = red.ReducedState(np.zeros(3), np.eye(3), x0, geo.RIGHT)
    zdot, zetadot = red.reduced_rhs(s, A, spec)
    Zp = dyn.order_parameter(x0, spec)
    assert np.allclose(zdot, A @ np.zeros(3) + 0.5 * Zp, atol=1e-15)
    assert np.allclose(zetadot, A, atol=1e-15)


def test_w_equation_is_rotation_free_component_bitwise():
    x0, A, spec = make_system()
    rng = np.random.default_rng(3)
    w = np.array([0.2, -0.3, 0.1])
    reference = red.w_rhs(w, x0, spec)
    for _ in range(5):
        zeta = geo.random_rotation(3, rng)
        wdot, _ = red.reduced_rhs(red.ReducedState(w, zeta, x0), A, spec)
        assert np.array_equal(wdot, reference)


def test_w_rhs_at_origin():
    x0, _, spec = make_system()
    out = red.w_rhs(np.zeros(3), x0, spec)
    assert np.allclose(out, -0.5 * spec @ x0, atol=1e-15)


def test_zzeta_consistent_with_wzeta_by_product_rule():
    # z = -zeta w, so z' = -zeta' w - zeta w'
    x0, A, spec = make_system()
    rng = np.random.default_rng(4)
    w = np.array([0.15, 0.2, -0.25])
    zeta = geo.random_rotation(3, rng)
    z = -(zeta @ w)
    wdot, zetadot = red.reduced_rhs(red.ReducedState(w, zeta, x0), A, spec)
    zdot, _ = red.reduced_rhs(red.ReducedState(z, zeta, x0, geo.RIGHT), A, spec)
    assert np.max(np.abs(zdot - (-(zetadot @ w) - zeta @ wdot))) <= 1e-10


def test_zzeta_radial_growth_identity():
    # <z', z> = (1 - |z|^2) <Z, z> / 2
    x0, A, spec = make_system()
    rng = np.random.default_rng(5)
    z = np.array([0.3, -0.1, 0.2])
    zeta = geo.random_rotation(3, rng)
    state = red.ReducedState(z, zeta, x0, geo.RIGHT)
    zdot, _ = red.reduced_rhs(state, A, spec)
    Z = dyn.order_parameter(red.reconstruct(state), spec)
    lhs = zdot @ z
    rhs = 0.5 * (1.0 - z @ z) * (Z @ z)
    assert abs(lhs - rhs) <= 1e-12


def test_zzeta_radial_growth_identity_along_trajectory():
    x0, A, spec = make_system(8, 3, seed=201)
    recs = red.integrate_reduced(
        red.ReducedState(np.zeros(3), np.eye(3), x0, geo.RIGHT), A, spec, 0.01, 5.0, stride=50
    )
    for rec in recs.states:
        state = red.ReducedState(rec[0], rec[1:], x0, geo.RIGHT)
        zdot, _ = red.reduced_rhs(state, A, spec)
        Z = dyn.order_parameter(red.reconstruct(state), spec)
        lhs = zdot @ rec[0]
        rhs = 0.5 * (1.0 - rec[0] @ rec[0]) * (Z @ rec[0])
        assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_finite_n_and_continuum_share_one_generator(d):
    # the rotation-first z' and the mean-field z' are one Mobius generator,
    # fed the finite-N coupling vector and the closed-form centroid
    x0, A, spec = make_system(12, d, seed=60 + d)
    rng = np.random.default_rng(70 + d)
    z = 0.7 * geo.random_rotation(d, rng)[0]
    state = red.ReducedState(z, geo.random_rotation(d, rng), x0, geo.RIGHT)
    zdot, _ = red.reduced_rhs(state, A, spec)
    Z = dyn.order_parameter(red.reconstruct(state), spec)
    assert np.array_equal(zdot, geo.infinitesimal_generator(A, Z, z))
    K = 1.3
    Zc = cont.order_parameter_closed_form(z, K)
    assert np.array_equal(cont.continuum_rhs(z, A, K), geo.infinitesimal_generator(A, Zc, z))


def test_reduced_rejects_per_particle_rotation_terms():
    x0, _, spec = make_system()
    rng = np.random.default_rng(6)
    stack = np.stack([geo.random_antisymmetric(3, rng) for _ in range(10)])
    s = red.ReducedState(np.zeros(3), np.eye(3), x0)
    with pytest.raises(geo.GeometryError):
        red.reduced_rhs(s, stack, spec)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_identity_coordinates():
    x0, _, _ = make_system()
    s = red.ReducedState(np.zeros(3), np.eye(3), x0)
    assert np.max(np.abs(red.reconstruct(s) - x0)) <= 1e-15


def test_reconstruct_stays_on_sphere_and_preserves_cross_ratios():
    x0, _, _ = make_system()
    rng = np.random.default_rng(7)
    s = red.ReducedState(np.array([0.4, -0.2, 0.3]), geo.random_rotation(3, rng), x0)
    x = red.reconstruct(s)
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) <= 1e-12
    for idx in ([0, 1, 2, 3], [2, 5, 7, 9], [1, 4, 6, 8]):
        before = geo.cross_ratio(*x0[idx])
        after = geo.cross_ratio(*x[idx])
        assert abs(before - after) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
def test_both_forms_reconstruct_one_configuration(d, radius, seed):
    # (w, zeta) boost-first and (-zeta w, zeta) rotation-first are one Mobius map
    rng = np.random.default_rng(seed)
    p = dyn.random_configuration(7, d, 80 + d)
    direction = rng.standard_normal(d)
    w = radius * direction / np.linalg.norm(direction)
    zeta = geo.random_rotation(d, rng)  # Haar on SO(d)
    left = red.ReducedState(w, zeta, p)
    right = red.ReducedState(-(zeta @ w), zeta, p, geo.RIGHT)
    x_left, x_right = red.reconstruct(left), red.reconstruct(right)
    assert np.max(np.abs(x_left - x_right)) <= 1e-12
    for s, x in ((left, x_left), (right, x_right)):
        assert np.array_equal(x, geo.mobius_apply(geo.MobiusMap(s.zeta, s.boost, s.form), p))


@pytest.mark.parametrize("form", [geo.LEFT, geo.RIGHT])
def test_reduced_state_validation(form):
    x0 = dyn.random_configuration(6, 3, 49)
    s = red.ReducedState(np.array([0.1, 0.2, -0.3]), np.eye(3), x0, form)
    assert s.form == form
    bad = [
        (np.zeros(3), np.eye(3), x0, form.upper()),  # unknown form
        (np.zeros(4), np.eye(4), x0, form),  # rotation dimension differs from the base's
        (np.zeros(3), np.eye(2), x0, form),
        (np.array([1.0, 0.0, 0.0]), np.eye(3), x0, form),  # |boost| >= 1
        (np.array([0.0, 1.5, 0.0]), np.eye(3), x0, form),
        (np.zeros(3), np.eye(3), x0[:2], form),  # fewer than 3 base points
    ]
    for args in bad:
        with pytest.raises(geo.GeometryError):
            red.ReducedState(*args)
    _, A, spec = make_system(6, 3, seed=49)
    for not_a_state in (x0, geo.MobiusMap(np.eye(3), np.zeros(3), form)):
        with pytest.raises(TypeError):
            red.integrate_reduced(not_a_state, A, spec, 0.01, 1.0)


def test_general_position_validation():
    ok = dyn.random_configuration(5, 3, 8)
    red.validate_base_points(ok)
    with pytest.raises(geo.GeometryError):
        red.validate_base_points(ok[:2])  # too few
    dup = ok.copy()
    dup[1] = dup[0]
    with pytest.raises(geo.GeometryError):
        red.validate_base_points(dup)  # coincident pair
    u = np.array([1.0, 0.0, 0.0])
    line = np.array([u, -u, u])
    with pytest.raises(geo.GeometryError):
        red.validate_base_points(line)


@pytest.mark.parametrize("gap, distinct", [(0.0, False), (1e-9, False), (1e-6, True)])
def test_general_position_near_duplicates(gap, distinct):
    # the second point is (sqrt(1 - gap^2), gap, 0): unit norm and at
    # distance gap from the first; at 1e-9 the gram entry rounds to 1
    base = dyn.random_configuration(20, 3, 9)
    base[0] = [1.0, 0.0, 0.0]
    base[7] = [np.sqrt(1.0 - gap * gap), gap, 0.0]
    if distinct:
        assert red.validate_base_points(base) is not None
    else:
        with pytest.raises(geo.GeometryError, match="pairwise distinct"):
            red.validate_base_points(base)
        if gap:  # the message states the resolution that rejects this pair
            with pytest.raises(geo.GeometryError, match="closer than about 1e-8"):
                red.validate_base_points(base)


@pytest.mark.parametrize("row", [2, 3, 4, 9])
def test_general_position_rejects_a_copy_of_a_row_whose_norm_rounds_below_one(row):
    # these rows have <p, p> = 1 - 2^-53, so the raw gram entry of a copy is
    # below 1; the scan of normalized rows still rejects it
    p = dyn.random_configuration(50, 3, seed=2)
    assert p[row] @ p[row] < 1.0
    p[20] = p[row]
    with pytest.raises(geo.GeometryError, match="pairwise distinct"):
        red.validate_base_points(p)


def test_general_position_rejects_a_copy_of_a_short_row():
    p = dyn.random_configuration(20, 3, seed=9)
    p[4] *= 1.0 - 1e-13  # still a valid configuration row
    dyn.validate_configuration(p)
    red.validate_base_points(p)
    p[11] = p[4]
    with pytest.raises(geo.GeometryError, match="directions within 4.2e-8"):
        red.validate_base_points(p)


def _delta(d):
    """The distance below which validate_base_points' prefilter keeps a pair."""
    return np.sqrt((d + 8) * 2.0**-50)


def _unit(v):
    return v / np.linalg.norm(v)


def _short_copy(row):
    """row scaled down by whole units in the last place until its computed
    norm is below 1: a valid configuration row whose norm rounds below 1."""
    k = 1
    while np.linalg.norm(row * (1.0 - k * 2.0**-53)) >= 1.0:
        k += 1
    return row * (1.0 - k * 2.0**-53)


@st.composite
def near_duplicate_bases(draw):
    d = draw(st.integers(2, 8))
    n = draw(st.integers(3, 120))
    p = dyn.random_configuration(n, d, seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["planted", "short_copy", "great_circle", "orthogonal_circle"]))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    gap = draw(st.floats(0.0, 10.0)) * _delta(d)
    if kind == "planted":
        t = rng.standard_normal(d)
        p[j] = _unit(p[i] + gap * _unit(t - (t @ p[i]) * p[i]))
    elif kind == "short_copy":
        p[i] = p[j] = _short_copy(p[i])
    else:  # every row on one great circle, a random one or one at right angles to
        # the prefilter's direction; rows i and j at an angle of gap
        a, b = rng.standard_normal((2, d))
        if kind == "orthogonal_circle" and d > 2:  # in d = 2 the circle is the sphere
            v = _unit(np.linspace(1.0, 2.0, d))
            a, b = a - (a @ v) * v, b - (b @ v) * v
        a = _unit(a)
        b = _unit(b - (b @ a) * a)
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        theta[j] = theta[i] + gap
        p = np.cos(theta)[:, None] * a + np.sin(theta)[:, None] * b
        p = p / np.linalg.norm(p, axis=1)[:, None]
    return p


@settings(max_examples=300, deadline=None)
@given(near_duplicate_bases())
def test_pruned_distinctness_scan_decides_as_the_whole_scan(p):
    u = p / np.linalg.norm(p, axis=1)[:, None]
    rejects = any(float(g.max()) >= red.SAME_DIRECTION for g in dyn._pair_dots(u))
    if rejects:
        with pytest.raises(geo.GeometryError, match="pairwise distinct"):
            red.validate_base_points(p)
    else:
        try:
            red.validate_base_points(p)
        except geo.GeometryError as exc:
            assert "pairwise distinct" not in str(exc)


def test_distinctness_scan_runs_only_when_a_pair_may_fail(monkeypatch):
    scans = []
    monkeypatch.setattr(red, "_pair_dots", lambda u: scans.append(len(u)) or dyn._pair_dots(u))
    uniform = dyn.random_configuration(2000, 3, seed=22)
    red.validate_base_points(uniform)
    assert scans == []
    # a great circle at right angles to the prefilter's direction projects
    # every row to about 0: the sweep gives up and the scan accepts it
    v = _unit(np.linspace(1.0, 2.0, 3))
    a = _unit(np.cross(v, [1.0, 0.0, 0.0]))
    b = np.cross(v, a)
    theta = np.linspace(0.0, 2.0 * np.pi, 500, endpoint=False)
    red.validate_base_points(np.cos(theta)[:, None] * a + np.sin(theta)[:, None] * b)
    assert scans == [500]
    planted = uniform.copy()
    planted[1500] = planted[3]
    with pytest.raises(geo.GeometryError, match="pairwise distinct"):
        red.validate_base_points(planted)
    assert scans == [500, 2000]


# ---------------------------------------------------------------------------
# integration


def test_initial_state_validates_its_base_once(monkeypatch):
    x0, _, _ = make_system()
    calls = []
    original = red.validate_base_points
    monkeypatch.setattr(red, "validate_base_points", lambda p: calls.append(1) or original(p))
    s0 = red.initial_state(x0)
    assert len(calls) == 1
    assert np.array_equal(s0.base, x0) and np.array_equal(s0.zeta, np.eye(3))
    assert np.array_equal(s0.boost, np.zeros(3))
    for bad, match in [(x0[0], "shape"), (x0[:2], "at least 3"), (2.0 * x0, "unit sphere")]:
        with pytest.raises(geo.GeometryError, match=match):
            red.initial_state(bad)


def test_integrate_reduced_zero_time():
    x0, A, spec = make_system()
    s0 = red.initial_state(x0)
    recs = red.integrate_reduced(s0, A, spec, 0.01, 0.0)
    assert len(recs.times) == 1
    assert np.array_equal(recs.states[0, 0], s0.boost)
    assert np.array_equal(recs.states[0, 1:], s0.zeta)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reduction_reconstructs_full_trajectory(d):
    n, h, t_end = 10, 1e-3, 2.0
    x0, A, spec = make_system(n, d, seed=100 + d)
    full = dyn.integrate_full(x0, A, spec, h, t_end, projection=False, stride=500)
    reduced = red.integrate_reduced(red.initial_state(x0), A, spec, h, t_end, stride=500)
    worst = 0.0
    for fr, rr in zip(full.states, reduced.states):
        x = red.reconstruct(red.ReducedState(rr[0], rr[1:], x0))
        worst = max(worst, float(np.max(np.abs(fr - x))))
    assert worst <= 1e-5


def test_zzeta_integration_matches_wzeta_reconstruction():
    x0, A, spec = make_system(8, 3, seed=200)
    h, t_end = 1e-3, 1.0
    w_recs = red.integrate_reduced(red.initial_state(x0), A, spec, h, t_end, stride=250)
    z_recs = red.integrate_reduced(
        red.ReducedState(np.zeros(3), np.eye(3), x0, geo.RIGHT), A, spec, h, t_end, stride=250
    )
    for wr, zr in zip(w_recs.states, z_recs.states):
        xw = red.reconstruct(red.ReducedState(wr[0], wr[1:], x0))
        xz = red.reconstruct(red.ReducedState(zr[0], zr[1:], x0, geo.RIGHT))
        assert np.max(np.abs(xw - xz)) <= 1e-9


def test_rotation_stays_orthogonal_along_reduced_run():
    x0, A, spec = make_system(6, 3, seed=300)
    recs = red.integrate_reduced(red.initial_state(x0), A, spec, 0.01, 10.0, stride=100)
    eye = np.eye(3)
    for rec in recs.states:
        assert np.max(np.abs(rec[1:].T @ rec[1:] - eye)) <= 1e-9


def test_right_form_matches_plain_projected_rotation_first_rk4():
    # the oracle integrates the rotation-first equations themselves, with a
    # polar projection each step; the integrator runs the boost-first skew
    # product from w = -zeta^T z and hands back z = -zeta w
    x0, A, spec = make_system(8, 3, seed=210)
    rng = np.random.default_rng(211)
    state0 = red.ReducedState(np.array([0.2, -0.1, 0.15]), geo.random_rotation(3, rng), x0, geo.RIGHT)
    h, n_steps = 1e-3, 1000
    traj = red.integrate_reduced(state0, A, spec, h, n_steps * h, stride=100)
    reference = integrate_reduced_right_reference(state0, A, spec, h, n_steps)
    assert traj.stop == "end" and len(traj.times) == 11
    worst = 0.0
    for t, s in zip(traj.times, traj.states):
        z, zeta = reference[round(t / h)]
        assert np.linalg.norm(z) < 0.9  # well inside the ball
        x = red.reconstruct(red.ReducedState(s[0], s[1:], x0, geo.RIGHT))
        x_ref = red.reconstruct(red.ReducedState(z, zeta, x0, geo.RIGHT))
        worst = max(worst, float(np.max(np.abs(x - x_ref))))
    assert worst <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000), st.booleans(),
       st.sampled_from([0.01, -0.01]), st.sampled_from([1, 7]))
def test_boost_first_run_is_integrate_w_with_an_unprojected_rotation(d, seed, rotated, h, stride):
    # the boost rows take integrate_w's steps bit for bit, forward and
    # backward, with and without a rotation term; the rotation is never
    # projected, and info is its monitored defect
    x0, A, spec = make_system(12, d, seed=seed, with_rotation=rotated)
    traj = red.integrate_reduced(red.initial_state(x0), A, spec, h, 300 * h, stride)
    boosts = red.integrate_w(np.zeros(d), x0, spec, h, 300 * h, stride)
    assert traj.stop == boosts.stop
    assert np.array_equal(traj.times, boosts.times)
    assert np.array_equal(traj.states[:, 0], boosts.states)
    defects = [float(np.max(np.abs(s[1:].T @ s[1:] - np.eye(d)))) for s in traj.states]
    assert np.array_equal(traj.info, defects)
    assert max(defects) <= 1e-12


def assert_matches_stacked(traj, ref):
    # same stop, times and boost rows; the rotation within 1e-13
    assert traj.stop == ref.stop
    assert np.array_equal(traj.times, ref.times)
    assert traj.states.shape == ref.states.shape
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-13
    assert np.max(np.abs(traj.info - ref.info)) <= 1e-13
    assert traj.info[0] == 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("h", [0.01, -0.01])
@pytest.mark.parametrize("stride", [1, 7])
def test_chunked_rotation_matches_stacked_stages(d, rotated, h, stride):
    # the rotation, advanced from buffered stages one chunk at a time, against
    # the integration that carries it through every RK stage; the boost rows
    # stay integrate_w's bit for bit
    x0, A, spec = make_system(12, d, seed=500 + d, with_rotation=rotated)
    rng = np.random.default_rng(600 + d)
    state0 = red.ReducedState(0.3 * geo.random_rotation(d, rng)[0], geo.random_rotation(d, rng), x0)
    traj = red.integrate_reduced(state0, A, spec, h, 300 * h, stride)
    boosts = red.integrate_w(state0.boost, x0, spec, h, 300 * h, stride)
    assert np.array_equal(traj.states[:, 0], boosts.states)
    assert_matches_stacked(traj, integrate_reduced_stacked_reference(state0, A, spec, h, 300 * h, stride))


@pytest.mark.parametrize("form", [geo.LEFT, geo.RIGHT])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("n_steps", [red._CHUNK - 1, red._CHUNK, red._CHUNK + 1, 2 * red._CHUNK + 3])
def test_chunked_rotation_across_chunk_boundaries(n_steps, stride, form):
    x0, A, spec = make_system(6, 3, seed=700)
    rng = np.random.default_rng(701)
    state0 = red.ReducedState(np.array([0.1, -0.2, 0.05]), geo.random_rotation(3, rng), x0, form)
    h = -0.005  # backward: the boost settles inside the ball, so every run reaches "end"
    traj = red.integrate_reduced(state0, A, spec, h, n_steps * h, stride)
    ref = integrate_reduced_stacked_reference(state0, A, spec, h, n_steps * h, stride)
    assert traj.stop == "end" and round(traj.times[-1] / h) == n_steps
    assert_matches_stacked(traj, ref)


def _stiff_mean_field_start(K):
    """Ten base points, a rotation, and a start 1e-9 off the repelling
    equilibrium of the mean-field boost flow at coupling K: forward runs
    leave it slowly, then stop within about 50 steps."""
    x0 = dyn.random_configuration(10, 3, 3)
    A = geo.random_antisymmetric(3, np.random.default_rng(3), 1.0)
    w_star = red.integrate_w(np.zeros(3), x0, dyn.equal_weights(10), -0.01, -60.0).final
    rotation = geo.random_rotation(3, np.random.default_rng(1))
    state0 = red.ReducedState(w_star + np.array([1e-9, 0.0, 0.0]), rotation, x0)
    return state0, A, dyn.mean_field_weights(10, K)


@pytest.mark.parametrize("chunk", [5, 16])
def test_chunked_rotation_boundary_stop_in_mid_chunk(monkeypatch, chunk):
    monkeypatch.setattr(red, "_CHUNK", chunk)
    state0, A, a = _stiff_mean_field_start(100.0)
    traj = red.integrate_reduced(state0, A, a, 0.01, 5.0, stride=7)
    ref = integrate_reduced_stacked_reference(state0, A, a, 0.01, 5.0, stride=7)
    last = round(traj.times[-1] / 0.01)  # the last accepted step, off the stride grid
    assert traj.stop == "boundary" and last % 7 and last % chunk and last > chunk
    assert_matches_stacked(traj, ref)


@pytest.mark.parametrize("chunk", [4, 5])
def test_chunked_rotation_unstable_abort_in_mid_chunk(monkeypatch, chunk):
    monkeypatch.setattr(red, "_CHUNK", chunk)
    state0, A, a = _stiff_mean_field_start(200.0)
    with pytest.raises(dyn.IntegrationAbort) as got:
        red.integrate_reduced(state0, A, a, 0.01, 5.0, stride=7)
    with pytest.raises(dyn.IntegrationAbort) as ref:
        integrate_reduced_stacked_reference(state0, A, a, 0.01, 5.0, stride=7)
    last = round(got.value.trajectory.times[-1] / 0.01)
    assert got.value.reason == "unstable" and last % 7 and last % chunk and last > chunk
    assert_matches_stacked(got.value.trajectory, ref.value.trajectory)


@pytest.mark.parametrize("form", [geo.LEFT, geo.RIGHT])
@pytest.mark.parametrize("scale, reason", [(500.0, "unstable"), (1e305, "nonfinite")])
def test_chunked_rotation_first_step_aborts(scale, reason, form):
    # RK4's rotation step is off SO(d) at rotation 500 and overflows at
    # 1e305: the first step aborts, with only t = 0 recorded
    x0 = dyn.random_configuration(10, 3, 3)
    A = np.array([[0.0, scale, 0.0], [-scale, 0.0, 0.0], [0.0, 0.0, 0.0]])
    state0 = red.ReducedState(np.zeros(3), np.eye(3), x0, form)
    a = dyn.equal_weights(10)
    with pytest.raises(dyn.IntegrationAbort) as got:
        red.integrate_reduced(state0, A, a, 0.01, 1.0)
    with pytest.raises(dyn.IntegrationAbort) as ref:
        integrate_reduced_stacked_reference(state0, A, a, 0.01, 1.0)
    assert got.value.reason == ref.value.reason == reason
    assert np.array_equal(got.value.trajectory.times, [0.0])
    assert np.array_equal(got.value.trajectory.states, ref.value.trajectory.states)
    assert np.array_equal(got.value.trajectory.info, ref.value.trajectory.info)


def test_boost_norm_grows_monotonically_toward_synchrony():
    x0 = dyn.random_configuration(50, 3, 44)
    weights = dyn.equal_weights(50)
    traj = red.integrate_w(np.zeros(3), x0, weights, 0.01, 40.0, stride=10)
    norms = np.linalg.norm(traj.states, axis=1)
    settled = norms[5:]  # skip the flat start at w = 0
    assert np.all(np.diff(settled) >= -1e-12)
    assert traj.stop == "boundary" or norms[-1] >= 1.0 - 1e-3


@pytest.mark.parametrize("h, n_steps, stride", [
    (0.01, 4000, 1),  # forward: synchronizes and stops at the ball boundary
    (-0.01, 4000, 1),  # backward: settles at the interior fixed point
    (0.01, 1000, 7),  # stride 7 with a last step off the stride grid
])
def test_integrate_w_matches_plain_rk4_on_public_w_rhs(h, n_steps, stride):
    # the integrator runs the unvalidated boost kernel; the reference runs
    # the validating public w_rhs, so any difference in arithmetic shows
    base = dyn.random_configuration(100, 3, 7000)
    weights = dyn.equal_weights(100)
    w0 = np.array([0.2, -0.3, 0.1])
    traj = red.integrate_w(w0, base, weights, h, n_steps * h, stride)
    times, ws, boundary = integrate_w_reference(w0, base, weights, h, n_steps, stride)
    assert (traj.stop == "boundary") == boundary == (h > 0 and stride == 1)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, ws)


@pytest.mark.parametrize("w", [[1.0, 0.0, 0.0], [0.0, -1.5, 0.0], [np.nan, 0.0, 0.0]])
def test_w_rhs_rejects_boost_off_the_open_ball(w):
    base = dyn.random_configuration(10, 3, 48)
    with pytest.raises(geo.GeometryError):
        red.w_rhs(np.array(w), base, dyn.equal_weights(10))


def test_w_rhs_rejects_vanishing_denominator_without_warnings():
    # x = w / |w|^2 is the point the boost sends to infinity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(geo.GeometryError, match="denominator"):
            red.w_rhs(np.array([0.5, 0.0]), np.array([[0.0, 1.0], [2.0, 0.0]]), [0.5, 0.5])


def test_w_rhs_rejects_a_wrong_weight_count():
    base = dyn.random_configuration(10, 3, 48)
    with pytest.raises(geo.GeometryError, match="9 weights for 10 base points"):
        red.w_rhs(np.zeros(3), base, dyn.equal_weights(9))


@pytest.mark.parametrize("run", ["integrate_w", "left_linear", "left_mean_field"])
def test_boost_first_step_loops_call_no_validated_boost(monkeypatch, run):
    # the boost-first right-hand sides run the fused kernel: the calls below
    # happen at set-up only, so their number does not grow with the steps
    x0, A, spec = make_system(30, 3, seed=60)
    if run == "left_mean_field":
        spec = dyn.mean_field_weights(30, 1.5)
    state0 = red.initial_state(x0)
    counts = collections.Counter()
    for module in (geo, red):
        for name in ("boost_apply", "_boost", "as_ball_point"):
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)

    def calls(t_end):
        counts.clear()
        if run == "integrate_w":
            red.integrate_w(np.zeros(3), x0, spec, 0.01, t_end)
        else:
            red.integrate_reduced(state0, A, spec, 0.01, t_end)
        return dict(counts)

    assert calls(0.5) == calls(0.0)
    assert calls(0.5).get("_boost", 0) == calls(0.5).get("boost_apply", 0) == 0


@pytest.mark.parametrize("form", [geo.LEFT, geo.RIGHT])
def test_reduced_step_loop_calls_no_projection(monkeypatch, form):
    # the polar factor of RK4's rotation step is taken once per run; no step
    # projects the rotation
    x0, A, spec = make_system(30, 3, seed=61)
    state0 = red.ReducedState(np.zeros(3), np.eye(3), x0, form)
    calls = []
    for module in (geo, red):
        original = module.nearest_rotation
        monkeypatch.setattr(module, "nearest_rotation", lambda m, _f=original: calls.append(1) or _f(m))

    def count(t_end):
        calls.clear()
        red.integrate_reduced(state0, A, spec, 0.01, t_end)
        return len(calls)

    assert count(0.5) == count(0.0) == 1


def test_integrate_w_zero_time():
    x0 = dyn.random_configuration(5, 3, 45)
    traj = red.integrate_w(np.zeros(3), x0, dyn.equal_weights(5), 0.01, 0.0)
    assert traj.times.shape == (1,)
    assert np.array_equal(traj.states[0], np.zeros(3))


# ---------------------------------------------------------------------------
# base-point changes


def test_basepoint_change_identity():
    w = np.array([0.1, 0.2, -0.3])
    assert np.allclose(red.basepoint_change(w, geo.identity_map(3)), w, atol=0)


def test_basepoint_change_pure_boost_at_origin():
    v = np.array([0.3, -0.1, 0.2])
    m = geo.MobiusMap(np.eye(3), v)
    assert np.allclose(red.basepoint_change(np.zeros(3), m), -v, atol=1e-15)


def test_basepoint_change_reconstruction_equality():
    # reconstruct((w, zeta), p) equals reconstruct((w', zeta'), M(p)) with
    # w' = M(w) and zeta' recovered by Procrustes
    x0, _, _ = make_system(8, 3, seed=500)
    rng = np.random.default_rng(46)
    w = np.array([0.25, -0.15, 0.1])
    zeta = geo.random_rotation(3, rng)
    m = geo.MobiusMap(geo.random_rotation(3, rng), np.array([0.2, 0.1, -0.3]))

    target = red.reconstruct(red.ReducedState(w, zeta, x0))
    new_base = geo.mobius_apply(m, x0)
    new_base /= np.linalg.norm(new_base, axis=1)[:, None]
    w_new = red.basepoint_change(w, m)
    source = geo.boost_apply(w_new, new_base)
    zeta_new = red.recover_rotation(source, target)
    rebuilt = source @ zeta_new.T
    assert np.max(np.abs(rebuilt - target)) <= 1e-9


def test_recover_rotation_det_plus_one():
    rng = np.random.default_rng(47)
    src = rng.standard_normal((6, 3))
    rot = geo.random_rotation(3, rng)
    tgt = src @ rot.T
    rec = red.recover_rotation(src, tgt)
    assert np.max(np.abs(rec - rot)) <= 1e-12
    assert np.linalg.det(rec) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("source, target, name", [
    (np.eye(3), np.full((3, 3), np.nan), "target"),  # numpy's LinAlgError
    (np.full((3, 3), np.inf), np.eye(3), "source"),
    (np.eye(3), np.eye(3)[:2], "target"),
    ([[True, False], [False, True]], np.eye(2), "source"),
])
def test_recover_rotation_checks_both_arrays(source, target, name):
    with pytest.raises(geo.GeometryError, match=f"'{name}'"):
        red.recover_rotation(source, target)


def test_boost_flow_doubles_do_not_depend_on_the_base_layout():
    # a strided view and an F-ordered copy of the base give the doubles of
    # the C-contiguous base: every entry takes a C-ordered base, and the
    # kernel's .dot products are layout-blind
    x0, A, a = make_system(40, 3, seed=61)
    wide = np.zeros((40, 7))
    wide[:, 1:7:2] = x0
    w0 = np.array([0.2, -0.1, 0.3])

    def runs(base):
        back = red.integrate_w(w0, base, a, -0.01, -2.0)
        fwd = red.integrate_reduced(red.ReducedState(w0, np.eye(3), base), A, a, 0.01, 2.0, 10)
        return [back.states, fwd.states, fwd.info, red.w_rhs(w0, base, a)]

    expected = runs(x0)
    for base in (wide[:, 1:7:2], np.asfortranarray(x0), x0[::-1].copy()[::-1]):
        assert not base.flags.c_contiguous
        for got, want in zip(runs(base), expected):
            assert np.array_equal(got, want)
