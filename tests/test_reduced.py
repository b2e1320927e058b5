import collections
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import integrate_w_reference

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
    assert np.allclose(red.skew_pair_apply(e1, e2, e1), e2, atol=0)


def test_skew_pair_vanishes_on_parallel_inputs():
    y = np.array([0.3, -1.0, 0.2])
    assert np.allclose(red.skew_pair_apply(y, y, np.array([1.0, 2.0, 3.0])), 0.0, atol=0)
    assert np.allclose(red.skew_pair_matrix(y, 2.0 * y), 2.0 * (np.outer(y, y) - np.outer(y, y)), atol=0)


def test_skew_pair_output_orthogonal_to_argument():
    rng = np.random.default_rng(1)
    for _ in range(50):
        y1, y2, y = rng.standard_normal((3, 4))
        out = red.skew_pair_apply(y1, y2, y)
        assert abs(out @ y) <= 1e-13 * max(1.0, np.linalg.norm(out) * np.linalg.norm(y))


def test_skew_pair_matrix_matches_apply_and_is_antisymmetric():
    rng = np.random.default_rng(2)
    y1, y2, y = rng.standard_normal((3, 5))
    m = red.skew_pair_matrix(y1, y2)
    assert np.allclose(m @ y, red.skew_pair_apply(y1, y2, y), atol=1e-14)
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
    for rec in recs:
        state = red.ReducedState(rec.boost, rec.zeta, x0, geo.RIGHT)
        zdot, _ = red.reduced_rhs(state, A, spec)
        Z = dyn.order_parameter(red.reconstruct(state), spec)
        lhs = zdot @ rec.boost
        rhs = 0.5 * (1.0 - rec.boost @ rec.boost) * (Z @ rec.boost)
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
    assert len(recs) == 1
    assert np.array_equal(recs[0].boost, s0.boost)
    assert np.array_equal(recs[0].zeta, s0.zeta)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reduction_reconstructs_full_trajectory(d):
    n, h, t_end = 10, 1e-3, 2.0
    x0, A, spec = make_system(n, d, seed=100 + d)
    full = dyn.integrate_full(x0, A, spec, h, t_end, projection=False, stride=500)
    reduced = red.integrate_reduced(red.initial_state(x0), A, spec, h, t_end, stride=500)
    worst = 0.0
    for fr, rr in zip(full, reduced):
        x = red.reconstruct(red.ReducedState(rr.boost, rr.zeta, x0))
        worst = max(worst, float(np.max(np.abs(fr.x - x))))
    assert worst <= 1e-5


def test_zzeta_integration_matches_wzeta_reconstruction():
    x0, A, spec = make_system(8, 3, seed=200)
    h, t_end = 1e-3, 1.0
    w_recs = red.integrate_reduced(red.initial_state(x0), A, spec, h, t_end, stride=250)
    z_recs = red.integrate_reduced(
        red.ReducedState(np.zeros(3), np.eye(3), x0, geo.RIGHT), A, spec, h, t_end, stride=250
    )
    for wr, zr in zip(w_recs, z_recs):
        xw = red.reconstruct(red.ReducedState(wr.boost, wr.zeta, x0))
        xz = red.reconstruct(red.ReducedState(zr.boost, zr.zeta, x0, geo.RIGHT))
        assert np.max(np.abs(xw - xz)) <= 1e-9


def test_rotation_stays_orthogonal_along_reduced_run():
    x0, A, spec = make_system(6, 3, seed=300)
    recs = red.integrate_reduced(red.initial_state(x0), A, spec, 0.01, 10.0, stride=100)
    eye = np.eye(3)
    for rec in recs:
        assert np.max(np.abs(rec.zeta.T @ rec.zeta - eye)) <= 1e-9


def test_boost_norm_grows_monotonically_toward_synchrony():
    x0 = dyn.random_configuration(50, 3, 44)
    weights = dyn.equal_weights(50)
    traj = red.integrate_w(np.zeros(3), x0, weights, 0.01, 40.0, stride=10)
    norms = np.linalg.norm(traj.ws, axis=1)
    settled = norms[5:]  # skip the flat start at w = 0
    assert np.all(np.diff(settled) >= -1e-12)
    assert traj.boundary_reached or norms[-1] >= 1.0 - 1e-3


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
    assert traj.boundary_reached == boundary == (h > 0 and stride == 1)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.ws, ws)


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


def test_integrate_w_zero_time():
    x0 = dyn.random_configuration(5, 3, 45)
    traj = red.integrate_w(np.zeros(3), x0, dyn.equal_weights(5), 0.01, 0.0)
    assert traj.times.shape == (1,)
    assert np.array_equal(traj.ws[0], np.zeros(3))


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
