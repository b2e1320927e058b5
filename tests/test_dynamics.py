import hashlib
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spherekuramoto import complexball as cb
from spherekuramoto import continuum as cont
from spherekuramoto import dynamics as dyn
from spherekuramoto import geometry as geo
from spherekuramoto import gradient as gr
from spherekuramoto import reduced as red
from spherekuramoto.sampling import rng_from

from oracles import (
    angles_to_plane,
    gaussian_riemann_weights_reference,
    integrate_angles,
    integrate_full_reference,
    mean_field_order_parameter,
)


def equal_spec(n):
    return dyn.equal_weights(n)


# ---------------------------------------------------------------------------
# weights and order parameter


def test_weight_builders():
    assert np.allclose(dyn.equal_weights(4), 0.25, atol=0)
    w = dyn.gaussian_riemann_weights(100)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(w) in (49, 50)  # densest at the middle of [-3, 3]
    assert np.all(w > 0)
    m = dyn.majority_weights(100, 0.6)
    assert m[0] == 0.6 and m[1] == pytest.approx(0.4 / 99)
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(geo.GeometryError):
        dyn.explicit_weights([0.4, 0.5])  # sums to 0.9
    dyn.explicit_weights([0.4, 0.5], normalized=False)


@pytest.mark.parametrize("build, args, name", [
    (dyn.gaussian_riemann_weights, (5, 0.0), "half_width"),  # NaN weights with a warning
    (dyn.gaussian_riemann_weights, (5, -3.0), "half_width"),  # silently equal to 3
    (dyn.gaussian_riemann_weights, (5, np.inf), "half_width"),
    (dyn.gaussian_riemann_weights, (5, "3"), "half_width"),
    (dyn.gaussian_riemann_weights, (0,), "n"),
    (dyn.majority_weights, (5, 0.6, -1), "index"),  # silently the last particle
    (dyn.majority_weights, (5, 0.6, 1.5), "index"),  # silently truncated to 1
    (dyn.majority_weights, (5, 0.6, 7), "index"),  # IndexError
    (dyn.majority_weights, (5, 1.0), "dominant"),
    (dyn.majority_weights, (1, 0.6), "n"),
    (dyn.mean_field_weights, (0, 1.0), "n"),  # ZeroDivisionError
    (dyn.mean_field_weights, (5, np.nan), "K"),  # NaN weights
    (dyn.equal_weights, (0,), "n"),
])
def test_weight_constructors_reject_out_of_range_arguments(build, args, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(geo.GeometryError, match=f"'{name}'"):
            build(*args)


@pytest.mark.parametrize("build, args, name", [
    (dyn.mean_field_weights, (3, 10**400), "K"),  # OverflowError
    (dyn.gaussian_riemann_weights, (3, 10**400), "half_width"),  # numpy casting error
    (dyn.explicit_weights, ([0.5, 0.5], "no"), "normalized"),  # read as true
    (dyn.random_configuration, (3, 0, 1), "d"),  # never returned
    (dyn.random_configuration, (3, 1, 1), "d"),
    (dyn.random_configuration, (0, 3, 1), "n"),
    (dyn.random_configuration, (2.7, 3, 1), "n"),  # truncated to 2
])
def test_scalar_arguments_pass_the_one_scalar_rule(build, args, name):
    with pytest.raises(geo.GeometryError, match=f"'{name}'"):
        build(*args)


@pytest.mark.parametrize("n, half_width", [(10, 1000.0), (5, 2**64), (2, 1e300), (10, 1.7e308)])
def test_gaussian_weights_reject_a_half_width_no_density_survives(n, half_width):
    # every midpoint density underflowed, and w / w.sum() returned NaN weights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(geo.GeometryError, match="'half_width'"):
            dyn.gaussian_riemann_weights(n, half_width)
    assert np.array_equal(dyn.gaussian_riemann_weights(5, 1000.0), [0, 0, 1, 0, 0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4000),
       st.one_of(st.floats(5e-324, 1.7976931348623157e308),
                 st.floats(-1.0, 2.0).map(lambda e: 38.6 * 10.0**e),  # near the underflow
                 st.sampled_from([5e-324, 1e-320, 8.98846567431158e307, 8.988465674311579e307])))
def test_gaussian_weights_check_reads_the_whole_array(n, half_width):
    # the check reads the middle weights only; it accepts exactly when the
    # whole array sums to a positive finite total, with the same message
    try:
        expected = gaussian_riemann_weights_reference(n, half_width)
    except geo.GeometryError as exc:
        with pytest.raises(geo.GeometryError) as info:
            dyn.gaussian_riemann_weights(n, half_width)
        assert str(info.value) == str(exc)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dyn.gaussian_riemann_weights(n, half_width)
        assert np.array_equal(got, expected)


def test_uniform_sphere_rejects_a_dimension_below_one():
    from spherekuramoto.sampling import rng_from, uniform_sphere
    for d in (0, -1, 2.0):  # 0 redrew forever
        with pytest.raises(geo.GeometryError, match="'d'"):
            uniform_sphere(4, d, rng_from(0))
    assert uniform_sphere(4, 1, rng_from(0)).shape == (4, 1)


def test_order_parameter_antipodal_cancellation():
    x = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    Z = dyn.order_parameter(x, equal_spec(2))
    assert np.allclose(Z, 0.0, atol=0)


def test_order_parameter_synchronized():
    q = np.array([0.0, 0.6, 0.8])
    x = np.tile(q, (5, 1))
    assert np.allclose(dyn.order_parameter(x, equal_spec(5)), q, atol=1e-16)


def test_order_parameter_weighted_sum():
    x = np.eye(3)
    spec = np.array([0.5, 0.25, 0.25])
    assert np.allclose(dyn.order_parameter(x, spec), [0.5, 0.25, 0.25], atol=0)


def test_order_parameter_mean_field():
    x = np.eye(3)
    Z = dyn.order_parameter(x, dyn.mean_field_weights(3, 2.0))
    assert np.allclose(Z, 2.0 / 3.0, atol=1e-16)


def test_order_parameter_mean_field_weights_match_the_plain_sum():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for draw in range(200):
        n, d = int(rng.integers(3, 3001)), int(rng.integers(2, 6))
        K = float(rng.uniform(0.1, 10.0))
        x = dyn.random_configuration(n, d, seed=draw)
        expected = mean_field_order_parameter(x, K)
        got = dyn.order_parameter(x, dyn.mean_field_weights(n, K))
        worst = max(worst, float(np.linalg.norm(got - expected) / np.linalg.norm(expected)))
    assert worst <= 1e-13


def test_order_parameter_magnitude_of_random_cloud():
    x = dyn.random_configuration(100, 3, 1)
    spec = equal_spec(100)
    Z = dyn.order_parameter(x, spec)
    assert np.array_equal(Z, dyn.equal_weights(100) @ x)  # direct-sum oracle
    assert np.linalg.norm(Z) < 5.0 / np.sqrt(100)  # O(N^-1/2) for uniform points


def _weight_entries():
    x0 = dyn.random_configuration(6, 3, 5)
    state = red.initial_state(x0)
    return {
        "integrate_full": lambda a: dyn.integrate_full(x0, None, a, 0.01, 0.1),
        "sync_metrics": lambda a: dyn.sync_metrics(x0, a),
        "reduced_rhs": lambda a: red.reduced_rhs(state, None, a),
        "integrate_reduced": lambda a: red.integrate_reduced(state, None, a, 0.01, 0.1),
        "w_rhs": lambda a: red.w_rhs(np.zeros(3), x0, a),
        "integrate_w": lambda a: red.integrate_w(np.zeros(3), x0, a, 0.01, 0.1),
        "PotentialContext": lambda a: gr.PotentialContext(x0, a),
    }


@pytest.mark.parametrize("entry", list(_weight_entries()))
@pytest.mark.parametrize("bad", [
    np.array([np.nan, 0.2, 0.2, 0.2, 0.2, 0.2]),
    np.full((1, 6), 1.0 / 6.0),
    dyn.equal_weights(5),
], ids=["nan", "2d", "wrong_length"])
def test_weight_entries_reject_malformed_weights(entry, bad):
    call = _weight_entries()[entry]
    call(dyn.equal_weights(6))  # the well-formed vector is accepted
    with pytest.raises(geo.GeometryError, match="weights"):
        call(bad)


def test_order_parameter_length_mismatch():
    x = dyn.random_configuration(4, 3, 0)
    with pytest.raises(geo.GeometryError):
        dyn.order_parameter(x, equal_spec(5))


@pytest.mark.parametrize("bad", [
    np.array([np.nan, 0.2, 0.2, 0.2, 0.2, 0.2]),
    dyn.equal_weights(5),
], ids=["nan", "wrong_length"])
def test_full_rhs_and_order_parameter_check_their_weights(bad):
    # both take their weights through as_weights: a list is a weight vector,
    # and NaN or a wrong count is a GeometryError, not NaN velocities
    x = dyn.random_configuration(6, 3, 5)
    assert np.array_equal(dyn.full_rhs(x, None, [1.0 / 6.0] * 6),
                          dyn.full_rhs(x, None, dyn.equal_weights(6)))
    for call in (lambda a: dyn.full_rhs(x, None, a), lambda a: dyn.order_parameter(x, a)):
        with pytest.raises(geo.GeometryError, match="weights"):
            call(bad)


# ---------------------------------------------------------------------------
# right-hand side


def test_rhs_vanishes_at_synchrony():
    q = np.array([1.0, 0.0, 0.0])
    x = np.tile(q, (10, 1))
    v = dyn.full_rhs(x, None, equal_spec(10))
    assert np.max(np.abs(v)) <= 1e-15


def test_rhs_tangency():
    rng = np.random.default_rng(2)
    x = dyn.random_configuration(50, 4, 2)
    A = geo.random_antisymmetric(4, rng)
    v = dyn.full_rhs(x, A, equal_spec(50))
    assert np.max(np.abs(np.einsum("ij,ij->i", x, v))) <= 1e-14


def test_rhs_heterogeneous_rotation_terms():
    rng = np.random.default_rng(3)
    x = dyn.random_configuration(5, 3, 3)
    stack = np.stack([geo.random_antisymmetric(3, rng) for _ in range(5)])
    v = dyn.full_rhs(x, stack, equal_spec(5))
    manual = dyn.full_rhs(x, None, equal_spec(5)) + np.einsum("nij,nj->ni", stack, x)
    assert np.allclose(v, manual, atol=1e-15)
    assert np.max(np.abs(np.einsum("ij,ij->i", x, v))) <= 1e-14


def test_rhs_d2_matches_angle_form():
    rng = np.random.default_rng(4)
    n, omega = 6, 0.9
    theta = rng.uniform(0, 2 * np.pi, n)
    a = rng.random(n)
    a /= a.sum()
    x = angles_to_plane(theta)
    A = np.array([[0.0, -omega], [omega, 0.0]])
    v = dyn.full_rhs(x, A, a)
    theta_dot = omega + np.sin(theta[None, :] - theta[:, None]) @ a
    tangent = np.column_stack([-np.sin(theta), np.cos(theta)])
    assert np.max(np.abs(v - theta_dot[:, None] * tangent)) <= 1e-13


# ---------------------------------------------------------------------------
# RK4


def test_rk4_zero_step_is_identity():
    y = np.array([0.3, -1.2, 2.0])
    out = dyn.rk4_step(lambda v: -v, y, 0.0)
    assert np.array_equal(out, y)


def test_rk4_order_against_matrix_exponential():
    rng = np.random.default_rng(5)
    A = geo.random_antisymmetric(3, rng)
    y0 = np.array([1.0, 0.0, 0.0])

    def err(h):
        y = y0.copy()
        for _ in range(int(round(1.0 / h))):
            y = dyn.rk4_step(lambda v: A @ v, y, h)
        return np.linalg.norm(y - expm(A) @ y0)

    e1, e2 = err(0.02), err(0.01)
    order = np.log2(e1 / e2)
    assert order >= 3.9


def test_rk4_backward_forward_round_trip():
    rng = np.random.default_rng(6)
    A = geo.random_antisymmetric(3, rng)

    def f(v):
        return A @ v - 0.1 * (v @ v) * v

    y0 = np.array([0.2, 0.5, -0.1])
    h = 1e-3
    y = dyn.rk4_step(f, y0, h)
    back = dyn.rk4_step(f, y, -h)
    assert np.linalg.norm(back - y0) <= 10 * h**5


def test_rk4_aborts_on_nonfinite():
    with pytest.raises(dyn.SimulationError):
        dyn.rk4_step(lambda v: v * np.inf, np.ones(3), 0.1)


def test_step_count_validation():
    assert dyn.step_count(0.0, 0.1) == 0
    assert dyn.step_count(1.0, 0.01) == 100
    assert dyn.step_count(-1.0, -0.01) == 100
    with pytest.raises(geo.GeometryError):
        dyn.step_count(1.0, -0.01)
    with pytest.raises(geo.GeometryError):
        dyn.step_count(1.0, 0.0)


@pytest.mark.parametrize("t_end, h", [(1e10, 1e-300), (float("nan"), 0.01)])
def test_step_count_rejects_a_count_that_is_not_finite(t_end, h):
    # t_end / h overflows or is NaN: a validation error, not an OverflowError
    with pytest.raises(geo.GeometryError, match="finite number of steps"):
        dyn.step_count(t_end, h)


# ---------------------------------------------------------------------------
# trajectories


def test_integrate_zero_time_returns_initial():
    x0 = dyn.random_configuration(5, 3, 7)
    recs = dyn.integrate_full(x0, None, equal_spec(5), 0.01, 0.0)
    assert len(recs.times) == 1
    assert np.array_equal(recs.states[0], x0)


def test_integrate_records_respect_stride():
    x0 = dyn.random_configuration(4, 3, 8)
    recs = dyn.integrate_full(x0, None, equal_spec(4), 0.01, 0.1, stride=4)
    assert [round(t, 10) for t in recs.times] == [0.0, 0.04, 0.08, 0.1]


def test_norm_conservation_without_projection():
    x0 = dyn.random_configuration(100, 3, 9)
    recs = dyn.integrate_full(x0, None, equal_spec(100), 0.01, 40.0,
                              projection=False, stride=400)
    assert recs.info[-1] <= 1e-6


def test_trajectory_d2_matches_angle_integrator():
    rng = np.random.default_rng(10)
    n, omega, h, t_end = 5, 0.7, 1e-3, 10.0
    theta0 = rng.uniform(0, 2 * np.pi, n)
    a = rng.random(n)
    a /= a.sum()
    A = np.array([[0.0, -omega], [omega, 0.0]])
    recs = dyn.integrate_full(angles_to_plane(theta0), A, a,
                              h, t_end, projection=False, stride=10_000)
    theta = integrate_angles(theta0, omega, a, h, t_end)
    assert np.max(np.abs(recs.states[-1] - angles_to_plane(theta))) <= 1e-8


def test_determinism_bit_identical():
    a = dyn.integrate_full(dyn.random_configuration(20, 3, 11), None,
                           equal_spec(20), 0.01, 1.0, stride=10)
    b = dyn.integrate_full(dyn.random_configuration(20, 3, 11), None,
                           equal_spec(20), 0.01, 1.0, stride=10)
    for ra_t, ra_x, rb_t, rb_x in zip(a.times, a.states, b.times, b.states):
        assert np.array_equal(ra_x, rb_x) and ra_t == rb_t


def test_unprojected_abort_on_drift():
    # a deliberately huge step makes RK4 leave the sphere immediately
    x0 = dyn.random_configuration(10, 3, 12)
    with pytest.raises(dyn.IntegrationAbort) as info:
        dyn.integrate_full(x0, None, equal_spec(10), 2.5, 250.0, projection=False)
    assert len(info.value.trajectory.times) >= 1


def test_drift_abort_records_last_accepted_state():
    # the step to t = 3.5 breaks the drift limit; t = 3.0 is off the stride grid
    x0 = dyn.random_configuration(10, 3, 12)
    with pytest.raises(dyn.IntegrationAbort) as info:
        dyn.integrate_full(x0, None, equal_spec(10), 0.5, 500.0, projection=False, stride=1000)
    assert info.value.reason == "drift"
    traj = info.value.trajectory
    assert list(traj.times) == [0.0, 3.0]
    assert traj.info[-1] <= dyn.NORM_DRIFT_LIMIT


# ---------------------------------------------------------------------------
# the ball-point step of _drive, on synthetic fields


def _counted_field(value, special=None, at=None):
    """A ball-point field rhs(y, y2) that returns value, or special at its
    at-th call (from 1)."""
    calls = [0]

    def rhs(y, y2):
        assert y2 == float(y @ y) or np.isnan(y2)
        calls[0] += 1
        return list(special if calls[0] == at else value)

    return rhs


def test_ball_step_nan_stage_ends_as_nonfinite():
    # the second stage of step 6 is NaN; NaN passes the stage guard and the
    # step ends as "nonfinite", with step 5 the last accepted state
    rhs = _counted_field([0.1, 0.0, 0.0], [np.nan, 0.0, 0.0], at=4 * 5 + 2)
    with pytest.raises(dyn.IntegrationAbort) as info:
        dyn._drive(rhs, np.array([0.2, 0.0, 0.0]), 0.01, 1.0, 1, True)
    traj = info.value.trajectory
    assert info.value.reason == traj.stop == "nonfinite"
    assert np.allclose(traj.times, 0.01 * np.arange(6), rtol=0, atol=1e-15)
    assert np.all(np.isfinite(traj.states))


def test_ball_step_whose_square_overflows_stops_at_the_boundary():
    # the fourth stage's derivative is taken by no later stage, so the step
    # is finite (about 1.7e297) while its |y|^2 overflows: a clean stop
    y0 = np.array([0.2, 0.0, 0.0])
    rhs = _counted_field([0.0, 0.0, 0.0], [1e300, 0.0, 0.0], at=4)
    traj = dyn._drive(rhs, y0, 0.01, 1.0, 1, True)
    assert traj.stop == "boundary"
    assert list(traj.times) == [0.0] and np.array_equal(traj.states, [y0])


@pytest.mark.parametrize("start, reason", [(0.1, "unstable"), (0.95, "boundary")])
def test_ball_stage_leaving_the_ball(start, reason):
    # the second stage lands at |y| > 5: a failed step from far inside, a
    # clean stop from within NEAR_BOUNDARY of the sphere
    y0 = np.array([start, 0.0, 0.0])
    rhs = _counted_field([1000.0, 0.0, 0.0])
    if reason == "unstable":
        with pytest.raises(dyn.IntegrationAbort) as info:
            dyn._drive(rhs, y0, 0.01, 1.0, 1, True)
        traj = info.value.trajectory
    else:
        traj = dyn._drive(rhs, y0, 0.01, 1.0, 1, True)
    assert traj.stop == reason
    assert list(traj.times) == [0.0] and np.array_equal(traj.states, [y0])


def test_ball_start_whose_square_rounds_to_one_stops_at_the_first_stage():
    y0 = np.array([0.7415052042025201, 0.5385471155343273, -0.4001712589507583])
    assert float(y0 @ y0) == 1.0 and sum(Fraction(v) ** 2 for v in y0) < 1
    calls = []
    traj = dyn._drive(lambda y, y2: calls.append(y2) or [0.0, 0.0, 0.0], y0, 0.01, 1.0, 1, True)
    assert traj.stop == "boundary" and not calls
    assert list(traj.times) == [0.0] and np.array_equal(traj.states, [y0])


@pytest.mark.parametrize("stride", [2.7, True, "3", 0, -1, None])
def test_stride_must_be_a_positive_integer(stride):
    base = dyn.random_configuration(10, 3, 48)
    with pytest.raises(geo.GeometryError, match="stride"):
        red.integrate_w(np.zeros(3), base, equal_spec(10), 0.01, 0.1, stride)


def test_stride_takes_a_numpy_integer():
    base = dyn.random_configuration(10, 3, 48)
    traj = red.integrate_w(np.zeros(3), base, equal_spec(10), 0.01, 0.1, np.int64(3))
    assert np.allclose(traj.times, [0.0, 0.03, 0.06, 0.09, 0.1], rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# diagnostics


@pytest.mark.parametrize("n", [100, 2000])
@pytest.mark.parametrize("rotation", ["none", "shared", "per_particle"])
@pytest.mark.parametrize("projection", [True, False])
@pytest.mark.parametrize("stride", [1, 7])
def test_integrate_full_matches_plain_rk4_on_public_full_rhs(n, rotation, projection, stride):
    # the integrator runs the unchecked field with the shared term's
    # transpose made contiguous once and its own row norms; the reference
    # runs the public full_rhs and np.linalg.norm, so any difference shows
    rng = np.random.default_rng(n + stride)
    x0 = dyn.random_configuration(n, 3, seed=n)
    A = {"none": None,
         "shared": geo.random_antisymmetric(3, rng, 0.5),
         "per_particle": np.array([geo.random_antisymmetric(3, rng, 0.5) for _ in range(n)])}[rotation]
    a = rng.random(n)
    a /= a.sum()
    traj = dyn.integrate_full(x0, A, a, 0.01, 0.3, projection, stride)
    times, states, info, stop = integrate_full_reference(x0, A, a, 0.01, 0.3, projection, stride)
    assert traj.stop == stop == "end"
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.info, info)


# sha256 of integrate_full's times, states, info and stop, recorded when its
# stages ran rk4_step on _field's (N, 1) x (N, d) broadcasts; the last four
# (the presets' shape, N = 100 at d = 4, column groups 3 + 3 + 1 and N = 2000
# without rotation) when they ran in one workspace on `@` and keyword `out`
FULL_DIGESTS = {
    (2000, 3, "shared", True, 50): "66b16eacffd2673a69b4ba9a3b3eed4171dc87eece360540da052226980d3ce1",
    (2000, 3, "shared", False, 50): "a4668c2036d6f9aeb0311d0e8dedeb71e4fe7781daf6e57d5411afa04115a160",
    (2000, 4, "shared", True, 50): "dd0676d171d0b0d3531de027bbb8c13dd722def4550b5fccd2e625cb80a50470",
    (2000, 4, "shared", False, 50): "d8d3097fb11e5f62fabd46a4ac1c741afcfe5d75a18eb6c6d72e8be54a1d2784",
    (100, 2, "per_particle", True, 7): "1871e7ad32f55d8414dbb7f71e23415026c948674842612c3d523473516c1cd9",
    (100, 5, "per_particle", False, 7): "79661d1a970fa3b205d5237a3580bfa73d2e5e57e6e92d38002598a9cf721df3",
    (100, 3, "none", True, 10): "106403eb716a6e553ed6caae584919c2f334930bda8e133784bd4e188579890c",
    (100, 4, "shared", True, 1): "4c25e108e36f99ffd9143072e879934b00b0f6c01ad79c357dd3b2ae1c1540f3",
    (300, 7, "shared", False, 7): "451723be8f9a5d9a0da44ce82d45195354c639a63b1805e7f546ba532936d76f",
    (2000, 3, "none", True, 50): "8d7561a459a6d617eeb4b3248362e35b7c05f11cccae8116b85aa49b826dd976",
}


@pytest.mark.parametrize("n, d, rotation, projection, stride", sorted(FULL_DIGESTS))
def test_integrate_full_keeps_its_bits(n, d, rotation, projection, stride):
    rng = np.random.default_rng(1000 * d + n)
    x0 = dyn.random_configuration(n, d, seed=n + d)
    A = (None if rotation == "none" else geo.random_antisymmetric(d, rng, 0.5)
         if rotation == "shared"
         else np.array([geo.random_antisymmetric(d, rng, 0.5) for _ in range(n)]))
    a = rng.random(n)
    a /= a.sum()
    traj = dyn.integrate_full(x0, A, a, 0.01, 2.0 if n == 2000 else 3.0, projection, stride)
    digest = hashlib.sha256()
    for arr in (traj.times, traj.states, traj.info):
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(traj.stop.encode())
    assert traj.stop == "end"
    assert digest.hexdigest() == FULL_DIGESTS[n, d, rotation, projection, stride]


def _planar_rotation(scale):
    return np.array([[0.0, scale], [-scale, 0.0]])


# every run aborts at its first step; the stop and message are the ones the
# separate isfinite scan of rk4_step gave
@pytest.mark.parametrize("case, projection, stop", [
    ("nan", True, "nonfinite"), ("nan", False, "nonfinite"),
    ("inf", True, "nonfinite"), ("inf", False, "nonfinite"),
    ("square_overflows", True, "unstable"), ("square_overflows", False, "drift"),
])
def test_integrate_full_classifies_its_aborts(case, projection, stop):
    # nan: a step of 1e200 makes inf - inf in the coupling; inf: a rotation
    # of 1e78 overflows the fourth stage alone; square_overflows: a rotation
    # of 1e50 leaves finite rows of about 1e200, whose squared norms overflow
    if case == "nan":
        x0, A, a, h = dyn.random_configuration(10, 3, 12), None, dyn.equal_weights(10), 1e200
    else:
        x0, a, h = dyn.random_configuration(10, 2, 12), np.zeros(10), 1.0
        A = _planar_rotation(1e78 if case == "inf" else 1e50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dyn.IntegrationAbort) as info:
            dyn.integrate_full(x0, A, a, h, 3 * h, projection)
    traj = info.value.trajectory
    assert info.value.reason == traj.stop == stop
    assert len(traj.times) == 1 and np.array_equal(traj.states[0], x0)
    assert str(info.value) == {
        "nonfinite": "non-finite state after RK4 step at t = ",
        "unstable": "step too large: an RK stage left the unit ball from far inside it, or a "
                    "step left the sphere, or its rotation SO(d), by more than 0.001 at t = ",
        "drift": "norm drift exceeded 0.001 with projection off (integrator failure) at t = ",
    }[stop] + f"{h:.6g}"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000), st.integers(2, 7), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_row_norms_are_numpys(n, d, log_scale, seed):
    # rows of about 10^log_scale in size, each with its own spread
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) * 10.0**log_scale * np.exp(rng.standard_normal((n, 1)))
    assert np.array_equal(dyn._row_norms(x), np.linalg.norm(x, axis=1))


@pytest.mark.parametrize("d", [8, 9, 16])
def test_row_norms_of_long_rows_are_numpys(d):
    # numpy sums rows of 8 or more entries pairwise, not in order
    x = np.random.default_rng(d).standard_normal((300, d))
    assert np.array_equal(dyn._row_norms(x), np.linalg.norm(x, axis=1))


def test_sync_metrics_at_synchrony():
    q = np.array([0.0, 0.0, 1.0])
    x = np.tile(q, (4, 1))
    m = dyn.sync_metrics(x, equal_spec(4))
    assert m.Znorm == pytest.approx(1.0, abs=1e-15)
    assert m.min_pair_dot == pytest.approx(1.0, abs=1e-15)
    assert m.dist_to_diagonal == pytest.approx(0.0, abs=1e-12)


def test_sync_metrics_antipodal_pair():
    # the order parameter cancels exactly, and the centroid direction (hence
    # dist_to_diagonal) is undefined at the same stroke
    x = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    assert np.linalg.norm(dyn.order_parameter(x, equal_spec(2))) == 0.0
    with pytest.raises(geo.GeometryError):
        dyn.sync_metrics(x, equal_spec(2))


def test_sync_metrics_centroid_at_origin_is_error():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(geo.GeometryError):
        dyn.sync_metrics(x, equal_spec(2))


def test_sync_metrics_random_cloud():
    x = dyn.random_configuration(100, 3, 13)
    spec = equal_spec(100)
    m = dyn.sync_metrics(x, spec)
    assert m.Znorm == pytest.approx(np.linalg.norm(x.mean(axis=0)), abs=1e-15)
    assert -1.0 <= m.min_pair_dot < 0.5


@pytest.mark.parametrize("build, args, name", [
    (dyn.as_weights, ([True, False, False], 3), "weights"),  # read as 1, 0, 0
    (dyn.as_weights, (["0.5", "0.25", "0.25"], 3), "weights"),  # parsed as numbers
    (dyn.explicit_weights, (["0.5", "0.5"],), "weights"),
    (dyn.explicit_weights, (5,), "weights"),  # TypeError from len()
    (dyn.validate_configuration, ([[True, False], [False, True]],), "configuration"),
    (dyn.order_parameter, (np.eye(2), [False, True]), "weights"),
])
def test_array_arguments_pass_the_one_array_rule(build, args, name):
    with pytest.raises(geo.GeometryError, match=f"'{name}'"):
        build(*args)


def _seeded_calls():
    ctx = gr.PotentialContext(dyn.random_configuration(6, 3, 1), dyn.equal_weights(6))
    z = np.array([0.1, 0.2, 0.3])
    return {
        "random_configuration": lambda seed: dyn.random_configuration(3, 3, seed),
        "find_fixed_point": lambda seed: gr.find_fixed_point(ctx, seed=seed),
        "classify_limits": lambda seed: gr.classify_limits(ctx, "forward", seed=seed, horizon=0.1),
        "poisson_integral_mc": lambda seed: cont.poisson_integral_mc(lambda x: x, z, 10, seed=seed),
        "sample_pushforward": lambda seed: cont.sample_pushforward(z, 10, seed=seed),
        "divergence_from_real": lambda seed: cb.divergence_from_real(2, seed, n_samples=10),
        "rng_from": lambda seed: rng_from(seed),
    }


@pytest.mark.parametrize("entry", list(_seeded_calls()))
@pytest.mark.parametrize("seed", [2.7, True, np.float64(2.0), "2", -1])
def test_seeds_are_checked_not_truncated(entry, seed):
    # int() ran each of these with seed 2 for 2.7, or 1 for True
    with pytest.raises(geo.GeometryError, match="'seed'"):
        _seeded_calls()[entry](seed)


@pytest.mark.parametrize("stream", [2.5, True, -1, None])
def test_stream_indices_are_checked_not_truncated(stream):
    with pytest.raises(geo.GeometryError, match="'stream'"):
        rng_from(3, 0, stream)
    assert rng_from(3, np.int64(1)).random() == rng_from(3, 1).random()

