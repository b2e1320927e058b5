import numpy as np
import pytest
from scipy.linalg import expm

from spherekuramoto import dynamics as dyn
from spherekuramoto import geometry as geo
from spherekuramoto import gradient as gr
from spherekuramoto import reduced as red

from oracles import angles_to_plane, integrate_angles, mean_field_order_parameter


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
    assert len(recs) == 1
    assert np.array_equal(recs[0].x, x0)


def test_integrate_records_respect_stride():
    x0 = dyn.random_configuration(4, 3, 8)
    recs = dyn.integrate_full(x0, None, equal_spec(4), 0.01, 0.1, stride=4)
    assert [round(r.t, 10) for r in recs] == [0.0, 0.04, 0.08, 0.1]


def test_norm_conservation_without_projection():
    x0 = dyn.random_configuration(100, 3, 9)
    recs = dyn.integrate_full(x0, None, equal_spec(100), 0.01, 40.0,
                              projection=False, stride=400)
    assert recs[-1].drift <= 1e-6


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
    assert np.max(np.abs(recs[-1].x - angles_to_plane(theta))) <= 1e-8


def test_determinism_bit_identical():
    a = dyn.integrate_full(dyn.random_configuration(20, 3, 11), None,
                           equal_spec(20), 0.01, 1.0, stride=10)
    b = dyn.integrate_full(dyn.random_configuration(20, 3, 11), None,
                           equal_spec(20), 0.01, 1.0, stride=10)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.x, rb.x) and ra.t == rb.t


def test_unprojected_abort_on_drift():
    # a deliberately huge step makes RK4 leave the sphere immediately
    x0 = dyn.random_configuration(10, 3, 12)
    with pytest.raises(dyn.IntegrationAbort) as info:
        dyn.integrate_full(x0, None, equal_spec(10), 2.5, 250.0, projection=False)
    assert len(info.value.trajectory) >= 1


def test_drift_abort_records_last_accepted_state():
    # the step to t = 3.5 breaks the drift limit; t = 3.0 is off the stride grid
    x0 = dyn.random_configuration(10, 3, 12)
    with pytest.raises(dyn.IntegrationAbort) as info:
        dyn.integrate_full(x0, None, equal_spec(10), 0.5, 500.0, projection=False, stride=1000)
    assert info.value.reason == "drift"
    traj = info.value.trajectory
    assert [p.t for p in traj] == [0.0, 3.0]
    assert traj[-1].drift <= dyn.NORM_DRIFT_LIMIT


# ---------------------------------------------------------------------------
# diagnostics


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
