import hashlib

import numpy as np
import pytest

from oracles import fixed_point_reference
from spherekuramoto import dynamics as dyn
from spherekuramoto import geometry as geo
from spherekuramoto import gradient as gr
from spherekuramoto import reduced as red
from spherekuramoto.sampling import rng_from, uniform_ball


def make_ctx(n=10, d=3, seed=1, weights=None, allow_majority=False):
    base = dyn.random_configuration(n, d, seed)
    if weights is None:
        weights = dyn.equal_weights(n)
    return gr.PotentialContext(base, weights, allow_majority=allow_majority)


def symmetric_ctx():
    th = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    base = np.column_stack([np.cos(th), np.sin(th), np.zeros(3)])
    return gr.PotentialContext(base, dyn.equal_weights(3))


# ---------------------------------------------------------------------------
# context validation


def test_context_rejects_bad_weights():
    base = dyn.random_configuration(5, 3, 2)
    with pytest.raises(geo.GeometryError):
        gr.PotentialContext(base, np.array([0.3, 0.3, 0.3, 0.3, 0.3]))  # sum != 1
    with pytest.raises(geo.GeometryError):
        gr.PotentialContext(base, np.array([0.6, 0.1, 0.1, 0.1, 0.1]))  # majority not allowed
    gr.PotentialContext(base, np.array([0.6, 0.1, 0.1, 0.1, 0.1]), allow_majority=True)
    with pytest.raises(geo.GeometryError):
        gr.PotentialContext(base, np.array([0.4, 0.4, 0.2, 0.0, 0.0]))  # zero weights


# ---------------------------------------------------------------------------
# potential and gradients


def test_potential_zero_at_origin():
    ctx = make_ctx()
    assert gr.potential(np.zeros(3), ctx) == pytest.approx(0.0, abs=1e-14)


def test_potential_two_formulas_agree():
    from spherekuramoto.continuum import poisson_kernel_hyperbolic

    ctx = make_ctx()
    rng = rng_from(3, 0)
    for _ in range(20):
        w = uniform_ball(3, rng, 0.9)
        direct = gr.potential(w, ctx)
        kernel = float(
            ctx.weights @ np.log(poisson_kernel_hyperbolic(w, ctx.base)) / (ctx.d - 1)
        )
        assert direct == pytest.approx(kernel, abs=1e-12)


@pytest.mark.parametrize("w", [[0.0, 1.0, 0.0], [0.6, 0.8, 0.0], [2.0, 0.0, 0.0]])
def test_flow_rhs_rejects_boost_on_or_outside_the_sphere(w):
    with pytest.raises(geo.GeometryError, match="outside the open unit ball"):
        gr.flow_rhs(np.array(w), make_ctx())


def test_potential_singular_near_base_point():
    ctx = make_ctx()
    w = ctx.base[0] * (1.0 - 1e-13)
    with pytest.raises(geo.GeometryError):
        gr.potential(w, ctx)


def test_potential_drops_to_minus_infinity_along_rays():
    ctx = make_ctx(seed=5)
    rng = rng_from(6, 0)
    for _ in range(20):
        q = rng.standard_normal(3)
        q /= np.linalg.norm(q)
        values = [gr.potential((1.0 - 10.0**-k) * q, ctx) for k in range(2, 12)]
        assert np.all(np.diff(values) < 0.0)
        assert values[-1] < -20.0


def test_potential_diverges_along_base_direction_for_subcritical_weight():
    # approach p_1 radially: the (1 - 2 a_1) log factor still wins for a_1 < 1/2
    ctx = make_ctx(seed=7)
    q = ctx.base[0]
    values = [gr.potential((1.0 - 10.0**-k) * q, ctx) for k in range(2, 11)]
    assert np.all(np.diff(values) < 0.0)
    assert values[-1] < -5.0


def test_euclidean_gradient_at_origin():
    ctx = make_ctx()
    expected = 2.0 * ctx.weights @ ctx.base
    assert np.allclose(gr.potential_grad(np.zeros(3), ctx), expected, atol=1e-14)


def test_euclidean_gradient_matches_central_differences():
    ctx = make_ctx(seed=8)
    rng = rng_from(9, 0)
    step = 1e-5
    for _ in range(20):
        w = uniform_ball(3, rng, 0.8)
        fd = np.empty(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            fd[j] = (gr.potential(w + e, ctx) - gr.potential(w - e, ctx)) / (2.0 * step)
        assert np.max(np.abs(fd - gr.potential_grad(w, ctx))) <= 1e-6


def test_gradient_vanishes_at_fixed_point():
    ctx = symmetric_ctx()
    assert np.max(np.abs(gr.potential_grad(np.zeros(3), ctx))) <= 1e-15


def test_hyperbolic_grad_at_origin_divides_by_four():
    g = np.array([1.0, -2.0, 3.0])
    assert np.allclose(gr.hyperbolic_grad(g, np.zeros(3)), g / 4.0, atol=0)


@pytest.mark.parametrize("d,n", [(2, 3), (2, 10), (3, 3), (3, 10), (4, 3), (4, 10)])
def test_gradient_identity_closed_form(d, n):
    rng = rng_from(10, d, n)
    w_draw = rng.random(n)
    weights = w_draw / w_draw.sum()
    # keep every weight subcritical by mixing toward equal weights
    weights = 0.5 * weights + 0.5 / n
    ctx = gr.PotentialContext(dyn.random_configuration(n, d, 11 + d), weights)
    worst = 0.0
    for _ in range(100):
        w = uniform_ball(d, rng, 0.9)
        gap = np.linalg.norm(
            gr.hyperbolic_grad(gr.potential_grad(w, ctx), w) + gr.flow_rhs(w, ctx)
        )
        worst = max(worst, float(gap))
    assert worst <= 1e-10


def test_potential_decreases_along_trajectories():
    ctx = make_ctx(n=20, seed=12)
    w0 = uniform_ball(3, rng_from(13, 0), 0.5)
    traj = red.integrate_w(w0, ctx.base, ctx.weights, 0.01, 20.0)
    values = np.array([gr.potential(w, ctx) for w in traj.states])
    slack = 1e-12 * np.abs(values[:-1]) + 1e-14
    assert np.all(np.diff(values) <= slack)


# ---------------------------------------------------------------------------
# fixed point and linearization


def test_fixed_point_of_symmetric_configuration_is_origin():
    rep = gr.find_fixed_point(symmetric_ctx(), seed=1)
    assert np.max(np.abs(rep.w_star)) <= 1e-10
    assert np.allclose(np.sort(rep.mu), [0.0, 0.5, 0.5], atol=1e-10)
    assert np.allclose(np.sort(rep.lam), [0.5, 0.5, 1.0], atol=1e-10)


def test_fixed_point_centroid_residual():
    ctx = make_ctx(n=15, seed=14)
    rep = gr.find_fixed_point(ctx, seed=2)
    residual = np.linalg.norm(ctx.weights @ geo.boost_apply(rep.w_star, ctx.base))
    assert residual <= 1e-10
    assert np.all(rep.lam > 0.0)
    assert rep.T_norm < 1.0


def test_fixed_point_equivariance_under_base_boost():
    # moving the symmetric base by M_v moves the fixed point from 0 to -v
    ctx0 = symmetric_ctx()
    v = np.array([0.25, -0.1, 0.2])
    m = geo.MobiusMap(np.eye(3), v)
    moved = geo.mobius_apply(m, ctx0.base)
    moved /= np.linalg.norm(moved, axis=1)[:, None]
    ctx1 = gr.PotentialContext(moved, ctx0.weights)
    rep = gr.find_fixed_point(ctx1, seed=3)
    assert np.max(np.abs(rep.w_star - (-v))) <= 1e-8


def test_fixed_point_unique_across_seeds():
    ctx = make_ctx(n=12, seed=15)
    stars = np.stack([gr.find_fixed_point(ctx, seed=s).w_star for s in range(8)])
    assert np.max(np.linalg.norm(stars - stars[0], axis=1)) <= 1e-7


def random_admissible_ctx(seed, d=3, max_weight=0.45):
    """A random base with random weights, every one below max_weight."""
    while True:
        rng = rng_from(18, seed, d)
        n = int(rng.integers(3, 12))
        raw = rng.random(n) + 0.05
        weights = raw / raw.sum()
        if weights.max() < max_weight:
            return gr.PotentialContext(dyn.random_configuration(n, d, 3000 + seed), weights)
        seed += 1000


@pytest.mark.parametrize("seed,d", [(1, 2), (2, 3), (3, 3), (4, 4), (5, 5)])
def test_fixed_point_agrees_with_backward_flow_oracle(seed, d):
    ctx = random_admissible_ctx(seed, d)
    rep = gr.find_fixed_point(ctx, seed=seed)
    assert np.max(np.abs(rep.w_star - fixed_point_reference(ctx, seed=seed))) <= 1e-10


def test_fixed_point_integrates_no_flow(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("find_fixed_point integrated the boost flow")

    monkeypatch.setattr(gr, "integrate_w", refuse)
    rep = gr.find_fixed_point(make_ctx(n=15, seed=14), seed=2)
    assert rep.T_norm < 1.0


def test_fixed_point_reports_an_unfinished_search(monkeypatch):
    monkeypatch.setattr(gr, "MAX_NEWTON", 1)
    with pytest.raises(gr.GradientError, match="did not reach"):
        gr.find_fixed_point(make_ctx(n=15, seed=14), seed=2)


@pytest.mark.parametrize("n", [3, 5, 40])
@pytest.mark.parametrize("d", [2, 3, 4, 6])
@pytest.mark.parametrize("dominant", [0.49, 0.499])
def test_fixed_point_near_critical_weight(dominant, d, n):
    # the equilibrium sits close to the sphere, next to the dominant point
    # (|w*| up to 0.998 here), where the backward flow is slow to settle
    for seed in range(3):
        ctx = gr.PotentialContext(dyn.random_configuration(n, d, seed),
                                  dyn.majority_weights(n, dominant))
        rep = gr.find_fixed_point(ctx, seed=seed)
        assert np.linalg.norm(ctx.weights @ geo.boost_apply(rep.w_star, ctx.base)) <= 1e-10
        assert np.linalg.norm(ctx.weights @ rep.base_recentred) <= 1e-10
        assert rep.T_norm < 1.0
        assert np.all(rep.lam > 0.0)


def test_fixed_point_requires_subcritical_weights():
    ctx = make_ctx(n=10, seed=16, weights=dyn.majority_weights(10, 0.6), allow_majority=True)
    with pytest.raises(gr.GradientError):
        gr.find_fixed_point(ctx, seed=0)


def test_linearization_symmetric_eigenvalues():
    th = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
    base = np.column_stack([np.cos(th), np.sin(th), np.zeros(3)])
    T = gr.linearization_T(base, dyn.equal_weights(3))
    assert np.max(np.abs(T - T.T)) == 0.0
    assert np.allclose(np.sort(np.linalg.eigvalsh(T)), [0.0, 0.5, 0.5], atol=1e-14)


def test_linearization_rejects_antipodal_pair():
    u = np.array([0.0, 0.0, 1.0])
    base = np.array([u, -u])
    with pytest.raises(gr.GradientError):
        gr.linearization_T(base, np.array([0.5, 0.5]))


def test_linearization_requires_recentred_base():
    base = dyn.random_configuration(5, 3, 17)
    with pytest.raises(gr.GradientError):
        gr.linearization_T(base, dyn.equal_weights(5))


def test_operator_norm_below_one_for_random_admissible_configs():
    # the norm bound needs only distinct points and admissible weights, not a
    # vanishing centroid, so it can be checked on raw configurations
    for seed in range(100):
        rng = rng_from(18, seed)
        n = int(rng.integers(3, 12))
        raw = rng.random(n) + 0.05
        weights = raw / raw.sum()
        base = dyn.random_configuration(n, 3, 1000 + seed)
        T = (weights[:, None] * base).T @ base
        assert np.linalg.norm(T, ord=2) < 1.0


def test_fixed_point_reports_for_random_contexts():
    done = 0
    seed = 0
    while done < 15:
        seed += 1
        rng = rng_from(18, seed, 1)
        n = int(rng.integers(3, 12))
        raw = rng.random(n) + 0.05
        weights = raw / raw.sum()
        if weights.max() >= 0.45:  # keep a margin from the critical weight 1/2
            continue
        ctx = gr.PotentialContext(dyn.random_configuration(n, 3, 2000 + seed), weights)
        rep = gr.find_fixed_point(ctx, seed=seed)
        assert rep.T_norm < 1.0
        assert np.all(rep.lam > 0.0)
        done += 1


# ---------------------------------------------------------------------------
# scaled and blow-up systems


def test_scaled_field_is_radial_on_sphere():
    ctx = make_ctx(seed=19)
    rng = rng_from(20, 0)
    for _ in range(20):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        if np.min(np.linalg.norm(ctx.base - x, axis=1)) < 1e-6:
            continue
        assert np.max(np.abs(gr.scaled_rhs(x, ctx) - x)) <= 1e-12


def test_scaled_field_vanishes_at_fixed_point():
    ctx = make_ctx(n=15, seed=21)
    rep = gr.find_fixed_point(ctx, seed=4)
    assert np.max(np.abs(gr.scaled_rhs(rep.w_star, ctx))) <= 1e-9


def test_scaled_field_collinear_with_flow():
    # the flow is (1 - |w|^2)/2 times the scaled field: same direction,
    # different clock
    ctx = make_ctx(seed=22)
    rng = rng_from(23, 0)
    for _ in range(20):
        w = uniform_ball(3, rng, 0.9)
        lhs = gr.scaled_rhs(w, ctx) * (1.0 - w @ w) / 2.0
        assert np.max(np.abs(lhs - gr.flow_rhs(w, ctx))) <= 1e-12


def test_scaled_field_rejects_base_points():
    ctx = make_ctx(seed=24)
    with pytest.raises(geo.GeometryError):
        gr.scaled_rhs(ctx.base[2] * (1.0 + 1e-14), ctx)


def test_polar_fixed_point_and_invariant_slice():
    ctx = make_ctx(seed=25)
    p1 = ctx.base[0]
    rdot, udot = gr.semiscaled_polar_rhs(gr.PolarState(0.0, p1, 0), ctx)
    assert rdot == 0.0
    assert np.max(np.abs(udot)) <= 1e-12
    rng = rng_from(26, 0)
    for _ in range(10):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        rdot, udot = gr.semiscaled_polar_rhs(gr.PolarState(0.0, u, 0), ctx)
        assert rdot == 0.0  # {r = 0} is exactly invariant
        expected = (p1 @ u) * u - p1
        assert np.max(np.abs(udot - expected)) <= 1e-12


def test_polar_radius_range_enforced():
    ctx = make_ctx(seed=27)
    eps = gr.anchor_radius(ctx, 0)
    with pytest.raises(geo.GeometryError):
        gr.semiscaled_polar_rhs(gr.PolarState(eps, ctx.base[0], 0), ctx)
    with pytest.raises(geo.GeometryError):
        gr.PolarState(-0.1, ctx.base[0], 0)


@pytest.mark.parametrize("a1", [0.1, 0.3, 0.45])
def test_saddle_spectrum(a1):
    n = 6
    weights = np.full(n, (1.0 - a1) / (n - 1))
    weights[0] = a1
    ctx = gr.PotentialContext(dyn.random_configuration(n, 3, 28), weights)
    jac = gr.semiscaled_jacobian(ctx, anchor=0)
    eigs = np.sort(np.linalg.eigvals(jac).real)
    expected = np.sort(np.array([-(1.0 - 2.0 * a1), 1.0, 1.0]))
    assert np.max(np.abs(eigs - expected)) <= 1e-6
    assert np.max(np.abs(np.linalg.eigvals(jac).imag)) <= 1e-6


# ---------------------------------------------------------------------------
# classification


def test_classify_forward_sync():
    ctx = make_ctx(n=100, seed=101)
    rep = gr.classify_limits(ctx, "forward", seed=0)
    assert rep.kind == gr.FORWARD_SYNC
    assert rep.limit_point is not None
    assert abs(np.linalg.norm(rep.limit_point) - 1.0) <= 1e-9
    assert rep.metrics["min_pair_dot"] >= 0.999


def test_classify_backward_incoherent():
    ctx = make_ctx(n=100, seed=101)
    rep = gr.classify_limits(ctx, "backward", seed=0)
    assert rep.kind == gr.BACKWARD_INCOHERENT
    assert rep.w_star is not None
    assert rep.metrics["Z_residual"] <= 1e-4


def test_classify_majority_cluster():
    ctx = make_ctx(n=100, seed=101, weights=dyn.majority_weights(100, 0.6),
                   allow_majority=True)
    rep = gr.classify_limits(ctx, "backward", seed=0)
    assert rep.kind == gr.MAJORITY_CLUSTER_ANTIPODAL
    assert rep.dominant_index == 0
    assert rep.metrics["max_dominant_dot"] <= -0.999


def test_classify_short_horizon_is_unclassified():
    ctx = make_ctx(n=50, seed=30)
    rep = gr.classify_limits(ctx, "forward", seed=0, horizon=0.1)
    assert rep.kind == gr.UNCLASSIFIED
    assert "w_norm" in rep.metrics


def test_classify_rejects_unknown_direction():
    ctx = make_ctx(seed=31)
    with pytest.raises(geo.GeometryError):
        gr.classify_limits(ctx, "sideways", seed=0)


@pytest.mark.parametrize("call", [
    lambda ctx: gr.PolarState(0.0, ctx.base[0], 1.5),  # truncated to 1
    lambda ctx: gr.PolarState(0.0, ctx.base[0], True),
    lambda ctx: gr.semiscaled_jacobian(ctx, anchor=-1),  # silently the last base point
    lambda ctx: gr.semiscaled_jacobian(ctx, anchor=ctx.n),  # IndexError
    lambda ctx: gr.semiscaled_jacobian(ctx, anchor=0.5),
    lambda ctx: gr.anchor_radius(ctx, 2.5),  # IndexError
    lambda ctx: gr.anchor_radius(ctx, -1),  # silently the last base point
    lambda ctx: gr.semiscaled_polar_rhs(gr.PolarState(0.0, ctx.base[0], ctx.n), ctx),
])
def test_anchor_is_checked_not_truncated(call):
    with pytest.raises(geo.GeometryError, match="'anchor'"):
        call(make_ctx(seed=27))


@pytest.mark.parametrize("horizon", ["5", None, True, np.nan])
def test_classify_limits_checks_its_horizon(horizon):
    with pytest.raises(geo.GeometryError, match="'horizon'"):
        gr.classify_limits(make_ctx(seed=3), "forward", horizon=horizon)


@pytest.mark.parametrize("w", [[np.nan, 0.0, 0.0], [0.1, np.inf, 0.0], ["0.1", "0", "0"]])
def test_scaled_field_rejects_nonfinite_or_string_points(w):
    # a NaN point returned a NaN field
    with pytest.raises(geo.GeometryError, match="'w'"):
        gr.scaled_rhs(w, make_ctx(seed=24))


# sha256 of classify_limits' reports (kind, metrics, w_star, limit_point) on
# the criterion-7 base, both directions, seeds 0-4, as reported since the
# coupling sum takes the sphere form and the image kernel evaluates the ball
# formula through x - w.  Every kind held; against the reports before, doubles
# moved by at most: w_norm 1.4e-17, w_star 1.4e-17, Z_residual 3.3e-16,
# min_pair_dot 3.3e-16, max_dominant_dot 4.4e-16 and limit_point 4.4e-16.
CLASSIFY_DIGEST = "45b6ee2c84b32b08ec99f882c5ceec94437100c3fe6aea064141d089d236926f"


def test_classify_limits_reports_keep_their_doubles():
    ctx = gr.PotentialContext(dyn.random_configuration(100, 3, 7000), dyn.equal_weights(100))
    digest = hashlib.sha256()
    for direction in ("backward", "forward"):
        for seed in range(5):
            report = gr.classify_limits(ctx, direction, seed=seed)
            digest.update(repr((report.kind, sorted(report.metrics.items()))).encode())
            for point in (report.w_star, report.limit_point):
                digest.update(b"-" if point is None else point.tobytes())
    assert digest.hexdigest() == CLASSIFY_DIGEST


@pytest.mark.parametrize("d, seed, dominant, horizon", [
    (3, 7, 0.7, 40.0), (2, 202, 0.7, 40.0), (3, 202, 0.7, 40.0),
    # at dominant 0.6 the approach is slower: at the default horizon the
    # centroid is still 1.4e-6 above 2a - 1 (the other points sit 0.026 rad
    # from the antipode)
    (2, 7, 0.6, 60.0),
])
def test_backward_majority_runs_reach_the_antipodal_state(d, seed, dominant, horizon):
    # w nears the dominant base point, where the coupling sum and the
    # reconstruction must not cancel: the limit |Z| = 2a - 1 with every other
    # point antipodal, and no pair of reconstructed rows below -1
    ctx = make_ctx(100, d, seed, dyn.majority_weights(100, dominant), allow_majority=True)
    report = gr.classify_limits(ctx, "backward", horizon=horizon)
    assert report.kind == gr.MAJORITY_CLUSTER_ANTIPODAL
    assert abs(report.metrics["Z_residual"] - (2.0 * dominant - 1.0)) <= 1e-6
    assert report.metrics["min_pair_dot"] >= -1.0 - 1e-8
