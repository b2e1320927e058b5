"""Acceptance suite.

Each test enforces one contract criterion at its stated tolerance and prints
one PASS/FAIL line (run pytest with -s to see them all).  Criteria 2 and 3
share the trajectories produced by the session fixture below.
"""
import numpy as np
import pytest

from spherekuramoto import complexball as cb
from spherekuramoto import continuum as cont
from spherekuramoto import dynamics as dyn
from spherekuramoto import geometry as geo
from spherekuramoto import gradient as gr
from spherekuramoto import harness as h
from spherekuramoto import reduced as red
from spherekuramoto.sampling import rng_from, uniform_ball


def check(name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. sphere invariance


def test_criterion_01_sphere_invariance():
    x0 = dyn.random_configuration(100, 3, 2024)
    spec = dyn.equal_weights(100)
    recs = dyn.integrate_full(x0, None, spec, 0.01, 40.0, projection=False, stride=400)
    drift = recs.info[-1]
    check("criterion 1 sphere invariance", drift <= 1e-6,
          f"max | |x_i| - 1 | = {drift:.3e} over t in [0, 40] (tol 1e-6)")


# ---------------------------------------------------------------------------
# 2 and 3. group-orbit reduction and conserved cross-ratios


@pytest.fixture(scope="module")
def orbit_runs():
    runs = {}
    for d in (2, 3, 4):
        n, hstep, t_end = 10, 1e-3, 10.0
        seed = 4000 + d
        rng = np.random.default_rng(seed)
        x0 = dyn.random_configuration(n, d, seed)
        A = geo.random_antisymmetric(d, rng)
        a = rng.random(n)
        a /= a.sum()
        spec = a
        full = dyn.integrate_full(x0, A, spec, hstep, t_end, projection=False, stride=500)
        reduced = red.integrate_reduced(red.initial_state(x0), A, spec, hstep, t_end, stride=500)
        runs[d] = (x0, full, reduced)
    return runs


def test_criterion_02_group_orbit_reduction(orbit_runs):
    worst = 0.0
    for d, (x0, full, reduced) in orbit_runs.items():
        for fr, rr in zip(full.states, reduced.states):
            x = red.reconstruct(red.ReducedState(rr[0], rr[1:], x0))
            worst = max(worst, float(np.max(np.abs(fr - x))))
    check("criterion 2 group-orbit reduction", worst <= 1e-5,
          f"sup-norm deviation = {worst:.3e} for d in {{2,3,4}} (tol 1e-5)")


def test_criterion_03_cross_ratio_conservation(orbit_runs):
    worst = 0.0
    tuples = [(0, 1, 2, 3), (1, 4, 6, 9), (2, 3, 5, 8), (0, 4, 5, 7)]
    for d, (x0, full, _) in orbit_runs.items():
        for tpl in tuples:
            ref = geo.cross_ratio(*full.states[0][list(tpl)])
            for fr in full.states[1:]:
                worst = max(worst, abs(geo.cross_ratio(*fr[list(tpl)]) - ref))
    check("criterion 3 cross-ratio conservation", worst <= 1e-6,
          f"max drift = {worst:.3e} along the criterion-2 runs (tol 1e-6)")


# ---------------------------------------------------------------------------
# 4. gradient structure


def test_criterion_04_gradient_identity():
    worst_closed, worst_fd = 0.0, 0.0
    step = 1e-5
    for d in (2, 3, 4):
        rng = rng_from(5000, d)
        n = 10
        raw = rng.random(n)
        weights = 0.5 * raw / raw.sum() + 0.5 / n  # keeps every weight below 1/2
        ctx = gr.PotentialContext(dyn.random_configuration(n, d, 5100 + d), weights)
        for _ in range(100):
            w = uniform_ball(d, rng, 0.9)
            if np.min(np.linalg.norm(ctx.base - w, axis=1)) < 0.05:
                continue
            closed = gr.hyperbolic_grad(gr.potential_grad(w, ctx), w)
            worst_closed = max(worst_closed,
                               float(np.linalg.norm(closed + gr.flow_rhs(w, ctx))))
            fd = np.empty(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = step
                fd[j] = (gr.potential(w + e, ctx) - gr.potential(w - e, ctx)) / (2 * step)
            fd_grad = gr.hyperbolic_grad(fd, w)
            worst_fd = max(worst_fd, float(np.linalg.norm(fd_grad + gr.flow_rhs(w, ctx))))
    check("criterion 4 gradient identity", worst_closed <= 1e-10 and worst_fd <= 1e-6,
          f"closed-form gap = {worst_closed:.3e} (tol 1e-10), "
          f"finite-difference gap = {worst_fd:.3e} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 5. potential decreases along trajectories


def test_criterion_05_potential_monotone():
    ctx = gr.PotentialContext(dyn.random_configuration(30, 3, 6000),
                              dyn.equal_weights(30))
    w0 = uniform_ball(3, rng_from(6001, 0), 0.5)
    traj = red.integrate_w(w0, ctx.base, ctx.weights, 0.01, 25.0)
    values = np.array([gr.potential(w, ctx) for w in traj.states])
    slack = 1e-12 * np.abs(values[:-1]) + 1e-14
    violation = float(np.max(np.diff(values) - slack))
    check("criterion 5 potential monotonicity", violation <= 0.0,
          f"worst step increase = {violation:.3e} over {len(values) - 1} steps (slack 1e-12)")


# ---------------------------------------------------------------------------
# 6. synchronization


def test_criterion_06_forward_synchronization():
    spec = dyn.equal_weights(100)
    worst_z, worst_dot = 1.0, 1.0
    for seed in range(10):
        x0 = dyn.random_configuration(100, 3, seed)
        recs = dyn.integrate_full(x0, None, spec, 0.01, 40.0, stride=4000)
        m = dyn.sync_metrics(recs.states[-1], spec)
        worst_z = min(worst_z, m.Znorm)
        worst_dot = min(worst_dot, m.min_pair_dot)
    check("criterion 6 synchronization", worst_z >= 0.999 and worst_dot >= 0.999,
          f"min over 10 seeds: |Z(40)| = {worst_z:.6f}, "
          f"min pair dot = {worst_dot:.6f} (thresholds 0.999)")


# ---------------------------------------------------------------------------
# 7. backward incoherence, uniqueness, repelling linearization


def test_criterion_07_backward_incoherence():
    base = dyn.random_configuration(100, 3, 7000)
    weights = dyn.equal_weights(100)
    ctx = gr.PotentialContext(base, weights)
    finals = []
    worst_res = 0.0
    for seed in range(50):
        w0 = uniform_ball(3, rng_from(seed, 7), 0.5)
        traj = red.integrate_w(w0, base, weights, -0.01, -40.0)
        w_end = traj.final
        finals.append(w_end)
        worst_res = max(worst_res,
                        float(np.linalg.norm(weights @ geo.boost_apply(w_end, base))))
    finals = np.stack(finals)
    spread = float(np.max(np.linalg.norm(finals - finals[0], axis=1)))
    rep = gr.find_fixed_point(ctx, seed=0)
    repelling = bool(np.all(rep.lam > 0.0)) and rep.T_norm < 1.0
    check("criterion 7 backward incoherence",
          worst_res <= 1e-4 and spread <= 1e-7 and repelling,
          f"max |Z| = {worst_res:.3e} (tol 1e-4), spread over 50 seeds = {spread:.3e} "
          f"(tol 1e-7), min Re lambda = {float(np.min(rep.lam)):.4f} > 0, "
          f"|T| = {rep.T_norm:.4f} < 1")


# ---------------------------------------------------------------------------
# 8. majority cluster


def test_criterion_08_majority_cluster():
    cfg = h.preset_config("fig3")
    spec = h.resolve_weights(cfg)
    x0 = h.initial_configuration(cfg)
    recs = dyn.integrate_full(x0, None, spec, cfg.h, cfg.t_end,
                              projection=cfg.projection, stride=4000)
    dots = recs.states[-1][1:] @ recs.states[-1][0]
    worst = float(np.max(dots))
    check("criterion 8 majority cluster", worst <= -0.999,
          f"max_j <x_1, x_j> = {worst:.6f} at t = -40 (threshold -0.999)")


# ---------------------------------------------------------------------------
# 9. continuum order parameter


def test_criterion_09_continuum_order_parameter():
    # d = 2: exactly linear
    rng = rng_from(9000, 0)
    d2_exact = True
    for _ in range(20):
        z = uniform_ball(2, rng, 0.95)
        d2_exact &= bool(np.array_equal(cont.order_parameter_closed_form(z, 1.7), 1.7 * z))
    # d = 4: terminating ratio polynomial
    d4_worst = 0.0
    for _ in range(20):
        z = uniform_ball(4, rng, 0.95)
        t = float(z @ z)
        expected = (1.0 - t / 3.0) / (2.0 / 3.0) * z
        d4_worst = max(d4_worst, float(np.max(np.abs(
            cont.order_parameter_closed_form(z, 1.0) - expected))))
    # d = 3 at |z| = 0.5 against the Monte Carlo integral
    z3 = np.array([0.5, 0.0, 0.0])
    closed = cont.order_parameter_closed_form(z3, 1.0)
    mc = cont.poisson_integral_mc(lambda x: x, z3, 10**6, seed=9001)
    rel = float(np.linalg.norm(closed - mc.value) / np.linalg.norm(closed))
    check("criterion 9 continuum order parameter",
          d2_exact and d4_worst <= 1e-14 and rel <= 1e-2,
          f"d=2 exact: {d2_exact}, d=4 polynomial gap = {d4_worst:.2e}, "
          f"d=3 MC relative error = {rel:.3e} at 1e6 samples (tol 1e-2)")


# ---------------------------------------------------------------------------
# 10. planar continuum reduction


def test_criterion_10_planar_continuum_reduction():
    omega, K = 0.7, 1.3
    A = np.array([[0.0, -omega], [omega, 0.0]])
    worst = 0.0
    for r in np.linspace(0.0, 0.9, 10):
        for phi in np.linspace(0.0, 2 * np.pi, 12, endpoint=False):
            z = r * np.array([np.cos(phi), np.sin(phi)])
            got = cont.continuum_rhs(z, A, K)
            expected = A @ z + 0.5 * K * (1.0 - r * r) * z
            worst = max(worst, float(np.max(np.abs(got - expected))))
    check("criterion 10 planar continuum reduction", worst <= 1e-12,
          f"max gap to the planar closed form = {worst:.3e} on the grid (tol 1e-12)")


# ---------------------------------------------------------------------------
# 11. empirical continuum shadowing


def test_criterion_11_continuum_shadowing():
    K = 1.0
    z0 = np.array([0.3, -0.1, 0.2])
    x0 = cont.sample_pushforward(z0, 10**4, seed=1100)
    traj = cont.integrate_continuum(cont.ContinuumState(z0, K, None), 0.01, 5.0, stride=25)
    times, zs = traj.times, traj.states
    recs = dyn.integrate_full(x0, None, dyn.mean_field_weights(len(x0), K), 0.01, 5.0, stride=25)
    worst = 0.0
    for (t, z), (rec_t, rec_x) in zip(zip(times, zs), zip(recs.times, recs.states)):
        assert abs(t - rec_t) < 1e-12
        centroid = K * rec_x.mean(axis=0)
        worst = max(worst, float(np.linalg.norm(
            centroid - cont.order_parameter_closed_form(z, K))))
    check("criterion 11 continuum shadowing", worst <= 2e-2,
          f"max centroid deviation = {worst:.3e} for N = 1e4 over t in [0, 5] (tol 2e-2)")


# ---------------------------------------------------------------------------
# 12. saddle spectrum of the blow-up system


def test_criterion_12_saddle_spectrum():
    worst = 0.0
    for a1 in (0.1, 0.3, 0.45):
        n = 6
        weights = np.full(n, (1.0 - a1) / (n - 1))
        weights[0] = a1
        ctx = gr.PotentialContext(dyn.random_configuration(n, 3, 1200), weights)
        eigs = np.sort(np.linalg.eigvals(gr.semiscaled_jacobian(ctx, 0)).real)
        expected = np.sort(np.array([-(1.0 - 2.0 * a1), 1.0, 1.0]))
        worst = max(worst, float(np.max(np.abs(eigs - expected))))
    check("criterion 12 saddle spectrum", worst <= 1e-6,
          f"max eigenvalue gap = {worst:.3e} for a_1 in {{0.1, 0.3, 0.45}} (tol 1e-6)")


# ---------------------------------------------------------------------------
# 13. complex case


def test_criterion_13_complex_case():
    rng = rng_from(1300, 0)
    # boost identities
    ident = 0.0
    for m in (1, 2, 3):
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w *= 0.6 / np.linalg.norm(w)
        x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x /= np.linalg.norm(x)
        ident = max(ident, float(np.max(np.abs(cb.complex_boost(np.zeros(m, complex), x) - x))))
        ident = max(ident, float(np.max(np.abs(cb.complex_boost(w, w)))))
        ident = max(ident, float(np.max(np.abs(cb.complex_boost(w, np.zeros(m, complex)) + w))))
        ident = max(ident, float(np.max(np.abs(
            cb.complex_boost(w, cb.complex_boost(-w, x)) - x))))

    # sphere drift over t = 10
    A = cb.random_antihermitian(2, rng, scale=0.5)
    Z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    Z *= 0.5 / np.linalg.norm(Z)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x /= np.linalg.norm(x)
    drift = 0.0
    for _ in range(1000):
        x = dyn.rk4_step(lambda v: cb.complex_flow_rhs(v, A, Z), x, 0.01)
        drift = max(drift, abs(float(np.linalg.norm(x)) - 1.0))

    # single-variable equivalence with the planar real model over t = 10
    n, omega, hstep = 6, 0.9, 1e-3
    weights = rng.random(n)
    weights /= weights.sum()
    theta0 = rng.uniform(0.0, 2.0 * np.pi, n)
    xc = np.exp(1j * theta0)[:, None]
    xr = np.column_stack([np.cos(theta0), np.sin(theta0)])
    A_c = np.array([[1j * omega]])
    A_r = np.array([[0.0, -omega], [omega, 0.0]])
    spec = weights
    for _ in range(int(round(10.0 / hstep))):
        xc = dyn.rk4_step(lambda v: cb.complex_flow_rhs(v, A_c, 0.5 * (weights @ v)), xc, hstep)
        xr = dyn.rk4_step(lambda v: dyn.full_rhs(v, A_r, spec), xr, hstep)
    equiv = float(np.max(np.abs(np.column_stack([xc[:, 0].real, xc[:, 0].imag]) - xr)))

    # genuine divergence for two complex dimensions
    residual = min(cb.divergence_from_real(2, seed=s).residual for s in range(3))

    check("criterion 13 complex case",
          ident <= 1e-12 and drift <= 1e-9 and equiv <= 1e-10 and residual > 1e-6,
          f"boost identities = {ident:.2e} (tol 1e-12), drift = {drift:.2e} (tol 1e-9), "
          f"m=1 equivalence = {equiv:.2e} (tol 1e-10), m=2 residual = {residual:.3f} (> 1e-6)")


# ---------------------------------------------------------------------------
# 14. determinism


def test_criterion_14_determinism(tmp_path):
    configs = [
        {"d": 3, "n": 50, "mode": "full",
         "rotation": {"kind": "random", "scale": 0.5},
         "h": 0.01, "t_end": 5.0, "stride": 10, "seed": 1400},
        {"d": 3, "n": 10, "mode": "reduced_wzeta",
         "rotation": {"kind": "random", "scale": 0.5},
         "h": 0.01, "t_end": 5.0, "stride": 10, "seed": 1401},
        {"d": 4, "n": 10, "mode": "continuum", "coupling": 1.0,
         "h": 0.01, "t_end": 5.0, "stride": 10, "seed": 1402},
    ]
    identical = True
    for i, data in enumerate(configs):
        blobs = []
        for run in range(2):
            out = tmp_path / f"{i}_{run}.jsonl"
            cfg = h.config_from_dict({**data, "out": str(out)})
            h.run_experiment(cfg, quiet=True)
            blobs.append(out.read_bytes())
        identical &= blobs[0] == blobs[1]
    check("criterion 14 determinism", identical,
          "re-runs with identical configuration and seed are byte-identical "
          f"across {len(configs)} modes")
