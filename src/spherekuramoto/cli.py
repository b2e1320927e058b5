"""Command-line interface.

Verbs: simulate, compare, fixedpoint, potential-check, continuum-check, and
preset (fig1 | fig2 | fig3).  Exit codes: 0 success (a clean stop at the
ball boundary included), 1 a numerical check failed, 2 validation error,
3 integrator abort (norm drift, a non-finite state or an unstable step: an
RK stage thrown out of the ball, or a step off the sphere, or in reduced
modes a rotation step off SO(d), by more than 1e-3).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .continuum import order_parameter_closed_form, poisson_integral_mc
from .dynamics import IntegrationAbort
from .geometry import GeometryError, _number
from .gradient import (
    GradientError,
    PotentialContext,
    find_fixed_point,
    flow_rhs,
    hyperbolic_grad,
    potential,
    potential_grad,
)
from .harness import (
    EXIT_ABORT,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    compare_full_reduced,
    initial_configuration,
    load_config,
    preset_config,
    resolve_weights,
    run_experiment,
)
from .reduced import integrate_w
from .sampling import rng_from, uniform_ball

EXIT_CHECK_FAILED = 1


def _common_flags(parser):
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=str, default=None, help="trajectory output path")
    parser.add_argument("--quiet", action="store_true", help="suppress summaries")


def _load(args):
    cfg = load_config(args.config, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    return cfg


def _cmd_simulate(args):
    summary = run_experiment(_load(args), quiet=args.quiet)
    return EXIT_ABORT if summary.aborted else EXIT_OK


def _cmd_preset(args):
    cfg = preset_config(args.name, seed=args.seed, out=args.out)
    summary = run_experiment(cfg, quiet=args.quiet)
    return EXIT_ABORT if summary.aborted else EXIT_OK


def _cmd_compare(args):
    compare_full_reduced(_load(args), quiet=args.quiet)
    return EXIT_OK


def _potential_context(args):
    """The loaded config and the PotentialContext of its base points and weights."""
    cfg = _load(args)
    if cfg.coupling is not None:
        raise ConfigError(f"{args.command} requires a linear weighted order parameter")
    return cfg, PotentialContext(initial_configuration(cfg), resolve_weights(cfg))


def _cmd_fixedpoint(args):
    _number(args.seeds, "--seeds", 0, kinds=())
    cfg, ctx = _potential_context(args)
    reports = [find_fixed_point(ctx, seed=cfg.seed + k) for k in range(args.seeds)]
    w_stars = np.stack([r.w_star for r in reports])
    spread = float(np.max(np.linalg.norm(w_stars - w_stars[0], axis=1)))
    rep = reports[0]
    # |Z| in the frame the solver stopped in, not recomputed through another boost
    residual = float(np.linalg.norm(ctx.weights @ rep.base_recentred))
    if not args.quiet:
        print(f"w* = {rep.w_star.tolist()}")
        print(f"|Z(M_w*(p))| = {residual:.3e}")
        print(f"eigenvalues of T: {rep.mu.tolist()}")
        print(f"flow eigenvalues 1 - mu: {rep.lam.tolist()}  (all positive: repelling)")
        print(f"|T| = {rep.T_norm:.6f}")
        print(f"spread across {args.seeds} seeds: {spread:.3e}")
    return EXIT_OK if spread <= 1e-7 and rep.T_norm < 1.0 else EXIT_CHECK_FAILED


def _cmd_potential_check(args):
    _number(args.samples, "--samples", 0, kinds=())
    cfg, ctx = _potential_context(args)
    rng = rng_from(cfg.seed, 21)
    ok = True

    worst = 0.0
    for _ in range(args.samples):
        w = uniform_ball(ctx.d, rng, radius=0.9)
        gap = np.linalg.norm(hyperbolic_grad(potential_grad(w, ctx), w) + flow_rhs(w, ctx))
        worst = max(worst, float(gap))
    ok &= worst <= 1e-10
    _report("gradient identity (closed form)", worst, 1e-10, args.quiet)

    fd_worst = 0.0
    step = 1e-5
    for _ in range(min(args.samples, 20)):
        w = uniform_ball(ctx.d, rng, radius=0.8)
        grad = np.empty(ctx.d)
        for j in range(ctx.d):
            e = np.zeros(ctx.d)
            e[j] = step
            grad[j] = (potential(w + e, ctx) - potential(w - e, ctx)) / (2 * step)
        gap = np.linalg.norm(hyperbolic_grad(grad, w) + flow_rhs(w, ctx))
        fd_worst = max(fd_worst, float(gap))
    ok &= fd_worst <= 1e-6
    _report("gradient identity (central differences)", fd_worst, 1e-6, args.quiet)

    w0 = uniform_ball(ctx.d, rng, radius=0.5)
    traj = integrate_w(w0, ctx.base, ctx.weights, 0.01, 10.0)
    values = [potential(w, ctx) for w in traj.states]
    slack = max(
        (values[i + 1] - values[i]) - (1e-12 * abs(values[i]) + 1e-14)
        for i in range(len(values) - 1)
    )
    ok &= slack <= 0.0
    _report("potential monotone decrease", max(slack, 0.0), 0.0, args.quiet)

    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _report(label, value, tol, quiet):
    if not quiet:
        status = "ok" if value <= tol else "FAIL"
        print(f"{status:4s} {label}: {value:.3e} (tolerance {tol:g})")


def _cmd_continuum_check(args):
    _number(args.d, "--d", 1, kinds=())
    _number(args.seed, "--seed", -1, kinds=())
    _number(args.samples, "--samples", 0, kinds=())
    # the closed form vanishes at the origin, where a relative error means nothing
    _number(abs(args.radius), "|--radius|", 0.0, 1.0)
    _number(args.coupling, "--coupling")
    _number(args.tol, "--tol", 0.0)
    z = np.zeros(args.d)
    z[0] = args.radius
    # both sides are linear in the coupling: compare them at coupling 1, so
    # that no coupling, however large, overflows the error
    closed = order_parameter_closed_form(z)
    mc = poisson_integral_mc(lambda x: x, z, args.samples, args.seed)
    rel = float(np.linalg.norm(closed - mc.value) / max(np.linalg.norm(closed), 1e-300))
    if not args.quiet:
        k = args.coupling
        print(f"closed form  {(k * closed).tolist()}")
        print(f"monte carlo  {(k * np.asarray(mc.value)).tolist()}  "
              f"(stderr {abs(k) * np.max(mc.stderr):.2e})")
        print(f"relative error {rel:.3e} (tolerance {args.tol:g})")
    return EXIT_OK if rel <= args.tol else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kuramoto-sphere",
        description="Simulate Kuramoto dynamics on spheres and verify their geometric structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one experiment from a config file")
    p.add_argument("--config", required=True)
    _common_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("preset", help="run a built-in experiment preset")
    p.add_argument("name", choices=("fig1", "fig2", "fig3"))
    _common_flags(p)
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("compare", help="full versus reduced integration report")
    p.add_argument("--config", required=True)
    _common_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fixedpoint", help="locate and linearize the interior fixed point")
    p.add_argument("--config", required=True)
    p.add_argument("--seeds", type=int, default=5, help="number of search seeds")
    _common_flags(p)
    p.set_defaults(func=_cmd_fixedpoint)

    p = sub.add_parser("potential-check", help="verify the gradient identities numerically")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, default=100)
    _common_flags(p)
    p.set_defaults(func=_cmd_potential_check)

    p = sub.add_parser("continuum-check", help="closed-form order parameter versus Monte Carlo")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--tol", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_continuum_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GeometryError, GradientError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except IntegrationAbort as exc:
        print(f"integrator abort: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    raise SystemExit(main())
