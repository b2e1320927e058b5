"""Experiment harness: validated configuration, dispatch to the integrators,
figure presets, full-versus-reduced comparison, and line-delimited trajectory
serialization.

Output files are deterministic byte-for-byte for a fixed configuration and
seed: every random stream is keyed by the seed, floats are serialized with 17
significant digits (lossless for doubles), and wall-clock times never enter
the file.
"""
from __future__ import annotations

import errno
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .continuum import ContinuumState, integrate_continuum, order_parameter_closed_form
from .dynamics import (
    IntegrationAbort,
    _gaussian_riemann_args,
    _majority_args,
    as_rotation_terms,
    as_weights,
    equal_weights,
    explicit_weights,
    gaussian_riemann_weights,
    integrate_full,
    majority_weights,
    mean_field_weights,
    min_pair_dot,
    random_configuration,
)
from .geometry import (LEFT, RIGHT, GeometryError, _array, _cross_ratio, _distinct,
                       _mobius_apply, _number, antisymmetric_from_upper, cross_ratio,
                       random_antisymmetric)
from .gradient import PotentialContext, _potential
from .reduced import ReducedState, initial_state, integrate_reduced, integrate_w
from .sampling import rng_from, uniform_ball

MODES = ("full", "reduced_w", "reduced_wzeta", "reduced_zzeta", "continuum")
WEIGHT_KINDS = ("equal", "explicit", "gaussian_riemann", "majority")
ROTATION_KINDS = ("zero", "random", "random_per_particle", "explicit")

MAX_DOUBLES = 2**27  # the most doubles one array of a run may hold: n * d, d * d, n * d * d

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ABORT = 3

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunSummary",
    "CompareReport",
    "PRESETS",
    "preset_config",
    "load_config",
    "config_to_dict",
    "run_experiment",
    "compare_full_reduced",
    "write_lines",
    "read_trajectory",
]


class ConfigError(ValueError):
    """A configuration field is unknown, mistyped, or violates an invariant."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    n: int
    mode: str
    weights: dict
    rotation: dict
    coupling: float | None
    h: float
    t_end: float
    stride: int
    seed: int
    projection: bool
    out: str | None = None


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}
_WEIGHT_KEYS = {"kind", "values", "normalized", "dominant", "index", "half_width"}
_ROTATION_KEYS = {"kind", "scale", "matrix"}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _checked(prefix, rule, *args, **kwargs):
    """One of the library's rules, geometry._number or geometry._array, on a
    configuration value; its error becomes a ConfigError that starts with prefix."""
    try:
        return rule(*args, **kwargs)
    except GeometryError as exc:
        raise ConfigError(f"{prefix} {exc}") from exc


def _subdocument(data, name, keys, kinds):
    """data's 'weights' or 'rotation' object, copied, its kind filled in (default kinds[0])."""
    doc = data.get(name, {})
    _require(isinstance(doc, dict), f"field '{name}' must be a key-value document, got {doc!r}")
    unknown = set(doc) - keys
    _require(not unknown, f"unknown {name} field(s): {', '.join(sorted(unknown))}")
    doc = {**doc, "kind": doc.get("kind", kinds[0])}
    _require(doc["kind"] in kinds, f"{name} 'kind' must be one of {kinds}, got {doc['kind']!r}")
    return doc


def config_from_dict(data):
    """Build and validate an ExperimentConfig from a parsed document.

    Every violation names the offending field.
    """
    _require(isinstance(data, dict), "configuration must be a key-value document")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, f"unknown configuration field(s): {', '.join(sorted(unknown))}")
    for key in ("d", "n", "mode", "h", "t_end", "seed"):
        _require(key in data, f"missing required field '{key}'")

    d = _checked("field", _number, data["d"], "d", 1, math.isqrt(MAX_DOUBLES) + 1, kinds=())
    n = _checked("field", _number, data["n"], "n", 0, MAX_DOUBLES // d + 1, kinds=())
    mode = data["mode"]
    _require(isinstance(mode, str) and mode in MODES,
             f"field 'mode' must be one of {MODES}, got {mode!r}")
    weights = _subdocument(data, "weights", _WEIGHT_KEYS, WEIGHT_KINDS)
    rotation = _subdocument(data, "rotation", _ROTATION_KEYS, ROTATION_KINDS)
    coupling = data.get("coupling")
    if coupling is not None:
        coupling = float(_checked("field", _number, coupling, "coupling"))
    h = float(_checked("field", _number, data["h"], "h"))
    t_end = float(_checked("field", _number, data["t_end"], "t_end"))
    stride = _checked("field", _number, data.get("stride", 1), "stride", 0, kinds=())
    seed = _checked("field", _number, data["seed"], "seed", -1, kinds=())
    projection = data.get("projection", True)
    _require(isinstance(projection, bool), "field 'projection' must be true or false")
    out = data.get("out")
    _require(out is None or isinstance(out, str) and out != "",
             "field 'out' must be a nonempty string path")

    _require(t_end == 0.0 or h != 0.0, "field 'h' must be nonzero unless t_end is 0")
    if t_end != 0.0:
        h = -abs(h) if t_end < 0.0 else abs(h)  # sign of h follows t_end

    cfg = ExperimentConfig(d, n, mode, weights, rotation, coupling, h, t_end,
                           stride, seed, projection, out)
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg):
    wkind = cfg.weights["kind"]
    if cfg.coupling is not None:
        _require(wkind == "equal",
                 "'coupling' (mean-field) and non-default weights are mutually exclusive")
    try:  # the scalar rules of each kind; equal and mean-field ones take only n and coupling
        if wkind == "explicit":  # built from the values the document holds
            resolve_weights(cfg)
        elif wkind == "gaussian_riemann":
            _gaussian_riemann_args(cfg.n, cfg.weights.get("half_width", 3.0))
        elif wkind == "majority":
            _majority_args(cfg.n, cfg.weights.get("dominant", 0.6), cfg.weights.get("index", 0))
    except GeometryError as exc:  # only the weight checks' own messages say "weights"
        field = "'values' invalid: " if "weights" in str(exc) else ""
        raise ConfigError(f"{wkind} weights {field}{exc}") from exc
    if cfg.rotation["kind"] == "explicit":
        _require(cfg.rotation.get("matrix") is not None, "explicit rotation requires a 'matrix'")
        arr = _checked("rotation", _array, cfg.rotation.get("matrix"), "matrix", (cfg.d, cfg.d))
        _require(float(np.max(np.abs(arr + arr.T))) <= 1e-12,
                 "rotation 'matrix' must be antisymmetric")
    if cfg.rotation["kind"] in ("random", "random_per_particle"):
        scale = _checked("rotation", _number, cfg.rotation.get("scale", 1.0), "scale")
        _require(scale >= 0.0, "rotation 'scale' must be a nonnegative number")
        per_particle = cfg.rotation["kind"] == "random_per_particle"
        _require(not per_particle or cfg.n * cfg.d * cfg.d <= MAX_DOUBLES,
                 f"rotation 'random_per_particle' needs n * d * d <= {MAX_DOUBLES} doubles, "
                 f"got n = {cfg.n}, d = {cfg.d}")
        _require(math.isfinite(scale * _largest_draw(cfg, per_particle)),
                 f"rotation 'scale' {scale:g} makes non-finite generator entries")
    if cfg.mode.startswith("reduced") or cfg.mode == "continuum":
        _require(cfg.rotation["kind"] != "random_per_particle",
                 f"mode '{cfg.mode}' requires one shared rotation term")
        _require(cfg.n >= 3, f"mode '{cfg.mode}' needs n >= 3 base points")
    if cfg.mode == "reduced_w":
        _require(cfg.coupling is None,
                 "mode 'reduced_w' needs a linear weighted order parameter, not 'coupling'")
    if cfg.mode == "continuum":
        _require(cfg.coupling is not None, "mode 'continuum' requires 'coupling'")


def _largest_draw(cfg, per_particle):
    """The largest magnitude among the standard normal entries that
    resolve_rotation scales, drawn again from the same stream in blocks, so
    the check holds no rotation term.  scale * it overflows exactly when
    some scaled entry does."""
    rng = rng_from(cfg.seed, 2 if per_particle else 1)
    left, top = cfg.d * cfg.d * (cfg.n if per_particle else 1), 0.0
    while left:
        block = rng.standard_normal(min(left, 2**16))
        top, left = max(top, float(np.max(np.abs(block)))), left - block.size
    return top


def config_to_dict(cfg):
    """Fully resolved configuration for file headers: every field but 'out',
    in field order, with the weights and rotation keys sorted."""
    header = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "out"}
    return {k: dict(sorted(v.items())) if isinstance(v, dict) else v for k, v in header.items()}


def load_config(path, seed=None):
    """Parse and validate a JSON configuration file; a seed given here
    replaces the file's before validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not JSON, not UTF-8, or an integer too long to read
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if seed is not None and isinstance(data, dict):
        data = {**data, "seed": seed}
    return config_from_dict(data)


PRESETS = {
    # 100 equally weighted particles on S^2, no rotation term, forward time.
    "fig1": {
        "d": 3, "n": 100, "mode": "full",
        "weights": {"kind": "equal"},
        "rotation": {"kind": "zero"},
        "h": 0.01, "t_end": 40.0, "stride": 10, "seed": 101, "projection": True,
    },
    # Normal-density Riemann-sum weights; heavier particles steer the sync point.
    "fig2": {
        "d": 3, "n": 100, "mode": "full",
        "weights": {"kind": "gaussian_riemann"},
        "rotation": {"kind": "zero"},
        "h": 0.01, "t_end": 40.0, "stride": 10, "seed": 202, "projection": True,
    },
    # One dominant particle (weight 0.6), run backward to the antipodal state.
    "fig3": {
        "d": 3, "n": 100, "mode": "full",
        "weights": {"kind": "majority", "dominant": 0.6},
        "rotation": {"kind": "zero"},
        "h": 0.01, "t_end": -40.0, "stride": 10, "seed": 303, "projection": True,
    },
}


def preset_config(name, seed=None, out=None):
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    data = PRESETS[name] if seed is None else {**PRESETS[name], "seed": seed}
    cfg = config_from_dict(data)
    if out is not None:
        cfg = replace(cfg, out=str(out))
    return cfg


# ---------------------------------------------------------------------------
# resolution of runtime objects


def resolve_weights(cfg):
    """The coupling weights of cfg: K/n each when 'coupling' K is set."""
    if cfg.coupling is not None:
        return mean_field_weights(cfg.n, cfg.coupling)
    kind = cfg.weights["kind"]
    if kind == "equal":
        return equal_weights(cfg.n)
    if kind == "explicit":
        return explicit_weights(as_weights(cfg.weights.get("values"), cfg.n),
                                normalized=cfg.weights.get("normalized", True))
    if kind == "gaussian_riemann":
        return gaussian_riemann_weights(cfg.n, cfg.weights.get("half_width", 3.0))
    return majority_weights(cfg.n, cfg.weights.get("dominant", 0.6),
                            cfg.weights.get("index", 0))


def resolve_rotation(cfg):
    kind = cfg.rotation["kind"]
    if kind == "zero":
        return None
    if kind == "explicit":
        return antisymmetric_from_upper(cfg.rotation["matrix"])
    scale = cfg.rotation.get("scale", 1.0)
    if kind == "random":
        return random_antisymmetric(cfg.d, rng_from(cfg.seed, 1), scale)
    rng = rng_from(cfg.seed, 2)
    return np.stack([random_antisymmetric(cfg.d, rng, scale) for _ in range(cfg.n)])


def initial_configuration(cfg):
    return random_configuration(cfg.n, cfg.d, cfg.seed, stream=0)


def initial_continuum_z(cfg):
    return uniform_ball(cfg.d, rng_from(cfg.seed, 5), radius=0.5)


# ---------------------------------------------------------------------------
# serialization


def _format_scalar(v):
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if not np.isfinite(v):
            raise ConfigError("non-finite value cannot be serialized")
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _array_template(shape):
    """The "%.17g" template nested to shape, in the list syntax of dumps_record."""
    template = "%.17g"
    for n in reversed(shape):
        template = "[" + ", ".join([template] * n) + "]"
    return template


def dumps_record(obj):
    """Serialize to JSON with floats at 17 significant digits, keys in
    insertion order.

    A nonempty float array is checked once and printed with one % operation;
    "%.17g" % v and format(v, ".17g") are the same double formatter, so the
    bytes equal the per-scalar path.
    """
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps_record(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.size:
            if not np.isfinite(obj).all():
                raise ConfigError("non-finite value cannot be serialized")
            return _array_template(obj.shape) % tuple(obj.ravel().tolist())
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_record(v) for v in obj) + "]"
    return _format_scalar(obj)


def write_lines(path, dicts):
    """Write one self-describing JSON object per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in dicts:
            fh.write(dumps_record(d))
            fh.write("\n")


def read_trajectory(path):
    """Read a trajectory file back: (header dict, list of record dicts)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or lines[0].get("type") != "header":
        raise ConfigError(f"{path} does not start with a trajectory header")
    return lines[0], lines[1:]


def _header(cfg):
    return {"type": "header", "version": __version__, "config": config_to_dict(cfg)}


def _record(t, state, znorm, min_pair_dot, phi, drift):
    return {
        "type": "record",
        "t": float(t),
        "state": state,
        "Znorm": None if znorm is None else float(znorm),
        "min_pair_dot": None if min_pair_dot is None else float(min_pair_dot),
        "phi": None if phi is None else float(phi),
        "drift": None if drift is None else float(drift),
    }


# ---------------------------------------------------------------------------
# experiment dispatch


@dataclass
class RunSummary:
    """steps is round(t / h) at the last record.  stop_reason is the
    integrator's Trajectory.stop: "end", "boundary" (a clean early stop at
    the ball boundary), or the abort "drift", "nonfinite" or "unstable" (an
    RK stage thrown out of the ball from far inside it, or a step off the
    sphere, or in reduced modes a rotation step off SO(d), by more than
    NORM_DRIFT_LIMIT), which also sets aborted.  phases holds the seconds
    spent in "setup", "integrate", "diagnostics" (the record builders) and
    "serialize" (writing the file); they sum to at most wall_time."""

    mode: str
    steps: int
    records: int
    final: dict
    wall_time: float
    out: str | None
    aborted: bool = False
    stop_reason: str = "end"
    phases: dict = field(default_factory=dict)


def _potential_context(cfg, base, a):
    if cfg.coupling is not None:
        return None
    try:
        return PotentialContext(base, a, allow_majority=True)
    except (GeometryError, ValueError):
        return None


def _norm(v):
    """|v| as np.linalg.norm gives it, or by math.hypot where the squares
    np.linalg.norm sums overflowed (|v| above about 1e154)."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    return n if np.isfinite(n) else math.hypot(*v)


# Line builders: Trajectory, initial state, cfg, weights -> record rows
# (t, state, Znorm, min_pair_dot, phi, drift).  They read the integrator's own
# states unchecked: the run's inputs were checked once, at entry.


def _full_rows(traj, x0, cfg, a):
    return [(t, x, _norm(a @ x), min_pair_dot(x), None, drift)
            for t, x, drift in zip(traj.times, traj.states, traj.info)]


def _orbit_rows(traj, state0, cfg, a):
    # reduced_w records w alone (the rotation does not move these metrics), the
    # reduced forms the form's boost, zeta and its defect; phi is w's, so LEFT only
    boost_only = not isinstance(state0, ReducedState)
    base, form = (state0, LEFT) if boost_only else (state0.base, state0.form)
    key, ctx = ("w", _potential_context(cfg, base, a)) if form == LEFT else ("z", None)
    rows = []
    for t, s, residual in zip(traj.times, traj.states, traj.info):
        boost, zeta = (s, None) if boost_only else (s[0], s[1:])
        x = _mobius_apply(zeta, boost, form, base)
        state = {key: boost} if boost_only else {key: boost, "zeta": zeta}
        phi = None if ctx is None else _potential(boost, ctx)
        drift = None if boost_only else residual
        rows.append((t, state, _norm(a @ x), min_pair_dot(x), phi, drift))
    return rows


def _continuum_rows(traj, state0, cfg, a):
    return [(t, {"z": z}, _norm(order_parameter_closed_form(z, cfg.coupling)), None, None, None)
            for t, z in zip(traj.times, traj.states)]


def _reduced_mode(form):
    """Mode-table entry of a reduced run in the given form, from boost 0 and zeta = I."""
    return (
        lambda cfg: ReducedState(np.zeros(cfg.d), np.eye(cfg.d), initial_configuration(cfg), form),
        lambda state0, cfg, a, A: integrate_reduced(state0, A, a, cfg.h, cfg.t_end, cfg.stride),
        _orbit_rows,
    )


# mode: (initial state of cfg, integrator of (state0, cfg, weights, rotation), line builder)
_MODE_TABLE = {
    "full": (
        initial_configuration,
        lambda x0, cfg, a, A: integrate_full(x0, A, a, cfg.h, cfg.t_end,
                                             projection=cfg.projection, stride=cfg.stride),
        _full_rows,
    ),
    "reduced_w": (
        initial_configuration,
        lambda base, cfg, a, A: integrate_w(np.zeros(cfg.d), base, a, cfg.h, cfg.t_end, cfg.stride),
        _orbit_rows,
    ),
    "reduced_wzeta": _reduced_mode(LEFT),
    "reduced_zzeta": _reduced_mode(RIGHT),
    "continuum": (
        initial_continuum_z,
        lambda z0, cfg, a, A: integrate_continuum(ContinuumState(z0, cfg.coupling, A),
                                                  cfg.h, cfg.t_end, cfg.stride),
        _continuum_rows,
    ),
}


def run_experiment(cfg, quiet=False):
    """Run one experiment and (optionally) write its trajectory file.

    Dispatches on cfg.mode, is deterministic given cfg.seed, and returns a
    RunSummary.  A run that stops early, cleanly at the ball boundary or on
    an abort, still writes its records up to the last accepted state.
    """
    if cfg.out is not None:  # open(cfg.out, "w")'s error, before the run and making no file
        if cfg.out == "":  # a flag bypasses config_from_dict's check
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), cfg.out)
        try:  # "parent/" fails unless the parent is a directory
            os.stat(os.path.join(os.path.dirname(cfg.out) or ".", ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, cfg.out) from None
        if os.path.isdir(cfg.out):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), cfg.out)
    marks = [time.perf_counter()]
    initial, integrate, rows = _MODE_TABLE[cfg.mode]
    state0, a, A = initial(cfg), resolve_weights(cfg), resolve_rotation(cfg)
    marks.append(time.perf_counter())
    try:
        traj, aborted = integrate(state0, cfg, a, A), False
    except IntegrationAbort as exc:
        traj, aborted = exc.trajectory, True
    marks.append(time.perf_counter())
    lines = [_header(cfg)] + [_record(*row) for row in rows(traj, state0, cfg, a)]
    last_t = lines[-1]["t"]
    steps = round(last_t / cfg.h) if last_t else 0

    marks.append(time.perf_counter())
    if cfg.out is not None:
        write_lines(cfg.out, lines)
    marks.append(time.perf_counter())
    phases = {name: b - a for name, a, b in
              zip(("setup", "integrate", "diagnostics", "serialize"), marks, marks[1:])}
    final = {k: v for k, v in lines[-1].items() if k not in ("type", "state")}
    summary = RunSummary(cfg.mode, steps, len(lines) - 1, final, marks[-1] - marks[0], cfg.out,
                         aborted, traj.stop, phases)
    if not quiet:
        print(f"mode={summary.mode} steps={summary.steps} records={summary.records} "
              f"wall={summary.wall_time:.3f}s aborted={summary.aborted} "
              f"stop_reason={summary.stop_reason}")
        print("phases: " + " ".join(f"{k}={v:.3f}s" for k, v in phases.items()))
        print("final: " + ", ".join(f"{k}={v}" for k, v in final.items()))
        if cfg.out:
            print(f"trajectory written to {cfg.out}")
    return summary


# ---------------------------------------------------------------------------
# full-versus-reduced comparison


@dataclass
class CompareReport:
    """Certificate that the reduced integration reproduces the full one.

    max_deviation is the sup-norm pointwise gap between the full trajectory
    and the reconstruction from reduced coordinates, taken over the records
    with equal t in both runs: a reduced run that stops early at the ball
    boundary is compared up to its stop and no further.  cross_ratio_drift
    tracks conserved quantities along the full run, over the records where
    the four points of a tuple are still distinct (a synchronized cluster
    has no cross-ratio).  The wall times and state-space dimensions are
    informational.
    """

    max_deviation: float
    cross_ratio_drift: float
    wall_full: float
    wall_reduced: float
    full_dim: int
    reduced_dim: int

    def __str__(self):
        return (
            f"max deviation        {self.max_deviation:.3e}\n"
            f"cross-ratio drift    {self.cross_ratio_drift:.3e}\n"
            f"wall time full       {self.wall_full:.3f} s  (dimension {self.full_dim})\n"
            f"wall time reduced    {self.wall_reduced:.3f} s  (dimension {self.reduced_dim})"
        )


def _cross_ratio_tuples(n, seed, count=5):
    if n < 4:
        return []
    rng = rng_from(seed, 9)
    return [tuple(sorted(rng.choice(n, size=4, replace=False))) for _ in range(count)]


def compare_full_reduced(cfg, quiet=False):
    """Run the full and the reduced integrations from the same initial state
    and report their pointwise deviation, cross-ratio drift, and wall times.

    The rotation term must be one shared term (dynamics.as_rotation_terms
    without a particle count), checked before either run starts."""
    a = resolve_weights(cfg)
    rotation = as_rotation_terms(resolve_rotation(cfg), cfg.d)
    x0 = initial_configuration(cfg)
    state0 = initial_state(x0)  # checked here, so each wall time is its integrator's alone

    t0 = time.perf_counter()
    full = integrate_full(x0, rotation, a, cfg.h, cfg.t_end,
                          projection=cfg.projection, stride=cfg.stride)
    wall_full = time.perf_counter() - t0

    t0 = time.perf_counter()
    reduced = integrate_reduced(state0, rotation, a, cfg.h, cfg.t_end, cfg.stride)
    wall_reduced = time.perf_counter() - t0

    reduced_at = dict(zip(reduced.times, reduced.states))
    deviation = 0.0
    for t, x in zip(full.times, full.states):
        s = reduced_at.get(t)
        if s is not None:
            x_rec = _mobius_apply(s[1:], s[0], LEFT, state0.base)
            deviation = max(deviation, float(np.max(np.abs(x - x_rec))))

    drift = 0.0
    tuples = _cross_ratio_tuples(cfg.n, cfg.seed)
    if tuples:
        reference = [cross_ratio(*full.states[0][list(tpl)]) for tpl in tuples]
        # later records are not revalidated: without projection they drift
        # off the sphere, which is part of what this measures
        for x in full.states[1:]:
            for ref, tpl in zip(reference, tuples):
                pts = x[list(tpl)]
                if _distinct(pts):
                    drift = max(drift, abs(_cross_ratio(*pts) - ref))

    report = CompareReport(
        max_deviation=deviation,
        cross_ratio_drift=drift,
        wall_full=wall_full,
        wall_reduced=wall_reduced,
        full_dim=cfg.n * (cfg.d - 1),
        reduced_dim=cfg.d * (cfg.d + 1) // 2,
    )
    if not quiet:
        print(report)
    return report
