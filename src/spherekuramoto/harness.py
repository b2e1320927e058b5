"""Experiment harness: validated configuration, dispatch to the integrators,
figure presets, full-versus-reduced comparison, and line-delimited trajectory
serialization.

Output files are deterministic byte-for-byte for a fixed configuration and
seed: every random stream is keyed by the seed, floats are serialized with 17
significant digits (lossless for doubles), and wall-clock times never enter
the file.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from . import __version__
from .continuum import ContinuumState, integrate_continuum, order_parameter_closed_form
from .dynamics import (
    IntegrationAbort,
    equal_weights,
    explicit_weights,
    gaussian_riemann_weights,
    integrate_full,
    majority_weights,
    mean_field_weights,
    min_pair_dot,
    order_parameter,
    random_configuration,
    step_count,
)
from .geometry import (DISTINCT_TOL, LEFT, RIGHT, GeometryError, MobiusMap, _cross_ratio,
                       antisymmetric_from_upper, boost_apply, cross_ratio, mobius_apply,
                       random_antisymmetric)
from .gradient import PotentialContext, potential
from .reduced import ReducedState, initial_state, integrate_reduced, integrate_w
from .sampling import rng_from, uniform_ball

MODES = ("full", "reduced_w", "reduced_wzeta", "reduced_zzeta", "continuum")
WEIGHT_KINDS = ("equal", "explicit", "gaussian_riemann", "majority")
ROTATION_KINDS = ("zero", "random", "random_per_particle", "explicit")

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


_TOP_KEYS = {
    "d", "n", "mode", "weights", "rotation", "coupling", "h", "t_end",
    "stride", "seed", "projection", "out",
}
_WEIGHT_KEYS = {"kind", "values", "normalized", "dominant", "index", "half_width"}
_ROTATION_KEYS = {"kind", "scale", "matrix"}
_FLOAT_MAX = float(np.finfo(float).max)


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _as_int(value, label):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return value


def _as_float(value, label):
    # the comparison is exact for ints and false for NaN
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _FLOAT_MAX:
        raise ConfigError(f"{label} must be a finite number, got {value!r}")
    return float(value)


def config_from_dict(data):
    """Build and validate an ExperimentConfig from a parsed document.

    Every violation names the offending field.
    """
    _require(isinstance(data, dict), "configuration must be a key-value document")
    unknown = set(data) - _TOP_KEYS
    _require(not unknown, f"unknown configuration field(s): {', '.join(sorted(unknown))}")
    for key in ("d", "n", "mode", "h", "t_end", "seed"):
        _require(key in data, f"missing required field '{key}'")

    d = _as_int(data["d"], "field 'd'")
    n = _as_int(data["n"], "field 'n'")
    mode = data["mode"]
    _require(isinstance(mode, str) and mode in MODES,
             f"field 'mode' must be one of {MODES}, got {mode!r}")
    _require(d >= 2, f"field 'd' must be >= 2, got {d}")
    _require(n >= 1, f"field 'n' must be >= 1, got {n}")

    weights = dict(data.get("weights", {"kind": "equal"}))
    unknown = set(weights) - _WEIGHT_KEYS
    _require(not unknown, f"unknown weights field(s): {', '.join(sorted(unknown))}")
    wkind = weights.get("kind", "equal")
    _require(wkind in WEIGHT_KINDS,
             f"weights 'kind' must be one of {WEIGHT_KINDS}, got {wkind!r}")
    weights["kind"] = wkind

    rotation = dict(data.get("rotation", {"kind": "zero"}))
    unknown = set(rotation) - _ROTATION_KEYS
    _require(not unknown, f"unknown rotation field(s): {', '.join(sorted(unknown))}")
    rkind = rotation.get("kind", "zero")
    _require(rkind in ROTATION_KINDS,
             f"rotation 'kind' must be one of {ROTATION_KINDS}, got {rkind!r}")
    rotation["kind"] = rkind

    coupling = data.get("coupling")
    if coupling is not None:
        coupling = _as_float(coupling, "field 'coupling'")

    h = _as_float(data["h"], "field 'h'")
    t_end = _as_float(data["t_end"], "field 't_end'")
    stride = _as_int(data.get("stride", 1), "field 'stride'")
    seed = _as_int(data["seed"], "field 'seed'")
    projection = data.get("projection", True)
    _require(isinstance(projection, bool), "field 'projection' must be true or false")
    out = data.get("out")
    _require(out is None or isinstance(out, str), "field 'out' must be a string path")

    _require(stride >= 1, f"field 'stride' must be >= 1, got {stride}")
    _require(seed >= 0, f"field 'seed' must be >= 0, got {seed}")
    _require(t_end == 0.0 or h != 0.0, "field 'h' must be nonzero unless t_end is 0")
    if t_end != 0.0:
        h = -abs(h) if t_end < 0.0 else abs(h)  # sign of h follows t_end

    cfg = ExperimentConfig(d, n, mode, weights, rotation, coupling, h, t_end,
                           stride, seed, projection, out)
    _validate_semantics(cfg)
    return cfg


def _validate_semantics(cfg):
    wkind = cfg.weights["kind"]
    if wkind == "explicit":
        _require("values" in cfg.weights, "explicit weights require a 'values' list")
        values = cfg.weights["values"]
        _require(isinstance(values, (list, tuple)) and len(values) == cfg.n,
                 f"weights 'values' must list exactly n = {cfg.n} numbers")
        normalized = cfg.weights.get("normalized", True)
        _require(isinstance(normalized, bool), "weights 'normalized' must be true or false")
        try:
            explicit_weights(values, normalized=normalized)
        except GeometryError as exc:
            raise ConfigError(f"weights 'values' invalid: {exc}") from exc
    if wkind == "gaussian_riemann":
        half_width = _as_float(cfg.weights.get("half_width", 3.0), "weights 'half_width'")
        _require(half_width > 0.0, "weights 'half_width' must be positive")
    if wkind == "majority":
        dominant = cfg.weights.get("dominant", 0.6)
        _require(isinstance(dominant, (int, float)) and 0.0 < dominant < 1.0,
                 "weights 'dominant' must lie in (0, 1)")
        index = _as_int(cfg.weights.get("index", 0), "weights 'index'")
        _require(0 <= index < cfg.n, f"weights 'index' must lie in [0, n = {cfg.n}), got {index}")
    if cfg.rotation["kind"] == "explicit":
        matrix = cfg.rotation.get("matrix")
        _require(matrix is not None, "explicit rotation requires a 'matrix'")
        try:
            arr = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"rotation 'matrix' must hold numbers: {exc}") from exc
        _require(arr.shape == (cfg.d, cfg.d),
                 f"rotation 'matrix' must be {cfg.d} x {cfg.d}")
        _require(float(np.max(np.abs(arr + arr.T))) <= 1e-12,
                 "rotation 'matrix' must be antisymmetric")
    if cfg.rotation["kind"] in ("random", "random_per_particle"):
        scale = _as_float(cfg.rotation.get("scale", 1.0), "rotation 'scale'")
        _require(scale >= 0.0, "rotation 'scale' must be a nonnegative number")
    if cfg.mode.startswith("reduced") or cfg.mode == "continuum":
        _require(cfg.rotation["kind"] != "random_per_particle",
                 f"mode '{cfg.mode}' requires one shared rotation term")
        _require(cfg.n >= 3, f"mode '{cfg.mode}' needs n >= 3 base points")
    if cfg.mode == "reduced_w":
        _require(cfg.coupling is None,
                 "mode 'reduced_w' needs a linear weighted order parameter, not 'coupling'")
    if cfg.mode == "continuum":
        _require(cfg.coupling is not None, "mode 'continuum' requires 'coupling'")
    if cfg.coupling is not None:
        _require(wkind == "equal",
                 "'coupling' (mean-field) and non-default weights are mutually exclusive")


def config_to_dict(cfg):
    """Fully resolved configuration in fixed field order (for file headers)."""
    return {
        "d": cfg.d,
        "n": cfg.n,
        "mode": cfg.mode,
        "weights": {k: cfg.weights[k] for k in sorted(cfg.weights)},
        "rotation": {k: cfg.rotation[k] for k in sorted(cfg.rotation)},
        "coupling": cfg.coupling,
        "h": cfg.h,
        "t_end": cfg.t_end,
        "stride": cfg.stride,
        "seed": cfg.seed,
        "projection": cfg.projection,
    }


def load_config(path):
    """Parse and validate a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
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
    cfg = config_from_dict(PRESETS[name])
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
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
        return explicit_weights(cfg.weights["values"],
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


def _try_potential(w, ctx):
    if ctx is None:
        return None
    try:
        return potential(w, ctx)
    except GeometryError:
        return None


# ---------------------------------------------------------------------------
# experiment dispatch


@dataclass
class RunSummary:
    """steps is round(t / h) at the last record.  stop_reason is "end",
    "boundary" (a clean early stop at the ball boundary), or the abort
    "drift", "nonfinite" or "unstable" (an RK stage thrown out of the ball
    from far inside it, or a step whose pre-projection defect exceeds
    NORM_DRIFT_LIMIT), which also sets aborted.  phases holds the
    seconds spent in "setup", "integrate", "diagnostics" (the record
    builders) and "serialize" (writing the file); they sum to at most
    wall_time."""

    mode: str
    steps: int
    records: int
    final: dict
    wall_time: float
    out: str | None
    aborted: bool = False
    stop_reason: str = "end"
    phases: dict = field(default_factory=dict)


def _potential_context(cfg, base):
    if cfg.coupling is not None:
        return None
    try:
        return PotentialContext(base, resolve_weights(cfg), allow_majority=True)
    except (GeometryError, ValueError):
        return None


# Line builders: integrator result, initial state, cfg -> record rows
# (t, state, Znorm, min_pair_dot, phi, drift).  The reduced builder
# reconstructs from the record arrays: the base was validated once, when the
# run's initial state was built.


def _full_rows(records, x0, cfg):
    return [(r.t, r.x, np.linalg.norm(r.Z), min_pair_dot(r.x), None, r.drift) for r in records]


def _w_rows(traj, base, cfg):
    a, ctx = resolve_weights(cfg), _potential_context(cfg, base)
    rows = []
    for t, w in zip(traj.times, traj.ws):
        x = boost_apply(w, base)  # rotation factor does not affect these metrics
        rows.append((t, {"w": w}, np.linalg.norm(order_parameter(x, a)), min_pair_dot(x),
                     _try_potential(w, ctx), None))
    return rows


def _reduced_rows(records, state0, cfg):
    # the state key names the form's boost; phi is the potential of w, so LEFT only
    form, base, a = state0.form, state0.base, resolve_weights(cfg)
    key, ctx = ("w", _potential_context(cfg, base)) if form == LEFT else ("z", None)
    rows = []
    for r in records:
        x = mobius_apply(MobiusMap(r.zeta, r.boost, form), base)
        rows.append((r.t, {key: r.boost, "zeta": r.zeta}, np.linalg.norm(order_parameter(x, a)),
                     min_pair_dot(x), _try_potential(r.boost, ctx), r.ortho_residual))
    return rows


def _continuum_rows(result, state0, cfg):
    times, zs, _ = result
    return [(t, {"z": z}, np.linalg.norm(order_parameter_closed_form(z, cfg.coupling)),
             None, None, None) for t, z in zip(times, zs)]


def _reduced_mode(form):
    """Mode-table entry of a reduced run in the given form, from boost 0 and zeta = I."""
    return (
        lambda cfg: ReducedState(np.zeros(cfg.d), np.eye(cfg.d), initial_configuration(cfg), form),
        lambda state0, cfg: integrate_reduced(state0, resolve_rotation(cfg), resolve_weights(cfg),
                                              cfg.h, cfg.t_end, cfg.stride),
        _reduced_rows,
    )


# mode: (initial state of cfg, integrator of (initial state, cfg), line builder)
_MODE_TABLE = {
    "full": (
        initial_configuration,
        lambda x0, cfg: integrate_full(x0, resolve_rotation(cfg), resolve_weights(cfg), cfg.h,
                                       cfg.t_end, projection=cfg.projection, stride=cfg.stride),
        _full_rows,
    ),
    "reduced_w": (
        initial_configuration,
        lambda base, cfg: integrate_w(np.zeros(cfg.d), base, resolve_weights(cfg),
                                      cfg.h, cfg.t_end, cfg.stride),
        _w_rows,
    ),
    "reduced_wzeta": _reduced_mode(LEFT),
    "reduced_zzeta": _reduced_mode(RIGHT),
    "continuum": (
        lambda cfg: ContinuumState(initial_continuum_z(cfg), cfg.coupling, resolve_rotation(cfg)),
        lambda state0, cfg: integrate_continuum(state0, cfg.h, cfg.t_end, cfg.stride),
        _continuum_rows,
    ),
}


def run_experiment(cfg, quiet=False):
    """Run one experiment and (optionally) write its trajectory file.

    Dispatches on cfg.mode, is deterministic given cfg.seed, and returns a
    RunSummary.  A run that stops early, cleanly at the ball boundary or on
    an abort, still writes its records up to the last accepted state.
    """
    marks = [time.perf_counter()]
    initial, integrate, rows = _MODE_TABLE[cfg.mode]
    state0 = initial(cfg)
    marks.append(time.perf_counter())
    try:
        result, stop_reason, aborted = integrate(state0, cfg), None, False
    except IntegrationAbort as exc:
        result, stop_reason, aborted = exc.trajectory, exc.reason, True
    marks.append(time.perf_counter())
    lines = [_header(cfg)] + [_record(*row) for row in rows(result, state0, cfg)]
    last_t = lines[-1]["t"]
    steps = round(last_t / cfg.h) if last_t else 0
    if stop_reason is None:  # a clean run reaches t_end or stops at the ball boundary
        stop_reason = "end" if steps == step_count(cfg.t_end, cfg.h) else "boundary"

    marks.append(time.perf_counter())
    if cfg.out is not None:
        write_lines(cfg.out, lines)
    marks.append(time.perf_counter())
    phases = {name: b - a for name, a, b in
              zip(("setup", "integrate", "diagnostics", "serialize"), marks, marks[1:])}
    final = {k: v for k, v in lines[-1].items() if k not in ("type", "state")}
    summary = RunSummary(cfg.mode, steps, len(lines) - 1, final, marks[-1] - marks[0], cfg.out,
                         aborted, stop_reason, phases)
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


def _distinct(pts):
    """_cross_ratio's precondition, as cross_ratio checks it: no two points
    within DISTINCT_TOL."""
    return all(float(np.linalg.norm(a - b)) > DISTINCT_TOL for a, b in combinations(pts, 2))


def _cross_ratio_tuples(n, seed, count=5):
    if n < 4:
        return []
    rng = rng_from(seed, 9)
    return [tuple(sorted(rng.choice(n, size=4, replace=False))) for _ in range(count)]


def compare_full_reduced(cfg, quiet=False):
    """Run the full and the reduced integrations from the same initial state
    and report their pointwise deviation, cross-ratio drift, and wall times."""
    a = resolve_weights(cfg)
    rotation = resolve_rotation(cfg)
    if rotation is not None and np.asarray(rotation).ndim == 3:
        raise ConfigError("comparison requires one shared rotation term")
    x0 = initial_configuration(cfg)

    t0 = time.perf_counter()
    full = integrate_full(x0, rotation, a, cfg.h, cfg.t_end,
                          projection=cfg.projection, stride=cfg.stride)
    wall_full = time.perf_counter() - t0

    t0 = time.perf_counter()
    reduced = integrate_reduced(initial_state(x0), rotation, a,
                                cfg.h, cfg.t_end, cfg.stride)
    wall_reduced = time.perf_counter() - t0

    reduced_at = {rrec.t: rrec for rrec in reduced}
    deviation = 0.0
    for frec in full:
        rrec = reduced_at.get(frec.t)
        if rrec is not None:
            x_rec = mobius_apply(MobiusMap(rrec.zeta, rrec.boost), x0)
            deviation = max(deviation, float(np.max(np.abs(frec.x - x_rec))))

    drift = 0.0
    tuples = _cross_ratio_tuples(cfg.n, cfg.seed)
    if tuples:
        reference = [cross_ratio(*full[0].x[list(tpl)]) for tpl in tuples]
        # later records are not revalidated: without projection they drift
        # off the sphere, which is part of what this measures
        for frec in full[1:]:
            for ref, tpl in zip(reference, tuples):
                pts = frec.x[list(tpl)]
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
