"""Per-layer tracing from outside the package.

The traced run rebinds each public function named in TARGETS, in every
``spherekuramoto`` module that holds a reference to it (``reduced.boost_apply``,
``gradient.w_rhs``, ``continuum.rk4_step``, ...), to a wrapper that records
calls, total time, self time and raised exceptions.  Self time is the total
minus the time covered by wrapped callees.  Nothing under ``src/`` changes, and
``Tracer.installed`` restores every original binding on exit.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

import numpy as np

TARGETS = {
    "cli": ("main",),
    "harness": ("run_experiment", "compare_full_reduced", "write_lines", "read_trajectory"),
    "dynamics": ("integrate_full", "full_rhs", "rk4_step"),
    "geometry": ("boost_apply", "as_ball_point", "nearest_rotation", "cross_ratio"),
    "reduced": ("integrate_w", "w_rhs", "integrate_reduced", "reconstruct", "validate_base_points"),
    "continuum": ("integrate_continuum", "hypergeom_f", "poisson_integral_mc"),
    "gradient": ("find_fixed_point", "classify_limits"),
    "sampling": ("uniform_sphere",),
}

FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in TARGETS.items() for name in names)

# Counters recorded at layer boundaries, besides calls and times.
COUNTERS = (
    "harness.bytes_written",
    "harness.records_written",
    "geometry.boost_apply.points",
    "dynamics.full_rhs.points",
    "dynamics.full_rhs.bytes_computed",
    "gradient.classify_limits.classified",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x):
    return 1 if np.ndim(x) == 1 else len(x)


def _count_write(counts, args, kwargs, _result):
    path = _arg(args, kwargs, 0, "path")
    dicts = _arg(args, kwargs, 1, "dicts")
    counts["harness.bytes_written"] += os.path.getsize(path)
    counts["harness.records_written"] += sum(1 for d in dicts if d.get("type") == "record")


def _count_boost(counts, args, kwargs, _result):
    counts["geometry.boost_apply.points"] += _rows(_arg(args, kwargs, 1, "x"))


def _count_full_rhs(counts, args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    counts["dynamics.full_rhs.points"] += _rows(x)
    # Computed from array sizes, not measured: x is read once and the velocity
    # array written once, 8 bytes per double.
    counts["dynamics.full_rhs.bytes_computed"] += 8 * (np.size(x) + result.size)


def _count_classified(counts, _args, _kwargs, result):
    counts["gradient.classify_limits.classified"] += result.kind != "unclassified"


HOOKS = {
    "harness.write_lines": _count_write,
    "geometry.boost_apply": _count_boost,
    "dynamics.full_rhs": _count_full_rhs,
    "gradient.classify_limits": _count_classified,
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.failed = 0


class Tracer:
    """Accumulates per-function statistics while installed."""

    def __init__(self):
        self.stats = {key: Stat() for key in FUNCTIONS}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._children = []  # time covered by wrapped callees, one slot per open call
        self._saved = []  # (module, attribute, original) for every rebinding

    def _wrap(self, key, fn):
        stat = self.stats[key]
        hook = HOOKS.get(key)
        counts = self.counts
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer in TARGETS:
            importlib.import_module(f"spherekuramoto.{layer}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spherekuramoto" or name.startswith("spherekuramoto."))]
        for key in FUNCTIONS:
            layer, name = key.split(".")
            original = getattr(sys.modules[f"spherekuramoto.{layer}"], name)
            wrapper = self._wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def bindings(self):
        """(module name, attribute) pairs currently rebound."""
        return [(m.__name__, attr) for m, attr, _ in self._saved]
