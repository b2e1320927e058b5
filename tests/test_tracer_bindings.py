"""The per-layer tracer in perfbench/tracing.py rebinds package functions by
module attribute name.  A renamed function or a dropped import would make a
traced benchmark run fail or silently stop counting; these checks catch that
without running the benchmark."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("key", tracing.FUNCTIONS)
def test_tracer_target_is_a_function(key):
    layer, name = key.split(".")
    module = importlib.import_module(f"spherekuramoto.{layer}")
    assert inspect.isfunction(getattr(module, name, None)), f"{key} is not a function"


@pytest.mark.parametrize("holder, name, owner", [
    ("continuum", "rk4_step", "dynamics"),
    ("reduced", "boost_apply", "geometry"),
    ("gradient", "w_rhs", "reduced"),
])
def test_selftest_bindings_are_held(holder, name, owner):
    # perfbench/selftest.py requires the tracer to rebind these references
    held = getattr(importlib.import_module(f"spherekuramoto.{holder}"), name, None)
    assert held is getattr(importlib.import_module(f"spherekuramoto.{owner}"), name)
