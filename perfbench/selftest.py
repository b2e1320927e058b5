"""Self-test of the benchmark at its smallest sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed by each workload
in both modes, that the tracer rebinds every reference to a wrapped function
and restores each original binding, that a forced output-check failure is
counted as a failed operation, and that the benchmark refuses to run without
the package source.  Exits 0 when all checks pass.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKDIR = run.ROOT / ".perfbench_tmp" / "selftest"


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_names():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        for workload in BENCHMARK["workloads"]:
            proc = bench(run.ROOT, "--workload", workload["name"], "--seed", "3",
                         "--seconds", "0.01", "--trace", trace, "--small")
            expect(proc.returncode == 0, f"{workload['name']} trace {trace}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], "result keys")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == units, f"{workload['name']} trace {trace} prints {sorted(printed)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload['name']} trace {trace}: {proc.stdout}")
            print(f"ok   {workload['name']} --trace {trace} prints all {len(units)} {kind} metrics")


def package_bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "spherekuramoto" or name.startswith("spherekuramoto.")
            for attr, value in vars(module).items()}


def check_bindings_restored():
    import tracing
    import workloads  # noqa: F401  (imports every layer before the snapshot)

    before = package_bindings()
    tracer = tracing.Tracer()
    with contextlib.suppress(RuntimeError), tracer.installed():
        during = package_bindings()
        rebound = set(tracer.bindings())
        for key in tracing.FUNCTIONS:
            layer, name = key.split(".")
            original = before[(f"spherekuramoto.{layer}", name)]
            holders = {k for k, v in before.items() if v is original}
            expect(holders <= rebound, f"{key} not rebound in {sorted(holders - rebound)}")
            expect(all(during[k] is not original for k in holders), f"{key} still bound")
        for required in (("spherekuramoto.reduced", "boost_apply"),
                         ("spherekuramoto.gradient", "w_rhs"),
                         ("spherekuramoto.continuum", "rk4_step")):
            expect(required in rebound, f"{required} not rebound")
        raise RuntimeError("the bindings must come back even when traced code raises")
    after = package_bindings()
    expect(after.keys() == before.keys(), "module attributes added or removed")
    expect(all(after[k] is before[k] for k in before), "a binding was not restored")
    print(f"ok   tracer rebinds {len(rebound)} names and restores every binding")


def check_forced_failure_counted():
    import numpy as np
    from spherekuramoto import harness

    import workloads

    original = harness.read_trajectory

    def corrupted(path):
        header, records = original(path)
        state = records[-1]["state"]
        state[0][0] = float(np.nextafter(state[0][0], 2.0))  # one double, one ulp
        return header, records

    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.build("presets_io", 3, True, str(WORKDIR))
    harness.read_trajectory = corrupted
    try:
        tally = workload.run_pass(0)
    finally:
        harness.read_trajectory = original
    expect(tally.wrong == len(workload.names), f"{tally.wrong} wrong outputs")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(run.parse_args(["--workload", "presets_io", "--seed", "3", "--small"]),
                   [tally], run.end_to_end([tally], [1.0]))
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(not result["correct"], "a failed check left correct true")
    expect(result["failed"] == len(workload.names), f"failed = {result['failed']}")
    expect(result["metrics"]["ok_frac"]["value"] == 0.5, "ok_frac does not count the failure")
    expect("failed_frac 0.5" in out.getvalue(), "failed_frac not reported")
    print(f"ok   a corrupted read-back is counted: {result['failed']} of "
          f"{result['attempted']} operations failed, correct = false")


def check_refuses_without_source():
    bare = WORKDIR / "bare"
    bare.mkdir(parents=True, exist_ok=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "--workload", "presets_io", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(proc.returncode != 0, "ran without the package source")
    expect('"metrics"' not in proc.stdout, "printed a result without the package source")
    print(f"ok   without src/ the benchmark exits {proc.returncode} and prints no result")


def main():
    sys.path.insert(0, str(run.SRC))
    try:
        check_bindings_restored()
        check_forced_failure_counted()
        check_refuses_without_source()
        check_metric_names()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()
    print("self-test passed")


if __name__ == "__main__":
    main()
