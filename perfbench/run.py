"""Benchmark of the spherekuramoto package.

Run from the repository root:

    python3 perfbench/run.py --workload presets_io --seed 1 --seconds 32 --trace 0

Workloads: presets_io, boost_ensemble, orbit_compare, mean_field (see
workloads.py and BENCHMARK.json for what each exercises and why).

With --trace 0 the run times whole passes over the workload's jobs for
--seconds seconds and reports the end-to-end metrics.  With --trace 1 it
alternates an untraced pass with the same pass under the per-layer tracer of
tracing.py and reports per-layer counts and times per traced pass, plus the
tracer's overhead against the untraced passes.

The package is imported from ``src/`` next to this directory, never from an
installed copy.  Temporary files go to ``.perfbench_tmp/`` in the repository
root and are removed on exit.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines before
it give the environment, the metrics with their units and every failure.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 4  # set-ups timed in fresh processes, besides this process's own
CHILD_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """The package or the workload could not be set up."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for each workload BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, required=True, help="workload seed: inputs derive from it")
    parser.add_argument("--seconds", type=float, default=32.0, help="measure whole passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="smallest sizes (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(args, tmp):
    """Import the package, generate the inputs and warm up each entry point once."""
    started = time.perf_counter()
    if not (SRC / "spherekuramoto" / "__init__.py").is_file():
        raise SetupError(f"no spherekuramoto source under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import spherekuramoto
        import workloads
    except ImportError as exc:
        raise SetupError(f"cannot import the package: {exc}") from exc
    if Path(spherekuramoto.__file__).resolve().parent != (SRC / "spherekuramoto").resolve():
        raise SetupError(f"spherekuramoto was imported from {spherekuramoto.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    tmp.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.small, str(tmp))
    workload.warm_up()
    return workload, time.perf_counter() - started


def setup_in_child(args):
    """Seconds one set-up takes in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--small"] if args.small else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"set-up took longer than {CHILD_TIMEOUT_S} s in a fresh process") from exc
    if proc.returncode != 0:
        raise SetupError(f"set-up failed in a fresh process: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds, tracer=None):
    """Run whole passes within `seconds` (at least one pass).

    Another pass starts only while the mean pass so far still fits in the
    time left, so a run does not overrun its window by up to a whole pass.

    Returns (timed passes, []).  With a tracer each pass runs twice on the
    same inputs, untraced and then traced, and the result is (traced passes,
    their untraced twins).
    """
    passes, untraced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        if tracer is None:
            passes.append(workload.run_pass(index))
        else:
            untraced.append(workload.run_pass(index))
            with tracer.installed():
                passes.append(workload.run_pass(index))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            return passes, untraced


def tail(values):
    """(p90, jobs beyond it) of the job times.

    A run holds 2 to about 25 jobs, too few for any percentile above the
    median to have ten jobs beyond it, so the tail is the 90th percentile
    (linear interpolation between the closest ranks).
    """
    if len(values) == 1:
        return values[0], 0
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return p90, sum(v > p90 for v in values)


def end_to_end(passes, setups):
    """End-to-end metrics of the untraced passes: name -> (value, unit, note)."""
    jobs = [t for p in passes for t in p.job_seconds]
    wall = statistics.median(p.seconds for p in passes)
    ok = sum(p.ok for p in passes)
    attempted = sum(p.attempted for p in passes)
    p90, beyond = tail(jobs)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "wall_s": (wall, "s", f"median of {len(passes)} passes"),
        "ops_ok_per_s": (ok / len(passes) / wall, "1/s",
                         f"{ok} passed operations over {len(passes)} passes, per median pass time"),
        "job_p50_s": (statistics.median(jobs), "s", f"{len(jobs)} jobs"),
        "job_tail_s": (p90, "s", f"p90 of {len(jobs)} jobs, {beyond} beyond it"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process"),
        "ok_frac": (ok / attempted, "frac", f"failed_frac = {1.0 - ok / attempted:.6g}"),
    }


def per_layer(tracer, passes, untraced):
    """Per-layer metrics per traced pass: name -> (value, unit, note)."""
    n = len(passes)
    metrics = {}
    for key, stat in tracer.stats.items():
        metrics[f"{key}.calls"] = (stat.calls / n, "count", "")
        metrics[f"{key}.total_s"] = (stat.total_s / n, "s", "")
        metrics[f"{key}.self_s"] = (stat.self_s / n, "s", "")
        metrics[f"{key}.failed"] = (stat.failed / n, "count", "")
    counts = dict(tracer.counts)
    classified = counts.pop("gradient.classify_limits.classified")
    for key, value in counts.items():
        unit = "bytes" if "bytes" in key else "count"
        note = "computed from array sizes" if key.endswith("bytes_computed") else ""
        metrics[key] = (value / n, unit, note)
    classify_calls = tracer.stats["gradient.classify_limits"].calls
    metrics["gradient.classify_limits.classified_frac"] = (
        classified / classify_calls if classify_calls else 0.0, "frac",
        f"{classified} of {classify_calls} runs not unclassified")
    traced_s = sum(p.seconds for p in passes)
    plain_s = sum(p.seconds for p in untraced)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac",
                                      f"{traced_s:.3f} s traced vs {plain_s:.3f} s untraced")
    return metrics


def _openblas():
    """(configuration, thread count) of the OpenBLAS bundled with numpy, if any."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return config().decode().strip(), threads()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(), None


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no", "--", "src"],
                                cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() + ("+modified-src" if status.stdout.strip() else "")


def environment(args):
    import numpy as np

    blas, threads = _openblas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "blas_threads": threads,
        "commit": _commit(),
    }


def report(args, passes, metrics):
    """Print the human-readable report, then the JSON result line."""
    attempted = sum(p.attempted for p in passes)
    ok = sum(p.ok for p in passes)
    wrong = sum(p.wrong for p in passes)
    print("environment " + json.dumps(environment(args)))
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{sum(len(p.job_seconds) for p in passes)} jobs, {attempted} operations, "
          f"{attempted - ok} failed (failed_frac {(attempted - ok) / attempted:.6g}), "
          f"{wrong} wrong outputs")
    rows = metrics.items()
    if args.trace:
        rows = sorted(rows, key=lambda kv: (not kv[0].endswith(".self_s"), -kv[1][0]))
    for name, (value, unit, note) in rows:
        if args.trace and value == 0:
            continue
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    for failure in (f for p in passes for f in p.failures):
        print(f"failure: {failure}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))


def run_all(args):
    """Run each workload of BENCHMARK.json in its own fresh process, in turn."""
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    codes = []
    for name in names:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd + (["--small"] if args.small else [])).returncode)
    return max(codes)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        try:
            workload, own_setup = setup(args, tmp)
            if args.setup_only:
                print(json.dumps({"setup_s": own_setup}))
                return 0
            if args.trace:
                import tracing

                tracer = tracing.Tracer()
                traced, untraced = measure(workload, args.seconds, tracer)
                metrics = per_layer(tracer, traced, untraced)
                passes = untraced + traced  # every operation run counts
            else:
                setups = [own_setup] + [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
                passes, _ = measure(workload, args.seconds)
                metrics = end_to_end(passes, setups)
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        report(args, passes, metrics)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
