"""Write a BENCH_<n>.json file: the benchmark's end-to-end medians for two
checkouts side by side.

Run from the repository root, for example

    python3 tools/write_bench.py --out BENCH_11.json --seed 11 \\
        --side parent=/path/to/parent/checkout --side change=. \\
        --pairs 3 boost_ensemble=10

For every workload that BENCHMARK.json lists, each pair runs each side's own,
unchanged ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once, in a fresh process, alternating which side goes first.  The
file keeps every run's end-to-end metrics, each side's median and quartiles,
how many pairs the second side won (ties count for neither), and the
environment line perfbench printed.

``fixedpoint --seeds 5`` runs in no workload, so it is timed as its own entry:
each pair times ``cli.main(["fixedpoint", ...])`` on the criterion-7 system
(N = 100, d = 3, equal weights, base seed 7000) in a fresh process per side,
after one untimed call, and records the median of --fixedpoint-repeats calls.

The per-layer entries time one RK4 step of three integrators the same way,
in a fresh process per side: integrate_w (N = 100, d = 3, the criterion-7
base, backward from w = (0.2, -0.3, 0.1)), integrate_continuum (d = 3, K = 1,
no rotation, backward from z = (0.3, 0, 0)) and integrate_full (N = 100,
d = 3, equal weights, a shared rotation of scale 0.5; again without the
rotation, the presets' shape; at d = 4 with a rotation of scale 0.5; and at
N = 2000 for FULL_STEPS steps, orbit_compare's size), and integrate_reduced
at orbit_compare's size (N = 2000, d = 3, equal weights, the same shared
rotation, from the base's own orbit coordinates, for FULL_STEPS steps).
Each child runs one untimed
call, then LAYER_REPEATS runs of LAYER_STEPS steps at h = 0.01 through the
public entry point, and records the median time per step.  The
validate_base_points entry times BASE_CALLS calls on the N = 2000, d = 3
base the same way and records the median time per call.  The
Monte Carlo entry times one block of poisson_integral_mc the same way: each
run makes MC_BLOCKS calls of 2^14 samples (one block, d = 3, f the
identity, z = (0.9, 0, 0), seeds 0, 1, ...), and the child records the
median time per block.
"""
from __future__ import annotations

import argparse
import functools
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIXEDPOINT_CHILD = r"""
import contextlib, io, json, os, sys, tempfile, time
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from spherekuramoto import cli
repeats = int(sys.argv[2])
with tempfile.TemporaryDirectory() as tmp:
    config = os.path.join(tmp, "criterion7.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"d": 3, "n": 100, "mode": "full", "weights": {"kind": "equal"},
                   "h": 0.01, "t_end": 1.0, "seed": 7000}, fh)
    argv = ["fixedpoint", "--config", config, "--seeds", "5", "--quiet"]
    seconds = []
    for k in range(repeats + 1):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"fixedpoint exited {code}")
        if k:
            seconds.append(time.perf_counter() - start)
print(json.dumps(seconds))
"""


LAYER_STEPS, LAYER_REPEATS, MC_BLOCKS, FULL_STEPS, BASE_CALLS = 2000, 5, 200, 500, 20
LAYERS = {  # entry name: (child layer, calls per timed run, metric)
    "rk4 step: integrate_w (N = 100, d = 3)": ("w", LAYER_STEPS, "step_s"),
    "rk4 step: integrate_continuum (d = 3)": ("continuum", LAYER_STEPS, "step_s"),
    "rk4 step: integrate_full (N = 100, d = 3)": ("full", LAYER_STEPS, "step_s"),
    "rk4 step: integrate_full (N = 100, d = 3, no rotation)": ("full_plain", LAYER_STEPS, "step_s"),
    "rk4 step: integrate_full (N = 100, d = 4, shared rotation)": ("full4", LAYER_STEPS, "step_s"),
    "poisson_integral_mc block (d = 3, 2^14 samples)": ("mc", MC_BLOCKS, "block_s"),
    "rk4 step: integrate_full (N = 2000, d = 3, shared rotation)": ("full2000", FULL_STEPS, "step_s"),
    "rk4 step: integrate_reduced (N = 2000, d = 3, shared rotation)": ("reduced2000", FULL_STEPS,
                                                                       "step_s"),
    "validate_base_points (N = 2000, d = 3)": ("base_points", BASE_CALLS, "call_s"),
}

LAYER_CHILD = r"""
import json, os, statistics, sys, time
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
import numpy as np
from spherekuramoto import continuum, dynamics, geometry, reduced
layer, repeats, steps = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
base = dynamics.random_configuration(100, 3, 7000)
a = dynamics.equal_weights(100)
A = geometry.random_antisymmetric(3, np.random.default_rng(7000), 0.5)
base4 = dynamics.random_configuration(100, 4, 7000)
A4 = geometry.random_antisymmetric(4, np.random.default_rng(7000), 0.5)
def rk4(integrate):
    def run():
        traj = integrate(0.01)
        if traj.stop != "end":
            raise SystemExit(f"{layer} stopped early: {traj.stop}")
    return run
def mc():
    z = np.array([0.9, 0.0, 0.0])
    for seed in range(steps):
        continuum.poisson_integral_mc(lambda x: x, z, 2**14, seed)
big = dynamics.random_configuration(2000, 3, 7000)
big_state = reduced.initial_state(big)
def base_points():
    for _ in range(steps):
        reduced.validate_base_points(big)
run = {
    "w": rk4(lambda h: reduced.integrate_w(np.array([0.2, -0.3, 0.1]), base, a,
                                           -h, -steps * h, steps)),
    "continuum": rk4(lambda h: continuum.integrate_continuum(
        continuum.ContinuumState(np.array([0.3, 0.0, 0.0]), 1.0), -h, -steps * h, steps)),
    "full": rk4(lambda h: dynamics.integrate_full(base, A, a, h, steps * h, stride=steps)),
    "full_plain": rk4(lambda h: dynamics.integrate_full(base, None, a, h, steps * h, stride=steps)),
    "full4": rk4(lambda h: dynamics.integrate_full(base4, A4, a, h, steps * h, stride=steps)),
    "mc": mc,
    "full2000": rk4(lambda h: dynamics.integrate_full(big, A, dynamics.equal_weights(2000), h,
                                                      steps * h, stride=steps)),
    "reduced2000": rk4(lambda h: reduced.integrate_reduced(
        big_state, A, dynamics.equal_weights(2000), h, steps * h, steps)),
    "base_points": base_points,
}[layer]
seconds = []
for k in range(repeats + 1):
    start = time.perf_counter()
    run()
    if k:
        seconds.append((time.perf_counter() - start) / steps)
print(json.dumps(statistics.median(seconds)))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--side", action="append", required=True, metavar="NAME=PATH",
                        help="a checkout to measure; give two, the baseline first")
    parser.add_argument("--seed", type=int, default=11, help="perfbench workload seed")
    parser.add_argument("--seconds", type=float, default=32.0, help="perfbench --seconds")
    parser.add_argument("--pairs", nargs="+", default=["3"], metavar="N|WORKLOAD=N",
                        help="pairs per workload: a default count, then per-workload counts")
    parser.add_argument("--fixedpoint-repeats", type=int, default=5)
    args = parser.parse_args(argv)
    args.side = [tuple(item.split("=", 1)) for item in args.side]
    if len(args.side) != 2 or any(len(item) != 2 for item in args.side):
        parser.error("give exactly two --side NAME=PATH")
    default, counts = 3, {}
    for item in args.pairs:
        name, _, count = item.rpartition("=")
        if name:
            counts[name] = int(count)
        else:
            default = int(count)
    args.pairs = lambda workload: counts.get(workload, default)
    return args


def run_perfbench(path, workload, args):
    """(end-to-end metric values, environment, failed operations) of one run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, env, result["failed"]


def run_fixedpoint(path, args):
    proc = subprocess.run([sys.executable, "-c", FIXEDPOINT_CHILD, str(Path(path).resolve()),
                           str(args.fixedpoint_repeats)],
                          capture_output=True, text=True, check=True)
    return {"wall_s": statistics.median(json.loads(proc.stdout))}, None, 0


def run_layer(path, layer, calls, metric):
    proc = subprocess.run([sys.executable, "-c", LAYER_CHILD, str(Path(path).resolve()), layer,
                           str(LAYER_REPEATS), str(calls)],
                          capture_output=True, text=True, check=True)
    return {metric: json.loads(proc.stdout)}, None, 0


def summary(values):
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def measure(name, n_pairs, run, args, specs):
    """Alternate the two sides n_pairs times; return the workload's entry."""
    (base, base_path), (new, new_path) = args.side
    runs = {base: [], new: []}
    env, failed = {}, {base: 0, new: 0}
    for k in range(n_pairs):
        order = [(base, base_path), (new, new_path)]
        for side, path in order if k % 2 == 0 else order[::-1]:
            values, side_env, side_failed = run(path)
            runs[side].append(values)
            failed[side] += side_failed
            env.setdefault(side, side_env)
            metric = "wall_s" if "wall_s" in values else next(iter(values))
            print(f"{name} pair {k + 1}/{n_pairs} {side}: {metric} {values[metric]:.4g}", flush=True)
    metrics = {}
    for metric in runs[base][0]:
        spec = specs.get(metric, {"unit": "s", "better": "lower"})
        sign = 1.0 if spec["better"] == "lower" else -1.0
        a = [r[metric] for r in runs[base]]
        b = [r[metric] for r in runs[new]]
        metrics[metric] = {
            "unit": spec["unit"],
            "better": spec["better"],
            base: summary(a),
            new: summary(b),
            f"{new}_wins": sum(sign * (y - x) < 0 for x, y in zip(a, b)),
        }
    entry = {"pairs": n_pairs, "failed_operations": failed, "metrics": metrics}
    if any(env.values()):
        entry["environment"] = env
    return entry


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    out = {
        "sides": [name for name, _ in args.side],
        "perfbench": {"seed": args.seed, "seconds": args.seconds, "trace": 0},
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        out["workloads"][name] = measure(
            name, args.pairs(name), lambda path, name=name: run_perfbench(path, name, args),
            args, specs)
    out["workloads"]["fixedpoint --seeds 5"] = measure(
        "fixedpoint --seeds 5", args.pairs("fixedpoint"),
        lambda path: run_fixedpoint(path, args), args, specs)
    for name, (layer, calls, metric) in LAYERS.items():
        out["workloads"][name] = measure(
            name, args.pairs(layer),
            functools.partial(run_layer, layer=layer, calls=calls, metric=metric), args, specs)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
