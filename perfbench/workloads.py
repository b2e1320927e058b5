"""The benchmark's four workloads.

A workload is built in set-up: its inputs are generated from the workload
seed and each entry point it calls is warmed up once, untimed.  It then runs
passes.  A pass is a fixed list of jobs, a job is one user-level unit, and each
public call in a job is one operation.  Only the public calls are timed; the
output checks run after them, outside the timed region, and every failed
check, raised exception or nonzero exit code counts as a failed operation.

Public functions are looked up on their module at call time (``cli.main``,
``harness.read_trajectory``), so the traced run sees every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import time

import numpy as np

from spherekuramoto import cli, dynamics, gradient, harness

# sha256 of the file `kuramoto-sphere preset <name> --out FILE` writes at the
# preset's default seed, recorded from the package's initial commit.  The
# trajectory format promises these bytes.
PRESET_DIGESTS = {
    "fig1": "6f51a0c98b9d7ab1439ac88be296d38d27bc9f1f5b01712592ad28bf4fa98ca4",
    "fig2": "4f52700f67996a4c6277e1302dd0c4fd39e4e3c965476266de4fdbf9b95f8488",
    "fig3": "c4f671b40c5f1eccbd13ce33a08a7eca7a12eaf08792d52e47426dd4c24ad0c0",
}

# A JSON number as the trajectory writer prints it.
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


class Job:
    """Times the public calls of one job and records each operation's outcome."""

    def __init__(self, label):
        self.label = label
        self.seconds = 0.0
        self.ok = 0
        self.wrong = 0
        self.failures = []

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start

    def cli(self, argv):
        """Run one `kuramoto-sphere` verb in-process: (exit code, stderr text)."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.call(cli.main, argv)
        return code, err.getvalue().strip()

    def check(self, op, problems):
        """Count op as passed when problems is empty, else as a wrong output."""
        if problems:
            self.wrong += 1
            self.fail(op, "check failed: " + "; ".join(problems))
        else:
            self.ok += 1

    def fail(self, op, message):
        self.failures.append(f"{self.label}: {op}: {message}")


class Tally:
    """Outcomes of one pass."""

    def __init__(self):
        self.job_seconds = []
        self.attempted = 0
        self.ok = 0
        self.wrong = 0
        self.failures = []

    @property
    def seconds(self):
        return sum(self.job_seconds)

    def run(self, label, n_ops, body, *args):
        """Run one job of n_ops operations; operations that did not pass count as failed."""
        job = Job(label)
        try:
            body(job, *args)
        except Exception as exc:  # a raising call is a counted failure, not a benchmark crash
            job.fail("raised", f"{type(exc).__name__}: {exc}")
        self.job_seconds.append(job.seconds)
        self.attempted += n_ops
        self.ok += job.ok
        self.wrong += job.wrong
        self.failures.extend(job.failures)


def _numbers(obj, out):
    if isinstance(obj, dict):
        for value in obj.values():
            _numbers(value, out)
    elif isinstance(obj, list):
        for value in obj:
            _numbers(value, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out.append(obj)
    return out


def readback_problems(data, header, records, mode, seed):
    """Problems with a trajectory read back by harness.read_trajectory.

    Every double is compared with an independent parse of the file's bytes,
    so the read-back must reproduce each written value exactly.
    """
    problems = []
    if header.get("type") != "header" or header["config"]["mode"] != mode:
        problems.append(f"header does not describe a {mode} run")
    if header["config"]["seed"] != seed:
        problems.append(f"header seed {header['config']['seed']} != {seed}")
    body = data[data.index(b"\n") + 1:]
    lines = body.count(b"\n")
    if len(records) != lines or not records:
        problems.append(f"{len(records)} records read from {lines} lines")
    written = np.array([float(tok) for tok in _NUMBER.findall(body)])
    read = np.array(_numbers(records, []), dtype=float)
    if written.shape != read.shape or not np.array_equal(written, read):
        problems.append("read-back doubles differ from the written text")
    return problems


class Workload:
    """Inputs and jobs of one workload; subclasses define warm_up and run_pass."""

    def __init__(self, seed, tmp):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(self.name)])
        self.tmp = tmp

    def path(self, name):
        return os.path.join(self.tmp, name)

    def seeds(self, count):
        return [int(s) for s in self.rng.integers(1000, 2**31 - 1, size=count)]


class PresetsIO(Workload):
    """The three figure presets written and read back: the main user path.

    Even passes run the presets at their default seeds, whose file digests are
    known; odd passes run them at seeds drawn from the workload seed, whose
    files must repeat byte for byte from pass to pass.
    """

    name = "presets_io"

    def __init__(self, seed, small, tmp):
        super().__init__(seed, tmp)
        self.names = ("fig1",) if small else ("fig1", "fig2", "fig3")
        self.drawn = dict(zip(self.names, self.seeds(len(self.names))))
        self.digests = {}  # (name, seed) -> sha256 of its first file in this process

    def warm_up(self):
        path = self.path("warm-up.jsonl")
        cli.main(["preset", "fig1", "--out", path, "--quiet"])
        harness.read_trajectory(path)
        os.remove(path)

    def run_pass(self, index):
        tally = Tally()
        for name in self.names:
            seed = self.drawn[name] if index % 2 else harness.PRESETS[name]["seed"]
            tally.run(f"{name} seed {seed}", 2, self._job, name, seed)
        return tally

    def _job(self, job, name, seed):
        path = self.path(f"{name}-{seed}.jsonl")
        code, err = job.cli(["preset", name, "--seed", str(seed), "--out", path, "--quiet"])
        if code != 0:
            job.fail("cli.main preset", f"exit {code}: {err}")
            return
        header, records = job.call(harness.read_trajectory, path)
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        digest = hashlib.sha256(data).hexdigest()
        expected = PRESET_DIGESTS[name] if seed == harness.PRESETS[name]["seed"] else None
        expected = self.digests.setdefault((name, seed), expected or digest)
        job.check("cli.main preset", [] if digest == expected else
                  [f"sha256 {digest[:12]} differs from {expected[:12]}"])
        job.check("read_trajectory", readback_problems(data, header, records, "full", seed))


class BoostEnsemble(Workload):
    """Criterion-7 boost-flow ensemble: many small w_rhs/boost_apply calls."""

    name = "boost_ensemble"
    n = 100
    d = 3
    spread_tol = 1e-7  # criterion 7

    def __init__(self, seed, small, tmp):
        super().__init__(seed, tmp)
        base_seed, self.first_seed = self.seeds(2)
        base = dynamics.random_configuration(self.n, self.d, base_seed)
        self.ctx = gradient.PotentialContext(base, dynamics.equal_weights(self.n))
        self.jobs_per_pass = 1 if small else 2
        self.reference = None  # the first backward final of the run

    def warm_up(self):
        s = self.first_seed
        gradient.classify_limits(self.ctx, "backward", seed=s, horizon=1.0)
        gradient.classify_limits(self.ctx, "forward", seed=s, horizon=1.0)
        gradient.find_fixed_point(self.ctx, seed=s)

    def run_pass(self, index):
        tally = Tally()
        for j in range(self.jobs_per_pass):
            s = self.first_seed + index * self.jobs_per_pass + j
            tally.run(f"seed {s}", 3, self._job, s)
        return tally

    def _job(self, job, s):
        back = job.call(gradient.classify_limits, self.ctx, "backward", seed=s)
        forward = job.call(gradient.classify_limits, self.ctx, "forward", seed=s)
        fixed = job.call(gradient.find_fixed_point, self.ctx, seed=s)
        if self.reference is None:
            self.reference = back.w_star

        def agree(w, what):
            if self.reference is None:
                return [f"no backward final to compare {what} with"]
            gap = float(np.linalg.norm(w - self.reference))
            return [] if gap <= self.spread_tol else [f"{what} is {gap:.3e} from the run's first"]

        problems = [] if back.kind == gradient.BACKWARD_INCOHERENT else [f"kind {back.kind}"]
        job.check("classify_limits backward",
                  problems or agree(back.w_star, "backward final"))
        job.check("classify_limits forward",
                  [] if forward.kind == gradient.FORWARD_SYNC else [f"kind {forward.kind}"])
        problems = agree(fixed.w_star, "w_star")
        if not (fixed.T_norm < 1.0 and np.all(fixed.lam > 0.0)):
            problems.append(f"not repelling: |T| = {fixed.T_norm:.6f}, min lam = {fixed.lam.min():.6f}")
        job.check("find_fixed_point", problems)


class OrbitCompare(Workload):
    """Full versus reduced integration at N = 2000, where the reduction must pay off."""

    name = "orbit_compare"
    dims = (3, 4)

    def __init__(self, seed, small, tmp):
        super().__init__(seed, tmp)
        (self.first_seed,) = self.seeds(1)
        self.n, self.t_end = (50, 1.0) if small else (2000, 10.0)

    def config(self, d, seed, t_end):
        return harness.config_from_dict({
            "d": d, "n": self.n, "mode": "full",
            "rotation": {"kind": "random", "scale": 0.5},
            "h": 0.01, "t_end": t_end, "stride": 50, "seed": seed,
        })

    def warm_up(self):
        harness.compare_full_reduced(self.config(3, self.first_seed, 0.5), quiet=True)

    def run_pass(self, index):
        tally = Tally()
        for j, d in enumerate(self.dims):
            seed = self.first_seed + index * len(self.dims) + j
            tally.run(f"d={d} seed {seed}", 1, self._job, self.config(d, seed, self.t_end))
        return tally

    def _job(self, job, cfg):
        report = job.call(harness.compare_full_reduced, cfg, quiet=True)
        problems = []
        if not report.max_deviation <= 1e-5:  # criterion 2
            problems.append(f"max_deviation {report.max_deviation:.3e} > 1e-5")
        if not report.cross_ratio_drift <= 1e-6:  # criterion 3
            problems.append(f"cross_ratio_drift {report.cross_ratio_drift:.3e} > 1e-6")
        job.check("compare_full_reduced", problems)


class MeanFieldRun(Workload):
    """Continuum flow (hypergeom_f near |z| = 1) and a 2e6-point Monte Carlo check."""

    name = "mean_field"
    rotations = (
        ("simulate", {"kind": "zero"}),
        ("simulate with rotation", {"kind": "random", "scale": 0.5}),
    )

    def __init__(self, seed, small, tmp):
        super().__init__(seed, tmp)
        (self.first_seed,) = self.seeds(1)
        self.t_end, self.samples = (1.0, 20_000) if small else (40.0, 2_000_000)

    def write_config(self, label, rotation, seed, t_end):
        path = self.path(f"{label.replace(' ', '-')}-{seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"d": 3, "n": 3, "mode": "continuum", "coupling": 1.0,
                       "rotation": rotation, "h": 0.01, "t_end": t_end,
                       "stride": 10, "seed": seed}, fh)
        return path

    def warm_up(self):
        config = self.write_config("warm-up", {"kind": "zero"}, self.first_seed, 0.5)
        out = self.path("warm-up.jsonl")
        cli.main(["simulate", "--config", config, "--out", out, "--quiet"])
        harness.read_trajectory(out)
        cli.main(["continuum-check", "--d", "3", "--radius", "0.9",
                  "--samples", "20000", "--quiet"])
        os.remove(config)
        os.remove(out)

    def run_pass(self, index):
        tally = Tally()
        s = self.first_seed + index
        configs = [self.write_config(label, rotation, s, self.t_end)
                   for label, rotation in self.rotations]
        tally.run(f"seed {s}", 5, self._job, s, configs)
        for path in configs:
            os.remove(path)
        return tally

    def _job(self, job, s, configs):
        for (label, _), config in zip(self.rotations, configs):
            out = self.path(f"continuum-{s}.jsonl")
            code, err = job.cli(["simulate", "--config", config, "--out", out, "--quiet"])
            if code != 0:
                job.fail(f"cli.main {label}", f"exit {code}: {err}")
                continue
            header, records = job.call(harness.read_trajectory, out)
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
            job.check(f"cli.main {label}", [])
            problems = readback_problems(data, header, records, "continuum", s)
            zs = np.array([r["state"]["z"] for r in records])
            if not np.all(np.linalg.norm(zs, axis=1) < 1.0):
                problems.append("a recorded z lies outside the open unit ball")
            job.check("read_trajectory", problems)
        code, err = job.cli(["continuum-check", "--d", "3", "--radius", "0.9",
                             "--samples", str(self.samples), "--seed", str(s), "--quiet"])
        if code in (0, 1):
            job.check("cli.main continuum-check",
                      [] if code == 0 else ["closed form and Monte Carlo differ by more than 1e-2"])
        else:
            job.fail("cli.main continuum-check", f"exit {code}: {err}")


WORKLOADS = ("presets_io", "boost_ensemble", "orbit_compare", "mean_field")
_CLASSES = {cls.name: cls for cls in (PresetsIO, BoostEnsemble, OrbitCompare, MeanFieldRun)}


def build(name, seed, small, tmp):
    """Generate a workload's inputs from its seed."""
    return _CLASSES[name](seed, small, tmp)
