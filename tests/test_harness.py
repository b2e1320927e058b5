import argparse
import collections
import dataclasses
import hashlib
import json
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import dumps_record_reference

from spherekuramoto import cli
from spherekuramoto import continuum as cont
from spherekuramoto import dynamics as dyn
from spherekuramoto import geometry as geo
from spherekuramoto import gradient as gr
from spherekuramoto import harness as h
from spherekuramoto import reduced as red
from spherekuramoto.geometry import LEFT, RIGHT


def write_config(path, **overrides):
    data = {
        "d": 3, "n": 10, "mode": "full",
        "weights": {"kind": "equal"},
        "rotation": {"kind": "zero"},
        "h": 0.01, "t_end": 1.0, "stride": 10, "seed": 7, "projection": True,
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# configuration loading and validation


def test_preset_fig1_fields():
    cfg = h.preset_config("fig1")
    assert (cfg.d, cfg.n, cfg.mode) == (3, 100, "full")
    assert cfg.weights["kind"] == "equal"
    assert cfg.rotation["kind"] == "zero"
    assert cfg.t_end == 40.0 and cfg.h == 0.01


def test_preset_fig3_runs_backward():
    cfg = h.preset_config("fig3")
    assert cfg.weights["kind"] == "majority"
    assert cfg.weights["dominant"] == 0.6
    assert cfg.t_end == -40.0 and cfg.h == -0.01  # sign of h follows t_end


def test_unknown_field_is_named(tmp_path):
    path = write_config(tmp_path / "c.json", foo=1)
    with pytest.raises(h.ConfigError, match="foo"):
        h.load_config(path)


def test_unnormalized_weights_rejected(tmp_path):
    values = [0.09] * 10  # sums to 0.9
    path = write_config(tmp_path / "c.json",
                        weights={"kind": "explicit", "values": values})
    with pytest.raises(h.ConfigError, match="weights"):
        h.load_config(path)


def test_type_mismatch_is_named(tmp_path):
    path = write_config(tmp_path / "c.json", d="three")
    with pytest.raises(h.ConfigError, match="'d'"):
        h.load_config(path)


def test_mode_constraints():
    base = {
        "d": 3, "n": 10, "mode": "reduced_w",
        "weights": {"kind": "equal"}, "rotation": {"kind": "zero"},
        "h": 0.01, "t_end": 1.0, "seed": 0,
    }
    h.config_from_dict(base)
    with pytest.raises(h.ConfigError):
        h.config_from_dict({**base, "coupling": 1.0})  # reduced_w needs linear weights
    with pytest.raises(h.ConfigError):
        h.config_from_dict({**base, "mode": "continuum"})  # continuum needs coupling
    with pytest.raises(h.ConfigError):
        h.config_from_dict({**base, "rotation": {"kind": "random_per_particle"}})
    h.config_from_dict({**base, "mode": "continuum", "coupling": 1.0})


def test_zero_step_requires_zero_horizon():
    base = {
        "d": 3, "n": 5, "mode": "full",
        "h": 0.0, "t_end": 1.0, "seed": 0,
    }
    with pytest.raises(h.ConfigError):
        h.config_from_dict(base)
    h.config_from_dict({**base, "t_end": 0.0})


# ---------------------------------------------------------------------------
# serialization


def test_float_serialization_round_trips():
    values = [1 / 3, 0.1, 1e-300, 123456.789, np.pi, 2.0**-52]
    line = h.dumps_record({"v": values})
    parsed = json.loads(line)["v"]
    assert parsed == values


EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1e22, 1.7976931348623157e308,
               -1.7976931348623157e308, 1 / 3]


def _filled(shape, seed=0):
    a = np.random.default_rng(seed).normal(size=shape)
    flat = a.reshape(-1)
    flat[: min(flat.size, len(EDGE_VALUES))] = EDGE_VALUES[: flat.size]
    return a


@pytest.mark.parametrize("value", [
    _filled(()), _filled((0,)), _filled((3,)), _filled((0, 3)), _filled((100, 3)),
    _filled((4, 3, 3)), np.array(EDGE_VALUES), np.arange(-3, 9).reshape(4, 3),
    np.array([[True, False], [False, True]]),
    np.random.default_rng(1).normal(size=(10, 3)).astype(np.float32),
], ids=lambda a: f"{a.dtype}{a.shape}")
def test_dumps_record_matches_reference_formatter(value):
    for obj in (value, {"t": 0.5, "state": value}, {"state": {"w": value, "zeta": value}}):
        assert h.dumps_record(obj) == dumps_record_reference(obj)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_dumps_record_matches_reference_on_random_arrays(value):
    assert h.dumps_record({"v": value}) == dumps_record_reference({"v": value})


def test_trajectory_file_round_trip(tmp_path):
    out = tmp_path / "traj.jsonl"
    cfg = h.config_from_dict({
        "d": 3, "n": 8, "mode": "full",
        "h": 0.01, "t_end": 0.5, "stride": 10, "seed": 3,
        "out": str(out),
    })
    h.run_experiment(cfg, quiet=True)
    header, records = h.read_trajectory(out)
    assert header["config"]["n"] == 8
    assert [r["t"] for r in records] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    state = np.asarray(records[-1]["state"])
    assert state.shape == (8, 3)
    assert np.max(np.abs(np.linalg.norm(state, axis=1) - 1.0)) <= 1e-12
    # writing the parsed records again reproduces the bytes
    again = tmp_path / "again.jsonl"
    h.write_lines(again, [header] + records)
    assert again.read_bytes() == out.read_bytes()


def test_record_field_order_is_fixed(tmp_path):
    out = tmp_path / "traj.jsonl"
    cfg = h.config_from_dict({
        "d": 3, "n": 5, "mode": "full",
        "h": 0.01, "t_end": 0.1, "seed": 1, "out": str(out),
    })
    h.run_experiment(cfg, quiet=True)
    lines = out.read_text().splitlines()
    assert list(json.loads(lines[0]).keys()) == ["type", "version", "config"]
    for line in lines[1:]:
        assert list(json.loads(line).keys()) == [
            "type", "t", "state", "Znorm", "min_pair_dot", "phi", "drift",
        ]


def test_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out1, out2):
        cfg = h.config_from_dict({
            "d": 3, "n": 12, "mode": "full",
            "rotation": {"kind": "random", "scale": 0.5},
            "h": 0.01, "t_end": 1.0, "stride": 5, "seed": 99,
            "out": str(out),
        })
        h.run_experiment(cfg, quiet=True)
    assert out1.read_bytes() == out2.read_bytes()


def test_different_seeds_differ(tmp_path):
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"{seed}.jsonl"
        cfg = h.config_from_dict({
            "d": 3, "n": 6, "mode": "full",
            "h": 0.01, "t_end": 0.1, "seed": seed, "out": str(out),
        })
        h.run_experiment(cfg, quiet=True)
        outs.append(out.read_bytes())
    assert outs[0] != outs[1]


# ---------------------------------------------------------------------------
# experiment modes


def test_all_modes_run_and_record(tmp_path):
    for mode, extra in [
        ("full", {}),
        ("reduced_w", {}),
        ("reduced_wzeta", {"rotation": {"kind": "random", "scale": 0.3}}),
        ("reduced_zzeta", {"rotation": {"kind": "random", "scale": 0.3}}),
        ("continuum", {"coupling": 1.0}),
    ]:
        out = tmp_path / f"{mode}.jsonl"
        cfg = h.config_from_dict({
            "d": 3, "n": 10, "mode": mode,
            "h": 0.01, "t_end": 1.0, "stride": 20, "seed": 5,
            "out": str(out), **extra,
        })
        summary = h.run_experiment(cfg, quiet=True)
        assert not summary.aborted
        header, records = h.read_trajectory(out)
        assert header["config"]["mode"] == mode
        assert records[0]["t"] == 0.0
        assert records[-1]["t"] == pytest.approx(1.0)
        for rec in records:
            assert rec["Znorm"] is None or np.isfinite(rec["Znorm"])


def test_reduced_w_records_decreasing_potential(tmp_path):
    out = tmp_path / "w.jsonl"
    cfg = h.config_from_dict({
        "d": 3, "n": 10, "mode": "reduced_w",
        "h": 0.01, "t_end": 5.0, "stride": 50, "seed": 6, "out": str(out),
    })
    h.run_experiment(cfg, quiet=True)
    _, records = h.read_trajectory(out)
    phis = [r["phi"] for r in records]
    assert all(p is not None for p in phis)
    assert all(b <= a + 1e-10 for a, b in zip(phis, phis[1:]))


def test_wzeta_and_zzeta_agree_pointwise(tmp_path):
    outs = {}
    for mode in ("reduced_wzeta", "reduced_zzeta"):
        out = tmp_path / f"{mode}.jsonl"
        cfg = h.config_from_dict({
            "d": 3, "n": 8, "mode": mode,
            "rotation": {"kind": "random", "scale": 0.5},
            "h": 0.001, "t_end": 1.0, "stride": 200, "seed": 8, "out": str(out),
        })
        h.run_experiment(cfg, quiet=True)
        outs[mode] = h.read_trajectory(out)[1]
    for rw, rz in zip(outs["reduced_wzeta"], outs["reduced_zzeta"]):
        assert rw["Znorm"] == pytest.approx(rz["Znorm"], abs=1e-8)
        assert rw["min_pair_dot"] == pytest.approx(rz["min_pair_dot"], abs=1e-8)


# ---------------------------------------------------------------------------
# comparison report


def test_compare_zero_horizon_has_zero_deviation():
    cfg = h.config_from_dict({
        "d": 3, "n": 10, "mode": "full",
        "h": 0.01, "t_end": 0.0, "seed": 4,
    })
    report = h.compare_full_reduced(cfg, quiet=True)
    assert report.max_deviation == 0.0
    assert report.cross_ratio_drift == 0.0


def test_compare_pairs_records_by_time():
    # the reduced run stops at the ball boundary near t = 29.05, off the
    # stride grid, while the full run goes on to t = 30
    cfg = h.config_from_dict({
        "d": 3, "n": 10, "mode": "full",
        "rotation": {"kind": "random", "scale": 3.0},
        "h": 0.01, "t_end": 30.0, "stride": 10, "seed": 21,
    })
    report = h.compare_full_reduced(cfg, quiet=True)
    assert report.max_deviation <= 1e-5
    assert np.isfinite(report.cross_ratio_drift)


@pytest.mark.parametrize("seed, scale, t_end, stop", [
    (7, 0.5, 30.0, "end"),  # rotation-first once stopped at "boundary", t = 14.53
    (21, 3.0, 40.0, "boundary"),  # both at t = 30.11; rotation-first once at 10.37
])
def test_both_reduced_forms_stop_alike(tmp_path, seed, scale, t_end, stop):
    # |z| = |w| for one group element, so the two forms must stop at the same
    # step: an RK stage z + (h/2) A z near the sphere must not read as synchrony
    runs = {}
    for mode in ("reduced_wzeta", "reduced_zzeta"):
        out = tmp_path / f"{mode}.jsonl"
        cfgfile = write_config(tmp_path / "c.json", n=50, mode=mode, seed=seed, t_end=t_end,
                               rotation={"kind": "random", "scale": scale}, out=str(out))
        runs[mode] = h.run_experiment(h.load_config(cfgfile), quiet=True), h.read_trajectory(out)[1]
    (left, left_records), (right, right_records) = runs["reduced_wzeta"], runs["reduced_zzeta"]
    assert left.stop_reason == right.stop_reason == stop
    assert left.steps == right.steps
    assert [r["t"] for r in left_records] == [r["t"] for r in right_records]
    for lr, rr in zip(left_records, right_records):
        zeta, w = np.array(lr["state"]["zeta"]), np.array(lr["state"]["w"])
        assert np.array_equal(np.array(rr["state"]["zeta"]), zeta)
        assert np.max(np.abs(np.array(rr["state"]["z"]) + zeta @ w)) <= 1e-15


def test_compare_small_system():
    cfg = h.config_from_dict({
        "d": 3, "n": 10, "mode": "full",
        "rotation": {"kind": "random", "scale": 1.0},
        "h": 0.001, "t_end": 2.0, "stride": 100, "seed": 4, "projection": False,
    })
    report = h.compare_full_reduced(cfg, quiet=True)
    assert report.max_deviation <= 1e-5
    assert report.cross_ratio_drift <= 1e-6
    assert report.full_dim == 20 and report.reduced_dim == 6


# ---------------------------------------------------------------------------
# aborts, presets, serializer edge cases


def test_boundary_abort_flushes_partial_trajectory(tmp_path):
    # equal weights synchronize, so the boost coordinate reaches the ball
    # boundary well before t = 40: a clean stop that still writes the prefix
    # up to the last accepted state
    out = tmp_path / "abort.jsonl"
    cfg = h.config_from_dict({
        "d": 3, "n": 20, "mode": "reduced_wzeta",
        "h": 0.01, "t_end": 40.0, "stride": 100, "seed": 21, "out": str(out),
    })
    summary = h.run_experiment(cfg, quiet=True)
    assert not summary.aborted
    assert summary.stop_reason == "boundary"
    _, records = h.read_trajectory(out)
    assert len(records) >= 2
    assert records[-1]["t"] < 40.0
    ws = np.asarray(records[-1]["state"]["w"])
    assert np.linalg.norm(ws) < 1.0
    # the early stop counts steps, not records, and its last accepted state
    # lies off the stride grid
    assert summary.steps == round(records[-1]["t"] / 0.01)
    assert summary.steps % 100 != 0
    assert summary.records == len(records)


@pytest.mark.parametrize("mode, extra", [
    ("continuum", {"n": 3, "coupling": 1.0, "seed": 7,
                   "rotation": {"kind": "random", "scale": 0.5}}),
    ("reduced_zzeta", {"seed": 21, "rotation": {"kind": "random", "scale": 3.0}}),
])
def test_rk_stage_outside_ball_stops_at_boundary(tmp_path, mode, extra):
    # at h = 0.05 an RK stage of these runs leaves the ball before any
    # accepted step reaches the boundary tolerance
    out = tmp_path / "stage.jsonl"
    cfgfile = write_config(tmp_path / "c.json", mode=mode, h=0.05, t_end=40.0, **extra)
    assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(out), "--quiet"]) == 0
    cfg = h.load_config(cfgfile)
    summary = h.run_experiment(cfg, quiet=True)
    assert summary.stop_reason == "boundary" and not summary.aborted
    _, records = h.read_trajectory(out)
    assert records[-1]["t"] < 40.0
    assert summary.steps == round(records[-1]["t"] / 0.05)
    zs = np.asarray([r["state"]["z"] for r in records])
    assert np.all(np.linalg.norm(zs, axis=1) < 1.0)


def test_summary_steps_with_stride():
    cfg = h.config_from_dict({
        "d": 3, "n": 10, "mode": "reduced_w",
        "h": 0.01, "t_end": 2.0, "stride": 10, "seed": 6,
    })
    summary = h.run_experiment(cfg, quiet=True)
    assert (summary.steps, summary.records) == (200, 21)
    assert summary.stop_reason == "end" and not summary.aborted


def test_summary_phases_account_for_wall_time(tmp_path, capsys):
    cfg = h.config_from_dict({
        "d": 3, "n": 10, "mode": "full",
        "h": 0.01, "t_end": 1.0, "stride": 10, "seed": 6, "out": str(tmp_path / "t.jsonl"),
    })
    summary = h.run_experiment(cfg)
    assert list(summary.phases) == ["setup", "integrate", "diagnostics", "serialize"]
    assert all(v >= 0.0 for v in summary.phases.values())
    assert sum(summary.phases.values()) <= summary.wall_time
    assert capsys.readouterr().out.count("phases: setup=") == 1
    assert "phases" not in (tmp_path / "t.jsonl").read_text()


def test_fig2_preset_weights_and_run(tmp_path):
    from dataclasses import replace

    cfg = h.preset_config("fig2", out=str(tmp_path / "fig2.jsonl"))
    weights = h.resolve_weights(cfg)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert weights[50] > weights[0]  # normal-density profile peaks centrally
    short = replace(cfg, t_end=1.0)
    summary = h.run_experiment(short, quiet=True)
    assert not summary.aborted


def test_serializer_rejects_nonfinite():
    with pytest.raises(h.ConfigError):
        h.dumps_record({"v": float("inf")})
    with pytest.raises(h.ConfigError):
        h.dumps_record({"v": [0.0, float("nan")]})
    for bad in (float("nan"), float("inf")):
        state = np.zeros((100, 3))
        state[57, 1] = bad
        with pytest.raises(h.ConfigError):
            h.dumps_record({"v": state})


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_preset_and_exit_codes(tmp_path):
    out = tmp_path / "fig1.jsonl"
    code = cli.main(["preset", "fig1", "--out", str(out), "--quiet", "--seed", "1"])
    assert code == 0
    assert out.exists()


def test_cli_abort_exit_code(tmp_path):
    # a huge unprojected step leaves the sphere: a norm-drift abort
    cfgfile = write_config(tmp_path / "abort.json", h=2.5, t_end=250.0, stride=1,
                           seed=12, projection=False)
    assert cli.main(["simulate", "--config", str(cfgfile), "--quiet"]) == 3
    summary = h.run_experiment(h.load_config(cfgfile), quiet=True)
    assert summary.aborted and summary.stop_reason == "drift"


def test_cli_nonfinite_state_aborts_with_file(tmp_path):
    out = tmp_path / "nonfinite.jsonl"
    cfgfile = write_config(tmp_path / "c.json", h=1e12, t_end=1e12, seed=1, projection=False)
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(out), "--quiet"]) == 3
        summary = h.run_experiment(h.load_config(cfgfile), quiet=True)
    assert summary.aborted and summary.stop_reason == "nonfinite"
    assert summary.steps == 0
    _, records = h.read_trajectory(out)
    assert [r["t"] for r in records] == [0.0]


@pytest.mark.parametrize("mode", ["full", "reduced_wzeta", "reduced_zzeta"])
def test_nonfinite_stage_aborts_with_file_in_every_mode(tmp_path, mode):
    # a rotation term of size 1e305 overflows the first RK step: every mode
    # ends as a nonfinite abort (exit 3) that still writes its prefix
    out = tmp_path / f"{mode}.jsonl"
    huge = [[0.0, 1e305, 0.0], [-1e305, 0.0, 0.0], [0.0, 0.0, 0.0]]
    cfgfile = write_config(tmp_path / "c.json", mode=mode, seed=3,
                           rotation={"kind": "explicit", "matrix": huge})
    assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(out), "--quiet"]) == 3
    summary = h.run_experiment(h.load_config(cfgfile), quiet=True)
    assert summary.aborted and summary.stop_reason == "nonfinite"
    _, records = h.read_trajectory(out)
    assert records[0]["t"] == 0.0


@pytest.mark.parametrize("mode, scale", [
    ("continuum", 500.0), ("continuum", 1e305), ("reduced_zzeta", 500.0),
])
def test_failed_step_aborts_as_unstable(tmp_path, mode, scale):
    # |h| rho(A) = 5 exceeds RK4's stability bound 2 sqrt(2) on a rotation (and
    # 1e305 overflows): an RK stage leaves the ball from far inside it, which
    # is a failed step, not synchrony
    out = tmp_path / f"{mode}.jsonl"
    big = [[0.0, scale, 0.0], [-scale, 0.0, 0.0], [0.0, 0.0, 0.0]]
    extra = {"n": 3, "coupling": 1.0} if mode == "continuum" else {}
    cfgfile = write_config(tmp_path / "c.json", mode=mode, seed=3,
                           rotation={"kind": "explicit", "matrix": big}, **extra)
    assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(out), "--quiet"]) == 3
    summary = h.run_experiment(h.load_config(cfgfile), quiet=True)
    assert summary.aborted and summary.stop_reason == "unstable"
    _, records = h.read_trajectory(out)
    assert records[0]["t"] == 0.0
    assert summary.records == len(records)
    last = np.asarray(records[-1]["state"]["z"])
    assert 1.0 - np.linalg.norm(last) > 0.1


@pytest.mark.parametrize("mode", ["full", "reduced_wzeta"])
def test_projected_step_too_large_aborts_as_unstable(tmp_path, mode):
    # the projection would hide the wrecked step (a pre-projection defect of
    # 40 in full, 466 in reduced_wzeta): a step needing a correction beyond
    # NORM_DRIFT_LIMIT is a failed step, not a state to renormalize
    out = tmp_path / f"{mode}.jsonl"
    big = [[0.0, 500.0, 0.0], [-500.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    cfgfile = write_config(tmp_path / "c.json", mode=mode, seed=3,
                           rotation={"kind": "explicit", "matrix": big})
    assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(out), "--quiet"]) == 3
    summary = h.run_experiment(h.load_config(cfgfile), quiet=True)
    assert summary.aborted and summary.stop_reason == "unstable"
    _, records = h.read_trajectory(out)
    assert records[0]["t"] == 0.0
    assert summary.records == len(records)
    assert all(r["drift"] <= 1e-3 for r in records)


def test_compare_measures_cross_ratios_of_an_unprojected_run(tmp_path, capsys):
    # the full run drifts off the sphere by 2e-11 without projection; that
    # drift is part of what the cross-ratio check measures, not invalid input
    cfgfile = write_config(tmp_path / "c.json", d=4, n=30, h=0.01, t_end=3.0, stride=20,
                           seed=7, projection=False, rotation={"kind": "random", "scale": 0.5})
    assert cli.main(["compare", "--config", str(cfgfile), "--quiet"]) == 0
    report = h.compare_full_reduced(h.load_config(cfgfile), quiet=True)
    assert np.isfinite(report.cross_ratio_drift) and report.cross_ratio_drift <= 1e-6
    assert report.max_deviation <= 1e-5


def test_nonfinite_run_prints_no_numpy_warnings(tmp_path, capsys):
    cfgfile = write_config(tmp_path / "c.json", h=1e12, t_end=1e12, seed=1, projection=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--config", str(cfgfile), "--quiet"]) == 3
        summary = h.run_experiment(h.load_config(cfgfile), quiet=True)
    assert summary.stop_reason == "nonfinite"
    assert "Warning" not in capsys.readouterr().err


def _zeta_off_so_d(monkeypatch, by=1e-9):
    """Make the reduced integrator record each zeta scaled by 1 + by, off SO(d)
    as the unprojected rotation of a long run drifts, with info its defect;
    returns the list the drifted trajectories are appended to."""
    integrate, drifted = h.integrate_reduced, []

    def integrate_off_so_d(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        states = traj.states.copy()
        states[:, 1:] *= 1.0 + by
        eye = np.eye(states.shape[2])
        info = np.array([float(np.max(np.abs(z.T @ z - eye))) for z in states[:, 1:]])
        drifted.append(dataclasses.replace(traj, states=states, info=info))
        return drifted[-1]

    monkeypatch.setattr(h, "integrate_reduced", integrate_off_so_d)
    return drifted


@pytest.mark.parametrize("mode", ["reduced_wzeta", "reduced_zzeta"])
def test_reduced_run_records_a_rotation_off_so_d(tmp_path, monkeypatch, mode):
    # records are rebuilt from the integrator's own states without re-checking
    # them: a zeta off SO(d) by more than ROTATION_TOL is written, with its drift
    drifted = _zeta_off_so_d(monkeypatch)
    out = tmp_path / "r.jsonl"
    cfg = h.load_config(write_config(tmp_path / "c.json", mode=mode, t_end=0.5,
                                     rotation={"kind": "random"}, out=str(out)))
    summary = h.run_experiment(cfg, quiet=True)
    _, records = h.read_trajectory(out)
    (traj,) = drifted
    assert summary.records == len(records) == len(traj.times) == 6
    assert np.array_equal([r["state"]["zeta"] for r in records], traj.states[:, 1:])
    assert [r["drift"] for r in records] == traj.info.tolist()
    assert min(traj.info[1:]) > 1e-9 > geo.ROTATION_TOL
    assert all(np.isfinite(r["Znorm"]) and np.isfinite(r["min_pair_dot"]) for r in records)


def test_compare_takes_a_rotation_off_so_d(monkeypatch):
    _zeta_off_so_d(monkeypatch)
    cfg = h.config_from_dict({"d": 3, "n": 20, "mode": "full", "rotation": {"kind": "random"},
                              "h": 0.01, "t_end": 0.5, "stride": 10, "seed": 7})
    report = h.compare_full_reduced(cfg, quiet=True)
    assert 1e-10 < report.max_deviation < 1e-8  # the rows scaled by 1 + 1e-9


@pytest.mark.parametrize("mode", ["reduced_w", "reduced_wzeta", "reduced_zzeta", "compare"])
def test_record_building_calls_no_validated_map(monkeypatch, mode):
    # every record's orbit points come from the unchecked kernel: the checks
    # below run at set-up only, so their number does not grow with the records
    counts = collections.Counter()
    for module in (geo, gr, h, red):
        for name in ("as_rotation", "as_ball_point", "boost_apply"):
            if hasattr(module, name):
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)

    def calls(stride):
        counts.clear()
        cfg = h.config_from_dict({"d": 3, "n": 20, "mode": "full" if mode == "compare" else mode,
                                  "rotation": {"kind": "random"}, "h": 0.01, "t_end": 0.5,
                                  "stride": stride, "seed": 7})
        if mode == "compare":
            h.compare_full_reduced(cfg, quiet=True)
        else:
            assert h.run_experiment(cfg, quiet=True).records == 50 // stride + 1
        return dict(counts)

    assert calls(1) == calls(50)


def _integrate(cfg):
    """The public integrator of cfg.mode on the inputs run_experiment builds."""
    a, A, x0 = h.resolve_weights(cfg), h.resolve_rotation(cfg), h.initial_configuration(cfg)
    steps = (cfg.h, cfg.t_end, cfg.stride)
    if cfg.mode == "full":
        return dyn.integrate_full(x0, A, a, cfg.h, cfg.t_end, cfg.projection, cfg.stride)
    if cfg.mode == "reduced_w":
        return red.integrate_w(np.zeros(cfg.d), x0, a, *steps)
    if cfg.mode == "continuum":
        state0 = cont.ContinuumState(h.initial_continuum_z(cfg), cfg.coupling, A)
        return cont.integrate_continuum(state0, *steps)
    form = LEFT if cfg.mode == "reduced_wzeta" else RIGHT
    state0 = red.ReducedState(np.zeros(cfg.d), np.eye(cfg.d), x0, form)
    return red.integrate_reduced(state0, A, a, *steps)


_STIFF = {"kind": "explicit", "matrix": [[0.0, 500.0, 0.0], [-500.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}
_SYNC = {"t_end": 40.0, "seed": 21}  # equal weights synchronize well before t = 40
_CONTINUUM = {"n": 3, "coupling": 1.0}


@pytest.mark.parametrize("mode, overrides, stop", [
    ("full", {}, "end"),
    ("full", {"h": 2.5, "t_end": 250.0, "seed": 12, "projection": False}, "drift"),
    ("reduced_w", {}, "end"),
    ("reduced_w", _SYNC, "boundary"),
    ("reduced_w", {"h": 0.8, "t_end": 40.0, "weights": {
        "kind": "explicit", "values": [30.0] * 10, "normalized": False}}, "unstable"),
    ("reduced_wzeta", {}, "end"),
    ("reduced_wzeta", _SYNC, "boundary"),
    ("reduced_wzeta", {"seed": 3, "rotation": _STIFF}, "unstable"),
    ("reduced_zzeta", {}, "end"),
    ("reduced_zzeta", _SYNC, "boundary"),
    ("reduced_zzeta", {"seed": 3, "rotation": _STIFF}, "unstable"),
    ("continuum", _CONTINUUM, "end"),
    ("continuum", {**_CONTINUUM, "h": 0.05, "t_end": 40.0}, "boundary"),
    ("continuum", {**_CONTINUUM, "seed": 3, "rotation": _STIFF}, "unstable"),
])
def test_stop_reason_is_one_word_in_every_mode(tmp_path, mode, overrides, stop):
    # the integrator's Trajectory.stop, the abort's reason and the run
    # summary's stop_reason of the same config are one and the same word
    cfg = h.load_config(write_config(tmp_path / "c.json", mode=mode, **overrides))
    try:
        traj = _integrate(cfg)
    except dyn.IntegrationAbort as exc:
        assert exc.reason == exc.trajectory.stop
        traj = exc.trajectory
    else:
        assert stop in ("end", "boundary")
    summary = h.run_experiment(cfg, quiet=True)
    assert traj.stop == summary.stop_reason == stop
    assert summary.aborted == (stop not in ("end", "boundary"))
    assert summary.records == len(traj.times) == len(traj.states) == len(traj.info)
    assert summary.steps == round(traj.times[-1] / cfg.h)


@pytest.mark.parametrize("mode, stop", [("full", "nonfinite"), ("continuum", "unstable")])
def test_huge_coupling_writes_a_finite_znorm(tmp_path, capsys, mode, stop):
    # |Z| is about 3e307: the squares np.linalg.norm sums overflow, the norm does not
    out = tmp_path / f"{mode}.jsonl"
    cfgfile = write_config(tmp_path / "c.json", d=3, n=5, mode=mode, seed=1, h=0.01,
                           t_end=0.1, coupling=1e308, out=str(out))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--config", str(cfgfile)]) == 3
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    assert f"stop_reason={stop}" in captured.out
    _, records = h.read_trajectory(out)
    znorms = [r["Znorm"] for r in records]
    assert znorms and all(np.isfinite(z) and z > 1e307 for z in znorms)


# sha256 of small rotated reduced runs (n = 50, d = 3, h = 0.01, t_end = 2,
# stride 10, seed 11).  reduced_w (which ignores the rotation) as written
# since its right-hand side sums the coupling with the fused kernel (at most
# 2.2e-16 per double).  reduced_wzeta and reduced_zzeta as written since
# both forms advance the rotation after the boost steps, one chunk of Cayley
# steps at a time (times the polar factor of RK4's rotation step, no per-step
# projection), instead of carrying it through the RK stages: this moved zeta
# by at most 2.0e-15 per double, min_pair_dot by 2.6e-15, the drift column
# (the rotation's defect) by 1.1e-15, and z and Znorm by at most 8.3e-17;
# the boost w kept its bits.
REDUCED_DIGESTS = {
    "reduced_w": "854372d6325a608f2c41f6fe0b6122f51de5dc49374eae27604c00de976c1716",
    "reduced_wzeta": "73920530b45c8db07bca084428636e5ad5e53600ccfdfcfd3e8ffa44698d7e2a",
    "reduced_zzeta": "d625c5d21687826ed142428e14e849d923cc64285abaa2e4db91bbef929fc948",
}


@pytest.mark.parametrize("mode", sorted(REDUCED_DIGESTS))
def test_reduced_files_keep_their_bytes(tmp_path, mode):
    out = tmp_path / f"{mode}.jsonl"
    cfgfile = write_config(tmp_path / "c.json", n=50, mode=mode, t_end=2.0, seed=11,
                           rotation={"kind": "random"}, out=str(out))
    h.run_experiment(h.load_config(cfgfile), quiet=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REDUCED_DIGESTS[mode]


# sha256 of `kuramoto-sphere preset <name>` output at the default seeds, as
# written by the package's initial commit; trajectory files keep these bytes.
PRESET_DIGESTS = {
    "fig1": "6f51a0c98b9d7ab1439ac88be296d38d27bc9f1f5b01712592ad28bf4fa98ca4",
    "fig2": "4f52700f67996a4c6277e1302dd0c4fd39e4e3c965476266de4fdbf9b95f8488",
    "fig3": "c4f671b40c5f1eccbd13ce33a08a7eca7a12eaf08792d52e47426dd4c24ad0c0",
}


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_files_keep_their_bytes(tmp_path, name):
    out = tmp_path / f"{name}.jsonl"
    assert cli.main(["preset", name, "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PRESET_DIGESTS[name]


def test_cli_simulate_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 3, "n": 10, "mode": "nope",
                               "h": 0.01, "t_end": 1.0, "seed": 0}))
    code = cli.main(["simulate", "--config", str(bad), "--quiet"])
    assert code == 2


@pytest.mark.parametrize("overrides, field", [
    ({"weights": {"kind": "majority", "index": 7}}, "weights 'index'"),
    ({"weights": {"kind": "majority", "index": 1.5}}, "weights 'index'"),
    ({"weights": {"kind": "gaussian_riemann", "half_width": "x"}}, "weights 'half_width'"),
    ({"weights": {"kind": "explicit", "values": [0.2] * 5, "normalized": "no"}},
     "weights 'normalized'"),
    ({"rotation": {"kind": "random_per_particle", "scale": "x"}}, "rotation 'scale'"),
    ({"rotation": {"kind": "random_per_particle", "scale": -1.0}}, "rotation 'scale'"),
    ({"h": float("nan")}, "field 'h'"),
    ({"t_end": float("nan")}, "field 't_end'"),
    ({"t_end": float("inf")}, "field 't_end'"),
    ({"seed": -1}, "field 'seed'"),
])
def test_cli_malformed_field_is_validation_error(tmp_path, capsys, overrides, field):
    cfgfile = write_config(tmp_path / "c.json", n=5, **overrides)
    assert cli.main(["simulate", "--config", str(cfgfile), "--quiet"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and field in errors[0]


@pytest.mark.parametrize("argv, flag", [
    (["preset", "fig1", "--seed", "-1"], "field 'seed'"),
    (["simulate", "--config", "{config}", "--seed", "-1"], "field 'seed'"),
    (["fixedpoint", "--config", "{config}", "--seeds", "0"], "--seeds"),
    (["potential-check", "--config", "{config}", "--samples", "0"], "--samples"),
    (["continuum-check", "--d", "0"], "--d"),
    (["continuum-check", "--seed", "-1"], "--seed"),
])
def test_cli_flag_below_its_range_is_validation_error(tmp_path, capsys, argv, flag):
    config = str(write_config(tmp_path / "c.json", n=12))
    argv = [arg.format(config=config) for arg in argv]
    assert cli.main(argv + ["--quiet"]) == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and flag in errors[0]
    assert "ok" not in captured.out


# every numeric flag of every verb, with its out-of-range values
NUMERIC_FLAGS = [
    (["simulate", "--config", "{config}"], "--seed", ["-1"]),
    (["preset", "fig1"], "--seed", ["-1"]),
    (["compare", "--config", "{config}"], "--seed", ["-1"]),
    (["fixedpoint", "--config", "{config}"], "--seeds", ["0"]),
    (["fixedpoint", "--config", "{config}"], "--seed", ["-1"]),
    (["potential-check", "--config", "{config}"], "--samples", ["0"]),
    (["potential-check", "--config", "{config}"], "--seed", ["-1"]),
    (["continuum-check"], "--d", ["1"]),
    (["continuum-check"], "--radius", ["1", "-1", "0"]),
    (["continuum-check"], "--coupling", []),
    (["continuum-check"], "--samples", ["0"]),
    (["continuum-check"], "--tol", ["0", "-1"]),
    (["continuum-check"], "--seed", ["-1"]),
]


@pytest.mark.parametrize("argv, flag, value", [
    pytest.param(argv, flag, value, id=f"{argv[0]}{flag}={value}")
    for argv, flag, out_of_range in NUMERIC_FLAGS
    for value in ["nan", "inf", "-inf", *out_of_range]
])
def test_cli_bad_numeric_flag_is_validation_error(tmp_path, capsys, argv, flag, value):
    config = str(write_config(tmp_path / "c.json", n=12))
    argv = [arg.format(config=config) for arg in argv]
    argv += [f"{flag}={value}", "--quiet"]
    if argv[0] in ("simulate", "preset"):
        argv += ["--out", str(tmp_path / "out.jsonl")]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a value its type cannot parse
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag.lstrip("-") in errors[0]
    assert "Warning" not in captured.err
    assert not (tmp_path / "out.jsonl").exists()


def test_cli_continuum_check_takes_a_huge_coupling(capsys):
    argv = ["continuum-check", "--radius", "0.99", "--samples", "20000", "--coupling", "1e308"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    assert "relative error" in captured.out and "nan" not in captured.out


def test_cli_missing_file_is_validation_error(tmp_path):
    code = cli.main(["simulate", "--config", str(tmp_path / "absent.json"), "--quiet"])
    assert code == 2


def test_every_numeric_flag_is_range_checked():
    # a numeric flag added without an entry in NUMERIC_FLAGS has no range test
    parser = cli.build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    numeric = {(verb, flag) for verb, sub in verbs.items() for action in sub._actions
               if action.type in (int, float) for flag in action.option_strings}
    assert numeric - {(argv[0], flag) for argv, flag, _ in NUMERIC_FLAGS} == set()


def _one_error_naming(capsys, field):
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and field in errors[0], errors


HUGE = 10**400  # an integer no double holds


@pytest.mark.parametrize("overrides, field", [
    ({"weights": {"kind": "gaussian_riemann", "half_width": HUGE}}, "weights 'half_width'"),
    ({"weights": {"kind": "majority", "dominant": HUGE}}, "weights 'dominant'"),
    ({"weights": {"kind": "explicit", "values": [HUGE] * 5}}, "weights 'values'"),
    ({"rotation": {"kind": "random", "scale": HUGE}}, "rotation 'scale'"),
    ({"h": HUGE}, "field 'h'"),
    ({"t_end": -HUGE}, "field 't_end'"),
    ({"mode": "continuum", "coupling": HUGE}, "field 'coupling'"),
    ({"seed": -HUGE}, "field 'seed'"),
    ({"weights": {"kind": "explicit", "values": [0.2] * 5, "normalized": 1}},
     "weights 'normalized'"),
    ({"weights": {"kind": "explicit", "values": [0.25] * 4}}, "weights 'values'"),
    ({"weights": {"kind": "explicit"}}, "weights 'values'"),
    *[({key: value}, f"field '{key}'") for key in ("weights", "rotation")
      for value in (5, "equal", [1, 2], None, True)],
])
def test_cli_huge_or_mistyped_field_is_validation_error(tmp_path, capsys, overrides, field):
    cfgfile = write_config(tmp_path / "c.json", n=5, **overrides)
    assert cli.main(["simulate", "--config", str(cfgfile), "--quiet"]) == 2
    _one_error_naming(capsys, field)


@pytest.mark.parametrize("n, overrides, field", [
    (10, {"weights": {"kind": "gaussian_riemann", "half_width": 1000.0}}, "'half_width'"),
    (5, {"weights": {"kind": "gaussian_riemann", "half_width": 2**64}}, "'half_width'"),
    (5, {"rotation": {"kind": "random", "scale": 1e308}}, "'scale'"),
    (5, {"rotation": {"kind": "random_per_particle", "scale": 1e308}}, "'scale'"),
])
def test_cli_field_too_large_for_its_arrays_is_validation_error(tmp_path, capsys, n, overrides,
                                                                 field):
    # these made NaN weights or an overflowed generator, or crashed in np.linspace
    cfgfile = write_config(tmp_path / "c.json", n=n, **overrides)
    assert cli.main(["simulate", "--config", str(cfgfile), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and field in errors[0], errors


@pytest.mark.parametrize("kind", ["random", "random_per_particle"])
def test_rotation_scale_overflow_is_rejected_with_the_config(tmp_path, capsys, kind):
    overrides = {"n": 5, "rotation": {"kind": kind, "scale": 1e308}}
    cfgfile = write_config(tmp_path / "c.json", **overrides)
    with pytest.raises(h.ConfigError, match="^rotation 'scale' 1e\\+308 makes non-finite"):
        h.load_config(cfgfile)
    with pytest.raises(h.ConfigError, match="^rotation 'scale'"):
        h.config_from_dict(json.loads(cfgfile.read_text()))
    assert cli.main(["simulate", "--config", str(cfgfile), "--quiet"]) == 2
    _one_error_naming(capsys, "error: rotation 'scale'")
    # the check reads the run's own draws: the largest scale they leave
    # finite is accepted and resolves, a slightly larger one fails both ways
    top = h._largest_draw(h.load_config(write_config(tmp_path / "ok.json", n=5)), kind != "random")
    fine = float(np.nextafter(np.finfo(float).max / top, 0.0))
    cfg = h.load_config(write_config(tmp_path / "ok.json", n=5,
                                     rotation={"kind": kind, "scale": fine}))
    assert np.isfinite(h.resolve_rotation(cfg)).all()
    over = {"kind": kind, "scale": fine * (1.0 + 1e-9)}
    with pytest.raises(h.ConfigError, match="^rotation 'scale'"):
        h.load_config(write_config(tmp_path / "over.json", n=5, rotation=over))
    with pytest.raises(geo.GeometryError, match="non-finite generator entries"):
        h.resolve_rotation(dataclasses.replace(cfg, rotation=over))


@pytest.mark.parametrize("overrides, field", [
    ({"d": HUGE}, "field 'd' must be an integer in (1, 11586)"),
    ({"d": 11586}, "field 'd'"),
    ({"n": 10**12}, "field 'n' must be an integer in (0, 44739243)"),
    ({"d": 1000, "n": 134218}, "field 'n' must be an integer in (0, 134218)"),
    ({"d": 100, "n": 13422, "rotation": {"kind": "random_per_particle"}},
     "rotation 'random_per_particle' needs n * d * d <= 134217728 doubles"),
])
def test_integer_fields_are_capped_at_the_arrays_they_size(tmp_path, capsys, overrides, field):
    # no array of a run may hold more than MAX_DOUBLES = 2^27 doubles; these
    # used to pass validation and fail in numpy (exit 1) or try to allocate
    cfgfile = write_config(tmp_path / "c.json", **overrides)
    with pytest.raises(h.ConfigError, match=re.escape(field)):
        h.load_config(cfgfile)
    assert cli.main(["simulate", "--config", str(cfgfile), "--quiet"]) == 2
    _one_error_naming(capsys, field)


def test_an_integer_too_long_to_print_is_named_with_its_size():
    # the error message used to raise Python's ValueError for str() of an int
    # over 4300 digits; JSON cannot carry one, library callers can
    doc = {"d": 10**5000, "n": 3, "mode": "full", "h": 0.01, "t_end": 1.0, "seed": 1}
    with pytest.raises(h.ConfigError, match=r"^field 'd' must be an integer in \(1, 11586\), "
                                            r"got an integer of 16610 bits$"):
        h.config_from_dict(doc)


def test_integer_caps_admit_the_largest_arrays():
    # n * d and d * d both just below 2^27
    cfg = h.config_from_dict({"d": 11585, "n": 11585, "mode": "full", "h": 0.01,
                              "t_end": 1.0, "seed": 1})
    assert (cfg.d, cfg.n) == (11585, 11585)


@pytest.mark.parametrize("extra, error", [
    ({"weights": {"kind": "equal"}}, None),
    ({"coupling": 2.0}, None),
    ({"weights": {"kind": "majority", "dominant": 0.3, "index": 2**26 - 1}}, None),
    ({"weights": {"kind": "majority", "index": 2**26}}, "majority weights 'index'"),
    ({"weights": {"kind": "gaussian_riemann", "half_width": 4.0}}, None),
    ({"weights": {"kind": "gaussian_riemann", "half_width": 1e300}},
     "gaussian_riemann weights 'half_width' 1e+300 is too wide for n = 67108864: "
     "the midpoint densities sum to 0"),
], ids=["equal", "mean_field", "majority", "majority_index", "gaussian", "gaussian_too_wide"])
def test_config_validation_builds_no_weights_at_the_cap(extra, error):
    # 2^26 weights are 512 MiB; the weight kinds are checked by their scalar rules
    doc = {"d": 2, "n": 2**26, "mode": "full", "h": 0.01, "t_end": 1.0, "seed": 1, **extra}
    tracemalloc.start()
    try:
        if error is None:
            assert h.config_from_dict(doc).n == 2**26
        else:
            with pytest.raises(h.ConfigError) as info:
                h.config_from_dict(doc)
            assert str(info.value).startswith(error)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_unreadable_paths_are_validation_errors(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"d": 3, "mode": "\xe9"}')
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"d": ' + "1" * 5000 + "}")  # past Python's int-parsing limit
    config = str(write_config(tmp_path / "c.json", n=5))
    for argv in (["simulate", "--config", str(tmp_path)],
                 ["simulate", "--config", str(latin1)],
                 ["compare", "--config", str(long_int)],
                 ["simulate", "--config", config, "--out", str(tmp_path)]):
        assert cli.main(argv + ["--quiet"]) == 2
        _one_error_naming(capsys, "error:")


@pytest.mark.parametrize("out", ["missing/x.jsonl", "file/x.jsonl", "."])
def test_unwritable_out_fails_before_the_run(tmp_path, monkeypatch, capsys, out):
    (tmp_path / "file").write_text("kept")
    calls = []
    monkeypatch.setattr(h, "integrate_full", lambda *args, **kw: calls.append(args))
    path = tmp_path / out
    assert cli.main(["preset", "fig1", "--out", str(path), "--quiet"]) == 2
    assert calls == []
    errno = {"missing/x.jsonl": 2, "file/x.jsonl": 20, ".": 21}[out]
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno}] ")
    assert (tmp_path / "file").read_text() == "kept"


def test_out_is_truncated_only_when_the_records_are_written(tmp_path, monkeypatch):
    out = tmp_path / "x.jsonl"
    out.write_text("old")

    def integrate(*args, **kw):
        assert out.read_text() == "old"
        raise h.ConfigError("stop")
    monkeypatch.setattr(h, "integrate_full", integrate)
    assert cli.main(["preset", "fig1", "--out", str(out), "--quiet"]) == 2
    assert out.read_text() == "old"


@pytest.mark.parametrize("seed", [2.7, True, "5", -1])
def test_preset_seed_is_checked_not_truncated(seed):
    with pytest.raises(h.ConfigError, match="field 'seed'"):
        h.preset_config("fig1", seed=seed)


def test_cli_continuum_check_past_the_float_range_of_the_centroid(capsys):
    argv = ["continuum-check", "--d", "173", "--radius", "0.9", "--samples", "100", "--quiet"]
    assert cli.main(argv) == 2
    _one_error_naming(capsys, "171")


def test_cli_continuum_check():
    assert cli.main(["continuum-check", "--samples", "50000", "--quiet"]) == 0


def test_cli_fixedpoint_and_potential_check(tmp_path):
    cfgfile = write_config(tmp_path / "c.json", n=12, t_end=5.0)
    assert cli.main(["fixedpoint", "--config", str(cfgfile), "--seeds", "3", "--quiet"]) == 0
    assert cli.main(["potential-check", "--config", str(cfgfile),
                     "--samples", "30", "--quiet"]) == 0


def test_cli_compare(tmp_path):
    cfgfile = write_config(tmp_path / "c.json", t_end=0.5,
                           rotation={"kind": "random", "scale": 0.5})
    assert cli.main(["compare", "--config", str(cfgfile), "--quiet"]) == 0


def test_cli_fixedpoint_residual_near_critical_weight(tmp_path, capsys):
    # |Z| is read in the frame the solver stopped in; boosting the base again
    # by w* (|w*| = 0.99977) would add about 3e-9 of cancellation error
    cfgfile = write_config(tmp_path / "c.json", d=2, n=100, seed=202,
                           weights={"kind": "majority", "dominant": 0.4999})
    assert cli.main(["fixedpoint", "--config", str(cfgfile), "--seeds", "1"]) == 0
    residual = re.search(r"\|Z\(M_w\*\(p\)\)\| = (\S+)", capsys.readouterr().out)
    assert float(residual.group(1)) <= 1e-11


_ROTATION_ENTRIES = {
    "integrate_full": lambda x0, A: dyn.integrate_full(x0, A, dyn.equal_weights(len(x0)), 0.01, 0.01),
    "integrate_reduced": lambda x0, A: red.integrate_reduced(
        red.initial_state(x0), A, dyn.equal_weights(len(x0)), 0.01, 0.01),
    "reduced_rhs": lambda x0, A: red.reduced_rhs(red.initial_state(x0), A, dyn.equal_weights(len(x0))),
    "full_rhs": lambda x0, A: dyn.full_rhs(x0, A, dyn.equal_weights(len(x0))),
    "ContinuumState": lambda x0, A: cont.ContinuumState(np.zeros(x0.shape[1]), 1.0, A),
    "continuum_rhs": lambda x0, A: cont.continuum_rhs(np.zeros(x0.shape[1]), A, 1.0),
}


def _bad_rotation_terms(n=10, d=3):
    rng = np.random.default_rng(8)
    stack = np.stack([geo.random_antisymmetric(d, rng) for _ in range(n)])
    nonfinite = np.zeros((d, d))
    nonfinite[0, 1], nonfinite[1, 0] = np.inf, -np.inf
    return {
        "symmetric": np.ones((d, d)) - np.eye(d),
        "wrong_dimension": geo.random_antisymmetric(d + 1, rng),
        "nonfinite": nonfinite,
        "stack_for_shared": stack,
        "stack_wrong_length": stack[1:],
    }


@pytest.mark.parametrize("entry, case", [
    pytest.param(entry, case, id=f"{entry}-{case}")
    for entry in _ROTATION_ENTRIES
    for case in _bad_rotation_terms()
    # the full system takes a stack of per-particle terms
    if not (entry in ("integrate_full", "full_rhs") and case == "stack_for_shared")
])
def test_malformed_rotation_terms_are_rejected_at_entry(entry, case):
    x0 = dyn.random_configuration(10, 3, 7)
    with pytest.raises(geo.GeometryError):
        _ROTATION_ENTRIES[entry](x0, _bad_rotation_terms()[case])


@pytest.mark.parametrize("case", list(_bad_rotation_terms()))
def test_cli_compare_rejects_malformed_rotation_terms(tmp_path, capsys, monkeypatch, case):
    cfgfile = write_config(tmp_path / "c.json", t_end=0.5)
    monkeypatch.setattr(h, "resolve_rotation", lambda cfg: _bad_rotation_terms()[case])
    assert cli.main(["compare", "--config", str(cfgfile), "--quiet"]) == 2
    assert len([line for line in capsys.readouterr().err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("coupling", [np.nan, np.inf])
def test_continuum_rhs_rejects_nonfinite_coupling(coupling):
    with pytest.raises(geo.GeometryError):
        cont.continuum_rhs(np.zeros(3), None, coupling)


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spherekuramoto.cli", "continuum-check",
         "--samples", "20000", "--quiet"],
        capture_output=True,
    )
    assert proc.returncode == 0


@pytest.mark.parametrize("overrides, field", [
    ({"weights": {"kind": "explicit", "values": [True, False, False, False, False]}},
     "weights 'values'"),
    ({"weights": {"kind": "explicit", "values": ["0.2"] * 5}}, "weights 'values'"),
    # a boolean among numbers converts silently inside numpy
    ({"weights": {"kind": "explicit", "values": [0.5, True, 0.5, 0, 0], "normalized": False}},
     "weights 'values'"),
    ({"weights": {"kind": "explicit", "values": [0.5, 0.5, False, 0, 0]}}, "weights 'values'"),
    ({"rotation": {"kind": "explicit", "matrix": [[False] * 3] * 3}}, "rotation 'matrix'"),
    ({"rotation": {"kind": "explicit", "matrix": [["0"] * 3] * 3}}, "rotation 'matrix'"),
])
def test_cli_boolean_or_string_arrays_are_validation_errors(tmp_path, capsys, overrides, field):
    cfgfile = write_config(tmp_path / "c.json", n=5, **overrides)
    assert cli.main(["simulate", "--config", str(cfgfile), "--quiet"]) == 2
    _one_error_naming(capsys, field)


def test_per_particle_rotation_run_matches_integrate_full(tmp_path):
    out = tmp_path / "pp.jsonl"
    cfg = h.config_from_dict({
        "d": 3, "n": 6, "mode": "full",
        "rotation": {"kind": "random_per_particle", "scale": 0.5},
        "h": 0.01, "t_end": 0.5, "stride": 10, "seed": 4, "out": str(out),
    })
    h.run_experiment(cfg, quiet=True)
    _, records = h.read_trajectory(out)
    A = h.resolve_rotation(cfg)
    assert A.shape == (6, 3, 3) and not np.array_equal(A[0], A[1])
    traj = dyn.integrate_full(h.initial_configuration(cfg), A, h.resolve_weights(cfg), cfg.h,
                              cfg.t_end, projection=cfg.projection, stride=cfg.stride)
    assert [r["t"] for r in records] == traj.times.tolist()
    for rec, state in zip(records, traj.states):
        assert np.array_equal(np.asarray(rec["state"]), state)


def test_cli_integrator_abort_exits_3(tmp_path, capsys):
    cfgfile = write_config(tmp_path / "c.json", d=3, n=10, seed=3, h=0.01, t_end=1.0,
                           rotation={"kind": "random", "scale": 500.0})
    assert cli.main(["compare", "--config", str(cfgfile), "--quiet"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("integrator abort:"), err


@pytest.mark.parametrize("command", ["fixedpoint", "potential-check"])
def test_potential_commands_reject_mean_field_coupling(tmp_path, capsys, command):
    cfgfile = write_config(tmp_path / "c.json", coupling=1.0)
    assert cli.main([command, "--config", str(cfgfile), "--quiet"]) == 2
    _one_error_naming(capsys, "requires a linear weighted order parameter")
