import hashlib
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import dumps_record_reference

from spherekuramoto import cli
from spherekuramoto import harness as h


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


# sha256 of small rotated reduced runs (n = 50, d = 3, h = 0.01, t_end = 2,
# stride 10, seed 11).  reduced_zzeta as written before the line builders
# stopped rebuilding and revalidating a reduced state per record; reduced_w
# (which ignores the rotation) and reduced_wzeta as written since their
# right-hand sides sum the coupling with the fused kernel, which moved
# trailing digits (at most 2.2e-16 and 4.9e-15 per double).
REDUCED_DIGESTS = {
    "reduced_w": "854372d6325a608f2c41f6fe0b6122f51de5dc49374eae27604c00de976c1716",
    "reduced_wzeta": "cda86054dced70f735e70b452eb450cd63e5d7fba1ebc6eb126e8a8c70333f0b",
    "reduced_zzeta": "1b8ffc2da667e3aaefa4445b92b11758e7eb3ef7047974436358b052234a3b38",
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


def test_cli_missing_file_is_validation_error(tmp_path):
    code = cli.main(["simulate", "--config", str(tmp_path / "absent.json"), "--quiet"])
    assert code == 2


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


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "spherekuramoto.cli", "continuum-check",
         "--samples", "20000", "--quiet"],
        capture_output=True,
    )
    assert proc.returncode == 0
