import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsim import analysis, cli, integrators, ring
from ringsim.analysis import fundamental_diagram
from ringsim.integrators import IntegratorConfig
from ringsim.models import FsParams, IdmParams
from ringsim.ring import RingScenario, RingSeries, build_uniform_scenario, simulate

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run_cli(*argv):
    return cli.main(list(argv))


def short_run_config(tmp_path, name="cfg.json", t_end=12.0, **scenario_extra):
    scenario = {"preset": "idm", "t_end": t_end}
    scenario.update(scenario_extra)
    cfg = {"scenario": scenario}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def file_hashes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        p = os.path.join(root, name)
        if os.path.isfile(p):
            out[name] = hashlib.sha256(open(p, "rb").read()).hexdigest()
    return out


ARTIFACTS = {
    "trajectory.csv", "fd.csv", "heatmap.csv", "phase.csv",
    "stats.json", "events.csv", "manifest.json",
}

TABLES = ("trajectory", "fd", "heatmap", "phase")
TABLE_FILES = {f"{t}.csv" for t in TABLES}

HEADERS = {
    "trajectory.csv": "t_s,vehicle,x_m,v_m_per_s",
    "fd.csv": "t_s,vehicle,k_cars_per_m,q_cars_per_s,v_m_per_s",
    "heatmap.csv": "t_s,bin,mean_v_m_per_s",
    "phase.csv": "t_s,vehicle,gap_m,dv_m_per_s",
    "events.csv": "t_s,event,vehicle",
}


class TestRun:
    def test_preset_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "idm", "--t-end", "12", "-o", str(out)) == 0
        assert ARTIFACTS <= set(os.listdir(out))
        for name, header in HEADERS.items():
            first = (out / name).read_text().splitlines()[0]
            assert first == header, name
        stats = json.loads((out / "stats.json").read_text())
        assert stats["status"] == "completed"
        assert stats["collision"] is False
        assert stats["stop_event_count"] == 0
        assert stats["max_density_cars_per_m"] == pytest.approx(0.1, rel=0.05)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--preset", "idm", "--t-end", "12", "-o", str(a)) == 0
        assert run_cli("run", "--preset", "idm", "--t-end", "12", "-o", str(b)) == 0
        assert file_hashes(a) == file_hashes(b)

    def test_reused_dir_holds_only_the_last_run(self, tmp_path):
        # each run into a directory first removes the files a run writes,
        # and no other file: tables on, then off, then a solver failure
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        out.mkdir()
        (out / "notes.txt").write_text("not ringsim's\n")
        assert run_cli("run", "--preset", "idm", "--t-end", "5", "-o", str(out)) == 0
        assert set(os.listdir(out)) == ARTIFACTS | {"notes.txt"}
        no_tables = tmp_path / "no_tables.json"
        no_tables.write_text(json.dumps({"scenario": {"preset": "idm", "t_end": 5.0},
                                         "outputs": dict.fromkeys(TABLES, False)}))
        assert run_cli("run", "--config", str(no_tables), "-o", str(out)) == 0
        assert run_cli("run", "--config", str(no_tables), "-o", str(fresh)) == 0
        hashes = file_hashes(out)
        del hashes["notes.txt"]
        assert hashes == file_hashes(fresh)
        assert set(hashes) == ARTIFACTS - TABLE_FILES
        failing = tmp_path / "failing.json"
        failing.write_text(json.dumps({"scenario": {"preset": "idm"},
                                       "integrator": {"max_steps": 3}}))
        assert run_cli("run", "--config", str(failing), "-o", str(out)) == cli.EXIT_SOLVER
        assert set(os.listdir(out)) == {"manifest.json", "notes.txt"}
        assert "error" in json.loads((out / "manifest.json").read_text())
        assert (out / "notes.txt").read_text() == "not ringsim's\n"

    def test_manifest_reproduces_run(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--preset", "mixed", "--t-end", "10",
                       "--seed", "9", "-o", str(a)) == 0
        assert run_cli("run", "--config", str(a / "manifest.json"), "-o", str(b)) == 0
        ha, hb = file_hashes(a), file_hashes(b)
        assert ha == hb

    def test_config_file_run(self, tmp_path):
        path = short_run_config(tmp_path, t_end=8.0, seed=4)
        out = tmp_path / "out"
        assert run_cli("run", "--config", path, "-o", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["scenario"]["seed"] == 4
        assert manifest["config"]["scenario"]["t_end"] == 8.0
        assert len(manifest["config"]["scenario"]["vehicles"]) == 10

    def test_inline_vehicle_list(self, tmp_path):
        cfg = {
            "scenario": {
                "ring_length": 50.0,
                "vehicles": [{"controller": "fs"}] + [{"controller": "idm"}] * 4,
                "t_end": 5.0,
                "v_init": 4.0,
            }
        }
        path = tmp_path / "inline.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "-o", str(out)) == 0
        traj = (out / "trajectory.csv").read_text().splitlines()
        vehicles = {int(line.split(",")[1]) for line in traj[1:]}
        assert vehicles == set(range(5))

    def test_zero_duration(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "idm", "--t-end", "0", "-o", str(out)) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_samples"] == 1
        assert stats["lambda_max"] is None
        assert stats["lyapunov"]["degenerate"] is True
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 10  # header plus one row per vehicle

    def test_cli_seed_override(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--preset", "idm", "--t-end", "5", "--seed", "1", "-o", str(a))
        run_cli("run", "--preset", "idm", "--t-end", "5", "--seed", "2", "-o", str(b))
        assert file_hashes(a)["trajectory.csv"] != file_hashes(b)["trajectory.csv"]

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(target))
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--preset", "idm", "--t-end", "2") == 0
        assert target.is_dir()

    @pytest.mark.parametrize("command, source", [
        ("run", "env"), ("run", "flag"), ("run", "config"),
        ("compare", "env"), ("compare", "flag"),  # compare reads no config file
    ])
    def test_empty_out_dir_means_runs(self, tmp_path, monkeypatch, command, source):
        # an empty output path is unset: the files go under ./runs, and no
        # artifact of the working directory is removed
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUT_ENV_VAR, raising=False)
        sentinel = tmp_path / "stats.json"
        sentinel.write_text("keep")
        if command == "run":
            argv = ("run", "--preset", "idm", "--t-end", "1")
        else:
            argv = ("compare", "--presets", "idm", "--t-end", "1")
        if source == "env":
            monkeypatch.setenv(cli.OUT_ENV_VAR, "")
        elif source == "flag":
            argv += ("-o", "")
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"scenario": {"preset": "idm", "t_end": 1.0},
                                        "outputs": {"dir": ""}}))
            argv = ("run", "--config", str(path))
        assert run_cli(*argv) == 0
        assert sentinel.read_text() == "keep"
        if command == "run":
            assert (tmp_path / "runs" / "stats.json").is_file()
        else:
            assert (tmp_path / "runs" / "idm" / "stats.json").is_file()
            assert (tmp_path / "runs" / "compare.csv").is_file()


_IDM = {"preset": "idm"}
_INLINE = {"ring_length": 50.0, "vehicles": [{"controller": "idm"}] * 2}


def _fs_ring(**fs):
    return {"ring_length": 50.0, "vehicles": [{"controller": "fs", **fs}, {"controller": "idm"}]}


class TestConfigErrors:
    def test_unknown_field_names_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {"preset": "idm", "bogus": 1}}))
        assert run_cli("run", "--config", str(path)) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "scenario.bogus" in err

    def test_bad_preset(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {"preset": "nope"}}))
        assert run_cli("run", "--config", str(path)) == cli.EXIT_CONFIG
        assert "scenario.preset" in capsys.readouterr().err

    def test_bad_vehicle_controller(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {
            "ring_length": 50.0,
            "vehicles": [{"controller": "idm"}, {"controller": "warp"}],
        }}))
        assert run_cli("run", "--config", str(path)) == cli.EXIT_CONFIG
        assert "scenario.vehicles[1].controller" in capsys.readouterr().err

    def test_wrong_type(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": {"preset": "idm", "t_end": "long"}}))
        assert run_cli("run", "--config", str(path)) == cli.EXIT_CONFIG
        assert "scenario.t_end" in capsys.readouterr().err

    def test_missing_scenario(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"integrator": {}}))
        assert run_cli("run", "--config", str(path)) == cli.EXIT_CONFIG

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("run", "--config", str(path)) == cli.EXIT_CONFIG

    def test_run_requires_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run")
        assert exc.value.code == cli.EXIT_CONFIG
        assert "one of the arguments --preset --config is required" in capsys.readouterr().err

    def test_run_rejects_preset_and_config_together(self, tmp_path, capsys):
        path = short_run_config(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--preset", "mixed", "--config", path, "-o", str(out))
        assert exc.value.code == cli.EXIT_CONFIG
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("run", "--preset", "idm"),
        ("compare", "--presets", "idm,mixed"),
    ], ids=["run", "compare"])
    @pytest.mark.parametrize("how", ["flag", "env", "below"])
    def test_output_path_through_a_file(self, tmp_path, monkeypatch, capsys, command, how):
        # the output path is a regular file, or lies below one; it is
        # reported before anything is integrated, and the file is kept
        blocker = tmp_path / "F"
        blocker.write_text("keep")
        out = blocker / "sub" if how == "below" else blocker
        monkeypatch.setattr(ring, "simulate", lambda *a, **k: pytest.fail("integrated"))
        if how == "env":
            monkeypatch.setenv(cli.OUT_ENV_VAR, str(out))
            argv = command
        else:
            argv = command + ("-o", str(out))
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"outputs.dir: {str(blocker)!r} is not a directory" in err
        assert blocker.read_text() == "keep"

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs a /proc file system")
    @pytest.mark.parametrize("command", [
        ("run", "--preset", "idm"),
        ("compare", "--presets", "idm,mixed"),
    ], ids=["run", "compare"])
    def test_output_path_that_cannot_be_created(self, monkeypatch, capsys, command):
        # /proc is a directory, but the OS refuses to make one in it: the
        # path is reported before anything is integrated
        monkeypatch.setattr(ring, "simulate", lambda *a, **k: pytest.fail("integrated"))
        out = f"/proc/ringsim-test-{os.getpid()}"
        assert run_cli(*command, "--t-end", "5", "-o", out) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: outputs.dir: ") and out in err
        assert not os.path.exists(out)

    def test_integer_over_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"scenario": {"preset": "idm", "seed": 1' + "0" * 5000 + "}}")
        assert run_cli("run", "--config", str(path)) == cli.EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    # (config, text stderr must contain): per section, a value of the wrong
    # type and one out of range. The analysis section of older manifests is
    # rejected by name.
    @pytest.mark.parametrize("cfg, field", [
        ({"scenario": {**_IDM, "controllers": []}}, "scenario.controllers: unknown field"),
        ({"scenario": {**_IDM, "seed": 1.5}}, "scenario.seed"),
        ({"scenario": {**_IDM, "seed": -1}}, "seed"),
        ({"scenario": {**_IDM, "tau": -0.5}}, "tau"),
        ({"scenario": {**_IDM, "t_end": float("nan")}}, "scenario.t_end"),
        ({"scenario": {**_IDM, "perturb_amp": float("inf")}}, "scenario.perturb_amp"),
        ({"scenario": {**_IDM, "t_end": 10**400}}, "scenario.t_end"),
        ({"scenario": {**_INLINE, "ring_length": "long"}}, "scenario.ring_length"),
        ({"scenario": {**_INLINE, "ring_length": 0}}, "ring_length"),
        ({"scenario": {**_INLINE, "vehicles": [{"controller": "idm", "a": "fast"}] * 2}},
         "scenario.vehicles[0].a"),
        ({"scenario": {**_INLINE, "vehicles": [{"controller": "idm", "T": -1}] * 2}},
         "IdmParams.T"),
        ({"scenario": {**_INLINE, "vehicles": [{"controller": "idm", "v0": float("inf")}] * 2}},
         "scenario.vehicles[0].v0"),
        ({"scenario": _fs_ring(omega=["a", 3.0, 4.5])}, "scenario.vehicles[0].omega[0]"),
        ({"scenario": _fs_ring(omega=[True, 3.0, 4.5])}, "scenario.vehicles[0].omega[0]"),
        ({"scenario": _fs_ring(alpha=[1.0, "1.5", 0.5])}, "scenario.vehicles[0].alpha[1]"),
        ({"scenario": _fs_ring(alpha=[1.0, 0.7])}, "scenario.vehicles[0].alpha"),
        ({"scenario": _fs_ring(r=0)}, "FsParams.r"),
        ({"scenario": _IDM, "integrator": {"rel_tol": "tight"}}, "integrator.rel_tol"),
        ({"scenario": _IDM, "integrator": {"abs_tol": 0}}, "abs_tol"),
        ({"scenario": _IDM, "integrator": {"max_steps": 10.0}}, "integrator.max_steps"),
        ({"scenario": _IDM, "integrator": {"h_init": -1}}, "h_init"),
        ({"scenario": _IDM, "analysis": {"heatmap_bins": 3}}, "config.analysis: unknown field"),
        ({"scenario": _IDM, "analysis": {}}, "config.analysis: unknown field"),
        ({"tool": "ringsim", "config": {"scenario": _IDM, "analysis": {"embed_dim": 3}}},
         "config.analysis: unknown field"),
        ({"scenario": _IDM, "outputs": {"heatmap_bins": 0}},
         "outputs: heatmap_bins must be at least 1"),
        ({"scenario": _IDM, "outputs": {"heatmap_bins": True}}, "outputs.heatmap_bins"),
        ({"scenario": _IDM, "outputs": {"heatmap_bins": 2.5}}, "outputs.heatmap_bins"),
        ({"scenario": _IDM, "outputs": {"heatmap_bins": None}}, "outputs.heatmap_bins"),
        ({"scenario": _IDM, "outputs": {"fd": 1}}, "outputs.fd"),
        ({"scenario": _IDM, "outputs": {"dir": 5}}, "outputs.dir"),
        # read before integrating, not when the heatmap's cell index overflows
        ({"scenario": _IDM, "outputs": {"heatmap_bins": 10**18}},
         "outputs: heatmap_bins must be at most 2251799813685247"),
        # finite, but its range 2 * perturb_amp is not: rejected before the run
        ({"scenario": {**_IDM, "perturb_amp": 1e308}}, "scenario: perturb_amp too large"),
    ])
    def test_rejected_value_names_field(self, tmp_path, capsys, cfg, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "-o", str(out)) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("make", [
        lambda: RingScenario(controllers=[IdmParams()] * 2, t_end=float("nan")),
        lambda: IdmParams(T=float("nan")),
        lambda: FsParams(alpha=(1.0, 0.7, float("nan"))),
    ])
    def test_dataclass_bounds_reject_nan(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("argv, field", [
        (["run", "--preset", "idm", "--rel-tol", "0"], "rel_tol"),
        (["run", "--preset", "idm", "--t-end", "-5"], "t_end"),
        (["run", "--preset", "idm", "--seed", "-1"], "seed"),
        (["compare", "--presets", "idm", "--abs-tol", "-1"], "abs_tol"),
        (["compare", "--presets", "idm", "--t-end", "nan"], "t_end"),
    ])
    def test_cli_override_checked_like_file_field(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out"
        assert run_cli(*argv, "-o", str(out)) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not out.exists()

    def test_overrides_apply_to_manifest_config(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"tool": "ringsim", "config": {
            "scenario": {"preset": "idm", "t_end": 1.0}, "integrator": {"h_max": 0.2}}}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--seed", "3", "--rel-tol", "1e-5",
                       "-o", str(out)) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]
        assert echo["scenario"]["seed"] == 3 and echo["scenario"]["t_end"] == 1.0
        assert echo["integrator"]["rel_tol"] == 1e-5 and echo["integrator"]["h_max"] == 0.2


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def run_configs(draw):
    idm = st.builds(IdmParams, a=_floats(0.01, 5), v0=_floats(0.1, 50),
                    delta=_floats(0.5, 8), s0=_floats(0.01, 5), T=_floats(0, 3),
                    b=_floats(0.01, 5))

    @st.composite
    def fs(draw):
        # increasing omega with nonincreasing alpha keeps the switching
        # boundaries ordered at every closing speed
        w = sorted(draw(st.lists(_floats(0.1, 10), min_size=3, max_size=3, unique=True)))
        a = sorted(draw(st.lists(_floats(0.1, 3), min_size=3, max_size=3)), reverse=True)
        return FsParams(r=draw(_floats(0.1, 30)), omega=w, alpha=a,
                        k_track=draw(_floats(0.01, 10)))

    controllers = draw(st.lists(idm | fs(), min_size=2, max_size=12))
    s0_max = max([p.s0 for p in controllers if isinstance(p, IdmParams)], default=0.0)
    n = len(controllers)
    scenario = RingScenario(
        ring_length=draw(_floats(1.01, 10)) * max(s0_max, 1.0) * n,
        controllers=controllers, tau=draw(_floats(0, 2)), v_init=draw(_floats(0, 30)),
        perturb_amp=draw(_floats(0, 1)), seed=draw(st.integers(0, 2**63)),
        t_end=draw(_floats(0, 3000)), sample_hz=draw(_floats(0.01, 100)),
    )
    return cli.RunConfig(
        scenario=scenario,
        integrator=IntegratorConfig(
            rel_tol=draw(_floats(1e-12, 1)), abs_tol=draw(_floats(1e-15, 1)),
            h_init=draw(st.none() | _floats(1e-6, 1)), h_max=draw(_floats(1e-4, 10)),
            max_steps=draw(st.integers(1, 10**7))),
        outputs=cli.OutputSettings(
            dir=draw(st.none() | st.text(max_size=10)), trajectory=draw(st.booleans()),
            fd=draw(st.booleans()), heatmap=draw(st.booleans()),
            heatmap_bins=draw(st.integers(1, 1000)), phase=draw(st.booleans())),
    )


class TestConfigEcho:
    @settings(max_examples=200, deadline=None)
    @given(run_configs())
    def test_echo_round_trips(self, cfg):
        echo = cli.config_to_dict(cfg)
        assert cli.config_from_dict(echo) == cfg
        assert cli.config_from_dict(json.loads(json.dumps(echo))) == cfg

    def test_readme_json_examples_parse(self):
        with open(README) as fh:
            blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
        assert len(blocks) >= 2
        for block in blocks:
            cli.config_from_dict(json.loads(block))

    def test_readme_library_block_runs(self):
        with open(README) as fh:
            block, = re.findall(r"## Library use\n\n```python\n(.*?)```", fh.read(), re.S)
        names = {}
        exec(compile(block, README, "exec"), names)
        shape = names["series"].velocities.shape
        assert names["k"].shape == names["q"].shape == names["gap"].shape == shape
        assert math.isfinite(names["exponent"].lambda_max)

    def test_vehicle_list_takes_stock_ring(self):
        # every scenario value a vehicle list leaves out, the 100 m ring
        # included, is a RingScenario default, and the echo states it
        cfg = cli.config_from_dict({"scenario": {"vehicles": [{"controller": "idm"}] * 10}})
        assert cfg.scenario == build_uniform_scenario("idm")
        assert cli.config_to_dict(cfg)["scenario"]["ring_length"] == 100.0


class TestFailureExitCodes:
    def test_collision_exit_code(self, tmp_path):
        # the FollowerStopper vehicle tracks 20 m/s too slowly to stop
        # behind its leader, which wants 2 m/s
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": {
            "ring_length": 60, "v_init": 15, "t_end": 60,
            "vehicles": [{"controller": "fs", "r": 20, "k_track": 0.1},
                         {"controller": "idm", "v0": 2}],
        }}))
        out = tmp_path / "out"
        code = run_cli("run", "--config", str(path), "-o", str(out))
        assert code == cli.EXIT_COLLISION
        stats = json.loads((out / "stats.json").read_text())
        assert stats["collision"] is True
        assert stats["collision_time_s"] == pytest.approx(2.806, abs=1e-3)
        last = (out / "events.csv").read_text().splitlines()[-1]
        assert re.fullmatch(r"[0-9.e+-]+,collision,0", last)

    def test_lag_not_above_step_cap_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"scenario": {"preset": "idm_delayed", "tau": 0.1, "t_end": 5}}))
        assert run_cli("run", "--config", str(path), "-o", str(tmp_path / "out")) == 0

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenario": {"preset": "idm", "t_end": 100.0},
            "integrator": {"max_steps": 5},
        }))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "-o", str(out)) == cli.EXIT_SOLVER
        assert "solver failure" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert "error" in manifest

    @pytest.mark.parametrize("config, what", [
        # 2^62 rows of states, which numpy refuses before allocating any
        ({"scenario": {"preset": "idm", "t_end": 10},
          "integrator": {"h_max": 1e-300, "max_steps": 2**62}}, "solution store"),
        # 1e301 sample instants
        ({"scenario": {"preset": "idm", "t_end": 10, "sample_hz": 1e300}}, "sample grid"),
    ], ids=["store", "grid"])
    def test_unallocatable_run_is_a_solver_failure(self, tmp_path, capsys, monkeypatch,
                                                   config, what):
        steps = []
        monkeypatch.setattr(integrators, "_clip", lambda *a: steps.append(a))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "-o", str(out)) == cli.EXIT_SOLVER
        assert f"solver failure: {what} too large" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].startswith(f"{what} too large")
        assert os.listdir(out) == ["manifest.json"]
        assert steps == []  # before the first step


# A FollowerStopper vehicle that tracks 20 m/s too slowly to stop behind its
# IDM leader; the run ends in a collision of vehicle 0 at t=2.806 s.
_CRASH = {"scenario": {
    "ring_length": 60, "v_init": 15, "t_end": 60,
    "vehicles": [{"controller": "fs", "r": 20, "k_track": 0.1},
                 {"controller": "idm", "v0": 2}],
}}


class TestCollisionStats:
    def run_crash(self, tmp_path, config=_CRASH):
        path = tmp_path / "crash.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "-o", str(out)) == cli.EXIT_COLLISION
        return out, json.loads((out / "stats.json").read_text())

    def test_lyapunov_not_computed(self, tmp_path):
        _, stats = self.run_crash(tmp_path)
        assert stats["lambda_max"] is None
        assert stats["lyapunov"] == {
            "degenerate": True,
            "note": "not computed: run terminated by a collision of vehicle 0 "
                    f"at t={stats['collision_time_s']!r}",
        }

    def test_min_gap_includes_last_accepted_state(self, tmp_path):
        _, stats = self.run_crash(tmp_path)
        cfg = cli.config_from_dict(_CRASH)
        x = simulate(cfg.scenario, cfg.integrator).states[-1, 0::2]
        last_gap = float(((x[[1, 0]] - x) % 60.0).min())   # leader of i is i-1
        assert last_gap < 1e-6
        assert stats["min_gap_m"] == last_gap
        assert stats["max_density_cars_per_m"] == 1.0 / last_gap

    def test_run_one_reports_the_full_trajectory_end(self, tmp_path):
        # run_one keeps only the end of a sampled run; its collision stats and
        # events.csv row equal those computed from the whole trajectory
        cfg = cli.config_from_dict(_CRASH)
        code, stats = cli.run_one(cfg, str(tmp_path / "out"))
        assert code == cli.EXIT_COLLISION
        traj = simulate(cfg.scenario, cfg.integrator)
        series = ring.sample(traj, cfg.scenario)
        x = traj.states[-1, 0::2]
        min_gap = min(float(series.gaps().min()), float(((x[[1, 0]] - x) % 60.0).min()))
        t, exc = traj.events[-1]
        assert stats["min_gap_m"] == min_gap
        assert stats["collision_time_s"] == t
        assert stats == cli.compute_stats(cfg, traj, series, analysis.fleet_stats(series))
        last = (tmp_path / "out" / "events.csv").read_text().splitlines()[-1]
        assert last == f"{cli.FLOAT_FMT % t},collision,{exc.vehicle}"

    def test_events_stop_rows_then_collision(self, tmp_path):
        # the IDM leader brakes below the stop threshold by the first sample
        # after t=0, then the FollowerStopper vehicle runs into it
        config = json.loads(json.dumps(_CRASH))
        config["scenario"]["vehicles"][1]["v0"] = 0.05
        out, stats = self.run_crash(tmp_path, config)
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[:2] == ["t_s,event,vehicle", "0.033333333333333333,stop,1"]
        t, kind, veh = lines[-1].split(",")
        assert (float(t), kind, veh) == (stats["collision_time_s"], "collision", "0")
        assert len(lines) == 2 + stats["stop_event_count"]


class TestWriteTable:
    @staticmethod
    def check_against_savetxt(tmp_path, columns, fmts, written=None):
        """_write_table's bytes equal np.savetxt's for the same columns.

        written, if given, is the (columns, fmts) pair _write_table gets in
        their place, such as cells standing for the columns' values.
        """
        header = ",".join(f"c{i}" for i in range(len(columns)))
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        cli._write_table(str(ours), header, *(written or (columns, fmts)))
        np.savetxt(oracle, np.column_stack(columns), fmt=fmts, delimiter=",",
                   header=header, comments="")
        assert ours.read_bytes() == oracle.read_bytes()

    def test_floats_and_ints_match_savetxt(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 500
        wide = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-300, 301, n)
        special = [-0.0, 0.0, 0.1 + 0.2, 1 / 3, -2 / 3, 5e-324, 1.7976931348623157e308]
        wide[:len(special)] = special
        ints = rng.integers(-10**6, 10**6, n)
        self.check_against_savetxt(tmp_path, [wide, ints, rng.normal(size=n)],
                                   [cli.FLOAT_FMT, "%d", cli.FLOAT_FMT])

    def test_partial_last_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_ROW_BLOCK", 7)
        rng = np.random.default_rng(4)
        self.check_against_savetxt(tmp_path, [rng.normal(size=30), np.arange(30)],
                                   [cli.FLOAT_FMT, "%d"])

    def test_repeated_cells_match_savetxt(self, tmp_path, monkeypatch):
        # cells formatted once per value and repeated, as the fleet tables'
        # t and vehicle columns are; blocks of 7 rows cut through the groups
        monkeypatch.setattr(cli, "_ROW_BLOCK", 7)
        rng = np.random.default_rng(5)
        t = np.r_[-0.0, 5e-324, 1 / 3, 1e300, rng.uniform(0, 1500, 6)]
        n_rep = 4
        v = rng.normal(size=t.size * n_rep)
        cells = [np.repeat(cli._cells(cli.FLOAT_FMT, t), n_rep),
                 np.tile(cli._cells("%d", np.arange(n_rep)), t.size), v]
        self.check_against_savetxt(
            tmp_path, [np.repeat(t, n_rep), np.tile(np.arange(n_rep), t.size), v],
            [cli.FLOAT_FMT, "%d", cli.FLOAT_FMT], (cells, ["%s", "%s", cli.FLOAT_FMT]))

    def test_indexed_cells_match_savetxt(self, tmp_path, monkeypatch):
        # the heatmap's cells form: the t column picked from formatted cells
        # by each cell's sample index, the bin indices formatted with "%d"
        monkeypatch.setattr(cli, "_ROW_BLOCK", 7)
        rng = np.random.default_rng(6)
        t = rng.uniform(-1e3, 1e3, 12)
        rows, bins = rng.integers(0, t.size, 40), rng.integers(-3, 100, 40)
        v = rng.normal(size=40)
        self.check_against_savetxt(tmp_path, [t[rows], bins, v],
                                   [cli.FLOAT_FMT, "%d", cli.FLOAT_FMT],
                                   ([cli._cells(cli.FLOAT_FMT, t)[rows], bins, v],
                                    ["%s", "%d", cli.FLOAT_FMT]))

    def test_empty_table_is_header_only(self, tmp_path):
        self.check_against_savetxt(tmp_path, [np.empty(0), np.empty(0, dtype=int)],
                                   [cli.FLOAT_FMT, "%d"])
        assert (tmp_path / "ours.csv").read_text() == "c0,c1\n"


class TestRunWork:
    def test_one_gap_matrix_and_one_stop_scan_per_run(self, tmp_path, monkeypatch):
        gaps, scans = [], []
        series_gaps, stop_events = RingSeries.gaps, analysis.stop_events

        def recorded_gaps(series):
            gaps.append(series_gaps(series))
            return gaps[-1]

        def counted_stop_events(*args):
            scans.append(args)
            return stop_events(*args)

        monkeypatch.setattr(RingSeries, "gaps", recorded_gaps)
        monkeypatch.setattr(analysis, "stop_events", counted_stop_events)
        assert run_cli("run", "--preset", "idm", "--t-end", "10", "-o", str(tmp_path)) == 0
        # fundamental diagram, phase projection and stats share one matrix
        assert len(gaps) >= 3 and all(g is gaps[0] for g in gaps)
        assert len(scans) == 1

    def test_one_fleet_summary_per_run(self, tmp_path, monkeypatch):
        calls = []
        fleet_stats = analysis.fleet_stats

        def counted(*args):
            calls.append(args)
            return fleet_stats(*args)

        monkeypatch.setattr(analysis, "fleet_stats", counted)
        cfg = cli.config_from_dict({"scenario": {"preset": "idm", "t_end": 10.0}})
        assert cli.run_one(cfg, str(tmp_path))[0] == cli.EXIT_OK
        assert len(calls) == 1

    def test_final_spread_equals_the_window_copy(self, monkeypatch):
        # compute_stats reads the final spread from the summary's spread
        # series; it equals, bit for bit, the spread of a copied final window
        cfg = cli.config_from_dict({"scenario": {"preset": "mixed", "t_end": 30.0}})
        traj = simulate(cfg.scenario, cfg.integrator)
        series = ring.sample(traj, cfg.scenario)
        fleet = analysis.fleet_stats(series)
        for window in (0.0, 1 / 30, 7.3, 20.0, 100.0):
            monkeypatch.setattr(cli, "FINAL_WINDOW_S", window)
            copied = series.velocities[series.times >= series.times[-1] - window]
            old = float(copied.std(axis=1).max())
            stats = cli.compute_stats(cfg, traj.final(), series, fleet)
            assert repr(stats["final_v_std_m_per_s"]) == repr(old) != "0.0", window

    def test_a_run_loads_no_rng_hash_or_masked_array_module(self, tmp_path):
        # numpy.random would bring secrets, hashlib and OpenSSL, and
        # np.median numpy.ma: megabytes of a run's peak that no step uses.
        # A fresh interpreter, since the test session has them loaded.
        code = f"""if True:
            import sys
            from ringsim import cli
            for i, cfg in enumerate([
                    {{"scenario": {{"preset": "idm_delayed", "t_end": 10}}}},
                    {{"scenario": {{"preset": "mixed", "t_end": 10}}}}]):
                code, _ = cli.run_one(cli.config_from_dict(cfg), {str(tmp_path)!r} + str(i))
                assert code == 0, code
            print(sorted(m for m in ("numpy.random", "secrets", "hashlib", "numpy.ma")
                         if m in sys.modules))
            """
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out == "[]\n"


def assert_no_child_left():
    # no child process at all, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTableWriters:
    def test_forked_tables_equal_in_process_writer(self, tmp_path, monkeypatch):
        calls = []
        fork_writer = cli._fork_writer

        def recorded(path, header, columns, fmts):
            calls.append((path, header, columns, fmts))
            return fork_writer(path, header, columns, fmts)

        monkeypatch.setattr(cli, "_fork_writer", recorded)
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "idm_delayed", "--t-end", "30", "-o", str(out)) == 0
        assert sorted(os.path.basename(c[0]) for c in calls) == sorted(TABLE_FILES)
        for path, header, columns, fmts in calls:
            serial = tmp_path / "serial.csv"
            cli._write_table(str(serial), header, columns, fmts)
            assert open(path, "rb").read() == serial.read_bytes(), path
        assert_no_child_left()

    def test_expanded_columns_equal_repeat_and_tile(self, tmp_path, monkeypatch):
        # 22 vehicles in blocks of 100 rows, so blocks split instants; every
        # table equals the one written from columns expanded up front
        monkeypatch.setattr(cli, "_ROW_BLOCK", 100)
        monkeypatch.setattr(cli, "_fork_writer", self.in_process_writer)
        rng = np.random.default_rng(11)
        n_t, n_veh, length = 37, 22, 230.0
        series = RingSeries(np.arange(n_t) / 30.0, rng.uniform(0, length, (n_t, n_veh)),
                            rng.uniform(0, 12, (n_t, n_veh)), length)
        cfg = cli.config_from_dict({
            "scenario": {"vehicles": [{"controller": "idm"}] * n_veh, "ring_length": length},
            "outputs": {"heatmap_bins": 7}})
        cli._fork_tables({}, str(tmp_path), cfg, series)

        t_cells = cli._cells(cli.FLOAT_FMT, series.times)
        fleet = [np.repeat(t_cells, n_veh), np.tile(cli._cells("%d", np.arange(n_veh)), n_t)]
        rows, bins, mean_v = analysis.heatmap_grid(series, 7)
        assert rows.size < n_t * n_veh  # several vehicles share a cell
        f = cli.FLOAT_FMT
        expanded = {
            "trajectory.csv": (fleet + [series.positions.ravel(), series.velocities.ravel()],
                               ["%s", "%s", f, f]),
            "fd.csv": (fleet + [a.ravel() for a in fundamental_diagram(series)]
                       + [series.velocities.ravel()], ["%s", "%s", f, f, f]),
            "heatmap.csv": ([t_cells[rows], bins, mean_v], ["%s", "%d", f]),
            "phase.csv": (fleet + [a.ravel() for a in analysis.phase_projection(series)],
                          ["%s", "%s", f, f]),
        }
        for name, (columns, fmts) in expanded.items():
            header = (tmp_path / name).read_text().split("\n", 1)[0]
            cli._write_table(str(tmp_path / "old.csv"), header, columns, fmts)
            assert (tmp_path / name).read_bytes() == (tmp_path / "old.csv").read_bytes(), name

    @staticmethod
    def in_process_writer(path, header, columns, fmts):
        """_fork_writer's stand-in: writes the table in this process and
        returns its path in place of a pid."""
        cli._write_table(path, header, columns, fmts)
        return path

    def test_parent_builds_no_fleet_sized_cell_column(self, tmp_path, monkeypatch,
                                                       traced_peak):
        # the tables' t and vehicle cells stay one per instant and one per
        # vehicle; the parent's peak is the largest table's own outputs
        monkeypatch.setattr(analysis, "_HEATMAP_BLOCK", 64)
        columns = []

        def recorded(path, header, cols, fmts):
            columns.extend((getattr(c, "dtype", None), len(c)) for c in cols if not callable(c))
            return path

        monkeypatch.setattr(cli, "_fork_writer", recorded)
        cfg = cli.config_from_dict({"scenario": {"preset": "idm"}})
        rng = np.random.default_rng(12)
        n_t = 3000
        times = np.arange(n_t) / 30.0
        series = RingSeries(times, (-np.arange(10) * 10.0 + 5.0 * times[:, None]) % 100.0,
                            rng.uniform(4, 6, (n_t, 10)), 100.0)
        series.gaps()  # the series' own gap matrix is not the tables'
        writers = {}
        _, peak = traced_peak(cli._fork_tables, writers, str(tmp_path), cfg, series)
        assert sorted(writers.values()) == sorted(TABLE_FILES)
        n = series.velocities.size
        assert not [c for c in columns if c == (object, n)]
        # the heatmap's three outputs, one entry per vehicle per instant here
        _, heatmap_peak = traced_peak(analysis.heatmap_grid, series,
                                       cfg.outputs.heatmap_bins)
        _, cells_peak = traced_peak(cli._cells, cli.FLOAT_FMT, series.times)
        assert peak <= heatmap_peak + cells_peak + (1 << 16)

    @pytest.mark.parametrize("tables", [True, False])
    def test_one_fork_per_enabled_table(self, tmp_path, monkeypatch, tables):
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        cfg = {"scenario": {"preset": "idm", "t_end": 5.0},
               "outputs": dict.fromkeys(TABLES, tables)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "-o", str(out)) == 0
        assert len(forks) == (4 if tables else 0)
        assert (set(TABLE_FILES) <= set(os.listdir(out))) is tables
        assert_no_child_left()

    def test_failed_writer_raises_after_the_rest_is_written(self, tmp_path, capfd):
        out = tmp_path / "out"
        (out / "fd.csv").mkdir(parents=True)
        with pytest.raises(OSError, match=r"fd\.csv"):
            run_cli("run", "--preset", "idm", "--t-end", "12", "-o", str(out))
        assert_no_child_left()
        assert "IsADirectoryError" in capfd.readouterr().err
        ref = tmp_path / "ref"
        assert run_cli("run", "--preset", "idm", "--t-end", "12", "-o", str(ref)) == 0
        for name in ARTIFACTS - {"fd.csv"}:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_stats_error_propagates_and_writers_are_reaped(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ZeroDivisionError("stats failed")

        monkeypatch.setattr(cli, "compute_stats", broken)
        with pytest.raises(ZeroDivisionError, match="stats failed"):
            run_cli("run", "--preset", "idm", "--t-end", "12", "-o", str(tmp_path))
        assert_no_child_left()


class TestRoundTrip:
    def test_trajectory_roundtrip_reproduces_analysis(self, tmp_path):
        # 17-significant-digit floats must re-parse bit-exactly, so both the
        # fundamental diagram and the exponent recompute identically
        out = tmp_path / "out"
        assert run_cli("run", "--preset", "mixed", "--t-end", "30", "-o", str(out)) == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        n_veh = int(rows[:, 1].max()) + 1
        times = rows[::n_veh, 0]
        x = rows[:, 2].reshape(-1, n_veh)
        v = rows[:, 3].reshape(-1, n_veh)
        series = RingSeries(times, x, v, 100.0)
        k, q = fundamental_diagram(series)
        fd_rows = np.loadtxt(out / "fd.csv", delimiter=",", skiprows=1)
        assert np.array_equal(fd_rows[:, 2], k.ravel())
        assert np.array_equal(fd_rows[:, 3], q.ravel())
        assert np.array_equal(fd_rows[:, 4], v.ravel())

        stats = json.loads((out / "stats.json").read_text())
        from ringsim.analysis import max_lyapunov

        redone = max_lyapunov(series.velocities[:, 0], sample_rate=30.0,
                              embed_dim=3, fit_range=(0, 30))
        assert redone.lambda_max == stats["lambda_max"]
        for key in ("n_points", "n_zero_distance", "n_reference"):
            assert stats["lyapunov"][key] == getattr(redone, key)
        assert stats["lyapunov"]["n_points"] > 0


class TestCompare:
    def test_two_presets(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli("compare", "--presets", "idm,mixed", "--t-end", "10",
                       "-o", str(out))
        assert code == 0
        assert (out / "compare.csv").is_file()
        assert (out / "idm" / "stats.json").is_file()
        assert (out / "mixed" / "stats.json").is_file()
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0].startswith("preset,lambda_max")
        assert len(lines) == 3
        stdout = capsys.readouterr().out
        assert "idm" in stdout and "mixed" in stdout

    def test_same_preset_same_seed_identical_rows(self, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        run_cli("compare", "--presets", "idm", "--t-end", "10", "--seed", "5", "-o", str(out1))
        run_cli("compare", "--presets", "idm", "--t-end", "10", "--seed", "5", "-o", str(out2))
        row1 = (out1 / "compare.csv").read_text().splitlines()[1]
        row2 = (out2 / "compare.csv").read_text().splitlines()[1]
        assert row1 == row2

    def test_lambda_cell_marks_only_degenerate_estimates(self, tmp_path, monkeypatch):
        # -inf stands for an estimate max_lyapunov returned as degenerate; an
        # exponent never estimated (a series too short) leaves the cell empty
        out = tmp_path / "short"
        assert run_cli("compare", "--presets", "idm", "--t-end", "1", "-o", str(out)) == 0
        stats = json.loads((out / "idm" / "stats.json").read_text())
        assert stats["lyapunov"]["note"].startswith("series too short")
        assert (out / "compare.csv").read_text().splitlines()[1].split(",")[1] == ""

        def flat(signal, **_):
            return analysis._degenerate("constant signal: divergence undefined",
                                        3, 1, 1, (0, 30), 30.0)

        monkeypatch.setattr(analysis, "max_lyapunov", flat)
        out = tmp_path / "flat"
        assert run_cli("compare", "--presets", "idm", "--t-end", "10", "-o", str(out)) == 0
        assert (out / "compare.csv").read_text().splitlines()[1].split(",")[1] == "-inf"

    # the printed table's column widths, in the order of compare.csv's columns
    WIDTHS = (14, 12, 12, 7, 10, 10)

    def test_printed_table(self, tmp_path, capsys, monkeypatch):
        # mixed's estimate is made degenerate, so its lambda cell reads -inf
        estimate = analysis.max_lyapunov

        def degenerate_for_mixed(signal, **kw):
            calls.append(signal)
            if len(calls) == 2:  # mixed runs second
                return analysis._degenerate("constant signal: divergence undefined",
                                            3, 1, 1, (0, 30), 30.0)
            return estimate(signal, **kw)

        calls = []
        monkeypatch.setattr(analysis, "max_lyapunov", degenerate_for_mixed)
        out = tmp_path / "cmp"
        assert run_cli("compare", "--presets", "idm,mixed", "--t-end", "10",
                       "-o", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("preset          lambda_max    max_density   stops    "
                            "min_gap     final_vstd")
        assert len(lines) == 3
        for line, preset in zip(lines[1:], ("idm", "mixed")):
            stats = json.loads((out / preset / "stats.json").read_text())
            lam = stats["lambda_max"]
            if preset == "mixed":
                assert lam is None and stats["lyapunov"]["degenerate"]
                lam = -math.inf
            values = (preset, lam, stats["max_density_cars_per_m"], stats["stop_event_count"],
                      stats["min_gap_m"], stats["final_v_std_m_per_s"])
            assert line == "  ".join(cli._fmt_cell(v).ljust(w)
                                     for v, w in zip(values, self.WIDTHS))
        assert lines[2].split()[1] == "-inf"

    def test_failed_run_row(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = run_cli("compare", "--presets", "idm", "--t-end", "1e300", "-o", str(out))
        assert code == cli.EXIT_SOLVER
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("idm             FAILED: sample grid too large")
        assert (out / "compare.csv").read_text().splitlines()[1] == "idm,error,,,,"

    def test_unknown_preset_rejected(self, capsys):
        assert run_cli("compare", "--presets", "idm,warp") == cli.EXIT_CONFIG
        assert "compare.presets" in capsys.readouterr().err

    def test_repeated_preset_rejected(self, tmp_path, capsys):
        # a preset runs into its own directory: run twice, the second run
        # would delete the first one's files and repeat its row
        out = tmp_path / "cmp"
        code = run_cli("compare", "--presets", "idm,idm", "--t-end", "5", "-o", str(out))
        assert code == cli.EXIT_CONFIG
        assert "config error: compare.presets: " in capsys.readouterr().err
        assert not out.exists()
