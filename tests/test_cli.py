import hashlib
import json
import os

import numpy as np
import pytest

import ringsim.ring
from ringsim import cli
from ringsim.analysis import fundamental_diagram
from ringsim.ring import RingSeries


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
        assert run_cli("run") == cli.EXIT_CONFIG


class TestFailureExitCodes:
    def test_collision_exit_code(self, tmp_path, monkeypatch):
        real_simulate = ringsim.ring.simulate

        def collide(scenario, cfg=None, z0=None):
            traj = real_simulate(scenario, cfg, z0)
            traj.status = "terminated"
            traj.events.append((float(traj.times[-1]), ringsim.ring.Collision(3)))
            return traj

        monkeypatch.setattr(cli.ring, "simulate", collide)
        out = tmp_path / "out"
        code = run_cli("run", "--preset", "idm", "--t-end", "4", "-o", str(out))
        assert code == cli.EXIT_COLLISION
        stats = json.loads((out / "stats.json").read_text())
        assert stats["collision"] is True
        events = (out / "events.csv").read_text()
        assert "collision,3" in events

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
        fd = fundamental_diagram(series)
        fd_rows = np.loadtxt(out / "fd.csv", delimiter=",", skiprows=1)
        assert np.array_equal(fd_rows[:, 2], fd["k"])
        assert np.array_equal(fd_rows[:, 3], fd["q"])
        assert np.array_equal(fd_rows[:, 4], fd["v"])

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

    def test_unknown_preset_rejected(self, capsys):
        assert run_cli("compare", "--presets", "idm,warp") == cli.EXIT_CONFIG
        assert "compare.presets" in capsys.readouterr().err
