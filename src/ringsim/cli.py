"""Command-line orchestration.

Two subcommands: ``run`` integrates one scenario (a named preset or a JSON
config file) and writes the full artifact set into an output directory;
``compare`` runs several presets and renders a one-row-per-run summary
table. Every artifact is plain delimited text or JSON; floats are written
with 17 significant digits so re-parsing reproduces them bit-exactly, and
the emitted manifest is itself a loadable config that reproduces the run.

Exit codes: 0 success, 2 configuration error, 3 collision-terminated run,
4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, analysis, ring
from .integrators import IntegrationError, IntegratorConfig
from .models import FsParams, IdmParams

__all__ = ["ConfigError", "main", "load_config", "run_one"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLISION = 3
EXIT_SOLVER = 4

OUT_ENV_VAR = "RINGSIM_OUT"

FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class AnalysisSettings:
    """Post-processing knobs; defaults match the stock scenarios."""

    lyapunov_vehicle: int = 0
    embed_dim: int = 3
    lag: int | None = None
    min_separation: int | None = None
    fit_window_s: float = 1.0
    trim_s: float = 0.0
    heatmap_bins: int = 100
    stop_speed: float = 0.1
    settle_window_s: float = 200.0
    final_window_s: float = 100.0


@dataclass
class OutputSettings:
    dir: str | None = None
    trajectory: bool = True
    fd: bool = True
    heatmap: bool = True
    phase: bool = True


@dataclass
class RunConfig:
    scenario: ring.RingScenario
    integrator: IntegratorConfig
    analysis: AnalysisSettings
    outputs: OutputSettings


def _expect(d, path: str, allowed: set[str]):
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {type(d).__name__}")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _number(d, key, path, default, minimum=None, allow_none=False):
    val = d.get(key, default)
    if val is None and allow_none:
        return None
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {val!r}")
    return float(val)


def _integer(d, key, path, default, minimum=None, allow_none=False):
    val = d.get(key, default)
    if val is None and allow_none:
        return None
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {val!r}")
    return int(val)


def _vehicle_from_dict(d, path: str):
    if not isinstance(d, dict):
        raise ConfigError(path, "expected an object per vehicle")
    kind = d.get("controller")
    if kind == "idm":
        allowed = {"controller", "a", "v0", "delta", "s0", "T", "b"}
        _expect(d, path, allowed)
        base = IdmParams()
        kwargs = {
            k: _number(d, k, path, getattr(base, k))
            for k in ("a", "v0", "delta", "s0", "T", "b")
        }
        try:
            return IdmParams(**kwargs)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if kind == "fs":
        allowed = {"controller", "r", "omega", "alpha", "k_track"}
        _expect(d, path, allowed)
        base = FsParams()
        kwargs = {
            "r": _number(d, "r", path, base.r),
            "k_track": _number(d, "k_track", path, base.k_track),
        }
        for k in ("omega", "alpha"):
            val = d.get(k, list(getattr(base, k)))
            if not isinstance(val, (list, tuple)) or len(val) != 3:
                raise ConfigError(f"{path}.{k}", "expected a list of 3 numbers")
            kwargs[k] = tuple(float(x) for x in val)
        try:
            return FsParams(**kwargs)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.controller", f"expected 'idm' or 'fs', got {kind!r}")


def _scenario_from_dict(d, path="scenario") -> ring.RingScenario:
    allowed = {
        "preset", "vehicles", "ring_length", "tau", "v_init",
        "perturb_amp", "seed", "t_end", "sample_hz",
    }
    _expect(d, path, allowed)
    preset = d.get("preset")
    if preset is not None:
        if preset not in ring.PRESET_NAMES:
            raise ConfigError(
                f"{path}.preset", f"expected one of {ring.PRESET_NAMES}, got {preset!r}"
            )
        if "vehicles" in d:
            raise ConfigError(f"{path}.vehicles", "give either a preset or a vehicle list")
        base = ring.build_uniform_scenario(preset)
    elif "vehicles" in d:
        vehicles = d["vehicles"]
        if not isinstance(vehicles, list) or len(vehicles) < 2:
            raise ConfigError(f"{path}.vehicles", "expected a list of at least 2 vehicles")
        controllers = tuple(
            _vehicle_from_dict(v, f"{path}.vehicles[{i}]") for i, v in enumerate(vehicles)
        )
        try:
            base = ring.RingScenario(
                ring_length=_number(d, "ring_length", path, 100.0, minimum=1e-9),
                controllers=controllers,
            )
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    else:
        raise ConfigError(f"{path}.preset", "a preset name or a vehicle list is required")
    overrides = {}
    if "ring_length" in d and preset is not None:
        overrides["ring_length"] = _number(d, "ring_length", path, base.ring_length, minimum=1e-9)
    overrides["tau"] = _number(d, "tau", path, base.tau, minimum=0.0)
    overrides["v_init"] = _number(d, "v_init", path, base.v_init, minimum=0.0)
    overrides["perturb_amp"] = _number(d, "perturb_amp", path, base.perturb_amp, minimum=0.0)
    overrides["seed"] = _integer(d, "seed", path, base.seed)
    overrides["t_end"] = _number(d, "t_end", path, base.t_end, minimum=0.0)
    overrides["sample_hz"] = _number(d, "sample_hz", path, base.sample_hz, minimum=1e-9)
    try:
        return replace(base, **overrides)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _integrator_from_dict(d, path="integrator") -> IntegratorConfig:
    allowed = {"rel_tol", "abs_tol", "h_init", "h_max", "max_steps"}
    _expect(d, path, allowed)
    base = IntegratorConfig()
    try:
        return IntegratorConfig(
            rel_tol=_number(d, "rel_tol", path, base.rel_tol, minimum=0.0),
            abs_tol=_number(d, "abs_tol", path, base.abs_tol, minimum=0.0),
            h_init=_number(d, "h_init", path, base.h_init, allow_none=True),
            h_max=_number(d, "h_max", path, base.h_max, minimum=0.0),
            max_steps=_integer(d, "max_steps", path, base.max_steps, minimum=1),
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _analysis_from_dict(d, path="analysis") -> AnalysisSettings:
    allowed = {
        "lyapunov_vehicle", "embed_dim", "lag", "min_separation", "fit_window_s",
        "trim_s", "heatmap_bins", "stop_speed", "settle_window_s", "final_window_s",
    }
    _expect(d, path, allowed)
    base = AnalysisSettings()
    return AnalysisSettings(
        lyapunov_vehicle=_integer(d, "lyapunov_vehicle", path, base.lyapunov_vehicle, minimum=0),
        embed_dim=_integer(d, "embed_dim", path, base.embed_dim, minimum=1),
        lag=_integer(d, "lag", path, base.lag, minimum=1, allow_none=True),
        min_separation=_integer(d, "min_separation", path, base.min_separation,
                                minimum=1, allow_none=True),
        fit_window_s=_number(d, "fit_window_s", path, base.fit_window_s, minimum=1e-9),
        trim_s=_number(d, "trim_s", path, base.trim_s, minimum=0.0),
        heatmap_bins=_integer(d, "heatmap_bins", path, base.heatmap_bins, minimum=1),
        stop_speed=_number(d, "stop_speed", path, base.stop_speed, minimum=0.0),
        settle_window_s=_number(d, "settle_window_s", path, base.settle_window_s, minimum=0.0),
        final_window_s=_number(d, "final_window_s", path, base.final_window_s, minimum=0.0),
    )


def _outputs_from_dict(d, path="outputs") -> OutputSettings:
    allowed = {"dir", "trajectory", "fd", "heatmap", "phase"}
    _expect(d, path, allowed)
    base = OutputSettings()
    out_dir = d.get("dir", base.dir)
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"{path}.dir", "expected a string path")
    settings = OutputSettings(dir=out_dir)
    for key in ("trajectory", "fd", "heatmap", "phase"):
        val = d.get(key, True)
        if not isinstance(val, bool):
            raise ConfigError(f"{path}.{key}", f"expected true or false, got {val!r}")
        setattr(settings, key, val)
    return settings


def config_from_dict(d) -> RunConfig:
    """Validate and resolve a configuration mapping into a RunConfig."""
    if not isinstance(d, dict):
        raise ConfigError("config", "top level must be an object")
    if "config" in d and "scenario" not in d:
        d = d["config"]  # manifest files wrap the config they echo
        if not isinstance(d, dict):
            raise ConfigError("config", "manifest 'config' entry must be an object")
    _expect(d, "config", {"scenario", "integrator", "analysis", "outputs"})
    if "scenario" not in d:
        raise ConfigError("config.scenario", "required section missing")
    return RunConfig(
        scenario=_scenario_from_dict(d["scenario"]),
        integrator=_integrator_from_dict(d.get("integrator", {})),
        analysis=_analysis_from_dict(d.get("analysis", {})),
        outputs=_outputs_from_dict(d.get("outputs", {})),
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


def _vehicle_to_dict(p) -> dict:
    if isinstance(p, IdmParams):
        return {"controller": "idm", "a": p.a, "v0": p.v0, "delta": p.delta,
                "s0": p.s0, "T": p.T, "b": p.b}
    return {"controller": "fs", "r": p.r, "omega": list(p.omega),
            "alpha": list(p.alpha), "k_track": p.k_track}


def config_to_dict(cfg: RunConfig) -> dict:
    """Fully resolved echo of a RunConfig; loadable by config_from_dict."""
    sc = cfg.scenario
    it = cfg.integrator
    an = cfg.analysis
    out = cfg.outputs
    return {
        "scenario": {
            "ring_length": sc.ring_length,
            "vehicles": [_vehicle_to_dict(p) for p in sc.controllers],
            "tau": sc.tau,
            "v_init": sc.v_init,
            "perturb_amp": sc.perturb_amp,
            "seed": sc.seed,
            "t_end": sc.t_end,
            "sample_hz": sc.sample_hz,
        },
        "integrator": {
            "rel_tol": it.rel_tol, "abs_tol": it.abs_tol, "h_init": it.h_init,
            "h_max": it.h_max, "max_steps": it.max_steps,
        },
        "analysis": {
            "lyapunov_vehicle": an.lyapunov_vehicle, "embed_dim": an.embed_dim,
            "lag": an.lag, "min_separation": an.min_separation,
            "fit_window_s": an.fit_window_s, "trim_s": an.trim_s,
            "heatmap_bins": an.heatmap_bins, "stop_speed": an.stop_speed,
            "settle_window_s": an.settle_window_s, "final_window_s": an.final_window_s,
        },
        "outputs": {
            "dir": out.dir, "trajectory": out.trajectory, "fd": out.fd,
            "heatmap": out.heatmap, "phase": out.phase,
        },
    }


def _write_table(path, header: str, columns, fmts):
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt=fmts, delimiter=",", header=header, comments="")


def write_artifacts(out_dir: str, cfg: RunConfig, traj, series) -> dict:
    """Write every enabled artifact; returns the stats mapping."""
    os.makedirs(out_dir, exist_ok=True)
    sc = cfg.scenario
    an = cfg.analysis
    n_veh = sc.n_vehicles
    n_t = series.times.size
    veh_col = np.tile(np.arange(n_veh), n_t)
    t_col = np.repeat(series.times, n_veh)

    if cfg.outputs.trajectory:
        _write_table(
            os.path.join(out_dir, "trajectory.csv"),
            "t_s,vehicle,x_m,v_m_per_s",
            [t_col, veh_col, series.positions.ravel(), series.velocities.ravel()],
            [FLOAT_FMT, "%d", FLOAT_FMT, FLOAT_FMT],
        )
    if cfg.outputs.fd:
        fd = analysis.fundamental_diagram(series)
        _write_table(
            os.path.join(out_dir, "fd.csv"),
            "t_s,vehicle,k_cars_per_m,q_cars_per_s,v_m_per_s",
            [fd["t"], fd["vehicle"], fd["k"], fd["q"], fd["v"]],
            [FLOAT_FMT, "%d", FLOAT_FMT, FLOAT_FMT, FLOAT_FMT],
        )
    if cfg.outputs.heatmap:
        grid, _ = analysis.heatmap_grid(series, an.heatmap_bins)
        rows, bins = np.nonzero(np.isfinite(grid))
        _write_table(
            os.path.join(out_dir, "heatmap.csv"),
            "t_s,bin,mean_v_m_per_s",
            [series.times[rows], bins, grid[rows, bins]],
            [FLOAT_FMT, "%d", FLOAT_FMT],
        )
    if cfg.outputs.phase:
        proj = np.stack([analysis.phase_projection(series, i) for i in range(n_veh)])
        gaps = proj[:, :, 0].T.ravel()   # back to instant-major order
        dv = proj[:, :, 1].T.ravel()
        _write_table(
            os.path.join(out_dir, "phase.csv"),
            "t_s,vehicle,gap_m,dv_m_per_s",
            [t_col, veh_col, gaps, dv],
            [FLOAT_FMT, "%d", FLOAT_FMT, FLOAT_FMT],
        )

    stats = compute_stats(cfg, traj, series)
    with open(os.path.join(out_dir, "stats.json"), "w") as fh:
        json.dump(stats, fh, indent=2, allow_nan=False)
        fh.write("\n")

    events = analysis.stop_events(series, an.stop_speed)
    with open(os.path.join(out_dir, "events.csv"), "w") as fh:
        fh.write("t_s,event,vehicle\n")
        for t, veh in events:
            fh.write(f"{t:.17g},stop,{veh}\n")
        for t, payload in traj.events:
            veh = getattr(payload, "vehicle", "")
            fh.write(f"{t:.17g},collision,{veh}\n")

    manifest = {"tool": "ringsim", "version": __version__, "config": config_to_dict(cfg)}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return stats


def _finite_or_none(x):
    return float(x) if x is not None and math.isfinite(x) else None


def compute_stats(cfg: RunConfig, traj, series) -> dict:
    sc = cfg.scenario
    an = cfg.analysis
    fleet = analysis.fleet_stats(series, an.stop_speed)
    events = analysis.stop_events(series, an.stop_speed)
    first_stop = events[0][0] if events else None
    after_settle = [e for e in events if e[0] > an.settle_window_s]
    final = series.window(series.times[-1] - an.final_window_s)
    final_v_std = float(final.velocities.std(axis=1).max()) if final.times.size else 0.0

    lyap = None
    lyap_error = None
    try:
        trimmed = series.window(an.trim_s) if an.trim_s > 0 else series
        signal = trimmed.velocities[:, an.lyapunov_vehicle]
        fit_end = max(1, int(round(an.fit_window_s * sc.sample_hz)))
        lyap = analysis.max_lyapunov(
            signal,
            sample_rate=sc.sample_hz,
            embed_dim=an.embed_dim,
            lag=an.lag,
            min_separation=an.min_separation,
            fit_range=(0, fit_end),
        )
    except ValueError as exc:
        lyap_error = str(exc)

    collision = traj.status == "terminated"
    collision_time = traj.events[-1][0] if collision and traj.events else None
    stats = {
        "status": traj.status,
        "collision": collision,
        "collision_time_s": _finite_or_none(collision_time),
        "t_end_s": float(series.times[-1]),
        "n_samples": int(series.times.size),
        "lambda_max": _finite_or_none(lyap.lambda_max) if lyap else None,
        "lyapunov": None,
        "max_density_cars_per_m": fleet.max_density,
        "median_density_cars_per_m": float(np.median(1.0 / series.gaps())),
        "min_gap_m": fleet.min_gap,
        "stop_event_count": fleet.stop_event_count,
        "stop_events_after_settle": len(after_settle),
        "first_stop_time_s": _finite_or_none(first_stop),
        "final_v_std_m_per_s": final_v_std,
    }
    if lyap is not None:
        stats["lyapunov"] = {
            "embed_dim": lyap.embed_dim,
            "lag": lyap.lag,
            "min_separation": lyap.min_separation,
            "fit_range": list(lyap.fit_range),
            "n_reference": lyap.n_reference,
            "n_points": lyap.n_points,
            "n_zero_distance": lyap.n_zero_distance,
            "degenerate": lyap.degenerate,
            "note": lyap.note,
        }
    else:
        stats["lyapunov"] = {"degenerate": True, "note": lyap_error or "not computed"}
    return stats


def run_one(cfg: RunConfig, out_dir: str) -> tuple[int, dict]:
    """Integrate, analyze and write one run; returns (exit code, stats)."""
    try:
        traj = ring.simulate(cfg.scenario, cfg.integrator)
    except IntegrationError as exc:
        os.makedirs(out_dir, exist_ok=True)
        manifest = {"tool": "ringsim", "version": __version__,
                    "config": config_to_dict(cfg), "error": str(exc)}
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, allow_nan=False)
            fh.write("\n")
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER, {"status": "solver_failure", "error": str(exc)}
    series = ring.sample(traj, cfg.scenario)
    stats = write_artifacts(out_dir, cfg, traj, series)
    return (EXIT_COLLISION if traj.status == "terminated" else EXIT_OK), stats


def _default_out_dir() -> str:
    return os.environ.get(OUT_ENV_VAR, "runs")


def _apply_cli_overrides(cfg: RunConfig, args) -> RunConfig:
    sc = cfg.scenario
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    if getattr(args, "t_end", None) is not None:
        sc = replace(sc, t_end=args.t_end)
    it = cfg.integrator
    if args.rel_tol is not None:
        it = replace(it, rel_tol=args.rel_tol)
    if args.abs_tol is not None:
        it = replace(it, abs_tol=args.abs_tol)
    return RunConfig(scenario=sc, integrator=it, analysis=cfg.analysis, outputs=cfg.outputs)


def _fmt_cell(x):
    if x is None:
        return "n/a"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def cmd_run(args) -> int:
    if args.config:
        cfg = load_config(args.config)
    elif args.preset:
        cfg = config_from_dict({"scenario": {"preset": args.preset}})
    else:
        raise ConfigError("run", "either --preset or --config is required")
    cfg = _apply_cli_overrides(cfg, args)
    out_dir = args.out or cfg.outputs.dir or _default_out_dir()
    code, stats = run_one(cfg, out_dir)
    if code != EXIT_SOLVER:
        lam = stats.get("lambda_max")
        print(
            f"run finished: status={stats['status']} t_end={stats['t_end_s']:g}s "
            f"lambda_max={_fmt_cell(lam)} stops={stats['stop_event_count']} "
            f"max_density={stats['max_density_cars_per_m']:.4g} -> {out_dir}"
        )
    return code


COMPARE_COLUMNS = (
    "preset", "lambda_max", "max_density_cars_per_m", "stop_event_count",
    "min_gap_m", "final_v_std_m_per_s",
)


def cmd_compare(args) -> int:
    presets = [p.strip() for p in args.presets.split(",") if p.strip()]
    if not presets:
        raise ConfigError("compare.presets", "at least one preset is required")
    for p in presets:
        if p not in ring.PRESET_NAMES:
            raise ConfigError("compare.presets", f"unknown preset {p!r}")
    out_root = args.out or _default_out_dir()
    rows = []
    worst = EXIT_OK
    for preset in presets:
        cfg = config_from_dict({"scenario": {"preset": preset}})
        cfg = _apply_cli_overrides(cfg, args)
        code, stats = run_one(cfg, os.path.join(out_root, preset))
        worst = max(worst, code)
        if code == EXIT_SOLVER:
            rows.append({"preset": preset, "error": stats.get("error", "solver failure")})
        else:
            row = {"preset": preset}
            for key in COMPARE_COLUMNS[1:]:
                row[key] = stats.get(key)
            if stats.get("lambda_max") is None:
                row["lambda_max"] = float("-inf") if stats["lyapunov"]["degenerate"] else None
            rows.append(row)

    os.makedirs(out_root, exist_ok=True)
    table_path = os.path.join(out_root, "compare.csv")
    with open(table_path, "w") as fh:
        fh.write(",".join(COMPARE_COLUMNS) + "\n")
        for row in rows:
            if "error" in row:
                fh.write(f"{row['preset']},error,,,,\n")
                continue
            cells = [row["preset"]] + [
                ("" if row[c] is None else repr(row[c]) if isinstance(row[c], float) else str(row[c]))
                for c in COMPARE_COLUMNS[1:]
            ]
            fh.write(",".join(cells) + "\n")

    widths = [14, 12, 12, 7, 10, 10]
    print("  ".join(name.ljust(w) for name, w in zip(
        ("preset", "lambda_max", "max_density", "stops", "min_gap", "final_vstd"), widths)))
    for row in rows:
        if "error" in row:
            print(f"{row['preset']:<14}  FAILED: {row['error']}")
            continue
        cells = (
            row["preset"], _fmt_cell(row["lambda_max"]),
            _fmt_cell(row["max_density_cars_per_m"]), str(row["stop_event_count"]),
            _fmt_cell(row["min_gap_m"]), _fmt_cell(row["final_v_std_m_per_s"]),
        )
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringsim",
        description="Ring-road car-following simulation and stability analysis",
    )
    parser.add_argument("--version", action="version", version=f"ringsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate one scenario and write artifacts")
    run_p.add_argument("--preset", choices=ring.PRESET_NAMES, help="stock scenario name")
    run_p.add_argument("--config", help="JSON config file (or a manifest from a prior run)")
    run_p.add_argument("--seed", type=int, help="perturbation seed override")
    run_p.add_argument("--t-end", dest="t_end", type=float, help="duration override (s)")
    run_p.add_argument("--rel-tol", dest="rel_tol", type=float, help="solver rel_tol override")
    run_p.add_argument("--abs-tol", dest="abs_tol", type=float, help="solver abs_tol override")
    run_p.add_argument("-o", "--out", help=f"output directory (default ${OUT_ENV_VAR} or ./runs)")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several presets and tabulate the results")
    cmp_p.add_argument("--presets", default=",".join(ring.PRESET_NAMES),
                       help="comma-separated preset names")
    cmp_p.add_argument("--seed", type=int, help="perturbation seed override")
    cmp_p.add_argument("--t-end", dest="t_end", type=float, help="duration override (s)")
    cmp_p.add_argument("--rel-tol", dest="rel_tol", type=float, help="solver rel_tol override")
    cmp_p.add_argument("--abs-tol", dest="abs_tol", type=float, help="solver abs_tol override")
    cmp_p.add_argument("-o", "--out", help="output root; one subdirectory per preset")
    cmp_p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
