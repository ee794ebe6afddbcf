"""Command-line orchestration.

Two subcommands: ``run`` integrates one scenario (a named preset or a JSON
config file) and writes the full artifact set into an output directory;
``compare`` runs several presets and renders a one-row-per-run summary
table. Every artifact is plain delimited text or JSON; floats are written
with 17 significant digits so re-parsing reproduces them bit-exactly, and
the emitted manifest is itself a loadable config that reproduces the run.
Each enabled table of a run is written by its own forked writer process
while the run's stats are computed, so writing a run needs POSIX
``os.fork``; the files are the same bytes a serial writer would give.

Exit codes: 0 success, 2 configuration error, 3 collision-terminated run,
4 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import traceback
import typing
from dataclasses import dataclass

import numpy as np

from . import __version__, analysis, ring
from .integrators import IntegrationError, IntegratorConfig
from .models import FsParams, IdmParams

__all__ = ["ConfigError", "main", "config_from_dict", "run_one"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLISION = 3
EXIT_SOLVER = 4

OUT_ENV_VAR = "RINGSIM_OUT"

FLOAT_FMT = "%.17g"
_ROW_BLOCK = 1 << 14  # CSV rows formatted per write in ``_write_table``


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

    def __post_init__(self):
        for name in ("lyapunov_vehicle", "trim_s", "stop_speed",
                     "settle_window_s", "final_window_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("embed_dim", "heatmap_bins", "lag", "min_separation"):
            val = getattr(self, name)
            if val is not None and val < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.fit_window_s > 0:
            raise ValueError("fit_window_s must be positive")


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

    def __post_init__(self):
        n = self.scenario.n_vehicles
        if self.analysis.lyapunov_vehicle >= n:
            raise ValueError(
                f"analysis.lyapunov_vehicle must be below the number of vehicles ({n})"
            )


# The "controller" tag of a vehicle entry names its parameter class.
_CONTROLLERS = {"idm": IdmParams, "fs": FsParams}
_SECTIONS = {"integrator": IntegratorConfig, "analysis": AnalysisSettings,
             "outputs": OutputSettings}
# Command-line overrides: flag -> (section, field, type, help). Each is set
# in the config mapping and so checked like the field it sets.
_CLI_OVERRIDES = {
    "--seed": ("scenario", "seed", int, "perturbation seed override"),
    "--t-end": ("scenario", "t_end", float, "duration override (s)"),
    "--rel-tol": ("integrator", "rel_tol", float, "solver rel_tol override"),
    "--abs-tol": ("integrator", "abs_tol", float, "solver abs_tol override"),
}
# Accepted JSON types and their description, per scalar annotation. Floats
# must be finite: the manifest echoes every field and cannot hold inf or NaN.
_SCALARS = {float: ((int, float), "a finite number"), int: (int, "an integer"),
            bool: (bool, "true or false"), str: (str, "a string")}


@functools.cache
def _field_types(cls) -> dict:
    """Resolved annotation of each field of a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _typed(val, tp, path: str):
    """val checked against the annotation tp; ints become floats where a
    float is expected, and bools are never numbers."""
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        if val is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
    if tp in _SCALARS:
        accepted, what = _SCALARS[tp]
        if isinstance(val, accepted) and (tp is bool or not isinstance(val, bool)):
            if tp is not float:
                return val
            if abs(val) <= sys.float_info.max:  # false for NaN, inf and huge ints
                return float(val)
        raise ConfigError(path, f"expected {what}, got {val!r}")
    if typing.get_origin(tp) is tuple and Ellipsis not in args:
        if not isinstance(val, (list, tuple)) or len(val) != len(args):
            raise ConfigError(path, f"expected a list of {len(args)} entries, got {val!r}")
        return tuple(_typed(x, a, f"{path}[{i}]") for i, (x, a) in enumerate(zip(val, args)))
    raise TypeError(f"{path}: no config parser for {tp!r}")


def _object(d, path: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {type(d).__name__}")
    return d


def _section(cls, d: dict, path: str, skip=(), base=None, **given):
    """Build cls from the mapping d.

    Every key of d outside skip must name a field of cls that is not in
    given, with a value of the field's annotated type. Fields missing from
    d come from given, then from base, then from the class defaults. The
    dataclass's own checks bound the values; a ValueError they raise
    becomes a ConfigError at path.
    """
    types = _field_types(cls)
    kwargs = dict(given)
    for key, val in d.items():
        if key in skip:
            continue
        if key not in types or key in given:
            raise ConfigError(f"{path}.{key}", "unknown field")
        kwargs[key] = _typed(val, types[key], f"{path}.{key}")
    try:
        return cls(**kwargs) if base is None else dataclasses.replace(base, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _vehicle_from_dict(d, path: str):
    kind = _object(d, path).get("controller")
    if not isinstance(kind, str) or kind not in _CONTROLLERS:
        raise ConfigError(f"{path}.controller", f"expected 'idm' or 'fs', got {kind!r}")
    return _section(_CONTROLLERS[kind], d, path, skip=("controller",))


def _scenario_from_dict(d, path="scenario") -> ring.RingScenario:
    skip = ("preset", "vehicles")  # "vehicles" is the config name of the controllers
    preset = _object(d, path).get("preset")
    if preset is not None:
        if preset not in ring.PRESET_NAMES:
            raise ConfigError(
                f"{path}.preset", f"expected one of {ring.PRESET_NAMES}, got {preset!r}"
            )
        if "vehicles" in d:
            raise ConfigError(f"{path}.vehicles", "give either a preset or a vehicle list")
        base = ring.build_uniform_scenario(preset)
        return _section(ring.RingScenario, d, path, skip, base, controllers=base.controllers)
    if "vehicles" not in d:
        raise ConfigError(f"{path}.preset", "a preset name or a vehicle list is required")
    vehicles = d["vehicles"]
    if not isinstance(vehicles, list) or len(vehicles) < 2:
        raise ConfigError(f"{path}.vehicles", "expected a list of at least 2 vehicles")
    controllers = tuple(
        _vehicle_from_dict(v, f"{path}.vehicles[{i}]") for i, v in enumerate(vehicles)
    )
    return _section(ring.RingScenario, {"ring_length": 100.0, **d}, path, skip,
                    controllers=controllers)


def config_from_dict(d) -> RunConfig:
    """Validate and resolve a configuration mapping into a RunConfig."""
    if isinstance(d, dict) and "config" in d and "scenario" not in d:
        d = d["config"]  # manifest files wrap the config they echo
    for key in _object(d, "config"):
        if key != "scenario" and key not in _SECTIONS:
            raise ConfigError(f"config.{key}", "unknown field")
    if "scenario" not in d:
        raise ConfigError("config.scenario", "required section missing")
    scenario = _scenario_from_dict(d["scenario"])
    sections = {name: _section(cls, _object(d.get(name, {}), name), name)
                for name, cls in _SECTIONS.items()}
    try:
        return RunConfig(scenario=scenario, **sections)
    except ValueError as exc:
        raise ConfigError("config", str(exc)) from exc


def config_to_dict(cfg: RunConfig) -> dict:
    """Fully resolved echo of a RunConfig; loadable by config_from_dict."""
    out = dataclasses.asdict(cfg)
    tags = {cls: name for name, cls in _CONTROLLERS.items()}
    scenario = out["scenario"]
    scenario["controllers"] = [{"controller": tags[type(p)], **v}
                               for p, v in zip(cfg.scenario.controllers, scenario["controllers"])]
    # renamed in place, so the echo keeps the field order
    out["scenario"] = {"vehicles" if k == "controllers" else k: v for k, v in scenario.items()}
    return out


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _manifest(cfg: RunConfig, **extra) -> dict:
    """Loadable record of a run: the tool, its version and the resolved config."""
    return {"tool": "ringsim", "version": __version__, "config": config_to_dict(cfg), **extra}


def _cells(fmt: str, values) -> np.ndarray:
    """Each value formatted with fmt once, as an object array of strings.

    Tables index or repeat it and write the shared strings with "%s".
    """
    return np.array([fmt % x for x in np.asarray(values).tolist()], dtype=object)


def _write_table(path, header: str, columns, fmts) -> None:
    """Write a CSV file: the header line, then row i of the columns formatted
    with fmts, _ROW_BLOCK rows at a time. A column of cells from ``_cells``
    takes the format "%s"."""
    fmt = ",".join(fmts) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _ROW_BLOCK):
            block = [np.asarray(col[i:i + _ROW_BLOCK]).tolist() for col in columns]
            fh.write("".join(fmt % row for row in zip(*block)))


def _fork_writer(path, header: str, columns, fmts) -> int:
    """Fork a child that writes one table with _write_table; returns its pid.

    The child only formats and writes, never numpy's threaded linear
    algebra. It leaves through os._exit: 0 on success, 1 after printing
    the traceback to stderr on any exception. So it never returns into the
    caller's code or runs its atexit handlers.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _write_table(path, header, columns, fmts)
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(code)
    return pid


def _fork_tables(writers: dict, out_dir: str, cfg: RunConfig, series) -> None:
    """Build every enabled table's columns and fork its writer, recording
    each writer in writers as pid -> file name.

    A table's columns are dropped as soon as its writer is forked, so the
    caller's later work does not hold them.
    """
    out = cfg.outputs
    if not (out.trajectory or out.fd or out.heatmap or out.phase):
        return
    n_t, n_veh = series.velocities.shape
    # each instant's time and each vehicle index is formatted once per run
    t_cells = _cells(FLOAT_FMT, series.times)
    fleet = [np.repeat(t_cells, n_veh), np.tile(_cells("%d", np.arange(n_veh)), n_t)]

    def fork(name, header, columns, fmts):
        writers[_fork_writer(os.path.join(out_dir, name), header, columns, fmts)] = name

    def fleet_table(name, header, *tables):
        """One row per vehicle per instant: t, vehicle, then the tables' values."""
        fork(name, "t_s,vehicle," + header, fleet + [a.ravel() for a in tables],
             ["%s", "%s"] + [FLOAT_FMT] * len(tables))

    if out.trajectory:
        fleet_table("trajectory.csv", "x_m,v_m_per_s", series.positions, series.velocities)
    if out.fd:
        fleet_table("fd.csv", "k_cars_per_m,q_cars_per_s,v_m_per_s",
                    *analysis.fundamental_diagram(series), series.velocities)
    if out.heatmap:
        rows, bins, mean_v = analysis.heatmap_grid(series, cfg.analysis.heatmap_bins)
        fork("heatmap.csv", "t_s,bin,mean_v_m_per_s",
             [t_cells[rows], bins, mean_v], ["%s", "%d", FLOAT_FMT])
        del rows, bins, mean_v
    if out.phase:
        fleet_table("phase.csv", "gap_m,dv_m_per_s", *analysis.phase_projection(series))


def _reap(writers: dict) -> list[str]:
    """Wait for every writer; returns a message for each one that failed."""
    failed = []
    for pid, name in writers.items():
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            how = f"signal {-code}" if code < 0 else f"exit code {code}"
            failed.append(f"writer of {name} failed ({how})")
    return failed


def write_artifacts(out_dir: str, cfg: RunConfig, traj, series) -> dict:
    """Write every enabled artifact; returns the stats mapping.

    Each enabled table (trajectory, fd, heatmap, phase) is built here and
    written by its own forked writer process, while this process computes
    the stats and writes events.csv, stats.json and manifest.json. Every
    writer is reaped before this returns or raises. A failed writer raises
    OSError naming its file, unless an exception is already propagating.
    Needs POSIX os.fork.
    """
    os.makedirs(out_dir, exist_ok=True)
    writers = {}  # pid -> table file name
    try:
        _fork_tables(writers, out_dir, cfg, series)
        stops = analysis.stop_events(series, cfg.analysis.stop_speed)
        stats = compute_stats(cfg, traj, series, stops)
        _write_json(os.path.join(out_dir, "stats.json"), stats)

        # stop rows first, then the collision that ended the run, if any;
        # with no events the table is the header alone
        events = [(t, "stop", veh) for t, veh in stops]
        events += [(t, "collision", exc.vehicle) for t, exc in traj.events]
        _write_table(os.path.join(out_dir, "events.csv"), "t_s,event,vehicle",
                     list(zip(*events)) or [()] * 3, [FLOAT_FMT, "%s", "%d"])

        _write_json(os.path.join(out_dir, "manifest.json"), _manifest(cfg))
    finally:
        failed = _reap(writers)
    if failed:
        raise OSError(f"{out_dir}: " + "; ".join(failed))
    return stats


def _finite_or_none(x):
    return float(x) if x is not None and math.isfinite(x) else None


def compute_stats(cfg: RunConfig, traj, series, stops) -> dict:
    """The stats.json mapping of a run; stops are the series' stop events."""
    sc = cfg.scenario
    an = cfg.analysis
    gaps = series.gaps()
    density = analysis.voronoi_density(gaps)
    first_stop = stops[0][0] if stops else None
    after_settle = [e for e in stops if e[0] > an.settle_window_s]
    final = series.window(series.times[-1] - an.final_window_s)
    final_v_std = float(final.velocities.std(axis=1).max())

    collision = traj.status == "terminated"
    collision_time = traj.events[-1][0] if collision else None
    min_gap, max_density = float(gaps.min()), float(density.max())
    lyap = None
    lyap_error = None
    if collision:
        # the samples stop short of the touching state; the last accepted
        # state is the closest to it
        x = traj.states[-1, 0::2]
        min_gap = min(min_gap, float(((x[series.leader_index()] - x) % sc.ring_length).min()))
        max_density = max(max_density, 1.0 / min_gap)
        lyap_error = (f"not computed: run terminated by a collision of vehicle "
                      f"{traj.events[-1][1].vehicle} at t={float(collision_time)!r}")
    else:
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

    stats = {
        "status": traj.status,
        "collision": collision,
        "collision_time_s": _finite_or_none(collision_time),
        "t_end_s": float(series.times[-1]),
        "n_samples": int(series.times.size),
        "lambda_max": _finite_or_none(lyap.lambda_max) if lyap else None,
        "lyapunov": None,
        "max_density_cars_per_m": max_density,
        "median_density_cars_per_m": float(np.median(density)),
        "min_gap_m": min_gap,
        "stop_event_count": len(stops),
        "stop_events_after_settle": len(after_settle),
        "first_stop_time_s": _finite_or_none(first_stop),
        "final_v_std_m_per_s": final_v_std,
    }
    if lyap is not None:
        stats["lyapunov"] = {
            f.name: getattr(lyap, f.name) for f in dataclasses.fields(lyap)
            if f.name not in ("lambda_max", "sample_rate", "divergence_curve")
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
        _write_json(os.path.join(out_dir, "manifest.json"), _manifest(cfg, error=str(exc)))
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER, {"status": "solver_failure", "error": str(exc)}
    series = ring.sample(traj, cfg.scenario)
    stats = write_artifacts(out_dir, cfg, traj, series)
    return (EXIT_COLLISION if traj.status == "terminated" else EXIT_OK), stats


def _default_out_dir() -> str:
    return os.environ.get(OUT_ENV_VAR, "runs")


def _config_with_overrides(d, args) -> RunConfig:
    """RunConfig of the config mapping d with the command-line overrides
    set in its sections, so they get the checks of a config-file field."""
    if isinstance(d, dict) and "config" in d and "scenario" not in d:
        d = d["config"]  # a manifest: override the config it echoes
    for section, key, _, _ in _CLI_OVERRIDES.values():
        val = getattr(args, key)
        # a malformed mapping is left for config_from_dict to report
        if val is not None and isinstance(d, dict) and isinstance(d.get(section, {}), dict):
            d = {**d, section: {**d.get(section, {}), key: val}}
    return config_from_dict(d)


def _csv_cell(x) -> str:
    return "" if x is None else repr(x) if isinstance(x, float) else str(x)


def _fmt_cell(x):
    if x is None:
        return "n/a"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def cmd_run(args) -> int:
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
            raise ConfigError("config", f"invalid JSON in {args.config}: {exc}") from exc
    elif args.preset:
        raw = {"scenario": {"preset": args.preset}}
    else:
        raise ConfigError("run", "either --preset or --config is required")
    cfg = _config_with_overrides(raw, args)
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
        cfg = _config_with_overrides({"scenario": {"preset": preset}}, args)
        code, stats = run_one(cfg, os.path.join(out_root, preset))
        worst = max(worst, code)
        if code == EXIT_SOLVER:
            rows.append({"preset": preset, "error": stats.get("error", "solver failure")})
        else:
            row = {"preset": preset}
            for key in COMPARE_COLUMNS[1:]:
                row[key] = stats.get(key)
            # -inf marks an estimate max_lyapunov returned as degenerate; an
            # exponent never estimated (a collision, a short series) has a
            # lyapunov block without the estimator's diagnostics
            lyap = stats["lyapunov"]
            if row["lambda_max"] is None and lyap["degenerate"] and "n_points" in lyap:
                row["lambda_max"] = float("-inf")
            rows.append(row)

    os.makedirs(out_root, exist_ok=True)
    cells = [[row["preset"], "error"] + [""] * (len(COMPARE_COLUMNS) - 2) if "error" in row
             else [row["preset"]] + [_csv_cell(row[c]) for c in COMPARE_COLUMNS[1:]]
             for row in rows]
    _write_table(os.path.join(out_root, "compare.csv"), ",".join(COMPARE_COLUMNS),
                 list(zip(*cells)), ["%s"] * len(COMPARE_COLUMNS))

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
    run_p.add_argument("-o", "--out", help=f"output directory (default ${OUT_ENV_VAR} or ./runs)")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several presets and tabulate the results")
    cmp_p.add_argument("--presets", default=",".join(ring.PRESET_NAMES),
                       help="comma-separated preset names")
    cmp_p.add_argument("-o", "--out", help="output root; one subdirectory per preset")
    cmp_p.set_defaults(func=cmd_compare)
    for sub_p in (run_p, cmp_p):
        for flag, (_, key, tp, text) in _CLI_OVERRIDES.items():
            sub_p.add_argument(flag, dest=key, type=tp, help=text)
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
