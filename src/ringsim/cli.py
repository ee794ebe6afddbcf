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
import contextlib
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

# stats.json counts the stops after the settle window and gives the largest
# speed spread over the final window (s)
SETTLE_WINDOW_S = 200.0
FINAL_WINDOW_S = 100.0

# Every file a run writes into its directory
ARTIFACTS = ("trajectory.csv", "fd.csv", "heatmap.csv", "phase.csv",
             "events.csv", "stats.json", "manifest.json")


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class OutputSettings:
    dir: str | None = None
    trajectory: bool = True
    fd: bool = True
    heatmap: bool = True
    heatmap_bins: int = 100
    phase: bool = True

    def __post_init__(self):
        if self.heatmap_bins < 1:
            raise ValueError("heatmap_bins must be at least 1")
        if self.heatmap_bins > analysis.MAX_HEATMAP_BINS:
            raise ValueError(f"heatmap_bins must be at most {analysis.MAX_HEATMAP_BINS}")


@dataclass
class RunConfig:
    scenario: ring.RingScenario
    integrator: IntegratorConfig
    outputs: OutputSettings


# The "controller" tag of a vehicle entry names its parameter class.
_CONTROLLERS = {"idm": IdmParams, "fs": FsParams}
_SECTIONS = {"integrator": IntegratorConfig, "outputs": OutputSettings}
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
    return _section(ring.RingScenario, d, path, skip, controllers=controllers)


def _unwrap(d):
    """The config of a mapping: a manifest wraps the config it echoes."""
    if isinstance(d, dict) and "config" in d and "scenario" not in d:
        return d["config"]
    return d


def config_from_dict(d) -> RunConfig:
    """Validate and resolve a configuration mapping into a RunConfig."""
    d = _unwrap(d)
    for key in _object(d, "config"):
        if key != "scenario" and key not in _SECTIONS:
            raise ConfigError(f"config.{key}", "unknown field")
    if "scenario" not in d:
        raise ConfigError("config.scenario", "required section missing")
    scenario = _scenario_from_dict(d["scenario"])
    sections = {name: _section(cls, _object(d.get(name, {}), name), name)
                for name, cls in _SECTIONS.items()}
    return RunConfig(scenario=scenario, **sections)


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
    with fmts, _ROW_BLOCK rows at a time.

    A column is a sequence with one value per row, or a function that maps
    an array of row indices to their values; such a column is expanded one
    block at a time, and at least one column must be a sequence. A column
    of cells from ``_cells`` takes the format "%s".
    """
    fmt = ",".join(fmts) + "\n"
    n_rows = len(next(col for col in columns if not callable(col)))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, n_rows, _ROW_BLOCK):
            r = np.arange(i, min(i + _ROW_BLOCK, n_rows))
            block = [np.asarray(col(r) if callable(col) else col[i:i + _ROW_BLOCK]).tolist()
                     for col in columns]
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
    caller's later work does not hold them. Each instant's time and each
    vehicle index is formatted once per run; the writers expand them to
    their rows one block at a time.
    """
    out = cfg.outputs
    if not (out.trajectory or out.fd or out.heatmap or out.phase):
        return
    n_veh = series.n_vehicles
    t_cells = _cells(FLOAT_FMT, series.times)
    vehicle_cells = _cells("%d", np.arange(n_veh))
    # row r of a fleet table is vehicle r % n_veh at instant r // n_veh
    fleet = [lambda r: t_cells[r // n_veh], lambda r: vehicle_cells[r % n_veh]]

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
        rows, bins, mean_v = analysis.heatmap_grid(series, out.heatmap_bins)
        # the t column binds rows as a default, so the del below leaves it intact
        fork("heatmap.csv", "t_s,bin,mean_v_m_per_s",
             [lambda r, rows=rows: t_cells[rows[r]], bins, mean_v], ["%s", "%d", FLOAT_FMT])
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
    the stats from the series' ``analysis.fleet_stats`` and writes
    events.csv, stats.json and manifest.json. Every writer is reaped
    before this returns or raises. A failed writer raises OSError naming
    its file, unless an exception is already propagating. Needs POSIX
    os.fork. Of traj, only what compute_stats reads is used.
    """
    os.makedirs(out_dir, exist_ok=True)
    writers = {}  # pid -> table file name
    try:
        _fork_tables(writers, out_dir, cfg, series)
        fleet = analysis.fleet_stats(series)
        stats = compute_stats(cfg, traj, series, fleet)
        _write_json(os.path.join(out_dir, "stats.json"), stats)

        # stop rows first, then the collision that ended the run, if any;
        # with no events the table is the header alone
        events = [(t, "stop", veh) for t, veh in fleet.stops]
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


def compute_stats(cfg: RunConfig, traj, series, fleet: analysis.FleetStats) -> dict:
    """The stats.json mapping of a run; fleet is the series' fleet_stats.

    It adds the stops after SETTLE_WINDOW_S, the largest speed spread over
    the last FINAL_WINDOW_S, the collision's end-state gap, the largest
    density as 1 / min gap (the bits of ``fleet.max_density``), and lambda:
    ``analysis.max_lyapunov`` with its defaults on vehicle 0's speed. Its
    lyapunov block is degenerate with a note after a collision or an error.
    Of traj it reads the status, the events and the last accepted state, so
    the run's ``Trajectory.final()`` serves as well as the whole of it.
    """
    sc = cfg.scenario
    stops = fleet.stops
    collision = traj.status == "terminated"
    collision_time, min_gap, lambda_max = None, fleet.min_gap, None
    if collision:
        collision_time, event = traj.events[-1]
        # the samples stop short of the touching state; the last accepted
        # state is the closest to it
        min_gap = min(min_gap, float(ring.circular_gaps(traj.states[-1, 0::2],
                                                        sc.ring_length).min()))
        lyapunov = {"degenerate": True, "note": f"not computed: run terminated by a collision "
                    f"of vehicle {event.vehicle} at t={float(collision_time)!r}"}
    else:
        try:
            lyap = analysis.max_lyapunov(series.velocities[:, 0], sample_rate=sc.sample_hz)
        except ValueError as exc:
            lyapunov = {"degenerate": True, "note": str(exc) or "not computed"}
        else:
            lambda_max = _finite_or_none(lyap.lambda_max)
            lyapunov = {f.name: getattr(lyap, f.name) for f in dataclasses.fields(lyap)
                        if f.name not in ("lambda_max", "sample_rate", "divergence_curve")}
    in_final = series.times >= series.times[-1] - FINAL_WINDOW_S
    return {
        "status": traj.status,
        "collision": collision,
        "collision_time_s": _finite_or_none(collision_time),
        "t_end_s": float(series.times[-1]),
        "n_samples": int(series.times.size),
        "lambda_max": lambda_max,
        "lyapunov": lyapunov,
        "max_density_cars_per_m": 1.0 / min_gap,
        "median_density_cars_per_m": fleet.median_density,
        "min_gap_m": min_gap,
        "stop_event_count": len(stops),
        "stop_events_after_settle": sum(t > SETTLE_WINDOW_S for t, _ in stops),
        "first_stop_time_s": _finite_or_none(stops[0][0] if stops else None),
        "final_v_std_m_per_s": float(fleet.v_std_series[in_final].max()),
    }


def run_one(cfg: RunConfig, out_dir: str) -> tuple[int, dict]:
    """Integrate, analyze and write one run; returns (exit code, stats).

    Any ARTIFACTS file already in out_dir is removed first, so the
    directory never mixes the files of two runs; no other file is touched,
    and a directory of an artifact's name is left for its writer to report.
    """
    for name in ARTIFACTS:
        with contextlib.suppress(FileNotFoundError, IsADirectoryError):
            os.remove(os.path.join(out_dir, name))
    try:
        traj = ring.simulate(cfg.scenario, cfg.integrator)
    except IntegrationError as exc:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "manifest.json"), _manifest(cfg, error=str(exc)))
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER, {"status": "solver_failure", "error": str(exc)}
    series = ring.sample(traj, cfg.scenario)
    # the stats and events.csv read no more of a sampled run than its end,
    # so the dense output is freed before the stats and the table writers
    traj = traj.final()
    stats = write_artifacts(out_dir, cfg, traj, series)
    return (EXIT_COLLISION if traj.status == "terminated" else EXIT_OK), stats


def _default_out_dir() -> str:
    return os.environ.get(OUT_ENV_VAR) or "runs"  # set but empty counts as unset


def _make_out_dir(path: str) -> None:
    """Make path a directory, or raise ConfigError: its nearest existing
    ancestor must be a directory, and the OS must let it be created."""
    head = path
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        where = "" if head == path else f" (in the output path {path!r})"
        raise ConfigError("outputs.dir", f"{head!r} is not a directory{where}")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("outputs.dir", f"cannot create {path!r}: {exc.strerror}") from exc


def _config_with_overrides(d, args) -> RunConfig:
    """RunConfig of the config mapping d with the command-line overrides
    set in its sections, so they get the checks of a config-file field."""
    d = _unwrap(d)  # a manifest: override the config it echoes
    for section, key, _, _ in _CLI_OVERRIDES.values():
        val = getattr(args, key)
        # a malformed mapping is left for config_from_dict to report
        if val is not None and isinstance(d, dict) and isinstance(d.get(section, {}), dict):
            d = {**d, section: {**d.get(section, {}), key: val}}
    return config_from_dict(d)


def _csv_cell(x) -> str:
    return "" if x is None else repr(x) if isinstance(x, float) else str(x)


def _fmt_cell(x) -> str:
    return "n/a" if x is None else f"{x:.6g}" if isinstance(x, float) else str(x)


def cmd_run(args) -> int:
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
            raise ConfigError("config", f"invalid JSON in {args.config}: {exc}") from exc
    else:
        raw = {"scenario": {"preset": args.preset}}
    cfg = _config_with_overrides(raw, args)
    out_dir = args.out or cfg.outputs.dir or _default_out_dir()
    _make_out_dir(out_dir)
    code, stats = run_one(cfg, out_dir)
    if code != EXIT_SOLVER:
        lam = stats.get("lambda_max")
        print(
            f"run finished: status={stats['status']} t_end={stats['t_end_s']:g}s "
            f"lambda_max={_fmt_cell(lam)} stops={stats['stop_event_count']} "
            f"max_density={stats['max_density_cars_per_m']:.4g} -> {out_dir}"
        )
    return code


# (stats.json key, printed header, printed width) of each compare column;
# compare.csv heads its columns with the keys
COMPARE_COLUMNS = (
    ("preset", "preset", 14),
    ("lambda_max", "lambda_max", 12),
    ("max_density_cars_per_m", "max_density", 12),
    ("stop_event_count", "stops", 7),
    ("min_gap_m", "min_gap", 10),
    ("final_v_std_m_per_s", "final_vstd", 10),
)


def cmd_compare(args) -> int:
    presets = [p.strip() for p in args.presets.split(",") if p.strip()]
    if not presets:
        raise ConfigError("compare.presets", "at least one preset is required")
    for i, p in enumerate(presets):
        if p not in ring.PRESET_NAMES:
            raise ConfigError("compare.presets", f"unknown preset {p!r}")
        if p in presets[:i]:  # its runs would share one output directory
            raise ConfigError("compare.presets", f"preset {p!r} given more than once")
    out_root = args.out or _default_out_dir()
    # every config is checked before any directory is made
    cfgs = [_config_with_overrides({"scenario": {"preset": p}}, args) for p in presets]
    for preset in presets:
        _make_out_dir(os.path.join(out_root, preset))
    rows = []
    worst = EXIT_OK
    for preset, cfg in zip(presets, cfgs):
        code, stats = run_one(cfg, os.path.join(out_root, preset))
        worst = max(worst, code)
        row = {"preset": preset, **stats}
        # -inf marks an estimate max_lyapunov returned as degenerate; an
        # exponent never estimated (a collision, a short series) has a
        # lyapunov block without the estimator's diagnostics
        lyap = stats.get("lyapunov")  # a solver failure has none
        if lyap and row["lambda_max"] is None and lyap["degenerate"] and "n_points" in lyap:
            row["lambda_max"] = float("-inf")
        rows.append(row)

    keys = [key for key, _, _ in COMPARE_COLUMNS]
    cells = [[row["preset"], "error"] + [""] * (len(keys) - 2) if "error" in row
             else [_csv_cell(row[key]) for key in keys] for row in rows]
    _write_table(os.path.join(out_root, "compare.csv"), ",".join(keys),
                 list(zip(*cells)), ["%s"] * len(keys))

    print("  ".join(head.ljust(w) for _, head, w in COMPARE_COLUMNS))
    for row in rows:
        if "error" in row:
            print(f"{row['preset'].ljust(COMPARE_COLUMNS[0][2])}  FAILED: {row['error']}")
        else:
            print("  ".join(_fmt_cell(row[key]).ljust(w) for key, _, w in COMPARE_COLUMNS))
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringsim",
        description="Ring-road car-following simulation and stability analysis",
    )
    parser.add_argument("--version", action="version", version=f"ringsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate one scenario and write artifacts")
    source = run_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=ring.PRESET_NAMES, help="stock scenario name")
    source.add_argument("--config", help="JSON config file (or a manifest from a prior run)")
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
