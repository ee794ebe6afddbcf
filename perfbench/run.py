"""ringsim benchmark: end-to-end and per-layer timing of ``ringsim run``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every measured run is a fresh interpreter (``perfbench/worker.py``) that
imports ringsim, resolves the workload config with ``cli.config_from_dict``
and calls ``cli.run_one``: the path ``ringsim run --config`` takes. The
program is used straight from ``src/``; nothing is installed or built.

``--trace 0`` reports the end-to-end metrics. Set-up is timed in one
uncounted warm-up process (it fills ``__pycache__``), then in
SETUP_REPEATS set-up-only processes, half before and half after the runs,
and in every run. Runs repeat while another one is expected to end within
``--seconds`` (there is always at least one). Each metric is the median
over its samples.

``--trace 1`` repeats pairs of runs in the same way: one run of the
workload, then one run of the manifest that run wrote. One run of each
pair has timing wrappers at each layer boundary; the first pair runs the
untraced side first and later pairs alternate. It reports the per-layer
metrics (median over pairs) and the tracing overhead (traced minus
untraced ``run_s``).

Every run's outputs are checked (exit code, status, stats.json headline
fields, table row counts); a run failing any check counts in ``failed``.
Reproducibility (byte-identical stats.json across runs of one seed, and a
manifest re-run reproducing stats.json and manifest.json) and exact
repetition of the machine-independent counters are checked untimed and
reported by name. Counters are also kept in ``.perfbench_work/counters.json``
per source tree, workload and seed, so drift between invocations shows.

The last line of standard output is the JSON result. The full record
(environment, headline results, checks, every sample and the spans) goes to
``.perfbench_work/results/<workload>-seed<seed>-trace<t>.json``.

Seeds 1 to 10 were used while the benchmark was tuned; seed 1001 is held
out for confirming a claimed gain on inputs not seen while writing it.
``python3 perfbench/selftest.py`` smoke-tests the harness on shortened runs.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORK_DIR = ".perfbench_work"

SETUP_REPEATS = 10
# The harness must exit within 180 s: another run starts only while the
# invocation is expected to end within BUDGET_S, and a worker still running
# DEADLINE_S after the invocation started is killed.
BUDGET_S = 150.0
DEADLINE_S = 170.0

TABLES = ("trajectory", "fd", "heatmap", "phase")
NO_TABLES = dict.fromkeys(TABLES, False)

# Why each workload: stock_idm_delayed is the only delay-path run and the
# only one writing large tables (integrate, lambda and artifact writing all
# heavy); stock_mixed_tight runs the ODE path with FollowerStopper at tight
# tolerances, and vehicle 0's speed collapses to a constant, the
# duplicate-heavy input for the lambda neighbour search; sugiyama22 is the
# 22-car ring of Sugiyama et al. (2008), where integration is ~99% of the run.
WORKLOADS = {
    "stock_idm_delayed": lambda seed: {
        "scenario": {"preset": "idm_delayed", "seed": seed},
    },
    "stock_mixed_tight": lambda seed: {
        "scenario": {"preset": "mixed", "seed": seed},
        "integrator": {"rel_tol": 1e-6, "abs_tol": 1e-9},
        "outputs": dict(NO_TABLES),
    },
    "sugiyama22": lambda seed: {
        "scenario": {"vehicles": [{"controller": "idm"} for _ in range(22)],
                     "ring_length": 230.0, "tau": 0.0, "sample_hz": 1.0,
                     "seed": seed},
        "outputs": dict(NO_TABLES),
    },
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
                    "output_bytes": "bytes"}
PER_LAYER_UNITS = {
    "integrate.s": "s", "integrate.accepted_steps": "count",
    "integrate.us_per_step_vehicle": "us", "simulate.self_s": "s",
    "sample.s": "s", "sample.n_samples": "count", "lyapunov.s": "s",
    "lyapunov.n_points": "count", "lyapunov.n_reference": "count",
    "lyapunov.ref_ratio": "ratio", "stats.self_s": "s",
    "artifact_tables.s": "s", "artifacts.self_s": "s",
    "artifacts.mb_per_s": "MB/s", "trace.overhead_s": "s",
}
HEADLINE = ("lambda_max", "min_gap_m", "stop_event_count", "max_density_cars_per_m")
FINITE_FIELDS = ("t_end_s", "max_density_cars_per_m", "median_density_cars_per_m",
                 "min_gap_m", "final_v_std_m_per_s")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Bench:
    """One invocation: the checkout root, its work directory and a log."""

    def __init__(self, root: str, work_dir: str):
        self.root = root
        self.work = os.path.join(root, work_dir)
        os.makedirs(os.path.join(self.work, "results"), exist_ok=True)
        self.log = os.path.join(self.work, "worker.log")
        self.started = now()

    def spawn(self, mode: str, config: dict, out_dir: str | None = None) -> dict:
        """Run one worker process; returns its result plus set-up time and RSS."""
        spec_path = os.path.join(self.work, "spec.json")
        result_path = os.path.join(self.work, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        with open(spec_path, "w") as fh:
            json.dump({"root": self.root, "mode": mode, "config": config,
                       "out_dir": out_dir, "result": result_path}, fh)
        with open(self.log, "ab") as log:
            t_spawn = now()
            proc = subprocess.Popen([sys.executable, WORKER, spec_path],
                                    stdout=log, stderr=log, cwd=self.root)
        code, rusage = _wait(proc, self.started + DEADLINE_S)
        if code != 0 or not os.path.exists(result_path):
            return {"worker_error": f"worker exited with {code} (log: {self.log})"}
        with open(result_path) as fh:
            res = json.load(fh)
        res["setup_s"] = res.pop("t_ready") - t_spawn
        res["peak_rss_mb"] = rusage.ru_maxrss * 1024 / 1e6   # ru_maxrss is KiB
        res["cpu_s"] = rusage.ru_utime + rusage.ru_stime
        return res

    def setups(self, config: dict, n: int) -> list[float]:
        """Set-up times of n set-up-only processes; raises if one fails."""
        out = []
        for _ in range(n):
            res = self.spawn("setup", config)
            if "worker_error" in res:
                raise RuntimeError(f"set-up failed: {res['worker_error']}")
            out.append(res["setup_s"])
        return out

    def run_once(self, config: dict, trace: bool) -> dict:
        """One checked run; the output directory is measured, then removed."""
        out_dir = os.path.join(self.work, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        rec = self.spawn("trace" if trace else "run", config, out_dir)
        rec["failures"] = [rec["worker_error"]] if "worker_error" in rec else []
        if not rec["failures"]:
            rec["failures"] = check_outputs(out_dir, rec, config)
        if not rec["failures"]:
            rec["output_bytes"] = _dir_bytes(out_dir)
            for name in ("stats", "manifest"):
                with open(os.path.join(out_dir, f"{name}.json")) as fh:
                    rec[f"{name}_json"] = fh.read()
            stats = json.loads(rec["stats_json"])
            rec["headline"] = {k: stats.get(k) for k in HEADLINE}
            rec["counters"] = {"n_samples": stats["n_samples"],
                               "n_reference": stats["lyapunov"].get("n_reference"),
                               "output_bytes": rec["output_bytes"]}
            if trace:
                rec["layers"] = layer_metrics(rec["spans"], rec["output_bytes"])
                rec["counters"].update(
                    {k.split(".", 1)[1]: rec["layers"][k] for k in
                     ("integrate.accepted_steps", "sample.n_samples",
                      "lyapunov.n_points", "lyapunov.n_reference")})
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec

    def may_continue(self, t_from: float, seconds: float, last_unit_s: float) -> bool:
        """Whether one more unit like the last is expected to end in time."""
        return (now() - t_from + last_unit_s <= seconds
                and now() - self.started + 1.3 * last_unit_s < BUDGET_S)


def _wait(proc, deadline: float):
    """Reap proc with wait4 to get its own rusage; kill it at the deadline."""
    try:
        while now() < deadline:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, rusage
            time.sleep(0.01)
        return f"a kill at the {DEADLINE_S:g} s limit", None
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _count_lines(path: str) -> int:
    n = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            n += chunk.count(b"\n")
    return n


def check_outputs(out_dir: str, rec: dict, config: dict) -> list[str]:
    """Failures of one run's output checks; an empty list means it passed."""
    fails = []
    if rec["exit_code"] != 0:
        fails.append(f"exit code {rec['exit_code']}")
    if rec["status"] != "completed":
        fails.append(f"status {rec['status']!r}")
    try:
        with open(os.path.join(out_dir, "stats.json")) as fh:
            stats = json.load(fh)
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            resolved = json.load(fh)["config"]
    except (OSError, ValueError, KeyError) as exc:
        return fails + [f"stats.json or manifest.json unreadable: {exc}"]

    for key in FINITE_FIELDS:
        val = stats.get(key)
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            fails.append(f"stats.{key} = {val!r} is not finite")
    lyap = stats.get("lyapunov") or {}
    lam = stats.get("lambda_max")
    if not (isinstance(lam, float) and math.isfinite(lam)) and lyap.get("degenerate") is not True:
        fails.append(f"lambda_max = {lam!r} is neither finite nor flagged degenerate")
    for key in ("n_samples", "stop_event_count"):
        if not isinstance(stats.get(key), int) or stats[key] < 0:
            fails.append(f"stats.{key} = {stats.get(key)!r} is not a count")
    if fails:
        return fails

    scenario = resolved["scenario"]
    requested = config.get("config", config)["scenario"]["seed"]   # a manifest wraps its config
    if scenario["seed"] != requested:
        fails.append(f"manifest seed {scenario['seed']} != requested {requested}")
    n_samples = stats["n_samples"]
    expected_samples = int(math.floor(scenario["t_end"] * scenario["sample_hz"] + 1e-9)) + 1
    if n_samples != expected_samples:
        fails.append(f"n_samples {n_samples} != {expected_samples}")
    cells = n_samples * len(scenario["vehicles"])
    for table in TABLES:
        path = os.path.join(out_dir, f"{table}.csv")
        if not resolved["outputs"][table]:
            if os.path.exists(path):
                fails.append(f"{table}.csv written although disabled")
            continue
        if not os.path.exists(path):
            fails.append(f"{table}.csv missing")
            continue
        rows = _count_lines(path) - 1
        # heatmap.csv holds only occupied (instant, bin) cells: at least one
        # per instant, at most one per vehicle per instant.
        lo = n_samples if table == "heatmap" else cells
        if not lo <= rows <= cells:
            fails.append(f"{table}.csv has {rows} data rows, expected "
                         + (f"{lo}..{cells}" if lo != cells else str(cells)))
    return fails


def layer_metrics(spans: list[dict], output_bytes: int) -> dict:
    """Per-layer totals, self times and counts from one traced run's spans."""
    child_s = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]

    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def self_s(name):
        return sum(s["end"] - s["start"] - child_s.get(s["id"], 0.0)
                   for s in spans if s["name"] == name)

    def count(name, key):
        return sum(s["counts"][key] for s in spans if s["name"] == name)

    integrate_s = total("integrate")
    steps = count("integrate", "accepted_steps")
    vehicles = max(count("integrate", "n_vehicles"), 1)
    n_points = count("lyapunov", "n_points")
    n_reference = count("lyapunov", "n_reference")
    artifacts_self = self_s("artifacts")
    return {
        "integrate.s": integrate_s,
        "integrate.accepted_steps": steps,
        "integrate.us_per_step_vehicle": integrate_s / max(steps * vehicles, 1) * 1e6,
        "simulate.self_s": self_s("simulate"),
        "sample.s": total("sample"),
        "sample.n_samples": count("sample", "n_samples"),
        "lyapunov.s": total("lyapunov"),
        "lyapunov.n_points": n_points,
        "lyapunov.n_reference": n_reference,
        "lyapunov.ref_ratio": n_reference / n_points if n_points else 0.0,
        "stats.self_s": self_s("stats"),
        "artifact_tables.s": total("artifact_tables"),
        "artifacts.self_s": artifacts_self,
        "artifacts.mb_per_s": output_bytes / 1e6 / artifacts_self if artifacts_self > 0 else 0.0,
    }


def source_hash(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            path = os.path.join(d, f)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it has one."""
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                return getattr(ctypes.CDLL(lib), sym)()
            except (OSError, AttributeError):
                continue
    return None


def environment(root: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": source_hash(root),
        "seed": seed,
    }


def _same(values: list) -> str:
    if len(values) < 2:
        return "skipped (one run)"
    return "pass" if all(v == values[0] for v in values) else "fail"


def counter_check(work: str, key: str, runs: list[dict]) -> str:
    """Counters must repeat exactly within this invocation and across them."""
    seen = [r["counters"] for r in runs if "counters" in r]
    if not seen:
        return "skipped (no completed run)"
    path = os.path.join(work, "counters.json")
    try:
        with open(path) as fh:
            cache = json.load(fh)
    except (FileNotFoundError, ValueError):
        cache = {}
    recorded = cache.setdefault(key, {})
    drift = []
    for counters in seen:
        for name, val in counters.items():
            if recorded.setdefault(name, val) != val:
                drift.append(f"{name}: {val} != {recorded[name]}")
    with open(path, "w") as fh:
        json.dump(cache, fh, indent=1, sort_keys=True)
    return "fail: " + "; ".join(sorted(set(drift))) if drift else "pass"


def measure(bench: Bench, config: dict, seconds: float, trace: bool) -> dict:
    """Run the workload for `seconds`; returns metrics, runs and checks."""
    checks = {}
    runs = []
    if not trace:
        # Half the set-up samples come before the runs (after one uncounted
        # warm-up) and half after, so they see more than one moment of a
        # shared machine.
        setups = bench.setups(config, 1 + SETUP_REPEATS // 2)[1:]
        t_from = now()
        while True:
            t_unit = now()
            runs.append(bench.run_once(config, trace=False))
            if runs[-1]["failures"] or not bench.may_continue(t_from, seconds, now() - t_unit):
                break
        setups += bench.setups(config, SETUP_REPEATS - SETUP_REPEATS // 2)
        ok = [r for r in runs if not r["failures"]]
        setups += [r["setup_s"] for r in ok]
        samples = {"setup_s": setups}
        for name in ("run_s", "peak_rss_mb", "output_bytes"):
            samples[name] = [r[name] for r in ok]
        checks["stats_identical_same_seed"] = _same([r["stats_json"] for r in ok])
    else:
        pairs = []
        t_from = now()
        while True:
            t_unit = now()
            # The second run of a pair re-runs the manifest the first wrote.
            # Odd pairs run the traced side first, so that a bias of running
            # second does not land on one side of the overhead.
            first_traced = len(pairs) % 2 == 1
            first = bench.run_once(config, trace=first_traced)
            runs.append(first)
            if first["failures"]:
                break
            second = bench.run_once(json.loads(first["manifest_json"]), trace=not first_traced)
            runs.append(second)
            if second["failures"]:
                break
            pairs.append((second, first) if first_traced else (first, second))
            if not bench.may_continue(t_from, seconds, now() - t_unit):
                break
        samples = {name: [t["layers"][name] for _, t in pairs]
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        samples["trace.overhead_s"] = [t["run_s"] - b["run_s"] for b, t in pairs]
        checks["stats_identical_same_seed"] = _same([r["stats_json"] for r in runs
                                                     if not r["failures"]])
        checks["manifest_rerun_reproduces"] = (
            "skipped (no completed pair)" if not pairs else
            "pass" if all(b["stats_json"] == t["stats_json"]
                          and b["manifest_json"] == t["manifest_json"] for b, t in pairs)
            else "fail")
    metrics = {name: statistics.median(vals) if vals else None
               for name, vals in samples.items()}
    return {"metrics": metrics, "samples": samples, "runs": runs, "checks": checks}


def evaluate(bench: Bench, workload: str, seed: int, config: dict,
             seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure and check one workload; returns (full record, result line)."""
    env = environment(bench.root, seed)
    res = measure(bench, config, seconds, trace)
    runs = res["runs"]
    checks = res["checks"]
    checks["counters_repeat"] = counter_check(
        bench.work, f"{env['src_sha256']}:{workload}:{seed}", runs)
    failed = sum(1 for r in runs if r["failures"])
    correct = failed == 0 and not any(v.startswith("fail") for v in checks.values())
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "config": config,
        "headline": next((r["headline"] for r in runs if "headline" in r), None),
        "checks": checks,
        "fail_ratio": f"{failed}/{len(runs)}",
        "failures": [r["failures"] for r in runs if r["failures"]],
        "metrics": res["metrics"], "samples": res["samples"],
        "counters": [r.get("counters") for r in runs],
        "run_cpu_s": [r.get("cpu_s") for r in runs],
        "spans": [r["spans"] for r in runs if "spans" in r],
    }
    line = {
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    return record, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ringsim", "cli.py")):
        print("perfbench: no ringsim sources at ./src/ringsim; run from the root "
              "of a ringsim checkout", file=sys.stderr)
        return 2
    bench = Bench(root, WORK_DIR)
    record, line = evaluate(bench, args.workload, args.seed,
                            WORKLOADS[args.workload](args.seed), args.seconds,
                            bool(args.trace))
    details = os.path.join(bench.work, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(details, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"fail_ratio {record['fail_ratio']}; env {json.dumps(record['environment'])}")
    print(f"  headline {json.dumps(record['headline'])}")
    print(f"  checks {json.dumps(record['checks'])}")
    for name, vals in record["samples"].items():
        print(f"  {name} median {record['metrics'][name]!r} of {len(vals)}: "
              + " ".join(f"{v:.6g}" for v in vals))
    for fails in record["failures"]:
        print(f"  FAILED: {'; '.join(fails)}")
    print(f"  details {os.path.relpath(details, root)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
