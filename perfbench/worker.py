"""One measured ringsim run in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC.json names the checkout root, the mode and the run configuration:

    {"root": ".", "mode": "setup" | "run" | "trace",
     "config": {...}, "out_dir": "...", "result": "..."}

Every mode follows the path ``ringsim run --config`` takes: import ringsim,
resolve the configuration with ``cli.config_from_dict``, and (modes "run"
and "trace") call ``cli.run_one``. The instant the configuration is
resolved is written to the result file on the system-wide monotonic clock,
so the parent can time set-up from the moment it started this process.

Mode "trace" first replaces the public functions at each layer boundary
with timing wrappers. This works because ``cli`` and ``ring`` look those
functions up as module attributes at call time; the program's source is
not changed. Spans are kept in memory and written to the result file after
the run.
"""

import json
import os
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Records one span per call of each wrapped function.

    A span is ``{"id", "name", "parent", "start", "end"}`` plus optional
    ``counts`` taken from the call's arguments and result; ``parent`` is the
    id of the span that was open when the call began, or None.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, owner, attr: str, name: str, count=None):
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "start": now()}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                out = inner(*args, **kwargs)
            finally:
                span["end"] = now()
                self._open.pop()
            if count is not None:
                span["counts"] = count(args, out)
            return out

        setattr(owner, attr, traced)


def _integrate_counts(args, traj):
    return {"accepted_steps": int(traj.times.size - 1),
            "n_vehicles": int(traj.states.shape[1] // 2)}


def _sample_counts(args, series):
    return {"n_samples": int(series.times.size)}


def _lyapunov_counts(args, res):
    n = len(args[0])
    n_points = n - (res.embed_dim - 1) * res.lag if res.lag else n
    return {"n_points": int(n_points), "n_reference": int(res.n_reference)}


def install_tracer(analysis, cli, integrators, ring) -> Tracer:
    """Wrap the layer boundaries named by the benchmark's per-layer metrics."""
    tr = Tracer()
    tr.wrap(cli, "run_one", "run_one")
    tr.wrap(ring, "simulate", "simulate")
    tr.wrap(integrators, "integrate_ode", "integrate", _integrate_counts)
    tr.wrap(integrators, "integrate_dde", "integrate", _integrate_counts)
    tr.wrap(ring, "sample", "sample", _sample_counts)
    tr.wrap(cli, "write_artifacts", "artifacts")
    tr.wrap(cli, "compute_stats", "stats")
    tr.wrap(analysis, "max_lyapunov", "lyapunov", _lyapunov_counts)
    for table in ("fundamental_diagram", "heatmap_grid", "phase_projection"):
        tr.wrap(analysis, table, "artifact_tables")
    return tr


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from ringsim import analysis, cli, integrators, ring

    cfg = cli.config_from_dict(spec["config"])
    result = {"t_ready": now()}
    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "trace":
            tracer = install_tracer(analysis, cli, integrators, ring)
        t0 = now()
        code, stats = cli.run_one(cfg, spec["out_dir"])
        result["run_s"] = now() - t0
        result["exit_code"] = code
        result["status"] = stats.get("status")
        if tracer is not None:
            result["spans"] = tracer.spans
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
