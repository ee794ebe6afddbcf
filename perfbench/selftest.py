"""Smoke self-test of the benchmark harness on shortened scenarios.

Usage, from the root of a ringsim checkout:

    python3 perfbench/selftest.py

Each workload is cut to T_END simulated seconds and measured once untraced
and once traced, through the same code path as ``perfbench/run.py``. The
test checks that

- every run passes its output and reproducibility checks;
- every metric named in BENCHMARK.json is emitted with its unit, as a
  finite number;
- spans nest: every layer has spans, each under the layer that calls it
  (PARENT), each child lies inside its parent, siblings do not overlap,
  and ``artifact_tables`` spans appear exactly when tables are enabled;
- self times are nonnegative and sum, over each tree, to its root span.

It writes under ``.perfbench_work/selftest`` and exits nonzero on any
failure.
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

T_END = 200.0
# Each layer's span and the layer span that must enclose it.
PARENT = {"run_one": None, "simulate": "run_one", "integrate": "simulate",
          "sample": "run_one", "artifacts": "run_one", "stats": "artifacts",
          "lyapunov": "stats", "artifact_tables": "artifacts"}


def check_spans(spans: list[dict], tables_on: bool) -> list[str]:
    errs = []
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["end"] < s["start"]:
            errs.append(f"span {s['id']} {s['name']} ends before it starts")
        p = by_id.get(s["parent"])
        if PARENT.get(s["name"], "?") != (p and p["name"]):
            errs.append(f"span {s['id']} {s['name']} has parent {p and p['name']}")
        if p is None:
            continue
        if not p["start"] <= s["start"] <= s["end"] <= p["end"]:
            errs.append(f"span {s['id']} {s['name']} is not inside its parent")
        children.setdefault(s["parent"], []).append(s)
    for kids in children.values():
        kids.sort(key=lambda k: k["start"])
        for a, b in zip(kids, kids[1:]):
            if b["start"] < a["end"]:
                errs.append(f"sibling spans {a['id']} and {b['id']} overlap")
    names = {s["name"] for s in spans}
    errs += [f"no {name} span" for name in PARENT
             if name not in names and name != "artifact_tables"]
    if ("artifact_tables" in names) != tables_on:
        errs.append(f"artifact_tables spans present={not tables_on}, tables on={tables_on}")

    def self_s(s):
        return s["end"] - s["start"] - sum(k["end"] - k["start"] for k in children.get(s["id"], []))

    def subtree_self(s):
        return self_s(s) + sum(subtree_self(k) for k in children.get(s["id"], []))

    errs += [f"span {s['id']} {s['name']} has negative self time" for s in spans if self_s(s) < 0]
    for root in (s for s in spans if s["parent"] is None):
        dur = root["end"] - root["start"]
        if not math.isclose(subtree_self(root), dur, rel_tol=1e-9, abs_tol=1e-9):
            errs.append(f"self times under {root['name']} sum to {subtree_self(root)}, not {dur}")
    return errs


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    errs = []
    for workload, make in run.WORKLOADS.items():
        config = make(1)
        config["scenario"]["t_end"] = T_END
        tables_on = config.get("outputs", {}) != run.NO_TABLES
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            bench = run.Bench(root, os.path.join(run.WORK_DIR, "selftest"))
            record, line = run.evaluate(bench, workload, 1, config, 0, trace)
            tag = f"{workload} trace={int(trace)}"
            if not line["correct"] or line["failed"]:
                errs.append(f"{tag}: not correct: {record['failures']} {record['checks']}")
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != want:
                errs.append(f"{tag}: metrics {got} != declared {want}")
            for name, m in line["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    errs.append(f"{tag}: {name} = {m['value']!r}")
            for spans in record["spans"]:
                errs += [f"{tag}: {e}" for e in check_spans(spans, tables_on)]
            print(f"{tag}: {len(record['spans'])} traced run(s), checks {record['checks']}")
    for e in errs:
        print("FAIL", e)
    print("selftest", "failed" if errs else "passed")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
