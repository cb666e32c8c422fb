"""Summarise benchmark run records into a baseline table.

Reads the records that run.py writes under ``.perfbench-out/`` and
prints, per workload, the median and quartiles of every end-to-end
metric over the untraced runs (quartiles as ``statistics.quantiles(n=4)``
gives them, spread = (q3 - q1) / median), and the median of every
per-layer metric over the traced runs.  With ``--write`` the table is
stored as ``perfbench/baseline.json``.

    python3 perfbench/summarize.py [--write]
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench-out"


def quartiles(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"n": len(values), "median": med}
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def collect(pattern):
    by_workload = {}
    for path in sorted(OUT.glob(pattern)):
        with open(path) as fh:
            rec = json.load(fh)
        by_workload.setdefault(rec["args"]["workload"], []).append(rec)
    return by_workload


def table(records, stat):
    names = records[0]["metrics"]
    return {
        name: {"unit": records[0]["metrics"][name]["unit"],
               **stat([r["metrics"][name]["value"] for r in records])}
        for name in names
    }


def main():
    parser = argparse.ArgumentParser(description="Summarise run records.")
    parser.add_argument("--write", action="store_true", help="store perfbench/baseline.json")
    args = parser.parse_args()
    runs, traces = collect("run-*.json"), collect("trace-*.json")
    summary = {}
    for workload in sorted(set(runs) | set(traces)):
        entry = {}
        if workload in runs:
            recs = runs[workload]
            entry["seeds"] = sorted({r["args"]["seed"] for r in recs})
            entry["all_correct"] = all(r["correct"] for r in recs)
            env = recs[0]["env"]
            entry["env"] = {k: env[k] for k in ("python", "numpy", "nproc", "machine")}
            entry["env"]["calib_s"] = quartiles([r["env"]["calib_s"] for r in recs])
            entry["end_to_end"] = table(recs, quartiles)
        if workload in traces:
            recs = traces[workload]
            entry["traced_seeds"] = sorted({r["args"]["seed"] for r in recs})
            entry["per_layer"] = table(recs, lambda v: {"median": statistics.median(v)})
        summary[workload] = entry
    for workload, entry in summary.items():
        print(workload)
        for name, row in {**entry.get("end_to_end", {}), **entry.get("per_layer", {})}.items():
            extra = f"  spread {row['spread']:.3f} (n={row['n']})" if "spread" in row else ""
            print(f"  {name:28s} {row['median']:>14.6g} {row['unit']}{extra}")
    if args.write:
        with open(HERE / "baseline.json", "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
