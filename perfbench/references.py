"""Regenerate ``references.json`` from the package in this checkout.

Stores, for the default and the held-out seed, what checks.py compares
against: E_1..E_p of both energy workloads, the per-order entry counts
and sha256 of the energy-d3 coefficient dump, and the value and
coefficients of every correlate-d3 query.  Run it only on a build whose
outputs are trusted (the references gate later changes):

    python3 perfbench/references.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench-out"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, cli_argv, prepare, run_cli, run_query  # noqa: E402


def pair(z):
    return [z.real, z.imag]


def series_reference(workload, seed, work):
    prep = prepare(workload, seed, work)
    dump = work / "dump.jsonl"
    rc, out, _dt = run_cli(cli_argv(workload, prep.doc, prep.model_path, str(dump)))
    if rc != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {rc}")
    rec = {"coefficients": json.loads(out)["coefficients"]}
    if workload == "energy-d3":
        summary = checks.dump_summary(dump)
        rec["dump_sha256"] = summary["sha256"]
        rec["dump_counts"] = {str(q): c for q, c in summary["counts"].items()}
    return rec


def correlate_reference(seed, work):
    prep = prepare("correlate-d3", seed, work)
    queries = []
    for q, query in zip(prep.queries, prep.batch):
        res, _dt = run_query(prep.model, query)
        queries.append({
            "s": q.s, "t": q.t, "label": q.label,
            "value": pair(res.value), "coefficients": [pair(c) for c in res.coefficients],
        })
    return {"queries": queries}


def main():
    refs = {}
    OUT.mkdir(exist_ok=True)
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        work = Path(tempfile.mkdtemp(prefix="references-", dir=OUT))
        try:
            for workload in ("energy-d3", "series-ring"):
                refs.setdefault(workload, {})[str(seed)] = series_reference(workload, seed, work)
            refs.setdefault("correlate-d3", {})[str(seed)] = correlate_reference(seed, work)
        finally:
            shutil.rmtree(work)
        print(f"seed {seed} done", flush=True)
    with open(checks.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
