"""ktspin benchmark: certified-series latency on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload energy-d3 --seed 10 --seconds 30 --trace 0

Workloads (inputs are generated from ``--seed``; see workloads.py):

* ``energy-d3``: ``ktspin energy --order 6 --epsilon eps0/2 --json
  --dump-coefficients`` on the 200-vertex degree-3 model.
* ``series-ring``: ``ktspin series --order 9 --json`` on a 100-vertex
  random Hermitian ring.
* ``correlate-d3``: a batch of 40 order-4 ``correlator`` queries on the
  degree-3 model, cycled for the run.

Load is a closed loop: one client in one process, the next request sent
when the previous one returns.  With ``--trace 0`` the run measures for
``--seconds`` seconds (at least one request, or one full query batch)
and reports the end-to-end metrics.  With ``--trace 1`` it replays the
pipeline under the tracer (tracing.py) before and after one untraced CLI
request (correlate-d3: one untraced pass over the batch, then one
replay) and reports the per-layer metrics.  Every output is checked
(checks.py).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, named and with
units as BENCHMARK.json declares them.  A run record, and with tracing
the spans, is written under ``.perfbench-out/``.

The run exits with code 2 and prints no result when the package source
is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checks
import tracing
from workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    cli_argv,
    prepare,
    run_cli,
    run_query,
    series_order,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
CALIB_REPEATS = 5


class NoProgram(Exception):
    """The package source is missing or not importable from this checkout."""


def import_program():
    """Put the checkout's ``src`` first on the path and import the package from it."""
    if not (SRC / "ktspin" / "__init__.py").is_file():
        raise NoProgram(f"no package source at {SRC / 'ktspin'}")
    sys.path.insert(0, str(SRC))
    try:
        import ktspin.cli
    except ImportError as exc:
        raise NoProgram(f"cannot import ktspin: {exc}") from None
    if Path(ktspin.__file__).resolve().parent != (SRC / "ktspin").resolve():
        raise NoProgram(f"ktspin imported from {ktspin.__file__}, not from {SRC}")


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def calib_probe():
    """Fixed pure-Python work (dict, tuple and int operations); median seconds.

    A diagnostic of machine speed recorded beside every run.  No metric
    is normalised by it.
    """
    times = []
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        table = {}
        acc = 0
        for i in range(100_000):
            key = (i & 1023, i >> 10)
            table[key] = table.get(key, 0) + i
            acc = (acc * 31 + i) & 0xFFFFFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup(workload, seed, work):
    """Median over fresh interpreters of import + input generation + model write."""
    times = []
    for k in range(SETUP_REPEATS):
        d = work / f"setup{k}"
        d.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed), "--dir", str(d)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


class Outcome:
    """Operations attempted and the failure messages of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, fails):
        self.attempted += 1
        if fails:
            self.failures.append(f"{label}: " + "; ".join(fails[:3]))


# --- energy-d3 and series-ring ------------------------------------------------

def _check_cli_requests(prep, runs, ref, outcome):
    """Check each request's stdout and dump; reruns must repeat the first bytes."""
    workload = prep.workload
    first = None
    summaries = []
    for i, (rc, out, dump) in enumerate(runs):
        fails = checks.check_series(
            out, rc, prep.doc, series_order(workload), ref, workload == "energy-d3"
        )
        summary = None
        if workload == "energy-d3" and rc == 0:
            summary = checks.dump_summary(dump)
            fails += checks.check_dump(summary, prep.doc, ref)
        ident = (out, summary["sha256"] if summary else None)
        if first is None:
            first = ident
        elif ident != first:
            fails.append("output differs from the run's first request")
        outcome.record(f"request {i}", fails)
        summaries.append(summary)
    return summaries


def measure_cli(prep, seconds, work, ref, outcome):
    runs, latencies = [], []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while True:
        dump = work / f"dump{len(runs)}.jsonl"
        argv = cli_argv(prep.workload, prep.doc, prep.model_path, str(dump))
        rc, out, dt = run_cli(argv)
        runs.append((rc, out, dump))
        latencies.append(dt)
        if time.perf_counter() + dt > deadline:
            break
    wall = time.perf_counter() - t_start
    _check_cli_requests(prep, runs, ref, outcome)
    return latencies, wall


# --- correlate-d3 ----------------------------------------------------------------

def _check_queries(prep, results, ref, outcome):
    """Check each answer; a repeated query must repeat its first answer exactly."""
    scales = checks.order_scales(ref) if ref is not None else None
    seen = {}
    for i, (k, res) in enumerate(results):
        q = prep.queries[k]
        ref_rec = ref["queries"][k] if ref is not None else None
        fails = checks.check_query(res, q, prep.doc, ref_rec, scales)
        key = (res.value, tuple(res.coefficients))
        if seen.setdefault(k, key) != key:
            fails.append("answer differs from the first run of the same query")
        outcome.record(f"query {i} ({q.s},{q.t},{q.label})", fails)


def measure_correlate(prep, seconds, ref, outcome):
    n = len(prep.batch)
    results, latencies = [], []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while True:
        k = len(results) % n
        res, dt = run_query(prep.model, prep.batch[k])
        results.append((k, res))
        latencies.append(dt)
        if len(results) >= n and time.perf_counter() + dt > deadline:
            break
    wall = time.perf_counter() - t_start
    _check_queries(prep, results, ref, outcome)
    return latencies, wall


# --- runs ------------------------------------------------------------------------

def end_to_end(prep, args, work, ref, outcome):
    setup_s = measure_setup(args.workload, args.seed, work)
    if args.workload == "correlate-d3":
        latencies, wall = measure_correlate(prep, args.seconds, ref, outcome)
    else:
        latencies, wall = measure_cli(prep, args.seconds, work, ref, outcome)
    p75 = statistics.quantiles(latencies, n=4, method="inclusive")[2] if len(latencies) > 1 else latencies[0]
    metrics = {
        "setup_s": setup_s,
        "request_s": statistics.median(latencies),
        "request_p75_s": p75,
        "requests_per_s": len(latencies) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"{len(latencies)} requests in {wall:.3f} s; set-up median of {SETUP_REPEATS}"]
    return metrics, notes


def traced(prep, args, work, ref, outcome, calib_s):
    tracer = tracing.Tracer()
    counters = tracing.SolveCounters()
    notes = []
    sizes = []
    if args.workload == "correlate-d3":
        untraced = [(k, run_query(prep.model, q)) for k, q in enumerate(prep.batch)]
        request_s = statistics.median(dt for _k, (_r, dt) in untraced)
        _check_queries(prep, [(k, r) for k, (r, _dt) in untraced], ref, outcome)
        replayed, sizes = tracing.replay_correlate(tracer, counters, prep.model_path, prep.batch)
        replays = 1
        same = all(
            r.value == u.value and r.coefficients == u.coefficients
            for r, (_k, (u, _dt)) in zip(replayed, untraced)
        )
        outcome.record("replay", [] if same else ["replayed answers differ from the untraced ones"])
        dump_identical = dump_bytes = 0
    else:
        # replay, request, replay: the mean of two replays cancels a linear drift
        # in machine speed out of cli.overhead_s
        replay_dump = work / "dump-replay.jsonl"
        coeffs = tracing.replay_series(tracer, counters, prep.workload, prep.model_path, replay_dump, "replay#0")
        dump = work / "dump-cli.jsonl"
        rc, out, request_s = run_cli(cli_argv(prep.workload, prep.doc, prep.model_path, str(dump)))
        summaries = _check_cli_requests(prep, [(rc, out, dump)], ref, outcome)
        tracing.replay_series(tracer, None, prep.workload, prep.model_path, replay_dump, "replay#1")
        replays = 2
        fails = []
        if rc == 0 and [[c.real, c.imag] for c in coeffs] != json.loads(out)["coefficients"]:
            fails.append("replayed coefficients differ from the CLI's")
        dump_identical = dump_bytes = 0
        if prep.workload == "energy-d3" and summaries[0] is not None:
            cli_sha = summaries[0]["sha256"]
            replay_sha = checks.dump_summary(replay_dump)["sha256"]
            if replay_sha != cli_sha:
                fails.append("replayed dump differs from the CLI's")
            against = ref["dump_sha256"] if ref is not None else replay_sha
            dump_identical = int(cli_sha == against)
            dump_bytes = summaries[0]["bytes"]
            notes.append("dump compared with the " + ("stored reference" if ref else "replayed dump"))
        outcome.record("replay", fails)
    m = tracing.layer_metrics(tracer, counters, request_s, args.workload, sizes, replays)
    m["setalg.dump_bytes"] = dump_bytes
    m["setalg.dump_identical"] = dump_identical
    m["bench.calib_s"] = calib_s
    replay_wall = tracer.root_total()
    m["bench.trace_overhead"] = replay_wall / (replay_wall - tracer.bookkeeping_s)
    notes.append(f"request {request_s:.3f} s untraced; {replays} replay(s) {replay_wall:.3f} s traced, "
                 f"tracer bookkeeping {tracer.bookkeeping_s * 1e3:.3f} ms over {len(tracer.spans)} spans")
    absent = [name for name, value in m.items() if value == 0 and name != "setalg.dump_identical"]
    if absent:
        notes.append("reported as 0, layer or order not on this workload's path: " + ", ".join(absent))
    return m, notes, tracer


def declared_units(trace):
    """Metric name -> unit, in the order BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        import_program()
    except NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    calib_s = calib_probe()
    env["calib_s"] = calib_s
    print("env " + json.dumps(env), flush=True)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = OUT / f"work-{tag}"
    work.mkdir()
    try:
        prep = prepare(args.workload, args.seed, work)
        ref = checks.reference(checks.load_references(), args.workload, args.seed)
        outcome = Outcome()
        if args.trace:
            metrics, notes, tracer = traced(prep, args, work, ref, outcome, calib_s)
        else:
            metrics, notes = end_to_end(prep, args, work, ref, outcome)
            tracer = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    notes.append("reference: " + ("stored for this seed" if ref else "none; closed forms only"))
    for note in notes:
        print("note " + note)
    for msg in outcome.failures[:10]:
        print("FAIL " + msg)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"args": vars(args), "env": env, "notes": notes, "failures": outcome.failures, **result}
    if tracer is not None:
        tracer.write(OUT / f"trace-{tag}.json", record)
    else:
        with open(OUT / f"run-{tag}.json", "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
