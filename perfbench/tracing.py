"""Per-layer tracing by replay.

A traced run replays each workload's pipeline through the package's
public functions and records a span around every call into a layer:
name, start, end, parent span and request id.  Spans stay in memory and
are written out once, at the end of the run, with each layer's self time
(its duration minus the part its child spans cover) and the time the
tracer spent on its own bookkeeping.  No span is recorded inside the
package; the replay sees each layer only at its public boundary.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

from workloads import SERIES_ORDER, series_order

MAX_ORDER = SERIES_ORDER - 1  # deepest table any workload solves for


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.bookkeeping_s = 0.0

    @contextlib.contextmanager
    def span(self, name, request):
        t_enter = time.perf_counter()
        rec = {
            "name": name,
            "request": request,
            "parent": self._open[-1] if self._open else None,
            "start": 0.0,
            "end": 0.0,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        self.bookkeeping_s += rec["start"] - t_enter
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            self.bookkeeping_s += time.perf_counter() - rec["end"]

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name):
        return sum(self.durations(name))

    def root_total(self):
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)

    def self_times(self):
        """Per span name: summed duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for i, s in enumerate(self.spans):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[i]
        return out

    def write(self, path, extra):
        doc = dict(extra)
        doc["spans"] = self.spans
        doc["self_times_s"] = self.self_times()
        doc["bookkeeping_s"] = self.bookkeeping_s
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


class SolveCounters:
    """Counts behind the solver's cost, summed over every replayed solve.

    Pool records are computed from the finished table with
    ``setalg.bin_candidates``, not observed inside the solver: the call
    that builds order ``b + 1`` reads every record of orders 1..b, and
    the records of the last order are built but never read.
    """

    def __init__(self):
        self.entries = {q: 0 for q in range(1, MAX_ORDER + 1)}
        self.pool_records = 0
        self.pool_records_unread = 0

    def add(self, model, state):
        from ktspin.setalg import bin_candidates

        table = state.table
        last = state.current_order
        per_order = {}
        for q in range(1, last + 1):
            self.entries[q] += len(table.orders.get(q, {}))
            per_order[q] = sum(len(bin_candidates(table, e.u, e.v, q)) for e in model.edges)
        for b in range(1, last):
            self.pool_records += sum(per_order[r] for r in range(1, b + 1))
        self.pool_records_unread += per_order[last]


def traced_solve(tracer, request, model, order):
    """``solve(model, 1)`` then one ``advance_order`` per further order, each in a span."""
    from ktspin import advance_order, solve

    with tracer.span("solver.solve", request):
        with tracer.span("solver.order1", request):
            state = solve(model, 1)
        while state.current_order < order:
            with tracer.span(f"solver.advance.q{state.current_order + 1}", request):
                advance_order(state)
    return state


def replay_series(tracer, counters, workload, model_path, dump_path, request):
    """The CLI's energy/series pipeline, once: load, solve, E_1..E_p, dump.

    Adds the solve's counts to ``counters`` unless it is None, and
    returns the coefficients.
    """
    from ktspin import energy_coefficient, load_model
    from ktspin.setalg import dump_coefficients

    order = series_order(workload)
    with tracer.span("model.load", request):
        model = load_model(model_path)
    state = traced_solve(tracer, request, model, max(order - 1, 1))
    with tracer.span("energy.coefficient", request):
        coeffs = [energy_coefficient(state, q) for q in range(1, order + 1)]
    if workload == "energy-d3":
        with tracer.span("setalg.dump", request):
            with open(dump_path, "w") as fh:
                dump_coefficients(state.table, fh)
    if counters is not None:
        counters.add(model, state)
    return coeffs


def replay_correlate(tracer, counters, model_path, batch):
    """Each query: restriction, the correlator, and a plain solve of the same submodel.

    The plain solve plus ``energy_coefficient`` on the restricted
    submodel is the denominator of ``response.dual_ratio``.  Returns the
    correlator results and the neighbourhood size of each query.
    """
    from ktspin import correlator, energy_coefficient, load_model, restrict_neighborhood

    with tracer.span("model.load", "setup"):
        model = load_model(model_path)
    results, sizes = [], []
    for i, query in enumerate(batch):
        request = f"q{i}"
        p = query.order
        with tracer.span("response.query", request):
            with tracer.span("response.restrict", request):
                sub, _mapping = restrict_neighborhood(model, query.s, query.t, p)
            with tracer.span("response.correlator", request):
                results.append(correlator(model, query))
            with tracer.span("response.plain", request):
                state = traced_solve(tracer, request, sub, max(p, 1))
                with tracer.span("energy.coefficient", request):
                    [energy_coefficient(state, q + 1) for q in range(p + 1)]
        sizes.append(sub.n)
        counters.add(sub, state)
    return results, sizes


def layer_metrics(tracer, counters, request_s, workload, sizes, replays):
    """Per-layer metric values of one traced run, keyed by metric name.

    Layer times are span totals divided by the number of replays of the
    pipeline; counts come from one replay.
    """
    def per_replay(name):
        return tracer.total(name) / replays

    m = {}
    layers = ("model.load", "solver.solve", "energy.coefficient", "setalg.dump")
    if workload == "correlate-d3":
        m["cli.overhead_s"] = 0.0  # no CLI on this workload's path
    else:
        m["cli.overhead_s"] = request_s - sum(per_replay(n) for n in layers)
    m["model.load_s"] = per_replay("model.load")
    m["solver.order1_s"] = per_replay("solver.order1")
    for q in range(2, MAX_ORDER + 1):
        m[f"solver.advance_s.q{q}"] = per_replay(f"solver.advance.q{q}")
    for q in range(1, MAX_ORDER + 1):
        m[f"solver.entries.q{q}"] = counters.entries[q]
    m["solver.entries_total"] = sum(counters.entries.values())
    m["solver.pool_records"] = counters.pool_records
    m["solver.pool_records_unread"] = counters.pool_records_unread
    m["energy.coefficient_s"] = per_replay("energy.coefficient")
    m["setalg.dump_s"] = per_replay("setalg.dump")
    if sizes:
        m["response.restrict_s"] = statistics.median(tracer.durations("response.restrict"))
        m["response.neighborhood_n"] = statistics.median(sizes)
        m["response.query_solve_s"] = statistics.median(tracer.durations("response.correlator"))
        m["response.dual_ratio"] = tracer.total("response.correlator") / tracer.total("response.plain")
    else:
        for name in ("response.restrict_s", "response.neighborhood_n", "response.query_solve_s", "response.dual_ratio"):
            m[name] = 0.0  # no correlator on this workload's path
    return m
