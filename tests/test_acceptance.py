"""Acceptance battery.

One test per numbered behavior contract; each prints a single
``[criterion NN] PASS/FAIL`` line (visible with ``pytest -s``) carrying
its runtime and worst observed margin, then asserts.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from ktspin import (
    energy_coefficient,
    energy_estimate,
    energy_series,
    CorrelatorQuery,
    correlator,
    solve,
)
from ktspin.clusters import (
    AdjacencyGraph,
    cluster_count_bound,
    enumerate_clusters,
)
from ktspin.kernel import matrix_element
from ktspin.model import TwoQubitOperator, model_to_dict, parse_pauli_expression
from ktspin.oracle import (
    dense_matrix_element,
    expectation,
    extract_creation_coefficients,
    gap,
    ground,
)
from ktspin.setalg import members_of
from conftest import (
    grid_pairs,
    make_model,
    random_diagonal_model,
    random_hermitian_op,
    random_model,
    tf_exact_energy,
    tf_matching_model,
    topology_pairs,
)
from reference_impl import connected_size, whole_model_correlator

_CACHE = {}


def _report(number, ok, detail):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def _model_zoo():
    """Twenty random Hermitian models on paths, rings, and small grids (n <= 10),
    each solved once to order 8; shared by the bound checks."""
    if "zoo" not in _CACHE:
        rng = np.random.default_rng(424242)
        entries = []
        for n in range(4, 11):
            entries.append((f"path{n}", random_model(rng, topology_pairs("path", n), n)))
        for n in range(4, 11):
            entries.append((f"ring{n}", random_model(rng, topology_pairs("ring", n), n)))
        for rows, cols in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3), (4, 2)]:
            entries.append(
                (f"grid{rows}x{cols}", random_model(rng, grid_pairs(rows, cols), rows * cols))
            )
        _CACHE["zoo"] = [(name, m, solve(m, 8)) for name, m in entries]
    return _CACHE["zoo"]


def test_criterion_01_closed_form_model():
    t0 = time.perf_counter()
    failures = []
    m = tf_matching_model(3)
    series = energy_series(m, 4)
    want = {2: -2.0, 3: 0.0, 4: 2.0}
    worst = 0.0
    for q, expect in want.items():
        got = series.coefficients[q - 1] / 3.0  # per edge
        dev = abs(got - expect) / max(1.0, abs(expect))
        worst = max(worst, dev)
        if dev > 1e-9:
            failures.append(f"E_{q} per edge = {got}, want {expect}")
    # cross-check the generating function itself at a plain strength
    eps = 1e-3
    with pytest.warns(UserWarning):  # deliberately beyond the certified range
        value, _bound = energy_estimate(series, eps)
    exact = 3.0 * tf_exact_energy(eps)
    if abs(value.real - exact) > 1e-9 * max(1.0, abs(exact)) + 3.0 * eps**6:
        failures.append(f"partial sum {value.real} vs exact {exact}")
    result = correlator(
        m,
        CorrelatorQuery(
            s=0, t=1,
            observable=TwoQubitOperator(parse_pauli_expression("ZI")),
            epsilon=0.0, order=2,
        ),
    )
    for q, expect in enumerate([1.0, 0.0, -2.0]):
        dev = abs(result.coefficients[q] - expect)
        worst = max(worst, dev)
        if dev > 1e-9:
            failures.append(f"response coefficient {q} = {result.coefficients[q]}")
    dt = time.perf_counter() - t0
    if dt >= 1.0:
        failures.append(f"runtime {dt:.2f} s >= 1 s")
    _report(
        1,
        not failures,
        f"{dt:.2f} s; worst dev {worst:.2e}; " + ("; ".join(failures) or "all exact values hit"),
    )


def test_criterion_02_truncation_bound_on_random_models():
    t0 = time.perf_counter()
    failures = []
    zoo = _model_zoo()
    assert len(zoo) >= 20
    slack = 0.0
    for name, m, state in zoo:
        eps = m.eps0
        coeffs = [energy_coefficient(state, q) for q in range(1, 7)]
        exact = ground(m, eps).energy
        partial = 0j
        power = 1.0
        for p, coeff in enumerate(coeffs, start=1):
            power *= eps
            partial += coeff * power
            bound = m.n * m.Delta * 2.0 ** (-16 - p)
            err = abs(partial - exact)
            slack = max(slack, err / bound)
            if err > bound:
                failures.append(f"{name} p={p}: err {err:.2e} > bound {bound:.2e}")
    dt = time.perf_counter() - t0
    if dt >= 120.0:
        failures.append(f"runtime {dt:.1f} s >= 120 s")
    _report(
        2,
        not failures,
        f"{dt:.1f} s; {len(zoo)} models x p=1..6; worst err/bound {slack:.2e}; "
        + ("; ".join(failures[:3]) or "all within bound"),
    )


def test_criterion_03_kernel_matches_dense_commutators():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    models = []
    for n in (3, 4, 5, 6):
        pairs = topology_pairs("path", n) + ([(0, n - 1)] if n > 3 else [])
        models.append(random_model(rng, pairs, n))
    models.append(  # parallel edges exercise multiplicity handling
        make_model([1.0, 0.8, 1.2], [(0, 1, random_hermitian_op(rng)),
                                     (0, 1, random_hermitian_op(rng)),
                                     (1, 2, random_hermitian_op(rng))])
    )
    worst = 0.0
    total = 10_000
    for i in range(total):
        m = models[i % len(models)]
        n = m.n
        edge = m.edges[int(rng.integers(len(m.edges)))]
        k = int(rng.integers(0, 5))
        sets = tuple(
            tuple(sorted(rng.choice(n, size=int(rng.integers(1, min(4, n + 1))), replace=False)))
            for _ in range(k)
        )
        tsize = int(rng.integers(0, min(4, n + 1)))
        target = tuple(sorted(rng.choice(n, size=tsize, replace=False)))
        fast = matrix_element(target, sets, edge)
        slow = dense_matrix_element(target, sets, edge, n)
        worst = max(worst, abs(fast - slow))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 30.0
    _report(3, ok, f"{dt:.1f} s; {total} queries; max deviation {worst:.2e}")


def test_criterion_04_ansatz_matches_extracted_coefficients():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)
    m = random_model(rng, topology_pairs("path", 6), 6)
    graph = AdjacencyGraph.from_model(m)
    state = solve(m, 6)
    eps0 = m.eps0

    def predicted(eps, upto):
        out = {}
        for q in range(1, upto + 1):
            for mask, value in state.table.orders.get(q, {}).items():
                members = tuple(members_of(mask))
                out[members] = out.get(members, 0j) + value * eps**q
        return out

    extracted = extract_creation_coefficients(ground(m, eps0).state)
    keys = set(predicted(eps0, 6)) | set(extracted)
    residuals = {}
    for p in range(2, 7):
        pred = predicted(eps0, p)
        residuals[p] = max(
            abs(pred.get(k, 0j) - extracted.get(k, 0j)) for k in keys
        )
    for p in range(3, 7):
        # non-increasing up to the eigensolver noise floor
        if residuals[p] > residuals[p - 1] * 1.05 + 1e-13:
            failures.append(f"residual rose at p={p}: {residuals[p]:.2e}")
    if residuals[6] > 1e-6:
        failures.append(f"final residual {residuals[6]:.2e} > 1e-6")

    # scaling of |C(M)| with the minimal connected superset size m
    slopes = {}
    eps_points = [eps0 / 4, eps0 / 2, eps0]
    extractions = [
        extract_creation_coefficients(ground(m, e).state) for e in eps_points
    ]
    for msize in (2, 3):
        candidates = [
            (abs(v), tuple(members_of(mask)))
            for mask, v in state.table.orders.get(msize - 1, {}).items()
            if connected_size(graph, members_of(mask)) == msize
        ]
        candidates.sort(reverse=True)
        mag, members = candidates[0]
        assert mag > 0.01, f"no solid |M|_c={msize} coefficient to probe"
        xs = np.log([abs(e) for e in eps_points])
        ys = np.log([abs(ex[members]) for ex in extractions])
        slope = float(np.polyfit(xs, ys, 1)[0])
        slopes[msize] = slope
        if abs(slope - (msize - 1)) > 0.3:
            failures.append(f"|M|_c={msize} slope {slope:.2f} not within 0.3 of {msize - 1}")
    dt = time.perf_counter() - t0
    _report(
        4,
        not failures,
        f"{dt:.1f} s; residuals p=2..6 "
        + " ".join(f"{residuals[p]:.1e}" for p in range(2, 7))
        + f"; slopes {slopes[2]:.2f}/{slopes[3]:.2f}; "
        + ("; ".join(failures) or "decay and scaling confirmed"),
    )


def test_criterion_05_fluctuation_norm_bound():
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    zoo = _model_zoo()
    for name, m, state in zoo:
        eps0 = m.eps0
        chi1_cap = 2.0 * m.d * m.J / m.Delta
        chi = [step.norm for step in state.steps]
        if chi[0] > chi1_cap:
            failures.append(f"{name}: chi_1 {chi[0]:.3f} > {chi1_cap:.3f}")
        worst = max(worst, chi[0] / chi1_cap)
        for p in range(1, 9):
            cap = 2.0 ** -15 / (2.0 * eps0) ** p
            if chi[p - 1] > cap:
                failures.append(f"{name}: chi_{p} {chi[p - 1]:.3e} > {cap:.3e}")
    dt = time.perf_counter() - t0
    _report(
        5,
        not failures,
        f"{dt:.1f} s; {len(zoo)} models, p<=8; worst chi_1 fraction {worst:.3f}; "
        + ("; ".join(failures[:3]) or "all norms bounded"),
    )


def test_criterion_06_cluster_counts():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(606)

    def random_bounded_graph(n, extra):
        degree = [0] * n
        pairs = []
        for u, v in topology_pairs("path", n):
            pairs.append((u, v))
            degree[u] += 1
            degree[v] += 1
        attempts = 0
        while extra > 0 and attempts < 200:
            attempts += 1
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u == v or (min(u, v), max(u, v)) in pairs:
                continue
            if degree[u] >= 4 or degree[v] >= 4:
                continue
            pairs.append((min(u, v), max(u, v)))
            degree[u] += 1
            degree[v] += 1
            extra -= 1
        return AdjacencyGraph(n, pairs)

    graphs = {
        "path15": AdjacencyGraph(15, topology_pairs("path", 15)),
        "cycle9": AdjacencyGraph(9, topology_pairs("ring", 9)),
        "grid4x4": AdjacencyGraph(16, grid_pairs(4, 4)),
        "K5": AdjacencyGraph(5, list(itertools.combinations(range(5), 2))),
        "random12a": random_bounded_graph(12, 6),
        "random12b": random_bounded_graph(12, 8),
    }
    for name, g in graphs.items():
        d = g.degree()
        assert d <= 4
        for p in range(1, 8):
            bound = cluster_count_bound(g, p)
            for root in range(g.n):
                count = len(enumerate_clusters(g, root, p))
                if count > bound:
                    failures.append(f"{name} root {root} p={p}: {count} > {bound}")
    # exact counts: interior path vertex sees exactly p windows
    for p in range(1, 8):
        got = len(enumerate_clusters(graphs["path15"], 7, p))
        if got != p:
            failures.append(f"path interior p={p}: {got} != {p}")
    # exact counts on the complete graph
    for p in range(1, 8):
        got = len(enumerate_clusters(graphs["K5"], 0, p))
        want = math.comb(4, p - 1)
        if got != want:
            failures.append(f"K5 p={p}: {got} != {want}")
    dt = time.perf_counter() - t0
    _report(
        6,
        not failures,
        f"{dt:.1f} s; 6 graphs, p<=7, every root; "
        + ("; ".join(failures[:3]) or "bounds and exact counts hold"),
    )


def test_criterion_07_gap_stays_open():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(777)
    checked = 0
    worst = math.inf
    for i in range(20):
        n = int(rng.integers(3, 9))
        kind = ("path", "ring")[i % 2]
        m = random_model(rng, topology_pairs(kind, n), n)
        for eps in (2 * m.eps0, -2 * m.eps0, float(rng.uniform(-2, 2)) * m.eps0):
            g = gap(m, eps)
            worst = min(worst, g / (m.Delta / 2))
            checked += 1
            if g < m.Delta / 2:
                failures.append(f"model {i} (n={n}) at eps={eps:.2e}: gap {g:.4f}")
    dt = time.perf_counter() - t0
    _report(
        7,
        not failures,
        f"{dt:.1f} s; 20 models x 3 strengths ({checked} gaps); "
        f"min gap/(Delta/2) = {worst:.4f}; " + ("; ".join(failures[:3]) or "gap open"),
    )


def test_criterion_08_correlator_bound_and_restriction():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(888)
    worst = 0.0
    observables = [
        parse_pauli_expression("ZI"),
        parse_pauli_expression("XX"),
        0.9 * random_hermitian_op(rng),
    ]
    for i in range(6):
        n = int(rng.integers(5, 9))
        kind = ("path", "ring")[i % 2]
        m = random_model(rng, topology_pairs(kind, n), n)
        eps_cap = m.eps0_star / (2 * m.d)
        for obs in observables:
            for p in (2, 3):
                s, t = 0, int(rng.integers(1, n))
                eps = eps_cap if p == 2 else eps_cap / 3
                q = CorrelatorQuery(
                    s=s, t=t, observable=TwoQubitOperator(obs), epsilon=eps, order=p
                )
                result = correlator(m, q)
                exact = expectation(ground(m, eps).state, obs, s, t)
                cap = 2.0 ** (-16 - p) * m.J * m.d * (m.d + 1) + 1e-8
                err = abs(result.value - exact)
                worst = max(worst, err / cap)
                if err > cap:
                    failures.append(
                        f"model {i} p={p} sites ({s},{t}): err {err:.2e} > {cap:.2e}"
                    )
    # restriction soundness: bit-identical, not merely close
    big = random_model(rng, topology_pairs("ring", 12), 12)
    obs = TwoQubitOperator(0.9 * random_hermitian_op(rng))
    for p in (2, 3):
        q = CorrelatorQuery(
            s=2, t=7, observable=obs, epsilon=big.eps0_star / (2 * big.d), order=p
        )
        full = whole_model_correlator(big, q)
        cut = correlator(big, q)
        if cut.value != full.value or cut.coefficients != full.coefficients:
            failures.append(f"restricted run differs from full run at p={p}")
    dt = time.perf_counter() - t0
    _report(
        8,
        not failures,
        f"{dt:.1f} s; 6 models x 3 observables x 2 orders; worst err/cap {worst:.2e}; "
        "restriction bit-identical; " + ("; ".join(failures[:3]) or "bounds hold"),
    )


def test_criterion_09_structural_zeros():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(909)

    # diagonal models: no fluctuations, first order only
    for n, pairs in [(5, topology_pairs("path", 5)), (6, topology_pairs("ring", 6))]:
        m = random_diagonal_model(rng, n, pairs)
        series = energy_series(m, 6)
        state = solve(m, 5)
        if any(state.table.orders.values()):
            failures.append(f"diagonal model n={n} stored coefficients")
        for p in range(2, 7):
            if series.coefficients[p - 1] != 0:
                failures.append(f"diagonal model n={n} has E_{p} != 0")

    # no tuple of >= 3 nonempty endpoint subsets is pairwise bit-disjoint
    subsets = (1, 2, 3)
    for k in (3, 4):
        for combo in itertools.product(subsets, repeat=k):
            bits = 0
            clean = True
            for sb in combo:
                if bits & sb:
                    clean = False
                    break
                bits |= sb
            if clean:
                failures.append(f"disjoint k={k} tuple {combo} should not exist")

    # kernel queries with five or more creation sets vanish identically
    m = random_model(rng, [(0, 1)], 2)
    edge = m.edges[0]
    pool = [(0,), (1,), (0, 1)]
    for k in (5, 6):
        for _ in range(100):
            sets = tuple(pool[int(rng.integers(3))] for _ in range(k))
            target = pool[int(rng.integers(3))] if rng.integers(2) else ()
            if matrix_element(target, sets, edge) != 0:
                failures.append(f"k={k} query {sets} -> nonzero")

    # energy of a disjoint union is the sum of the parts
    a = random_model(rng, topology_pairs("path", 4), 4)
    b = random_model(rng, topology_pairs("ring", 5), 5)
    union = make_model(
        list(a.deltas) + list(b.deltas),
        [(e.u, e.v, e.op.entries) for e in a.edges]
        + [(e.u + 4, e.v + 4, e.op.entries) for e in b.edges],
    )
    sa = energy_series(a, 6).coefficients
    sb = energy_series(b, 6).coefficients
    su = energy_series(union, 6).coefficients
    for p in range(1, 7):
        dev = abs(su[p - 1] - sa[p - 1] - sb[p - 1])
        if dev > 1e-12:
            failures.append(f"union E_{p} deviates by {dev:.2e}")
    dt = time.perf_counter() - t0
    _report(
        9,
        not failures,
        f"{dt:.1f} s; diagonal / k>=3 energy / k>=5 kernel / disjoint union; "
        + ("; ".join(failures[:3]) or "all structurally zero or additive"),
    )


def test_criterion_10_determinism_and_scaling(tmp_path):
    t0 = time.perf_counter()
    failures = []
    n = 200
    py_rng = random.Random(10)
    ring = topology_pairs("ring", n)
    while True:  # add a perfect matching that avoids ring-adjacent pairs: degree 3
        verts = list(range(n))
        py_rng.shuffle(verts)
        matching = [(verts[2 * i], verts[2 * i + 1]) for i in range(n // 2)]
        if all((u - v) % n not in (1, n - 1) for u, v in matching):
            break
    rng = np.random.default_rng(1010)
    model = random_model(rng, ring + matching, n)
    assert model.d == 3
    path = tmp_path / "big.json"
    path.write_text(json.dumps(model_to_dict(model)))
    eps = model.eps0 / 2

    runs = []
    for tag in ("a", "b"):
        dump = tmp_path / f"coeffs_{tag}.jsonl"
        cmd = [
            sys.executable, "-m", "ktspin.cli", "energy", str(path),
            "--order", "6", "--epsilon", repr(eps), "--json",
            "--dump-coefficients", str(dump),
        ]
        t_run = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        dt_run = time.perf_counter() - t_run
        if proc.returncode != 0:
            failures.append(f"run {tag} exited {proc.returncode}: {proc.stderr[:200]}")
        if dt_run >= 300.0:
            failures.append(f"run {tag} took {dt_run:.0f} s >= 300 s")
        runs.append((proc.stdout, dump.read_bytes(), dt_run))
    if runs[0][0] != runs[1][0]:
        failures.append("stdout differs between identical runs")
    if runs[0][1] != runs[1][1]:
        failures.append("coefficient dumps differ between identical runs")
    if not runs[0][0].startswith("{"):
        failures.append("expected a JSON document on stdout")
    dt = time.perf_counter() - t0
    _report(
        10,
        not failures,
        f"{dt:.1f} s; 200-vertex degree-3 order-6 runs of "
        f"{runs[0][2]:.1f} s and {runs[1][2]:.1f} s; byte-identical; "
        + ("; ".join(failures[:3]) or "deterministic and fast"),
    )
