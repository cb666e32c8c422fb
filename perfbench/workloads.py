"""Seeded inputs for the benchmark workloads, and the requests run on them.

Every input is a pure function of the workload seed.  With the default
seed the degree-3 generator reproduces the 200-vertex model of
acceptance criterion 10 (ring plus a perfect matching, drawn from
``random.Random(10)`` and ``numpy.random.default_rng(1010)``); any other
seed gives a fresh model of the same family.  Models are built as the
JSON document the CLI reads, so the inputs do not depend on the
package's model classes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("energy-d3", "series-ring", "correlate-d3")
DEFAULT_SEED = 10  # reproduces the acceptance criterion-10 model
HELD_OUT_SEED = 11

ENERGY_ORDER = 6
SERIES_ORDER = 9
CORRELATE_ORDER = 4
CORRELATE_EDGES = 20

_ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


def random_hermitian(rng):
    """4x4 Hermitian matrix with unit spectral norm."""
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = (raw + raw.conj().T) / 2.0
    herm *= 1.0 / np.linalg.svd(herm, compute_uv=False)[0]
    return herm


def _matrix_doc(mat):
    return [[[cell.real, cell.imag] for cell in row] for row in np.asarray(mat, dtype=complex).tolist()]


def random_model_doc(rng, pairs, n):
    """Fields uniform in [0.5, 1.5), then one random Hermitian operator per edge."""
    deltas = 0.5 + rng.random(n)
    return {
        "vertices": [{"id": i, "delta": float(d)} for i, d in enumerate(deltas)],
        "edges": [
            {"u": u, "v": v, "matrix": _matrix_doc(random_hermitian(rng))} for u, v in pairs
        ],
    }


def ring_pairs(n):
    return [(i, (i + 1) % n) for i in range(n)]


def degree3_doc(seed, n=200):
    """Ring plus a perfect matching that avoids ring-adjacent pairs: degree 3."""
    py_rng = random.Random(seed)
    ring = ring_pairs(n)
    while True:
        verts = list(range(n))
        py_rng.shuffle(verts)
        matching = [(verts[2 * i], verts[2 * i + 1]) for i in range(n // 2)]
        if all((u - v) % n not in (1, n - 1) for u, v in matching):
            break
    return random_model_doc(np.random.default_rng(1000 + seed), ring + matching, n)


def ring_doc(seed, n=100):
    """Random Hermitian ring: degree 2, so the solver runs deep and narrow."""
    return random_model_doc(np.random.default_rng(2000 + seed), ring_pairs(n), n)


def edge_matrix(edge):
    return np.array([[complex(re, im) for re, im in row] for row in edge["matrix"]])


@dataclass(frozen=True)
class Thresholds:
    """Field and coupling scales of a model document and its certified strengths."""

    Delta: float
    J: float
    d: int
    eps0: float
    eps0_star: float


def thresholds(doc):
    """Same formulas as the package's model: 2^-18 Delta / (d J) and / ((d + 1) J)."""
    n = len(doc["vertices"])
    degree = [0] * n
    for e in doc["edges"]:
        degree[e["u"]] += 1
        degree[e["v"]] += 1
    delta = min(float(v["delta"]) for v in doc["vertices"])
    j_max = max(float(np.linalg.svd(edge_matrix(e), compute_uv=False)[0]) for e in doc["edges"])
    d = max(degree)
    return Thresholds(
        delta, j_max, d, 2.0**-18 * delta / (d * j_max), 2.0**-18 * delta / ((d + 1) * j_max)
    )


@dataclass(frozen=True)
class Query:
    """One correlator request: sites, observable label and matrix, strength, order."""

    s: int
    t: int
    label: str
    matrix: np.ndarray
    epsilon: float
    order: int


def correlate_queries(doc, seed, edges=CORRELATE_EDGES, order=CORRELATE_ORDER):
    """``ZZ`` and one random Hermitian observable on each of ``edges`` seeded edges.

    The strength is eps0_star / (2 d), inside the certified regime.
    """
    rng = np.random.default_rng(3000 + seed)
    th = thresholds(doc)
    eps = th.eps0_star / (2 * th.d)
    picked = sorted(int(i) for i in rng.choice(len(doc["edges"]), size=edges, replace=False))
    out = []
    for idx in picked:
        e = doc["edges"][idx]
        out.append(Query(e["u"], e["v"], "ZZ", _ZZ, eps, order))
        out.append(Query(e["u"], e["v"], "random", random_hermitian(rng), eps, order))
    return out


def series_order(workload):
    return ENERGY_ORDER if workload == "energy-d3" else SERIES_ORDER


def model_doc(workload, seed):
    if workload == "series-ring":
        return ring_doc(seed)
    return degree3_doc(seed)


def write_doc(doc, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def cli_argv(workload, doc, model_path, dump_path):
    """The CLI request of an energy workload."""
    if workload == "energy-d3":
        eps = thresholds(doc).eps0 / 2
        return [
            "energy", model_path, "--order", str(ENERGY_ORDER), "--epsilon", repr(eps),
            "--json", "--dump-coefficients", dump_path,
        ]
    return ["series", model_path, "--order", str(SERIES_ORDER), "--json"]


@dataclass
class Prepared:
    """Everything a workload's requests need, built before timing starts."""

    workload: str
    seed: int
    doc: dict
    model_path: str
    model: object = None      # loaded package model, correlate-d3 only
    queries: list = None      # Query records, correlate-d3 only
    batch: list = None        # the same queries as package objects


def prepare(workload, seed, directory):
    """Set-up of one run: generate the inputs and write the model JSON."""
    doc = model_doc(workload, seed)
    path = str(directory / "model.json")
    write_doc(doc, path)
    prep = Prepared(workload, seed, doc, path)
    if workload == "correlate-d3":
        from ktspin import load_model

        prep.model = load_model(path)
        prep.queries = correlate_queries(doc, seed)
        prep.batch = package_queries(prep.queries)
    return prep


def run_cli(argv):
    """One in-process CLI request: (exit code, captured stdout, wall seconds)."""
    from ktspin.cli import main

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def package_queries(queries):
    """The batch as the package's query objects, built once outside the timed loop."""
    from ktspin import CorrelatorQuery, TwoQubitOperator

    return [
        CorrelatorQuery(s=q.s, t=q.t, observable=TwoQubitOperator(q.matrix), epsilon=q.epsilon, order=q.order)
        for q in queries
    ]


def run_query(model, query):
    """One correlator request: (result, wall seconds)."""
    from ktspin import correlator

    t0 = time.perf_counter()
    result = correlator(model, query)
    return result, time.perf_counter() - t0
