"""Shared model builders for the test suite."""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from ktspin import EdgeTerm, SpinModel, TwoQubitOperator, Vertex
from ktspin.model import parse_pauli_expression

# reproducible property tests: fixed example sequence, no example database
settings.register_profile(
    "ktspin", derandomize=True, deadline=None, database=None, max_examples=40
)
settings.load_profile("ktspin")
# even without a database, hypothesis caches constants read from the
# source at collection; a directory removed at exit keeps the checkout clean
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="ktspin-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def make_model(deltas, edge_specs):
    """Model from a list of field strengths and (u, v, matrix) triples."""
    vertices = [Vertex(id=i, delta=float(d)) for i, d in enumerate(deltas)]
    edges = [EdgeTerm(u=u, v=v, op=TwoQubitOperator(mat)) for u, v, mat in edge_specs]
    return SpinModel(vertices=vertices, edges=edges)


def tf_edge_matrix():
    """Single-flip edge operator -(X.I + I.X)."""
    return parse_pauli_expression("-XI - IX")


def tf_edge_model():
    """Two qubits, unit fields, one single-flip edge; exactly solvable."""
    return make_model([1.0, 1.0], [(0, 1, tf_edge_matrix())])


def tf_matching_model(pairs):
    """Disjoint single-flip edges (2*pairs qubits); energies add per edge."""
    mat = tf_edge_matrix()
    return make_model(
        [1.0] * (2 * pairs), [(2 * i, 2 * i + 1, mat) for i in range(pairs)]
    )


def tf_exact_energy(eps, delta=1.0, j=1.0):
    """Exact ground energy per single-flip edge: 2(delta/2 - sqrt(delta^2/4 + eps^2 j^2))."""
    return 2.0 * (delta / 2.0 - np.sqrt(delta**2 / 4.0 + (eps * j) ** 2))


def random_hermitian_op(rng, norm=1.0):
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = (raw + raw.conj().T) / 2.0
    herm *= norm / np.linalg.svd(herm, compute_uv=False)[0]
    return herm


def grid_pairs(rows, cols):
    pairs = []
    for r in range(rows):
        for c in range(cols):
            w = r * cols + c
            if c + 1 < cols:
                pairs.append((w, w + 1))
            if r + 1 < rows:
                pairs.append((w, w + cols))
    return pairs


def topology_pairs(kind, n):
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "ring":
        return [(i, (i + 1) % n) for i in range(n)]
    raise ValueError(kind)


def random_model(rng, pairs, n, delta_lo=0.5, delta_hi=1.5):
    """Random Hermitian model on the given edge list."""
    deltas = delta_lo + (delta_hi - delta_lo) * rng.random(n)
    return make_model(deltas, [(u, v, random_hermitian_op(rng)) for u, v in pairs])


def random_diagonal_model(rng, n, pairs):
    """Model whose edge operators are diagonal in the configuration basis."""
    specs = []
    for u, v in pairs:
        specs.append((u, v, np.diag(rng.standard_normal(4)).astype(complex)))
    deltas = 0.5 + rng.random(n)
    return make_model(deltas, specs)


@pytest.fixture
def rng():
    return np.random.default_rng(20260813)
