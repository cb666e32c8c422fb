"""Golden bytes: a fixed small model must keep producing the same output.

Refactors of the solver, the energy formula and the kernel promise the
same bytes on the same input.  These hashes pin the coefficient dump, the
coefficient lists of ``energy`` and ``series`` and the correlator
coefficients on one model whose entries come from ``random.Random``, so
they are the same on every platform.  Quantities that pass through a
LAPACK singular value decomposition (``eps0``, ``J``, ``bound``) are left
out, since their last bits may differ between builds of that library.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct

from ktspin import (
    CorrelatorQuery,
    EdgeTerm,
    TwoQubitOperator,
    correlator,
    load_model,
    model_from_dict,
    solve,
)
from ktspin.cli import main
from ktspin.model import parse_pauli_expression
from ktspin.solver import SolverState, advance_order, tangent_pass
from conftest import grid_pairs

# sha256 of the bytes named in each test, from the build these outputs were
# first checked against
ENERGY_DUMP = "c7d851d613df17622f601ace911e87a31a6d9a3bccb2f654743890a222f3d09e"
ENERGY_COEFFICIENTS = "e2f8a4c2ab4a5b150bff25f510d4165f8b576396cda8d883b2e3417018e8a69a"
SERIES_COEFFICIENTS = "748b1f37d7b35899fe4294438195449a67634cd8c7d042dfdd5c725f8ff9d2cd"
CORRELATOR_COEFFICIENTS = "83b6c8baa4a45b8c73b1bb1a6497e35d91ffd26ac93dd09194185472394c4200"
RING_CORRELATOR = "82058b67831434821ed94d428c5b0594649e22b5f8770d1b27e409d0d76b2a1f"
GRID_CORRELATOR = "c45d538d092fb2b7a807d955fab0a9770e43d2d2b756f7b9549ab8e84bbfa22a"
THRESHOLD_DUMP = "46e00242c0574e0230db87f5f716fce4604e60e86e7b0136805450619f8b655e"
THRESHOLD_COEFFICIENTS = "42ed57eb995558bcbf57ae27ade2710f35fdf8b9c247f2fdd0bef14602c43f4e"
WALK_TABLE = "6c596395ed1c8ffea078ac48e4357e36c6712a77acd664b33cfadbb0c8cf3fc5"
RING_WALK_TABLE = "303a6c83a84e98c22e4b281740a8b05bc9cdd20b1849a54b79ec5210d8f93f13"
TANGENT_TABLES = "0114b56a6fd0fdcf32635d3357b9f8ba6499aeb65c5f16ae49c17bf857df2b31"


def _digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def golden_doc():
    """Six-vertex ring with two chords; one edge is real and non-Hermitian."""
    rng = random.Random(4242)
    n = 6
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(0, 3), (4, 1)]
    edges = []
    for idx, (u, v) in enumerate(pairs):
        mat = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
        for r in range(4):
            for c in range(r, 4):
                if idx == 2:
                    mat[r][c] = [rng.uniform(-1, 1), 0.0]
                    mat[c][r] = [rng.uniform(-1, 1), 0.0]
                elif r == c:
                    mat[r][c] = [rng.uniform(-1, 1), 0.0]
                else:
                    re, im = rng.uniform(-1, 1), rng.uniform(-1, 1)
                    mat[r][c] = [re, im]
                    mat[c][r] = [re, -im]
        edges.append({"u": u, "v": v, "matrix": mat})
    vertices = [{"id": i, "delta": 0.5 + rng.random()} for i in range(n)]
    return {"vertices": vertices, "edges": edges}


def _hermitian(rng, scale=1.0):
    """4x4 Hermitian matrix as [re, im] pairs, entries uniform in [-scale, scale]."""
    mat = [[[0.0, 0.0] for _ in range(4)] for _ in range(4)]
    for r in range(4):
        mat[r][r] = [rng.uniform(-scale, scale), 0.0]
        for c in range(r + 1, 4):
            re, im = rng.uniform(-scale, scale), rng.uniform(-scale, scale)
            mat[r][c] = [re, im]
            mat[c][r] = [re, -im]
    return mat


def hermitian_doc(pairs, n, seed):
    """Model of Hermitian edges on the given pairs, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    edges = [{"u": u, "v": v, "matrix": _hermitian(rng)} for u, v in pairs]
    vertices = [{"id": i, "delta": 0.5 + rng.random()} for i in range(n)]
    return {"vertices": vertices, "edges": edges}


def degree3_doc(seed, n=16):
    """Ring plus a perfect matching that avoids ring-adjacent pairs, from ``random.Random(seed)``.

    Every third edge is Hermitian; the others are real and non-Hermitian.
    """
    rng = random.Random(seed)
    ring = [(i, (i + 1) % n) for i in range(n)]
    while True:
        verts = list(range(n))
        rng.shuffle(verts)
        matching = [(verts[2 * i], verts[2 * i + 1]) for i in range(n // 2)]
        if all((u - v) % n not in (1, n - 1) for u, v in matching):
            break
    edges = []
    for idx, (u, v) in enumerate(ring + matching):
        if idx % 3:
            mat = [[[rng.uniform(-1, 1), 0.0] for _ in range(4)] for _ in range(4)]
        else:
            mat = _hermitian(rng)
        edges.append({"u": u, "v": v, "matrix": mat})
    vertices = [{"id": i, "delta": 0.5 + rng.random()} for i in range(n)]
    return {"vertices": vertices, "edges": edges}


def _model_path(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden_doc()))
    return str(path)


def _cli_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_energy_dump_and_coefficients_bytes(capsys, tmp_path):
    model = _model_path(tmp_path)
    dump = tmp_path / "dump.jsonl"
    payload = _cli_json(
        capsys,
        ["energy", model, "--order", "6", "--epsilon", "1e-8", "--json",
         "--dump-coefficients", str(dump)],
    )
    assert _digest(dump.read_bytes()) == ENERGY_DUMP
    assert _digest(json.dumps(payload["coefficients"])) == ENERGY_COEFFICIENTS


def test_series_coefficients_bytes(capsys, tmp_path):
    payload = _cli_json(capsys, ["series", _model_path(tmp_path), "--order", "8", "--json"])
    assert _digest(json.dumps(payload["coefficients"])) == SERIES_COEFFICIENTS


def test_thresholded_series_dump_bytes(capsys, tmp_path):
    # threshold 0.1 drops some, not all, of the entries at orders 2 to 5;
    # the survivors' bin order is the summation order of the next order,
    # so the coefficients pin it as well as the values
    dump = tmp_path / "dump.jsonl"
    payload = _cli_json(
        capsys,
        ["series", _model_path(tmp_path), "--order", "6", "--threshold", "0.1", "--json",
         "--dump-coefficients", str(dump)],
    )
    assert _digest(dump.read_bytes()) == THRESHOLD_DUMP
    assert _digest(json.dumps(payload["coefficients"])) == THRESHOLD_COEFFICIENTS


def test_walk_table_bits():
    # every bit of every stored value, in the order of each order's map:
    # that is the order in which advance_order first reached each set,
    # and each value sums the set's contributions in visit order, so the
    # digest pins the walk's visits, multiplicity weights and folds.  The
    # degree-3 model's top order takes about 2.8 contributions per edge and
    # target, the 12-vertex ring's about 7.6, so the ring pins the order
    # of many additions onto one target within an edge
    ring = hermitian_doc([(u, (u + 1) % 12) for u in range(12)], 12, 1212)
    signed_zeros = 0
    for doc, order, digest in ((degree3_doc(1616), 4, WALK_TABLE), (ring, 7, RING_WALK_TABLE)):
        state = solve(model_from_dict(doc), order)
        data = bytearray()
        for q in range(1, order + 1):
            for mask, value in state.table.orders[q].items():
                value = complex(value)
                data += struct.pack("<iQdd", q, mask, value.real, value.imag)
                signed_zeros += any(str(part) == "-0.0" for part in (value.real, value.imag))
        assert _digest(bytes(data)) == digest
    # real edges leave -0.0 parts, so the digests also pin how a first
    # contribution is stored
    assert signed_zeros > 0


def test_tangent_table_bits():
    # every bit of every tangent_pass result, in each map's order, on
    # adjacent and distant sites: the digest pins the pass's visits,
    # weights and folds, and where its derivative-only sets sit in the
    # pools, which the final coefficients alone pin only in part
    model = model_from_dict(degree3_doc(1616))
    rng = random.Random(1717)
    sites = [(0, 1), (0, 5), (3, 11), (7, 8)]
    ops = [
        TwoQubitOperator([[complex(re, im) for re, im in row] for row in _hermitian(rng, 0.3)])
        for _ in sites
    ]
    data = bytearray()
    derivative_only = 0
    for p in (3, 4, 5):
        state = solve(model, p - 1)
        for (s, t), op in zip(sites, ops):
            tangents = tangent_pass(state, EdgeTerm(s, t, op), p)
            for q in sorted(tangents):
                for mask, value in tangents[q].items():
                    value = complex(value)
                    data += struct.pack("<iQdd", q, mask, value.real, value.imag)
                if q < p:
                    orders = state.table.orders.get(q, {})
                    derivative_only += sum(mask not in orders for mask in tangents[q])
            # the last order's values of {s}, {t} and {s, t}, after its tangents
            last = advance_order(solve(model, p - 1), (1 << s) | (1 << t))
            for mask, value in last.table.orders.get(p, {}).items():
                value = complex(value)
                data += struct.pack("<iQdd", p + 1, mask, value.real, value.imag)
    # sets whose value is exactly zero but whose derivative is not (737 of them)
    assert derivative_only > 500
    assert _digest(bytes(data)) == TANGENT_TABLES


def test_site_values_are_the_solve_bits():
    # an order step kept to {s, t} walks only the edges and the records
    # that can reach {s}, {t} and {s, t}; each value must carry every bit
    # of the value the full solve stores, on a new state per query
    cases = [
        (hermitian_doc([(u, (u + 1) % 12) for u in range(12)], 12, 1212), [(2, 3), (2, 7)]),
        (hermitian_doc(grid_pairs(3, 3), 9, 902), [(1, 4), (0, 8)]),
        (degree3_doc(1616), [(0, 1), (3, 11)]),
    ]
    compared = pairs = 0
    for doc, sites in cases:
        model = model_from_dict(doc)
        got = {}
        for p in range(1, 6):
            for s, t in sites:
                cone = SolverState(model, 0.0)
                for within in [-1] * (p - 1) + [(1 << s) | (1 << t)]:
                    advance_order(cone, within)
                got[s, t, p] = cone.table.orders.get(p, {})
        state = solve(model, 5)
        for (s, t, p), values in got.items():
            stored = state.table.orders[p]
            masks = [m for m in (1 << t, 1 << s, (1 << s) | (1 << t)) if m in stored]
            assert sorted(values) == sorted(masks)
            for mask in masks:
                want, have = complex(stored[mask]), complex(values[mask])
                assert struct.pack("<dd", have.real, have.imag) == struct.pack(
                    "<dd", want.real, want.imag)
            compared += len(masks)
            pairs += (1 << s) | (1 << t) in values
    # 81 of the 90 masks are stored, 21 of them pairs: the distant sites'
    # pair first appears at order 4 (grid) or 5 (ring)
    assert (compared, pairs) == (81, 21)


def test_correlator_coefficient_bytes(tmp_path):
    model = load_model(_model_path(tmp_path))
    # norm 1/2 keeps every observable below the model's edge norms
    observables = ["0.5 ZZ", "0.25 XX + 0.25 YY", "0.5 ZI"]
    lines = []
    for s, t in [(0, 1), (2, 3), (0, 3), (4, 1)]:
        for text in observables:
            obs = TwoQubitOperator(parse_pauli_expression(text))
            query = CorrelatorQuery(s=s, t=t, observable=obs, epsilon=1e-8, order=4)
            lines.append(repr(correlator(model, query).coefficients))
    assert _digest("\n".join(lines)) == CORRELATOR_COEFFICIENTS


def test_ring_correlator_with_derivative_only_sets_bytes():
    # sites 2 and 7 are five hops apart, so the observable edge builds sets
    # that no model edge builds: their value is exactly zero and their
    # derivative is not, and their place in the tangent pass's pools is
    # the part of the summation order most easily moved
    model = model_from_dict(hermitian_doc([(u, (u + 1) % 12) for u in range(12)], 12, 1212))
    state = solve(model, 4)
    zz = parse_pauli_expression("0.5 ZZ")
    tangents = tangent_pass(state, EdgeTerm(2, 7, TwoQubitOperator(zz)), 5)
    assert any(m not in state.table.orders[3] for m in tangents[3])
    # the converse, so that a key of another kind cannot pass the line above
    assert any(m in state.table.orders[3] for m in tangents[3])
    query = CorrelatorQuery(s=2, t=7, observable=TwoQubitOperator(zz), epsilon=1e-8, order=5)
    assert _digest(repr(correlator(model, query).coefficients)) == RING_CORRELATOR


def test_grid_correlator_bytes():
    # on this query, putting the derivative-only sets of a bin's first part
    # after its second part moves the last bits of the coefficients
    model = model_from_dict(hermitian_doc(grid_pairs(3, 3), 9, 902))
    mat = _hermitian(random.Random(215), 0.3)
    obs = TwoQubitOperator([[complex(re, im) for re, im in row] for row in mat])
    # far below the edge norms
    assert obs.norm() < model.J / 2
    query = CorrelatorQuery(s=1, t=5, observable=obs, epsilon=1e-8, order=4)
    assert _digest(repr(correlator(model, query).coefficients)) == GRID_CORRELATOR
