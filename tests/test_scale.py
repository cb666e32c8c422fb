"""Exact relations at the benchmark's scale: scalings and padding that move no bit.

The dense oracle stops at 14 qubits and the golden digests pin one
build's bits, so neither checks a 200-vertex solve.  These relations
do: scaling by a power of two is exact in floating point, so
H -> 2H (every field and every edge operator doubled) must leave every
coefficient, its map order and every correlator coefficient
bit-identical and double every E_q; V -> V/2 must scale the order-q
coefficients and E_q by 2^-q; and isolated vertices must change
nothing.  References scale the real and imaginary parts separately,
since ``complex * float`` goes through complex multiplication and can
flip a signed zero.
"""

from __future__ import annotations

import random
import struct

import pytest

from ktspin import CorrelatorQuery, TwoQubitOperator, correlator, model_from_dict, solve
from ktspin.energy import series_from_state
from ktspin.model import parse_pauli_expression
from test_golden import _hermitian, degree3_doc

ORDER = 4


def _scaled(doc, field=1.0, edge=1.0):
    """``doc`` with every field times ``field`` and every matrix part times ``edge``."""
    return {
        "vertices": [{"id": x["id"], "delta": x["delta"] * field} for x in doc["vertices"]],
        "edges": [
            {"u": e["u"], "v": e["v"],
             "matrix": [[[re * edge, im * edge] for re, im in row] for row in e["matrix"]]}
            for e in doc["edges"]
        ],
    }


def _bits(z, scale=1.0):
    z = complex(z)
    return struct.pack("<dd", z.real * scale, z.imag * scale)


def _tables(state, scale=lambda q: 1.0):
    """Each order's (mask, value bits) in map order, order q's values times ``scale(q)``."""
    return [
        [(mask, _bits(value, scale(q))) for mask, value in state.table.orders[q].items()]
        for q in range(1, ORDER + 1)
    ]


def _energies(state, scale=lambda q: 1.0):
    """Bits of E_1..E_{ORDER + 1}, E_q times ``scale(q)``."""
    series = series_from_state(state, ORDER + 1)
    return [_bits(e, scale(q)) for q, e in enumerate(series.coefficients, start=1)]


@pytest.fixture(scope="module")
def base():
    doc = degree3_doc(1616, n=200)
    return doc, solve(model_from_dict(doc), ORDER)


def test_doubled_hamiltonian_keeps_the_tables_and_doubles_the_energies(base):
    doc, state = base
    doubled = solve(model_from_dict(_scaled(doc, field=2.0, edge=2.0)), ORDER)
    assert _tables(doubled) == _tables(state)
    assert _energies(doubled) == _energies(state, lambda q: 2.0)


def test_halved_perturbation_scales_order_q_by_a_power_of_two(base):
    doc, state = base
    halved = solve(model_from_dict(_scaled(doc, edge=0.5)), ORDER)
    assert _tables(halved) == _tables(state, lambda q: 2.0**-q)
    assert _energies(halved) == _energies(state, lambda q: 2.0**-q)


def test_isolated_vertices_change_nothing(base):
    doc, state = base
    padded = dict(doc, vertices=doc["vertices"] + [{"id": i, "delta": 5.0} for i in range(200, 300)])
    padded_state = solve(model_from_dict(padded), ORDER)
    assert _tables(padded_state) == _tables(state)
    assert _energies(padded_state) == _energies(state)


def test_doubled_hamiltonian_keeps_the_correlator_coefficients(base):
    doc, _state = base
    model = model_from_dict(doc)
    doubled = model_from_dict(_scaled(doc, field=2.0, edge=2.0))
    rng = random.Random(1618)
    zz = TwoQubitOperator(parse_pauli_expression("ZZ"))
    checked = 0
    # a ring edge, a matching edge, and two sites two hops apart on the ring
    for s, t in ((doc["edges"][0]["u"], doc["edges"][0]["v"]),
                 (doc["edges"][250]["u"], doc["edges"][250]["v"]),
                 (17, 19)):
        other = TwoQubitOperator(
            [[complex(re, im) for re, im in row] for row in _hermitian(rng, 0.3)]
        )
        for obs in (zz, other):
            got = [correlator(m, CorrelatorQuery(s, t, obs, m.eps0_star / (2 * m.d), ORDER))
                   for m in (model, doubled)]
            assert [_bits(c) for c in got[1].coefficients] == [_bits(c) for c in got[0].coefficients]
            checked += len(got[0].coefficients)
    assert checked == 6 * (ORDER + 1)
