"""Vertex-set helpers and the sparse coefficient table."""

from __future__ import annotations

import io
import json

import pytest

from ktspin import EmptySet
from ktspin.setalg import (
    CoefficientTable,
    bin_candidates,
    dump_coefficients,
    install_order,
    members_of,
    table_lookup,
)
from reference_impl import one_norm, table_insert


def _m(*members):
    """Bitmask of the given vertex ids."""
    return sum(1 << w for w in members)


def test_members_of_spells_a_mask_as_its_vertex_ids():
    assert members_of(0) == []
    assert members_of(0b1011) == [0, 1, 3]
    assert members_of(_m(2, 70, 200)) == [2, 70, 200]


def test_insert_lookup_and_counts():
    t = CoefficientTable()
    assert t.orders == {}
    table_insert(t, 1, _m(0, 1), -1.0)
    table_insert(t, 2, _m(1), 0.5j)
    assert table_lookup(t, 1, _m(0, 1)) == -1.0
    assert table_lookup(t, 2, _m(1)) == 0.5j
    assert table_lookup(t, 1, _m(0)) == 0
    assert table_lookup(t, 5, _m(0, 1)) == 0
    assert t.orders == {1: {_m(0, 1): -1.0}, 2: {_m(1): 0.5j}}


def test_insert_zero_is_dropped():
    t = CoefficientTable()
    table_insert(t, 1, _m(0), 0.0)
    table_insert(t, 1, _m(1), complex(-0.0, 0.0))
    assert t.orders == {}
    # a purely imaginary value is NOT zero
    table_insert(t, 1, _m(2), 3.0j)
    assert t.orders == {1: {_m(2): 3.0j}}


def test_insert_replaces_without_duplicating_bins():
    t = CoefficientTable()
    table_insert(t, 1, _m(0, 1), 1.0)
    table_insert(t, 1, _m(0, 1), 2.0)
    assert table_lookup(t, 1, _m(0, 1)) == 2.0
    assert t.bins[0][1] == [_m(0, 1)]


def test_empty_set_rejected():
    t = CoefficientTable()
    with pytest.raises(EmptySet):
        table_insert(t, 1, 0, 1.0)
    with pytest.raises(EmptySet):
        table_lookup(t, 1, 0)


def test_bin_candidates_order_and_dedup():
    t = CoefficientTable()
    table_insert(t, 1, _m(0), 1.0)
    table_insert(t, 1, _m(0, 1), 2.0)
    table_insert(t, 1, _m(1, 2), 3.0)
    table_insert(t, 1, _m(3), 4.0)
    got = bin_candidates(t, 0, 1, 1)
    # sets containing 0 first (insertion order), then sets with 1 but not 0
    assert got == [(_m(0), 1.0), (_m(0, 1), 2.0), (_m(1, 2), 3.0)]
    assert bin_candidates(t, 3, 2, 1) == [(_m(3), 4.0), (_m(1, 2), 3.0)]
    assert bin_candidates(t, 0, 1, 9) == []


def test_one_norm_takes_max_over_vertices():
    t = CoefficientTable()
    table_insert(t, 1, _m(0), 3.0)
    table_insert(t, 1, _m(0, 1), -4.0)
    table_insert(t, 1, _m(2), 5.0)
    # vertex 0 carries |3| + |-4| = 7, vertex 2 carries 5
    assert one_norm(t, 1) == pytest.approx(7.0)
    assert one_norm(t, 2) == 0.0


def test_install_order_matches_one_insert_per_entry():
    entries = {_m(2, 5): -1.5, _m(0): 2.0j, _m(0, 5): 0.25 - 1j, _m(5): 3.0}
    one_by_one = CoefficientTable()
    table_insert(one_by_one, 1, _m(5), 7.0)
    whole = CoefficientTable()
    table_insert(whole, 1, _m(5), 7.0)
    for mask, value in entries.items():
        table_insert(one_by_one, 2, mask, value)
    omap = dict(entries)
    install_order(whole, 2, omap)
    assert whole.orders[2] is omap
    # installing builds no bins; the first read of the bins does
    assert whole.unindexed == [2]
    assert all(2 not in per_order for per_order in whole._bins.values())
    assert whole.bins == one_by_one.bins
    assert whole.unindexed == []
    assert list(whole.bins[5][2]) == [_m(2, 5), _m(0, 5), _m(5)]
    assert one_norm(whole, 2) == one_norm(one_by_one, 2) == 1.5 + abs(0.25 - 1j) + 3.0
    # an empty order stores nothing, as inserting nothing would
    install_order(whole, 3, {})
    assert 3 not in whole.orders and whole.unindexed == []
    with pytest.raises(EmptySet):
        install_order(whole, 4, {0: 1.0})


def test_reads_index_every_installed_order_in_insertion_order():
    # two orders wait at once; an insert into the older one indexes both
    # first, so every bin lists its masks as eager inserts would
    orders = {
        2: {_m(1, 4): 1.0, _m(4): -2.0, _m(0, 4): 0.5j},
        3: {_m(4, 6): 3.0, _m(1): 1.5, _m(1, 4, 6): -1j},
    }
    eager = CoefficientTable()
    lazy = CoefficientTable()
    for q, entries in orders.items():
        for mask, value in entries.items():
            table_insert(eager, q, mask, value)
        install_order(lazy, q, dict(entries))
    table_insert(eager, 2, _m(4, 6), 9.0)
    assert lazy.unindexed == [2, 3]
    table_insert(lazy, 2, _m(4, 6), 9.0)
    assert lazy.unindexed == []
    assert lazy.bins == eager.bins
    assert list(lazy.bins[4][2]) == [_m(1, 4), _m(4), _m(0, 4), _m(4, 6)]
    assert [list(per_order) for per_order in lazy.bins.values()] == [
        list(per_order) for per_order in eager.bins.values()
    ]
    for q in (2, 3):
        assert bin_candidates(lazy, 4, 1, q) == bin_candidates(eager, 4, 1, q)
        assert one_norm(lazy, q) == one_norm(eager, q)
    # each accessor indexes on its own, starting from a fresh install
    for read in (lambda t: bin_candidates(t, 0, 1, 2), lambda t: one_norm(t, 3),
                 lambda t: table_insert(t, 3, _m(7), 1.0)):
        fresh = CoefficientTable()
        for q, entries in orders.items():
            install_order(fresh, q, dict(entries))
        read(fresh)
        assert fresh.unindexed == []
        assert 2 in fresh._bins[4] and 3 in fresh._bins[4]


def test_dump_coefficients_sorted_jsonl():
    t = CoefficientTable()
    table_insert(t, 2, _m(1), 0.25)
    table_insert(t, 1, _m(0, 2), -1.0 + 2.0j)
    table_insert(t, 1, _m(0, 1), 3.0 - 7.0j)
    # tuple order differs from numeric mask order: (0, 5) < (1,) and
    # (2, 70) < (3,), but 0b10 < 0b100001 and 0b1000 < 2**70 + 0b100
    table_insert(t, 3, _m(1), 1.0)
    table_insert(t, 3, _m(0, 5), 2.0)
    table_insert(t, 3, _m(3), 3.0)
    table_insert(t, 3, _m(2, 70), 4.0)
    table_insert(t, 3, _m(70), 5.0)
    buf = io.StringIO()
    dump_coefficients(t, buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert [(ln["q"], tuple(ln["M"])) for ln in lines] == [
        (1, (0, 1)),
        (1, (0, 2)),
        (2, (1,)),
        (3, (0, 5)),
        (3, (1,)),
        (3, (2, 70)),
        (3, (3,)),
        (3, (70,)),
    ]
    assert lines[1] == {"q": 1, "M": [0, 2], "re": -1.0, "im": 2.0}
    assert lines[0]["re"] == 3.0
    assert lines[0]["im"] == -7.0
    assert lines[2] == {"q": 2, "M": [1], "re": 0.25, "im": 0.0}
    assert lines[5] == {"q": 3, "M": [2, 70], "re": 4.0, "im": 0.0}


def _json_lines(table):
    out = []
    for order in sorted(table.orders):
        for members in sorted(map(members_of, table.orders[order])):
            val = complex(table.orders[order][_m(*members)])
            line = {"q": order, "M": members, "re": val.real, "im": val.imag}
            out.append(json.dumps(line, separators=(", ", ": ")) + "\n")
    return "".join(out)


def test_dump_coefficients_matches_json_spelling():
    t = CoefficientTable()
    table_insert(t, 1, _m(0), complex(-0.0, 5e-324))
    table_insert(t, 1, _m(3, 17), complex(1e300, -2.5e-308))
    table_insert(t, 2, _m(1), complex(-1.7976931348623157e308, 0.1))
    table_insert(t, 2, _m(0, 1, 2), 1e-320 + 0j)
    table_insert(t, 2, _m(0, 3), complex(-0.0, 3e299))
    table_insert(t, 3, _m(4), complex(1 / 3, -1e-300))
    table_insert(t, 3, _m(2, 5), complex(float("nan"), float("inf")))
    table_insert(t, 4, _m(9), complex(-float("inf"), -0.0))
    buf = io.StringIO()
    dump_coefficients(t, buf)
    assert buf.getvalue() == _json_lines(t)
    assert '"re": -0.0, "im": 5e-324' in _json_lines(t)
    assert '"re": NaN, "im": Infinity' in _json_lines(t)
