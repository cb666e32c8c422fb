"""Order-by-order coefficient construction against closed forms and the oracle."""

from __future__ import annotations

import gc
import io

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ktspin import EdgeTerm, InvalidThreshold, KtspinError, TwoQubitOperator, solve
from ktspin.clusters import AdjacencyGraph
from ktspin.energy import series_from_state
from ktspin.oracle import extract_creation_coefficients, ground
from ktspin.setalg import bin_candidates, dump_coefficients, members_of, table_lookup
from ktspin.kernel import CODE
from ktspin.solver import (
    SolverState, _divide, _edge_pool, advance_order, tangent_pass,
)
from conftest import (
    make_model,
    random_hermitian_op,
    random_model,
    tf_edge_model,
    topology_pairs,
)
from reference_impl import connected_size, one_norm


def test_single_flip_singleton_series():
    # exact per-site expansion: -x + x^3 - 2 x^5 + 5 x^7 (signed Catalan numbers)
    state = solve(tf_edge_model(), 7)
    want = {1: -1.0, 3: 1.0, 5: -2.0, 7: 5.0}
    for q in range(1, 8):
        for w in (0, 1):
            assert table_lookup(state.table, q, 1 << w) == want.get(q, 0)
        # the exact ground state is a product state: no pair set ever appears
        assert table_lookup(state.table, q, 0b11) == 0


def test_first_order_reads_edge_columns():
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 0] = 0.5       # excite v alone
    mat[2, 0] = -2.0j     # excite u alone
    mat[3, 0] = 3.0       # excite the pair
    m = make_model([2.0, 4.0], [(0, 1, mat)])
    state = solve(m, 1)
    assert table_lookup(state.table, 1, 0b10) == 0.5 / 4.0
    assert table_lookup(state.table, 1, 0b01) == -2.0j / 2.0
    assert table_lookup(state.table, 1, 0b11) == 3.0 / 6.0


def test_parallel_edges_accumulate():
    mat = np.zeros((4, 4), dtype=complex)
    mat[2, 0] = 1.0
    m = make_model([1.0, 1.0], [(0, 1, mat), (0, 1, mat)])
    state = solve(m, 1)
    assert table_lookup(state.table, 1, 0b01) == 2.0


def test_diagonal_model_stays_empty(rng):
    from conftest import random_diagonal_model

    m = random_diagonal_model(rng, 5, topology_pairs("path", 5))
    state = solve(m, 5)
    assert state.table.orders == {}
    assert state.norms == [0.0] * 5


def test_solve_rejects_bad_order():
    with pytest.raises(ValueError):
        solve(tf_edge_model(), 0)


def test_threshold_drops_small_entries():
    assert solve(tf_edge_model(), 3).dropped == [(0, 0.0)] * 3
    state = solve(tf_edge_model(), 3, threshold=1.1)
    # |C_1| = 1 < 1.1 is dropped, so nothing can seed the higher orders
    assert state.table.orders == {}
    # both singletons go at order 1, each the only set on its vertex
    assert state.dropped == [(2, 1.0), (0, 0.0), (0, 0.0)]


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, float("inf"), -float("inf")])
def test_solve_rejects_a_bad_threshold(threshold):
    with pytest.raises(InvalidThreshold) as err:
        solve(tf_edge_model(), 2, threshold)
    assert isinstance(err.value, KtspinError)


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, float("inf")])
def test_state_rejects_a_bad_threshold(threshold):
    # a state built directly must check its threshold as solve does
    with pytest.raises(InvalidThreshold):
        SolverState(tf_edge_model(), threshold)


def test_a_fresh_state_advances_from_order_one(rng):
    # advance_order on a new state builds order 1 from the edge columns,
    # so a hand-driven state equals solve in tables, key order and norms
    for m, order in ((tf_edge_model(), 3), (random_model(rng, topology_pairs("ring", 6), 6), 4)):
        state = SolverState(m, 0.0)
        for _ in range(order):
            advance_order(state)
        want = solve(m, order)
        assert state.current_order == order
        assert state.norms == want.norms
        assert state.dropped == want.dropped
        for q in range(1, order + 1):
            got = state.table.orders.get(q, {})
            assert list(got.items()) == list(want.table.orders.get(q, {}).items())
        assert state.table.bins == want.table.bins
    assert state.norms[0] > 0
    assert solve(tf_edge_model(), 3).norms == [1.0, 0.0, 1.0]


def test_threshold_drops_some_entries(rng):
    m = random_model(rng, topology_pairs("ring", 6), 6)
    order = 5
    full = solve(m, order)
    # the median magnitude of order 2 drops about half of it
    mags = sorted(abs(x) for x in full.table.orders[2].values())
    threshold = mags[len(mags) // 2]
    state = solve(m, order, threshold)
    table = state.table
    for q in range(1, order + 1):
        omap = table.orders[q]
        for mask, value in omap.items():
            assert value != 0
            assert abs(value) >= threshold
        for w in range(m.n):
            in_bin = table.bins.get(w, {}).get(q, [])
            assert in_bin == [mask for mask in omap if mask >> w & 1]
        assert state.norms[q - 1] == one_norm(table, q)
        # the same order frozen without a threshold, from the same lower orders
        if q == 1:
            exact = solve(m, 1).table.orders[1]
        else:
            below = solve(m, q - 1, threshold)
            below.threshold = 0.0
            exact = advance_order(below).table.orders[q]
        kept = {mask: value for mask, value in exact.items() if abs(value) >= threshold}
        assert list(omap.items()) == list(kept.items())
        gone = [mask for mask in exact if mask not in kept]
        per_vertex = {}
        for mask in gone:
            for w in members_of(mask):
                per_vertex[w] = per_vertex.get(w, 0.0) + abs(exact[mask])
        assert state.dropped[q - 1] == (len(gone), max(per_vertex.values(), default=0.0))
        if q >= 2:
            assert 0 < len(gone) and 0 < len(omap)


def test_a_finished_state_holds_only_its_table(rng):
    # no cache rides along: the model, its table, the solve's settings and
    # what each order's freeze recorded
    m = random_model(rng, topology_pairs("ring", 7), 7)
    p = 4
    state = solve(m, p)
    assert SolverState.__slots__ == (
        "model", "table", "current_order", "norms", "dropped", "threshold",
    )
    assert not hasattr(state, "__dict__")
    assert max(mask.bit_count() for mask in state.table.orders[p]) == p + 1
    assert len(state.norms) == len(state.dropped) == p


def test_outputs_never_index_the_last_order(rng):
    # order p is built from the bins of orders 1..p-1; the energies read
    # order p by lookup and the dump groups it from its map, so neither
    # builds its bins
    m = random_model(rng, topology_pairs("ring", 7), 7)
    p = 4
    state = solve(m, p)
    table = state.table
    assert table.unindexed == [p]
    series_from_state(state, p + 1)
    dump_coefficients(table, io.StringIO())
    assert table.unindexed == [p]
    indexed = {q for per_order in table._bins.values() for q in per_order}
    assert indexed == set(range(1, p))


def test_advance_after_a_dump_continues_the_solve(rng):
    m = random_model(rng, topology_pairs("ring", 7), 7)
    state = solve(m, 3)
    series_from_state(state, 4)
    dump_coefficients(state.table, io.StringIO())
    advance_order(state)
    advance_order(state)
    want = solve(m, 5)
    for q in range(1, 6):
        assert list(state.table.orders[q].items()) == list(want.table.orders[q].items())
    assert state.norms == want.norms
    assert state.dropped == want.dropped
    assert state.table.bins == want.table.bins


def test_an_edge_pool_holds_its_bin_candidates_order_by_order(rng):
    # the pool advance_order builds in one pass: section q holds one
    # (order, outside part, code of the edge bits, value) record per
    # bin_candidates(q) pair, in that order, and ends where ends[q] says;
    # a pool kept to the sets within a mask holds those of its records
    # whose set lies in the mask plus the edge, in the same order
    m = random_model(rng, topology_pairs("ring", 7), 7)
    p = 4
    table = solve(m, p).table
    for e in m.edges:
        bu, bv = 1 << e.u, 1 << e.v
        pool, ends = _edge_pool(table, e.u, e.v, p, -1)
        assert ends[0] == 0 and ends[p] == len(pool)
        for q in range(1, p + 1):
            want = [
                (q, mask & ~(bu | bv), CODE[(2 if mask & bu else 0) | (1 if mask & bv else 0)],
                 value)
                for mask, value in bin_candidates(table, e.u, e.v, q)
            ]
            assert want and pool[ends[q - 1]:ends[q]] == want
        for s, t in ((e.u, e.v), (0, 3), (2, 5), (1, 6)):
            within = bu | bv | (1 << s) | (1 << t)
            kept, kept_ends = _edge_pool(table, e.u, e.v, p, within)
            assert kept_ends[0] == 0 and kept_ends[p] == len(kept)
            assert 0 < len(kept) < len(pool)
            for q in range(1, p + 1):
                section = pool[ends[q - 1]:ends[q]]
                want = [rec for rec in section if not rec[1] & ~within]
                assert kept[kept_ends[q - 1]:kept_ends[q]] == want


def test_excitation_energy_is_the_left_to_right_sum(rng):
    m = random_model(rng, topology_pairs("ring", 12), 12)
    masks = [int(x) for x in rng.integers(1, 1 << 12, size=300)]

    def plain(mask):
        total = 0.0
        for w in members_of(mask):
            total = total + m.deltas[w]
        return total

    def divided(state, mask):
        # a numerator of 1 divides to 1 / (the set's excitation energy)
        acc = {mask: 1 + 0j}
        _divide(state.model.deltas, acc, 0.0)
        return acc[mask]

    cold = SolverState(m, 0.0)
    warm = solve(m, 3)
    for state in (cold, warm):
        for mask in masks:
            assert divided(state, mask) == 1 / plain(mask)
    # once more: the sums computed above leave nothing behind that changes them
    for mask in masks:
        assert divided(cold, mask) == 1 / plain(mask)


def test_tangent_pass_needs_the_lower_orders(rng):
    # the pass reads the tables of orders 1..order - 1 and refuses a state
    # that holds fewer; order 1 needs none
    m = random_model(rng, topology_pairs("ring", 6), 6)
    edge = EdgeTerm(0, 1, TwoQubitOperator(random_hermitian_op(rng)))
    state = solve(m, 2)
    for order in (4, 5):
        with pytest.raises(ValueError):
            tangent_pass(state, edge, order)
    cold = SolverState(m, 0.0)
    with pytest.raises(ValueError):
        tangent_pass(cold, edge, 2)
    assert tangent_pass(cold, edge, 1) == tangent_pass(state, edge, 1)
    assert tangent_pass(state, edge, 3)[3]


def test_norms_track_one_norm(rng):
    m = random_model(rng, topology_pairs("ring", 5), 5)
    state = solve(m, 4)
    assert len(state.norms) == 4
    for q in range(1, 5):
        assert state.norms[q - 1] == one_norm(state.table, q)


def test_sets_fit_in_small_connected_clusters(rng):
    # a set stored at order q may itself be disconnected, but it always sits
    # inside a connected cluster spanned by q interaction edges
    m = random_model(rng, topology_pairs("path", 6), 6)
    graph = AdjacencyGraph.from_model(m)
    state = solve(m, 5)
    seen_orders = set()
    for q, omap in state.table.orders.items():
        seen_orders.add(q)
        for mask in omap:
            assert mask.bit_count() <= q + 1
            assert connected_size(graph, members_of(mask)) <= q + 1
    assert seen_orders == set(range(1, 6))


def test_reruns_are_identical(rng):
    m = random_model(rng, topology_pairs("ring", 6), 6)
    a = solve(m, 5)
    b = solve(m, 5)
    assert a.table.orders == b.table.orders
    assert a.norms == b.norms


def _with_edge(m, s, t, mat):
    """The model with one more edge term ``mat`` on (s, t)."""
    specs = [(e.u, e.v, e.op.entries) for e in m.edges] + [(s, t, mat)]
    return make_model(m.deltas, specs)


def _derivative_at_zero(lams, samples):
    """d/dlam at 0 of the polynomial through (lams, samples), exactly interpolated."""
    vander = np.vander(np.asarray(lams, dtype=float), len(lams), increasing=True)
    return np.linalg.solve(vander, np.asarray(samples, dtype=complex))[1]


def test_tangent_pass_is_the_derivative_of_the_coefficients(rng):
    # the order-q coefficient is a polynomial of degree q in the strength
    # lam of an extra edge term, so q + 1 samples pin its slope at 0
    m = random_model(rng, topology_pairs("path", 5), 5)
    obs = random_hermitian_op(rng)
    s, t, order = 3, 1, 4
    edge = EdgeTerm(s, t, TwoQubitOperator(obs))
    tangents = tangent_pass(solve(m, order - 1), edge, order)
    lams = [-1.0, -0.5, 0.5, 1.0, 1.5]
    tables = [solve(_with_edge(m, s, t, lam * obs), order).table for lam in lams]
    checked = 0
    for q in range(1, order + 1):
        masks_seen = set()
        for table in tables:
            masks_seen.update(table.orders.get(q, {}))
        for mask in masks_seen:
            if q == order and mask.bit_count() > 2:
                assert mask not in tangents[q]
                continue
            want = _derivative_at_zero(
                lams[: q + 1], [table_lookup(tb, q, mask) for tb in tables[: q + 1]]
            )
            got = tangents[q].get(mask, 0j)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
            checked += got != 0
        assert all(mask in masks_seen for mask in tangents[q])
    assert checked > 20
    # a value state solved to any depth gives the same tables: its sections
    # come from the bins below its top order and from the leaf filter at it
    for depth in (order, order + 1, order + 2):
        assert tangent_pass(solve(m, depth), edge, order) == tangents


def test_advance_order_resumes_incrementally(rng):
    m = random_model(rng, topology_pairs("path", 4), 4)
    state = solve(m, 1)
    for _ in range(3):
        advance_order(state)
    assert state.current_order == 4
    full = solve(m, 4)
    assert state.table.orders == full.table.orders
    assert state.norms == full.norms


def test_coefficients_match_exact_ground_state(rng):
    # independent route: diagonalize, then peel exp(-C) off the exact state.
    # At eps = 1e-2 and order 10 the worst deviation is 1.7e-15 of the
    # largest predicted entry; with {1, 2, 2} or {1, 1, 2, 2} left out of
    # solver.LIVE it is 2.7e-8 or 8.5e-11 of it.
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    m = random_model(rng, pairs, 4)
    order = 10
    state = solve(m, order)
    eps = 1e-2
    extracted = extract_creation_coefficients(ground(m, eps).state)
    predicted = {}
    for q in range(1, order + 1):
        for mask, value in state.table.orders.get(q, {}).items():
            members = tuple(members_of(mask))
            predicted[members] = predicted.get(members, 0j) + value * eps**q
    scale = max(abs(v) for v in predicted.values())
    tol = 1e-13 * scale
    for members in set(predicted) | set(extracted):
        assert abs(predicted.get(members, 0j) - extracted.get(members, 0j)) <= tol


def test_solve_leaves_no_reference_cycles(rng):
    # each order's work must be freed on return, not left for the collector
    m = random_model(rng, topology_pairs("ring", 5), 5)
    gc.collect()
    gc.disable()
    try:
        state = solve(m, 4)
        del state
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def small_connected_models(draw):
    """Connected graphs on 2-5 qubits with small-integer edge operators.

    The entries include exact zeros.  Operators are Hermitian, real
    non-Hermitian, or complex non-Hermitian.  Half of the complex draws
    are Hermitian conjugated by a per-vertex gauge diag(1, a_w): similar
    to a Hermitian model, so their ground energy stays real; the others
    often have a complex ground energy and are skipped.
    """
    n = draw(st.integers(2, 5))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in pairs]
    if others:
        pairs += draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    kind = draw(st.sampled_from(["complex", "hermitian", "real"]))
    gauge = None
    if kind == "complex" and draw(st.booleans()):
        gauge = draw(st.lists(st.sampled_from([1j, -2j, 0.5 + 0.5j, 2.0]), min_size=n, max_size=n))
    ints = st.lists(st.integers(-2, 2), min_size=16, max_size=16)
    specs = []
    for a, b in pairs:
        mat = np.array(draw(ints), dtype=complex).reshape(4, 4)
        if kind != "real":
            mat = mat + 1j * np.array(draw(ints)).reshape(4, 4)
        if kind == "hermitian" or gauge:
            mat = (mat + mat.conj().T) / 2
        if gauge:
            # rows and columns are indexed 2 * bit(a) + bit(b)
            d = np.kron([1.0, gauge[a]], [1.0, gauge[b]])
            mat = d[:, None] * mat / d[None, :]
        mat /= max(1.0, np.linalg.svd(mat, compute_uv=False)[0])
        u, v = (b, a) if draw(st.booleans()) else (a, b)
        specs.append((u, v, mat))
    deltas = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    return make_model(deltas, specs)


@given(small_connected_models())
def test_coefficients_match_exact_ground_state_on_random_models(m):
    # at eps = 1e-2 every order up to about 5 shows above the 1e-11
    # tolerance, and the order-10 truncation error stays far below it
    order = 10
    eps = 1e-2
    try:
        exact = ground(m, eps)
    except ArithmeticError as err:
        # a complex ground energy has no real lowest eigenpair to compare with
        assume("complex ground energy" not in str(err))
        raise
    state = solve(m, order)
    extracted = extract_creation_coefficients(exact.state)
    predicted = {}
    for q in range(1, order + 1):
        for mask, value in state.table.orders.get(q, {}).items():
            members = tuple(members_of(mask))
            predicted[members] = predicted.get(members, 0j) + value * eps**q
    for members in set(predicted) | set(extracted):
        assert abs(predicted.get(members, 0j) - extracted.get(members, 0j)) <= 1e-11
