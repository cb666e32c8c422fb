"""Correlators: closed form, locality restriction, and the exact oracle."""

from __future__ import annotations

import gc
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ktspin import (
    CorrelatorQuery,
    DanglingVertexId,
    EdgeTerm,
    InvalidObservable,
    NonFiniteStrength,
    NonPositivePrecision,
    SelfLoop,
    TwoQubitOperator,
    choose_correlator_order,
    correlator,
    energy_series,
    restrict_neighborhood,
    solve,
)
from ktspin import response, solver
from ktspin.kernel import CODE
from ktspin.model import parse_pauli_expression
from ktspin.oracle import expectation, ground
from ktspin.certificate import REGIME_CERTIFIED, REGIME_NONE
from ktspin.clusters import AdjacencyGraph, distances
from ktspin.setalg import bin_candidates, members_of
from ktspin.solver import SolverState, advance_order, tangent_pass
from conftest import (
    grid_pairs,
    make_model,
    random_hermitian_op,
    random_model,
    tf_edge_model,
    topology_pairs,
)
from reference_impl import whole_model_correlator


def zi():
    return parse_pauli_expression("ZI")


def query(s, t, obs, eps, order):
    return CorrelatorQuery(
        s=s, t=t, observable=TwoQubitOperator(obs), epsilon=eps, order=order
    )


def test_single_flip_zi_coefficients():
    # per-site closed form: <Z_0> = (1 - r^2)/(1 + r^2) with r = -e/eps,
    # giving 1 - 2 eps^2 + O(eps^4)
    m = tf_edge_model()
    r = correlator(m, query(0, 1, zi(), 0.0, 2))
    assert [c.real for c in r.coefficients] == pytest.approx([1.0, 0.0, -2.0], abs=1e-12)
    assert r.value == pytest.approx(1.0)
    assert r.regime == REGIME_CERTIFIED


def test_order_zero_reads_vacuum_entry():
    m = tf_edge_model()
    r = correlator(m, query(0, 1, zi(), 0.0, 0))
    assert r.coefficients == [1.0 + 0j]
    assert r.value == 1.0
    assert r.bound == pytest.approx(2.0**-16 * m.J * m.d * (m.d + 1))


def test_correlator_matches_diagonalization(rng):
    m = random_model(rng, topology_pairs("path", 5), 5)
    obs = random_hermitian_op(rng)
    eps = m.eps0_star / (2 * m.d)
    r = correlator(m, query(1, 3, obs, eps, 4))
    assert r.regime == REGIME_CERTIFIED
    g = ground(m, eps)
    exact = expectation(g.state, obs, 1, 3)
    assert abs(r.value - exact) <= r.bound + 1e-10


def test_validation_errors():
    m = tf_edge_model()
    with pytest.raises(SelfLoop):
        correlator(m, query(0, 0, zi(), 0.0, 1))
    with pytest.raises(DanglingVertexId):
        correlator(m, query(0, 5, zi(), 0.0, 1))
    with pytest.raises(NonPositivePrecision):
        correlator(m, query(0, 1, zi(), 0.0, -1))
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(InvalidObservable):
        correlator(m, CorrelatorQuery(0, 1, skew, 0.0, 1))


def test_regime_none_beyond_threshold():
    m = tf_edge_model()
    eps = m.eps0_star  # twice the certified correlator strength
    with pytest.warns(UserWarning, match="outside the certified correlator regime"):
        r = correlator(m, query(0, 1, zi(), eps, 2))
    assert r.regime == REGIME_NONE
    assert r.bound is None


def test_non_finite_strength_is_never_certified():
    # all-zero edge: J = 0, so eps0_star and the certified strength are inf
    m = make_model([1.0, 1.0], [(0, 1, np.zeros((4, 4)))])
    zz = parse_pauli_expression("ZZ")
    for eps in (float("inf"), float("nan"), -float("inf")):
        with pytest.raises(NonFiniteStrength):
            correlator(m, query(0, 1, zz, eps, 1))
        # construction alone refuses it, and so does a query changed afterwards
        with pytest.raises(NonFiniteStrength):
            query(0, 1, zz, eps, 1)
        changed = query(0, 1, zz, 0.0, 1)
        changed.epsilon = eps
        with pytest.raises(NonFiniteStrength):
            correlator(m, changed)
    # a finite strength whose powers overflow: 0 * inf makes the value NaN
    with pytest.warns(UserWarning, match="the correlator value is not finite"):
        r = correlator(m, query(0, 1, zz, 1e300, 3))
    assert np.isnan(r.value)
    assert r.regime == REGIME_NONE
    assert r.bound is None
    r = correlator(m, query(0, 1, zz, 1e3, 3))
    assert r.value == 1.0
    assert r.regime == REGIME_CERTIFIED


def test_large_observable_is_rescaled_consistently(rng):
    m = random_model(rng, topology_pairs("path", 4), 4)
    obs = random_hermitian_op(rng)
    eps = m.eps0_star / (2 * m.d)
    small = correlator(m, query(0, 2, obs, eps, 3))
    big = correlator(m, query(0, 2, 25.0 * obs, eps, 3))
    assert big.value == pytest.approx(25.0 * small.value, rel=1e-12)
    assert big.bound == pytest.approx(25.0 * small.bound, rel=1e-12)
    for cb, cs in zip(big.coefficients, small.coefficients):
        assert cb == pytest.approx(25.0 * cs, rel=1e-12)
    # the solve is linear in the observable, so a power of two scales every
    # coefficient and the value exactly, also from below J to above it
    for op in (obs, 0.75 * obs):
        one = correlator(m, query(0, 2, op, eps, 3))
        eight = correlator(m, query(0, 2, 8.0 * op, eps, 3))
        assert eight.coefficients == [8.0 * c for c in one.coefficients]
        assert eight.value == 8.0 * one.value


def test_restriction_is_bit_identical(rng):
    # the whole point of the neighborhood cut: not just close, identical
    m = random_model(rng, topology_pairs("ring", 12), 12)
    obs = random_hermitian_op(rng)
    for order in (2, 3):
        q = query(3, 5, obs, m.eps0_star / (2 * m.d), order)
        full = whole_model_correlator(m, q)
        cut = correlator(m, q)
        assert cut.value == full.value
        assert cut.coefficients == full.coefficients
        assert cut.bound == full.bound
    # the light cone is tight: one hop less changes these answers.  A random
    # observable, since a diagonal one (ZZ) leaves the cut edges unread
    for m in (random_model(rng, topology_pairs("ring", 14), 14),
              random_model(rng, grid_pairs(3, 3), 9)):
        obs = random_hermitian_op(rng)
        for s, t in ((0, 1), (3, 5), (2, 6)):
            for order in range(1, 6):
                q = query(s, t, obs, m.eps0_star / (2 * m.d), order)
                full = whole_model_correlator(m, q)
                cut = correlator(m, q)
                assert cut.value == full.value, (s, t, order)
                assert cut.coefficients == full.coefficients, (s, t, order)


def test_restriction_is_bit_identical_at_the_benchmark_scale():
    # a 200-vertex ring plus a perfect matching avoiding ring-adjacent pairs
    # (degree 3), the family of the benchmark's model: the capped light cone
    # must give the whole model's answers, bit for bit
    n = 200
    py_rng = random.Random(2022)
    while True:
        verts = list(range(n))
        py_rng.shuffle(verts)
        matching = [(verts[2 * i], verts[2 * i + 1]) for i in range(n // 2)]
        if all((u - v) % n not in (1, n - 1) for u, v in matching):
            break
    rng = np.random.default_rng(2022)
    m = random_model(rng, topology_pairs("ring", n) + matching, n)
    assert m.d == 3
    observables = (parse_pauli_expression("ZZ"), random_hermitian_op(rng))
    eps = m.eps0_star / (2 * m.d)
    # two ring edges, two matching edges, and two sites two hops apart
    pairs = [(e.u, e.v) for e in (m.edges[0], m.edges[77], m.edges[n], m.edges[n + 61])]
    far = py_rng.randrange(n)
    pairs.append((far, (far + 2) % n))
    for s, t in pairs:
        # both observables per side: the restricted side solves each cone
        # once, and the whole-model reference once per query
        full = [whole_model_correlator(m, query(s, t, obs, eps, 4)) for obs in observables]
        cut = [correlator(m, query(s, t, obs, eps, 4)) for obs in observables]
        for a, b in zip(cut, full):
            assert a.value == b.value, (s, t)
            assert a.coefficients == b.coefficients, (s, t)
            assert a.bound == b.bound, (s, t)


def test_the_held_light_cone_caps_its_top_order(rng):
    # the held state stores order p only on {s}, {t} and {s, t}, and for
    # p >= 3 order p - 1 only within p - 1 hops of the sites; a capped
    # order's record holds its mask and no one-norm, and every other order
    # of the uncapped cone is kept whole, record included
    cut_somewhere = False
    for m in (random_model(rng, grid_pairs(4, 4), 16),
              random_model(rng, topology_pairs("ring", 14), 14)):
        obs = random_hermitian_op(rng)
        eps = m.eps0_star / (2 * m.d)
        for s, t in ((0, 1), (5, 10)):
            for p in range(1, 6):
                correlator(m, query(s, t, obs, eps, p))
                key, rs, rt, state = m._light_cone
                assert key == (s, t, p)
                sub, mapping = restrict_neighborhood(m, s, t, p - 1)
                assert (rs, rt) == (mapping[s], mapping[t])
                assert state.model.n == sub.n
                assert state.current_order == len(state.steps) == p
                uncapped = solve(sub, p)
                whole = p - 1 if p <= 2 else p - 2
                assert state.steps[:whole] == uncapped.steps[:whole]
                assert all(step.within == -1 for step in state.steps[:whole])
                for q in range(1, whole + 1):
                    assert (list(state.table.orders[q].items())
                            == list(uncapped.table.orders[q].items()))
                if p >= 3:
                    dist = distances(AdjacencyGraph.from_model(sub), (rs, rt))
                    top = state.table.orders[p - 1]
                    full = uncapped.table.orders[p - 1]
                    ball = sum(1 << w for w, d in enumerate(dist) if d <= p - 1)
                    assert state.steps[p - 2].within == ball
                    assert state.steps[p - 2].norm is None
                    assert list(top.items()) == [
                        (mask, value) for mask, value in full.items()
                        if all(dist[w] <= p - 1 for w in members_of(mask))
                    ]
                    cut_somewhere |= len(top) < len(full)
                sites = (1 << rs, 1 << rt, (1 << rs) | (1 << rt))
                assert state.steps[p - 1].within == sites[2]
                assert state.steps[p - 1].norm is None
                assert list(state.table.orders.get(p, {}).items()) == [
                    (mask, value) for mask, value in uncapped.table.orders.get(p, {}).items()
                    if mask in sites
                ]
    assert cut_somewhere


def test_a_query_and_a_solve_leave_no_reference_cycles(rng):
    # a query's work, the tangent pass's walks included, is freed on return,
    # not left for the collector
    m = random_model(rng, grid_pairs(3, 3), 9)
    obs = random_hermitian_op(rng)
    gc.collect()
    gc.disable()
    try:
        correlator(m, query(0, 1, obs, m.eps0_star / (2 * m.d), 4))
        assert gc.collect() == 0
        state = solve(m, 4)
        del state
        assert gc.collect() == 0
    finally:
        gc.enable()


def _cold_copy(m):
    """The same model built anew, with new operators and so no cached kernels."""
    return make_model(m.deltas, [(e.u, e.v, e.op.entries) for e in m.edges])


def test_warm_operators_give_the_cold_answers(rng):
    # kernels cached on an operator by one light cone must serve any other:
    # each answer on operators warmed by queries on other pairs, whose
    # submodels number the sites differently, equals a model built anew.
    # The observable is one operator too, warmed by every query before, and
    # each cold answer takes a new one.
    for m in (random_model(rng, topology_pairs("ring", 14), 14),
              random_model(rng, grid_pairs(3, 3), 9)):
        warm_obs = TwoQubitOperator(random_hermitian_op(rng, 0.5 * m.J))
        eps = m.eps0_star / (2 * m.d)
        for s, t in ((0, 1), (3, 5), (2, 6)):
            for ws, wt in ((0, 1), (3, 5), (2, 6)):
                if (ws, wt) != (s, t):
                    correlator(m, CorrelatorQuery(ws, wt, warm_obs, eps, 5))
            for order in range(1, 6):
                warm = correlator(m, CorrelatorQuery(s, t, warm_obs, eps, order))
                cold = correlator(_cold_copy(m), query(s, t, warm_obs.entries, eps, order))
                assert warm.value == cold.value, (s, t, order)
                assert warm.coefficients == cold.coefficients, (s, t, order)
            assert any(warm_obs._kernels)
            # a submodel shares its parent's warm operators
            sub, _mapping = restrict_neighborhood(m, s, t, 3)
            cold_sub, _mapping = restrict_neighborhood(_cold_copy(m), s, t, 3)
            warm_state, cold_state = solve(sub, 4), solve(cold_sub, 4)
            assert warm_state.steps == cold_state.steps
            for q in range(1, 5):
                assert (list(warm_state.table.orders.get(q, {}).items())
                        == list(cold_state.table.orders.get(q, {}).items()))


def test_adjacent_queries_on_the_same_light_cone_share_one_solve(monkeypatch):
    rng = np.random.default_rng(11)
    m = random_model(rng, topology_pairs("ring", 12), 12)
    zz = parse_pauli_expression("ZZ")
    other = random_hermitian_op(rng)
    eps = m.eps0_star / (2 * m.d)
    a, b = (2, 3), (7, 9)
    # (sites, observable, order): only the second can reuse a solve
    sequence = [(a, zz, 4), (a, other, 4), (b, zz, 4), (a, zz, 4), (a, zz, 3)]
    states, steps = [], []

    def state_spy(model, threshold):
        # the held state is dropped first, so two are never alive at once
        assert m._light_cone is None
        states.append(model)
        return SolverState(model, threshold)

    def step_spy(state, within=-1):
        steps.append(state.current_order + 1)
        return advance_order(state, within)

    monkeypatch.setattr(response, "SolverState", state_spy)
    monkeypatch.setattr(response, "advance_order", step_spy)
    calls, answers = [], []
    for (s, t), obs, p in sequence:
        before = (len(states), len(steps))
        answers.append(correlator(m, query(s, t, obs, eps, p)))
        built = steps[before[1]:]
        assert built in ([], list(range(1, p + 1)))
        calls.append((len(states) - before[0], built.count(p)))
    # the site values are the held state's last order: the second query
    # builds neither a state nor an order step
    assert calls == [(1, 1), (0, 0), (1, 1), (1, 1), (1, 1)]
    monkeypatch.undo()
    for ((s, t), obs, p), warm in zip(sequence, answers):
        cold = correlator(_cold_copy(m), query(s, t, obs, eps, p))
        assert warm.value == cold.value
        assert warm.coefficients == cold.coefficients
        assert (warm.bound, warm.regime) == (cold.bound, cold.regime)


def test_correlator_restricts_to_its_light_cone(monkeypatch):
    m = random_model(np.random.default_rng(7), topology_pairs("ring", 10), 10)
    asked = []

    def spy(model, s, t, order):
        asked.append(order)
        return restrict_neighborhood(model, s, t, order)

    monkeypatch.setattr(response, "restrict_neighborhood", spy)
    zz = parse_pauli_expression("ZZ")
    for order in range(5):
        correlator(m, query(2, 5, zz, 0.0, order))
    assert asked == [0, 1, 2, 3]


def test_restrict_neighborhood_geometry():
    m = random_model(np.random.default_rng(5), topology_pairs("path", 11), 11)
    sub, mapping = restrict_neighborhood(m, 4, 6, 2)
    # vertices within hop distance 3 of {4, 6}: 1..9
    assert sorted(mapping) == list(range(1, 10))
    assert [mapping[w] for w in sorted(mapping)] == list(range(9))
    assert sub.n == 9
    # edges with nearer endpoint within distance 2: (1,2) .. (8,9)
    kept = [(e.u, e.v) for e in sub.edges]
    assert kept == [(mapping[i], mapping[i + 1]) for i in range(1, 9)]
    deltas = [v.delta for v in sub.vertices]
    assert deltas == [m.deltas[w] for w in sorted(mapping)]


def test_restrict_neighborhood_whole_graph_when_wide():
    m = random_model(np.random.default_rng(6), topology_pairs("path", 5), 5)
    sub, mapping = restrict_neighborhood(m, 0, 4, 10)
    assert sub.n == 5
    assert mapping == {w: w for w in range(5)}
    assert len(sub.edges) == 4


def test_choose_correlator_order_is_minimal():
    # a star of four XX edges: J = 1, d = 4, and ZZ's bound is not scaled
    star = make_model([1.0] * 5, [(0, w, parse_pauli_expression("XX")) for w in range(1, 5)])
    zz = TwoQubitOperator.from_pauli("ZZ")
    p = choose_correlator_order(star, zz, 2.0**-20)
    assert p == 9
    assert 2.0 ** (-16 - p) * 1.0 * 4 * 5 <= 2.0**-20
    assert 2.0 ** (-16 - (p - 1)) * 1.0 * 4 * 5 > 2.0**-20
    assert choose_correlator_order(make_model([1.0, 1.0], []), zz, 1.0) == 0
    with pytest.raises(NonPositivePrecision):
        choose_correlator_order(star, zz, 0.0)


def test_identity_observable_has_flat_response(rng):
    m = random_model(rng, topology_pairs("path", 4), 4)
    r = correlator(m, query(0, 3, np.eye(4), 1e-7, 3))
    assert r.coefficients[0] == pytest.approx(1.0, rel=1e-12)
    for c in r.coefficients[1:]:
        assert abs(c) <= 1e-14
    assert r.value == pytest.approx(1.0)


def _small_ints(draw, hermitian):
    ints = st.lists(st.integers(-2, 2), min_size=16, max_size=16)
    mat = np.array(draw(ints), dtype=complex).reshape(4, 4)
    if hermitian:
        mat = mat + 1j * np.array(draw(ints)).reshape(4, 4)
        mat = (mat + mat.conj().T) / 2
    return mat


@st.composite
def correlator_cases(draw):
    """A connected model on 2-6 qubits, two distinct sites, an observable, an order.

    Edge operators and the observable have small-integer entries with
    exact zeros; edge operators are Hermitian or real non-Hermitian.  The
    sites need not be adjacent.
    """
    n = draw(st.integers(2, 6))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in pairs]
    if others:
        pairs += draw(st.lists(st.sampled_from(others), max_size=2, unique=True))
    hermitian = draw(st.booleans())
    specs = []
    for a, b in pairs:
        mat = _small_ints(draw, hermitian)
        mat /= max(1.0, np.linalg.svd(mat, compute_uv=False)[0])
        specs.append((a, b, mat))
    deltas = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    s = draw(st.integers(0, n - 1))
    t = (s + draw(st.integers(1, n - 1))) % n
    obs = _small_ints(draw, True)
    return make_model(deltas, specs), s, t, obs, draw(st.integers(1, 4))


def _energy_slope(m, s, t, obs, q, lams):
    """dE_q/dlam at 0 for the model plus lam * obs on (s, t), by exact interpolation.

    E_q is a polynomial of degree q in lam, so q + 1 nonzero samples fix it.
    """
    specs = [(e.u, e.v, e.op.entries) for e in m.edges]
    samples = []
    for lam in lams[: q + 1]:
        series = energy_series(make_model(m.deltas, specs + [(s, t, lam * obs)]), q)
        samples.append(series.coefficients[q - 1])
    vander = np.vander(np.asarray(lams[: q + 1]), q + 1, increasing=True)
    return np.linalg.solve(vander, np.asarray(samples))[1], max(abs(x) for x in samples)


@given(correlator_cases())
def test_coefficients_are_energy_derivatives(case):
    m, s, t, obs, p = case
    # certified; an all-zero model certifies every strength, so cap it
    eps = min(m.eps0_star / (2 * m.d), 1e-3)
    r = correlator(m, query(s, t, obs, eps, p))
    assert r.regime == REGIME_CERTIFIED and np.isfinite(r.value)
    lams = [-1.0, -0.5, 0.5, 1.0, 1.5, 2.0]
    for q in range(p + 1):
        want, scale = _energy_slope(m, s, t, obs, q + 1, lams)
        assert abs(r.coefficients[q] - want) <= 1e-9 * max(1.0, scale)
    if m.hermitian:
        exact = expectation(ground(m, eps).state, obs, s, t)
        assert abs(r.value - exact) <= r.bound + 1e-10


def test_derivative_only_sets_keep_the_slopes():
    # non-adjacent sites on a ring: the observable edge creates sets that no
    # model edge does, so their value is exactly zero while their derivative
    # is not; they feed later orders, and the slopes must still be exact
    rng = np.random.default_rng(20260813)
    m = random_model(rng, topology_pairs("ring", 12), 12)
    zz = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    p = 5
    state = solve(m, p - 1)
    tangents = tangent_pass(state, EdgeTerm(2, 7, TwoQubitOperator(zz)), p)
    derivative_only = [
        mask for q in range(1, p) for mask in tangents[q]
        if mask not in state.table.orders.get(q, {})
    ]
    assert len(derivative_only) > 50
    # the converse, so that a key of another kind cannot pass the line above
    assert any(mask in state.table.orders.get(q, {}) for q in range(1, p) for mask in tangents[q])
    r = correlator(m, query(2, 7, zz, m.eps0_star / (2 * m.d), p))
    lams = [-1.0, -0.5, 0.5, 1.0, 1.5, 2.0, -1.5]
    for q in range(p + 1):
        want, scale = _energy_slope(m, 2, 7, zz, q + 1, lams)
        assert abs(r.coefficients[q] - want) <= 1e-9 * max(1.0, scale)


def test_only_edges_that_meet_a_derivative_set_build_a_pool(monkeypatch):
    # the pass walks the observable edge and the model edges that meet a
    # derivative set; an edge that would only feed the values of {s}, {t}
    # and {s, t} builds nothing, since those come from the value table
    rng = np.random.default_rng(5)
    m = random_model(rng, topology_pairs("ring", 12), 12)
    obs = random_hermitian_op(rng)
    sections = []
    add_section = solver._TangentPool.add_section

    def spy(self, masks, omap, u, v, order, tangent, last):
        before = len(self.records)
        add_section(self, masks, omap, u, v, order, tangent, last)
        sections.append((id(self), u, v, order, last, self.records[before:]))

    monkeypatch.setattr(solver._TangentPool, "add_section", spy)
    p = 4
    s, t = 2, 5
    state = solve(m, p - 1)
    tangents = tangent_pass(state, EdgeTerm(s, t, TwoQubitOperator(obs)), p)
    monkeypatch.undo()
    hit = 0
    for q in range(1, p):
        for mask in tangents[q]:
            hit |= mask
    pooled = {}
    for pool, u, v, _q, _last, _records in sections:
        assert pooled.setdefault(pool, (u, v)) == (u, v)
    walked = sorted(pooled.values())
    want = sorted([(e.u, e.v) for e in m.edges if ((1 << e.u) | (1 << e.v)) & hit] + [(s, t)])
    assert walked == want
    # some edge meets no derivative set, yet can reach the sites' values:
    # it touches s or t, or a stored set within it plus {s, t} that meets
    # it has a vertex off it
    st = (1 << s) | (1 << t)

    def reaches_sites(e):
        uv = (1 << e.u) | (1 << e.v)
        cands = [mask for q in range(1, p) for mask in state.table.orders[q]
                 if mask & uv and not mask & ~(uv | st)]
        return bool(uv & st) or any(mask & ~uv for mask in cands)

    idle = [e for e in m.edges if not ((1 << e.u) | (1 << e.v)) & hit]
    assert any(reaches_sites(e) for e in idle)

    def pool_order(u, v, q):
        # the edge's order-q masks as its bins give them, with the sets only
        # the tangent table holds after the sets of their bin
        bu, bv = 1 << u, 1 << v
        cands = [mask for mask, _value in bin_candidates(state.table, u, v, q)]
        extra = [mask for mask in tangents[q] if mask not in state.table.orders[q]]
        return ([mask for mask in cands if mask & bu] + [mask for mask in extra if mask & bu]
                + [mask for mask in cands if not mask & bu]
                + [mask for mask in extra if mask & bv and not mask & bu])

    def record(u, v, q, mask):
        bu, bv = 1 << u, 1 << v
        return (q, mask & ~(bu | bv), CODE[(2 if mask & bu else 0) | (1 if mask & bv else 0)],
                state.table.orders[q].get(mask, 0j), tangents[q].get(mask))

    # the last step's top sections keep no set with more than two vertices
    # off the edge; on a model edge they hold only the records that carry a
    # derivative, since a lone top-order record with none carries nothing,
    # and on the observable edge every other record too
    kept = {"model": 0, "observable": 0}
    dropped = {"model": 0, "observable": 0}
    for _pool, u, v, q, last, records in sections:
        if not (last and q == p - 1):
            continue
        kind = "observable" if (u, v) == (s, t) else "model"
        small = [mask for mask in pool_order(u, v, q)
                 if (mask & ~((1 << u) | (1 << v))).bit_count() <= 2]
        if kind == "model":
            small = [mask for mask in small if mask in tangents[q]]
        assert records == [record(u, v, q, mask) for mask in small]
        kept[kind] += len(records)
        dropped[kind] += len(pool_order(u, v, q)) - len(records)
    assert all(kept.values()) and all(dropped.values())
