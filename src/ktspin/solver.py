"""Order-by-order construction of the ground-state creation coefficients.

The ground state is represented as ``exp(-C)`` applied to the all-zero
configuration, where ``C`` is a sum of creation operators over vertex
sets with scalar coefficients.  Expanding in the perturbation strength
gives one coefficient table per order.  ``solve`` is the one entry
point: order 1 reads matrix elements of the edge terms directly, and
each later order (``advance_order``) combines up to four lower-order
sets against every edge through the commutator kernel.

Tuples of lower-order sets are enumerated as multisets in a fixed pool
order with a 1/(multiplicity factorial) weight per repeated item, which
sums the same terms as ordered tuples weighted 1/k! while visiting each
combination once.  Exact zeros are never stored, and every loop runs in
a reproducible order, so reruns produce identical bytes.

A tuple's kernel result depends only on the multiset of its items' edge
bits (1 = second endpoint only, 2 = first endpoint only, 3 = both), and
only 12 of the 34 multisets of size one to four give a nested commutator
that is not identically zero, whatever the edge operator: every single
and every pair, plus {1, 1, 2}, {1, 2, 2} and {1, 1, 2, 2}.  In all the
others each target entry receives one operator entry with signs summing
to zero.  The enumeration carries the multiset as a base-5 count code,
emits only live codes, and extends a partial tuple only while some live
multiset still strictly contains it, so it skips exactly the tuples
whose kernel result is empty and sums everything else in the same order.

Entries dropped by a positive threshold are counted per order, with
their one-norm, so a caller can tell that the table is no longer the
exact series.
"""

from __future__ import annotations

from itertools import combinations

from .kernel import target_matrix_elements
from .scalars import scalar_abs
from .setalg import (
    CoefficientTable,
    bin_candidates,
    one_norm,
    table_insert,
)

# multiset code of edge-bit patterns: base-5 counts of patterns 1, 2 and 3
_W = (0, 1, 5, 25)
_NCODES = 125

_LIVE_MULTISETS = (
    (1,), (2,), (3,),
    (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
    (1, 1, 2), (1, 2, 2),
    (1, 1, 2, 2),
)


def _code(sbits):
    return sum(_W[sb] for sb in sbits)


def _code_bits(code):
    """Sorted edge-bit tuple of a multiset code."""
    return (1,) * (code % 5) + (2,) * (code // 5 % 5) + (3,) * (code // 25)


# LIVE[code]: the multiset's nested commutator is not identically zero.
# GROWS[code]: some live multiset strictly contains it (never at size 4).
LIVE = [False] * _NCODES
GROWS = [False] * _NCODES
for _ms in _LIVE_MULTISETS:
    LIVE[_code(_ms)] = True
    for _k in range(len(_ms)):
        for _sub in combinations(_ms, _k):
            GROWS[_code(_sub)] = True


class SolverState:
    """Coefficient table plus bookkeeping for resuming at the next order."""

    __slots__ = (
        "model",
        "table",
        "current_order",
        "norms",
        "dropped",
        "threshold",
        "deltas",
        "terms",
        "_pools",
        "_mecaches",
        "_e0",
    )

    def __init__(self, model, terms, threshold):
        self.model = model
        self.table = CoefficientTable()
        self.current_order = 0
        self.norms = []
        self.dropped = []
        self.threshold = threshold
        self.deltas = model.deltas
        self.terms = terms
        self._pools = [[] for _ in terms]
        self._mecaches = [[None] * _NCODES for _ in terms]
        self._e0 = {}

    def excitation_energy(self, members):
        e = self._e0.get(members)
        if e is None:
            deltas = self.deltas
            e = 0.0
            for w in members:
                e += deltas[w]
            self._e0[members] = e
        return e


def _prepare_terms(model):
    """Edge terms as (u, v, nested tuple of entries) for fast scalar access."""
    return [
        (e.u, e.v, tuple(tuple(row) for row in e.op.entries.tolist()))
        for e in model.edges
    ]


def _freeze_order(state, acc, order):
    """Divide accumulated numerators by excitation energies and store them.

    ``acc`` maps vertex bitmasks to numerators; each stored set becomes a
    strictly increasing tuple here, once.  Entries under the threshold are
    not stored; their count and one-norm (largest per-vertex sum of
    magnitudes, as for ``norms``) go to ``state.dropped``.
    """
    table = state.table
    threshold = state.threshold
    dropped = {}
    count = 0
    for mask, numerator in acc.items():
        members = _mask_members(mask)
        value = numerator / state.excitation_energy(members)
        if value == 0:
            continue
        if threshold > 0.0:
            mag = scalar_abs(value)
            if mag < threshold:
                count += 1
                for w in members:
                    dropped[w] = dropped.get(w, 0.0) + mag
                continue
        table_insert(table, order, members, value)
    state.current_order = order
    state.norms.append(one_norm(table, order))
    state.dropped.append((count, max(dropped.values(), default=0.0)))


def _mask_members(mask):
    """Strictly increasing tuple of the vertex ids set in a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _extend_pools(state, order):
    """Append the given order's candidate records to every edge pool.

    A record is (order, outside bitmask, multiset code of its edge bits,
    value); pools stay sorted by order because orders are appended in
    sequence.
    """
    table = state.table
    for idx, (u, v, _entries) in enumerate(state.terms):
        pool = state._pools[idx]
        for members, value in bin_candidates(table, u, v, order):
            sb = (2 if u in members else 0) | (1 if v in members else 0)
            mask = 0
            for w in members:
                if w != u and w != v:
                    mask |= 1 << w
            pool.append((order, mask, _W[sb], value))


def _kernel_results(code, entries, bit_masks):
    """((target bit mask, matrix element), ...) for a multiset code, zeros omitted."""
    mes = target_matrix_elements(_code_bits(code), entries)
    return tuple((bit_masks[s], me) for s, me in mes.items())


def advance_order(state):
    """Extend the table by one order from the already stored ones.

    The pools receive the newest stored order here rather than when it is
    frozen, so the order a solve stops at never builds records.  Kernel
    results live on the state, one slot per multiset code and edge, and
    are computed on first use.
    """
    budget = state.current_order
    _extend_pools(state, budget)
    acc = {}

    def grow(start, remaining, outside, code, coeff, denom, last, run):
        for i in range(start, npool):
            item = pool[i]
            order = item[0]
            if order > remaining:
                break
            mask = item[1]
            if mask & outside:
                continue
            code2 = code + item[2]
            left = remaining - order
            if left == 0:
                if not LIVE[code2]:
                    continue
            elif not GROWS[code2]:
                continue
            coeff2 = coeff * item[3]
            if i == last:
                run2 = run + 1
                denom2 = denom * run2
            else:
                run2 = 1
                denom2 = denom
            outside2 = outside | mask
            if left:
                grow(i, left, outside2, code2, coeff2, denom2, i, run2)
                continue
            mes = mecache[code2]
            if mes is None:
                mes = mecache[code2] = _kernel_results(code2, entries, bit_masks)
            weight = coeff2 / denom2 if denom2 > 1 else coeff2
            for bits, me in mes:
                target = outside2 | bits
                if not target:
                    continue
                contrib = weight * me
                if contrib != 0:
                    prev = acc.get(target)
                    acc[target] = contrib if prev is None else prev + contrib

    for idx, (u, v, entries) in enumerate(state.terms):
        pool = state._pools[idx]
        if not pool:
            continue
        mecache = state._mecaches[idx]
        npool = len(pool)
        bit_masks = (0, 1 << v, 1 << u, (1 << u) | (1 << v))
        grow(0, budget, 0, 0, 1.0, 1, -1, 0)
    # grow refers to itself; dropping it frees acc and the pools on return
    grow = None
    _freeze_order(state, acc, budget + 1)
    return state


def solve(model, order, threshold=0.0, terms=None):
    """Coefficient tables for all orders 1..order.

    ``terms`` replaces the model's edge terms by (u, v, nested 4x4 entries)
    triples whose entries may use any scalar type with ring arithmetic;
    this is how derivative-carrying runs reuse the solver unchanged.
    Order 1 reads the vacuum column of each edge term directly.
    """
    if order < 1:
        raise ValueError("solve needs order >= 1")
    if terms is None:
        terms = _prepare_terms(model)
    state = SolverState(model, terms, threshold)
    acc = {}
    for u, v, entries in state.terms:
        pair_sets = (
            (1 << v, entries[1][0]),
            (1 << u, entries[2][0]),
            ((1 << u) | (1 << v), entries[3][0]),
        )
        for mask, value in pair_sets:
            if value != 0:
                prev = acc.get(mask)
                acc[mask] = value if prev is None else prev + value
    _freeze_order(state, acc, 1)
    while state.current_order < order:
        advance_order(state)
    return state
