"""Order-by-order construction of the ground-state creation coefficients.

The ground state is represented as ``exp(-C)`` applied to the all-zero
configuration, where ``C`` is a sum of creation operators over vertex
sets with scalar coefficients.  Expanding in the perturbation strength
gives one coefficient table per order.  ``solve`` is the one entry
point, a ``SolverState`` advanced order by order: order 1 reads matrix
elements of the edge terms directly, and each later order
(``advance_order``) combines up to four lower-order sets against every
edge through the commutator kernel.

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

Each edge walks a pool of candidate records: the stored sets that meet
the edge, order by order, each order in bin order.  The pool is read
from the table's bins (``setalg.bin_candidates``) when the edge's walk
starts and freed when it ends, so between advances a solve holds only
its table and two caches.  The excitation-energy cache keeps set
prefixes, not the sets themselves.

``tangent_pass`` differentiates a solved table along one extra edge
term (forward mode with sparsity): it walks the same records in the
same order, but only through tuples that carry a derivative.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from math import isfinite

from .errors import InvalidThreshold
from .kernel import edge_kernel
from .model import TwoQubitOperator
from .setalg import CoefficientTable, bin_candidates, install_order, members_of

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
    """Coefficient table plus bookkeeping for resuming at the next order.

    A new state holds no order; each ``advance_order`` adds the next,
    starting at order 1.  A threshold that is not a finite number >= 0
    raises InvalidThreshold (see ``_freeze_order``).  Besides the table
    it keeps two caches.  ``_mecaches`` holds one slot per edge and
    multiset code: the operator's kernel patterns (``kernel.edge_kernel``)
    mapped onto that edge's bitmasks, filled on first use.  ``_e0``
    caches excitation energies of set prefixes.
    Both are pure functions of the model, so ``tangent_pass`` may fill
    them without changing what a later pass or advance computes.
    """

    __slots__ = (
        "model",
        "table",
        "current_order",
        "norms",
        "dropped",
        "threshold",
        "deltas",
        "terms",
        "_mecaches",
        "_e0",
    )

    def __init__(self, model, threshold):
        if not (isfinite(threshold) and threshold >= 0):
            raise InvalidThreshold(f"threshold must be a finite number >= 0, got {threshold}")
        terms = _prepare_terms(model)
        self.model = model
        self.table = CoefficientTable()
        self.current_order = 0
        self.norms = []
        self.dropped = []
        self.threshold = threshold
        self.deltas = model.deltas
        self.terms = terms
        self._mecaches = [[None] * _NCODES for _ in terms]
        self._e0 = {}

    def excitation_energy(self, mask):
        """Sum of ``deltas`` over the set, added in increasing vertex order.

        That sum, up to its last term, is the sum of the set's prefix (the
        set without its highest vertex), so the prefix's sum is looked up,
        or computed the same way and cached, rather than added again.
        Only prefixes are cached: a set is divided once, when its order
        is frozen, but its prefix is shared by many sets.
        """
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        if not rest:
            return 0.0 + self.deltas[top]
        e = self._e0.get(rest)
        if e is None:
            e = self._e0[rest] = self.excitation_energy(rest)
        return e + self.deltas[top]


def _prepare_terms(model):
    """Edge terms as (u, v, nested tuple of entries) for fast scalar access."""
    return [
        (e.u, e.v, tuple(tuple(row) for row in e.op.entries.tolist()))
        for e in model.edges
    ]


def _freeze_order(state, acc, order):
    """Divide accumulated numerators by excitation energies and store them.

    ``acc`` maps vertex bitmasks to numerators and becomes the order's
    map: each value is divided in place, then exact zeros and entries
    under the threshold are deleted, so the survivors keep their order.
    Dropped entries are counted, and their one-norm (largest per-vertex
    sum of magnitudes, as for ``norms``) goes to ``state.dropped``.
    """
    threshold = state.threshold
    energy = state.excitation_energy
    gone = []
    dropped = {}
    count = 0
    for mask, numerator in acc.items():
        value = numerator / energy(mask)
        if value == 0:
            gone.append(mask)
            continue
        if threshold > 0.0:
            mag = abs(value)
            if mag < threshold:
                gone.append(mask)
                count += 1
                for w in members_of(mask):
                    dropped[w] = dropped.get(w, 0.0) + mag
                continue
        acc[mask] = value
    for mask in gone:
        del acc[mask]
    state.current_order = order
    state.norms.append(install_order(state.table, order, acc))
    state.dropped.append((count, max(dropped.values(), default=0.0)))


def _edge_records(candidates, u, v, order):
    """Pool records of one order for the edge (u, v) from its (mask, value) candidates.

    A record is (order, outside bitmask, multiset code of its edge bits,
    value).
    """
    bu, bv = 1 << u, 1 << v
    off = ~(bu | bv)
    return [
        (order, mask & off, _W[(2 if mask & bu else 0) | (1 if mask & bv else 0)], value)
        for mask, value in candidates
    ]


def _kernel_results(code, op, bit_masks):
    """((target bit mask, matrix element), ...) for a multiset code, zeros omitted.

    Maps the operator's cached edge-bit patterns onto one edge's bitmasks.
    """
    return tuple((bit_masks[s], me) for s, me in edge_kernel(op, _code_bits(code)))


def advance_order(state):
    """Extend the table by one order from the already stored ones.

    A state with no order gets order 1, read from the vacuum column of
    each edge term.  Otherwise, with budget b (the newest stored order),
    each edge builds its pool of orders 1..b from the bins, walks it and
    frees it.  Bins only grow once an order is installed, so the pool
    is the same whichever advance builds it.  Kernel results live on
    the state, one slot per multiset code and edge, mapped on first use
    from the patterns cached on the edge's operator.
    """
    budget = state.current_order
    if budget == 0:
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
        return state
    table = state.table
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
                mes = mecache[code2] = _kernel_results(code2, op, bit_masks)
            weight = coeff2 / denom2 if denom2 > 1 else coeff2
            for bits, me in mes:
                target = outside2 | bits
                if not target:
                    continue
                contrib = weight * me
                if contrib != 0:
                    prev = acc.get(target)
                    acc[target] = contrib if prev is None else prev + contrib

    edges = state.model.edges
    for idx, (u, v, _entries) in enumerate(state.terms):
        pool = []
        for q in range(1, budget + 1):
            pool += _edge_records(bin_candidates(table, u, v, q), u, v, q)
        if not pool:
            continue
        mecache = state._mecaches[idx]
        op = edges[idx].op
        npool = len(pool)
        bit_masks = (0, 1 << v, 1 << u, (1 << u) | (1 << v))
        grow(0, budget, 0, 0, 1.0, 1, -1, 0)
    # grow refers to itself; dropping it frees acc and the last pool on return
    grow = None
    _freeze_order(state, acc, budget + 1)
    return state


def times(av, ad, bv, bd):
    """Product of two (value, derivative) pairs; a derivative of None is absent.

    The derivative follows the product rule ``a.val*b.der + a.der*b.val``
    when both factors carry one, and is None when neither does.
    """
    if ad is None:
        if bd is None:
            return av * bv, None
        return bv * av, bd * av
    if bd is None:
        return av * bv, ad * bv
    return av * bv, av * bd + ad * bv


class _TangentPool:
    """One edge's pool for the tangent pass, built section by section.

    ``records`` holds pool records as ``advance_order`` builds them: a
    model edge's sections come from the bins, and, for the order the
    state stops at, only those ``_leaf_candidates`` keeps.  It also holds the
    records of sets that only the tangent table holds (value 0j), each
    after the value records of its bin; ``ders`` is aligned with it
    (None where the set carries no derivative), ``starts[q]`` is the
    first index of order q, and ``hot[q]`` lists the indices of order q
    that carry a derivative.
    """

    __slots__ = ("records", "ders", "starts", "hot")

    def __init__(self):
        self.records = []
        self.ders = []
        self.starts = [0, 0]
        self.hot = [[]]

    def add_section(self, base, u, v, order, tangent, extra):
        """Append one order's records; ``extra`` lists its tangent-only masks."""
        records = self.records
        ders = self.ders
        bu, bv = 1 << u, 1 << v
        if not tangent:
            records.extend(base)
            ders.extend([None] * len(base))
            self.hot.append([])
            self.starts.append(len(records))
            return
        full_of = {1: bv, 5: bu, 25: bu | bv}
        split = len(base)
        for i, rec in enumerate(base):
            if rec[2] == 1:
                split = i
                break
        in_u = [m for m in extra if m & bu]
        in_v = [m for m in extra if m & bv and not m & bu]
        hot = []
        for part, more in ((base[:split], in_u), (base[split:], in_v)):
            for rec in part:
                der = tangent.get(rec[1] | full_of[rec[2]])
                if der is not None:
                    hot.append(len(records))
                records.append(rec)
                ders.append(der)
            for mask in more:
                sb = (2 if mask & bu else 0) | (1 if mask & bv else 0)
                hot.append(len(records))
                records.append((order, mask & ~(bu | bv), _W[sb], 0j))
                ders.append(tangent[mask])
        self.hot.append(hot)
        self.starts.append(len(records))


def tangent_pass(state, edge, order):
    """Derivative tables of the solved series along one extra edge term.

    ``edge`` is an observable edge (s, t, nested 4x4 entries) added with
    a formal strength: the returned ``tangents[q]`` maps vertex bitmasks
    to the derivative, at zero strength, of the order-q coefficient, for
    q = 1..order, nonzero entries only.  ``state`` must hold the plain
    tables up to order - 1 (order 1 when order is 1).  The pass only
    reads its tables and bins.  It fills the state's two caches, both
    pure functions of the model: the kernel slots (``_mecaches``) of the
    model edges it touches and the prefix energies (``_e0``).  So one
    state serves any number of passes with the same results, and
    ``response.correlator`` reuses it across queries on the same sites
    and order.  The observable edge gets a new operator, and so its own
    kernels, on every pass, since its entries change from query to query.

    Only tuples that hold a derivative-carrying item, or that act through
    the observable edge, are enumerated, in the pool and visit order of
    ``advance_order``, with first-order (dual-number) arithmetic.  The
    last order keeps only sets of at most two vertices, and alongside it
    the pass sums, from the tuples whose outside part lies in {s, t},
    the plain order-``order`` values of {s}, {t} and {s, t}: with the
    lower tables, that is all the next energy coefficient reads.  So
    when the state stops at order ``order - 1``, as the correlator's
    does, a model edge builds its records of that order, which only the
    last step reads, for just the sets that step can use.  Lower orders
    come whole from the bins.  Only the edges the pass touches build
    any records.
    Returns (tangents, values), ``values`` keyed by bitmask.

    A set whose value is exactly zero but whose derivative is not goes
    after the value table's sets in each bin, not where its first
    contribution arrived, so with such sets the last bits of a sum can
    differ from a dual-number solve with the observable edge added.
    """
    s, t, obs_entries = edge
    st = (1 << s) | (1 << t)
    table = state.table
    top = state.current_order
    if top < max(order - 1, 1):
        raise ValueError(f"state holds orders up to {top}, the pass needs {order - 1}")
    acc = {}
    for mask, der in ((1 << t, obs_entries[1][0]), (1 << s, obs_entries[2][0]),
                      (st, obs_entries[3][0])):
        if der != 0:
            acc[mask] = der
    tangents = {1: _divide(state, acc)}
    if order == 1:
        omap = table.orders.get(1, {})
        return tangents, {mask: omap[mask] for mask in (1 << t, 1 << s, st) if mask in omap}

    terms = list(state.terms)
    terms.append(edge)
    obs_idx = len(terms) - 1
    ops = [e.op for e in state.model.edges]
    ops.append(TwoQubitOperator(obs_entries))
    mecaches = list(state._mecaches)
    mecaches.append([None] * _NCODES)
    tpools = {}
    touched = [0]   # touched[q]: vertices of the order-q derivative sets
    extras = [[]]   # extras[q]: masks only the tangent table holds
    hit = 0         # vertices of every derivative set so far
    vacc = {}       # the last step's value numerators
    for k in range(2, order + 1):
        budget = k - 1
        tan = tangents[budget]
        omap = table.orders.get(budget, {})
        extras.append([m for m in tan if m not in omap])
        seen = 0
        for mask in tan:
            seen |= mask
        touched.append(seen)
        hit |= seen
        last = k == order
        if last:
            singles, pairs = _value_feeders(table, s, t, k)
        acc = {}
        for idx, (u, v, _entries) in enumerate(terms):
            ends = (1 << u) | (1 << v)
            if idx != obs_idx and not ends & hit and not (
                last and (ends & singles or ends in pairs)
            ):
                continue
            tp = tpools.get(idx)
            if tp is None:
                tp = tpools[idx] = _TangentPool()
            for q in range(len(tp.starts) - 1, k):
                if idx != obs_idx and q == top:
                    # the order the state stops at: only the last step reads it
                    cands = _leaf_candidates(table, u, v, q, tan, st)
                else:
                    cands = bin_candidates(table, u, v, q)
                    if idx == obs_idx and last:
                        # later sets never reach a target of at most two vertices
                        cands = [c for c in cands if (c[0] & ~ends).bit_count() <= 2]
                tp.add_section(_edge_records(cands, u, v, q), u, v, q,
                               tangents[q] if ends & touched[q] else None, extras[q])
            _tangent_edge(u, v, ops[idx], tp, mecaches[idx], budget,
                          idx == obs_idx, last, st, acc, vacc)
        tangents[k] = _divide(state, acc)
    return tangents, _divide(state, vacc)


def _value_feeders(table, s, t, below):
    """Edges whose records of orders below ``below`` can lie within {s, t} off the edge.

    Such a record's set is (s,), (t,), (s, t) or a stored set on s or t
    whose other vertices are endpoints of the edge.  Returns the vertex
    mask of edges to take by either endpoint, and the set of endpoint
    pairs to take whole.
    """
    st = (1 << s) | (1 << t)
    singles = st
    pairs = set()
    for w in (s, t):
        for q, masks in table.bins.get(w, {}).items():
            if q < below:
                for mask in masks:
                    rest = mask & ~st
                    if rest.bit_count() == 1:
                        singles |= rest
                    elif rest.bit_count() == 2:
                        pairs.add(rest)
    return singles, pairs


def _leaf_candidates(table, u, v, order, derived, st):
    """The stored (mask, value) pairs of ``order`` on the edge (u, v) that a last step reads.

    At the last step a model edge reaches the records of the order below
    only as one-item tuples from ``hot``: sets in ``derived`` (those
    carrying a derivative) with at most two vertices off the edge, and
    sets whose vertices off the edge lie in ``st``.  They come in the
    order of ``bin_candidates``; dropping the others moves no record
    that is read relative to another.
    """
    off = ~((1 << u) | (1 << v))
    return [
        (mask, value) for mask, value in bin_candidates(table, u, v, order)
        if ((mask & off).bit_count() <= 2 if mask in derived else not mask & off & ~st)
    ]


def _divide(state, acc):
    """Numerators divided by excitation energies, as _freeze_order does; zeros left out."""
    out = {}
    for mask, numerator in acc.items():
        der = numerator / state.excitation_energy(mask)
        if der != 0:
            out[mask] = der
    return out


def _tangent_edge(u, v, op, tp, mecache, budget, obs, last, st, acc, vacc):
    """Add one edge's tangent tuples of total order ``budget`` to ``acc``.

    ``seek`` walks prefixes that hold no derivative yet: it descends only
    where a derivative-carrying (or, at the last order, value-feeding)
    item can still follow, and takes leaves from ``hot`` lists only.
    ``grow`` walks prefixes that do, like ``advance_order``'s grow.  On
    the observable edge every tuple carries a derivative, through the
    kernel, so ``grow`` starts there.
    """
    pool = tp.records
    ders = tp.ders
    starts = tp.starts
    npool = len(pool)
    bit_masks = (0, 1 << v, 1 << u, (1 << u) | (1 << v))
    notst = ~st
    hot = tp.hot
    if last:
        # value-feeding leaves: outside part within {s, t}
        hot = [sorted(h + [i for i in range(starts[q], starts[q + 1])
                           if ders[i] is None and not pool[i][1] & notst])
               for q, h in enumerate(hot)]
    hot_max = [-1]
    for q in range(1, budget + 1):
        hot_max.append(max(hot_max[-1], hot[q][-1] if hot[q] else -1))

    def emit(outside2, code2, cv2, cd2, denom2):
        mes = mecache[code2]
        if mes is None:
            mes = mecache[code2] = _kernel_results(code2, op, bit_masks)
        if denom2 > 1:
            wv = cv2 / denom2
            wd = None if cd2 is None else cd2 / denom2
        else:
            wv, wd = cv2, cd2
        for bits, me in mes:
            target = outside2 | bits
            if not target:
                continue
            if obs:
                # the observable edge's entries are (0j, entry) pairs
                dc = times(wv, wd, 0j, me)[1]
            else:
                dc = None if wd is None else wd * me
                if last and not target & notst:
                    vc = wv * me
                    if vc != 0:
                        prev = vacc.get(target)
                        vacc[target] = vc if prev is None else prev + vc
            if dc is not None and dc != 0 and not (last and target.bit_count() > 2):
                prev = acc.get(target)
                acc[target] = dc if prev is None else prev + dc

    def grow(start, remaining, outside, code, cv, cd, denom, last_i, run):
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
            outside2 = outside | mask
            if last and outside2.bit_count() > 2:
                continue
            cv2, cd2 = times(cv, cd, item[3], ders[i])
            if i == last_i:
                run2 = run + 1
                denom2 = denom * run2
            else:
                run2 = 1
                denom2 = denom
            if left:
                grow(i, left, outside2, code2, cv2, cd2, denom2, i, run2)
            else:
                emit(outside2, code2, cv2, cd2, denom2)

    def seek(start, remaining, outside, code, cv, denom, last_i, run):
        for i in range(start, starts[remaining]):
            item = pool[i]
            mask = item[1]
            if mask & outside:
                continue
            code2 = code + item[2]
            if not GROWS[code2]:
                continue
            left = remaining - item[0]
            der = ders[i]
            if der is None and hot_max[left] < i:
                continue
            outside2 = outside | mask
            if last and outside2.bit_count() > 2:
                continue
            if i == last_i:
                run2 = run + 1
                denom2 = denom * run2
            else:
                run2 = 1
                denom2 = denom
            if der is None:
                seek(i, left, outside2, code2, cv * item[3], denom2, i, run2)
            else:
                cv2, cd2 = times(cv, None, item[3], der)
                grow(i, left, outside2, code2, cv2, cd2, denom2, i, run2)
        leaves = hot[remaining]
        for j in range(bisect_left(leaves, start), len(leaves)):
            i = leaves[j]
            item = pool[i]
            mask = item[1]
            if mask & outside:
                continue
            code2 = code + item[2]
            if not LIVE[code2]:
                continue
            outside2 = outside | mask
            der = ders[i]
            if der is None:
                if outside2 & notst:
                    continue
            elif last and outside2.bit_count() > 2:
                continue
            if i == last_i:
                denom2 = denom * (run + 1)
            else:
                denom2 = denom
            cv2, cd2 = times(cv, None, item[3], der)
            emit(outside2, code2, cv2, cd2, denom2)

    if obs:
        grow(0, budget, 0, 0, 1.0, None, 1, -1, 0)
    else:
        seek(0, budget, 0, 0, 1.0, 1, -1, 0)


def solve(model, order, threshold=0.0):
    """Coefficient tables for all orders 1..order.

    A new ``SolverState`` advanced ``order`` times.  Entries whose
    magnitude falls below ``threshold`` are dropped (see
    ``_freeze_order``); a threshold that is not a finite number >= 0
    raises InvalidThreshold.
    """
    if order < 1:
        raise ValueError("solve needs order >= 1")
    state = SolverState(model, threshold)
    while state.current_order < order:
        advance_order(state)
    return state
