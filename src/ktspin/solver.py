"""Order-by-order construction of the ground-state creation coefficients.

The ground state is represented as ``exp(-C)`` applied to the all-zero
configuration, where ``C`` is a sum of creation operators over vertex
sets with scalar coefficients.  Expanding in the perturbation strength
gives one coefficient table per order.  ``solve`` is the one entry
point, a ``SolverState`` advanced order by order: order 1 reads the
vacuum column of each edge term directly, and each later order
(``advance_order``) combines up to four lower-order sets against every
edge through the commutator kernel.  Edge terms are the model's
``EdgeTerm``s, read in place: their endpoints, their operator's
``rows`` and the kernels cached on that operator.

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
to zero.  The enumeration carries the multiset as a base-5 count code
(``kernel.CODE``), emits only live codes, and extends a partial tuple only while some live
multiset still strictly contains it, so it skips exactly the tuples
whose kernel result is empty and sums everything else in the same order.

Entries dropped by a positive threshold are counted per order, with
their one-norm, so a caller can tell that the table is no longer the
exact series.

Each edge (u, v) walks a pool of candidate records: the stored sets
that meet the edge, order by order, each order as the table's bins hold
it, u's bin and then v's bin without u.  Every pool in this module,
the correlator's included, places its records in that order.  The pool
is built in one pass straight from the table's bins when the edge's
walk starts, together with the index
where each order's section ends, and freed when the walk ends, so
between advances a solve holds only its table.  Since the pool is
sorted by order, a partial tuple with budget r left reads only the
sections of orders 1..r: those below r extend it, and order r closes
it, so no record of a higher order is visited.  An edge maps each
kernel's edge-bit patterns onto its own bitmasks once per multiset
code, not once per contribution, and frees that map with the pool.
Each nonzero contribution c is folded into its target's numerator as
``acc.get(target, complex(-0.0, -0.0)) + c``: -0.0 is IEEE's exact
additive identity (-0.0 + x is x, bit for bit, for +0.0 and -0.0
too), so a target's first contribution is stored with its own bits,
and later ones are added in visit order.  A frozen order's bins are
built when an advance or a tangent pass first reads them, so the last
order of a solve that stops is never indexed.  Excitation energies
are summed again for each set, never cached.

``tangent_pass`` differentiates a solved table along one extra edge
term (forward mode with sparsity): the observable is one more
``EdgeTerm`` after the model's.  It returns derivative tables only.
Each edge's pool holds the solve's records, each with its set's
derivative, in the same sections, built straight from the same bins,
with the sets only the derivative tables hold after the stored sets of
each bin part.  One walk shaped like the solve's visits them in the
same order on (value, derivative) pairs, only through tuples that hold
a derivative or act through the observable edge, so only that edge and
the model edges that meet a derivative set are walked.  It shares the
solve's vacuum column, kernel slots and division by excitation
energies.  The plain values the correlator reads at the top order, of
{s}, {t} and {s, t}, come from ``site_values``: the solve's own
per-edge walk (``_walk_edge``) over only the stored sets that can reach
them, placed by their bins.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from math import isfinite

from .errors import InvalidThreshold
from .kernel import CODE, NCODES, edge_kernel
from .setalg import CoefficientTable, install_order, members_of

_LIVE_MULTISETS = (
    (1,), (2,), (3,),
    (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
    (1, 1, 2), (1, 2, 2),
    (1, 1, 2, 2),
)


def _code(sbits):
    return sum(CODE[sb] for sb in sbits)


# LIVE[code]: the multiset's nested commutator is not identically zero.
# GROWS[code]: some live multiset strictly contains it (never at size 4).
LIVE = [False] * NCODES
GROWS = [False] * NCODES
for _ms in _LIVE_MULTISETS:
    LIVE[_code(_ms)] = True
    for _k in range(len(_ms)):
        for _sub in combinations(_ms, _k):
            GROWS[_code(_sub)] = True


class SolverState:
    """A model and its coefficient table, resumable at the next order.

    A new state holds no order; each ``advance_order`` adds the next,
    starting at order 1.  A threshold that is not a finite number >= 0
    raises InvalidThreshold (see ``_freeze_order``).  Every edge term is
    read from ``model.edges``, and its kernels from the slots cached on
    its operator (``kernel.edge_kernel``), so the state keeps no copy of
    either, and it keeps no cache: besides the model and its settings it
    holds its table, the one-norm of each order and what a threshold
    dropped from each.
    """

    __slots__ = (
        "model",
        "table",
        "current_order",
        "norms",
        "dropped",
        "threshold",
    )

    def __init__(self, model, threshold):
        if not (isfinite(threshold) and threshold >= 0):
            raise InvalidThreshold(f"threshold must be a finite number >= 0, got {threshold}")
        self.model = model
        self.table = CoefficientTable()
        self.current_order = 0
        self.norms = []
        self.dropped = []
        self.threshold = threshold

    def excitation_energy(self, mask):
        """Sum of the model's ``deltas`` over the set, added in increasing vertex order."""
        deltas = self.model.deltas
        energy = 0.0
        while mask:
            low = mask & -mask
            energy += deltas[low.bit_length() - 1]
            mask ^= low
        return energy


def _vacuum_column(edges):
    """Order-1 numerators: each edge's vacuum column at {v}, {u} and {u, v}, summed over edges."""
    acc = {}
    for e in edges:
        rows = e.op.rows
        bu, bv = 1 << e.u, 1 << e.v
        for mask, value in ((bv, rows[1][0]), (bu, rows[2][0]), (bu | bv, rows[3][0])):
            if value != 0:
                prev = acc.get(mask)
                acc[mask] = value if prev is None else prev + value
    return acc


def _divide(state, acc):
    """Divide numerators by excitation energies in place, drop exact zeros, return ``acc``.

    The survivors keep their order.
    """
    energy = state.excitation_energy
    zeros = []
    for mask, numerator in acc.items():
        value = numerator / energy(mask)
        if value == 0:
            zeros.append(mask)
        else:
            acc[mask] = value
    for mask in zeros:
        del acc[mask]
    return acc


def _freeze_order(state, acc, order):
    """Divide accumulated numerators by excitation energies and store them.

    ``acc`` maps vertex bitmasks to numerators and becomes the order's
    map: each numerator is divided, as ``_divide`` divides, and exact
    zeros and entries under the threshold are deleted, so the survivors
    keep their order.  One member list per set serves the division, the
    threshold and the one-norm (largest per-vertex sum of magnitudes),
    each vertex's sum added in the survivors' order, as ``one_norm``
    adds it in bin order.  Dropped entries are counted, and their
    one-norm goes to ``state.dropped``.
    """
    deltas = state.model.deltas
    threshold = state.threshold
    totals = {}
    dropped = {}
    gone = []
    count = 0
    for mask, numerator in acc.items():
        members = members_of(mask)
        energy = 0.0
        for w in members:
            energy += deltas[w]
        value = numerator / energy
        if value == 0:
            gone.append(mask)
            continue
        mag = abs(value)
        if mag < threshold:
            gone.append(mask)
            count += 1
            for w in members:
                dropped[w] = dropped.get(w, 0.0) + mag
            continue
        acc[mask] = value
        for w in members:
            totals[w] = totals.get(w, 0.0) + mag
    for mask in gone:
        del acc[mask]
    # the comparison of one_norm, so that a NaN total never wins
    norm = 0.0
    for total in totals.values():
        if total > norm:
            norm = total
    install_order(state.table, order, acc)
    state.current_order = order
    state.norms.append(norm)
    state.dropped.append((count, max(dropped.values(), default=0.0)))


def _edge_pool(table, u, v, budget):
    """The edge (u, v)'s pool records of orders 1..budget, and each order's section end.

    A record is (order, outside bitmask, multiset code of its edge bits,
    value), built in one pass straight from the bins, each order as u's
    bin and then v's bin without u.
    ``ends[q]`` is the index past the last record of order q, so
    ``ends[0]`` is 0 and order q's section is ``ends[q - 1]:ends[q]``.
    """
    orders = table.orders
    bins = table.bins
    ubins = bins.get(u, {})
    vbins = bins.get(v, {})
    bu, bv = 1 << u, 1 << v
    off = ~(bu | bv)
    both, first, second = CODE[3], CODE[2], CODE[1]
    pool = []
    ends = [0]
    for q in range(1, budget + 1):
        omap = orders.get(q)
        if omap:
            pool += [(q, mask & off, both if mask & bv else first, omap[mask])
                     for mask in ubins.get(q, ())]
            pool += [(q, mask & off, second, omap[mask])
                     for mask in vbins.get(q, ()) if not mask & bu]
        ends.append(len(pool))
    return pool, ends


def _walk_edge(edge, pool, ends, budget, acc):
    """Add the edge's tuples of total order ``budget``, drawn from ``pool``, to ``acc``.

    ``pool`` and ``ends`` are records and section ends as ``_edge_pool``
    builds them, or any subsequence of them that keeps its order.  A
    partial tuple with budget r left extends itself by the records of
    orders below r, then closes with those of order r: each is one
    section-bounded loop, so no record of a higher order is visited.  A
    leaf reads its kernel from the slot of its multiset code on the
    edge's operator, filled on first use by ``kernel.edge_kernel``; the
    walk maps that kernel's edge-bit patterns onto the edge's bitmasks
    once per code.  Each nonzero contribution is added to its target's
    numerator in visit order, the first one onto complex(-0.0, -0.0),
    which stores it with its own bits (see the module docstring).
    """
    acc_get = acc.get
    # the exact additive identity: -0.0 + x is x, bit for bit, +0.0 and -0.0 included
    zero = complex(-0.0, -0.0)
    u, v, op = edge.u, edge.v, edge.op
    kernels = op._kernels
    bit_masks = (0, 1 << v, 1 << u, (1 << u) | (1 << v))
    target_masks = [None] * NCODES

    def grow(start, remaining, outside, code, coeff, denom, last, run):
        low = ends[remaining - 1]
        for i in range(start, low):
            order, mask, inc, value = pool[i]
            if mask & outside:
                continue
            code2 = code + inc
            if not GROWS[code2]:
                continue
            if i == last:
                grow(i, remaining - order, outside | mask, code2, coeff * value,
                     denom * (run + 1), i, run + 1)
            else:
                grow(i, remaining - order, outside | mask, code2, coeff * value, denom, i, 1)
        for i in range(start if start > low else low, ends[remaining]):
            _order, mask, inc, value = pool[i]
            if mask & outside:
                continue
            code2 = code + inc
            if not LIVE[code2]:
                continue
            coeff2 = coeff * value
            denom2 = denom * (run + 1) if i == last else denom
            weight = coeff2 / denom2 if denom2 > 1 else coeff2
            targets = target_masks[code2]
            if targets is None:
                mes = kernels[code2]
                if mes is None:
                    mes = edge_kernel(op, code2)
                targets = target_masks[code2] = [(bit_masks[p], me) for p, me in mes]
            outside2 = outside | mask
            for bits, me in targets:
                target = outside2 | bits
                if not target:
                    continue
                c = weight * me
                if c:
                    acc[target] = acc_get(target, zero) + c

    grow(0, budget, 0, 0, 1.0, 1, -1, 0)
    # grow refers to itself; dropping it frees the pool's map of targets on return
    grow = None


def advance_order(state):
    """Extend the table by one order from the already stored ones.

    A state with no order gets order 1, the vacuum column of each edge
    term (``_vacuum_column``).  Otherwise, with budget b (the newest
    stored order), each edge of ``model.edges`` builds its pool of
    orders 1..b from the bins (``_edge_pool``), walks it
    (``_walk_edge``) and frees it.  Bins only grow once an order is
    installed, so the pool is the same whichever advance builds it.
    """
    budget = state.current_order
    edges = state.model.edges
    if budget == 0:
        _freeze_order(state, _vacuum_column(edges), 1)
        return state
    table = state.table
    acc = {}
    for e in edges:
        pool, ends = _edge_pool(table, e.u, e.v, budget)
        if pool:
            _walk_edge(e, pool, ends, budget, acc)
    _freeze_order(state, acc, budget + 1)
    return state


def site_values(state, s, t, order):
    """The plain order-``order`` values of {s}, {t} and {s, t}, keyed by bitmask.

    Each is the value ``advance_order`` would store (at threshold 0),
    bit for bit, and an exact zero is left out.  ``state`` must hold
    orders up to order - 1.  Order 1 is the vacuum column of the edges
    on s or t.  Above it, an edge's candidates are the stored sets that
    meet it and lie within it plus {s, t}: a tuple that reaches a target
    within {s, t} has every item there.  An edge is walked
    (``_walk_edge``) only if it touches s or t or one of its candidates
    has a vertex off it; any other edge adds only to targets off {s, t}.
    Its candidates take their places in u's bin, then in v's, as in
    ``_edge_pool``, so these pools visit the tuples in the solve's
    order, and the edges come in the model's order.
    """
    st = (1 << s) | (1 << t)
    edges = state.model.edges
    if order == 1:
        acc = _vacuum_column([e for e in edges if ((1 << e.u) | (1 << e.v)) & st])
    else:
        budget = order - 1
        if state.current_order < budget:
            raise ValueError(f"state holds orders up to {state.current_order}, "
                             f"site values of order {order} need {budget}")
        omaps = [state.table.orders.get(q, {}) for q in range(1, budget + 1)]
        bins = state.table.bins
        both, first, second = CODE[3], CODE[2], CODE[1]
        acc = {}
        for e in edges:
            bu, bv = 1 << e.u, 1 << e.v
            uv = bu | bv
            off = ~uv
            within = uv | st
            usubs, vsubs = [], []
            sub = within
            while sub:
                if sub & bu:
                    usubs.append(sub)
                elif sub & bv:
                    vsubs.append(sub)
                sub = (sub - 1) & within
            found = [([m for m in usubs if m in omap], [m for m in vsubs if m in omap])
                     for omap in omaps]
            if not (uv & st or any(m & off for fu, fv in found for m in fu + fv)):
                continue
            ubins, vbins = bins.get(e.u, {}), bins.get(e.v, {})
            pool = []
            ends = [0]
            for q, (fu, fv) in enumerate(found, 1):
                omap = omaps[q - 1]
                fu.sort(key=ubins.get(q, ()).index)
                fv.sort(key=vbins.get(q, ()).index)
                pool += [(q, mask & off, both if mask & bv else first, omap[mask]) for mask in fu]
                pool += [(q, mask & off, second, omap[mask]) for mask in fv]
                ends.append(len(pool))
            _walk_edge(e, pool, ends, budget, acc)
    return _divide(state, {mask: value for mask, value in acc.items() if not mask & ~st})


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

    ``records`` holds ``_edge_pool``'s records with the set's derivative
    appended, (order, outside, code, value, derivative), the derivative
    None where the set carries none; the sets only the tangent table
    holds come as value 0j after the stored sets of their bin part.
    ``ends`` is ``_edge_pool``'s, and ``hot[q]`` lists the indices of
    order q that carry a derivative.
    """

    __slots__ = ("records", "ends", "hot")

    def __init__(self):
        self.records = []
        self.ends = [0]
        self.hot = [[]]

    def add_section(self, masks, omap, u, v, order, tangent, last):
        """Append one order's records from its masks, already in pool order.

        ``omap`` is the order's map, and a mask it lacks has value 0j;
        ``tangent`` maps masks to their derivatives, and a mask it lacks
        carries none.  At the last step a record is kept only if its set
        has at most two vertices off the edge.
        """
        bu, bv = 1 << u, 1 << v
        off = ~(bu | bv)
        both, first, second = CODE[3], CODE[2], CODE[1]
        records = self.records
        hot = []
        for mask in masks:
            outside = mask & off
            if last and outside.bit_count() > 2:
                continue
            der = tangent.get(mask)
            if der is not None:
                hot.append(len(records))
            code = (both if mask & bv else first) if mask & bu else second
            records.append((order, outside, code, omap.get(mask, 0j), der))
        self.hot.append(hot)
        self.ends.append(len(records))


def tangent_pass(state, edge, order):
    """Derivative tables of the solved series along one extra edge term.

    ``edge`` is an observable ``EdgeTerm`` added with a formal strength,
    and the pass walks it as one more edge after ``model.edges``: the
    returned ``tangents[q]`` maps vertex bitmasks to the derivative, at
    zero strength, of the order-q coefficient, for q = 1..order, nonzero
    entries only; the plain values the next energy coefficient reads at
    order ``order`` come from ``site_values``.  ``state`` must hold the
    plain tables up to order - 1.  The pass only reads its tables and
    bins (building the bins of an order not yet indexed, as any reader
    does).  The only caches it fills are the kernel slots of every
    operator it walks, the observable's included, pure functions of the
    operators.  So one state serves any number of passes with the same
    results, and ``response.correlator`` reuses it across queries on the
    same sites and order, and an observable operator keeps its kernels
    from one query to the next.

    Only tuples that hold a derivative-carrying item, or that act through
    the observable edge, are enumerated, in the pool and visit order of
    ``advance_order``, with first-order (dual-number) arithmetic, so only
    the observable edge and the model edges that meet a derivative set
    are walked.  Each section of an edge's pool is u's bin, then the
    derivative-only sets on u, then v's bin without u, then the
    derivative-only sets on v without u.  The first tangent is the
    observable's vacuum column (``_vacuum_column``), and every order is
    divided as ``advance_order`` divides (``_divide``).  The last order
    keeps only sets of at most two vertices: with the lower tables and
    the site values, that is all the next energy coefficient reads.  So
    the sections an edge builds at the last step keep only records with
    at most two vertices off the edge.  A lone top-order record with no
    derivative carries nothing on a model edge, so there the last step's
    top-order section holds only the derivative sets that meet the edge,
    binned by vertex from the top order's map order with the
    derivative-only ones after them, as that edge's bins would place
    them.

    A set whose value is exactly zero but whose derivative is not goes
    after the value table's sets in each bin, not where its first
    contribution arrived, so with such sets the last bits of a sum can
    differ from a dual-number solve with the observable edge added.
    """
    table = state.table
    top = state.current_order
    if top < order - 1:
        raise ValueError(f"state holds orders up to {top}, the pass needs {order - 1}")
    tangents = {1: _divide(state, _vacuum_column((edge,)))}
    edges = state.model.edges + (edge,)
    obs_idx = len(edges) - 1
    bins = table.bins
    tpools = {}
    extras = [[]]   # extras[q]: masks only the tangent table holds
    hit = 0         # vertices of every derivative set so far
    for k in range(2, order + 1):
        budget = k - 1
        tan = tangents[budget]
        omap = table.orders.get(budget, {})
        extras.append([m for m in tan if m not in omap])
        for mask in tan:
            hit |= mask
        last = k == order
        if last:
            # the top order's derivative sets a last-step section can hold,
            # binned by vertex: stored ones in map order, then the others
            top_bins = {}
            for mask in [m for m in omap if m in tan] + extras[budget]:
                if mask.bit_count() <= 4:
                    for w in members_of(mask):
                        top_bins.setdefault(w, []).append(mask)
        acc = {}
        for idx, e in enumerate(edges):
            u, v = e.u, e.v
            bu, bv = 1 << u, 1 << v
            obs = idx == obs_idx
            if not obs and not (bu | bv) & hit:
                continue
            tp = tpools.get(idx)
            if tp is None:
                tp = tpools[idx] = _TangentPool()
            for q in range(len(tp.ends), k):
                if last and q == budget and not obs:
                    masks = top_bins.get(u, []) + [m for m in top_bins.get(v, ()) if not m & bu]
                else:
                    extra = extras[q]
                    masks = (bins.get(u, {}).get(q, []) + [m for m in extra if m & bu]
                             + [m for m in bins.get(v, {}).get(q, ()) if not m & bu]
                             + [m for m in extra if m & bv and not m & bu])
                tp.add_section(masks, table.orders.get(q, {}), u, v, q, tangents[q], last)
            _tangent_edge(e, tp, budget, obs, last, acc)
        tangents[k] = _divide(state, acc)
    return tangents


def _tangent_edge(edge, tp, budget, obs, last, acc):
    """Add one edge's tangent tuples of total order ``budget`` to ``acc``.

    ``walk`` is ``_walk_edge``'s walk on (value, derivative) pairs.  A
    prefix carries when it is on the observable edge, whose kernel
    carries the derivative, or holds a derivative.  One that does not
    extends only where a record of ``hot`` can still follow, and closes
    from ``hot``, the records that carry a derivative.
    """
    records = tp.records
    ends = tp.ends
    u, v, op = edge.u, edge.v, edge.op
    kernels = op._kernels
    bit_masks = (0, 1 << v, 1 << u, (1 << u) | (1 << v))
    hot = tp.hot
    hot_max = [-1]
    for q in range(1, budget + 1):
        hot_max.append(max(hot_max[-1], hot[q][-1] if hot[q] else -1))

    def emit(outside2, code2, cv2, cd2, denom2):
        mes = kernels[code2]
        if mes is None:
            mes = edge_kernel(op, code2)
        if denom2 > 1:
            wv = cv2 / denom2
            wd = None if cd2 is None else cd2 / denom2
        else:
            wv, wd = cv2, cd2
        for pattern, me in mes:
            target = outside2 | bit_masks[pattern]
            if not target:
                continue
            if obs:
                # the observable edge's entries are (0j, entry) pairs
                dc = times(wv, wd, 0j, me)[1]
            else:
                # a model edge's leaf always carries a derivative
                dc = wd * me
            if dc != 0 and not (last and target.bit_count() > 2):
                prev = acc.get(target)
                acc[target] = dc if prev is None else prev + dc

    def walk(start, remaining, outside, code, cv, cd, denom, last_i, run):
        carries = obs or cd is not None
        low = ends[remaining - 1]
        for i in range(start, low):
            order, mask, inc, value, der = records[i]
            if mask & outside:
                continue
            code2 = code + inc
            if not GROWS[code2]:
                continue
            left = remaining - order
            if not carries and der is None and hot_max[left] < i:
                continue
            outside2 = outside | mask
            if last and outside2.bit_count() > 2:
                continue
            if der is None and cd is None:
                # the product times returns, without the cost of the call
                cv2, cd2 = cv * value, None
            else:
                cv2, cd2 = times(cv, cd, value, der)
            if i == last_i:
                walk(i, left, outside2, code2, cv2, cd2, denom * (run + 1), i, run + 1)
            else:
                walk(i, left, outside2, code2, cv2, cd2, denom, i, 1)
        if carries:
            leaves = range(start if start > low else low, ends[remaining])
        else:
            leaves = hot[remaining]
            leaves = leaves[bisect_left(leaves, start):]
        for i in leaves:
            _order, mask, inc, value, der = records[i]
            if mask & outside:
                continue
            code2 = code + inc
            if not LIVE[code2]:
                continue
            outside2 = outside | mask
            if last and outside2.bit_count() > 2:
                continue
            cv2, cd2 = times(cv, cd, value, der)
            emit(outside2, code2, cv2, cd2, denom * (run + 1) if i == last_i else denom)

    walk(0, budget, 0, 0, 1.0, None, 1, -1, 0)


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
