"""Order-by-order construction of the ground-state creation coefficients.

The ground state is represented as ``exp(-C)`` applied to the all-zero
configuration, where ``C`` is a sum of creation operators over vertex
sets with scalar coefficients.  Expanding in the perturbation strength
gives one coefficient table per order.  ``solve`` is the one entry
point, a ``SolverState`` advanced order by order by ``advance_order``,
which can keep an order to the sets within a bitmask.
Each order is two steps, each written once.  ``_numerators`` sums the
edge terms: order 1 reads the vacuum column of each edge term directly,
and each later order combines up to four lower-order sets against every
edge through the commutator kernel.  ``_divide`` divides each numerator
by its set's excitation energy and drops exact zeros and entries under
the threshold.  Edge terms are the model's ``EdgeTerm``s, read in
place: their endpoints, their operator's ``rows`` and the kernels
cached on that operator.

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
it, u's bin and then v's bin without u.  ``_edge_pool`` builds every
pool of the value walk, the correlator's light cone included, and the
tangent pass builds its pools from the same bins, so each pool places
its records in that order.  The pool is built in one pass straight
from the table's bins when the edge's walk starts, together with the
index where each order's section ends, and freed when the walk ends,
so between advances a solve holds only its table.  Since the pool is
sorted by order, a partial tuple with budget r left reads only the
sections of orders 1..r: those below r extend it, and order r closes
it, so no record of a higher order is visited.  An edge picks each
kernel's edge-bit patterns once per multiset code, not once per
contribution, and frees that list with the pool.  An order step kept
to a bitmask (the correlator's capped orders) keeps only the patterns
whose edge bits lie in it, since a pattern off it gives targets that
are dropped, and skips a leaf whose code keeps none.
Within one edge's walk a target is a leaf's outside part, which holds
no edge vertex, plus the edge bits of one kernel pattern, so the walk
keeps one running sum per outside part and pattern.  A sum's first
nonzero contribution c starts it as ``acc.get(target,
complex(-0.0, -0.0)) + c``: -0.0 is IEEE's exact additive identity
(-0.0 + x is x, bit for bit, for +0.0 and -0.0 too), so a new target's
first contribution keeps its own bits.  A new target also takes its
place in ``acc`` at that moment, so ``acc`` lists the targets in the
order the walks first reach them.  The edge's later contributions are
added to the sum in visit order, and each sum is written to ``acc``
once, when the edge's walk ends.  So every target gets the additions a
fold into ``acc`` on each arrival would make, in the same order, with
one lookup in ``acc`` per edge and target instead of one per
contribution.  An installed order's bins are
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
the model edges that meet a derivative set are walked.  At the last
step, which keeps only targets of at most two vertices, a leaf skips
the kernel patterns that would give a larger target before computing
their contributions.  It shares the solve's vacuum column, kernel
slots and division (``_divide``).  The
plain values the correlator reads at the top order, of {s}, {t} and
{s, t}, are its light cone's last order step, kept to {s, t}: each
edge's pool holds only the sets within the edge plus {s, t}, the only
ones that can reach them.
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


# vertices of each edge-bit pattern: none, second endpoint, first, both
_PATTERN_SIZE = (0, 1, 1, 2)


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
    raises InvalidThreshold (see ``_divide``).  Every edge term is
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


def _divide(deltas, acc, threshold):
    """Divide numerators by excitation energies in place; return the order's norms.

    ``acc`` maps vertex bitmasks to numerators.  One member list per set
    serves the division by its excitation energy (the ``deltas`` of its
    members, summed in increasing vertex order), the threshold and the
    one-norm (largest per-vertex sum of magnitudes).  Exact zeros and
    entries under ``threshold`` are deleted, so the survivors keep their
    order, and each vertex's sum is added in the survivors' order, which
    is the order of the vertex's bin.  Returns the one-norm, the number
    of entries the threshold dropped and their one-norm.
    """
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
    # a strict comparison, so that a NaN total never wins
    norm = 0.0
    for total in totals.values():
        if total > norm:
            norm = total
    return norm, count, max(dropped.values(), default=0.0)


def _edge_pool(table, u, v, budget, within):
    """The edge (u, v)'s pool records of orders 1..budget, and each order's section end.

    A record is (order, outside bitmask, multiset code of its edge bits,
    value), built in one pass straight from the bins, each order as u's
    bin and then v's bin without u, keeping only the sets that lie in
    the bitmask ``within`` (every set, if it is -1).
    ``ends[q]`` is the index past the last record of order q, so
    ``ends[0]`` is 0 and order q's section is ``ends[q - 1]:ends[q]``.
    """
    orders = table.orders
    bins = table.bins
    ubins = bins.get(u, {})
    vbins = bins.get(v, {})
    bu, bv = 1 << u, 1 << v
    off = ~(bu | bv)
    beyond = ~within
    both, first, second = CODE[3], CODE[2], CODE[1]
    pool = []
    ends = [0]
    for q in range(1, budget + 1):
        omap = orders.get(q)
        if omap:
            pool += [(q, mask & off, both if mask & bv else first, omap[mask])
                     for mask in ubins.get(q, ()) if not mask & beyond]
            pool += [(q, mask & off, second, omap[mask])
                     for mask in vbins.get(q, ()) if not mask & bu and not mask & beyond]
        ends.append(len(pool))
    return pool, ends


def _walk_edge(edge, pool, ends, budget, acc, within):
    """Add the edge's tuples of total order ``budget``, drawn from ``pool``, to ``acc``.

    ``pool`` and ``ends`` are records and section ends as ``_edge_pool``
    builds them, or any subsequence of them that keeps its order.  A
    partial tuple with budget r left extends itself by the records of
    orders below r, then closes with those of order r: each is one
    section-bounded loop, so no record of a higher order is visited.  A
    leaf reads its kernel from the slot of its multiset code on the
    edge's operator, filled on first use by ``kernel.edge_kernel``; the
    walk picks that kernel's edge-bit patterns once per code, keeping
    only those whose edge bits lie in the bitmask ``within`` (every
    pattern, if it is -1): the others give targets off ``within``, which
    an order step kept to ``within`` never keeps.  ``sums`` maps a leaf's outside part to four running sums, one
    per edge-bit pattern, each one target's.  A sum starts at its first
    nonzero contribution, from the target's numerator in ``acc`` or, for
    a new target, from complex(-0.0, -0.0), which keeps the contribution's
    own bits; a new target is entered in ``acc`` then, so ``acc`` keeps
    first-contribution order.  Later contributions are added in visit
    order, and after the walk each sum is written to ``acc`` once (see
    the module docstring).
    """
    acc_get = acc.get
    # the exact additive identity: -0.0 + x is x, bit for bit, +0.0 and -0.0 included
    zero = complex(-0.0, -0.0)
    u, v, op = edge.u, edge.v, edge.op
    kernels = op._kernels
    bit_masks = (0, 1 << v, 1 << u, (1 << u) | (1 << v))
    beyond = ~within
    patterns_of = [None] * NCODES
    # outside part -> running sums of its four targets, one per edge-bit pattern
    sums = {}
    sums_get = sums.get

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
            patterns = patterns_of[code2]
            if patterns is None:
                mes = kernels[code2]
                if mes is None:
                    mes = edge_kernel(op, code2)
                patterns = patterns_of[code2] = [(p, me) for p, me in mes
                                                  if not bit_masks[p] & beyond]
            if not patterns:
                continue
            coeff2 = coeff * value
            denom2 = denom * (run + 1) if i == last else denom
            weight = coeff2 / denom2 if denom2 > 1 else coeff2
            outside2 = outside | mask
            slot = sums_get(outside2)
            if slot is None:
                slot = sums[outside2] = [None, None, None, None]
            for p, me in patterns:
                c = weight * me
                if c:
                    s = slot[p]
                    if s is None:
                        target = outside2 | bit_masks[p]
                        if not target:
                            continue
                        s = acc_get(target)
                        if s is None:
                            # a new target takes its place in acc's order now
                            s = acc[target] = zero
                    slot[p] = s + c

    grow(0, budget, 0, 0, 1.0, 1, -1, 0)
    # grow refers to itself; dropping it frees the pool's map of patterns on return
    grow = None
    b1, b2, b3 = bit_masks[1:]
    for outside, (s0, s1, s2, s3) in sums.items():
        if s0 is not None:
            acc[outside] = s0
        if s1 is not None:
            acc[outside | b1] = s1
        if s2 is not None:
            acc[outside | b2] = s2
        if s3 is not None:
            acc[outside | b3] = s3


def _numerators(state, within):
    """The next order's numerators of the sets that lie in the bitmask ``within``.

    Order 1 is the vacuum column of every edge term (``_vacuum_column``).
    Above it, with budget b = ``state.current_order``, each edge (u, v)
    of ``model.edges`` builds its pool of orders 1..b from the bins, kept
    to the sets within uv | within (``_edge_pool``), walks it
    (``_walk_edge``, which skips the kernel patterns off ``within``) if
    it is not empty, and frees it.  ``within`` = -1 keeps every set,
    every pattern and every target.  Otherwise a tuple that reaches a
    target within ``within`` has every item within its edge plus
    ``within``, and the kept records stay in the bins' order, so each
    target's contributions arrive in the order the full walk adds them.
    Every target the walks reach lies in ``within``: so do its items'
    outside parts and its pattern's edge bits.  The returned map holds
    the targets in the order the walks first reached them, the order
    ``_divide``, the installed order and its bins keep.  Each walk reads
    a target's numerator once and writes it back once, with that edge's
    contributions summed in between.
    """
    edges = state.model.edges
    budget = state.current_order
    if budget == 0:
        acc = _vacuum_column(edges)
        if within == -1:
            return acc
        return {mask: value for mask, value in acc.items() if not mask & ~within}
    table = state.table
    acc = {}
    for e in edges:
        pool, ends = _edge_pool(table, e.u, e.v, budget, (1 << e.u) | (1 << e.v) | within)
        if pool:
            _walk_edge(e, pool, ends, budget, acc, within)
    return acc


def advance_order(state, within=-1):
    """Extend the table by one order from the already stored ones.

    The next order's numerators of the sets lying in the bitmask
    ``within`` (every set, if it is -1; ``_numerators``) are divided with
    the state's threshold (``_divide``) and installed, and the order's
    one-norm and what the threshold dropped are recorded.  A kept set
    gets the value an uncapped step would store, bit for bit, in the same
    relative map order; the one-norm of such a partial order is recorded
    as None.
    """
    order = state.current_order + 1
    acc = _numerators(state, within)
    norm, count, lost = _divide(state.model.deltas, acc, state.threshold)
    install_order(state.table, order, acc)
    state.current_order = order
    state.norms.append(norm if within == -1 else None)
    state.dropped.append((count, lost))
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
    order ``order`` are the light cone's last order step, kept to {s, t}
    (``advance_order``).  ``state`` must hold the plain tables up to
    order - 1; no order above that is read.  The pass only reads its
    tables and bins (building the bins of an order not yet indexed, as
    any reader does).  The only caches it fills are the kernel slots of every
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
    at most two vertices off the edge, and a leaf there skips the kernel
    patterns that would give a target of more than two vertices.  A lone
    top-order record with no derivative carries nothing on a model edge,
    so there the last step's top-order section holds only the derivative
    sets that meet the edge, binned by vertex from the top order's map
    order with the derivative-only ones after them, as that edge's bins
    would place them.

    A set whose value is exactly zero but whose derivative is not goes
    after the value table's sets in each bin, not where its first
    contribution arrived, so with such sets the last bits of a sum can
    differ from a dual-number solve with the observable edge added.
    """
    table = state.table
    top = state.current_order
    if top < order - 1:
        raise ValueError(f"state holds orders up to {top}, the pass needs {order - 1}")
    deltas = state.model.deltas
    tangents = {1: _vacuum_column((edge,))}
    _divide(deltas, tangents[1], 0.0)
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
        _divide(deltas, acc, 0.0)
        tangents[k] = acc
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
        # the last step keeps targets of at most two vertices; outside2 is
        # off the edge, so each pattern adds its own vertices to it
        room = 2 - outside2.bit_count() if last else 2
        for pattern, me in mes:
            if _PATTERN_SIZE[pattern] > room:
                continue
            target = outside2 | bit_masks[pattern]
            if not target:
                continue
            if obs:
                # the observable edge's entries are (0j, entry) pairs
                dc = times(wv, wd, 0j, me)[1]
            else:
                # a model edge's leaf always carries a derivative
                dc = wd * me
            if dc != 0:
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
    # walk refers to itself; dropping it frees the pass's records on return
    walk = None


def solve(model, order, threshold=0.0):
    """Coefficient tables for all orders 1..order.

    A new ``SolverState`` advanced ``order`` times.  Entries whose
    magnitude falls below ``threshold`` are dropped (see
    ``_divide``); a threshold that is not a finite number >= 0
    raises InvalidThreshold.
    """
    if order < 1:
        raise ValueError("solve needs order >= 1")
    state = SolverState(model, threshold)
    while state.current_order < order:
        advance_order(state)
    return state
