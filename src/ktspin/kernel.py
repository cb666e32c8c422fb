"""Matrix elements of nested commutators of creation operators with an edge term.

Everything here reduces to one combinatorial expansion.  For creation sets
``M_1 .. M_k`` and a two-qubit operator ``V`` on edge ``(u, v)``, the nested
commutator ``[A_1, [A_2, ... [A_k, V]]]`` (``A_j`` the creation operator of
``M_j``) splits, term by term, into products with some sets moved left of
``V`` and the rest moved right, with a sign flip per right placement.  Only
the edge bits of each set interact with ``V``; the parts outside the edge
must reproduce the target configuration exactly.

Creation operators commute, so the result depends only on the multiset of
edge-bit patterns (1 = second endpoint only, 2 = first endpoint only, 3 =
both).  For every operator it vanishes identically unless that multiset is
a single, a pair, {1, 1, 2}, {1, 2, 2} or {1, 1, 2, 2}: in the 22 other
multisets of size three or four, each target entry receives a single
operator entry with signs that sum to zero.  ``solver.LIVE`` records this
rule and the solver enumerates only those tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySet, InvalidSubset

# subsets of each 2-bit mask, used to enumerate target bit patterns
_SUBSETS_OF = ((0,), (0, 1), (0, 2), (0, 1, 2, 3))


def target_matrix_elements(sbits, entries):
    """Nonzero commutator matrix elements for all four edge-bit targets.

    ``sbits`` holds the edge-bit mask of each creation set (bit 1 for the
    first endpoint, bit 0 for the second); parts outside the edge must
    already be known pairwise disjoint.  ``entries`` is indexable as
    ``entries[row][col]``.  Returns a dict mapping the target's edge-bit
    pattern to the scalar value, with exact zeros omitted; entirely zero
    results give an empty dict.
    """
    k = len(sbits)
    out = [0j, 0j, 0j, 0j]
    for split in range(1 << k):
        left = 0
        right = 0
        ok = True
        for j in range(k):
            s = sbits[j]
            if (split >> j) & 1:
                if right & s:
                    ok = False
                    break
                right |= s
            else:
                if left & s:
                    ok = False
                    break
                left |= s
        if not ok:
            continue
        negative = split.bit_count() & 1
        for extra in _SUBSETS_OF[3 ^ left]:
            val = entries[extra][right]
            if val != 0:
                slot = left | extra
                if negative:
                    out[slot] = out[slot] - val
                else:
                    out[slot] = out[slot] + val
    return {s: out[s] for s in range(4) if out[s] != 0}


def _edge_bits(members, u, v):
    return (2 if u in members else 0) | (1 if v in members else 0)


@dataclass(frozen=True)
class MatrixElementQuery:
    """A target set, a tuple of creation sets, and the edge term they act on."""

    target: tuple
    sets: tuple
    edge: object

    def __post_init__(self):
        object.__setattr__(self, "target", tuple(self.target))
        object.__setattr__(self, "sets", tuple(tuple(m) for m in self.sets))
        for members in self.sets:
            if not members:
                raise EmptySet("creation sets must be nonempty")


def prune(query):
    """True when the query is structurally zero, decided without arithmetic.

    Either some creation set misses the edge entirely, or the union of the
    creation sets differs from the target anywhere outside the edge, or the
    target contains vertices not reachable from the union and the edge.
    """
    u, v = query.edge.u, query.edge.v
    union = set()
    for members in query.sets:
        if _edge_bits(members, u, v) == 0:
            return True
        union.update(members)
    target = set(query.target)
    if not (union - {u, v}) <= target:
        return True
    if not target <= (union | {u, v}):
        return True
    return False


def matrix_element(query):
    """Exact matrix element of the nested commutator against the target.

    Returns exact complex zero for every pruned or structurally vanishing
    query; with five or more creation sets the result is always zero.
    """
    if prune(query):
        return 0j
    u, v = query.edge.u, query.edge.v
    sbits = []
    outside = set()
    for members in query.sets:
        sbits.append(_edge_bits(members, u, v))
        for w in members:
            if w == u or w == v:
                continue
            if w in outside:
                return 0j
            outside.add(w)
    target_out = {w for w in query.target if w != u and w != v}
    if target_out != outside:
        return 0j
    table = target_matrix_elements(tuple(sbits), query.edge.op.entries)
    value = table.get(_edge_bits(query.target, u, v), 0j)
    return complex(value)


def vacuum_element(sets, edge):
    """Vacuum expectation of the fully right-placed commutator term.

    Every creation set must be a nonempty subset of the edge; overlapping
    sets give exact zero.  Equals ``matrix_element`` with an empty target.
    """
    u, v = edge.u, edge.v
    bits = 0
    for members in sets:
        if not members:
            raise InvalidSubset("vacuum element needs nonempty creation sets")
        sb = 0
        for w in members:
            if w == u:
                sb |= 2
            elif w == v:
                sb |= 1
            else:
                raise InvalidSubset(f"vertex {w} is not an endpoint of edge ({u}, {v})")
        if bits & sb:
            return 0j
        bits |= sb
    value = complex(edge.op.entries[0][bits])
    return -value if len(sets) & 1 else value
