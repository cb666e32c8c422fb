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

A multiset travels as its base-5 count code: ``CODE[pattern]`` summed
over its items, below ``NCODES``.  ``edge_kernel`` is what the solver
calls: the nonzero results of one operator for one code, as (target
edge-bit pattern, value) pairs.  Patterns are relative to the edge's
orientation and hold no vertex, so they are cached on the operator, one
slot per code, and shared by every model and every solve that holds it,
a renumbered submodel and a correlator's observable included; the
solver maps them onto each edge's own bitmasks.  ``matrix_element``
answers one query ``(target, sets, edge)`` from those same slots, in the
argument order of the independent dense check
``oracle.dense_matrix_element``.
"""

from __future__ import annotations

from .errors import EmptySet

# multiset code of edge-bit patterns: base-5 counts of patterns 1, 2 and 3
CODE = (0, 1, 5, 25)
NCODES = 125

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


def edge_kernel(op, code):
    """((target edge-bit pattern, value), ...) of ``op`` for the multiset ``code``.

    The nonzero ``target_matrix_elements`` in pattern order, computed on
    first use and kept in the operator's slot ``op._kernels[code]``, which
    a hot loop may read directly: its entries are read-only.
    """
    kern = op._kernels[code]
    if kern is None:
        sbits = (1,) * (code % 5) + (2,) * (code // 5 % 5) + (3,) * (code // 25)
        mes = target_matrix_elements(sbits, op.rows)
        kern = op._kernels[code] = tuple(mes.items())
    return kern


def matrix_element(target, sets, edge):
    """Exact <target| [A_1, [A_2, ... [A_k, V]]] |vacuum> for the edge term V.

    ``A_j`` is the creation operator of the nonempty vertex set ``sets[j]``;
    the argument order matches ``oracle.dense_matrix_element``.  The value
    is read from ``edge_kernel`` for the sets' multiset code, the slot the
    solver reads.  Returns exact complex zero, without arithmetic, with
    five or more sets, when a set misses the edge, when two sets overlap
    outside the edge, or when the target differs from their union outside
    the edge.
    """
    if not all(sets):
        raise EmptySet("creation sets must be nonempty")
    # the nested commutator of five or more sets vanishes, and a base-5
    # code holds at most four of each pattern
    if len(sets) > 4:
        return 0j
    u, v = edge.u, edge.v
    code = 0
    outside = set()
    for members in sets:
        sb = (2 if u in members else 0) | (1 if v in members else 0)
        if sb == 0:
            return 0j
        code += CODE[sb]
        for w in members:
            if w != u and w != v:
                if w in outside:
                    return 0j
                outside.add(w)
    if {w for w in target if w != u and w != v} != outside:
        return 0j
    tbits = (2 if u in target else 0) | (1 if v in target else 0)
    return complex(dict(edge_kernel(edge.op, code)).get(tbits, 0j))
