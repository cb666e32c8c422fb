"""Vertex sets and the sparse per-order coefficient table.

Inside the package a vertex set is an int bitmask, bit w set for vertex
w.  ``members_of`` spells one as the increasing list of its vertex ids.
The table maps (order, mask) -> scalar and additionally keeps, for every
vertex, per-order bins listing the masks that contain it, in insertion
order.  The bins make "all stored sets touching an edge" queries cheap
and give every consumer a reproducible iteration order.  The solver
stores each order whole, with ``install_order``, which builds the bins
and the order's one-norm in one pass.
"""

from __future__ import annotations

from math import isfinite
from operator import itemgetter

from .errors import EmptySet


def vertex_set(members):
    """Normalize an iterable of vertex ids to a strictly increasing tuple."""
    return tuple(sorted(set(members)))


def members_of(mask):
    """Increasing list of the vertex ids set in a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class CoefficientTable:
    """Sparse table of per-order set coefficients with per-vertex bins."""

    __slots__ = ("orders", "bins")

    def __init__(self):
        self.orders = {}  # order -> {vertex mask -> scalar}
        self.bins = {}    # vertex -> {order -> [vertex mask, ...] in insertion order}

    def entry_count(self):
        return sum(len(m) for m in self.orders.values())


def _check_set(mask):
    if not mask:
        raise EmptySet("coefficient sets must be nonempty")


def table_insert(table, order, mask, value):
    """Store a coefficient; exact zeros are dropped rather than stored.

    Inserting an existing (order, mask) key replaces the value in place
    and leaves the bins untouched.
    """
    _check_set(mask)
    if value == 0:
        return
    omap = table.orders.setdefault(order, {})
    fresh = mask not in omap
    omap[mask] = value
    if fresh:
        for w in members_of(mask):
            table.bins.setdefault(w, {}).setdefault(order, []).append(mask)


def install_order(table, order, omap):
    """Store a whole order's {mask: nonzero value} map as is, and return its one-norm.

    The map becomes the table's order entry, not a copy, and its masks
    join their members' bins in the map's order, as ``table_insert``
    calls in that order would place them.  The per-vertex magnitude
    totals of ``one_norm`` are summed in the same pass, in bin order.
    An empty map stores nothing.
    """
    if not omap:
        return 0.0
    bins = table.bins
    totals = {}
    for mask, value in omap.items():
        _check_set(mask)
        mag = abs(value)
        for w in members_of(mask):
            bins.setdefault(w, {}).setdefault(order, []).append(mask)
            totals[w] = totals.get(w, 0.0) + mag
    table.orders[order] = omap
    # the comparison of one_norm, so that a NaN total never wins
    best = 0.0
    for total in totals.values():
        if total > best:
            best = total
    return best


def table_lookup(table, order, mask):
    """Stored coefficient, or exact 0 when the entry is absent."""
    _check_set(mask)
    return table.orders.get(order, {}).get(mask, 0)


def bin_candidates(table, u, v, order):
    """All stored (mask, value) pairs of the given order whose set meets {u, v}.

    Sets containing u come first in their bin order, then sets containing v
    but not u; the result order is deterministic for a fixed insert history.
    """
    omap = table.orders.get(order)
    if not omap:
        return []
    out = []
    for mask in table.bins.get(u, {}).get(order, ()):
        out.append((mask, omap[mask]))
    bu = 1 << u
    for mask in table.bins.get(v, {}).get(order, ()):
        if not mask & bu:
            out.append((mask, omap[mask]))
    return out


def one_norm(table, order):
    """Largest, over vertices, total coefficient magnitude of sets containing it."""
    best = 0.0
    for per_order in table.bins.values():
        masks = per_order.get(order)
        if not masks:
            continue
        omap = table.orders[order]
        total = 0.0
        for mask in masks:
            total += abs(omap[mask])
        if total > best:
            best = total
    return best


# json.dumps(..., separators=(", ", ": ")) of {"q", "M", "re", "im"}; str()
# spells a finite float as json does, _NONFINITE covers the rest, and a
# list of ints prints as its JSON array
_LINE = '{"q": %d, "M": [%s], "re": %s, "im": %s}\n'
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dump_coefficients(table, fh):
    """Write one JSON object per entry, sorted by order, then by member list.

    Each line holds {"q", "M", "re", "im"}.  Member lists sort by their
    first member first, so each order is written vertex by vertex: the
    sets whose lowest member is w, taken from w's bin and sorted among
    themselves.  No member list is built for more than one such group at
    a time.
    """
    for order in sorted(table.orders):
        omap = table.orders[order]
        for w in sorted(table.bins):
            below = (1 << w) - 1
            group = [(members_of(mask), omap[mask])
                     for mask in table.bins[w].get(order, ()) if not mask & below]
            for members, value in sorted(group, key=itemgetter(0)):
                val = complex(value)
                real, imag = val.real, val.imag
                if not (isfinite(real) and isfinite(imag)):
                    real = _NONFINITE.get(str(real), real)
                    imag = _NONFINITE.get(str(imag), imag)
                fh.write(_LINE % (order, str(members)[1:-1], real, imag))
