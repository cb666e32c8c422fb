"""Vertex sets and the sparse per-order coefficient table.

Inside the package a vertex set is an int bitmask, bit w set for vertex
w.  ``members_of`` spells one as the increasing list of its vertex ids.
The table maps (order, mask) -> scalar and additionally keeps, for every
vertex, per-order bins listing the masks that contain it, in insertion
order.  The bins make "all stored sets touching an edge" queries cheap
and give every consumer a reproducible iteration order.  The solver
stores each order whole, with ``install_order``, which only stores the
order's map: its bins are built the first time anything reads the
table's bins (``CoefficientTable.bins``), in the map's order.  So an
order that nothing reads by vertex, such as the last order of a solve
that stops, is never indexed.
"""

from __future__ import annotations

from math import isfinite
from operator import itemgetter

from .errors import EmptySet


def members_of(mask):
    """Increasing list of the vertex ids set in a bitmask."""
    # peeling the top bit with bit_length is cheaper on wide masks than
    # isolating the low one with mask & -mask, which builds a negated copy
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


class CoefficientTable:
    """Sparse table of per-order set coefficients with per-vertex bins.

    ``orders`` maps order -> {vertex mask -> scalar}.  ``bins`` maps
    vertex -> {order -> [vertex mask, ...] in insertion order}; reading
    it first indexes the orders in ``unindexed`` (installed whole, not
    yet binned), in the order they were installed.
    """

    __slots__ = ("orders", "_bins", "unindexed")

    def __init__(self):
        self.orders = {}
        self._bins = {}
        self.unindexed = []

    @property
    def bins(self):
        if self.unindexed:
            bins = self._bins
            for order in self.unindexed:
                for mask in self.orders[order]:
                    for w in members_of(mask):
                        bins.setdefault(w, {}).setdefault(order, []).append(mask)
            self.unindexed = []
        return self._bins


def _check_set(mask):
    if not mask:
        raise EmptySet("coefficient sets must be nonempty")


def install_order(table, order, omap):
    """Store a whole order's {mask: nonzero value} map as is.

    The map becomes the table's order entry, not a copy.  Its masks join
    their members' bins when the bins are next read, in the map's order.
    An empty map stores nothing.
    """
    if not omap:
        return
    if 0 in omap:
        raise EmptySet("coefficient sets must be nonempty")
    table.orders[order] = omap
    table.unindexed.append(order)


def table_lookup(table, order, mask):
    """Stored coefficient, or exact 0 when the entry is absent."""
    _check_set(mask)
    return table.orders.get(order, {}).get(mask, 0)


def bin_candidates(table, u, v, order):
    """All stored (mask, value) pairs of the given order whose set meets {u, v}.

    Sets containing u come first in their bin order, then sets containing v
    but not u; the result order is deterministic for a fixed insert history.
    The solver reads the bins in this order directly; this function is
    kept for the tests, which check its pools against it, and for the
    benchmark's pool-record counters.
    """
    omap = table.orders.get(order)
    if not omap:
        return []
    bins = table.bins
    out = []
    for mask in bins.get(u, {}).get(order, ()):
        out.append((mask, omap[mask]))
    bu = 1 << u
    for mask in bins.get(v, {}).get(order, ()):
        if not mask & bu:
            out.append((mask, omap[mask]))
    return out


# json.dumps(..., separators=(", ", ": ")) of {"q", "M", "re", "im"}; str()
# spells a finite float as json does, _NONFINITE covers the rest, and a
# list of ints prints as its JSON array
_LINE = '{"q": %d, "M": [%s], "re": %s, "im": %s}\n'
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dump_coefficients(table, fh):
    """Write one JSON object per entry, sorted by order, then by member list.

    Each line holds {"q", "M", "re", "im"}.  Member lists sort by their
    first member first, so each order is written vertex by vertex: the
    order's masks are grouped by their lowest member, straight from the
    order's map, and each group is sorted by member list on its own.
    No member list is built for more than one group at a time, and no
    bin is read.
    """
    for order in sorted(table.orders):
        omap = table.orders[order]
        groups = {}  # lowest bit -> masks in map order
        for mask in omap:
            low = mask & -mask
            group = groups.get(low)
            if group is None:
                groups[low] = [mask]
            else:
                group.append(mask)
        for low in sorted(groups):
            group = [(members_of(mask), omap[mask]) for mask in groups[low]]
            for members, value in sorted(group, key=itemgetter(0)):
                val = complex(value)
                real, imag = val.real, val.imag
                if not (isfinite(real) and isfinite(imag)):
                    real = _NONFINITE.get(str(real), real)
                    imag = _NONFINITE.get(str(imag), imag)
                fh.write(_LINE % (order, str(members)[1:-1], real, imag))
