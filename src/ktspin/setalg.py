"""Vertex sets and the sparse per-order coefficient table.

Vertex sets are strictly increasing tuples of vertex ids.  The table maps
(order, set) -> scalar and additionally keeps, for every vertex, per-order
bins listing the sets that contain it, in insertion order.  The bins make
"all stored sets touching an edge" queries cheap and give every consumer a
reproducible iteration order.
"""

from __future__ import annotations

from math import isfinite

from .errors import EmptySet


def vertex_set(members):
    """Normalize an iterable of vertex ids to a strictly increasing tuple."""
    return tuple(sorted(set(members)))


class CoefficientTable:
    """Sparse table of per-order set coefficients with per-vertex bins."""

    __slots__ = ("orders", "bins")

    def __init__(self):
        self.orders = {}  # order -> {vertex set -> scalar}
        self.bins = {}    # vertex -> {order -> [vertex set, ...] in insertion order}

    def max_order(self):
        return max(self.orders, default=0)

    def entry_count(self):
        return sum(len(m) for m in self.orders.values())


def _check_set(members):
    if not members:
        raise EmptySet("coefficient sets must be nonempty")


def table_insert(table, order, members, value):
    """Store a coefficient; exact zeros are dropped rather than stored.

    Inserting an existing (order, set) key replaces the value in place and
    leaves the bins untouched.
    """
    _check_set(members)
    if value == 0:
        return
    omap = table.orders.setdefault(order, {})
    fresh = members not in omap
    omap[members] = value
    if fresh:
        for w in members:
            table.bins.setdefault(w, {}).setdefault(order, []).append(members)


def table_lookup(table, order, members):
    """Stored coefficient, or exact 0 when the entry is absent."""
    _check_set(members)
    omap = table.orders.get(order)
    if omap is None:
        return 0
    return omap.get(members, 0)


def bin_candidates(table, u, v, order):
    """All stored (set, value) pairs of the given order whose set meets {u, v}.

    Sets containing u come first in their bin order, then sets containing v
    but not u; the result order is deterministic for a fixed insert history.
    """
    omap = table.orders.get(order)
    if not omap:
        return []
    out = []
    for members in table.bins.get(u, {}).get(order, ()):
        out.append((members, omap[members]))
    for members in table.bins.get(v, {}).get(order, ()):
        if u not in members:
            out.append((members, omap[members]))
    return out


def one_norm(table, order):
    """Largest, over vertices, total coefficient magnitude of sets containing it."""
    best = 0.0
    for per_order in table.bins.values():
        members_list = per_order.get(order)
        if not members_list:
            continue
        omap = table.orders[order]
        total = 0.0
        for members in members_list:
            total += abs(omap[members])
        if total > best:
            best = total
    return best


# json.dumps(..., separators=(", ", ": ")) of {"q", "M", "re", "im"}; str()
# spells a finite float as json does, and _NONFINITE covers the rest
_LINE = '{"q": %d, "M": [%s], "re": %s, "im": %s}\n'
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dump_coefficients(table, fh):
    """Write one JSON object per entry, sorted by (order, set).

    Each line holds {"q", "M", "re", "im"}.
    """
    for order in sorted(table.orders):
        omap = table.orders[order]
        for members in sorted(omap):
            val = complex(omap[members])
            real, imag = val.real, val.imag
            if not (isfinite(real) and isfinite(imag)):
                real = _NONFINITE.get(str(real), real)
                imag = _NONFINITE.get(str(imag), imag)
            fh.write(_LINE % (order, ", ".join(map(str, members)), real, imag))
