"""Independent references the tests hold the package to.

None of these is on the path of any command; each is a second way to
compute what the package computes, so that a test can compare the two:

- ``table_insert``, the eager one-entry writer whose bins
  ``setalg.install_order`` must reproduce;
- ``one_norm``, the per-vertex one-norm that ``solver._divide`` records
  as ``SolverState.steps[q - 1].norm`` for order q;
- ``whole_model_correlator``, a correlator solved on the whole model
  with no light-cone restriction, whose answers the restricted
  ``response.correlator`` must equal bit for bit;
- ``numeric_series``, a least-squares fit of the exact energy curve, the
  check of the energy coefficients against exact energies at moderate
  strength;
- ``is_connected_subset`` and ``connected_size`` (|M|_c), by brute force
  over vertex sets, for graphs of a few vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ktspin.certificate import certify_correlator, observable_scale
from ktspin.model import EdgeTerm
from ktspin.oracle import QUBIT_CAP, _check_size, _norm_scale, ground
from ktspin.response import CorrelatorResult, _response_coefficients
from ktspin.setalg import _check_set, members_of
from ktspin.solver import SolverState, advance_order


def table_insert(table, order, mask, value):
    """Store a coefficient; exact zeros are dropped rather than stored.

    Inserting an existing (order, mask) key replaces the value in place
    and leaves the bins untouched.
    """
    _check_set(mask)
    if value == 0:
        return
    # index the installed orders first, so each bin keeps insertion order
    bins = table.bins
    omap = table.orders.setdefault(order, {})
    fresh = mask not in omap
    omap[mask] = value
    if fresh:
        for w in members_of(mask):
            bins.setdefault(w, {}).setdefault(order, []).append(mask)


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


def whole_model_correlator(model, query):
    """``response.correlator``'s answer to ``query`` (order >= 1), from the whole model.

    A whole-model ``SolverState`` advanced with order p kept to {s, t}
    and every lower order whole, then the same response coefficients,
    power sum and certificate as the correlator.  Neither the sites nor
    the model are renumbered, and nothing is held on the model.
    """
    s, t, p, eps = query.s, query.t, query.order, query.epsilon
    obs = query.observable
    state = SolverState(model, 0.0)
    for within in [-1] * (p - 1) + [(1 << s) | (1 << t)]:
        advance_order(state, within)
    ders = _response_coefficients(state, EdgeTerm(u=s, v=t, op=obs), p)
    value = 0j
    power = 1.0
    for der in ders:
        value = value + der * power
        power = power * eps
    regime, bound = certify_correlator(model, eps, p, value, observable_scale(model, obs))
    return CorrelatorResult(value=value, bound=bound, regime=regime, coefficients=ders, order=p)


@dataclass
class NumericSeries:
    """Least-squares series coefficients from exact energies, with conditioning."""

    coefficients: list
    conditioning: float
    uncertainties: list
    radius: float
    nodes: np.ndarray
    values: np.ndarray


def numeric_series(model, order, radius=None):
    """Fit the exact energy curve to a polynomial with zero constant term.

    Samples the exact ground energy at 2*order+1 Chebyshev nodes within
    the given radius (default: a quarter of the convergence threshold)
    and solves the least-squares system in the scaled variable.  The
    reported per-coefficient uncertainties combine the conditioning with
    the eigensolver's absolute accuracy; at very small radii they are
    large and honest.
    """
    _check_size(model.n, QUBIT_CAP)
    r = radius if radius is not None else model.eps0 / 4.0
    if not np.isfinite(r) or r <= 0:
        raise ValueError(f"need a positive finite sampling radius, got {r}")
    count = 2 * order + 1
    nodes = r * np.cos(np.pi * (2 * np.arange(count) + 1) / (2 * count))
    values = np.array([ground(model, float(x)).energy for x in nodes])
    scaled = nodes / r
    design = np.column_stack([scaled ** q for q in range(1, order + 1)])
    fit, _res, _rank, _sv = np.linalg.lstsq(design, values, rcond=None)
    conditioning = float(np.linalg.cond(design))
    powers = np.array([r ** q for q in range(1, order + 1)])
    coefficients = [float(c) for c in fit / powers]
    noise = 1e-13 * max(1.0, _norm_scale(model, r))
    uncertainties = [conditioning * noise / r ** q for q in range(1, order + 1)]
    return NumericSeries(
        coefficients=coefficients,
        conditioning=conditioning,
        uncertainties=uncertainties,
        radius=float(r),
        nodes=nodes,
        values=values,
    )


def is_connected_subset(graph, members):
    """Whether the vertex set induces a connected subgraph of ``graph``."""
    members = set(members)
    seen = {next(iter(members))}
    frontier = list(seen)
    while frontier:
        w = frontier.pop()
        for x in graph.neighbors[w]:
            if x in members and x not in seen:
                seen.add(x)
                frontier.append(x)
    return seen == members


def connected_size(graph, members):
    """|M|_c: the size of a smallest connected vertex set holding the members."""
    members = set(members)
    for size in range(len(members), graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            if members <= set(combo) and is_connected_subset(graph, combo):
                return size
    raise ValueError(f"vertices {sorted(members)} are not in one connected component")
