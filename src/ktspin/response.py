"""Ground-state two-point correlators via linear response.

The expectation of a two-site observable in the ground state equals the
derivative of the ground energy after adding the observable, scaled by
a formal strength, as a parallel edge (s, t).  That derivative comes
from two tables:

- a plain value table to order p, with no observable edge, its orders
  p - 1 and p kept to what is read of them (below);
- a sparse tangent table from ``solver.tangent_pass``: the derivative
  of every coefficient that depends on the observable edge, an
  ``EdgeTerm`` walked after the model's edges, for orders 1..p.  It
  enumerates only tuples that hold a derivative-carrying item or act
  through the observable edge, in the solver's pool and visit order.

E_{q+1} reads order q only on sets of at most two vertices, so the
tangent table's last order p keeps only those.  The only order-p values
that are read (the observable edge's vacuum row at {s}, {t} and
{s, t}) are the plain values of those three sets, which do not depend
on the observable: the value table's last order step is kept to
{s, t}, and stores them bit for bit as an uncapped step would.  Each
response coefficient is then the
derivative channel of ``energy.energy_terms``, summed term by term in
the energy's order: the product rule ``a.val*b.der + a.der*b.val`` of
``solver.times``, and a coefficient that is exactly zero in both
channels skipped.  Only the observable and the model edges with a
derivative on {u}, {v} or {u, v} get an energy row, since no other row
yields a derivative term.

Correlators are local.  ``coefficients[q]`` is dE_{q+1}/dlam, and
q <= p.  Each term of E_{q+1} that carries the observable edge is a
connected cluster made of that edge plus q model edges (with
multiplicity), so it reaches no vertex more than q hops from {s, t} and
no edge whose nearer endpoint is more than q - 1 hops away.  The same
bound holds for every stored value such a term reads: a stored order-j
set is built only from connected clusters of j edges that cover it,
and the orders of a term's parts add up to q.  So ``correlator``
restricts the model to ``restrict_neighborhood(model, s, t, p - 1)``:
vertices within p hops, edges whose nearer endpoint is within p - 1
hops.  The answer is unchanged bit for bit, because every term that is
kept reads the same stored values, and the surviving tuples are
enumerated in the same relative order, since the renumbering keeps
vertex and edge order.  One hop less drops an edge of some order-p
cluster and changes the answer.

The value table's order p - 1 needs less than that: for p >= 3 the
restricted solve stores it only on the sets within p - 1 hops of
{s, t} (``solver.advance_order`` kept to that ball), and its record
holds that ball and no one-norm.  Every reader of that order reads
only such sets:

- the order-p step kept to {s, t} and the observable edge's last-step
  section read sets that meet {s, t}, and an order-(p-1) set is
  covered by p - 1 edges, so it spans at most p - 1 hops;
- a model edge's last-step section reads only derivative sets, which
  lie within p - 2 hops;
- the energy rows read top-order values only at {s}, {t} and {s, t};
  a model row uses only the derivative channel there.

A kept set has the uncapped value, bit for bit, and the kept sets keep
their relative map and bin order, so every reader sees what it saw in
the uncapped table.  At p <= 2 order p - 1 is the vacuum column (or
none), solved whole.  The light cone is one ``solver.SolverState``,
advanced once per order.  No query solves the whole model: the tests
hold the restricted answers to that unrestricted solve, bit for bit.

Only the tangent pass sees the observable, so a run of queries on one
model reuses the rest:

- each edge operator caches its commutator kernels as edge-bit
  patterns (``kernel.edge_kernel``), which every solve and every
  renumbered submodel sharing the operator maps onto its own edges.
  So does the observable: a query walks its own operator, and its
  kernels serve the next query that holds it;
- the model holds the last light cone, keyed by (s, t, p): the
  renumbered sites and the cone's state, and the next query with the
  same key reuses both.  It is one entry, dropped before another solve
  starts.  The state holds the submodel, never the model itself, so
  the entry makes no reference cycle.

Neither moves a bit.  A cached pattern's value is the float the kernel
would compute again, from the same read-only entries in the same
order, and patterns name no vertex.  ``tangent_pass`` only reads the
state's tables and bins; the caches it fills are pure functions of the
model and the operators, so a reused state is what a new solve would
build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import certify_correlator, observable_scale
from .clusters import AdjacencyGraph, distances
from .errors import (
    DanglingVertexId,
    InvalidObservable,
    NonFiniteStrength,
    NonPositivePrecision,
    SelfLoop,
)
from .energy import energy_terms, vacuum_rows
from .model import EdgeTerm, SpinModel, TwoQubitOperator, Vertex
from .solver import SolverState, advance_order, tangent_pass


def _check_strength(eps):
    if not math.isfinite(abs(eps)):
        raise NonFiniteStrength(f"correlator strength must be finite, got {eps}")


@dataclass
class CorrelatorQuery:
    """Two sites, a two-qubit observable on them, a strength, and an order.

    A NaN or infinite strength raises NonFiniteStrength here, and again
    in ``correlator``, since a query's fields can be reassigned.
    """

    s: int
    t: int
    observable: TwoQubitOperator
    epsilon: float
    order: int

    def __post_init__(self):
        _check_strength(self.epsilon)


@dataclass
class CorrelatorResult:
    """Correlator estimate with its certificate.

    ``coefficients[q]`` is the order-q response coefficient, so the value
    is their power sum in epsilon.  ``bound`` is the rigorous truncation
    bound when the strength lies in the certified regime, else None
    (``certificate.certify_correlator``).
    """

    value: complex
    bound: float
    regime: str
    coefficients: list
    order: int


def _check_observable(obs):
    if not isinstance(obs, TwoQubitOperator):
        obs = TwoQubitOperator(np.asarray(obs))
    scale = max(1.0, float(np.max(np.abs(obs.entries))))
    err = float(np.max(np.abs(obs.entries - obs.entries.conj().T)))
    if err > 1e-12 * scale:
        raise InvalidObservable(f"observable deviates from Hermitian by {err:.3e}")
    return obs


def restrict_neighborhood(model, s, t, order):
    """Submodel within hop distance order+1 of {s, t}, densely renumbered.

    Keeps every edge whose nearer endpoint is within distance order.
    Returns (submodel, mapping) where mapping sends old ids to new ones;
    the renumbering preserves the relative order of vertex ids, and kept
    edges keep their relative order and endpoint orientation.
    ``correlator`` passes p - 1 for an order-p query: the light cone of
    its coefficients (see the module docstring).
    """
    n = model.n
    for w in (s, t):
        if not (0 <= w < n):
            raise DanglingVertexId(f"site {w} outside 0..{n - 1}")
    graph = AdjacencyGraph.from_model(model)
    dist = distances(graph, [s, t] if s != t else [s])
    keep = [w for w in range(n) if dist[w] <= order + 1]
    mapping = {w: i for i, w in enumerate(keep)}
    vertices = [Vertex(id=mapping[w], delta=model.deltas[w]) for w in keep]
    edges = []
    for e in model.edges:
        if min(dist[e.u], dist[e.v]) <= order:
            edges.append(type(e)(u=mapping[e.u], v=mapping[e.v], op=e.op))
    sub = SpinModel(vertices=vertices, edges=edges)
    return sub, mapping


def _light_cone_solve(model, s, t, p):
    """(s, t renumbered, value state) of a query's light cone.

    One ``SolverState`` on ``restrict_neighborhood(model, s, t, p - 1)``,
    advanced once per order up to p.  Order p is kept to {s, t}, and for
    p >= 3 order p - 1 to the sets within p - 1 hops of {s, t} (see the
    module docstring).  The model holds the last entry, and a query with
    the same sites and order reuses it.  Any other query drops it before
    it restricts and solves, so at most one such state is alive.
    """
    key = (s, t, p)
    held = model._light_cone
    if held is not None and held[0] == key:
        return held[1:]
    # free the old state before the new solve, not after it
    held = None
    object.__setattr__(model, "_light_cone", None)
    sub, mapping = restrict_neighborhood(model, s, t, p - 1)
    s, t = mapping[s], mapping[t]
    masks = [-1] * (p - 1) + [(1 << s) | (1 << t)]
    if p >= 3:
        dist = distances(AdjacencyGraph.from_model(sub), (s, t))
        masks[p - 2] = sum(1 << w for w, d in enumerate(dist) if d <= p - 1)
    state = SolverState(sub, 0.0)
    for within in masks:
        advance_order(state, within)
    object.__setattr__(model, "_light_cone", (key, s, t, state))
    return s, t, state


def _response_coefficients(state, edge, p):
    """Response coefficients 0..p: derivatives of E_1..E_{p+1} along the observable ``edge``.

    The values of orders 0..p are read from ``state.table``, order p
    holding {s}, {t} and {s, t} only.  A model edge with no derivative
    on {u}, {v} or {u, v} at any order yields no derivative term, so it
    gets no energy row.
    """
    tangents = tangent_pass(state, edge, p)
    values = [state.table.orders.get(q, {}) for q in range(p + 1)]

    def lookup(q, mask):
        return values[q].get(mask, 0), tangents[q].get(mask)

    small = {mask for tq in tangents.values() for mask in tq if mask.bit_count() <= 2}
    rows = vacuum_rows(
        e for e in state.model.edges
        if not small.isdisjoint((1 << e.u, 1 << e.v, (1 << e.u) | (1 << e.v)))
    )
    rows.append((edge.u, edge.v,
                 [(0j, cell if cell != 0 else None) for cell in edge.op.rows[0]]))
    out = []
    for order in range(1, p + 2):
        acc = 0j
        for _value, der in energy_terms(rows, lookup, order):
            if der is not None and der != 0:
                acc += der
        out.append(acc if acc != 0 else 0j)
    return out


def correlator(model, query):
    """Order-p correlator of a two-site observable in the ground state.

    The solve takes the observable as given: the response is linear in
    it, so ``certificate.observable_scale`` enters only the bound.  A NaN
    or infinite strength raises NonFiniteStrength.  Outside the certified
    regime, or when the value comes out non-finite, the bound is None
    and a UserWarning names the reason.  The value solve of the query's
    light cone stays on the model for the next query (see the module
    docstring).
    """
    n = model.n
    s, t = query.s, query.t
    for w in (s, t):
        if not (0 <= w < n):
            raise DanglingVertexId(f"site {w} outside 0..{n - 1}")
    if s == t:
        raise SelfLoop("correlator sites must be distinct")
    obs = _check_observable(query.observable)
    p = query.order
    if p < 0:
        raise NonPositivePrecision("correlator order must be >= 0")
    eps = query.epsilon
    _check_strength(eps)
    if p == 0:
        ders = [obs.rows[0][0]]
    else:
        rs, rt, state = _light_cone_solve(model, s, t, p)
        ders = _response_coefficients(state, EdgeTerm(u=rs, v=rt, op=obs), p)

    value = 0j
    power = 1.0
    for der in ders:
        value = value + der * power
        power = power * eps

    regime, bound = certify_correlator(model, eps, p, value, observable_scale(model, obs))
    return CorrelatorResult(
        value=value, bound=bound, regime=regime, coefficients=ders, order=p
    )
