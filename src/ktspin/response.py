"""Ground-state two-point correlators via linear response.

The expectation of a two-site observable in the ground state equals the
derivative of the ground energy after adding the observable, scaled by
the perturbation strength, as a parallel edge.  Running the solver over
dual scalars (value plus derivative channel) computes that derivative
exactly: ``solve(model, order, terms=...)`` takes the model's edge terms
plus the observable edge, whose entries have a zero value channel and
the observable in the derivative channel, so every stored coefficient
and energy coefficient carries its derivative along.

Correlators are local: restricting the model to a neighborhood of the
two sites leaves the order-p answer unchanged, bit for bit, because the
discarded terms never touch the derivative channel and all surviving
terms are enumerated in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import AdjacencyGraph, distances
from .energy import energy_coefficient
from .errors import (
    DanglingVertexId,
    InvalidObservable,
    NonPositivePrecision,
    SelfLoop,
)
from .model import SpinModel, TwoQubitOperator, Vertex
from .scalars import DualScalar, derivative_part
from .solver import _prepare_terms, solve

REGIME_CERTIFIED = "lemma9"
REGIME_NONE = "none"


@dataclass
class CorrelatorQuery:
    """Two sites, a two-qubit observable on them, a strength, and an order."""

    s: int
    t: int
    observable: TwoQubitOperator
    epsilon: float
    order: int


@dataclass
class CorrelatorResult:
    """Correlator estimate with its certificate.

    ``coefficients[q]`` is the order-q response coefficient, so the value
    is their power sum in epsilon.  ``bound`` is the rigorous truncation
    bound when the strength lies in the certified regime, else None.
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


def _dual_entries(matrix):
    """Nested tuple with the matrix in the derivative channel only."""
    return tuple(
        tuple(DualScalar(0.0, cell) for cell in row) for row in matrix.tolist()
    )


def correlator(model, query, restrict=True):
    """Order-p correlator of a two-site observable in the ground state.

    The observable is rescaled internally when its norm exceeds the
    model's edge-strength scale, and the result and bound are scaled
    back, so callers never see the rescaling.
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
    j_max = model.J
    d = model.d
    scale = 1.0
    onorm = obs.norm()
    if j_max > 0.0 and onorm > j_max:
        scale = onorm / j_max
    run_matrix = obs.entries / scale if scale != 1.0 else obs.entries

    if restrict:
        sub, mapping = restrict_neighborhood(model, s, t, p)
        rs, rt = mapping[s], mapping[t]
    else:
        sub, rs, rt = model, s, t

    if p == 0:
        ders = [complex(run_matrix[0][0])]
    else:
        terms = _prepare_terms(sub)
        terms.append((rs, rt, _dual_entries(run_matrix)))
        state = solve(sub, p, terms=terms)
        ders = [derivative_part(energy_coefficient(state, q + 1)) for q in range(p + 1)]

    value = 0j
    power = 1.0
    for der in ders:
        value = value + der * power
        power = power * eps
    if scale != 1.0:
        value = value * scale
        ders = [der * scale for der in ders]

    if d == 0 or abs(eps) <= model.eps0_star / (2 * d):
        regime = REGIME_CERTIFIED
        bound = 2.0 ** (-16 - p) * j_max * d * (d + 1) * scale
    else:
        regime = REGIME_NONE
        bound = None
    return CorrelatorResult(
        value=value, bound=bound, regime=regime, coefficients=ders, order=p
    )


def choose_correlator_order(precision, j_max, d):
    """Smallest order whose certified bound meets the requested precision."""
    if not (precision > 0):
        raise NonPositivePrecision(f"precision must be positive, got {precision}")
    p = 0
    while 2.0 ** (-16 - p) * j_max * d * (d + 1) > precision:
        p += 1
    return p
