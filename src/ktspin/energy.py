"""Energy series coefficients and their partial power sum.

E_1 sums the vacuum-to-vacuum entry ``entries[0][0]`` of every edge
term.  For order p > 1 the coefficient reads the stored tables of total
order p-1 against each edge's vacuum row.  Only nonempty subsets of an
edge's endpoints contribute, and no three of them are disjoint, so
every term of the edge (u, v) is one of:

- a single set {v}, {u} or {u, v} at order p-1, times
  ``-entries[0][bits]`` with ``bits`` its edge-bit pattern;
- the two singletons {v} at order a and {u} at order p-1-a, in either
  order, times ``entries[0][3] / 2``, for a = 1..p-2.

Terms are summed edge by edge in that order.  ``energy_terms`` yields
each term as a (value, derivative) pair, so the same closed form serves
``energy_coefficient`` (values only, every derivative None) and the
correlator's response coefficients (derivatives along an observable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certificate import certify_energy
from .errors import NonFiniteStrength, NonPositivePrecision
from .setalg import table_lookup
from .solver import solve, times


def vacuum_rows(edges):
    """Edge terms as (u, v, vacuum row of (value, None) pairs)."""
    return [(e.u, e.v, [(cell, None) for cell in e.op.rows[0]]) for e in edges]


def energy_terms(rows, lookup, order):
    """(value, derivative) of each term of E_order, in summation order.

    ``rows`` holds (u, v, vacuum row) with each cell a (value,
    derivative) pair, and ``lookup(q, mask)`` gives the order-q
    coefficient of a vertex mask as such a pair; a derivative of None
    is absent (see ``solver.times``).  A term whose factors are all
    exactly zero with no derivative is skipped.
    """
    if order == 1:
        for _u, _v, row in rows:
            yield row[0]
        return
    top = order - 1
    for u, v, row in rows:
        bu, bv = 1 << u, 1 << v
        for mask, bits in ((bv, 1), (bu, 2), (bu | bv, 3)):
            vv, vd = row[bits]
            if vv != 0 or vd is not None:
                cv, cd = lookup(top, mask)
                if cv != 0 or cd is not None:
                    pv, pd = times(cv, cd, vv, vd)
                    yield times(pv, pd, -1.0, None)
        vv, vd = row[3]
        if vv == 0 and vd is None:
            continue
        for a in range(1, top):
            for first, second in ((bv, bu), (bu, bv)):
                c1v, c1d = lookup(a, first)
                if c1v != 0 or c1d is not None:
                    c2v, c2d = lookup(top - a, second)
                    if c2v != 0 or c2d is not None:
                        pv, pd = times(c1v, c1d, c2v, c2d)
                        pv, pd = times(pv, pd, vv, vd)
                        yield times(pv, pd, 0.5, None)


def energy_coefficient(state, order):
    """Series coefficient of the ground energy at the given order, as a complex."""
    if order < 1:
        raise NonPositivePrecision(f"energy order must be >= 1, got {order}")
    if order > 1 and state.current_order < order - 1:
        raise ValueError(
            f"state holds orders up to {state.current_order}, "
            f"but order {order} needs {order - 1}"
        )
    table = state.table

    def lookup(q, mask):
        return table_lookup(table, q, mask), None

    acc = 0j
    for value, _der in energy_terms(vacuum_rows(state.model.edges), lookup, order):
        if value != 0:
            acc += value
    return acc


@dataclass
class EnergySeries:
    """Energy coefficients 1..order with the model snapshot they came from.

    ``dropped`` holds, per solved order, the (count, one-norm) of entries a
    positive threshold left out of the table.
    """

    coefficients: list
    order: int
    n: int
    Delta: float
    eps0: float
    norms: list
    hermitian: bool
    dropped: list


def energy_series(model, order, threshold=0.0):
    """Solve to the needed order and collect E_1..E_order."""
    if order < 1:
        raise NonPositivePrecision(f"series order must be >= 1, got {order}")
    return series_from_state(solve(model, max(order - 1, 1), threshold), order)


def series_from_state(state, order):
    """Collect E_1..E_order from a state solved to at least order - 1."""
    model = state.model
    coefficients = [energy_coefficient(state, q) for q in range(1, order + 1)]
    return EnergySeries(
        coefficients=coefficients,
        order=order,
        n=model.n,
        Delta=model.Delta,
        eps0=model.eps0,
        norms=state.norms[: order - 1],
        hermitian=model.hermitian,
        dropped=state.dropped[: order - 1],
    )


def energy_estimate(series, eps):
    """Partial power sum and, when certified, its truncation bound.

    When the sum is not finite, outside the guaranteed strength range, or
    when a threshold dropped coefficients from the solved table, the value
    is still returned, the bound is None, and a UserWarning names the
    reason (``certificate.certify_energy``).  A NaN or infinite strength
    raises NonFiniteStrength: no comparison with ``eps0`` can place it.
    """
    if not math.isfinite(abs(eps)):
        raise NonFiniteStrength(f"epsilon must be finite, got {eps}")
    value = 0j
    power = 1.0
    for coeff in series.coefficients:
        power = power * eps
        value = value + coeff * power
    return value, certify_energy(series, eps, value)


def radius_estimate(series):
    """Convergence-radius estimate from the tail of the coefficient list.

    Uses the reciprocal of the largest root-magnitude growth rate over
    the trailing half of the coefficients; None when that whole window
    vanishes.  Accepts an EnergySeries or a plain coefficient sequence.
    """
    coeffs = getattr(series, "coefficients", series)
    p = len(coeffs)
    if p == 0:
        return None
    rate = 0.0
    for idx in range(p // 2, p):
        q = idx + 1
        mag = abs(coeffs[idx])
        if mag > 0.0:
            rate = max(rate, mag ** (1.0 / q))
    if rate == 0.0:
        return None
    return 1.0 / rate
