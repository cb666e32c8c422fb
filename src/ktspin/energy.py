"""Energy series coefficients, truncation bounds, and order selection.

The order-p energy coefficient combines stored coefficient tables of
total order p-1 against each edge: tuples of one to four stored sets,
each a nonempty subset of the edge's endpoints, weighted 1/k! over
ordered tuples, times the vacuum element of the fully right-placed
commutator term.  Tuples of three or more sets cannot be disjoint inside
a single edge, so only one- and two-set tuples survive; the loop asserts
that on the fly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial

from .errors import NonPositiveGap, NonPositivePrecision
from .scalars import DualScalar, derivative_part, value_part
from .setalg import table_lookup
from .solver import solve

_INV_FACT = tuple(1.0 / factorial(k) for k in range(5))


@lru_cache(maxsize=None)
def _compositions(total, parts):
    """Ordered tuples of positive integers with the given sum, lexicographic."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def energy_coefficient(state, order):
    """Series coefficient of the ground energy at the given order.

    Returns a plain complex number unless the accumulation picked up a
    derivative channel, in which case a DualScalar is returned.
    """
    if order < 1:
        raise NonPositivePrecision(f"energy order must be >= 1, got {order}")
    if order > 1 and state.current_order < order - 1:
        raise ValueError(
            f"state holds orders up to {state.current_order}, "
            f"but order {order} needs {order - 1}"
        )
    val_acc = 0j
    der_acc = 0j
    if order == 1:
        for _u, _v, entries in state.terms:
            cell = entries[0][0]
            cv = value_part(cell)
            cd = derivative_part(cell)
            if cv != 0:
                val_acc += cv
            if cd != 0:
                der_acc += cd
        if der_acc == 0:
            return val_acc
        return DualScalar(val_acc, der_acc)

    table = state.table
    for u, v, entries in state.terms:
        pair = (u, v) if u < v else (v, u)
        subsets = (((v,), 1), ((u,), 2), (pair, 3))
        for k in range(1, 5):
            inv_fact = _INV_FACT[k]
            sign = -1.0 if k & 1 else 1.0
            for comp in _compositions(order - 1, k):
                for chosen in product(subsets, repeat=k):
                    bits = 0
                    disjoint = True
                    for _members, sb in chosen:
                        if bits & sb:
                            disjoint = False
                            break
                        bits |= sb
                    if k >= 3:
                        # no three nonempty subsets of a pair are disjoint
                        assert not disjoint
                    if not disjoint:
                        continue
                    vac = entries[0][bits]
                    if vac == 0:
                        continue
                    coeff_prod = None
                    for j in range(k):
                        cj = table_lookup(table, comp[j], chosen[j][0])
                        if cj == 0:
                            coeff_prod = None
                            break
                        coeff_prod = cj if coeff_prod is None else coeff_prod * cj
                    if coeff_prod is None:
                        continue
                    contrib = coeff_prod * vac * (sign * inv_fact)
                    cv = value_part(contrib)
                    cd = derivative_part(contrib)
                    if cv != 0:
                        val_acc += cv
                    if cd != 0:
                        der_acc += cd
    if der_acc == 0:
        return val_acc
    return DualScalar(val_acc, der_acc)


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
    model.validate()
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


def truncation_bound(n, delta_min, order):
    """Rigorous remainder bound n*Delta*2^(-16-order) inside the threshold."""
    return n * delta_min * 2.0 ** (-16 - order)


def energy_estimate(series, eps):
    """Partial power sum and, when certified, its truncation bound.

    Outside the guaranteed strength range, or when a threshold dropped
    coefficients from the solved table, the value is still returned, the
    bound is None, and a UserWarning is emitted.
    """
    value = 0j
    power = 1.0
    for coeff in series.coefficients:
        power = power * eps
        value = value + coeff * power
    count = sum(c for c, _norm in series.dropped)
    if count:
        reason = f"a threshold dropped {count} coefficients from the solved table"
    elif abs(eps) > series.eps0:
        reason = (
            f"|epsilon| = {abs(eps):.3e} exceeds the certified threshold "
            f"{series.eps0:.3e}"
        )
    else:
        return value, truncation_bound(series.n, series.Delta, series.order)
    warnings.warn(f"{reason}; no rigorous bound attached", UserWarning, stacklevel=2)
    return value, None


def choose_order(n, delta_min, precision):
    """Smallest order whose truncation bound meets the requested precision."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if not (delta_min > 0):
        raise NonPositiveGap(f"Delta must be positive, got {delta_min}")
    if not (precision > 0):
        raise NonPositivePrecision(f"precision must be positive, got {precision}")
    order = 1
    while truncation_bound(n, delta_min, order) > precision:
        order += 1
    return order


def norm_bound(eps0, order):
    """Certified ceiling 2^-15/(2*eps0)^order for the order's fluctuation norm."""
    return 2.0 ** -15 / (2.0 * eps0) ** order


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
        mag = abs(value_part(coeffs[idx]))
        if mag > 0.0:
            rate = max(rate, mag ** (1.0 / q))
    if rate == 0.0:
        return None
    return 1.0 / rate
