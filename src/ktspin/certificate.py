"""The certificate of every estimate: its regime, its bound, its floor and the order it needs.

An energy or a correlator is certified only inside its regime:

- the energy's partial power sum for |eps| <= eps0 (``SpinModel.eps0``),
  when its value is finite and no threshold dropped coefficients from
  the solved table.  Its order-p bound is ``truncation_bound`` =
  n Delta 2^(-16-p);
- the correlator for |eps| <= eps0* / (2d) (``correlator_threshold``;
  every strength when d = 0), when its value is finite.  Its order-p
  bound is ``correlator_bound`` = 2^(-16-p) J d (d+1) times
  ``observable_scale``: the bound holds for O / scale, whose norm is at
  most J, and the correlator is linear in O.

Outside its regime an estimate keeps its value, its bound is None, and
a UserWarning names the reason.

The order choice returns the smallest order whose printed bound, the
same floats the estimate prints, meets a requested precision.  It first
refuses a precision below the floor, about one ulp of the largest value
the regime allows (``energy_floor``, ``correlator_floor``): no double
can carry it.
"""

from __future__ import annotations

import math
import warnings

from .errors import EmptySet, KtspinError, NonPositivePrecision

REGIME_CERTIFIED = "lemma9"
REGIME_NONE = "none"


def truncation_bound(n, delta_min, order):
    """Rigorous remainder bound n*Delta*2^(-16-order) inside the threshold."""
    return n * delta_min * 2.0 ** (-16 - order)


def norm_bound(eps0, order):
    """Certified ceiling 2^-15/(2*eps0)^order for the order's fluctuation norm."""
    return 2.0 ** -15 / (2.0 * eps0) ** order


def correlator_bound(p, j_max, d):
    """Rigorous truncation bound 2^(-16-p) J d (d+1) of an order-p correlator in its regime."""
    return 2.0 ** (-16 - p) * j_max * d * (d + 1)


def correlator_threshold(model):
    """The largest certified correlator strength, eps0* / (2d); inf when d = 0."""
    return model.eps0_star / (2 * model.d) if model.d else math.inf


def observable_scale(model, observable):
    """max(1, ||O|| / J), the factor of O's correlator bound: O / scale has norm at most J."""
    onorm, j_max = observable.norm(), model.J
    return onorm / j_max if j_max > 0.0 and onorm > j_max else 1.0


def energy_floor(model):
    """The smallest precision a double can carry for E: 2^-52 * eps0 * sum of ||V_e||.

    H0 is diagonal with ground energy 0, so by Bauer-Fike the ground
    energy moves at most |eps| ||V|| <= eps0 * sum_e ||V_e|| inside the
    certified regime |eps| <= eps0.  Doubles of that size are spaced up
    to 2^-52 of it apart, so no printed E can be certified closer.  A
    model whose edge operators are all zero has E = 0 and floor 0.
    """
    total = sum(e.op.norm() for e in model.edges)
    return 2.0 ** -52 * model.eps0 * total if total else 0.0


def correlator_floor(observable):
    """The smallest precision a double can carry for a correlator: 2^-52 * ||O||.

    The correlator is an expectation of O, so |K| <= ||O||, and doubles
    of that size are spaced up to 2^-52 of it apart.
    """
    return 2.0 ** -52 * observable.norm()


def _least_order(bound, order, precision, floor, quantity):
    """Smallest order from ``order`` up whose ``bound(order)`` meets ``precision``.

    A precision below ``floor``, about one ulp of the largest certified
    ``quantity``, raises before any order is tried.
    """
    if not (precision > 0):
        raise NonPositivePrecision(f"precision must be positive, got {precision}")
    if precision < floor:
        raise KtspinError(
            f"--precision {precision:.3e} is below {floor:.3e}, about one ulp of the "
            f"largest {quantity} the certified regime allows, which no double can carry"
        )
    while bound(order) > precision:
        order += 1
    return order


def choose_order(model, precision):
    """Smallest energy order whose truncation bound meets ``precision``, above the floor."""
    n, delta = model.n, model.Delta
    if n < 1:
        raise EmptySet(f"need at least one vertex, got n={n}")
    return _least_order(
        lambda p: truncation_bound(n, delta, p), 1, precision, energy_floor(model), "|E|"
    )


def choose_correlator_order(model, observable, precision):
    """Smallest correlator order whose printed bound meets ``precision``, above the floor."""
    j_max, d, scale = model.J, model.d, observable_scale(model, observable)
    return _least_order(
        lambda p: correlator_bound(p, j_max, d) * scale,
        0, precision, correlator_floor(observable), "|K|",
    )


def _withhold(reason):
    # the warning points at the caller of energy_estimate or correlator
    warnings.warn(f"{reason}; no rigorous bound attached", UserWarning, stacklevel=4)


def certify_energy(series, eps, value):
    """Truncation bound of ``value``, the power sum of ``series`` at ``eps``, or None."""
    count = sum(c for c, _norm in series.dropped)
    if not math.isfinite(abs(value)):
        reason = "the energy value is not finite"
    elif count:
        reason = f"a threshold dropped {count} coefficients from the solved table"
    elif abs(eps) > series.eps0:
        reason = (
            f"|epsilon| = {abs(eps):.3e} exceeds the certified threshold "
            f"{series.eps0:.3e}"
        )
    else:
        return truncation_bound(series.n, series.Delta, series.order)
    _withhold(reason)
    return None


def certify_correlator(model, eps, order, value, scale):
    """(regime, bound) of an order-``order`` correlator ``value`` at ``eps``, bound None outside."""
    if not math.isfinite(abs(value)):
        reason = "the correlator value is not finite"
    elif abs(eps) > correlator_threshold(model):
        reason = f"|epsilon| = {abs(eps):.3e} outside the certified correlator regime"
    else:
        return REGIME_CERTIFIED, correlator_bound(order, model.J, model.d) * scale
    _withhold(reason)
    return REGIME_NONE, None
