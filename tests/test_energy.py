"""Energy coefficients against closed forms, the exact oracle, and the bounds."""

from __future__ import annotations

import numpy as np
import pytest

from ktspin import (
    EmptySet,
    NonFiniteStrength,
    NonPositiveGap,
    NonPositivePrecision,
    choose_order,
    energy_coefficient,
    energy_estimate,
    energy_series,
    norm_bound,
    radius_estimate,
    solve,
    truncation_bound,
)
from ktspin.energy import series_from_state
from ktspin.oracle import ground
from conftest import (
    make_model,
    random_model,
    tf_edge_model,
    tf_exact_energy,
    tf_matching_model,
    topology_pairs,
)

# Taylor coefficients of 1 - sqrt(1 + 4 x^2): twice the signed Catalan numbers
TF_SERIES = [0.0, -2.0, 0.0, 2.0, 0.0, -4.0, 0.0, 10.0, 0.0, -28.0, 0.0, 84.0]


def test_single_flip_energy_series_closed_form():
    series = energy_series(tf_edge_model(), 12)
    got = [c.real for c in series.coefficients]
    assert got == pytest.approx(TF_SERIES, abs=1e-12)
    assert series.n == 2


def test_first_coefficient_sums_diagonal_vacuum_entries():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 0.75
    m = make_model([1.0, 1.0, 1.0], [(0, 1, mat), (1, 2, mat)])
    state = solve(m, 1)
    assert energy_coefficient(state, 1) == 1.5


def test_energy_coefficient_validates_order():
    state = solve(tf_edge_model(), 2)
    with pytest.raises(NonPositivePrecision):
        energy_coefficient(state, 0)
    with pytest.raises(ValueError):
        energy_coefficient(state, 4)  # needs table order 3


def test_matching_model_is_extensive():
    # disjoint edges: every coefficient is exactly (number of edges) times one edge's
    one = energy_series(tf_edge_model(), 8).coefficients
    three = energy_series(tf_matching_model(3), 8).coefficients
    for c1, c3 in zip(one, three):
        assert c3 == 3 * c1


def test_estimate_tracks_exact_energy():
    series = energy_series(tf_edge_model(), 10)
    eps = series.eps0
    value, bound = energy_estimate(series, eps)
    assert bound == truncation_bound(2, 1.0, 10)
    exact = tf_exact_energy(eps)
    assert abs(value.real - exact) <= bound
    # far inside the radius but beyond the certified strength: warn, no bound
    with pytest.warns(UserWarning):
        value, bound = energy_estimate(series, 0.05)
    assert bound is None
    assert value.real == pytest.approx(tf_exact_energy(0.05), abs=1e-9)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
def test_estimate_rejects_non_finite_strength(eps):
    # abs(nan) > eps0 is False, so a NaN strength would pass for certified
    series = energy_series(tf_edge_model(), 4)
    with pytest.raises(NonFiniteStrength):
        energy_estimate(series, eps)


def test_threshold_drop_withdraws_the_bound():
    # threshold 10 drops every entry of the single-flip model, so the
    # truncated series is no longer the one the certificate is about
    eps = 1e-6
    exact = energy_series(tf_edge_model(), 4)
    assert energy_estimate(exact, eps)[1] == truncation_bound(2, 1.0, 4)
    series = series_from_state(solve(tf_edge_model(), 3, threshold=10), 4)
    assert [(step.dropped, step.dropped_norm) for step in series.steps] == [
        (2, 1.0), (0, 0.0), (0, 0.0),
    ]
    with pytest.warns(UserWarning, match="dropped 2 coefficients"):
        value, bound = energy_estimate(series, eps)
    assert bound is None
    # only E_1 = 0 survives; the unthresholded series gives about -2e-12
    assert value == 0


def test_estimate_matches_diagonalization(rng):
    for pairs, n in [
        (topology_pairs("path", 5), 5),
        (topology_pairs("ring", 6), 6),
    ]:
        m = random_model(rng, pairs, n)
        series = energy_series(m, 6)
        eps = m.eps0
        value, bound = energy_estimate(series, eps)
        exact = ground(m, eps).energy
        assert abs(value.real - exact) <= bound
        assert abs(value.imag) <= 1e-12


def test_truncation_bound_formula():
    assert truncation_bound(4, 0.5, 3) == 4 * 0.5 * 2.0**-19
    assert truncation_bound(1, 1.0, 0) == 2.0**-16


def test_choose_order_is_minimal():
    for n, delta, prec in [(2, 1.0, 1e-9), (10, 0.5, 1e-6), (100, 2.0, 1e-12)]:
        p = choose_order(make_model([delta] * n, []), prec)
        assert truncation_bound(n, delta, p) <= prec
        assert p == 1 or truncation_bound(n, delta, p - 1) > prec
    assert choose_order(make_model([1.0], []), 1.0) == 1


def test_choose_order_validates():
    # a model holds no non-positive gap, so it is refused when it is built
    with pytest.raises(NonPositiveGap):
        choose_order(make_model([0.0, 1.0], []), 1e-6)
    with pytest.raises(NonPositivePrecision):
        choose_order(make_model([1.0, 1.0], []), 0.0)
    with pytest.raises(EmptySet):
        choose_order(make_model([], []), 1e-6)


def test_norm_bound_formula():
    assert norm_bound(2.0**-20, 3) == 2.0**-15 / (2.0**-19) ** 3


def test_radius_estimate_brackets_known_radius():
    # exact radius of 1 - sqrt(1 + 4 x^2) is 1/2
    series = energy_series(tf_edge_model(), 12)
    est = radius_estimate(series)
    assert est == pytest.approx(1.0 / 84.0 ** (1.0 / 12.0))
    assert abs(est - 0.5) <= 0.25


def test_radius_estimate_edge_cases():
    assert radius_estimate([]) is None
    assert radius_estimate([1.0, 0.0, 0.0, 0.0]) is None  # trailing window all zero
    assert radius_estimate([0.0, 4.0]) == pytest.approx(0.5)
