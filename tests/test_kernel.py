"""Commutator matrix elements: closed cases, structural zeros, and a dense cross-check."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ktspin import EmptySet, solver
from ktspin.kernel import matrix_element, target_matrix_elements
from ktspin.model import parse_pauli_expression
from ktspin.oracle import dense_matrix_element
from conftest import make_model, random_hermitian_op, tf_edge_matrix


def test_single_commutator_with_x_on_same_site():
    # [creation(u), X_u] applied to the vacuum leaves the vacuum with weight -1
    m = make_model([1.0, 1.0], [(0, 1, parse_pauli_expression("XI"))])
    table = target_matrix_elements((2,), m.edges[0].op.entries)
    assert table[0] == -1.0
    assert matrix_element((), ((0,),), m.edges[0]) == -1.0


def test_single_commutator_with_x_on_other_site():
    # creation on u commutes with X_v outright, so every target vanishes
    m = make_model([1.0, 1.0], [(0, 1, parse_pauli_expression("IX"))])
    table = target_matrix_elements((2,), m.edges[0].op.entries)
    assert table == {}


def test_pair_set_against_double_flip():
    mat = np.zeros((4, 4), dtype=complex)
    mat[3, 0] = mat[0, 3] = 1.0  # |11><00| + h.c.
    m = make_model([1.0, 1.0], [(0, 1, mat)])
    assert matrix_element((), ((0, 1),), m.edges[0]) == -1.0
    # the pair can't be created twice and V's output is orthogonal to it
    assert matrix_element((0, 1), ((0, 1),), m.edges[0]) == 0.0


def test_vacuum_element_matches_entry_and_sign():
    # empty target: the fully right-placed term, -(-1)^k entries[0][bits]
    mat = np.arange(16, dtype=complex).reshape(4, 4)
    m = make_model([1.0, 1.0], [(0, 1, mat)])
    e = m.edges[0]
    assert matrix_element((), ((0,),), e) == -mat[0][2]
    assert matrix_element((), ((1,),), e) == -mat[0][1]
    assert matrix_element((), ((0, 1),), e) == -mat[0][3]
    assert matrix_element((), ((0,), (1,)), e) == mat[0][3]
    assert matrix_element((), ((1,), (0,)), e) == mat[0][3]
    # overlap kills the term exactly
    assert matrix_element((), ((0,), (0, 1)), e) == 0.0


def test_empty_creation_set_rejected():
    m = make_model([1.0, 1.0], [(0, 1, tf_edge_matrix())])
    with pytest.raises(EmptySet):
        matrix_element((), ((),), m.edges[0])
    # rejected even behind a set that already makes the element zero
    with pytest.raises(EmptySet):
        matrix_element((), ((0,), (0,), ()), m.edges[0])


def test_structural_zeros_are_exact(rng):
    m = make_model([1.0] * 4, [(1, 2, random_hermitian_op(rng))])
    e = m.edges[0]
    # a set missing the edge entirely
    assert matrix_element((0,), ((0,),), e) == 0j
    # union outside the edge not contained in the target
    assert matrix_element((), ((0, 1),), e) == 0j
    # target has a vertex no set (nor the edge) can produce
    assert matrix_element((3,), ((1,),), e) == 0j
    # a legitimate query survives
    assert matrix_element((0, 1), ((0, 1),), e) != 0


def test_overlap_outside_edge_is_zero():
    m = make_model([1.0] * 4, [(1, 2, tf_edge_matrix())])
    e = m.edges[0]
    assert matrix_element((0,), ((0, 1), (0, 2)), e) == 0.0


def test_five_or_more_sets_vanish(rng):
    m = make_model([1.0, 1.0], [(0, 1, random_hermitian_op(rng))])
    e = m.edges[0]
    pool = [(0,), (1,), (0, 1)]
    for k in (5, 6):
        for sets in itertools.product(pool, repeat=k):
            for tbits in range(4):
                target = tuple(w for w in (0, 1) if tbits & (2 >> w))
                assert matrix_element(target, sets, e) == 0.0
            # matrix_element returns 0 for these before any arithmetic, so
            # the expansion itself must vanish for the rule to hold
            sbits = tuple((2 if 0 in s else 0) | (1 if 1 in s else 0) for s in sets)
            assert target_matrix_elements(sbits, e.op.rows) == {}


def test_matrix_element_order_insensitive(rng):
    m = make_model([1.0, 1.0, 1.0], [(0, 2, random_hermitian_op(rng))])
    e = m.edges[0]
    sets = ((0,), (2,), (0, 2))
    vals = {matrix_element((0, 2), p, e) for p in itertools.permutations(sets)}
    assert len(vals) == 1


def test_kernel_matches_dense_commutators(rng):
    # independent route: literal nested commutators on the full Hilbert space
    n = 4
    m = make_model([1.0] * n, [(1, 3, random_hermitian_op(rng))])
    e = m.edges[0]
    singles = [(0,), (1,), (3,), (1, 3), (0, 1), (2, 3)]
    targets = [(), (1,), (3,), (1, 3), (0,), (0, 1), (0, 1, 3), (2, 3), (1, 2, 3)]
    checked = 0
    for k in (1, 2, 3):
        for sets in itertools.combinations(singles, k):
            for target in targets:
                got = matrix_element(target, sets, e)
                want = dense_matrix_element(target, sets, e, n)
                assert got == pytest.approx(want, abs=1e-12)
                checked += 1
    assert checked > 100


def _unit_matrices():
    """The 16 exact integer 4x4 matrices with a single entry 1."""
    return [
        [[int(i == r and j == c) for j in range(4)] for i in range(4)]
        for r in range(4)
        for c in range(4)
    ]


def test_live_multisets_are_exactly_the_nonzero_commutators():
    # by linearity a tuple's commutator vanishes for every operator iff it
    # vanishes on every unit matrix; integer entries make that exact
    units = _unit_matrices()
    seen = set()
    for k in range(1, 5):
        for sbits in itertools.product((1, 2, 3), repeat=k):
            code = solver._code(sbits)
            nonzero = any(target_matrix_elements(sbits, unit) for unit in units)
            assert nonzero == solver.LIVE[code], sbits
            if nonzero:
                seen.add(tuple(sorted(sbits)))
    assert len(seen) == 12
    assert sum(solver.LIVE) == 12


def test_grows_marks_strict_sub_multisets_of_live_ones():
    def counts(code):
        return (code % 5, code // 5 % 5, code // 25)

    for code in range(125):
        below = [
            other
            for other in range(125)
            if solver.LIVE[other]
            and other != code
            and all(a <= b for a, b in zip(counts(code), counts(other)))
        ]
        assert solver.GROWS[code] == bool(below), code


def test_dead_multisets_vanish_on_random_non_hermitian_entries(rng):
    for _ in range(20):
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat[rng.random((4, 4)) < 0.3] = 0
        entries = mat.tolist()
        for k in range(1, 5):
            for sbits in itertools.product((1, 2, 3), repeat=k):
                if not solver.LIVE[solver._code(sbits)]:
                    assert target_matrix_elements(sbits, entries) == {}, sbits
