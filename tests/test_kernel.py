"""Commutator matrix elements: closed cases, pruning, and a dense cross-check."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ktspin import EmptySet, InvalidSubset, solver
from ktspin.kernel import (
    MatrixElementQuery,
    matrix_element,
    prune,
    target_matrix_elements,
    vacuum_element,
)
from ktspin.model import parse_pauli_expression
from ktspin.oracle import dense_matrix_element
from conftest import make_model, random_hermitian_op, tf_edge_matrix


def edge_of(model, idx=0):
    return model.edges[idx]


def test_single_commutator_with_x_on_same_site():
    # [creation(u), X_u] applied to the vacuum leaves the vacuum with weight -1
    m = make_model([1.0, 1.0], [(0, 1, parse_pauli_expression("XI"))])
    table = target_matrix_elements((2,), m.edges[0].op.entries)
    assert table[0] == -1.0
    q = MatrixElementQuery(target=(), sets=((0,),), edge=m.edges[0])
    assert matrix_element(q) == -1.0


def test_single_commutator_with_x_on_other_site():
    # creation on u commutes with X_v outright, so every target vanishes
    m = make_model([1.0, 1.0], [(0, 1, parse_pauli_expression("IX"))])
    table = target_matrix_elements((2,), m.edges[0].op.entries)
    assert table == {}


def test_pair_set_against_double_flip():
    mat = np.zeros((4, 4), dtype=complex)
    mat[3, 0] = mat[0, 3] = 1.0  # |11><00| + h.c.
    m = make_model([1.0, 1.0], [(0, 1, mat)])
    q = MatrixElementQuery(target=(), sets=(((0, 1)),), edge=m.edges[0])
    assert matrix_element(q) == -1.0
    # the pair can't be created twice and V's output is orthogonal to it
    q2 = MatrixElementQuery(target=(0, 1), sets=((0, 1),), edge=m.edges[0])
    assert matrix_element(q2) == 0.0


def test_vacuum_element_matches_entry_and_sign():
    mat = np.arange(16, dtype=complex).reshape(4, 4)
    m = make_model([1.0, 1.0], [(0, 1, mat)])
    e = m.edges[0]
    assert vacuum_element(((0,),), e) == -mat[0][2]
    assert vacuum_element(((1,),), e) == -mat[0][1]
    assert vacuum_element(((0, 1),), e) == -mat[0][3]
    assert vacuum_element(((0,), (1,)), e) == mat[0][3]
    # overlap kills the term exactly
    assert vacuum_element(((0,), (0, 1)), e) == 0.0
    with pytest.raises(InvalidSubset):
        vacuum_element(((2,),), e)
    with pytest.raises(InvalidSubset):
        vacuum_element(((),), e)


def test_vacuum_equals_empty_target_matrix_element():
    m = make_model([1.0, 1.0], [(0, 1, tf_edge_matrix())])
    e = m.edges[0]
    for sets in [((0,),), ((1,),), ((0, 1),), ((0,), (1,))]:
        q = MatrixElementQuery(target=(), sets=sets, edge=e)
        assert matrix_element(q) == vacuum_element(sets, e)


def test_empty_creation_set_rejected():
    m = make_model([1.0, 1.0], [(0, 1, tf_edge_matrix())])
    with pytest.raises(EmptySet):
        MatrixElementQuery(target=(), sets=((),), edge=m.edges[0])


def test_prune_detects_structural_zeros():
    m = make_model([1.0] * 4, [(1, 2, tf_edge_matrix())])
    e = m.edges[0]
    # a set missing the edge entirely
    assert prune(MatrixElementQuery(target=(), sets=((0,),), edge=e))
    # union outside the edge not contained in the target
    assert prune(MatrixElementQuery(target=(), sets=((0, 1),), edge=e))
    # target has a vertex no set (nor the edge) can produce
    assert prune(MatrixElementQuery(target=(3,), sets=((1,),), edge=e))
    # a legitimate query survives
    assert not prune(MatrixElementQuery(target=(0, 1), sets=((0, 1),), edge=e))


def test_overlap_outside_edge_is_zero():
    m = make_model([1.0] * 4, [(1, 2, tf_edge_matrix())])
    e = m.edges[0]
    q = MatrixElementQuery(target=(0,), sets=((0, 1), (0, 2)), edge=e)
    assert matrix_element(q) == 0.0


def test_five_or_more_sets_vanish(rng):
    m = make_model([1.0, 1.0], [(0, 1, random_hermitian_op(rng))])
    e = m.edges[0]
    pool = [(0,), (1,), (0, 1)]
    for k in (5, 6):
        for sets in itertools.product(pool, repeat=k):
            for tbits in range(4):
                target = tuple(w for w in (0, 1) if tbits & (2 >> w))
                q = MatrixElementQuery(target=target, sets=sets, edge=e)
                assert matrix_element(q) == 0.0


def test_matrix_element_order_insensitive(rng):
    m = make_model([1.0, 1.0, 1.0], [(0, 2, random_hermitian_op(rng))])
    e = m.edges[0]
    sets = ((0,), (2,), (0, 2))
    vals = {
        matrix_element(MatrixElementQuery(target=(0, 2), sets=p, edge=e))
        for p in itertools.permutations(sets)
    }
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
                q = MatrixElementQuery(target=target, sets=sets, edge=e)
                got = matrix_element(q)
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
