"""Model validation, Pauli parsing, and JSON round-trips."""

from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from ktspin import (
    DanglingVertexId,
    EdgeTerm,
    NonPositiveGap,
    ParseError,
    SelfLoop,
    SpinModel,
    TwoQubitOperator,
    Vertex,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_pauli_expression,
    save_model,
)
from conftest import make_model, random_hermitian_op, tf_edge_model


def test_pauli_single_term():
    xx = parse_pauli_expression("XX")
    expect = np.zeros((4, 4))
    expect[0, 3] = expect[3, 0] = expect[1, 2] = expect[2, 1] = 1.0
    assert np.array_equal(xx, expect)


def test_pauli_identity_and_z():
    zi = parse_pauli_expression("ZI")
    assert np.array_equal(np.diag(zi), np.array([1, 1, -1, -1], dtype=complex))
    ii = parse_pauli_expression("II")
    assert np.array_equal(ii, np.eye(4))


def test_pauli_coefficients_and_signs():
    m = parse_pauli_expression("-0.5 ZI + 0.25*XY - 1j YZ + (1+2j) IX")
    expect = (
        -0.5 * np.kron([[1, 0], [0, -1]], np.eye(2))
        + 0.25 * np.kron([[0, 1], [1, 0]], [[0, -1j], [1j, 0]])
        - 1j * np.kron([[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
        + (1 + 2j) * np.kron(np.eye(2), [[0, 1], [1, 0]])
    )
    assert np.allclose(m, expect, atol=1e-15)


def test_pauli_scientific_notation():
    m = parse_pauli_expression("2e-3 XX + .5 ZZ")
    assert m[0, 3] == pytest.approx(2e-3)
    assert m[0, 0] == pytest.approx(0.5)


def test_pauli_errors_carry_position():
    with pytest.raises(ParseError):
        parse_pauli_expression("")
    with pytest.raises(ParseError) as err:
        parse_pauli_expression("XX + QZ")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_pauli_expression("XX YY")
    with pytest.raises(ParseError):
        parse_pauli_expression("(1+*2j) XX")
    for not_text in (5, None, ["XX"]):
        with pytest.raises(ParseError):
            parse_pauli_expression(not_text)


def test_operator_requires_4x4():
    with pytest.raises(ParseError):
        TwoQubitOperator(np.eye(3))
    with pytest.raises(ParseError):
        TwoQubitOperator(np.full((4, 4), np.nan))


def test_operator_norm_is_spectral():
    op = TwoQubitOperator(parse_pauli_expression("XX"))
    assert op.norm() == pytest.approx(1.0)
    two_flip = TwoQubitOperator(parse_pauli_expression("-XI - IX"))
    assert two_flip.norm() == pytest.approx(2.0)
    assert TwoQubitOperator(0.5 * np.eye(4)).norm() == pytest.approx(0.5)


def test_hermitian_detection():
    assert TwoQubitOperator(parse_pauli_expression("XY + 0.3 ZZ")).is_hermitian()
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    assert not TwoQubitOperator(skew).is_hermitian()


def test_cached_norm_and_hermitian_flag_stay_faithful(rng):
    op = TwoQubitOperator(random_hermitian_op(rng, norm=1.7))
    first = op.norm()
    assert op.norm() == first == float(np.linalg.svd(op.entries, compute_uv=False)[0])
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1e-9
    nearly = TwoQubitOperator(op.entries + skew)
    assert not nearly.is_hermitian()
    # a looser tolerance is answered, not read off the default's cached flag
    assert nearly.is_hermitian(1e-8)
    assert not nearly.is_hermitian()
    assert op.is_hermitian() and not op.is_hermitian(-1.0)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 2.0
    assert op.norm() == first
    m = make_model([1.0, 1.0], [(0, 1, op.entries), (0, 1, nearly.entries)])
    assert m.J == max(first, nearly.norm())
    assert not m.hermitian


def test_validate_rejects_bad_inputs():
    with pytest.raises(NonPositiveGap):
        make_model([1.0, 0.0], [])
    with pytest.raises(NonPositiveGap):
        make_model([1.0, -0.5], [])
    with pytest.raises(SelfLoop):
        make_model([1.0, 1.0], [(1, 1, np.eye(4))])
    with pytest.raises(DanglingVertexId):
        make_model([1.0, 1.0], [(0, 2, np.eye(4))])
    with pytest.raises(DanglingVertexId):
        SpinModel(vertices=[Vertex(0, 1.0), Vertex(2, 1.0)], edges=[])
    with pytest.raises(DanglingVertexId):
        SpinModel(vertices=[Vertex(0, 1.0), Vertex(0, 1.0)], edges=[])


def test_model_cannot_change_after_construction():
    # the certificate's eps0 is computed once, so the edges it describes
    # must stay the edges of the model
    m = tf_edge_model()
    extra = EdgeTerm(u=0, v=1, op=TwoQubitOperator(50 * np.eye(4)))
    with pytest.raises(AttributeError):
        m.edges.append(extra)
    with pytest.raises(FrozenInstanceError):
        m.edges = [*m.edges, extra]
    with pytest.raises(FrozenInstanceError):
        m.edges[0].op = extra.op
    with pytest.raises(FrozenInstanceError):
        m.vertices[0].delta = 1e-3
    assert len(m.edges) == 1
    assert m.J == pytest.approx(2.0)
    assert m.eps0 == pytest.approx(2.0**-18 / 2.0)


@pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
def test_non_finite_field_is_rejected(tmp_path, delta):
    with pytest.raises(ParseError):
        make_model([1.0, delta], [])
    # json writes and reads these as the Infinity / NaN literals
    doc = model_to_dict(tf_edge_model())
    doc["vertices"][0]["delta"] = delta
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_model(path)


def test_derived_quantities():
    m = tf_edge_model()
    assert m.n == 2
    assert m.Delta == 1.0
    assert m.J == pytest.approx(2.0)
    assert m.d == 1
    assert m.hermitian
    assert m.eps0 == pytest.approx(2.0**-18 * 1.0 / 2.0)
    assert m.eps0_star == pytest.approx(2.0**-18 * 1.0 / 4.0)


def test_degree_counts_parallel_edges():
    mat = parse_pauli_expression("XX")
    m = make_model([1.0, 1.0], [(0, 1, mat), (0, 1, mat), (1, 0, mat)])
    assert m.d == 3


def test_edgeless_model_threshold_infinite():
    m = make_model([2.0], [])
    assert m.J == 0.0
    assert m.d == 0
    assert m.eps0 == float("inf")


def test_json_round_trip(rng, tmp_path):
    m = make_model(
        [1.0, 0.75, 1.25],
        [(0, 1, random_hermitian_op(rng)), (2, 1, random_hermitian_op(rng))],
    )
    path = tmp_path / "model.json"
    save_model(m, path)
    back = load_model(path)
    assert back.n == m.n
    assert [v.delta for v in back.vertices] == [v.delta for v in m.vertices]
    assert [(e.u, e.v) for e in back.edges] == [(e.u, e.v) for e in m.edges]
    for e1, e2 in zip(back.edges, m.edges):
        assert np.array_equal(e1.op.entries, e2.op.entries)


def test_dict_requires_exactly_one_operator_form():
    base = {
        "vertices": [{"id": 0, "delta": 1.0}, {"id": 1, "delta": 1.0}],
        "edges": [{"u": 0, "v": 1}],
    }
    with pytest.raises(ParseError):
        model_from_dict(base)
    both = json.loads(json.dumps(base))
    both["edges"][0]["pauli"] = "XX"
    both["edges"][0]["matrix"] = [[[0.0, 0.0]] * 4] * 4
    with pytest.raises(ParseError):
        model_from_dict(both)


@pytest.mark.parametrize(
    "key, value",
    [
        ("vertices", 5),
        ("edges", 5),
        ("edges", [{"u": 0, "v": 1, "pauli": 5}]),
        ("edges", [{"u": 0, "v": 1, "matrix": [[[1, 0]] * 4, [[1, 0]]] * 2}]),
        # ids and endpoints are JSON integers: a float, a bool or a string is
        # rejected, not truncated to another model's vertex
        ("vertices", [{"id": 0, "delta": 1.0}, {"id": 1.9, "delta": 1.0}]),
        ("edges", [{"u": 0.2, "v": 1.7, "pauli": "XX"}]),
        ("edges", [{"u": True, "v": 1, "pauli": "XX"}]),
        ("edges", [{"u": 0, "v": "1", "pauli": "XX"}]),
        # fields and matrix parts are JSON numbers: a string or a bool is
        # rejected, not read as another model's number
        ("vertices", [{"id": 0, "delta": "2"}, {"id": 1, "delta": 1.0}]),
        ("vertices", [{"id": 0, "delta": 1.0}, {"id": 1, "delta": True}]),
        ("edges", [{"u": 0, "v": 1, "matrix": [[[True, 0.0]] * 4] * 4}]),
        ("edges", [{"u": 0, "v": 1, "matrix": [[[0.5, False]] * 4] * 4}]),
        ("edges", [{"u": 0, "v": 1, "matrix": [[["0.5", 0.0]] * 4] * 4}]),
        # a JSON integer too large for a double is rejected, not an overflow
        ("vertices", [{"id": 0, "delta": 10**400}, {"id": 1, "delta": 1.0}]),
        ("edges", [{"u": 0, "v": 1, "matrix": [[[0.0, -(10**400)]] * 4] * 4}]),
        # a cell is an [re, im] pair, not an object
        ("edges", [{"u": 0, "v": 1, "matrix": [[{"re": 1.0}] * 4] * 4}]),
    ],
)
def test_dict_rejects_malformed_documents(key, value):
    doc = {
        "vertices": [{"id": 0, "delta": 1.0}, {"id": 1, "delta": 1.0}],
        "edges": [{"u": 0, "v": 1, "pauli": "XX"}],
    }
    doc[key] = value
    with pytest.raises(ParseError):
        model_from_dict(doc)


def test_dict_accepts_json_numbers():
    # ints and floats are both JSON numbers
    m = model_from_dict(
        {
            "vertices": [{"id": 0, "delta": 2}, {"id": 1, "delta": 1.5}],
            "edges": [{"u": 0, "v": 1, "matrix": [[[1, 0], [0, 0], [0, 0], [0.5, -1]]] * 4}],
        }
    )
    assert m.deltas == (2.0, 1.5)
    assert m.edges[0].op.entries[0, 3] == 0.5 - 1j


def test_dict_accepts_pauli_edges():
    m = model_from_dict(
        {
            "vertices": [{"id": 0, "delta": 1.0}, {"id": 1, "delta": 2.0}],
            "edges": [{"u": 0, "v": 1, "pauli": "0.5 XX"}],
        }
    )
    assert m.edges[0].op.entries[0, 3] == 0.5


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        load_model(path)


def test_to_dict_is_json_stable(rng):
    m = make_model([1.0, 1.0], [(0, 1, random_hermitian_op(rng))])
    a = json.dumps(model_to_dict(m))
    b = json.dumps(model_to_dict(m))
    assert a == b
