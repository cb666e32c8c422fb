"""The floor under --precision: no request for a bound below one ulp of what it certifies.

The references are two-qubit models whose vacuum couples only to |11>,
so the ground state lives in the {|00>, |11>} block and its energy and
``ZI`` expectation have closed forms, evaluated with stdlib ``decimal``
at 50 digits from the exact values of the doubles the CLI reads.
"""

from __future__ import annotations

import json
import random
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ktspin import TwoQubitOperator, energy_floor, load_model, model_to_dict, save_model
from ktspin.cli import main
from ktspin.certificate import correlator_floor
from conftest import make_model, random_model, topology_pairs

# (delta_u, delta_v, a, b, c): V has a at |00><00|, b at |00><11|, c at |11><11|
BLOCK_MODELS = [
    (0.7, 1.1, 0.3, 0.6 + 0.2j, -0.4),
    (1.0, 1.0, 0.0, 1.0, 0.0),
    (0.55, 1.45, -0.8, 0.1 - 0.9j, 0.25),
]


def _block_model(delta_u, delta_v, a, b, c):
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0], mat[0, 3], mat[3, 0], mat[3, 3] = a, b, np.conj(b), c
    return make_model([delta_u, delta_v], [(0, 1, mat)])


def _block_ground(spec, eps):
    """Ground energy and <ZI> of the block model at strength eps, to 50 digits."""
    delta_u, delta_v, a, b, c = spec
    b = complex(b)
    with localcontext() as ctx:
        ctx.prec = 50
        b_abs2 = Decimal(b.real) ** 2 + Decimal(b.imag) ** 2
        e = Decimal(eps)
        top, bottom = e * Decimal(a), Decimal(delta_u) + Decimal(delta_v) + e * Decimal(c)
        root = ((bottom - top) ** 2 + 4 * e * e * b_abs2).sqrt()
        energy = (top + bottom - root) / 2
        # the eigenvector is (eps b, energy - eps a) up to a factor
        r2 = (energy - top) ** 2 / (e * e * b_abs2)
        return energy, (1 - r2) / (1 + r2)


def _write(tmp_path, model):
    path = tmp_path / "model.json"
    save_model(model, path)
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("spec", BLOCK_MODELS)
def test_energy_below_the_floor_exits_2_even_with_strict(capsys, tmp_path, spec):
    model = _block_model(*spec)
    assert 1e-25 < energy_floor(model)
    path = _write(tmp_path, model)
    argv = ["energy", path, "--precision", "1e-25", "--epsilon", repr(model.eps0), "--json"]
    for extra in ([], ["--strict"]):
        code, out, err = _run(capsys, argv + extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--precision" in err


@pytest.mark.parametrize("spec", BLOCK_MODELS)
@pytest.mark.parametrize("precision", [1e-6, 1e-9, 1e-12])
def test_energy_above_the_floor_holds_its_bound(capsys, tmp_path, spec, precision):
    model = _block_model(*spec)
    eps = model.eps0
    path = _write(tmp_path, model)
    code, out, err = _run(capsys, ["energy", path, "--precision", repr(precision),
                                   "--epsilon", repr(eps), "--json", "--strict"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert 0 < doc["bound"] <= precision
    exact, _k = _block_ground(spec, eps)
    error = abs(Decimal(doc["E"]) - exact) + abs(Decimal(doc["E_im"]))
    assert error <= Decimal(doc["bound"])


def test_series_below_the_floor_exits_2(capsys, tmp_path):
    path = _write(tmp_path, _block_model(*BLOCK_MODELS[0]))
    code, out, err = _run(capsys, ["series", path, "--precision", "1e-25", "--json"])
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("spec", BLOCK_MODELS)
def test_correlator_below_the_floor_exits_2(capsys, tmp_path, spec):
    model = _block_model(*spec)
    assert 1e-17 < correlator_floor(TwoQubitOperator.from_pauli("ZI"))
    path = _write(tmp_path, model)
    eps = model.eps0_star / (2 * model.d)
    argv = ["correlate", path, "--s", "0", "--t", "1", "--observable", "ZI",
            "--epsilon", repr(eps), "--precision", "1e-17", "--json"]
    for extra in ([], ["--strict"]):
        code, out, err = _run(capsys, argv + extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--precision" in err


@pytest.mark.parametrize("spec", BLOCK_MODELS)
def test_correlator_above_the_floor_holds_its_bound(capsys, tmp_path, spec):
    model = _block_model(*spec)
    eps = model.eps0_star / (2 * model.d)
    path = _write(tmp_path, model)
    code, out, err = _run(capsys, ["correlate", path, "--s", "0", "--t", "1",
                                   "--observable", "ZI", "--epsilon", repr(eps),
                                   "--precision", "1e-12", "--json", "--strict"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert 0 < doc["bound"] <= 1e-12
    _e, exact = _block_ground(spec, eps)
    assert abs(Decimal(doc["K"]) - exact) <= Decimal(doc["bound"])


def test_the_floors_are_one_ulp_of_the_largest_certified_value():
    model = _block_model(*BLOCK_MODELS[0])
    norm = model.edges[0].op.norm()
    assert energy_floor(model) == 2.0 ** -52 * model.eps0 * norm
    assert correlator_floor(TwoQubitOperator.from_pauli("ZZ")) == 2.0 ** -52
    assert correlator_floor(TwoQubitOperator.from_pauli("2 XX")) == 2.0 ** -51
    # with no edge, or only zero operators, E is exactly 0
    assert energy_floor(make_model([1.0, 1.0], [])) == 0.0
    assert energy_floor(make_model([1.0, 1.0], [(0, 1, np.zeros((4, 4)))])) == 0.0


def test_a_200_vertex_request_below_the_floor_returns_at_once(capsys, tmp_path):
    # without the floor this asks for order 58, which never finishes
    n = 200
    py_rng = random.Random(10)
    ring = topology_pairs("ring", n)
    while True:  # add a perfect matching that avoids ring-adjacent pairs: degree 3
        verts = list(range(n))
        py_rng.shuffle(verts)
        matching = [(verts[2 * i], verts[2 * i + 1]) for i in range(n // 2)]
        if all((u - v) % n not in (1, n - 1) for u, v in matching):
            break
    model = random_model(np.random.default_rng(1010), ring + matching, n)
    assert model.d == 3
    path = tmp_path / "big.json"
    path.write_text(json.dumps(model_to_dict(model)))
    t0 = time.perf_counter()
    code, out, err = _run(capsys, ["energy", str(path), "--precision", "1e-20",
                                   "--epsilon", repr(model.eps0 / 2), "--json"])
    assert time.perf_counter() - t0 < 30.0
    assert code == 2 and out == "" and err.startswith("error:")
    assert energy_floor(load_model(str(path))) > 1e-20
