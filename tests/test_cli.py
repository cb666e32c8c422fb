"""End-to-end CLI behavior: outputs, exit codes, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ktspin import (
    TwoQubitOperator,
    choose_correlator_order,
    load_model,
    model_to_dict,
    save_model,
)
from ktspin.cli import main
from ktspin.model import parse_pauli_expression
from conftest import make_model, random_model, tf_edge_model, topology_pairs


@pytest.fixture()
def tf_path(tmp_path):
    path = tmp_path / "tf.json"
    save_model(tf_edge_model(), path)
    return str(path)


@pytest.fixture()
def ring_path(tmp_path):
    m = random_model(np.random.default_rng(99), topology_pairs("ring", 6), 6)
    path = tmp_path / "ring.json"
    save_model(m, path)
    return str(path)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_json(capsys, argv):
    """Exit code, stdout parsed as strict JSON (no NaN or Infinity), stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out, parse_constant=_reject_constant), captured.err


def test_info_reports_derived_quantities(capsys, tf_path):
    code, doc, err = run_json(capsys, ["info", tf_path, "--json"])
    assert code == 0
    assert err == ""
    assert doc == {
        "n": 2,
        "Delta": 1.0,
        "J": 2.0,
        "d": 1,
        "eps0": 2.0**-19,
        "eps0_star": 2.0**-20,
        "hermitian": True,
    }


def test_info_text_mode_lists_keys(capsys, tf_path):
    assert main(["info", tf_path]) == 0
    out = capsys.readouterr().out
    assert "n = 2" in out
    assert "eps0 = " in out


def test_energy_json_document(capsys, tf_path):
    code, doc, err = run_json(
        capsys, ["energy", tf_path, "--order", "6", "--epsilon", "1e-6", "--json"]
    )
    assert code == 0
    assert err == ""
    assert doc["p"] == 6
    assert doc["E"] == pytest.approx(-2e-12, rel=1e-3)
    assert doc["E_im"] == 0.0
    assert doc["bound"] == pytest.approx(2 * 2.0**-22)
    assert [c[0] for c in doc["coefficients"]] == pytest.approx(
        [0.0, -2.0, 0.0, 2.0, 0.0, -4.0], abs=1e-12
    )
    assert doc["radius_estimate"] is not None


def test_energy_warns_and_strict_fails_outside_threshold(capsys, tf_path):
    code, doc, err = run_json(
        capsys, ["energy", tf_path, "--order", "4", "--epsilon", "0.1", "--json"]
    )
    assert code == 0
    assert doc["bound"] is None
    assert "warning" in err
    code2 = main(
        ["energy", tf_path, "--order", "4", "--epsilon", "0.1", "--json", "--strict"]
    )
    capsys.readouterr()
    assert code2 == 3


def test_energy_threshold_drop_has_no_bound_and_strict_exits_3(capsys, tf_path):
    argv = ["energy", tf_path, "--order", "4", "--epsilon", "1e-6", "--json"]
    code, doc, err = run_json(capsys, argv)
    assert (code, doc["bound"], err) == (0, 2.0 * 2.0**-20, "")
    code, doc, err = run_json(capsys, argv + ["--threshold", "10"])
    assert code == 0
    assert doc["bound"] is None
    assert "dropped" in err
    assert main(argv + ["--threshold", "10", "--strict"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["energy", "series"])
@pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
def test_bad_threshold_exits_2(capsys, tf_path, command, threshold):
    argv = [command, tf_path, "--order", "4", "--json", "--threshold", threshold]
    if command == "energy":
        argv += ["--epsilon", "1e-6"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "threshold must be a finite number >= 0" in captured.err


def test_precision_selects_same_output_as_explicit_order(capsys, tf_path):
    # precision 1e-9 on n=2, Delta=1: first p with 2 * 2^(-16-p) <= 1e-9
    code, by_prec, _ = run_json(
        capsys, ["series", tf_path, "--precision", "1e-9", "--json"]
    )
    assert code == 0
    p = by_prec["p"]
    assert 2 * 2.0 ** (-16 - p) <= 1e-9 < 2 * 2.0 ** (-15 - p)
    code, by_order, _ = run_json(
        capsys, ["series", tf_path, "--order", str(p), "--json"]
    )
    assert code == 0
    assert by_order == by_prec


def test_order_and_precision_are_exclusive(tf_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["series", tf_path, "--order", "3", "--precision", "1e-6", "--json"])
    assert err.value.code == 2
    capsys.readouterr()


def test_series_dump_coefficients(capsys, tf_path, tmp_path):
    dump = tmp_path / "coeffs.jsonl"
    code, doc, _ = run_json(
        capsys,
        ["series", tf_path, "--order", "6", "--json", "--dump-coefficients", str(dump)],
    )
    assert code == 0
    assert len(doc["chi"]) == 5
    assert doc["chi"][0] == pytest.approx(1.0)
    lines = [json.loads(line) for line in dump.read_text().splitlines()]
    assert {(ln["q"], tuple(ln["M"])) for ln in lines} == {
        (1, (0,)), (1, (1,)), (3, (0,)), (3, (1,)), (5, (0,)), (5, (1,)),
    }
    by_key = {(ln["q"], tuple(ln["M"])): ln["re"] for ln in lines}
    assert by_key[(1, (0,))] == -1.0
    assert by_key[(3, (1,))] == 1.0
    assert by_key[(5, (0,))] == -2.0


def test_energy_dump_solves_once(capsys, tf_path, tmp_path, monkeypatch):
    import ktspin.cli
    import ktspin.energy
    import ktspin.solver

    calls = []
    real_solve = ktspin.solver.solve

    def counted(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)

    for mod in (ktspin.solver, ktspin.energy, ktspin.cli):
        if hasattr(mod, "solve"):
            monkeypatch.setattr(mod, "solve", counted)
    dump = tmp_path / "coeffs.jsonl"
    code = main(
        ["energy", tf_path, "--order", "6", "--epsilon", "1e-6", "--json",
         "--dump-coefficients", str(dump)]
    )
    capsys.readouterr()
    assert code == 0
    assert len(calls) == 1
    # orders 1..p-1 are dumped; the single-flip model's even orders vanish
    orders = {json.loads(line)["q"] for line in dump.read_text().splitlines()}
    assert orders == {1, 3, 5}


def test_correlate_json_document(capsys, tf_path):
    code, doc, err = run_json(
        capsys,
        [
            "correlate", tf_path, "--s", "0", "--t", "1",
            "--observable", "ZI", "--epsilon", "1e-7", "--order", "2", "--json",
        ],
    )
    assert code == 0
    assert err == ""
    assert set(doc) == {"K", "bound", "p", "regime"}
    assert doc["p"] == 2
    assert doc["regime"] == "lemma9"
    assert doc["K"] == pytest.approx(1.0 - 2e-14, abs=1e-15)
    assert doc["bound"] == pytest.approx(2.0**-18 * 2 * 1 * 2)


def test_correlate_precision_selects_same_output_as_explicit_order(capsys, tf_path):
    base = ["correlate", tf_path, "--s", "0", "--t", "1", "--observable", "ZI",
            "--epsilon", "1e-7", "--json"]
    code, by_prec, _ = run_json(capsys, base + ["--precision", "1e-6"])
    assert code == 0
    m = load_model(tf_path)
    p = by_prec["p"]
    assert p == choose_correlator_order(m, TwoQubitOperator.from_pauli("ZI"), 1e-6) > 0
    code, by_order, _ = run_json(capsys, base + ["--order", str(p)])
    assert code == 0
    assert by_order == by_prec


@pytest.mark.parametrize(
    "flags",
    [
        ["--epsilon", "nan", "--order", "2"],
        ["--epsilon", "1e-7", "--order", "-1"],
        ["--epsilon", "1e-7", "--precision", "0"],
    ],
)
def test_correlate_bad_strength_order_or_precision_exits_2(capsys, tf_path, flags):
    argv = ["correlate", tf_path, "--s", "0", "--t", "1", "--observable", "ZI"] + flags
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("command", ["energy", "series"])
def test_precision_on_an_empty_model_exits_2(capsys, tmp_path, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "edges": []}))
    argv = [command, str(path), "--precision", "1e-6"]
    if command == "energy":
        argv += ["--epsilon", "1e-9"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "at least one vertex" in captured.err


def test_correlate_outside_regime_warns_and_strict_exits_3(capsys, tf_path):
    argv = [
        "correlate", tf_path, "--s", "0", "--t", "1",
        "--observable", "ZI", "--epsilon", "0.01", "--order", "1", "--json",
    ]
    code, doc, err = run_json(capsys, argv)
    assert code == 0
    assert doc["regime"] == "none"
    assert doc["bound"] is None
    assert "warning" in err
    assert main(argv + ["--strict"]) == 3
    capsys.readouterr()


def test_correlate_never_certifies_a_non_finite_value(capsys, tf_path, tmp_path):
    # all-zero edge: every finite strength is in the window, but 0 * eps^2
    # overflows to NaN
    path = tmp_path / "zero.json"
    save_model(make_model([1.0, 1.0], [(0, 1, np.zeros((4, 4)))]), path)
    argv = [
        "correlate", str(path), "--s", "0", "--t", "1",
        "--observable", "ZZ", "--epsilon", "1e300", "--order", "3", "--json",
    ]
    code, doc, err = run_json(capsys, argv)
    assert code == 0
    assert doc["K"] is None
    assert doc["regime"] == "none"
    assert doc["bound"] is None
    assert "not finite" in err
    assert main(argv + ["--strict"]) == 3
    capsys.readouterr()
    # the same overflow in the energy's power sum
    argv = ["energy", tf_path, "--order", "3", "--epsilon", "1e300", "--json"]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc["E"] is None
    assert doc["E_im"] is None
    assert doc["bound"] is None


def test_energy_never_certifies_a_non_finite_value(capsys, tmp_path):
    # eps0 is about 1.9e-206, so 1e-300 is inside the certified window,
    # but E_2 overflows: the bound is withdrawn and every non-finite
    # coefficient and chi entry prints as null
    xx = parse_pauli_expression("1e200 XX")
    path = tmp_path / "huge.json"
    save_model(make_model([1.0, 1.0, 1.0], [(0, 1, xx), (1, 2, xx)]), path)
    argv = ["energy", str(path), "--order", "3", "--epsilon", "1e-300", "--json"]
    code, doc, err = run_json(capsys, argv)
    assert code == 0
    assert 1e-300 <= doc["eps0"]
    assert doc["E"] is None
    assert doc["bound"] is None
    assert doc["coefficients"] == [[0.0, 0.0], [None, None], [0.0, 0.0]]
    assert "not finite" in err
    assert main(argv + ["--strict"]) == 3
    capsys.readouterr()
    code, doc, _ = run_json(capsys, ["series", str(path), "--order", "3", "--json"])
    assert code == 0
    assert doc["coefficients"][1] == [None, None]
    assert doc["chi"] == [1e200, None]


def test_correlate_observable_from_file(capsys, tf_path, tmp_path):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"pauli": "ZI"}))
    argv = [
        "correlate", tf_path, "--s", "0", "--t", "1",
        "--observable", str(obs), "--epsilon", "0", "--order", "1", "--json",
    ]
    code, doc, _ = run_json(capsys, argv)
    assert code == 0
    assert doc["K"] == pytest.approx(1.0)
    mat = tmp_path / "mat.json"
    mat.write_text(
        json.dumps({"matrix": [[[1, 0], [0, 0], [0, 0], [0, 0]],
                               [[0, 0], [1, 0], [0, 0], [0, 0]],
                               [[0, 0], [0, 0], [-1, 0], [0, 0]],
                               [[0, 0], [0, 0], [0, 0], [-1, 0]]]})
    )
    argv[argv.index(str(obs))] = str(mat)
    code, doc2, _ = run_json(capsys, argv)
    assert code == 0
    assert doc2["K"] == pytest.approx(doc["K"])


@pytest.mark.parametrize(
    "doc",
    [
        {"foo": 1}, {"pauli": 5}, {"matrix": [[1, 2], [3, 4]]}, [1, 2, 3],
        # both keys, each valid alone, as a model edge with both is rejected
        {"pauli": "ZI",
         "matrix": [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]},
    ],
)
def test_bad_observable_file_exits_2(capsys, tf_path, tmp_path, doc):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps(doc))
    argv = [
        "correlate", tf_path, "--s", "0", "--t", "1",
        "--observable", str(obs), "--epsilon", "0", "--order", "1",
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_clusters_command(capsys, ring_path):
    code, doc, _ = run_json(
        capsys, ["clusters", ring_path, "--vertex", "0", "--size", "3", "--json"]
    )
    assert code == 0
    assert doc["count"] == 3  # three arcs of length 3 through a ring vertex
    assert doc["bound"] == (4 * 2) ** 2
    code, doc, _ = run_json(
        capsys,
        ["clusters", ring_path, "--vertex", "0", "--size", "2", "--json", "--list"],
    )
    assert doc["clusters"] == [[0, 1], [0, 5]]


def test_exit_2_on_bad_inputs(capsys, tmp_path, tf_path):
    missing = str(tmp_path / "nope.json")
    assert main(["info", missing, "--json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["info", str(bad), "--json"]) == 2
    gapless = tmp_path / "gapless.json"
    doc = model_to_dict(tf_edge_model())
    doc["vertices"][0]["delta"] = 0.0
    gapless.write_text(json.dumps(doc))
    assert main(["info", str(gapless), "--json"]) == 2
    matrix = [[[0.0, 0.0]] * 4] * 4
    cases = (
        ("edges", [{"u": 0, "v": 1, "pauli": 5}]),
        ("vertices", 5),
        # a field or a matrix part that is a string or a bool, not a JSON number
        ("vertices", [{"id": 0, "delta": "2"}, {"id": 1, "delta": 1.0}]),
        ("vertices", [{"id": 0, "delta": 1.0}, {"id": 1, "delta": True}]),
        ("edges", [{"u": 0, "v": 1, "matrix": [[[True, 0.0]] + matrix[0][1:]] + matrix[1:]}]),
        ("edges", [{"u": 0, "v": 1, "matrix": [[[0.0, "0.5"]] + matrix[0][1:]] + matrix[1:]}]),
        # a cell with a third part, which would otherwise be dropped unread
        ("edges", [{"u": 0, "v": 1, "matrix": [[[0.0, 0.0, 7]] + matrix[0][1:]] + matrix[1:]}]),
        # a JSON integer too large for a double
        ("vertices", [{"id": 0, "delta": 10**400}, {"id": 1, "delta": 1.0}]),
        ("edges", [{"u": 0, "v": 1, "matrix": [[[10**400, 0.0]] + matrix[0][1:]] + matrix[1:]}]),
    )
    for i, (key, value) in enumerate(cases):
        broken = tmp_path / f"broken-{i}.json"
        doc = model_to_dict(tf_edge_model())
        doc[key] = value
        broken.write_text(json.dumps(doc))
        assert main(["info", str(broken), "--json"]) == 2
        assert capsys.readouterr().err.startswith("error:")
    # an observable file's cells are read as the model's are: the identity
    # with a bool, an overflowing or a third part in its first cell is rejected
    identity = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    for i, cell in enumerate(([True, False], [0.0, 10**400], [1.0, 0.0, 7])):
        obs = tmp_path / f"obs-{i}.json"
        obs.write_text(json.dumps({"matrix": [[cell] + identity[0][1:]] + identity[1:]}))
        argv = ["correlate", tf_path, "--s", "0", "--t", "1", "--observable", str(obs),
                "--epsilon", "1e-9", "--order", "2", "--json"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert (
        main(["energy", tf_path, "--order", "0", "--epsilon", "1e-9", "--json"]) == 2
    )
    assert (
        main(
            ["correlate", tf_path, "--s", "0", "--t", "0", "--observable", "ZI",
             "--epsilon", "0", "--order", "1"]
        )
        == 2
    )
    capsys.readouterr()


def test_byte_identical_reruns(capsys, ring_path):
    argv = ["series", ring_path, "--order", "5", "--json"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_verify_battery_passes(capsys):
    code = main(["verify", "--max-qubits", "5", "--seeds", "1", "--json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert len(doc["checks"]) == 6
    names = " ".join(c["name"] for c in doc["checks"])
    for token in ("kernel", "series", "gap", "correlator", "correlator-sites-0-2", "extract"):
        assert token in names


def test_verify_text_mode_on_ring_models(capsys):
    # the second seed draws a ring model
    assert main(["verify", "--max-qubits", "5", "--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert all(line.startswith("PASS ") for line in lines)
    assert lines[-1] == "PASS overall"


@pytest.mark.parametrize("qubits", ["2", "1"])
def test_verify_rejects_too_few_qubits(capsys, qubits):
    assert main(["verify", "--max-qubits", qubits, "--seeds", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "PASS" not in captured.out


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_verify_never_passes_without_a_check(capsys, seeds):
    assert main(["verify", "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "PASS" not in captured.out
