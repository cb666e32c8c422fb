"""The certificate: printed bounds meet --precision, and each withheld bound names its reason."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from ktspin import (
    CorrelatorQuery, TwoQubitOperator, energy_estimate, energy_series, save_model, solve,
)
from ktspin.cli import main
from ktspin.energy import series_from_state
from ktspin.model import parse_pauli_expression
from ktspin.response import correlator
from conftest import make_model, tf_edge_model


def three_qubit_model():
    """J is about 0.36, below the norm of every observable below, so each one's bound is scaled."""
    return make_model(
        [1.0, 1.0, 0.8],
        [(0, 1, parse_pauli_expression("0.3 XX + 0.2 ZI")),
         (1, 2, parse_pauli_expression("0.25 XY + 0.1 ZZ"))],
    )


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, model):
    path = tmp_path / "model.json"
    save_model(model, path)
    return str(path)


@pytest.mark.parametrize("observable", ["ZI", "ZZ", "10 XX"])
def test_correlate_precision_meets_the_printed_bound(capsys, tmp_path, observable):
    path = _write(tmp_path, three_qubit_model())
    base = ["correlate", path, "--s", "0", "--t", "1", "--observable", observable,
            "--epsilon", "1e-9", "--strict", "--json"]
    code, out, err = _run(capsys, base + ["--precision", "1e-10"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["regime"] == "lemma9"
    assert 0 < doc["bound"] <= 1e-10
    # p is minimal: one order less prints a bound above the precision
    code, out, err = _run(capsys, base + ["--order", str(doc["p"] - 1)])
    assert (code, err) == (0, "")
    assert json.loads(out)["bound"] > 1e-10


HUGE = parse_pauli_expression("1e200 XX")
ZERO = np.zeros((4, 4))

# (model, CLI arguments after the model path, library call, the reason it names)
WITHHELD = [
    pytest.param(
        make_model([1.0, 1.0, 1.0], [(0, 1, HUGE), (1, 2, HUGE)]),
        ["energy", "--order", "3", "--epsilon", "1e-300"],
        lambda m: energy_estimate(energy_series(m, 3), 1e-300),
        "the energy value is not finite",
        id="energy-not-finite",
    ),
    pytest.param(
        tf_edge_model(),
        ["energy", "--order", "4", "--epsilon", "1e-6", "--threshold", "10"],
        lambda m: energy_estimate(series_from_state(solve(m, 3, threshold=10), 4), 1e-6),
        "a threshold dropped 2 coefficients from the solved table",
        id="energy-threshold",
    ),
    pytest.param(
        tf_edge_model(),
        ["energy", "--order", "4", "--epsilon", "0.1"],
        lambda m: energy_estimate(energy_series(m, 4), 0.1),
        "|epsilon| = 1.000e-01 exceeds the certified threshold 1.907e-06",
        id="energy-outside",
    ),
    pytest.param(
        make_model([1.0, 1.0], [(0, 1, ZERO)]),
        ["correlate", "--s", "0", "--t", "1", "--observable", "ZZ",
         "--epsilon", "1e300", "--order", "3"],
        lambda m: correlator(m, CorrelatorQuery(0, 1, TwoQubitOperator.from_pauli("ZZ"), 1e300, 3)),
        "the correlator value is not finite",
        id="correlate-not-finite",
    ),
    pytest.param(
        tf_edge_model(),
        ["correlate", "--s", "0", "--t", "1", "--observable", "ZI",
         "--epsilon", "0.01", "--order", "1"],
        lambda m: correlator(m, CorrelatorQuery(0, 1, TwoQubitOperator.from_pauli("ZI"), 0.01, 1)),
        "|epsilon| = 1.000e-02 outside the certified correlator regime",
        id="correlate-outside",
    ),
]


@pytest.mark.parametrize("model, args, _call, reason", WITHHELD)
def test_a_withheld_bound_prints_one_warning_line(capsys, tmp_path, model, args, _call, reason):
    argv = [args[0], _write(tmp_path, model), *args[1:], "--json"]
    line = f"warning: {reason}; no rigorous bound attached\n"
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, line)
    assert json.loads(out)["bound"] is None
    code, out, err = _run(capsys, argv + ["--strict"])
    assert (code, err) == (3, line)


@pytest.mark.parametrize("model, _args, call, reason", WITHHELD)
def test_the_library_warns_with_the_same_reason(model, _args, call, reason):
    with pytest.warns(UserWarning, match=re.escape(f"{reason}; no rigorous bound attached")):
        result = call(model)
    bound = result[1] if isinstance(result, tuple) else result.bound
    assert bound is None
