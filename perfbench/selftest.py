"""Self-test of the benchmark's generators and correctness checks.

    python3 perfbench/selftest.py

1. The default-seed degree-3 generator reproduces the acceptance
   criterion-10 model exactly (built here with the test suite's helpers).
2. Each generator, shrunk to oracle size (10 qubits), feeds the CLI and
   the correlator, whose outputs are compared with Rayleigh-Schroedinger
   perturbation theory on the dense Hamiltonian from ``ktspin.oracle``
   (itself checked against the oracle's exact ground energy).
3. The checks in checks.py accept those outputs and reject each one
   after a single coefficient is perturbed.

Exits 0 when every step passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench-out"
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as W  # noqa: E402
from ktspin import load_model, model_to_dict, oracle  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def acceptance_model():
    """The criterion-10 model, built as tests/test_acceptance.py builds it."""
    from conftest import random_model, topology_pairs

    n = 200
    py_rng = random.Random(10)
    ring = topology_pairs("ring", n)
    while True:
        verts = list(range(n))
        py_rng.shuffle(verts)
        matching = [(verts[2 * i], verts[2 * i + 1]) for i in range(n // 2)]
        if all((u - v) % n not in (1, n - 1) for u, v in matching):
            break
    return random_model(np.random.default_rng(1010), ring + matching, n)


def rs_series(model, order):
    """Energy coefficients E_1..E_order and state corrections psi_0..psi_order.

    Rayleigh-Schroedinger recursion with intermediate normalisation on
    H0 + eps V, both taken from ``oracle.build_hamiltonian``.
    """
    h0 = oracle.build_hamiltonian(model, 0.0)
    v = oracle.build_hamiltonian(model, 1.0) - h0
    diag = np.real(np.diag(h0)).copy()
    inv = np.zeros_like(diag)
    inv[1:] = 1.0 / diag[1:]
    psi = [np.zeros(diag.shape[0], dtype=complex)]
    psi[0][0] = 1.0
    energies = []
    for k in range(1, order + 1):
        vpsi = v @ psi[k - 1]
        energies.append(vpsi[0])
        rhs = -vpsi
        for j in range(1, k):
            rhs = rhs + energies[j - 1] * psi[k - j]
        nxt = inv * rhs
        nxt[0] = 0.0
        psi.append(nxt)
    return energies, psi


def rs_correlator(psi, matrix, s, t, order):
    """Coefficients of <psi|O|psi> / <psi|psi> up to the given order."""
    opsi = [oracle.apply_two_site(p, matrix, s, t) for p in psi]
    num = [sum(np.vdot(psi[i], opsi[q - i]) for i in range(q + 1)) for q in range(order + 1)]
    den = [sum(np.vdot(psi[i], psi[q - i]) for i in range(q + 1)) for q in range(order + 1)]
    out = []
    for q in range(order + 1):
        out.append((num[q] - sum(den[j] * out[q - j] for j in range(1, q + 1))) / den[0])
    return out


def perturbed(z, rel=1e-6):
    """Shift by a relative 1e-6 of the magnitude (floored, so zeros move too)."""
    return z + rel * max(abs(z), 1e-3)


def test_model_identity():
    doc = W.degree3_doc(W.DEFAULT_SEED)
    th = W.thresholds(doc)
    expect(len(doc["vertices"]) == 200 and th.d == 3, "default seed gives n = 200 and d = 3")
    expect(doc == model_to_dict(acceptance_model()), "default seed reproduces the criterion-10 model")
    expect(W.degree3_doc(W.HELD_OUT_SEED) != doc, "held-out seed gives a fresh model")


def test_series(work, name, doc, order, energy):
    path = str(work / f"{name}.json")
    W.write_doc(doc, path)
    model = load_model(path)
    coeffs_rs, psi = rs_series(model, order)
    eps = 0.2 * model.Delta / (model.d * model.J)
    exact = oracle.ground(model, eps).energy
    partial = sum(c * eps ** (q + 1) for q, c in enumerate(coeffs_rs))
    tail = abs(coeffs_rs[-1]) * eps**order
    expect(abs(partial - exact) <= 10 * tail + 1e-10,
           f"{name}: perturbation theory matches the oracle's exact energy ({abs(partial - exact):.1e})")

    dump = work / f"{name}.jsonl"
    if energy:
        argv = ["energy", path, "--order", str(order), "--epsilon", repr(model.eps0 / 2),
                "--json", "--dump-coefficients", str(dump)]
    else:
        argv = ["series", path, "--order", str(order), "--json"]
    rc, out, _dt = W.run_cli(argv)
    got = [checks.as_complex(c) for c in json.loads(out)["coefficients"]]
    worst = max(abs(g - w) / abs(w) for g, w in zip(got, coeffs_rs))
    expect(all(checks.close(g, w, abs(w)) for g, w in zip(got, coeffs_rs)),
           f"{name}: CLI E_1..E_{order} match perturbation theory (worst rel {worst:.1e})")

    ref = {"coefficients": [[c.real, c.imag] for c in coeffs_rs]}
    expect(checks.check_series(out, rc, doc, order, ref, energy) == [], f"{name}: check accepts the output")
    for q in (2, order):
        bad = json.loads(out)
        bad["coefficients"][q - 1][0] = perturbed(bad["coefficients"][q - 1][0])
        fails = checks.check_series(json.dumps(bad), rc, doc, order, ref if q > 2 else None, energy)
        how = "reference" if q > 2 else "closed form"
        expect(bool(fails), f"{name}: check rejects a perturbed E_{q} ({how})")
    if energy:
        summary = checks.dump_summary(dump)
        expect(checks.check_dump(summary, doc, None) == [], f"{name}: check accepts the dump")
        key = next(iter(summary["order1"]))
        summary["order1"][key] = perturbed(summary["order1"][key])
        expect(bool(checks.check_dump(summary, doc, None)), f"{name}: check rejects a perturbed dump entry")
    return model, psi


def test_correlator(model, psi, doc):
    queries = W.correlate_queries(doc, W.DEFAULT_SEED, edges=3, order=3)
    results = []
    for q, pq in zip(queries, W.package_queries(queries)):
        res, _dt = W.run_query(model, pq)
        want = rs_correlator(psi, q.matrix, q.s, q.t, q.order)
        scale = max(abs(c) for c in want)
        ok = all(checks.close(g, w, scale) for g, w in zip(res.coefficients, want))
        exact = oracle.expectation(oracle.ground(model, q.epsilon).state, q.matrix, q.s, q.t)
        ok_exact = abs(res.value - exact) <= res.bound + 1e-8
        expect(ok and ok_exact, f"correlator ({q.s},{q.t},{q.label}): coefficients match perturbation "
                                "theory and the value the oracle's ground state")
        results.append((q, res, want))
    ref = {"queries": [{"value": [sum(c * q.epsilon**k for k, c in enumerate(w)).real, 0.0],
                        "coefficients": [[c.real, c.imag] for c in w]} for q, _r, w in results]}
    scales = checks.order_scales(ref)
    k = next(i for i, (q, _r, _w) in enumerate(results) if q.label == "random")
    q, res, _w = results[k]
    expect(checks.check_query(res, q, doc, ref["queries"][k], scales) == [], "correlator: check accepts the output")
    for order, use_ref in ((1, False), (q.order, True)):
        bad = copy.copy(res)
        bad.coefficients = list(res.coefficients)
        bad.coefficients[order] = perturbed(bad.coefficients[order])
        fails = checks.check_query(bad, q, doc, ref["queries"][k] if use_ref else None, scales)
        how = "reference" if use_ref else "closed form"
        expect(bool(fails), f"correlator: check rejects a perturbed c_{order} ({how})")


def main():
    test_model_identity()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        small_d3 = W.degree3_doc(W.DEFAULT_SEED, n=10)
        model, psi = test_series(work, "degree-3 (10 qubits)", small_d3, 6, True)
        test_correlator(model, psi, small_d3)
        test_series(work, "ring (10 qubits)", W.ring_doc(W.DEFAULT_SEED, n=10), 8, False)
    finally:
        shutil.rmtree(work)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
