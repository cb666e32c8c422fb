"""Dense reference oracle: construction, eigenpairs, extraction, numeric fits."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ktspin import OrthogonalToVacuum, TooManyQubits, energy_series, save_model
from ktspin.model import parse_pauli_expression
from ktspin.oracle import (
    apply_two_site,
    build_hamiltonian,
    expectation,
    extract_creation_coefficients,
    gap,
    ground,
    reconstruct_state,
)
from conftest import (
    make_model,
    random_diagonal_model,
    random_model,
    tf_edge_model,
    tf_exact_energy,
    tf_matching_model,
    topology_pairs,
)
from reference_impl import numeric_series

SRC = Path(__file__).resolve().parents[1] / "src"


def test_hamiltonian_diagonal_and_offdiagonal():
    mat = np.zeros((4, 4), dtype=complex)
    mat[3, 0] = 0.1
    m = make_model([1.0, 2.0], [(0, 1, mat)])
    ham = build_hamiltonian(m, 1.0)
    # diagonal: occupation-weighted fields, bit u of the index = occupation of u
    assert np.allclose(np.diag(ham).real, [0.0, 1.0, 2.0, 3.0])
    # the pair-creating entry sits at <11|H|00>
    assert ham[3, 0] == 0.1
    assert ham[0, 3] == 0.0


def test_hamiltonian_embeds_middle_edge():
    mat = np.zeros((4, 4), dtype=complex)
    mat[2, 1] = 1.0  # |10><01| on (u, v): excite u, relax v
    m = make_model([1.0] * 3, [(0, 1, mat)])
    ham = build_hamiltonian(m, 0.5)
    # spectator bit 2 set: configuration 0b110 -> 0b101
    assert ham[0b101, 0b110] == 0.5
    assert ham[0b001, 0b010] == 0.5
    assert np.count_nonzero(ham - np.diag(np.diag(ham))) == 2


def test_hamiltonian_respects_cap():
    m = make_model([1.0] * 13, [])
    with pytest.raises(TooManyQubits):
        build_hamiltonian(m, 0.0)


def test_apply_two_site_matches_matrix_route(rng):
    n = 5
    state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = make_model([1.0] * n, [(1, 3, mat)])
    dense = build_hamiltonian(m, 1.0) - np.diag(_fields(m))
    assert np.allclose(apply_two_site(state, mat, 1, 3), dense @ state, atol=1e-12)


def _fields(model):
    idx = np.arange(1 << model.n)
    diag = np.zeros(1 << model.n)
    for u, delta in enumerate(model.deltas):
        diag += delta * ((idx >> u) & 1)
    return diag


def test_ground_closed_form():
    m = tf_edge_model()
    for eps in (0.01, 0.1, 0.3):
        g = ground(m, eps)
        assert g.energy == pytest.approx(tf_exact_energy(eps), abs=1e-12)
        assert g.residual <= 1e-10
        # phase fix leaves a positive vacuum amplitude
        assert g.state[0].real > 0
        assert abs(g.state[0].imag) <= 1e-14


def test_ground_diagonal_model(rng):
    m = random_diagonal_model(rng, 4, topology_pairs("path", 4))
    eps = 0.05
    g = ground(m, eps)
    # diagonal edges leave the vacuum an exact eigenstate
    want = eps * sum(e.op.entries[0, 0].real for e in m.edges)
    assert g.energy == pytest.approx(min(np.diag(build_hamiltonian(m, eps)).real))
    assert g.energy <= want + 1e-12


def test_ground_rejects_complex_ground_energy():
    # i|00><00| shifts the vacuum to the eigenvalue 0.1j, the lowest real part
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1j
    m = make_model([1.0, 1.0], [(0, 1, mat)])
    with pytest.raises(ArithmeticError, match="complex ground energy"):
        ground(m, 0.1)
    with pytest.raises(ArithmeticError, match="complex ground energy"):
        gap(m, 0.1)


def _real_chain(n):
    rng = np.random.default_rng(3)
    return make_model([1.0] * n, [(i, i + 1, rng.standard_normal((4, 4))) for i in range(n - 1)])


def test_sparse_route_rejects_complex_ground_energy():
    # 12 qubits take the sparse path, which must see the complex lowest
    # eigenvalue of this real non-Hermitian chain (0.760456-0.112867j)
    # rather than fail the residual check
    with pytest.raises(ArithmeticError, match="complex ground energy"):
        ground(_real_chain(12), 0.2)
    with pytest.raises(ArithmeticError, match="complex ground energy"):
        gap(_real_chain(12), 0.2)


@pytest.mark.parametrize("n", [5, 12])
def test_gauged_non_hermitian_model_keeps_the_ground_energy(n):
    # conjugating every edge term by diag(1, a_u) x diag(1, a_v), a > 0, is
    # one global similarity that commutes with the fields: same spectrum
    rng = np.random.default_rng(8)
    m = random_model(rng, topology_pairs("path", n), n)
    a = 0.5 + rng.random(n)
    specs = []
    for e in m.edges:
        d = np.kron([1.0, a[e.u]], [1.0, a[e.v]])
        specs.append((e.u, e.v, d[:, None] * e.op.entries / d[None, :]))
    gauged = make_model(m.deltas, specs)
    assert not gauged.hermitian
    eps = 0.3
    assert ground(gauged, eps).energy == pytest.approx(ground(m, eps).energy, abs=1e-9)
    assert gap(gauged, eps) == pytest.approx(gap(m, eps), abs=1e-9)


def test_gap_at_zero_strength():
    m = make_model([0.7, 1.3], [(0, 1, tf_edge_model().edges[0].op.entries)])
    assert gap(m, 0.0) == pytest.approx(0.7)


def test_sparse_route_matches_dense_route():
    # 12 qubits forces the sparse path; disjoint edges give a closed form
    m = tf_matching_model(6)
    assert m.n == 12
    eps = 0.1
    g = ground(m, eps)
    assert g.energy == pytest.approx(6.0 * tf_exact_energy(eps), abs=1e-9)
    boundary = tf_matching_model(5)  # still on the dense path
    assert ground(boundary, eps).energy == pytest.approx(
        5.0 * tf_exact_energy(eps), abs=1e-11
    )


# A fresh interpreter counts the Hamiltonians each ``ground`` call builds,
# by route, and whether scipy is loaded after it.
_ROUTE_PROBE = """
import json, sys
import ktspin
from ktspin import oracle

built = []
for name in ("build_hamiltonian", "_sparse_hamiltonian"):
    def spy(*args, _build=getattr(oracle, name), _name=name, **kwargs):
        built.append(_name)
        return _build(*args, **kwargs)
    setattr(oracle, name, spy)
out = []
for path in sys.argv[1:]:
    model = ktspin.load_model(path)
    del built[:]
    energy = oracle.ground(model, 0.1).energy
    scipy = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
    out.append({"n": model.n, "built": built[:], "scipy": scipy, "energy": energy})
print(json.dumps(out))
"""


def test_ten_qubits_go_dense_and_eleven_sparse(tmp_path):
    # ten decoupled-pair qubits, then the same with one lone qubit added
    paths = []
    for m in (tf_matching_model(5), make_model([1.0] * 11, [
            (e.u, e.v, e.op.entries) for e in tf_matching_model(5).edges])):
        paths.append(tmp_path / f"model{m.n}.json")
        save_model(m, paths[-1])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _ROUTE_PROBE, *map(str, paths)],
                          env=env, capture_output=True, text=True, check=True)
    dense, sparse = json.loads(proc.stdout.splitlines()[-1])
    # each call builds its Hamiltonian once, and the residual reuses it
    assert (dense["n"], dense["built"], dense["scipy"]) == (10, ["build_hamiltonian"], False)
    assert (sparse["n"], sparse["built"], sparse["scipy"]) == (11, ["_sparse_hamiltonian"], True)
    for run in (dense, sparse):
        assert run["energy"] == pytest.approx(5.0 * tf_exact_energy(0.1), abs=1e-11)


def test_expectation_product_state():
    # per-site state |0> + a|1>: <Z> = (1 - a^2)/(1 + a^2)
    a = 0.3
    one = np.array([1.0, a])
    state = np.kron(one, one)  # bit order irrelevant for a symmetric product
    z_first = expectation(state, parse_pauli_expression("ZI"), 0, 1)
    assert z_first == pytest.approx((1 - a * a) / (1 + a * a))
    zz = expectation(state, parse_pauli_expression("ZZ"), 0, 1)
    assert zz == pytest.approx(((1 - a * a) / (1 + a * a)) ** 2)


def test_extract_known_two_qubit_state():
    # |00> + (0.3 + 0.1j)|11>: a lone pair coefficient, no singletons
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    state[3] = 0.3 + 0.1j
    got = extract_creation_coefficients(state)
    assert got == {(0, 1): -(0.3 + 0.1j)}


def test_extract_product_state_has_no_pair_term():
    a, b = 0.2, -0.4
    state = np.kron([1.0, b], [1.0, a])  # qubit 0 is the LSB
    got = {k: c for k, c in extract_creation_coefficients(state).items() if abs(c) > 1e-15}
    assert set(got) == {(0,), (1,)}
    assert got[(0,)] == pytest.approx(-a)
    assert got[(1,)] == pytest.approx(-b)


def test_extract_rejects_vacuum_orthogonal():
    state = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(OrthogonalToVacuum):
        extract_creation_coefficients(state)


def test_extract_reconstruct_round_trip(rng):
    m = random_model(rng, topology_pairs("ring", 5), 5)
    g = ground(m, 0.01)
    coeffs = {k: c for k, c in extract_creation_coefficients(g.state).items() if abs(c) > 1e-14}
    back = reconstruct_state(coeffs, 5)
    back = back / np.linalg.norm(back)
    back = back * (back[0].conjugate() / abs(back[0]))
    assert np.linalg.norm(back - g.state) <= 1e-10


def test_numeric_series_recovers_known_coefficients():
    m = tf_edge_model()
    fit = numeric_series(m, 6, radius=0.05)
    want = [0.0, -2.0, 0.0, 2.0, 0.0, -4.0]
    for i, (got, expect, sigma) in enumerate(
        zip(fit.coefficients, want, fit.uncertainties)
    ):
        # the first omitted term is 10 x^8; it leaks ~|a8| r^(8-q) into order q
        tol = max(1e-6, sigma) + 30.0 * 0.05 ** (8 - (i + 1))
        assert abs(got - expect) <= tol
    # representative tight case: the quadratic coefficient
    assert abs(fit.coefficients[1] + 2.0) < 1e-6
    assert fit.conditioning < 1e4
    assert len(fit.nodes) == 13


def test_numeric_series_default_radius_is_honest():
    # at the default tiny radius the fit cannot resolve high orders and says so
    m = tf_edge_model()
    fit = numeric_series(m, 4)
    assert fit.radius == pytest.approx(m.eps0 / 4)
    assert abs(fit.coefficients[0]) <= fit.uncertainties[0]
    assert fit.uncertainties[3] > 1e6
    assert fit.uncertainties[0] < fit.uncertainties[3]


def test_numeric_series_cross_validates_solver(rng):
    m = random_model(rng, topology_pairs("path", 4), 4)
    longer = energy_series(m, 6)
    fit = numeric_series(m, 4, radius=0.02)
    a5 = abs(longer.coefficients[4])
    a6 = abs(longer.coefficients[5])
    for i in range(4):
        got = longer.coefficients[i].real
        q = i + 1
        # leakage of the first two omitted orders, with slack for the rest
        trunc = 3.0 * (a5 * 0.02 ** (5 - q) + a6 * 0.02 ** (6 - q))
        tol = max(1e-8, fit.uncertainties[i]) + trunc
        assert abs(fit.coefficients[i] - got) <= tol


def test_numeric_series_rejects_bad_radius():
    with pytest.raises(ValueError):
        numeric_series(tf_edge_model(), 3, radius=0.0)
    edgeless = make_model([1.0], [])
    with pytest.raises(ValueError):
        numeric_series(edgeless, 2)  # default radius would be infinite
