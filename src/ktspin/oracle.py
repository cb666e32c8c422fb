"""Dense brute-force reference implementations.

Everything in this module works directly on state vectors over the full
2^n configuration space: Hamiltonian construction, smallest eigenpairs,
expectation values, extraction of the creation coefficients from an
exact ground state, and dense evaluation of nested-commutator matrix
elements.  It exists to
cross-check the series machinery, so it shares no combinatorial code
with the solver or kernel.  Up to ``_DENSE_LIMIT`` (10) qubits the
eigensolve is dense; 11-14 qubits take the sparse route
(``_sparse_hamiltonian`` and scipy's Lanczos and Arnoldi solvers), which
is the only place scipy is imported, so a process that never takes it
never loads scipy.

Basis convention: bit u of a configuration index is the occupation of
vertex u (least significant bit is vertex 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrthogonalToVacuum, TooManyQubits

QUBIT_CAP = 14
_DENSE_LIMIT = 10  # use a dense eigensolver up to this many qubits


def _check_size(n, cap):
    if n > cap:
        raise TooManyQubits(f"model has {n} qubits, cap is {cap}")


def _pair_indices(n, u, v):
    """Base configurations with both pair bits clear, plus the bit offsets."""
    idx = np.arange(1 << n)
    mask = (1 << u) | (1 << v)
    base = idx[(idx & mask) == 0]
    offsets = [0, 1 << v, 1 << u, (1 << u) | (1 << v)]
    return base, offsets


def _diagonal(model):
    n = model.n
    idx = np.arange(1 << n)
    diag = np.zeros(1 << n)
    for u, delta in enumerate(model.deltas):
        diag += delta * ((idx >> u) & 1)
    return diag


def build_hamiltonian(model, eps):
    """Dense 2^n x 2^n matrix of the full Hamiltonian at strength eps."""
    n = model.n
    _check_size(n, 12)  # a dense 2^n x 2^n build beyond 12 qubits is too large
    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)
    ham[np.diag_indices(dim)] = _diagonal(model)
    for e in model.edges:
        base, offsets = _pair_indices(n, e.u, e.v)
        entries = e.op.entries
        for r in range(4):
            for c in range(4):
                cell = entries[r, c]
                if cell != 0:
                    ham[base + offsets[r], base + offsets[c]] += eps * cell
    return ham


def _sparse_hamiltonian(model, eps):
    import scipy.sparse as sp

    n = model.n
    dim = 1 << n
    rows = [np.arange(dim)]
    cols = [np.arange(dim)]
    vals = [_diagonal(model).astype(complex)]
    for e in model.edges:
        base, offsets = _pair_indices(n, e.u, e.v)
        entries = e.op.entries
        for r in range(4):
            for c in range(4):
                cell = entries[r, c]
                if cell != 0:
                    rows.append(base + offsets[r])
                    cols.append(base + offsets[c])
                    vals.append(np.full(base.shape, eps * cell, dtype=complex))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )


def apply_two_site(state, matrix, u, v):
    """Apply a 4x4 operator on the pair (u, v) to a dense state vector."""
    n = state.shape[0].bit_length() - 1
    base, offsets = _pair_indices(n, u, v)
    out = np.zeros_like(state, dtype=complex)
    for r in range(4):
        acc = None
        for c in range(4):
            cell = matrix[r][c]
            if cell != 0:
                piece = cell * state[base + offsets[c]]
                acc = piece if acc is None else acc + piece
        if acc is not None:
            out[base + offsets[r]] = acc
    return out


@dataclass
class GroundResult:
    """Smallest eigenvalue with its phase-fixed, normalized eigenvector."""

    energy: float
    state: np.ndarray
    residual: float


def _norm_scale(model, eps):
    return model.n * max(model.deltas, default=0.0) + abs(eps) * sum(
        e.op.norm() for e in model.edges
    )


def _two_lowest(model, eps):
    """(lowest eigenvalue, next one, lowest eigenvector, the Hamiltonian solved)."""
    n = model.n
    _check_size(n, QUBIT_CAP)
    if n <= _DENSE_LIMIT:
        ham = build_hamiltonian(model, eps)
        if model.hermitian:
            vals, vecs = np.linalg.eigh(ham)
            return vals[0], vals[1], vecs[:, 0], ham
        vals, vecs = np.linalg.eig(ham)
        return (*_real_lowest(model, eps, vals, vecs), ham)
    import scipy.sparse.linalg as spla

    ham = _sparse_hamiltonian(model, eps)
    dim = ham.shape[0]
    v0 = np.full(dim, 1e-3)
    v0[0] = 1.0
    if model.hermitian:
        vals, vecs = spla.eigsh(ham, k=2, which="SA", v0=v0, maxiter=10000)
        order = np.argsort(vals)
        return vals[order[0]], vals[order[1]], vecs[:, order[0]], ham
    vals, vecs = spla.eigs(ham, k=2, which="SR", v0=v0, maxiter=10000)
    return (*_real_lowest(model, eps, vals, vecs), ham)


def _real_lowest(model, eps, vals, vecs):
    """Two lowest eigenvalues by real part; raises if the lowest is complex."""
    order = np.argsort(vals.real, kind="stable")
    e0 = vals[order[0]]
    # same tolerance as the residual check in ground()
    if abs(e0.imag) > 1e-9 * max(1.0, _norm_scale(model, eps)):
        raise ArithmeticError(
            f"complex ground energy {e0:.6g} of a non-Hermitian model"
        )
    return e0.real, vals[order[1]].real, vecs[:, order[0]]


def ground(model, eps):
    """Exact lowest eigenpair; raises if the eigensolve looks unconverged."""
    e0, _e1, vec, ham = _two_lowest(model, eps)
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    a0 = vec[0]
    if abs(a0) > 1e-13:
        vec = vec * (a0.conjugate() / abs(a0))
    resid = float(np.linalg.norm(ham @ vec - e0 * vec))
    scale = max(1.0, _norm_scale(model, eps))
    if resid > 1e-9 * scale:
        raise ArithmeticError(f"eigensolver residual {resid:.3e} too large")
    return GroundResult(energy=float(e0), state=vec, residual=resid)


def gap(model, eps):
    """Difference between the two smallest eigenvalues."""
    e0, e1, _vec, _ham = _two_lowest(model, eps)
    return float(e1 - e0)


def expectation(state, obs, s, t):
    """Normalized expectation of a two-site observable in a dense state."""
    entries = obs.entries if hasattr(obs, "entries") else np.asarray(obs)
    applied = apply_two_site(state, entries, s, t)
    num = complex(np.vdot(state, applied))
    den = float(np.vdot(state, state).real)
    return num / den


def extract_creation_coefficients(state, drop_below=0.0):
    """Creation coefficients of a state with nonzero vacuum overlap.

    Solves the triangular relation between set amplitudes and the
    exponential ansatz by increasing set size: the amplitude of a set
    equals the sum over partitions of products of (negated) coefficients,
    so peeling off the block holding the smallest member inverts it.
    Returns a dict mapping vertex tuples to coefficients.
    """
    dim = state.shape[0]
    n = dim.bit_length() - 1
    norm = np.linalg.norm(state)
    a0 = state[0]
    if abs(a0) <= 1e-14 * norm:
        raise OrthogonalToVacuum("state has (numerically) no vacuum component")
    relative = np.asarray(state, dtype=complex) / a0
    g = np.zeros(dim, dtype=complex)
    by_weight = sorted(range(1, dim), key=lambda m: (m.bit_count(), m))
    for m in by_weight:
        low = m & -m
        rest = m ^ low
        total = relative[m]
        # proper subsets holding the lowest member: block S, remainder M \ S
        sub = (rest - 1) & rest
        while sub:
            total -= g[sub | low] * relative[m ^ (sub | low)]
            sub = (sub - 1) & rest
        if rest:
            total -= g[low] * relative[rest]
        g[m] = total
    out = {}
    for m in by_weight:
        c = -g[m]
        if c != 0 and abs(c) > drop_below:
            members = tuple(w for w in range(n) if (m >> w) & 1)
            out[members] = complex(c)
    return out


def reconstruct_state(coefficients, n):
    """Apply the exponential of the negated creation sum to the vacuum.

    Independent of the extraction routine: exponentiates by repeated
    operator application, so a round trip through both is a real check.
    """
    dim = 1 << n
    idx = np.arange(dim)
    masks = []
    for members, value in coefficients.items():
        mask = 0
        for w in members:
            mask |= 1 << w
        masks.append((mask, idx[(idx & mask) == 0], value))
    vec = np.zeros(dim, dtype=complex)
    vec[0] = 1.0
    term = vec.copy()
    for k in range(1, n + 1):
        nxt = np.zeros(dim, dtype=complex)
        for mask, sources, value in masks:
            nxt[sources | mask] -= value * term[sources]
        term = nxt / k
        if not np.any(term):
            break
        vec = vec + term
    return vec


def _creation_matrix(members, n):
    dim = 1 << n
    mask = 0
    for w in members:
        mask |= 1 << w
    idx = np.arange(dim)
    sources = idx[(idx & mask) == 0]
    mat = np.zeros((dim, dim), dtype=complex)
    mat[sources | mask, sources] = 1.0
    return mat


def dense_matrix_element(target, sets, edge, n):
    """Nested-commutator matrix element by explicit dense matrices.

    Builds the embedded edge operator and the creation matrices, folds
    the commutators from the innermost set outward, and reads off the
    amplitude between the target configuration and the vacuum.
    """
    dim = 1 << n
    base, offsets = _pair_indices(n, edge.u, edge.v)
    op = np.zeros((dim, dim), dtype=complex)
    entries = edge.op.entries
    for r in range(4):
        for c in range(4):
            cell = entries[r, c]
            if cell != 0:
                op[base + offsets[r], base + offsets[c]] = cell
    for members in reversed(sets):
        a = _creation_matrix(members, n)
        op = a @ op - op @ a
    row = 0
    for w in target:
        row |= 1 << w
    return complex(op[row, 0])
