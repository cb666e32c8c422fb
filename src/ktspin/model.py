"""Spin model: vertices with local fields plus two-qubit edge perturbations.

A model lives on a finite graph.  Vertex ``u`` carries a field strength
``delta_u > 0`` that penalizes its excited state; each edge ``(u, v)``
carries an arbitrary two-qubit operator acting on the pair.  The basis
convention for a 4x4 edge operator is ``index = 2*b_u + b_v`` where a bit
is 1 when that vertex is excited, so ``entries[row][col]`` is the
amplitude connecting configuration ``col`` to ``row``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DanglingVertexId,
    NonPositiveGap,
    ParseError,
    SelfLoop,
)
from .kernel import NCODES

_PAULI_1Q = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_WS = re.compile(r"\s*")
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?j?")
_PAREN = re.compile(r"\(([^()]*)\)")
_PAULI_PAIR = re.compile(r"[IXYZ]{2}")

# the largest difference between an entry and its Hermitian partner
# that ``TwoQubitOperator.is_hermitian`` accepts
_HERMITIAN_TOL = 1e-12


def parse_pauli_expression(text):
    """Parse a sum of two-qubit Pauli terms into a 4x4 complex matrix.

    Accepts forms like ``"XX"``, ``"-0.5 ZI + 0.25 XY"``, ``"1j*YZ"`` and
    parenthesized complex coefficients like ``"(1+2j) XZ"``.  The first
    letter acts on the edge's first endpoint, the second on the other.
    Raises ParseError with the offending position on malformed input,
    and without one when ``text`` is not a string.
    """
    if not isinstance(text, str):
        raise ParseError(f"operator expression must be a string, got {text!r}")
    out = np.zeros((4, 4), dtype=complex)
    pos = _WS.match(text, 0).end()
    if pos == len(text):
        raise ParseError("empty operator expression", pos)
    first = True
    while pos < len(text):
        sign = 1.0
        if text[pos] in "+-":
            sign = -1.0 if text[pos] == "-" else 1.0
            pos = _WS.match(text, pos + 1).end()
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)
        first = False
        coeff = complex(sign)
        m = _PAREN.match(text, pos)
        if m is not None:
            inner = m.group(1).replace(" ", "")
            try:
                coeff = sign * complex(inner)
            except ValueError:
                raise ParseError(f"bad complex coefficient '{m.group(1)}'", pos) from None
            pos = _WS.match(text, m.end()).end()
            if pos < len(text) and text[pos] == "*":
                pos = _WS.match(text, pos + 1).end()
        else:
            m = _NUMBER.match(text, pos)
            if m is not None:
                coeff = sign * complex(m.group(0))
                pos = _WS.match(text, m.end()).end()
                if pos < len(text) and text[pos] == "*":
                    pos = _WS.match(text, pos + 1).end()
        m = _PAULI_PAIR.match(text, pos)
        if m is None:
            raise ParseError("expected two Pauli letters from {I,X,Y,Z}", pos)
        a, b = m.group(0)
        out += coeff * np.kron(_PAULI_1Q[a], _PAULI_1Q[b])
        pos = _WS.match(text, m.end()).end()
    return out


class TwoQubitOperator:
    """Immutable 4x4 complex operator on an ordered pair of vertices.

    ``entries`` is a read-only array, and ``rows`` the same entries as
    nested tuples of Python complex numbers, built once here for the
    scalar loops of the solver, the energy and the kernels.  The spectral
    norm, the deviation from Hermitian and the commutator kernels
    (``_kernels``, owned by ``kernel.edge_kernel``: one slot per multiset
    code of edge bits, each a tuple of (edge-bit pattern, value) pairs)
    are computed once, on first use, and then reused by every model and
    every solve that shares the operator.  Nothing cached here names a
    vertex, so it cannot go stale.
    """

    __slots__ = ("entries", "rows", "_norm", "_skew", "_kernels")

    def __init__(self, entries):
        try:
            arr = np.array(entries, dtype=complex)
        except (TypeError, ValueError):
            raise ParseError("edge operator must be a 4x4 array of numbers") from None
        if arr.shape != (4, 4):
            raise ParseError(f"edge operator must be 4x4, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(float))):
            raise ParseError("edge operator has non-finite entries")
        arr.setflags(write=False)
        self.entries = arr
        self.rows = tuple(tuple(row) for row in arr.tolist())
        self._norm = None
        self._skew = None
        self._kernels = [None] * NCODES

    @classmethod
    def from_pauli(cls, text):
        return cls(parse_pauli_expression(text))

    def norm(self):
        """Spectral norm (largest singular value)."""
        if self._norm is None:
            self._norm = float(np.linalg.svd(self.entries, compute_uv=False)[0])
        return self._norm

    def is_hermitian(self):
        """Whether no entry differs from its Hermitian partner by more than 1e-12."""
        if self._skew is None:
            self._skew = float(np.max(np.abs(self.entries - self.entries.conj().T)))
        return self._skew <= _HERMITIAN_TOL

    def __repr__(self):
        return f"TwoQubitOperator({self.entries.tolist()!r})"


@dataclass(frozen=True)
class Vertex:
    """Graph vertex with the field strength penalizing its excited state."""

    id: int
    delta: float


@dataclass(frozen=True)
class EdgeTerm:
    """Perturbation term acting on the ordered vertex pair (u, v)."""

    u: int
    v: int
    op: TwoQubitOperator


@dataclass(frozen=True, eq=False)
class SpinModel:
    """Immutable, validated spin model.

    Construction stores ``vertices`` and ``edges`` as tuples, checks them
    and computes the derived fields once.  Nothing can change either
    afterwards, so the thresholds derived from them always describe the
    model as given:

    - ``deltas``: field strength per vertex id;
    - ``Delta``: the smallest field strength;
    - ``J``: the largest spectral norm over all edge operators;
    - ``d``: the largest number of incident edges, counted with multiplicity;
    - ``hermitian``: whether every edge operator is Hermitian.

    The model also holds ``response.correlator``'s last restricted
    light-cone entry (its value solve), one entry that the next query on
    the same sites and order reuses; it is no part of the model's value.

    Raises NonPositiveGap, ParseError (non-finite field), DanglingVertexId
    or SelfLoop on bad input.
    """

    vertices: tuple
    edges: tuple
    deltas: tuple = field(init=False, repr=False)
    Delta: float = field(init=False, repr=False)
    J: float = field(init=False, repr=False)
    d: int = field(init=False, repr=False)
    hermitian: bool = field(init=False, repr=False)
    _light_cone: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        vertices = tuple(self.vertices)
        edges = tuple(self.edges)
        n = len(vertices)
        ids = [v.id for v in vertices]
        if sorted(ids) != list(range(n)):
            raise DanglingVertexId(f"vertex ids must be exactly 0..{n - 1} with no gaps")
        deltas = [0.0] * n
        for v in vertices:
            if not math.isfinite(v.delta):
                raise ParseError(f"vertex {v.id} has non-finite field {v.delta}")
            if not (v.delta > 0):
                raise NonPositiveGap(f"vertex {v.id} has non-positive field {v.delta}")
            deltas[v.id] = float(v.delta)
        degree = [0] * n
        for e in edges:
            if e.u == e.v:
                raise SelfLoop(f"edge ({e.u}, {e.v}) is a self-loop")
            for w in (e.u, e.v):
                if not (0 <= w < n):
                    raise DanglingVertexId(f"edge endpoint {w} outside 0..{n - 1}")
            degree[e.u] += 1
            degree[e.v] += 1
        derived = {
            "vertices": vertices,
            "edges": edges,
            "deltas": tuple(deltas),
            "Delta": min(deltas) if deltas else 0.0,
            "J": max((e.op.norm() for e in edges), default=0.0),
            "d": max(degree) if degree else 0,
            "hermitian": all(e.op.is_hermitian() for e in edges),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def n(self):
        return len(self.vertices)

    @property
    def eps0(self):
        """Convergence threshold 2^-18 * Delta / (d * J); inf without edges."""
        dj = self.d * self.J
        if dj == 0:
            return float("inf")
        return 2.0 ** -18 * self.Delta / dj

    @property
    def eps0_star(self):
        """Tightened threshold 2^-18 * Delta / ((d + 1) * J) used for correlators."""
        dj = (self.d + 1) * self.J
        if self.J == 0:
            return float("inf")
        return 2.0 ** -18 * self.Delta / dj


def _json_int(value):
    """A JSON integer as is; a float, bool or string raises TypeError, never truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_number(value):
    """A JSON number (an int or a float) as is; a bool or string raises TypeError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _json_cell(cell):
    """A JSON list of exactly two numbers [re, im] as a complex number; else TypeError."""
    if not isinstance(cell, list) or len(cell) != 2:
        raise TypeError(f"expected an [re, im] pair, got {cell!r}")
    return complex(_json_number(cell[0]), _json_number(cell[1]))


def matrix_from_json(rows):
    """Rows of [re, im] JSON number pairs as rows of complex numbers.

    Each cell goes through ``_json_cell`` and each part through
    ``_json_number``; a cell that is not a list of exactly two parts, a
    part that is not a JSON number, one too large for a double, or rows
    of the wrong kind raise ValueError.  The shape is left to
    ``TwoQubitOperator``.
    """
    try:
        return [[_json_cell(cell) for cell in row] for row in rows]
    except (KeyError, TypeError, IndexError, ValueError, OverflowError):
        raise ValueError("expected rows of [re, im] number pairs") from None


def model_from_dict(data):
    """Build a validated SpinModel from the JSON document structure.

    Vertex ids and edge endpoints must be JSON integers, and each
    vertex's ``delta`` and each part of a matrix cell a JSON number
    that a double can hold; matrices are read by ``matrix_from_json``.
    """
    try:
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
    except (KeyError, TypeError):
        raise ParseError("model document needs 'vertices' and 'edges' lists") from None
    if not (isinstance(raw_vertices, list) and isinstance(raw_edges, list)):
        raise ParseError("model document needs 'vertices' and 'edges' lists")
    vertices = []
    for rv in raw_vertices:
        try:
            vertices.append(Vertex(id=_json_int(rv["id"]), delta=float(_json_number(rv["delta"]))))
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ParseError(f"bad vertex entry {rv!r}") from None
    edges = []
    for re_ in raw_edges:
        try:
            u = _json_int(re_["u"])
            v = _json_int(re_["v"])
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"bad edge entry {re_!r}") from None
        has_matrix = "matrix" in re_
        has_pauli = "pauli" in re_
        if has_matrix == has_pauli:
            raise ParseError(f"edge ({u}, {v}) needs exactly one of 'matrix' or 'pauli'")
        if has_pauli:
            op = TwoQubitOperator.from_pauli(re_["pauli"])
        else:
            try:
                arr = matrix_from_json(re_["matrix"])
            except ValueError:
                raise ParseError(f"edge ({u}, {v}) matrix must be 4x4 of [re, im] pairs") from None
            op = TwoQubitOperator(arr)
        edges.append(EdgeTerm(u=u, v=v, op=op))
    return SpinModel(vertices=vertices, edges=edges)


def model_to_dict(model):
    """Serialize a model to the JSON document structure (matrix form)."""
    return {
        "vertices": [{"id": v.id, "delta": v.delta} for v in model.vertices],
        "edges": [
            {
                "u": e.u,
                "v": e.v,
                "matrix": [
                    [[cell.real, cell.imag] for cell in row]
                    for row in e.op.entries.tolist()
                ],
            }
            for e in model.edges
        ],
    }


def load_model(path):
    """Load and validate a model from a JSON file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    return model_from_dict(data)


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
