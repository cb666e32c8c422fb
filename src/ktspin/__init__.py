"""Series expansions for ground states of weakly interacting spin models.

The package computes ground-state energy series coefficients and
two-site correlators for models of qubits on a bounded-degree graph,
where each vertex carries a positive excitation energy and each edge an
arbitrary two-qubit perturbation.  Results inside the certified
strength regime come with rigorous truncation bounds; a dense
exact-diagonalization oracle is included for cross-checking.
"""

from .certificate import (
    choose_correlator_order,
    choose_order,
    energy_floor,
    norm_bound,
    truncation_bound,
)
from .energy import (
    EnergySeries,
    energy_coefficient,
    energy_estimate,
    energy_series,
    radius_estimate,
)
from .errors import (
    DanglingVertexId,
    EmptySet,
    InvalidObservable,
    InvalidThreshold,
    KtspinError,
    NonFiniteStrength,
    NonPositiveGap,
    NonPositivePrecision,
    OrthogonalToVacuum,
    ParseError,
    SelfLoop,
    TooManyQubits,
)
from .model import (
    EdgeTerm,
    SpinModel,
    TwoQubitOperator,
    Vertex,
    load_model,
    model_from_dict,
    model_to_dict,
    parse_pauli_expression,
    save_model,
)
from .response import (
    CorrelatorQuery,
    CorrelatorResult,
    correlator,
    restrict_neighborhood,
)
from .solver import SolverState, advance_order, solve

__version__ = "0.1.0"

__all__ = [
    "CorrelatorQuery",
    "CorrelatorResult",
    "DanglingVertexId",
    "EdgeTerm",
    "EmptySet",
    "EnergySeries",
    "InvalidObservable",
    "InvalidThreshold",
    "KtspinError",
    "NonFiniteStrength",
    "NonPositiveGap",
    "NonPositivePrecision",
    "OrthogonalToVacuum",
    "ParseError",
    "SelfLoop",
    "SolverState",
    "SpinModel",
    "TooManyQubits",
    "TwoQubitOperator",
    "Vertex",
    "advance_order",
    "choose_correlator_order",
    "choose_order",
    "correlator",
    "energy_coefficient",
    "energy_estimate",
    "energy_floor",
    "energy_series",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "norm_bound",
    "parse_pauli_expression",
    "radius_estimate",
    "restrict_neighborhood",
    "save_model",
    "solve",
    "truncation_bound",
]
