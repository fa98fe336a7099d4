"""Deterministic spatial search on complete-identity interdependent networks.

Simulates alternating phase-walk search schedules to numerical precision:
construction of the graph family and its 4-dimensional invariant subspace,
exact walk/oracle propagators, the continuous-search baseline, approximate
and deterministic schedule builders, and a fast-forwarded gate-level circuit
realization with a statevector simulator.
"""

from .cg import CGConfig, CGPrediction, cg_evolve, cg_hamiltonian, cg_prediction
from .circuit import (
    CircuitProgram,
    compile_schedule,
    oracle_circuit,
    simulate,
    walk_circuit,
)
from .dynamics import (
    FinishingRule,
    RunReport,
    Schedule,
    ScheduleStep,
    StepKind,
    apply_schedule,
    entangled_fidelity,
    marked_state,
    oracle_phase,
    success_probability,
    uniform_state,
    walk_full,
    walk_reduced,
)
from .errors import (
    DimensionMismatchError,
    InvalidSizeError,
    MappingUnavailableError,
    ThetaNotRealError,
    UnsupportedSizeError,
)
from .graphs import (
    DualBasis,
    GraphSize,
    dual_basis,
    reduced_adjacency,
)
from .schedules import (
    ApproxParams,
    DeterministicParams,
    IterateSpectrum,
    MappingParams,
    OddPathParams,
    approx_params,
    approx_schedule,
    deterministic_p_min,
    deterministic_params,
    deterministic_schedule,
    entangled_to_marked,
    mapping_params,
    odd_p_min,
    odd_params,
    odd_schedule,
)

__version__ = "0.1.0"
