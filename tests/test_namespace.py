"""The package's public namespace is declared here: a new export, or a
removed one, has to change this list."""

import types

import ciinwalk

PUBLIC_NAMES = [
    "ApproxParams",
    "CGConfig",
    "CGPrediction",
    "CircuitProgram",
    "DeterministicParams",
    "DimensionMismatchError",
    "DualBasis",
    "FinishingRule",
    "GraphSize",
    "InvalidSizeError",
    "IterateSpectrum",
    "MappingParams",
    "MappingUnavailableError",
    "OddPathParams",
    "RunReport",
    "Schedule",
    "ScheduleStep",
    "StepKind",
    "ThetaNotRealError",
    "UnsupportedSizeError",
    "apply_schedule",
    "approx_params",
    "approx_schedule",
    "cg_evolve",
    "cg_hamiltonian",
    "cg_prediction",
    "compile_schedule",
    "deterministic_p_min",
    "deterministic_params",
    "deterministic_schedule",
    "dual_basis",
    "entangled_fidelity",
    "entangled_to_marked",
    "mapping_params",
    "marked_state",
    "odd_p_min",
    "odd_params",
    "odd_schedule",
    "oracle_circuit",
    "oracle_phase",
    "reduced_adjacency",
    "simulate",
    "success_probability",
    "uniform_state",
    "walk_circuit",
    "walk_full",
    "walk_reduced",
]


def test_public_names_are_the_declared_list():
    names = sorted(name for name, value in vars(ciinwalk).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
