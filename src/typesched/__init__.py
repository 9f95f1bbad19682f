"""Scheduling on unrelated machines of few types.

Two approximation pipelines (makespan of multidimensional jobs, L_p norm of
one-dimensional jobs) built on exact-rational LP rounding, plus an exact
brute-force oracle for desk-scale verification.
"""

from .convex import ConvexSolveResult, solve_convex_over_polytope
from .lp import LinearProgram, ExtremePointSolution, solve_extreme_point
from .lpnorm import (
    build_cp_model,
    enumerate_guesses,
    f_threshold,
    guess_from_schedule,
    lpnorm_ptas,
    solve_slot_cp,
)
from .makespan import (
    FullEnum,
    Guided,
    calibrate_eps,
    enumerate_pattern_profiles,
    guarantee_factor,
    make_scaled_instance,
    makespan_decision,
    makespan_ptas,
    profile_from_schedule,
)
from .model import (
    GeneratorSpec,
    Instance,
    Schedule,
    evaluate_lp_norm_pow,
    evaluate_makespan,
    generate_instance,
    instance_from_json,
    instance_to_json,
    load_vector,
    make_instance,
    validate_instance,
)
from .oracle import OracleResult, exact_solve
from .rounding import RoundingEngine, RoundingProblem, untangle

__all__ = [
    "ConvexSolveResult",
    "ExtremePointSolution",
    "FullEnum",
    "GeneratorSpec",
    "Guided",
    "Instance",
    "LinearProgram",
    "OracleResult",
    "RoundingEngine",
    "RoundingProblem",
    "Schedule",
    "build_cp_model",
    "calibrate_eps",
    "enumerate_guesses",
    "enumerate_pattern_profiles",
    "evaluate_lp_norm_pow",
    "evaluate_makespan",
    "exact_solve",
    "f_threshold",
    "generate_instance",
    "guarantee_factor",
    "guess_from_schedule",
    "instance_from_json",
    "instance_to_json",
    "load_vector",
    "lpnorm_ptas",
    "make_instance",
    "make_scaled_instance",
    "makespan_decision",
    "makespan_ptas",
    "profile_from_schedule",
    "solve_convex_over_polytope",
    "solve_extreme_point",
    "solve_slot_cp",
    "untangle",
    "validate_instance",
]
