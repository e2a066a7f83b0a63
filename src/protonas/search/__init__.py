"""Constrained multi-objective exploration."""

from .moo import crowding_distance, nondominated_sort
from .run import (
    OBJECTIVE_LABELS,
    CandidateRecord,
    ParetoArchive,
    SearchConfig,
    compute_pareto_indices,
    derive_seed,
    evaluate_candidate,
    record_to_log_line,
    run_search,
    trial_seed,
)

__all__ = [
    "OBJECTIVE_LABELS",
    "CandidateRecord",
    "ParetoArchive",
    "SearchConfig",
    "compute_pareto_indices",
    "crowding_distance",
    "derive_seed",
    "evaluate_candidate",
    "nondominated_sort",
    "record_to_log_line",
    "run_search",
    "trial_seed",
]
