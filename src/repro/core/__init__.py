"""The paper's algorithm: Phase 1 allocation, Phase 2 list scheduling,
special-case allocators, lower bounds, and the approximation-ratio theory."""

from repro.core.allocation import Phase1Result, allocate_resources
from repro.core.adjustment import AdjustmentResult, adjust_allocation
from repro.core.dtct import (
    DTCTSolveError,
    FractionalSolution,
    solve_dtct_lp,
    round_fractional,
    dtct_allocate,
)
from repro.core.independent import IndependentAllocation, optimal_independent_allocation
from repro.core.list_scheduler import (
    ScheduleLog,
    list_schedule,
    list_schedule_log,
    fifo_priority,
    lpt_priority,
    spt_priority,
    random_priority,
    bottom_level_priority,
    explicit_priority,
)
from repro.core.lower_bounds import lp_lower_bound, exact_lmin_bruteforce, trivial_lower_bounds
from repro.core.sp_fptas import SPAllocation, sp_fptas_allocation
from repro.core.two_phase import MoldableScheduler, ScheduleResult
from repro.core import theory

__all__ = [
    "Phase1Result",
    "allocate_resources",
    "AdjustmentResult",
    "adjust_allocation",
    "FractionalSolution",
    "DTCTSolveError",
    "solve_dtct_lp",
    "round_fractional",
    "dtct_allocate",
    "IndependentAllocation",
    "optimal_independent_allocation",
    "ScheduleLog",
    "list_schedule",
    "list_schedule_log",
    "fifo_priority",
    "lpt_priority",
    "spt_priority",
    "random_priority",
    "bottom_level_priority",
    "explicit_priority",
    "lp_lower_bound",
    "exact_lmin_bruteforce",
    "trivial_lower_bounds",
    "SPAllocation",
    "sp_fptas_allocation",
    "MoldableScheduler",
    "ScheduleResult",
    "theory",
]
