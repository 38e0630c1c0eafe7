"""Moldable job model (Section 3.1, Assumptions 2-3).

A job's execution time ``t_j(p_j)`` is a known function of its allocation
vector.  :mod:`repro.jobs.speedup` provides analytic multi-resource models
that provably satisfy Assumption 3; :mod:`repro.jobs.profiles` provides
tabulated profiles and the non-dominated (Pareto) filtering of Eq. (2);
:mod:`repro.jobs.candidates` controls which
allocations are enumerated for Phase 1.
"""

from repro.jobs.job import Job
from repro.jobs.speedup import (
    SpeedupModel,
    LinearSpeedup,
    AmdahlSpeedup,
    PowerLawSpeedup,
    RooflineSpeedup,
    LogSpeedup,
    CommunicationOverheadTime,
    MultiResourceTime,
    random_multi_resource_time,
)
from repro.jobs.profiles import (
    TabulatedTimeFunction,
    ProfileEntry,
)
from repro.jobs.candidates import full_grid, geometric_grid, diagonal_grid, make_candidates

__all__ = [
    "Job",
    "SpeedupModel",
    "LinearSpeedup",
    "AmdahlSpeedup",
    "PowerLawSpeedup",
    "RooflineSpeedup",
    "LogSpeedup",
    "CommunicationOverheadTime",
    "MultiResourceTime",
    "random_multi_resource_time",
    "TabulatedTimeFunction",
    "ProfileEntry",
    "full_grid",
    "geometric_grid",
    "diagonal_grid",
    "make_candidates",
]
