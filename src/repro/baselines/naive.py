"""Fixed-allocation baseline policies.

Each policy picks one allocation per job from its non-dominated frontier and
then runs the same Phase 2 list scheduler, isolating the value of the
paper's *allocation* phase in comparisons:

* ``min_area`` — the cheapest (slowest) candidate: maximizes throughput,
  ignores the critical path;
* ``min_time`` — the fastest candidate: minimizes the critical path,
  hogs resources;
* ``balanced`` — the knee of the ``(t, a)`` frontier: minimizes ``t·a``
  (a common practical compromise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from repro.core.list_scheduler import PriorityRule, fifo_priority, list_schedule
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy
from repro.jobs.profiles import knee
from repro.registry import register_scheduler
from repro.resources.vector import ResourceVector
from repro.sim.schedule import Schedule

__all__ = ["BaselineResult", "knee", "min_area_scheduler", "min_time_scheduler",
           "balanced_scheduler"]

JobId = Hashable


@dataclass(frozen=True)
class BaselineResult:
    """A baseline's schedule and the allocation it chose."""

    name: str
    schedule: Schedule
    allocation: dict[JobId, ResourceVector]

    @property
    def makespan(self) -> float:
        return self.schedule.makespan


def _fixed_allocation_scheduler(
    name: str,
    pick: Callable[[list], object],
) -> Callable[..., BaselineResult]:
    def scheduler(
        instance: Instance,
        strategy: CandidateStrategy | None = None,
        priority: PriorityRule = fifo_priority,
    ) -> BaselineResult:
        table = instance.candidate_table(strategy)
        allocation = {j: pick(entries).alloc for j, entries in table.items()}
        schedule = list_schedule(instance, allocation, priority)
        return BaselineResult(name=name, schedule=schedule, allocation=allocation)

    scheduler.__name__ = f"{name}_scheduler"
    scheduler.__doc__ = f"The {name!r} fixed-allocation baseline (see module docstring)."
    return scheduler


#: Cheapest candidate per job (last on the frontier: max time, min area).
min_area_scheduler = register_scheduler(
    "min_area", kind="baseline", description="cheapest-candidate allocation + list scheduling"
)(_fixed_allocation_scheduler("min_area", lambda entries: entries[-1]))

#: Fastest candidate per job (first on the frontier: min time, max area).
min_time_scheduler = register_scheduler(
    "min_time", kind="baseline", description="fastest-candidate allocation + list scheduling"
)(_fixed_allocation_scheduler("min_time", lambda entries: entries[0]))

#: Knee of the frontier: minimize the time-area product.
balanced_scheduler = register_scheduler(
    "balanced", kind="baseline", description="knee-candidate allocation + list scheduling"
)(_fixed_allocation_scheduler("balanced", knee))
