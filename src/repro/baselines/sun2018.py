"""Sun et al. [36] — "Scheduling Parallel Tasks under Multiple Resources:
List Scheduling vs. Pack Scheduling" (IPDPS 2018), for independent jobs.

Two algorithms, both starting from the Lemma 8 optimal allocation
(``L(p') = L_min``) but **without** the paper's µ-adjustment:

* :func:`sun_list_scheduler` — plain greedy list scheduling of the allocated
  jobs, proven 2d-approximation in [36];
* :func:`sun_shelf_scheduler` — pack/shelf scheduling: sort jobs by
  non-increasing execution time, pack first-fit with the engine's shared
  shelf packer, run shelves back-to-back; proven (2d+1)-approximation
  in [36].

These are the head-to-head baselines for Theorem 5's improvement.
"""

from __future__ import annotations

from typing import Hashable

from repro.baselines.naive import BaselineResult
from repro.core.independent import optimal_independent_allocation
from repro.core.list_scheduler import PriorityRule, fifo_priority, list_schedule
from repro.engine.shelves import pack_shelves, stack_shelves
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy
from repro.registry import register_scheduler
from repro.sim.schedule import Schedule

__all__ = ["sun_list_scheduler", "sun_shelf_scheduler"]

JobId = Hashable


@register_scheduler("sun_list", kind="baseline", graphs="independent")
def sun_list_scheduler(
    instance: Instance,
    strategy: CandidateStrategy | None = None,
    priority: PriorityRule = fifo_priority,
) -> BaselineResult:
    """[36]'s 2d-approximation: optimal allocation + greedy list scheduling."""
    if not instance.dag.is_independent():
        raise ValueError("Sun et al. [36] algorithms apply to independent jobs")
    ind = optimal_independent_allocation(instance, strategy)
    schedule = list_schedule(instance, ind.allocation, priority)
    return BaselineResult(name="sun2018_list", schedule=schedule, allocation=ind.allocation)


@register_scheduler("sun_shelf", kind="baseline", graphs="independent")
def sun_shelf_scheduler(
    instance: Instance,
    strategy: CandidateStrategy | None = None,
) -> BaselineResult:
    """[36]'s (2d+1)-approximation shelf (pack) scheduler.

    Jobs are sorted by non-increasing execution time and packed first-fit
    into shelves; a shelf's height is its tallest (first) job, and shelves
    execute sequentially.
    """
    if not instance.dag.is_independent():
        raise ValueError("Sun et al. [36] algorithms apply to independent jobs")
    if instance.has_releases:
        raise ValueError(
            "shelf (pack) scheduling is an offline planner and cannot honor release times"
        )
    ind = optimal_independent_allocation(instance, strategy)
    allocation = ind.allocation
    times = instance.times(allocation)
    order = sorted(instance.jobs, key=lambda j: -times[j])

    shelves = pack_shelves(order, allocation, times, instance.pool.capacities)
    starts, _ = stack_shelves(shelves)
    schedule = Schedule(instance, starts, starts.values(), map(times.__getitem__, starts),
                        map(allocation.__getitem__, starts))
    return BaselineResult(name="sun2018_shelf", schedule=schedule, allocation=allocation)
