"""Conservative backfilling — the production-HPC dispatching baseline.

Batch schedulers (Slurm, PBS) order jobs by priority and give each a
*reservation*: the earliest time interval where its allocation fits given
all earlier reservations.  A lower-priority job may start early ("backfill")
only at its own reserved slot computation — under *conservative*
backfilling every queued job gets a reservation, so no job is ever delayed
past it.  We adapt it to moldable multi-resource jobs by fixing each job's
allocation to its frontier knee (as production sites fix user requests) and
reserving on the engine's :class:`~repro.engine.profile.ReservationProfile`
(the d-type availability profile).

Because every job starts exactly at its reservation, the schedule equals
the reservation plan; planning happens in bottom-level priority order with
precedence-aware earliest starts.
"""

from __future__ import annotations

from typing import Hashable

from repro.baselines.naive import BaselineResult
from repro.dag.paths import bottom_levels
from repro.engine.profile import ReservationProfile
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy
from repro.jobs.profiles import knee
from repro.registry import register_scheduler
from repro.sim.schedule import Schedule

__all__ = ["backfill_scheduler"]

JobId = Hashable


@register_scheduler("backfill", kind="baseline", graphs="any")
def backfill_scheduler(
    instance: Instance,
    strategy: CandidateStrategy | None = None,
) -> BaselineResult:
    """Conservative backfilling with knee allocations and bottom-level order."""
    if instance.has_releases:
        raise ValueError(
            "backfill is an offline planner: it reserves every job up front and "
            "cannot honor release times (use an event-driven scheduler instead)"
        )
    table = instance.candidate_table(strategy)
    allocation = {j: knee(es).alloc for j, es in table.items()}
    times = instance.times(allocation)
    rank = bottom_levels(instance.dag, times)
    # reservation order: priority (bottom level) within topological feasibility
    order = sorted(
        instance.dag.topological_order(),
        key=lambda j: (-rank[j],),
    )
    # topological feasibility: process jobs so predecessors are reserved first
    profile = ReservationProfile(instance.pool.capacities)
    reserved: dict[JobId, float] = {}  # job -> start
    pending = list(order)

    while pending:
        progressed = False
        for j in list(pending):
            preds = instance.dag.predecessors(j)
            if any(p not in reserved for p in preds):
                continue
            est = max((reserved[p] + times[p] for p in preds), default=0.0)
            start = profile.earliest_fit(est, allocation[j], times[j])
            profile.reserve(start, times[j], allocation[j])
            reserved[j] = start
            pending.remove(j)
            progressed = True
        if not progressed:  # pragma: no cover - DAG guarantees progress
            raise RuntimeError("backfill planning stalled")

    schedule = Schedule(instance, reserved, reserved.values(), map(times.__getitem__, reserved),
                        map(allocation.__getitem__, reserved))
    return BaselineResult(name="backfill", schedule=schedule, allocation=allocation)
