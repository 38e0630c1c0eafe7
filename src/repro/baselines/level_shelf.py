"""Level-by-level shelf scheduling for precedence DAGs.

A classic simple baseline for DAG scheduling: decompose the graph into
precedence levels (every job's predecessors sit in strictly earlier
levels), then schedule each level as an independent-jobs instance using
the engine's shared shelf packer, executing levels back-to-back.  The
inter-level barriers cost parallelism — exactly the loss list scheduling
avoids — which makes this a sharp foil for Phase 2 in the comparisons.
"""

from __future__ import annotations

from typing import Hashable

from repro.baselines.naive import BaselineResult
from repro.dag.analysis import node_levels
from repro.engine.shelves import pack_shelves, stack_shelves
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy
from repro.jobs.profiles import knee
from repro.registry import register_scheduler
from repro.sim.schedule import Schedule

__all__ = ["level_shelf_scheduler"]

JobId = Hashable


@register_scheduler("level_shelf", kind="baseline", graphs="any")
def level_shelf_scheduler(
    instance: Instance,
    strategy: CandidateStrategy | None = None,
) -> BaselineResult:
    """Shelf-pack each precedence level; run levels sequentially."""
    if instance.has_releases:
        raise ValueError(
            "level-shelf is an offline planner and cannot honor release times"
        )
    table = instance.candidate_table(strategy)
    allocation = {j: knee(es).alloc for j, es in table.items()}
    times = instance.times(allocation)
    levels = node_levels(instance.dag)
    by_level: dict[int, list[JobId]] = {}
    for j, l in levels.items():
        by_level.setdefault(l, []).append(j)

    starts: dict[JobId, float] = {}
    t0 = 0.0
    for level in sorted(by_level):
        jobs = sorted(by_level[level], key=lambda j: -times[j])
        shelves = pack_shelves(jobs, allocation, times, instance.pool.capacities)
        placed, t0 = stack_shelves(shelves, t0=t0)
        starts.update(placed)

    schedule = Schedule(instance, starts, starts.values(), map(times.__getitem__, starts),
                        map(allocation.__getitem__, starts))
    return BaselineResult(name="level_shelf", schedule=schedule, allocation=allocation)
