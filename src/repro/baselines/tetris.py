"""Tetris-style multi-resource packing heuristic (Grandl et al. [19]).

Tetris scores each (job, allocation) pair by the alignment between the
allocation's normalized demand and the currently available normalized
capacity — the dot product — preferring placements that consume resources
the platform has in surplus.  We extend it to moldable jobs by letting the
score range over the job's non-dominated candidates, dividing by execution
time so cheap-but-endless placements do not dominate (the "packing +
shortest-remaining-work" blend of the original paper).
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.baselines.naive import BaselineResult
from repro.engine.dispatch import run_dynamic
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy
from repro.registry import register_scheduler
from repro.resources.vector import ResourceVector

__all__ = ["tetris_scheduler", "make_tetris_policy"]

JobId = Hashable


def make_tetris_policy(instance: Instance, table) -> callable:
    """The alignment-scoring dispatch policy over ``table``'s candidates."""
    caps = instance.pool.capacities
    d = instance.d

    def policy(
        inst: Instance, ready: Sequence[JobId], avail: Sequence[int]
    ) -> list[tuple[JobId, ResourceVector]]:
        best: tuple[float, JobId, ResourceVector] | None = None
        for j in ready:
            for e in table[j]:
                a = e.alloc
                if any(a[r] > avail[r] for r in range(d)):
                    continue
                align = sum((a[r] / caps[r]) * (avail[r] / caps[r]) for r in range(d))
                score = align / e.time
                if best is None or score > best[0]:
                    best = (score, j, a)
        if best is None:
            return []
        return [(best[1], best[2])]

    return policy


@register_scheduler("tetris", kind="baseline", graphs="any")
def tetris_scheduler(
    instance: Instance,
    strategy: CandidateStrategy | None = None,
) -> BaselineResult:
    """Schedule with the Tetris alignment heuristic; returns the result."""
    table = instance.candidate_table(strategy)
    schedule = run_dynamic(instance, make_tetris_policy(instance, table))
    return BaselineResult(name="tetris", schedule=schedule, allocation=schedule.allocation)
