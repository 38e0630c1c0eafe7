"""A moldable, multi-resource HEFT-like heuristic.

Classic HEFT ranks tasks by *upward rank* (bottom level) and assigns each,
in rank order, to the processor minimizing its earliest finish time.  Our
moldable analogue: among ready jobs, repeatedly dispatch the highest
bottom-level job using the candidate allocation that minimizes its finish
time right now (ties broken toward smaller area, to leave room for others).
Jobs whose every candidate overflows the current availability wait, but do
not block lower-ranked ready jobs (insertion-based relaxation).

This is a *global-priority* heuristic — it reads the precedence graph — so
it is the natural practical comparison point for the paper's graph-oblivious
Phase 2 (cf. Theorem 6's local-vs-global distinction).
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.baselines.naive import BaselineResult
from repro.dag.paths import bottom_levels
from repro.engine.dispatch import run_dynamic
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy
from repro.registry import register_scheduler
from repro.resources.vector import ResourceVector

__all__ = ["heft_moldable_scheduler", "make_heft_policy"]

JobId = Hashable


def make_heft_policy(instance: Instance, table) -> callable:
    """The rank-ordered earliest-finish dispatch policy over ``table``."""
    d = instance.d
    # rank with each job's balanced (knee) time — a standard HEFT-style
    # estimate that does not depend on the dispatch-time molding decision
    est_times = {j: min(table[j], key=lambda e: e.time * e.area).time for j in instance.jobs}
    rank = bottom_levels(instance.dag, est_times)

    def policy(
        inst: Instance, ready: Sequence[JobId], avail: Sequence[int]
    ) -> list[tuple[JobId, ResourceVector]]:
        for j in sorted(ready, key=lambda x: -rank[x]):
            best: tuple[float, float, ResourceVector] | None = None
            for e in table[j]:
                a = e.alloc
                if any(a[r] > avail[r] for r in range(d)):
                    continue
                key = (e.time, e.area)
                if best is None or key < (best[0], best[1]):
                    best = (e.time, e.area, a)
            if best is not None:
                return [(j, best[2])]
        return []

    return policy


@register_scheduler("heft", kind="baseline", graphs="any")
def heft_moldable_scheduler(
    instance: Instance,
    strategy: CandidateStrategy | None = None,
) -> BaselineResult:
    """Schedule with the moldable HEFT heuristic; returns the result."""
    table = instance.candidate_table(strategy)
    schedule = run_dynamic(instance, make_heft_policy(instance, table))
    return BaselineResult(name="heft_moldable", schedule=schedule, allocation=schedule.allocation)
