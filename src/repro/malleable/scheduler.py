"""Greedy list scheduling for the malleable model, one unit step at a time.

He et al. [21] prove that greedy list scheduling of unit-task DAGs on
``d`` resource types is a (d+1)-approximation.  Every task lasts exactly
one step, so the scheduler needs no event heap: each step starts, in queue
order, as many ready tasks as the capacities allow (tasks are ready when
their intra-job predecessors, and all tasks of the job's outer-DAG
predecessors, have completed), then releases the started tasks'
successors in start order, then opens the outer jobs that became
unblocked.  Priorities follow the outer topological order (any order
preserves the bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.malleable.model import MalleableInstance
from repro.registry import register_scheduler

__all__ = ["MalleableSchedule", "MalleableResult", "malleable_list_schedule"]

JobId = Hashable
TaskId = Hashable


@dataclass
class MalleableSchedule:
    """Result of the malleable scheduler: per-task start steps."""

    instance: MalleableInstance
    task_start: dict[tuple[JobId, TaskId], int] = field(default_factory=dict)

    @property
    def makespan(self) -> int:
        if not self.task_start:
            return 0
        return max(self.task_start.values()) + 1  # unit tasks

    def validate(self) -> None:
        """Capacity per step + both levels of precedence."""
        inst = self.instance
        usage: dict[int, list[int]] = {}
        for (j, t), s in self.task_start.items():
            u = usage.setdefault(s, [0] * inst.d)
            u[inst.jobs[j].rtype[t]] += 1
        for s, u in usage.items():
            for r in range(inst.d):
                if u[r] > inst.pool.capacities[r]:
                    raise ValueError(f"capacity violated at step {s}, type {r}")
        for j, job in inst.jobs.items():
            for u, v in job.tasks.edges():
                if self.task_start[(j, v)] < self.task_start[(j, u)] + 1:
                    raise ValueError(f"intra-job precedence violated in {j!r}")
        for a, b in inst.dag.edges():
            end_a = max(self.task_start[(a, t)] for t in inst.jobs[a].tasks.nodes()) + 1
            start_b = min(self.task_start[(b, t)] for t in inst.jobs[b].tasks.nodes())
            if start_b < end_a:
                raise ValueError(f"outer precedence violated: {a!r} -> {b!r}")
        expected = {(j, t) for j, job in inst.jobs.items() for t in job.tasks.nodes()}
        if set(self.task_start) != expected:
            raise ValueError("schedule must place exactly the instance's tasks")


@dataclass(frozen=True)
class MalleableResult:
    """Registry-protocol wrapper around a :class:`MalleableSchedule`."""

    name: str
    schedule: MalleableSchedule
    allocation: None = None

    @property
    def makespan(self) -> int:
        return self.schedule.makespan


def malleable_list_schedule(instance: MalleableInstance) -> MalleableSchedule:
    """Greedy unit-step list scheduling ((d+1)-approximation, [21]).

    Readiness bookkeeping runs on index lists: the outer DAG's positions
    and successor lists, and each job's intra-task DAG lowered to index
    lists over ``tasks.nodes()``, so the per-step work is list/int
    operations instead of nested dict lookups.  Queue orders are identical
    to the dict-based original (outer jobs open in topological order, tasks
    enter in ``tasks.nodes()`` order).
    """
    inst = instance
    # outer-DAG gating over positions: a job's tasks become available once
    # all predecessors' tasks completed
    outer = inst.dag
    outer_order = outer.order
    outer_index = outer.index
    outer_succ = outer.succ_lists()
    outer_remaining = outer.in_degrees.tolist()
    job_tasks_left = [inst.jobs[j].n_tasks for j in outer_order]
    open_jobs = [j for oi, j in enumerate(outer_order) if outer_remaining[oi] == 0]

    # per-job intra readiness as index lists over tasks.nodes() order
    task_nodes: dict[JobId, list[TaskId]] = {}
    intra_remaining: dict[JobId, list[int]] = {}
    intra_succ: dict[JobId, list[list[int]]] = {}
    rtype_of: dict[JobId, list[int]] = {}
    for j, job in inst.jobs.items():
        nodes = list(job.tasks.nodes())
        idx = {t: k for k, t in enumerate(nodes)}
        task_nodes[j] = nodes
        intra_remaining[j] = [job.tasks.in_degree(t) for t in nodes]
        intra_succ[j] = [[idx[s] for s in job.tasks.successors(t)] for t in nodes]
        rtype_of[j] = [job.rtype[t] for t in nodes]

    # the ready queue holds (job, task index) pairs
    ready = [(j, k) for j in open_jobs for k, n in enumerate(intra_remaining[j]) if n == 0]
    task_start: dict[tuple[JobId, TaskId], int] = {}
    caps = list(inst.pool.capacities)
    step = 0
    while ready:
        avail = list(caps)
        started: list[tuple[JobId, int]] = []
        leftover: list[tuple[JobId, int]] = []
        for j, ti in ready:
            r = rtype_of[j][ti]
            if avail[r] > 0:
                avail[r] -= 1
                task_start[(j, task_nodes[j][ti])] = step
                started.append((j, ti))
            else:
                leftover.append((j, ti))
        ready = leftover
        newly_open: list[JobId] = []
        for j, ti in started:
            left = intra_remaining[j]
            for si in intra_succ[j][ti]:
                left[si] -= 1
                if left[si] == 0:
                    ready.append((j, si))
            oi = outer_index[j]
            job_tasks_left[oi] -= 1
            if job_tasks_left[oi] == 0:
                for ni in outer_succ[oi]:
                    outer_remaining[ni] -= 1
                    if outer_remaining[ni] == 0:
                        newly_open.append(outer_order[ni])
        for j in newly_open:
            ready.extend((j, k) for k, n in enumerate(intra_remaining[j]) if n == 0)
        step += 1

    total = sum(inst.jobs[j].n_tasks for j in inst.jobs)
    if len(task_start) != total:  # pragma: no cover - a DAG always progresses
        raise RuntimeError("malleable scheduler stalled")
    return MalleableSchedule(instance=inst, task_start=task_start)


@register_scheduler(
    "malleable",
    kind="malleable",
    description="He et al.'s (d+1)-approximation on the malleable relaxation",
)
def malleable_scheduler(instance, **opts) -> MalleableResult:
    """Registry entry point: accepts a :class:`MalleableInstance` directly,
    or relaxes a moldable :class:`~repro.instance.instance.Instance` via
    :func:`~repro.malleable.model.moldable_to_malleable` first."""
    from repro.instance.instance import Instance
    from repro.malleable.model import moldable_to_malleable

    if isinstance(instance, Instance):
        if instance.has_releases:
            raise ValueError(
                "the malleable relaxation drops release times; use an "
                "event-driven moldable scheduler for online-arrival scenarios"
            )
        instance = moldable_to_malleable(instance, **opts)
    sched = malleable_list_schedule(instance)
    return MalleableResult(name="malleable", schedule=sched)
