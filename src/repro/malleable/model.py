"""The malleable task-DAG model (He et al. [21]).

A :class:`MalleableJob` is a DAG of unit-duration tasks; task ``t`` carries
``rtype(t)`` — the single resource type it needs one unit of.  Jobs
themselves are precedence-constrained in an outer DAG (as in the paper's
model); the scheduler may run any number of a job's ready tasks at each
time step, subject to the per-type capacities — allocations effectively
change every step, which is exactly malleability.

:func:`moldable_to_malleable` relaxes a moldable instance into this model
for comparison: each moldable job becomes a bag of unit tasks, one bag per
resource type it uses, sized ``⌈w_i⌉`` (its type-``i`` work under the
balanced candidate).  Work and precedence are preserved; the moldable
model's "fixed allocation for the whole run" restriction is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

from repro.dag.graph import DAG
from repro.instance.instance import Instance
from repro.jobs.profiles import knee
from repro.resources.pool import ResourcePool

__all__ = ["MalleableJob", "MalleableInstance", "moldable_to_malleable"]

JobId = Hashable
TaskId = Hashable


@dataclass
class MalleableJob:
    """One malleable job: a DAG of unit tasks labelled with resource types."""

    id: JobId
    tasks: DAG
    rtype: dict[TaskId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [t for t in self.tasks.nodes() if t not in self.rtype]
        if missing:
            raise ValueError(f"job {self.id!r}: tasks without resource type: {missing[:5]}")

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def work_per_type(self, d: int) -> list[int]:
        """Unit-task count per resource type."""
        out = [0] * d
        for t in self.tasks.nodes():
            out[self.rtype[t]] += 1
        return out


@dataclass
class MalleableInstance:
    """Malleable jobs under an outer precedence DAG on a d-type pool."""

    jobs: dict[JobId, MalleableJob]
    dag: DAG
    pool: ResourcePool

    def __post_init__(self) -> None:
        if set(self.dag.nodes()) != set(self.jobs):
            raise ValueError("outer DAG nodes must match job ids")
        for job in self.jobs.values():
            for t, r in job.rtype.items():
                if not 0 <= r < self.pool.d:
                    raise ValueError(f"task {t!r} of job {job.id!r} uses invalid type {r}")

    @property
    def d(self) -> int:
        return self.pool.d

    def total_work_per_type(self) -> list[int]:
        out = [0] * self.d
        for job in self.jobs.values():
            for i, w in enumerate(job.work_per_type(self.d)):
                out[i] += w
        return out

    def lower_bound(self) -> float:
        """max(area bound, task critical path through the outer DAG)."""
        area = max(
            w / p for w, p in zip(self.total_work_per_type(), self.pool.capacities)
        )
        # per-job internal critical path (unit tasks)
        from repro.dag.paths import critical_path_length

        job_cp = {
            j: critical_path_length(job.tasks, {t: 1.0 for t in job.tasks.nodes()})
            for j, job in self.jobs.items()
        }
        outer_cp = critical_path_length(self.dag, job_cp)
        return max(area, outer_cp)


def moldable_to_malleable(instance: Instance, *, max_tasks_per_job: int = 10_000) -> MalleableInstance:
    """Relax a moldable instance into the malleable task model.

    Uses each job's balanced (knee) candidate to size the per-type work,
    rounding up to integral unit tasks.  Tasks of one job are arranged as
    ``height`` layers of parallel tasks where ``height = ⌈t_j⌉`` under the
    balanced candidate — preserving both the job's work and (approximately)
    its minimum execution time, so neither model gets a free lunch on the
    critical path.
    """
    table = instance.candidate_table()
    jobs: dict[JobId, MalleableJob] = {}
    for j in instance.jobs:
        balanced = knee(table[j])
        height = max(1, math.ceil(balanced.time))
        rtype: dict[TaskId, int] = {}
        edges: list[tuple[TaskId, TaskId]] = []
        count = 0
        for i in range(instance.d):
            work = balanced.alloc[i] * balanced.time
            n_units = math.ceil(work)
            if n_units == 0:
                continue
            # split the type's units into `height` layers chained in series,
            # spreading units as evenly as possible
            base, extra = divmod(n_units, height)
            prev_layer: list[TaskId] = []
            for layer in range(height):
                width = base + (1 if layer < extra else 0)
                cur_layer: list[TaskId] = []
                for k in range(width):
                    t = (i, layer, k)
                    rtype[t] = i
                    cur_layer.append(t)
                    count += 1
                    if count > max_tasks_per_job:
                        raise ValueError(
                            f"job {j!r} unrolls to > {max_tasks_per_job} tasks; "
                            "scale the workload down"
                        )
                edges += [(u, v) for u in prev_layer for v in cur_layer]
                if cur_layer:
                    prev_layer = cur_layer
        if not rtype:  # pragma: no cover - knee always has positive work
            rtype[(0, 0, 0)] = 0
        jobs[j] = MalleableJob(id=j, tasks=DAG(rtype, edges), rtype=rtype)
    return MalleableInstance(jobs=jobs, dag=instance.dag, pool=instance.pool)
