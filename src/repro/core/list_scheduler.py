"""Phase 2 — the extended multi-resource list scheduler (Algorithm 2).

Given a fixed resource allocation ``p``, jobs are started greedily: whenever
a job completes (or at time 0), every newly ready job joins the queue, and
the queue is scanned in priority order, starting **every** job whose
allocation fits the currently available amount of *every* resource type
(the scan does not stop at the first job that does not fit — exactly the
``for each job j ∈ Q`` loop of Algorithm 2).

Priorities.  The paper proves the approximation ratio for *any* queue order;
better orders help in practice (Section 4.2.1) and the distinction between
*local* priorities (functions of the job alone) and *global* ones (functions
of the precedence graph, e.g. bottom level) is the crux of Theorem 6.  A
:data:`PriorityRule` has one form: it returns every job's real-number key
as one array in topological order.  The rules below cover both families;
the registered benchmarks ``ablation_priority`` and ``figure2_lower_bound``
exercise them.

Output.  One run of the batch loop records a start log
(:func:`list_schedule_log`); :func:`list_schedule` wraps it as a
:class:`~repro.sim.schedule.Schedule`.  Nothing is called back per event:
the same events one at a time, as virtual time advances, come out of a
:class:`~repro.service.session.SchedulingSession` (``repro schedule
--follow``).
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, NamedTuple

import numpy as np

from repro.dag.paths import bottom_levels_array
from repro.engine.dispatch import priority_loop
from repro.instance.compiled import priority_key
from repro.instance.instance import Instance
from repro.resources.vector import ResourceVector
from repro.sim.schedule import Schedule
from repro.util.rng import ensure_rng

__all__ = [
    "PriorityRule",
    "fifo_priority",
    "lpt_priority",
    "spt_priority",
    "random_priority",
    "bottom_level_priority",
    "explicit_priority",
    "ScheduleLog",
    "list_schedule",
    "list_schedule_log",
]

JobId = Hashable

#: A priority rule maps ``(instance, allocation, times_vec)`` to a 1-D
#: array of real-number keys aligned with the topological order
#: (``instance.compiled().order``): ``times_vec[i]`` is the execution time
#: of topological index ``i`` under ``allocation``, and the key at ``i`` is
#: that job's.  *Smaller keys start first*; ties break by topological index
#: (the rank lowering's argsort is stable).  Algorithm 2's ratio holds for
#: any such order.
PriorityRule = Callable[
    [Instance, Mapping[JobId, ResourceVector], np.ndarray], np.ndarray
]


def fifo_priority(instance: Instance, allocation, times_vec) -> np.ndarray:
    """Queue-insertion order (topological index): the paper's default."""
    return np.arange(len(times_vec))


#: the name ``benchmarks/stack/batch.py`` calls the rule by
fifo_priority.as_array = fifo_priority


def lpt_priority(instance: Instance, allocation, times_vec) -> np.ndarray:
    """Longest processing time first (local)."""
    return -times_vec


def spt_priority(instance: Instance, allocation, times_vec) -> np.ndarray:
    """Shortest processing time first (local)."""
    return times_vec


def random_priority(seed: int | np.random.Generator | None = None) -> PriorityRule:
    """A fixed random permutation of the jobs (local)."""

    def rule(instance: Instance, allocation, times_vec) -> np.ndarray:
        rng = ensure_rng(seed)
        return rng.permutation(len(times_vec))

    return rule


def bottom_level_priority(instance: Instance, allocation, times_vec) -> np.ndarray:
    """Critical-path-aware (global): larger bottom level starts first."""
    return -bottom_levels_array(instance.dag, times_vec)


def explicit_priority(keys: Mapping[JobId, float]) -> PriorityRule:
    """Use the given per-job keys verbatim (adversarial constructions).

    Each key must be what a session accepts as a job's ``key``
    (:func:`~repro.instance.compiled.priority_key`: a real number, exactly
    a float64, not NaN; ``ValueError`` names the job otherwise).  The
    mapping is lowered to float64 once, here.
    """
    lowered = {j: float(priority_key(j, k)) for j, k in keys.items()}

    def rule(instance: Instance, allocation, times_vec) -> np.ndarray:
        return np.array([lowered[j] for j in instance.compiled().order])

    return rule


class ScheduleLog(NamedTuple):
    """Array-native result of one list-scheduling run.

    The schedule as the loop recorded it: no per-job placement object or
    dict entry exists, so the cost per job does not grow with the resident
    working set — the form the million-job scaling benchmark measures, and
    the natural input for array-level analysis or export.
    :meth:`to_schedule` wraps the same arrays in a :class:`Schedule`, which
    builds the classic objects only if somebody reads ``placements``
    (identical event for event).
    """

    #: job ids by topological index (the compiled instance's order)
    order: "tuple"
    #: topological index of each started job, in dispatch order
    job_index: np.ndarray
    #: start time of each started job, in dispatch order
    start: np.ndarray
    #: execution time by topological index
    duration: np.ndarray
    makespan: float

    def to_schedule(self, instance: Instance, allocation) -> Schedule:
        """The :class:`Schedule` over these columns and ``allocation`` (the
        mapping the run was given); builds no placement object."""
        return Schedule.from_log(instance, self, allocation)


def list_schedule_log(
    instance: Instance,
    allocation: Mapping[JobId, ResourceVector],
    priority: PriorityRule = fifo_priority,
) -> ScheduleLog:
    """Algorithm 2 with array output: the start log instead of a Schedule.

    ``allocation`` must cover every job and fit within the pool's
    capacities (guaranteed by Phase 1; validated here).  Deterministic for a
    fixed priority rule.  The event loop — virtual time, completion
    batching, packed resource accounting, release gating for online
    arrivals — lives in :mod:`repro.engine`; this function contributes only
    the priority keys.  No python callback fires and no placement object
    is built.  The rule returns the keys as one array in topological order
    (see :data:`PriorityRule`).
    """
    alloc_mat = instance.validate_allocation_map(allocation)
    order = instance.compiled().order
    times_vec = np.fromiter(
        (instance.time(j, allocation[j]) for j in order),
        dtype=np.float64,
        count=len(order),
    )
    keys = priority(instance, allocation, times_vec)
    loop = priority_loop(instance, allocation, keys, times_vec, alloc_mat=alloc_mat)
    loop.run()
    if loop.rq:  # pragma: no cover - invariant
        raise RuntimeError("deadlock: ready jobs cannot fit an empty platform")
    out_i, out_t = loop.start_log()
    return ScheduleLog(
        order=order,
        job_index=out_i.copy(),
        start=out_t.copy(),
        duration=times_vec,
        makespan=float(loop.now),
    )


def list_schedule(
    instance: Instance,
    allocation: Mapping[JobId, ResourceVector],
    priority: PriorityRule = fifo_priority,
) -> Schedule:
    """Run Algorithm 2 and return the resulting (valid) schedule.

    :func:`list_schedule_log` plus :meth:`ScheduleLog.to_schedule`: the
    schedule comes back in columns, ``makespan`` and ``len`` are read off
    the arrays, and the :class:`~repro.sim.schedule.ScheduledJob` objects
    are built the first time ``placements`` is read (a caller that
    compares makespans never pays for them).  Event by event, as virtual
    time advances, the same schedule comes out of a
    :class:`~repro.service.session.SchedulingSession` (``repro schedule
    --follow``).
    """
    return list_schedule_log(instance, allocation, priority).to_schedule(
        instance, allocation
    )
