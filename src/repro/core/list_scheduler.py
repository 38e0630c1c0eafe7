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
of the precedence graph, e.g. bottom level) is the crux of Theorem 6.  The
:class:`PriorityRule` factories below cover both families; the registered
benchmarks ``ablation_priority`` and ``figure2_lower_bound`` exercise them.

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

from repro.dag.paths import bottom_levels, bottom_levels_array
from repro.engine.dispatch import priority_loop
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

#: A priority rule maps (instance, allocation, times) to a per-job sort key;
#: *smaller keys start first*.  A rule may additionally carry an
#: ``as_array`` attribute — ``as_array(instance, allocation, times_vec)``
#: returning a 1-D key array aligned with the topological order — which the
#: scheduler uses instead of the dict form: a stable argsort of the array
#: realizes exactly the ``(key, topological index)`` order of the dict
#: path, without building ``n`` python key objects per run.
PriorityRule = Callable[
    [Instance, Mapping[JobId, ResourceVector], Mapping[JobId, float]],
    dict[JobId, object],
]


def _array_form(fn):
    """Attach ``fn`` to a rule as its vectorized key form (see PriorityRule)."""

    def attach(rule):
        rule.as_array = fn
        return rule

    return attach


@_array_form(lambda instance, allocation, times_vec: np.arange(len(times_vec)))
def fifo_priority(instance: Instance, allocation, times) -> dict[JobId, object]:
    """Queue-insertion order (topological index): the paper's default."""
    return {j: i for i, j in enumerate(instance.dag.topological_order())}


@_array_form(lambda instance, allocation, times_vec: -times_vec)
def lpt_priority(instance: Instance, allocation, times) -> dict[JobId, object]:
    """Longest processing time first (local)."""
    return {j: (-times[j], i) for i, j in enumerate(instance.dag.topological_order())}


@_array_form(lambda instance, allocation, times_vec: times_vec)
def spt_priority(instance: Instance, allocation, times) -> dict[JobId, object]:
    """Shortest processing time first (local)."""
    return {j: (times[j], i) for i, j in enumerate(instance.dag.topological_order())}


def random_priority(seed: int | np.random.Generator | None = None) -> PriorityRule:
    """A fixed random permutation of the jobs (local)."""

    def rule(instance: Instance, allocation, times) -> dict[JobId, object]:
        rng = ensure_rng(seed)
        order = instance.dag.topological_order()
        perm = rng.permutation(len(order))
        return {j: int(perm[i]) for i, j in enumerate(order)}

    def rule_array(instance, allocation, times_vec) -> np.ndarray:
        rng = ensure_rng(seed)
        return rng.permutation(len(times_vec))

    rule.as_array = rule_array
    return rule


def _bottom_level_keys(instance, allocation, times_vec) -> np.ndarray:
    return -bottom_levels_array(instance.dag, times_vec)


@_array_form(_bottom_level_keys)
def bottom_level_priority(instance: Instance, allocation, times) -> dict[JobId, object]:
    """Critical-path-aware (global): larger bottom level starts first."""
    b = bottom_levels(instance.dag, times)
    return {j: (-b[j], i) for i, j in enumerate(instance.dag.topological_order())}


def explicit_priority(keys: Mapping[JobId, object]) -> PriorityRule:
    """Use the given per-job keys verbatim (adversarial constructions)."""

    def rule(instance: Instance, allocation, times) -> dict[JobId, object]:
        return dict(keys)

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
    is built.  The keys are a 1-D array in topological order when the rule
    has an ``as_array`` form (see :data:`PriorityRule`), a mapping over job
    ids otherwise.
    """
    alloc_mat = instance.validate_allocation_map(allocation)
    order = instance.compiled().order
    times_vec = np.fromiter(
        (instance.time(j, allocation[j]) for j in order),
        dtype=np.float64,
        count=len(order),
    )
    as_array = getattr(priority, "as_array", None)
    if as_array is not None:
        keys = as_array(instance, allocation, times_vec)
    else:
        keys = priority(instance, allocation, dict(zip(order, times_vec.tolist())))
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
