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
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, NamedTuple

import numpy as np

from repro.dag.paths import bottom_levels
from repro.engine.dispatch import priority_loop
from repro.instance.instance import Instance
from repro.resources.vector import ResourceVector
from repro.sim.schedule import Schedule, ScheduledJob
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
    "portfolio_list_schedule",
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
    from repro.instance.compiled import bottom_levels_array, compile_dag

    return -bottom_levels_array(compile_dag(instance.dag), times_vec)


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


def _setup(instance, allocation):
    """Phase 2's set-up, the part no priority rule changes: the validated
    ``(n, d)`` allocation matrix (``None`` when only the per-job check could
    run) and the execution-time vector, both in topological order."""
    alloc_mat = instance.validate_allocation_map(allocation)
    ci = instance.compiled()
    times_vec = np.fromiter(
        (instance.time(j, allocation[j]) for j in ci.order),
        dtype=np.float64,
        count=ci.n,
    )
    return alloc_mat, times_vec


def _dispatch(instance, allocation, priority, setup, on_start=None, on_complete=None):
    """Run Algorithm 2 under ``priority`` on a :func:`_setup` result, to
    completion; returns the drained loop.  The keys are a 1-D array in
    topological order when the rule has an ``as_array`` form (see
    :data:`PriorityRule`), a mapping over job ids otherwise."""
    alloc_mat, times_vec = setup
    as_array = getattr(priority, "as_array", None)
    if as_array is not None:
        keys = as_array(instance, allocation, times_vec)
    else:
        times = dict(zip(instance.compiled().order, times_vec.tolist()))
        keys = priority(instance, allocation, times)
    loop = priority_loop(instance, allocation, keys, times_vec, on_start,
                         on_complete=on_complete, alloc_mat=alloc_mat)
    loop.run()
    if loop.rq:  # pragma: no cover - invariant
        raise RuntimeError("deadlock: ready jobs cannot fit an empty platform")
    return loop


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


def _log_schedule(instance, allocation, priority, setup) -> ScheduleLog:
    """The start log of one start-log-mode run on a :func:`_setup` result."""
    loop = _dispatch(instance, allocation, priority, setup)
    out_i, out_t = loop.start_log()
    return ScheduleLog(
        order=loop.order,
        job_index=out_i.copy(),
        start=out_t.copy(),
        duration=setup[1],
        makespan=float(loop.now),
    )


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
    the priority keys.  The loop runs in start-log mode (``on_start=None``):
    no python callback fires and no placement object is built.
    """
    return _log_schedule(instance, allocation, priority, _setup(instance, allocation))


def list_schedule(
    instance: Instance,
    allocation: Mapping[JobId, ResourceVector],
    priority: PriorityRule = fifo_priority,
    *,
    on_event: Callable[[str, JobId, float, float | None], None] | None = None,
) -> Schedule:
    """Run Algorithm 2 and return the resulting (valid) schedule.

    Without ``on_event`` this is :func:`list_schedule_log` plus
    :meth:`ScheduleLog.to_schedule`: the schedule comes back in columns,
    ``makespan`` and ``len`` are read off the arrays, and the
    :class:`~repro.sim.schedule.ScheduledJob` objects are built the first
    time ``placements`` is read (a caller that compares makespans never
    pays for them).

    ``on_event("start"|"finish", job, time, duration_or_None)`` streams
    dispatch events as virtual time advances (``repro schedule --follow``):
    the one caller of the loop's per-start / per-completion callbacks, and
    the schedule it returns is built from the placements it streamed.
    """
    if on_event is None:
        return list_schedule_log(instance, allocation, priority).to_schedule(
            instance, allocation
        )

    placements: dict[JobId, ScheduledJob] = {}

    def on_start(j: JobId, start: float, duration: float) -> None:
        placements[j] = ScheduledJob(job_id=j, start=start, time=duration,
                                     alloc=allocation[j])
        on_event("start", j, start, duration)

    def on_complete(j: JobId, now: float) -> None:
        on_event("finish", j, now, None)
        return None

    _dispatch(instance, allocation, priority, _setup(instance, allocation),
              on_start, on_complete)
    return Schedule(instance=instance, placements=placements)


def portfolio_list_schedule(
    instance: Instance,
    allocation: Mapping[JobId, ResourceVector],
    rules: Mapping[str, PriorityRule] | None = None,
) -> tuple[Schedule, str]:
    """Run Algorithm 2 under several priority rules, keep the best schedule.

    Every candidate inherits the approximation guarantee (the proofs hold
    for *any* queue order), so the portfolio can only improve the constant.
    Returns ``(schedule, winning_rule_name)``.

    Tie-breaking contract: **the first rule (in ``rules`` iteration order)
    wins ties** — a later rule replaces the incumbent only when its makespan
    is strictly better by more than the 1e-12 tolerance.  Downstream
    experiments key on the winner's name, so this is load-bearing and
    guarded by a regression test (``tests/test_list_scheduler.py``).
    """
    if rules is None:
        rules = {
            "bottom_level": bottom_level_priority,
            "fifo": fifo_priority,
            "lpt": lpt_priority,
            "random": random_priority(0),
        }
    if not rules:
        raise ValueError("portfolio needs at least one priority rule")
    best: tuple[float, Schedule, str] | None = None
    setup = _setup(instance, allocation)  # once, not once per rule
    for name, rule in rules.items():
        sched = _log_schedule(instance, allocation, rule, setup).to_schedule(
            instance, allocation
        )
        # strict improvement required: earlier rules keep ties
        if best is None or sched.makespan < best[0] - 1e-12:
            best = (sched.makespan, sched, name)
    assert best is not None
    return best[1], best[2]
