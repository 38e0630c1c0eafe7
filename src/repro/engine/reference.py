"""Frozen pre-kernel scheduling loops, kept for differential testing.

Before the :mod:`repro.engine` refactor, the event loop was re-implemented
(with subtle drift in tie-breaking and resource accounting) in the core list
scheduler, the dynamic-baseline engine, the shelf packers, the backfill
planner and the malleable scheduler.  This module preserves those original
loops *verbatim in behavior* so that the equivalence tests
(``tests/test_engine_equivalence.py``) can assert the kernel ports produce
identical schedules.

The module holds two generations of frozen loops: the original pre-kernel
python loops (``reference_*``) and the PR-1 kernel driver
(:func:`reference_pr1_list_schedule`) — the ``insort``-queue, dict-bookkeeping
dispatch that the compiled-instance engine replaced, on a private copy of
the part of that era's event kernel it drives (:class:`_PR1Kernel`; the
kernel itself is gone from the engine).  Do not use this
module for scheduling — it exists only as an executable specification of
the old behavior.  Its consumers are the equivalence tests and the
conformance fuzzer (:mod:`repro.conformance.fuzz`), which
races the live engine against these loops event-for-event on every case
it sweeps.
"""

from __future__ import annotations

import heapq
from bisect import insort
from operator import le as _le
from typing import Hashable

import numpy as np

from repro.engine.dispatch import TIME_EPS
from repro.sim.schedule import Schedule, ScheduledJob

__all__ = [
    "reference_bottom_level_priority",
    "reference_list_schedule",
    "reference_pr1_list_schedule",
    "reference_run_dynamic",
    "reference_pack_shelf_placements",
    "reference_backfill_plan",
    "reference_malleable_task_starts",
]

JobId = Hashable

#: PR-1's ready-queue length threshold for its vectorized prefilter.
_PR1_VECTOR_SCAN_MIN = 32


# ----------------------------------------------------------------------
# era-faithful building blocks
#
# The frozen loops must not retroactively benefit from infrastructure the
# later refactors added (the DAG's cached topological order, the vectorized
# bottom levels, the whole-matrix allocation validation) — otherwise the
# benchmarks would measure a hybrid that never shipped.  These helpers
# reproduce the original implementations verbatim.
# ----------------------------------------------------------------------
def _era_topological_order(dag) -> list[JobId]:
    """Kahn order rebuilt from the adjacency dicts, exactly as the DAG
    computed it before the order was cached (one fresh O(n+m) pass)."""
    indeg = {n: dag.in_degree(n) for n in dag.nodes()}
    frontier = [n for n, k in indeg.items() if k == 0]
    order: list[JobId] = []
    while frontier:
        n = frontier.pop()
        order.append(n)
        for s in dag.successors(n):
            indeg[s] -= 1
            if indeg[s] == 0:
                frontier.append(s)
    if len(order) != len(dag):
        raise ValueError("precedence graph contains a cycle")
    return order


def _era_validate_allocation_map(instance, allocation) -> None:
    """The original per-job validation loop (python dominance tests)."""
    for j in instance.jobs:
        if j not in allocation:
            raise ValueError(f"allocation missing job {j!r}")
        instance.pool.validate_allocation(allocation[j])


def reference_bottom_level_priority(instance, allocation, times) -> dict[JobId, object]:
    """The pre-vectorization bottom-level priority rule: a per-node python
    sweep over the DAG, keyed exactly like the live rule."""
    order = _era_topological_order(instance.dag)
    b: dict[JobId, float] = {}
    for j in reversed(order):
        succ_best = max((b[s] for s in instance.dag.successors(j)), default=0.0)
        b[j] = times[j] + succ_best
    return {j: (-b[j], i) for i, j in enumerate(_era_topological_order(instance.dag))}


def reference_list_schedule(instance, allocation, priority=None) -> Schedule:
    """The pre-kernel Algorithm 2 loop (python per-type accounting, insort
    ready queue, full-queue scans).

    ``priority=None`` uses :func:`reference_bottom_level_priority`, the
    era-faithful default for benchmark comparisons.
    """
    if priority is None:
        priority = reference_bottom_level_priority
    _era_validate_allocation_map(instance, allocation)
    times = {j: instance.time(j, allocation[j]) for j in instance.jobs}
    keys = priority(instance, allocation, times)

    dag = instance.dag
    remaining_preds = {j: dag.in_degree(j) for j in instance.jobs}
    tie = {j: i for i, j in enumerate(_era_topological_order(dag))}
    ready: list[tuple[object, int, JobId]] = []
    for j in dag.sources():
        insort(ready, (keys[j], tie[j], j))

    avail = list(instance.pool.capacities)
    d = instance.d
    running: list[tuple[float, int, JobId]] = []
    seq = 0
    placements: dict[JobId, ScheduledJob] = {}
    now = 0.0

    while ready or running:
        still_waiting: list[tuple[object, int, JobId]] = []
        for entry in ready:
            j = entry[2]
            a = allocation[j]
            if all(a[r] <= avail[r] for r in range(d)):
                for r in range(d):
                    avail[r] -= a[r]
                placements[j] = ScheduledJob(job_id=j, start=now, time=times[j], alloc=a)
                heapq.heappush(running, (now + times[j], seq, j))
                seq += 1
            else:
                still_waiting.append(entry)
        ready = still_waiting

        if not running:
            if ready:
                raise RuntimeError("deadlock: ready jobs cannot fit an empty platform")
            break

        now, _, j = heapq.heappop(running)
        completed = [j]
        while running and running[0][0] <= now + 1e-12:
            completed.append(heapq.heappop(running)[2])
        for c in completed:
            a = allocation[c]
            for r in range(d):
                avail[r] += a[r]
            for s in dag.successors(c):
                remaining_preds[s] -= 1
                if remaining_preds[s] == 0:
                    insort(ready, (keys[s], tie[s], s))

    if len(placements) != len(instance.jobs):
        raise RuntimeError("list scheduling failed to place every job")
    return Schedule(instance=instance, placements=placements)


_COMPLETE, _RELEASE = "complete", "release"


class _PR1Kernel:
    """The PR-1 event kernel, cut down to what
    :func:`reference_pr1_list_schedule` calls: a clock, one heap of
    completions and releases, numpy-vector availability, and the loop
    that alternates dispatch passes with :data:`TIME_EPS` event batches."""

    def __init__(self, capacities) -> None:
        self.caps = np.asarray(tuple(capacities), dtype=np.int64)
        self.available = self.caps.copy()
        self.now = 0.0
        self.heap: list = []
        self.seq = 0

    def acquire(self, demand) -> None:
        self.available -= demand
        if (self.available < 0).any():
            raise RuntimeError("overcommitted")

    def release(self, demand) -> None:
        self.available += demand
        if (self.available > self.caps).any():
            raise RuntimeError("released more resources than were acquired")

    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self.heap, (float(time), self.seq, kind, payload))
        self.seq += 1

    def hold(self, payload, duration: float) -> None:
        """A completion for work whose resources the caller acquired."""
        self._push(self.now + duration, _COMPLETE, payload)

    def schedule_release(self, time: float, payload) -> None:
        self._push(time, _RELEASE, payload)

    def run(self, dispatch, handle) -> None:
        heap = self.heap
        dispatch(self)
        while heap:
            t, _, kind, payload = heapq.heappop(heap)
            self.now = t
            batch = [(kind, payload)]
            while heap and heap[0][0] <= t + TIME_EPS:
                batch.append(heapq.heappop(heap)[2:])
            for kind, payload in batch:
                handle(self, kind, payload)
            dispatch(self)


def reference_pr1_list_schedule(instance, allocation, priority=None) -> Schedule:
    """The PR-1 kernel list-schedule path, frozen verbatim.

    This is the priority-dispatch driver that shipped with the unified
    engine refactor: dict ``remaining`` bookkeeping, an ``insort``-sorted
    ready queue of ``(key, index, job)`` tuples, per-job tuple round-trips
    for resource accounting, and a vectorized feasibility prefilter for
    long queues — together with the era's per-run rebuilds (fresh Kahn
    order, python allocation validation, and, for ``priority=None``, the
    python bottom-level sweep).  The compiled-instance engine must
    reproduce its schedules exactly.
    """
    if priority is None:
        priority = reference_bottom_level_priority
    _era_validate_allocation_map(instance, allocation)
    durations = {j: instance.time(j, allocation[j]) for j in instance.jobs}
    keys = priority(instance, allocation, durations)

    placements: dict[JobId, ScheduledJob] = {}

    def on_start(j, start, duration):
        placements[j] = ScheduledJob(job_id=j, start=start, time=duration, alloc=allocation[j])

    dag = instance.dag
    order = _era_topological_order(dag)
    index = {j: i for i, j in enumerate(order)}
    d = instance.d
    rng_d = range(d)
    alloc_mat = np.zeros((len(order), d), dtype=np.int64)
    for j, i in index.items():
        alloc_mat[i] = tuple(allocation[j])
    alloc_tup = [tuple(allocation[j]) for j in order]

    remaining = {j: dag.in_degree(j) for j in order}
    kernel = _PR1Kernel(instance.pool.capacities)
    for j, r in instance.release_times().items():
        if r > 0.0:
            remaining[j] += 1
            kernel.schedule_release(r, j)

    ready: list[tuple[object, int, JobId]] = []
    for j in dag.sources():
        if remaining[j] == 0:
            insort(ready, (keys[j], index[j], j))

    freed = [0] * d
    have_freed = False

    def dispatch(k: _PR1Kernel) -> None:
        nonlocal have_freed
        if have_freed:
            k.release(freed)
            for r in rng_d:
                freed[r] = 0
            have_freed = False
        if not ready:
            return
        m = len(ready)
        fit = None
        if m > _PR1_VECTOR_SCAN_MIN:
            idxs = np.fromiter((e[1] for e in ready), dtype=np.int64, count=m)
            fit = (alloc_mat[idxs] <= k.available).all(axis=1).tolist()
            if True not in fit:
                return
        av = k.available.tolist()
        acq: list[int] | None = None
        keep: list[tuple[object, int, JobId]] = []
        for pos in range(m):
            entry = ready[pos]
            if fit is None or fit[pos]:
                a = alloc_tup[entry[1]]
                if all(map(_le, a, av)):
                    j = entry[2]
                    dur = durations[j]
                    kernel.hold(entry[1], dur)
                    if acq is None:
                        acq = list(a)
                    else:
                        for r in rng_d:
                            acq[r] += a[r]
                    for r in rng_d:
                        av[r] -= a[r]
                    on_start(j, k.now, dur)
                    continue
            keep.append(entry)
        if acq is not None:
            k.acquire(acq)
            ready[:] = keep

    def handle(k: _PR1Kernel, kind: str, payload) -> None:
        nonlocal have_freed
        if kind == _RELEASE:
            j = payload
            remaining[j] -= 1
            if remaining[j] == 0:
                insort(ready, (keys[j], index[j], j))
            return
        i = payload
        j = order[i]
        a = alloc_tup[i]
        for r in rng_d:
            freed[r] += a[r]
        have_freed = True
        for s in dag.successors(j):
            remaining[s] -= 1
            if remaining[s] == 0:
                insort(ready, (keys[s], index[s], s))

    kernel.run(dispatch, handle)

    if len(placements) != len(instance.jobs):
        raise RuntimeError("deadlock: ready jobs cannot fit an empty platform")
    return Schedule(instance=instance, placements=placements)


def reference_run_dynamic(instance, policy) -> Schedule:
    """The pre-kernel dynamic-allocation loop (Tetris/HEFT substrate)."""
    dag = instance.dag
    remaining = {j: dag.in_degree(j) for j in instance.jobs}
    ready: list[JobId] = list(dag.sources())
    avail = list(instance.pool.capacities)
    d = instance.d
    running: list[tuple[float, int, JobId]] = []
    seq = 0
    now = 0.0
    placements: dict[JobId, ScheduledJob] = {}

    while ready or running:
        while True:
            starts = policy(instance, list(ready), tuple(avail))
            if not starts:
                break
            for j, alloc in starts:
                if j not in ready:
                    raise RuntimeError(f"policy started non-ready job {j!r}")
                instance.pool.validate_allocation(alloc)
                if any(alloc[r] > avail[r] for r in range(d)):
                    raise RuntimeError(
                        f"policy overcommitted: {tuple(alloc)} vs available {tuple(avail)}"
                    )
                t = instance.time(j, alloc)
                for r in range(d):
                    avail[r] -= alloc[r]
                placements[j] = ScheduledJob(job_id=j, start=now, time=t, alloc=alloc)
                heapq.heappush(running, (now + t, seq, j))
                seq += 1
                ready.remove(j)

        if not running:
            if ready:
                raise RuntimeError("policy stalled with ready jobs and an idle platform")
            break

        now, _, j = heapq.heappop(running)
        done = [j]
        while running and running[0][0] <= now + 1e-12:
            done.append(heapq.heappop(running)[2])
        for c in done:
            a = placements[c].alloc
            for r in range(d):
                avail[r] += a[r]
            for s in dag.successors(c):
                remaining[s] -= 1
                if remaining[s] == 0:
                    ready.append(s)

    if len(placements) != len(instance.jobs):
        raise RuntimeError("dynamic engine failed to place every job")
    return Schedule(instance=instance, placements=placements)


def reference_pack_shelf_placements(
    jobs, allocation, times, capacities, *, t0: float = 0.0
) -> tuple[dict[JobId, ScheduledJob], float]:
    """The pre-kernel first-fit shelf loop shared (by copy) between the
    level-shelf baseline and Sun et al.'s pack scheduler."""
    caps = capacities
    d = len(caps)
    shelves: list[dict] = []
    for j in jobs:
        a = allocation[j]
        placed = False
        for shelf in shelves:
            if all(shelf["used"][r] + a[r] <= caps[r] for r in range(d)):
                shelf["jobs"].append(j)
                for r in range(d):
                    shelf["used"][r] += a[r]
                placed = True
                break
        if not placed:
            shelves.append({"jobs": [j], "used": list(a), "height": times[j]})
    placements: dict[JobId, ScheduledJob] = {}
    for shelf in shelves:
        for j in shelf["jobs"]:
            placements[j] = ScheduledJob(job_id=j, start=t0, time=times[j], alloc=allocation[j])
        t0 += shelf["height"]
    return placements, t0


def reference_backfill_plan(instance, allocation, times, order) -> dict[JobId, ScheduledJob]:
    """The pre-kernel conservative-backfilling reservation loop."""
    reserved: dict[JobId, ScheduledJob] = {}
    pending = list(order)
    caps = instance.pool.capacities
    d = instance.d

    def earliest_fit(est: float, alloc, duration: float) -> float:
        points = sorted({est} | {r.finish for r in reserved.values() if r.finish > est})
        for t in points:
            end = t + duration
            ok = True
            probes = [t] + [r.start for r in reserved.values() if t < r.start < end - 1e-12]
            for probe in probes:
                usage = [0] * d
                for r in reserved.values():
                    if r.start <= probe + 1e-12 and probe < r.finish - 1e-12:
                        for i in range(d):
                            usage[i] += r.alloc[i]
                if any(usage[i] + alloc[i] > caps[i] for i in range(d)):
                    ok = False
                    break
            if ok:
                return t
        return max((r.finish for r in reserved.values()), default=est)

    while pending:
        progressed = False
        for j in list(pending):
            preds = instance.dag.predecessors(j)
            if any(p not in reserved for p in preds):
                continue
            est = max((reserved[p].finish for p in preds), default=0.0)
            start = earliest_fit(est, allocation[j], times[j])
            reserved[j] = ScheduledJob(job_id=j, start=start, time=times[j], alloc=allocation[j])
            pending.remove(j)
            progressed = True
        if not progressed:
            raise RuntimeError("backfill planning stalled")
    return reserved


def reference_malleable_task_starts(instance) -> dict:
    """The pre-kernel unit-time-stepped malleable loop."""
    inst = instance
    outer_remaining = {j: inst.dag.in_degree(j) for j in inst.jobs}
    job_tasks_left = {j: inst.jobs[j].n_tasks for j in inst.jobs}
    open_jobs = [j for j in inst.dag.topological_order() if outer_remaining[j] == 0]

    intra_remaining = {
        j: {t: inst.jobs[j].tasks.in_degree(t) for t in inst.jobs[j].tasks.nodes()}
        for j in inst.jobs
    }
    ready = [
        (j, t)
        for j in open_jobs
        for t, k in intra_remaining[j].items()
        if k == 0
    ]
    task_start: dict = {}
    step = 0
    total = sum(job_tasks_left.values())

    while len(task_start) < total:
        if not ready:
            raise RuntimeError("malleable scheduler stalled")
        avail = list(inst.pool.capacities)
        started = []
        leftover = []
        for j, t in ready:
            r = inst.jobs[j].rtype[t]
            if avail[r] > 0:
                avail[r] -= 1
                task_start[(j, t)] = step
                started.append((j, t))
            else:
                leftover.append((j, t))
        ready = leftover
        newly_open = []
        for j, t in started:
            job_tasks_left[j] -= 1
            for s in inst.jobs[j].tasks.successors(t):
                intra_remaining[j][s] -= 1
                if intra_remaining[j][s] == 0:
                    ready.append((j, s))
            if job_tasks_left[j] == 0:
                for nxt in inst.dag.successors(j):
                    outer_remaining[nxt] -= 1
                    if outer_remaining[nxt] == 0:
                        newly_open.append(nxt)
        for j in newly_open:
            for t, k in intra_remaining[j].items():
                if k == 0:
                    ready.append((j, t))
        step += 1

    return task_start
