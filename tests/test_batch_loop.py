"""The batch dispatch loop (``PriorityLoop.run``) and its two demand encodings.

The contract under test: which demand encoding the loop runs on, whether
it records starts into arrays or calls back per dispatch, and whether it
is run to completion or stepped with ``run(until)`` are execution details
— schedules are identical event for event, and equal to the frozen
per-event PR-1 loop.
"""

import numpy as np
import pytest

from helpers import tiny_instance
from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    list_schedule,
    list_schedule_log,
    lpt_priority,
)
from repro.dag.generators import layered_random
from repro.dag.graph import DAG
from repro.engine.dispatch import _VECTOR_BATCH, priority_loop
from repro.engine.reference import reference_pr1_list_schedule
from repro.experiments.workloads import random_instance
from repro.instance.instance import Instance, with_poisson_arrivals
from repro.jobs.candidates import geometric_grid
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

RULES = (fifo_priority, lpt_priority, bottom_level_priority)


def _workload(family="layered", n=30, d=3, capacity=12, seed=0, poisson=False):
    pool = ResourcePool.uniform(d, capacity)
    inst = random_instance(family, n, pool, seed=seed).instance
    if poisson:
        inst = with_poisson_arrivals(inst, 2.0, seed=seed)
    return inst, _cheapest_alloc(inst)


def _cheapest_alloc(inst):
    table = inst.candidate_table(geometric_grid)
    return {j: min(es, key=lambda e: e.time * e.area).alloc for j, es in table.items()}


def _events(schedule):
    return {j: (p.start, p.time, tuple(p.alloc)) for j, p in schedule.placements.items()}


# ----------------------------------------------------------------------
# schedule identity with the per-event reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ("layered", "cap1-diamond"))
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.__name__)
def test_batch_loop_matches_reference(rule, workload):
    if workload == "layered":
        inst, alloc = _workload(seed=3)
    else:
        inst = tiny_instance(d=2, capacity=1)
        alloc = _cheapest_alloc(inst)
    sched = list_schedule(inst, alloc, rule)
    ref = reference_pr1_list_schedule(inst, alloc, rule)
    assert _events(sched) == _events(ref)


def test_stepped_run_with_on_start_equals_uninterrupted():
    """Stepped ``run(until)`` with an ``on_start`` callback sees the
    uninterrupted run's starts: the loop state is resumable mid-schedule."""
    inst, alloc = _workload(seed=7)

    def starts_of(step):
        starts: list[tuple] = []
        loop = priority_loop(
            inst, alloc,
            {j: i for i, j in enumerate(inst.dag.topological_order())},
            {j: inst.time(j, alloc[j]) for j in inst.jobs},
            lambda j, s, t: starts.append((repr(j), round(s, 9), round(t, 9))),
        )
        until = None if step is None else 0.0
        while not loop.run(until=until):
            until += step
        return starts

    full = starts_of(None)
    assert len(full) == len(inst.jobs)
    assert starts_of(0.75) == full


def test_run_restores_gc_state():
    """The loop pauses the collector for the duration of a run (each
    allocation-triggered collection scans the whole resident instance —
    the O(n) cost that bent the scaling curve) and must restore whatever
    state the caller had, enabled or not."""
    import gc

    inst, alloc = _workload(seed=17)
    assert gc.isenabled()
    list_schedule(inst, alloc, fifo_priority)
    assert gc.isenabled()
    gc.disable()
    try:
        list_schedule(inst, alloc, fifo_priority)
        assert not gc.isenabled()
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# array start-log mode (on_start=None): the million-job measurement path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("d", (2, 6), ids=("packed", "general"))
@pytest.mark.parametrize("poisson", (False, True), ids=("offline", "poisson"))
def test_schedule_log_equals_object_path(d, poisson):
    """list_schedule_log is list_schedule with array output: same engine,
    same events — on the packed (d<=4) and matrix (d>4) encodings alike."""
    inst, alloc = _workload(d=d, seed=23, poisson=poisson)
    for rule in RULES:
        sched = list_schedule(inst, alloc, rule)
        log = list_schedule_log(inst, alloc, rule)
        assert log.job_index.size == len(inst.jobs)
        assert log.makespan == sched.makespan
        assert _events(log.to_schedule(inst, alloc)) == _events(sched)


def test_start_log_accumulates_across_bounded_runs():
    """run(until) stepping must append to the log, never overwrite it —
    the resumable-session contract in array form."""
    inst, alloc = _workload(seed=29)
    keys = {j: i for i, j in enumerate(inst.dag.topological_order())}
    times = {j: inst.time(j, alloc[j]) for j in inst.jobs}
    full = priority_loop(inst, alloc, keys, times, None)
    full.run()
    ref_i, ref_t = full.start_log()

    loop = priority_loop(inst, alloc, keys, times, None)
    done = False
    until = 0.0
    while not done:
        done = loop.run(until=until)
        until += 0.75
    out_i, out_t = loop.start_log()
    np.testing.assert_array_equal(out_i, ref_i)
    np.testing.assert_array_equal(out_t, ref_t)


def test_start_log_requires_log_mode():
    inst, alloc = _workload(seed=31)
    keys = {j: i for i, j in enumerate(inst.dag.topological_order())}
    times = {j: inst.time(j, alloc[j]) for j in inst.jobs}
    loop = priority_loop(inst, alloc, keys, times, lambda j, s, t: None)
    with pytest.raises(ValueError, match="on_start=None"):
        loop.start_log()


# ----------------------------------------------------------------------
# the matrix encoding (d > 4, or a capacity >= 2**15) on the shared body
# ----------------------------------------------------------------------
def _rigid(dag, capacities, demands, durations, releases=None):
    """``(instance, allocation)`` with everything fixed: job ``j`` asks
    for ``demands[j]`` and runs ``durations[j]`` whatever it is given."""
    jobs = {
        j: Job(id=j, time_fn=lambda alloc, t=durations[j]: t,
               release=(releases or {}).get(j, 0.0))
        for j in dag.nodes()
    }
    inst = Instance(jobs=jobs, dag=dag, pool=ResourcePool.of(*capacities))
    return inst, {j: ResourceVector(tuple(demands[j])) for j in jobs}


def _start_logs(inst, alloc):
    out = []
    for rule in RULES:
        log = list_schedule_log(inst, alloc, rule)
        assert log.job_index.size == len(inst.jobs)
        out.append((log.job_index.tolist(), log.start.tolist(), log.makespan))
    return out


@pytest.mark.parametrize("boundary", ("capacity", "fifth-type"))
def test_packing_boundary_identity(boundary):
    """The same demands either side of ``ci.packable`` give one start log:
    capacity ``2**15 - 1`` (packed) vs ``2**15`` (matrix), and ``d = 4``
    (packed) vs ``d = 5`` with a fifth type nobody asks for (matrix)."""
    rng = np.random.default_rng(41)
    dag = layered_random(6, 12, seed=41)
    nodes = list(dag.nodes())
    durations = dict(zip(nodes, rng.uniform(0.5, 2.0, len(nodes)).tolist()))
    if boundary == "capacity":
        # demands are multiples of 3 and neither 2**15 - 1 nor 2**15 is:
        # no sum of them lands on the one unit the capacities differ by
        rows = (3 * rng.integers(1, 4000, size=(len(nodes), 3))).tolist()
        packed = _rigid(dag, (2**15 - 1,) * 3, dict(zip(nodes, rows)), durations)
        matrix = _rigid(dag, (2**15,) * 3, dict(zip(nodes, rows)), durations)
    else:
        rows = rng.integers(1, 7, size=(len(nodes), 4)).tolist()
        packed = _rigid(dag, (12,) * 4, dict(zip(nodes, rows)), durations)
        matrix = _rigid(
            dag, (12,) * 5, {j: r + [0] for j, r in zip(nodes, rows)}, durations
        )
    assert packed[0].compiled().packable and not matrix[0].compiled().packable
    assert _start_logs(*packed) == _start_logs(*matrix)


def test_matrix_batches_equal_per_event_reference():
    """d=6: a release-only batch and a simultaneous-completion batch, both
    large enough for whole-array application, and a release-only batch
    below that size, against the per-event PR-1 loop."""
    k = _VECTOR_BATCH
    first = [("a", i) for i in range(k)]       # start at 0, all finish at 1
    late = [("r", i) for i in range(k + 2)]    # released together at 0.5
    few = [("s", i) for i in range(2)]         # released together at 0.75
    second = [("b", i) for i in range(k)]      # two parents each, shared
    edges = [(("a", i), ("b", i)) for i in range(k)]
    edges += [(("a", (i + 1) % k), ("b", i)) for i in range(k)]
    dag = DAG(nodes=first + late + few + second, edges=edges)
    demands = {j: (1,) * 6 for j in dag.nodes()}
    durations = {j: 1.0 for j in dag.nodes()}
    durations.update({j: 2.0 for j in late})
    releases = {**{j: 0.5 for j in late}, **{j: 0.75 for j in few}}
    inst, alloc = _rigid(dag, (k + 4,) * 6, demands, durations, releases)
    assert not inst.compiled().packable
    for rule in RULES:
        sched = list_schedule(inst, alloc, rule)
        assert _events(sched) == _events(reference_pr1_list_schedule(inst, alloc, rule))
    # the release-only batch fit-tested its own jobs: 4 of k + 2 had room
    starts = sorted(p.start for p in sched.placements.values())
    assert starts[:k + 4] == [0.0] * k + [0.5] * 4


def test_matrix_stepped_retry_equals_uninterrupted():
    """d=6: ``run(until)`` stepping with an ``on_complete`` hook that fails
    every third job once (re-run on the held allocation) sees the events
    of the uninterrupted run, in order."""
    inst, alloc = _workload(d=6, seed=37, poisson=True)
    keys = {j: i for i, j in enumerate(inst.dag.topological_order())}
    times = {j: inst.time(j, alloc[j]) for j in inst.jobs}

    def drive(step):
        events: list[tuple] = []
        failed: set = set()

        def on_complete(j, now):
            if keys[j] % 3 == 0 and j not in failed:
                failed.add(j)
                events.append(("retry", j, now))
                return times[j] / 2
            events.append(("finish", j, now))
            return None

        loop = priority_loop(
            inst, alloc, keys, times,
            lambda j, s, t: events.append(("start", j, s)),
            on_complete=on_complete,
        )
        assert not loop.packed
        until = None if step is None else 0.0
        while not loop.run(until=until):
            until += step
        assert loop.available() == tuple(inst.pool.capacities)
        return events, loop.now

    full = drive(None)
    assert sum(e[0] == "retry" for e in full[0]) == len(range(0, len(keys), 3))
    assert drive(0.4) == full
