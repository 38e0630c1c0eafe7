"""The batch dispatch loop (``PriorityLoop.run``): one demand encoding, two
forms of the dispatch pass, one output (the start log).

The contract under test: whether the demand images fit a ``uint64``
(``layout.packable``) and whether a pass scanned the queue in order or tested
it whole over the demand column are execution details — start logs are
identical event for event, and equal to the frozen per-event PR-1 loop.
So is the exhausted-platform cut: a pass that stops once some type has
less free than any job of the instance asks of it (``loop.gmin``) starts
what the full scan starts, and the counts at the end say it is taken.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    REFERENCE_TWINS,
    reference_pr1_list_schedule,
    ruler_rigid_instance,
    tiny_instance,
)
from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    list_schedule,
    list_schedule_log,
    lpt_priority,
)
from repro.dag.generators import layered_random
from repro.dag.graph import DAG
from repro.engine.dispatch import (
    _VECTOR_BATCH,
    _VECTOR_QUEUE,
    PriorityLoop,
    priority_loop,
)
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


def _times(inst, alloc):
    """The duration array a rule and ``priority_loop`` take, in topological order."""
    return np.array([inst.time(j, alloc[j]) for j in inst.compiled().order])


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
    ref = reference_pr1_list_schedule(inst, alloc, REFERENCE_TWINS[rule])
    assert _events(sched) == _events(ref)


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
# the start log: the million-job measurement path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("d", (2, 6), ids=("packed", "general"))
@pytest.mark.parametrize("poisson", (False, True), ids=("offline", "poisson"))
def test_schedule_log_equals_object_path(d, poisson):
    """list_schedule_log is list_schedule with array output: same engine,
    same events — at d = 2 and d = 6 alike."""
    inst, alloc = _workload(d=d, seed=23, poisson=poisson)
    for rule in RULES:
        sched = list_schedule(inst, alloc, rule)
        log = list_schedule_log(inst, alloc, rule)
        assert log.job_index.size == len(inst.jobs)
        assert log.makespan == sched.makespan
        assert _events(log.to_schedule(inst, alloc)) == _events(sched)


# ----------------------------------------------------------------------
# images wider than a word (d * bits > 64) beside the word side
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
    """The same demands either side of ``layout.packable`` (``d * bits <= 64``)
    give one start log: ``d = 4`` at capacity ``2**15 - 1`` (16-bit fields,
    one word) vs ``2**15`` (17-bit fields, 68 bits), and ``d = 12`` at
    capacity 12 (5-bit fields, 60 bits) vs ``d = 13`` with a last type
    nobody asks for (65 bits; the parameter id dates from the boundary
    having been the fifth type)."""
    rng = np.random.default_rng(41)
    dag = layered_random(6, 12, seed=41)
    nodes = list(dag.nodes())
    durations = dict(zip(nodes, rng.uniform(0.5, 2.0, len(nodes)).tolist()))
    if boundary == "capacity":
        # demands are multiples of 3 and neither 2**15 - 1 nor 2**15 is:
        # no sum of them lands on the one unit the capacities differ by
        rows = (3 * rng.integers(1, 4000, size=(len(nodes), 4))).tolist()
        word = _rigid(dag, (2**15 - 1,) * 4, dict(zip(nodes, rows)), durations)
        wide = _rigid(dag, (2**15,) * 4, dict(zip(nodes, rows)), durations)
    else:
        rows = rng.integers(1, 7, size=(len(nodes), 12)).tolist()
        word = _rigid(dag, (12,) * 12, dict(zip(nodes, rows)), durations)
        wide = _rigid(
            dag, (12,) * 13, {j: r + [0] for j, r in zip(nodes, rows)}, durations
        )
    assert word[0].compiled().layout.packable and not wide[0].compiled().layout.packable
    assert _start_logs(*word) == _start_logs(*wide)


def test_matrix_batches_equal_per_event_reference():
    """d=6, at capacity 12 (one word) and at ``2**11`` (78-bit images): a
    release-only batch and a simultaneous-completion batch, both of at
    least ``_VECTOR_BATCH`` events, and a release-only batch below that
    size, against the per-event PR-1 loop."""
    k = _VECTOR_BATCH
    first = [("a", i) for i in range(k)]       # start at 0, all finish at 1
    late = [("r", i) for i in range(k + 2)]    # released together at 0.5
    few = [("s", i) for i in range(2)]         # released together at 0.75
    second = [("b", i) for i in range(k)]      # two parents each, shared
    edges = [(("a", i), ("b", i)) for i in range(k)]
    edges += [(("a", (i + 1) % k), ("b", i)) for i in range(k)]
    dag = DAG(nodes=first + late + few + second, edges=edges)
    durations = {j: 1.0 for j in dag.nodes()}
    durations.update({j: 2.0 for j in late})
    releases = {**{j: 0.5 for j in late}, **{j: 0.75 for j in few}}
    # k + 4 jobs fit at once on either platform
    for unit, capacity, packable in ((1, k + 4, True), (2**11 // (k + 4), 2**11, False)):
        demands = {j: (unit,) * 6 for j in dag.nodes()}
        inst, alloc = _rigid(dag, (capacity,) * 6, demands, durations, releases)
        assert inst.compiled().layout.packable == packable
        for rule in RULES:
            sched = list_schedule(inst, alloc, rule)
            ref = reference_pr1_list_schedule(inst, alloc, REFERENCE_TWINS[rule])
            assert _events(sched) == _events(ref)
        # the release-only batch fit-tested its own jobs: 4 of k + 2 had room
        starts = sorted(p.start for p in sched.placements.values())
        assert starts[:k + 4] == [0.0] * k + [0.5] * 4


# ----------------------------------------------------------------------
# the long side: the demand column, both ways across _VECTOR_QUEUE
# ----------------------------------------------------------------------
#: (capacities, amount scale): two word platforms (d = 3, and d = 6 at
#: 6-bit fields) and two wide ones (78 and 78+ bits); the scale keeps "the
#: same sets of jobs fit" across them
_PLATFORMS = {
    "word-d3": ((24,) * 3, 1),
    "word-d6": ((24,) * 6, 1),
    "wide-d6": ((2**11,) * 6, 2**11 // 24),
    "wide-d13": ((24,) * 13, 1),
}


def _long_queue_instance(n, platform, seed):
    """Three phases, each crossing ``_VECTOR_QUEUE``:

    * a bag of ``n`` mostly independent jobs at time 0, two or three of
      which fit at once — the queue starts long and drains through the
      constant; its first ``_VECTOR_BATCH + 2`` jobs are small, equally
      long and longest of all (under every rule they start together and
      finish as one batch of simultaneous completions, while the queue is
      long) and feed shared children;
    * ``_VECTOR_QUEUE + 30`` jobs released together long after the bag has
      drained: one release-only batch, the leftovers inserted as a block
      into a short queue;
    * a blocker holding the whole platform while ``_VECTOR_QUEUE + 10``
      jobs are released one by one: the queue grows past the constant a
      row at a time, then is patched row by row.
    """
    capacities, scale = _PLATFORMS[platform]
    d = len(capacities)
    rng = np.random.default_rng(seed)
    k = _VECTOR_BATCH + 2
    nodes = list(range(n))
    edges = {(int(rng.integers(0, j)), j) for j in range(k, n) if rng.random() < 0.15}
    edges |= {(i, k + i) for i in range(k)} | {((i + 1) % k, k + i) for i in range(k)}
    demands = rng.integers(8, 15, size=(n, d)).tolist()
    durations = rng.choice([0.5, 1.0, 1.5, 2.0], size=n).tolist()
    releases = {j: float(rng.uniform(0.0, 30.0)) for j in nodes[2 * k:] if rng.random() < 0.1}
    for j in range(k):
        demands[j], durations[j] = [1] * d, 3.0
    late = 1e4
    wave = list(range(n, n + _VECTOR_QUEUE + 30))
    demands += rng.integers(8, 15, size=(len(wave), d)).tolist()
    durations += rng.choice([0.5, 1.0], size=len(wave)).tolist()
    releases.update(dict.fromkeys(wave, late))
    blocker = wave[-1] + 1
    trickle = list(range(blocker + 1, blocker + 1 + _VECTOR_QUEUE + 10))
    demands += [[24] * d] + rng.integers(8, 15, size=(len(trickle), d)).tolist()
    durations += [500.0] + rng.choice([0.5, 1.0], size=len(trickle)).tolist()
    releases[blocker] = 2 * late
    releases.update({j: 2 * late + 1.0 + i for i, j in enumerate(trickle)})
    nodes += wave + [blocker] + trickle
    dag = DAG(nodes=nodes, edges=sorted(edges))
    return _rigid(
        dag, capacities,
        {j: [scale * a for a in demands[j]] for j in nodes},
        dict(zip(nodes, durations)), releases,
    )


def _assert_column(loop, pb, mat):
    """The queue is sorted, and the demand column ``pb`` just gathered is a
    cache of it: row for row the allocation of the queued jobs (``uint64``
    images where they fit)."""
    rq, layout = loop.rq, loop.ci.layout
    assert rq == sorted(set(rq)) and len(rq) > _VECTOR_QUEUE
    col = pb[:len(rq)]
    if layout.packable:
        assert col.dtype == np.uint64 and col.ndim == 1
        col = [layout.unpack(v) for v in col.tolist()]
    np.testing.assert_array_equal(col, mat[[loop.topo_l[r] for r in rq]])


@given(
    n=st.integers(3 * _VECTOR_QUEUE, 5 * _VECTOR_QUEUE),
    platform=st.sampled_from(sorted(_PLATFORMS)),
    rule=st.sampled_from(RULES),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_long_queue_crosses_the_vector_threshold_both_ways(n, platform, rule, seed):
    """The batch twin of the session property of the same name: whichever
    form each pass took, the starts are the per-event PR-1 loop's, in
    dispatch order, and every gather of the demand column caches the queue
    it was gathered from.  There are at least three: the bag's, the late
    wave's and the trickle's, the last two each after the queue before
    them drained below ``_VECTOR_QUEUE``."""
    inst, alloc = _long_queue_instance(n, platform, seed)
    ref = reference_pr1_list_schedule(inst, alloc, REFERENCE_TWINS[rule])
    ci = inst.compiled()
    assert ci.layout.packable == platform.startswith("word")
    mat = inst.validate_allocation_map(alloc)
    times = _times(inst, alloc)
    gathers: list[int] = []
    real = PriorityLoop._column

    def column(loop):
        pb = real(loop)
        _assert_column(loop, pb, mat)
        gathers.append(len(loop.rq))
        return pb

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PriorityLoop, "_column", column)
        loop = priority_loop(inst, alloc, rule(inst, alloc, times), times)
        assert loop.pb is not None  # the bag alone is a long queue
        loop.run()
    assert len(gathers) >= 3 and not loop.rq
    index, start = loop.start_log()
    starts = [(ci.order[i], t) for i, t in zip(index.tolist(), start.tolist())]
    assert starts == [(j, p.start) for j, p in ref.placements.items()]
    assert loop.now == ref.makespan


# ----------------------------------------------------------------------
# the exhausted-platform cut: exact, and taken
# ----------------------------------------------------------------------
@given(
    n=st.sampled_from((40, 3 * _VECTOR_QUEUE)),
    platform=st.sampled_from(sorted(_PLATFORMS)),
    rule=st.sampled_from(RULES),
    seed=st.integers(0, 2**31 - 1),
    zeros=st.sampled_from(("none", "some-jobs", "a-whole-type")),
)
@settings(max_examples=40, deadline=None)
def test_cut_leaves_every_event_where_it_was(n, platform, rule, seed, zeros):
    """With the cut and with ``loop.gmin = 0`` (no field of the availability
    can fall below zero, so the test never fires) the loop records the same
    start log and makespan, on word and wide images, with queues that stay
    short (``n = 40``: only the late wave and the trickle cross
    ``_VECTOR_QUEUE``) or start long, and with demands that are zero in a
    type for some jobs or for all of them."""
    inst, alloc = _long_queue_instance(n, platform, seed)
    rng = np.random.default_rng(seed)
    if zeros != "none":
        for j in alloc:
            if zeros == "a-whole-type" or rng.random() < 0.3:
                alloc[j] = ResourceVector((0,) + tuple(alloc[j][1:]))
    times = _times(inst, alloc)
    keys = rule(inst, alloc, times)

    def drive(cut):
        loop = priority_loop(inst, alloc, keys, times)
        assert loop.gmin > 0
        if zeros == "a-whole-type":
            assert loop.gmin & ((1 << loop.ci.layout.bits) - 1) == 0
        if not cut:
            loop.gmin = 0
        loop.run()
        index, start = loop.start_log()
        assert index.size == len(inst.jobs)
        return index.tolist(), start.tolist(), loop.now

    assert drive(cut=True) == drive(cut=False)


class _CountedReads(list):
    """A list that counts its ``__getitem__`` calls — put in place of
    ``loop.img_rank``, it sees every fit test and every start of a run."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


def _image_reads(inst, alloc, cut=True):
    ci = inst.compiled()
    loop = priority_loop(inst, alloc, np.arange(ci.n), _times(inst, alloc))
    if not cut:
        loop.gmin = 0
    loop.img_rank = _CountedReads(loop.img_rank)
    loop.run()
    assert loop.start_log()[0].size == ci.n
    return loop.img_rank.reads


@pytest.mark.parametrize("n", (40, 2 * _VECTOR_QUEUE), ids=("short", "long"))
def test_cut_reads_one_image_per_start_on_a_whole_type_bag(n):
    """Every job asks for all of type 0: a start exhausts the platform, and
    the pass is left — one image read per *start*, where the full scan of a
    short queue reads one per queue entry per pass."""
    dag = DAG(nodes=list(range(n)), edges=[])
    demands = {j: (4, 1 + j % 3) for j in range(n)}
    inst, alloc = _rigid(dag, (4, 6), demands, dict.fromkeys(range(n), 1.0))
    assert _image_reads(inst, alloc) == n
    if n <= _VECTOR_QUEUE:
        assert _image_reads(inst, alloc, cut=False) == n * (n + 1) // 2


@pytest.mark.parametrize("d", (4, 6), ids=("packed", "general"))
def test_cut_saves_two_reads_in_five_on_the_ruler_shape(d):
    """On a layered rigid instance of the ``rigid-batch-*`` shape (capacity
    24, demands 1–8, in-degree 8, queues of a few dozen) at least 40 % of
    the full scan's fit tests come after the platform is exhausted."""
    inst, alloc = ruler_rigid_instance(4, 400, seed=5, d=d)
    assert _image_reads(inst, alloc) <= 0.6 * _image_reads(inst, alloc, cut=False)


# ----------------------------------------------------------------------
# refusals, and the footprint
# ----------------------------------------------------------------------
@pytest.mark.parametrize("d", (2, 6))
@pytest.mark.parametrize("amount", (9, -1), ids=("over-capacity", "negative"))
def test_priority_loop_checks_an_allocation_it_lowers_itself(d, amount):
    """Without ``alloc_mat`` nobody has validated the allocation: an amount
    outside ``0..capacity`` would carry into (or borrow from) the
    neighbouring field of the image, so the job is named and refused."""
    dag = DAG(nodes=["a", "b", "c"], edges=[("a", "c")])
    inst, _ = _rigid(dag, (8,) * d, dict.fromkeys("abc", (1,) * d), dict.fromkeys("abc", 1.0))
    keys, times = np.arange(3), np.ones(3)
    # plain tuples: a ResourceVector would refuse the negative amount itself
    alloc = {"a": (1,) * d, "b": (amount,) + (1,) * (d - 1), "c": (2,) * d}
    with pytest.raises(ValueError, match="job 'b'"):
        priority_loop(inst, alloc, keys, times)
    with pytest.raises(ValueError, match="job 'c'"):
        priority_loop(inst, {**alloc, "b": (8,) * d, "c": (0,) * d}, keys, times)
    # ragged rows with n * d amounts in all: flattened, c's row would
    # borrow a's extra amount instead of being refused
    ragged = {"a": (1,) * (d + 1), "b": (8,) * d, "c": (1,) * (d - 1)}
    with pytest.raises(ValueError, match=f"job 'a'.* {d + 1} amounts for {d} "):
        priority_loop(inst, ragged, keys, times)
    loop = priority_loop(inst, {**alloc, "b": (8,) * d}, keys, times)
    loop.run()
    assert loop.start_log()[0].size == 3


def test_priority_loop_calls_nothing_back():
    """The fifth positional slot is all that is left of the per-start
    callback: ``None`` is accepted, anything else is refused with the
    per-event path named (a session streams events as time advances)."""
    inst, alloc = _workload(seed=31)
    times = _times(inst, alloc)
    keys = np.arange(len(times))
    with pytest.raises(TypeError, match="SchedulingSession"):
        priority_loop(inst, alloc, keys, times, lambda j, s, t: None)
    loop = priority_loop(inst, alloc, keys, times, None)
    loop.run()
    assert loop.start_log()[0].size == len(inst.jobs)


def test_empty_instance_loop():
    inst = Instance(jobs={}, dag=DAG(), pool=ResourcePool.uniform(2, 4))
    loop = priority_loop(inst, {}, np.zeros(0), np.zeros(0))
    loop.run()
    assert loop.now == 0.0 and loop.start_log()[0].size == 0


def test_loop_reads_the_compiled_buffers_in_place():
    """The per-event python loop walks memoryviews of the int64 arrays the
    instance was compiled to — no successor lists, no list copy of the
    readiness vector (what would cost ~400 B a job at n = 10**6)."""
    inst, alloc = _workload(n=60, seed=47)
    assert list_schedule_log(inst, alloc, bottom_level_priority).job_index.size == len(inst.jobs)
    assert inst.dag._succ_lists is None
    times = _times(inst, alloc)
    loop = priority_loop(inst, alloc, np.arange(len(times)), times)
    loop.run()
    assert isinstance(loop.remaining, np.ndarray) and loop.remaining.dtype == np.int64
    assert not loop.remaining.any()
    assert inst.dag._succ_lists is None
