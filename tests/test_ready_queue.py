"""Ready-queue order identity and compaction remapping tests.

The session loop's ready queue *is* the sorted ``(key, index)`` list of
queued rows (``IncrementalPriorityLoop.rq``, maintained with ``insort``
and ``del``) — that total order is what makes a faithfully-driven session
reproduce the batch schedule event for event.  The oracle here rebuilds
the list from the per-row states and keys, so what it pins is the
maintenance: every insertion, removal, compaction remap and checkpoint
round trip leaves exactly the list a fresh sort would give.  Beside the
list the loop caches a ``uint64`` demand column while the queue is longer
than ``_VECTOR_QUEUE`` and the images fit a word (d · bits ≤ 64);
``_assert_column`` holds the invariant stated in the class docstring.

Two hypothesis properties drive a live session through randomized
submit / advance / cancel interleavings and check both after every verb,
through mid-stream compactions: one over 10-job instances across workload
families, priority schedulers and d ∈ {1..6} (always the short side: the
in-order scan), one over 150–400 mostly independent jobs on a platform
where a handful fit, whose queue crosses ``_VECTOR_QUEUE`` upward at
``submit`` and downward while draining (the vector pass, the column
patched, gathered and dropped, strict checkpoint round trips while it is
live) and whose cancel-free draws must equal ``list_schedule`` event for
event.

The compaction unit tests pin the other half of the contract: the
``dead >= threshold * rows`` / ``rows >= min_rows`` trigger, and the
``old2new`` remap of every piece of parallel state — ready indices, heap
completion codes, heap release codes (bitwise-complement encoded),
predecessor/successor wiring and archived-predecessor resolution for
rows appended *after* the compaction.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.list_scheduler import explicit_priority, list_schedule
from repro.dag.graph import DAG
from repro.engine.dispatch import _VECTOR_BATCH, _VECTOR_QUEUE, J_QUEUED, J_WAITING
from repro.experiments.workloads import WORKLOAD_FAMILIES, random_instance
from repro.instance.instance import Instance
from repro.jobs.candidates import make_candidates
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector
from repro.service.checkpoint import checkpoint_session, restore_session
from repro.service.session import STATE_NAMES, JobSpec, SchedulingSession

from helpers import run_out

_DIAGONAL = make_candidates("diagonal", levels=6)

#: Scalar priority rules (session keys must be exactly
#: float64-representable, so the tuple-keyed rules stay out).
_SCHEDULERS = ("fifo", "lpt", "spt", "random")


def _fixed_allocation(inst, d):
    table = (
        inst.candidate_table(_DIAGONAL) if d >= 5 else inst.candidate_table()
    )
    return {j: min(es, key=lambda e: e.time * e.area).alloc for j, es in table.items()}


def _priority_keys(inst, alloc, scheduler, seed):
    order = inst.dag.topological_order()
    if scheduler == "fifo":
        return {j: i for i, j in enumerate(order)}
    if scheduler == "lpt":
        return {j: -inst.time(j, alloc[j]) for j in order}
    if scheduler == "spt":
        return {j: inst.time(j, alloc[j]) for j in order}
    perm = np.random.default_rng(seed).permutation(len(order))
    return {j: int(perm[i]) for i, j in enumerate(order)}


def _specs(inst, alloc, keys, releases):
    return [
        JobSpec(
            id=repr(j),
            demand=tuple(int(a) for a in alloc[j]),
            duration=inst.time(j, alloc[j]),
            preds=tuple(repr(u) for u in inst.dag.predecessors(j)),
            release=releases.get(j, 0.0),
            key=keys[j],
        )
        for j in inst.dag.topological_order()
    ]


def _assert_insort_order(loop):
    """The property: the queue IS the sorted ``(key, index)`` list of
    queued rows — what a fresh sort of the per-row states would give."""
    key = loop.key
    ref = sorted((key[i], i) for i, s in enumerate(loop.state) if s == J_QUEUED)
    assert list(loop.rq) == ref


def _assert_column(loop):
    """The demand column is a cache of the list: there iff the queue is
    long and the images fit a ``uint64``, and then equal to the queued
    rows' images position for position."""
    rq, rp = loop.rq, loop.rp
    assert (rp is None) == (not loop.layout.packable or len(rq) <= _VECTOR_QUEUE)
    if rp is not None:
        assert rp.dtype == np.uint64
        assert rp[:len(rq)].tolist() == [loop.packed[i] for _, i in rq]


def _assert_queue(session):
    _assert_insort_order(session.loop)
    _assert_column(session.loop)


def _json_fork(session, *, via_json=True):
    """checkpoint → (JSON text →) restore; the restored ready queue (the
    snapshot stores none: restore derives it from the queued rows) must be
    the oracle's indices."""
    snap = checkpoint_session(session)
    loop = session.loop
    key = loop.key
    fork = restore_session(json.loads(json.dumps(snap)) if via_json else snap)
    assert [i for _, i in fork.loop.rq] == [
        i for _, i in sorted((key[i], i) for i, s in enumerate(loop.state) if s == J_QUEUED)
    ]
    return fork


@given(
    family=st.sampled_from(WORKLOAD_FAMILIES),
    scheduler=st.sampled_from(_SCHEDULERS),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_ready_queue_realizes_insort_total_order(family, scheduler, d, seed):
    pool = ResourcePool.uniform(d, 8)
    inst = random_instance(family, 10, pool, seed=seed).instance
    alloc = _fixed_allocation(inst, d)
    keys = _priority_keys(inst, alloc, scheduler, seed)
    rng = np.random.default_rng(seed + 1)
    order = inst.dag.topological_order()
    # future releases on a random subset exercise the waiting -> queued
    # release transition alongside predecessor completions
    releases = {
        j: float(rng.uniform(0.0, 5.0)) for j in order if rng.random() < 0.3
    }
    specs = _specs(inst, alloc, keys, releases)
    session = SchedulingSession(
        pool.capacities, compact_threshold=0.4, compact_min_rows=4
    )
    n = len(specs)
    k = 0
    dead: set = set()  # cancelled ids: their descendants never get submitted
    _assert_insort_order(session.loop)
    while k < n:
        size = int(rng.integers(1, n - k + 1))
        chunk = []
        for sp in specs[k:k + size]:
            if any(p in dead for p in sp.preds):
                dead.add(sp.id)
            else:
                chunk.append(sp)
        k += size
        if chunk:
            session.submit(chunk)
        _assert_insort_order(session.loop)
        act = rng.random()
        if act < 0.5:
            session.advance(session.now + float(rng.uniform(0.0, 3.0)))
        elif act < 0.75:
            state = session.loop.state
            pending = [
                session.loop.order[i]
                for i, s in enumerate(state)
                if s in (J_WAITING, J_QUEUED)
            ]
            if pending:
                dead.update(
                    session.cancel(pending[int(rng.integers(len(pending)))])
                )
        _assert_insort_order(session.loop)
    session.drain()
    _assert_insort_order(session.loop)
    assert session.loop.L == 0
    session.validate()


def _bag_instance(n, d, seed):
    """``n`` mostly independent rigid jobs on ``d`` types of capacity 8,
    demands 2–5 (two or three fit at once).  Keys follow the submission
    (= topological) order in steps of five — the backlog is served roughly
    first come first served, so a session can advance while most of the bag
    is still unsubmitted — with ties inside a step, ints and floats mixed
    and a few half-steps.  Returns ``(instance, allocation, keys, specs)``,
    specs in submission order."""
    rng = np.random.default_rng(seed)
    nodes = list(range(n))
    edges = sorted(
        {(int(rng.integers(0, j)), j) for j in range(1, n) if rng.random() < 0.15}
    )
    dag = DAG(nodes=nodes, edges=edges)
    order = dag.topological_order()
    durations = dict(zip(nodes, rng.uniform(0.5, 2.0, n).tolist()))
    demands = dict(zip(nodes, rng.integers(2, 6, size=(n, d)).tolist()))
    releases = {
        j: float(rng.uniform(0.0, 30.0)) if rng.random() < 0.1 else 0.0 for j in nodes
    }
    keys = {}
    for pos, j in enumerate(order):
        step = pos // 5
        k = step if step % 2 else float(step)
        keys[j] = k + 0.5 if rng.random() < 0.1 else k
    jobs = {
        j: Job(id=j, time_fn=lambda alloc, t=durations[j]: t, release=releases[j])
        for j in nodes
    }
    inst = Instance(jobs=jobs, dag=dag, pool=ResourcePool.uniform(d, 8))
    alloc = {j: ResourceVector(tuple(demands[j])) for j in nodes}
    specs = [
        JobSpec(
            id=j,
            demand=tuple(demands[j]),
            duration=durations[j],
            preds=tuple(dag.predecessors(j)),
            release=releases[j],
            key=keys[j],
        )
        for j in order
    ]
    return inst, alloc, keys, specs


def _assert_archive_summaries(session, submitted):
    """``status`` and ``makespan`` read running values for the archived
    rows: they must equal a recount over every id ever submitted and the
    latest finish of the realized schedule."""
    counts = dict.fromkeys(STATE_NAMES, 0)
    for jid in submitted:
        counts[session.state_of(jid)] += 1
    assert session.status()["states"] == counts
    assert session.makespan() == max(
        (p.finish for p in session.to_schedule().placements.values()), default=0.0
    )


@given(
    n=st.integers(150, 400),
    d=st.sampled_from((1, 4, 12, 13)),  # 5-bit fields: 13 types are 65 bits
    seed=st.integers(0, 2**31 - 1),
    cancels=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_long_queue_crosses_the_vector_threshold_both_ways(n, d, seed, cancels):
    inst, alloc, keys, specs = _bag_instance(n, d, seed)
    batch = list_schedule(inst, alloc, explicit_priority(keys))
    rng = np.random.default_rng(seed + 1)
    session = SchedulingSession(
        inst.pool.capacities, compact_threshold=0.2, compact_min_rows=8
    )
    submitted: list = []
    dead: set = set()  # cancelled ids: their descendants never get submitted
    was_live = False  # the column existed at some point

    def check():
        nonlocal was_live
        _assert_queue(session)
        was_live = was_live or session.loop.rp is not None

    def submit(size):
        nonlocal k
        chunk = []
        for sp in specs[k:k + size]:
            if any(p in dead for p in sp.preds):
                dead.add(sp.id)
            else:
                chunk.append(sp)
        k += size
        if chunk:
            session.submit(chunk)
            submitted.extend(sp.id for sp in chunk)

    # the opening block alone is a long queue: the crossing upward, at submit
    k = 0
    submit(_VECTOR_QUEUE + 40)
    check()
    assert (session.loop.rp is not None) == (d <= 12)
    while k < n or session.loop.pending or session.loop.L:
        act = rng.random()
        if k < n and act < 0.35:
            submit((1, 3, 40)[int(rng.integers(3))])
        elif act < 0.75:
            until = session.now + float(rng.uniform(0.0, 4.0))
            if k < n:
                # faithful: strictly below every unsubmitted job's batch start
                # (once the clock is within a few ulps of it, the 0.999 step
                # rounds up to it, so step to the float just below instead;
                # with the clock at the horizon there is no such float, and
                # the clock stays put)
                horizon = min(batch.placements[sp.id].start for sp in specs[k:])
                until = min(until, session.now + 0.999 * (horizon - session.now))
                if until >= horizon:
                    until = float(np.nextafter(horizon, -np.inf))
            if until >= session.now:
                session.advance(until)
        elif act < 0.85:
            session = _json_fork(session)
        elif cancels:
            queued = [i for _, i in session.loop.rq]
            if queued:
                victim = queued[int(rng.integers(len(queued)))]
                dead.update(session.cancel(session.loop.order[victim]))
        check()
        if rng.random() < 0.1:
            _assert_archive_summaries(session, submitted)
    session = _json_fork(session)
    _assert_archive_summaries(session, submitted)
    assert session.loop.rp is None and was_live == (d <= 12)
    assert session.compactions > 0
    session.validate()
    if not dead:
        placements = session.to_schedule().placements
        assert {j: (p.start, p.time, tuple(p.alloc)) for j, p in placements.items()} == {
            j: (p.start, p.time, tuple(p.alloc)) for j, p in batch.placements.items()
        }


def _backlog(nqueued, *, keys=None, caps=(4, 4)):
    """A session whose whole platform is held by one long job, with
    ``nqueued`` unit jobs queued behind it (key = ``keys[i]``, default a
    fixed shuffle) — a ready queue of exactly that length at clock 0."""
    if keys is None:
        keys = np.random.default_rng(7).permutation(nqueued).tolist()
    s = SchedulingSession(caps, compact_threshold=None)
    s.submit(
        [JobSpec("blocker", caps, 100.0, key=-1)]
        + [JobSpec(f"q{i}", (1,) * len(caps), 1.0, key=k) for i, k in enumerate(keys)]
    )
    s.advance(0.0)
    assert s.loop.L == nqueued
    return s


class TestColumnCache:
    """Both sides of ``_VECTOR_QUEUE`` and the crossing, deterministically."""

    @pytest.mark.parametrize(
        "nqueued",
        # a few fixed lengths, and the constant's own neighbourhood
        sorted({5, 48, 49, 144, _VECTOR_QUEUE, _VECTOR_QUEUE + 1, 3 * _VECTOR_QUEUE}),
    )
    @pytest.mark.parametrize("via_json", [True, False])
    def test_ready_column_of_a_checkpoint_is_the_oracle(self, nqueued, via_json):
        s = _backlog(nqueued)
        _assert_queue(s)
        assert (s.loop.rp is not None) == (nqueued > _VECTOR_QUEUE)
        fork = _json_fork(s, via_json=via_json)
        _assert_queue(fork)
        assert fork.loop.rq == s.loop.rq
        assert run_out(fork) == run_out(s)
        for session in (s, fork):
            session.drain()
            _assert_queue(session)

    def test_wide_images_never_get_a_column(self):
        s = _backlog(3 * _VECTOR_QUEUE, caps=(4,) * 17)  # 4-bit fields: 68 bits
        assert not s.loop.layout.packable and s.loop.rp is None
        _assert_queue(s)

    def test_cancel_first_last_middle_and_the_row_that_drops_the_column(self):
        s = _backlog(_VECTOR_QUEUE + 4)
        loop = s.loop
        for pos in (0, -1, len(loop.rq) // 2):
            _, row = loop.rq[pos]
            assert s.cancel(s.loop.order[row]) == (s.loop.order[row],)
            _assert_queue(s)
            assert loop.rp is not None
        _, row = loop.rq[3]
        s.cancel(s.loop.order[row])  # _VECTOR_QUEUE rows left: the cache goes
        assert loop.L == _VECTOR_QUEUE and loop.rp is None
        _assert_queue(s)
        s.drain()
        s.validate()
        assert s.counters.completed == _VECTOR_QUEUE + 1
        assert s.counters.cancelled == 4

    def test_column_is_patched_where_the_list_is(self):
        """Few rows while the queue is long: inserted into the list and the
        column at the same positions, the column's buffer reused until it
        has no room; a block of ``_VECTOR_BATCH`` or more gathers it anew."""
        s = _backlog(_VECTOR_QUEUE + 1)
        loop = s.loop
        buf = loop.rp
        s.submit([JobSpec("front", (1, 1), 1.0, key=-0.5),
                  JobSpec("back", (2, 1), 1.0, key=1e9),
                  JobSpec("tie", (1, 2), 1.0, key=7)])
        assert loop.rp is buf
        assert [loop.rq[0][0], loop.rq[-1][0]] == [-0.5, 1e9]
        _assert_queue(s)
        blocks = 0
        while loop.rp is buf:
            fits = loop.L + 3 <= buf.shape[0]
            s.submit([JobSpec(f"m{blocks}.{i}", (1, 1), 1.0, key=20.5) for i in range(3)])
            assert (loop.rp is buf) == fits
            _assert_queue(s)
            blocks += 1
        assert blocks > 1
        buf = loop.rp
        s.submit([JobSpec(f"b{i}", (1, 1), 1.0, key=float(i)) for i in range(_VECTOR_BATCH)])
        assert loop.rp is not buf
        _assert_queue(s)
        s.drain()
        _assert_queue(s)
        s.validate()

    def test_mixed_int_and_float_keys_with_ties(self):
        keys = [3, 3.0, 2.5, 3, 2.5, 3.0]
        s = _backlog(len(keys), keys=keys)
        row = s.loop.index
        want = [(2.5, row["q2"]), (2.5, row["q4"]), (3, row["q0"]),
                (3.0, row["q1"]), (3, row["q3"]), (3.0, row["q5"])]
        assert list(s.loop.rq) == want
        # 3 == 3.0: the tie falls to the index, and the key keeps its type
        assert [type(k) for k, _ in s.loop.rq] == [float, float, int, float, int, float]
        fork = _json_fork(s)
        assert fork.loop.rq == want
        assert [type(k) for k, _ in fork.loop.rq] == [type(k) for k, _ in s.loop.rq]
        replies = run_out(s)
        assert run_out(fork) == replies
        assert [e["id"] for e in replies if e["event"] == "start"] == [
            "q2", "q4", "q0", "q1", "q3", "q5"
        ]


class TestCompactionTrigger:
    def test_below_min_rows_never_compacts(self):
        s = SchedulingSession([8], compact_threshold=0.5, compact_min_rows=5)
        s.submit([JobSpec(f"j{i}", (2,), 1.0) for i in range(4)])
        s.drain()  # every row is dead, but the table is below the floor
        assert s.compactions == 0
        assert len(s.archive) == 0
        assert len(s.loop.order) == 4

    def test_threshold_fires_at_exact_fraction(self):
        # capacity 2, demand 2: the four jobs run strictly serially, so
        # the dead fraction climbs 0.25 at a time across a 4-row table
        s = SchedulingSession([2], compact_threshold=0.5, compact_min_rows=4)
        s.submit([JobSpec(j, (2,), 1.0) for j in "abcd"])
        s.advance(1.0)
        assert s.counters.completed == 1
        assert s.compactions == 0  # 1/4 dead < 0.5
        s.advance(2.0)
        assert s.counters.completed == 2
        assert s.compactions == 1  # 2/4 dead >= 0.5: fires on the boundary
        assert s.archive.ids == ["a", "b"]
        assert s.loop.order == ["c", "d"]
        s.drain()
        assert s.state_of("a") == "done" and s.state_of("d") == "done"

    def test_cancelled_rows_count_as_dead(self):
        s = SchedulingSession([4], compact_threshold=0.5, compact_min_rows=4)
        s.submit(
            [
                JobSpec("a", (4,), 5.0),
                JobSpec("b", (1,), 1.0, release=10.0),
                JobSpec("c", (1,), 1.0, preds=("b",)),
                JobSpec("d", (1,), 1.0, release=12.0),
            ]
        )
        assert s.cancel("b") == ("b", "c")  # cascade: 2/4 rows dead
        s.advance(0.5)  # compaction piggybacks on the next verb
        assert s.compactions == 1
        assert sorted(s.archive.ids) == ["b", "c"]
        assert s.loop.order == ["a", "d"]

    def test_threshold_none_disables(self):
        s = SchedulingSession([2], compact_threshold=None, compact_min_rows=1)
        s.submit([JobSpec(j, (2,), 1.0) for j in "abcd"])
        s.drain()
        assert s.compactions == 0 and len(s.archive) == 0

    def test_bad_settings_rejected(self):
        with pytest.raises(ValueError, match="compact_threshold"):
            SchedulingSession([2], compact_threshold=1.5)
        with pytest.raises(ValueError, match="compact_min_rows"):
            SchedulingSession([2], compact_min_rows=0)


class TestCompactionRemapping:
    def _mid_flight_session(self):
        """Archived rows at the *front* of the table, so every survivor's
        index shifts: a running completion (positive heap code), a pending
        release (negative heap code), two queued rows and succ wiring all
        need the old2new remap."""
        s = SchedulingSession([4, 4], compact_threshold=None)
        s.submit(
            [
                JobSpec("a", (2, 2), 1.0, key=0),
                JobSpec("b", (2, 2), 1.0, key=1),
                JobSpec("blocker", (4, 4), 10.0, preds=("a", "b"), key=2),
                JobSpec("q1", (1, 1), 1.0, preds=("a",), key=9),
                JobSpec("q2", (1, 1), 1.0, preds=("a",), key=3),
                JobSpec("late", (1, 1), 1.0, release=20.0, key=4),
            ]
        )
        s.advance(1.5)
        # a, b done; blocker running (holds all capacity); q1/q2 queued
        # behind it; late waiting on its release event
        assert s.state_of("a") == "done" and s.state_of("b") == "done"
        assert s.state_of("blocker") == "running"
        assert s.state_of("q1") == "queued" and s.state_of("q2") == "queued"
        assert s.state_of("late") == "waiting"
        return s

    def test_remap_of_ready_heap_and_wiring(self):
        s = self._mid_flight_session()
        s._compact()
        assert s.compactions == 1
        assert s.archive.ids == ["a", "b"]
        loop = s.loop
        assert loop.order == ["blocker", "q1", "q2", "late"]
        # ready queue: indices remapped, (key, index) order intact
        assert list(loop.rq) == [(3, loop.index["q2"]), (9, loop.index["q1"])]
        _assert_insort_order(loop)
        # heap codes: blocker's completion (code >= 0, the new index) and
        # late's release (code < 0, bitwise complement of the new index)
        codes = sorted(c for (_, _, c) in loop.heap)
        assert codes == sorted([loop.index["blocker"], ~loop.index["late"]])
        # archived predecessors moved into ext_preds by id; live wiring
        # (none here — blocker's preds are both archived) stays indexed
        assert loop.preds[loop.index["blocker"]] == ()
        assert sorted(loop.ext_preds[loop.index["blocker"]]) == ["a", "b"]
        assert loop.succ[loop.index["blocker"]] == []

    def test_compacted_session_drains_identically(self):
        plain = self._mid_flight_session()
        compacted = self._mid_flight_session()
        compacted._compact()
        for s in (plain, compacted):
            # appending after the remap: the new row's predecessor is
            # archived (resolved by id through the done-set), its index
            # lands past the compacted table's end
            s.submit([JobSpec("post", (1, 1), 2.0, preds=("a",), key=8)])
            s.advance(25.0)
            s.drain()
            s.validate()
        assert compacted.compactions == 1 and plain.compactions == 0
        assert (
            compacted.to_schedule().placements == plain.to_schedule().placements
        )
        assert compacted.makespan() == plain.makespan()

    def test_release_event_fires_after_remap(self):
        s = self._mid_flight_session()
        s._compact()
        s.advance(21.0)
        assert s.state_of("late") in ("running", "done")
        s.drain()
        s.validate()
        assert s.counters.completed == 6
