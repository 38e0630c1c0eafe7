"""Ready-queue order identity and compaction remapping tests.

The array-native ready queue (parallel sorted buffers of float64 key
images, int64 row indices and, where they fit a ``uint64``, demand
images) must realize *exactly* the
sorted ``(key, index)`` list the earlier ``insort``-maintained queue held
— that total order is what makes a faithfully-driven session reproduce
the batch schedule event for event.  The hypothesis property here drives
a live session through randomized submit / advance / cancel
interleavings — across workload families, priority schedulers and
d ∈ {1..6}, covering demand images that fit the ``uint64`` queue column
(d ≤ 4: vector pass on long queues) and ones that do not (in-order scan
at any length) — and compares the queue against the reference order
after every verb, through mid-stream compactions.

The compaction unit tests pin the other half of the contract: the
``dead >= threshold * rows`` / ``rows >= min_rows`` trigger, and the
``old2new`` remap of every piece of parallel state — ready indices, heap
completion codes, heap release codes (bitwise-complement encoded),
predecessor/successor wiring and archived-predecessor resolution for
rows appended *after* the compaction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.dispatch import J_QUEUED, J_WAITING
from repro.experiments.workloads import WORKLOAD_FAMILIES, random_instance
from repro.jobs.candidates import make_candidates
from repro.resources.pool import ResourcePool
from repro.service.session import JobSpec, SchedulingSession

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
    """The property: the buffers ARE the sorted ``(key, index)`` list of
    queued rows — the representation the ``insort`` queue maintained."""
    key = loop.gi.key
    ref = sorted((key[i], i) for i, s in enumerate(loop.state) if s == J_QUEUED)
    assert loop.ready_items() == ref


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
                session.gi.order[i]
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


class TestCompactionTrigger:
    def test_below_min_rows_never_compacts(self):
        s = SchedulingSession([8], compact_threshold=0.5, compact_min_rows=5)
        s.submit([JobSpec(f"j{i}", (2,), 1.0) for i in range(4)])
        s.drain()  # every row is dead, but the table is below the floor
        assert s.compactions == 0
        assert s.archive == []
        assert len(s.gi.order) == 4

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
        assert [rec["id"] for rec in s.archive] == ["a", "b"]
        assert s.gi.order == ["c", "d"]
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
        assert sorted(rec["id"] for rec in s.archive) == ["b", "c"]
        assert s.gi.order == ["a", "d"]

    def test_threshold_none_disables(self):
        s = SchedulingSession([2], compact_threshold=None, compact_min_rows=1)
        s.submit([JobSpec(j, (2,), 1.0) for j in "abcd"])
        s.drain()
        assert s.compactions == 0 and s.archive == []

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
        assert [rec["id"] for rec in s.archive] == ["a", "b"]
        gi = s.gi
        assert gi.order == ["blocker", "q1", "q2", "late"]
        # ready queue: indices remapped, (key, index) order intact
        loop = s.loop
        assert loop.ready_items() == [(3, gi.index["q2"]), (9, gi.index["q1"])]
        _assert_insort_order(loop)
        # heap codes: blocker's completion (code >= 0, the new index) and
        # late's release (code < 0, bitwise complement of the new index)
        codes = sorted(c for (_, _, c) in loop.heap)
        assert codes == sorted([gi.index["blocker"], ~gi.index["late"]])
        # archived predecessors moved into ext_preds by id; live wiring
        # (none here — blocker's preds are both archived) stays indexed
        assert gi.preds[gi.index["blocker"]] == ()
        assert sorted(gi.ext_preds[gi.index["blocker"]]) == ["a", "b"]
        assert gi.succ[gi.index["blocker"]] == []

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
