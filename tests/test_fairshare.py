"""The admission queue: per-request bookkeeping, per-job results.

:class:`~repro.service.fairshare.FairQueue` buffers a whole request per
call (``enqueue_many``) and drains by run-length stride; what it admits,
in what order, with which virtual times, is decided by the per-job rule
it replaced.  That rule is kept frozen in ``helpers.reference_fair_queue``
and the hypothesis property here holds the queue to it — output order
*and* bit-equal ``vtime`` / ``_vfloor`` — however the arrival stream is
chunked into requests.  The unit tests pin what the property cannot: who
owns the wall-clock stamps, and how ``max_pending`` counts.
"""

import math

import pytest
from helpers import reference_fair_queue
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.fairshare import FairQueue
from repro.service.session import JobSpec

#: 3.0 and 0.1 make the stride increment non-dyadic: their running sums
#: round, so "the same additions in the same order" is a real constraint.
_WEIGHTS = (1.0, 2.0, 3.0, 0.1, 0.5)
_TENANTS = ("a", "b", "c", "d")


def spec(jid, tenant="default", preds=()):
    return JobSpec(jid, (1,), 1.0, preds=tuple(preds), tenant=tenant)


@st.composite
def _streams(draw):
    """Segments of an arrival stream; each is ``(jobs, cuts, op)``: the
    jobs that arrive, where the requests carrying them are cut, and what
    happens after the last one (nothing, a drain, a cascading cancel, a
    weight change)."""
    tenants = _TENANTS[: draw(st.integers(1, len(_TENANTS)))]
    weights = {t: draw(st.sampled_from(_WEIGHTS)) for t in tenants}
    segments = []
    nxt = 0
    for _ in range(draw(st.integers(1, 6))):
        jobs = []
        for _ in range(draw(st.integers(0, 12))):
            # tenants arrive in runs as well as interleaved
            tenant = draw(st.sampled_from(tenants))
            for _ in range(draw(st.integers(1, 3))):
                preds = ()
                if nxt and draw(st.integers(0, 3)) == 0:
                    preds = (draw(st.integers(0, nxt - 1)),)
                jobs.append(spec(nxt, tenant, preds))
                nxt += 1
        cuts = sorted(draw(st.sets(st.integers(0, len(jobs)), max_size=4)))
        op = draw(st.sampled_from(("none", "drain", "drain", "cancel", "weight")))
        arg = None
        if op == "cancel" and nxt:
            arg = draw(st.integers(0, nxt - 1))
        elif op == "weight":
            arg = (draw(st.sampled_from(tenants)), draw(st.sampled_from(_WEIGHTS)))
        segments.append((jobs, cuts, op, arg))
    return weights, segments


def _state(q):
    return (
        q.buffered,
        q._vfloor,
        {n: (t.vtime, t.weight, [s.id for s in t.buffer]) for n, t in q.tenants.items()},
    )


@settings(max_examples=150, deadline=None)
@given(
    stream=_streams(),
    limit=st.sampled_from((None, None, 1, 2, 5)),
)
def test_requests_of_any_size_admit_what_the_per_job_loop_admits(stream, limit):
    weights, segments = stream
    queue, ref = FairQueue(), reference_fair_queue()
    for name, w in weights.items():
        queue.set_weight(name, w)
        ref.set_weight(name, w)
    stamp = 0.0
    for jobs, cuts, op, arg in segments:
        # the reference sees the segment as one request, the queue sees it
        # cut into several: chunking must not show
        assert ref.submit(jobs, stamp, limit) == [
            jid
            for lo, hi in zip([0, *cuts], [*cuts, len(jobs)])
            for jid in queue.enqueue_many(jobs[lo:hi], stamp, limit)
        ]
        stamp += 1.0
        if op == "drain":
            assert [s.id for s in queue.drain_fair()] == [s.id for s in ref.drain_fair()]
        elif op == "cancel" and arg is not None:
            gone, ref_gone = queue.cascade({arg}), ref.cascade({arg})
            assert gone == ref_gone
            assert queue.remove_ids(gone) == ref.remove_ids(ref_gone)
        elif op == "weight":
            queue.set_weight(*arg)
            ref.set_weight(*arg)
        # == on floats: bit-equal vtimes and floor, not merely close
        assert _state(queue) == _state(ref)
        if ref.buffered:
            assert queue.oldest_stamp() == ref.oldest_stamp()
    assert [s.id for s in queue.drain_fair()] == [s.id for s in ref.drain_fair()]
    assert _state(queue) == _state(ref)


def test_run_length_drain_interleaves_by_stride():
    q = FairQueue()
    q.set_weight("a", 3.0)
    q.enqueue_many(
        [spec(f"a{i}", "a") for i in range(6)] + [spec(f"b{i}", "b") for i in range(2)],
        0.0,
    )
    # a pays 1/3 per job, b pays 1; ties go to the smaller name
    assert [s.id for s in q.drain_fair()] == ["a0", "b0", "a1", "a2", "a3", "b1", "a4", "a5"]
    assert q.buffered == 0 and q.drain_fair() == []


def test_drain_terminates_when_a_vtime_overflows():
    q = FairQueue()
    q.set_weight("a", 1e-308)  # two jobs push the virtual time to inf
    q.enqueue_many([spec(i, "a") for i in range(4)], 0.0)
    assert [s.id for s in q.drain_fair()] == [0, 1, 2, 3]
    assert q.tenants["a"].vtime == math.inf


class TestWeightRule:
    """``set_weight`` is the only way a weight gets in: it refuses what
    the stride arithmetic cannot carry, and a refusal changes nothing."""

    @staticmethod
    def _loaded():
        q = FairQueue()
        q.set_weight("hog", 2.0)
        q.enqueue_many(
            [spec(f"a{i}", "a") for i in range(2)]
            + [spec(f"hog{i}", "hog") for i in range(4)],
            0.0,
        )
        return q

    @pytest.mark.parametrize(
        "weight",
        [True, math.inf, 1e-320, pytest.param(10**400, id="int-past-float"),
         0, -1, math.nan, None],
    )
    def test_refused_and_nothing_moves(self, weight):
        q = self._loaded()
        before = _state(q)
        for name in ("a", "newcomer"):
            with pytest.raises((ValueError, TypeError), match="positive|number"):
                q.set_weight(name, weight)
        assert _state(q) == before  # weights, vtimes, floor; no tenant created
        # a at weight 1, hog at weight 2: the order of the accepted weights
        assert [s.id for s in q.drain_fair()] == [
            "a0", "hog0", "hog1", "a1", "hog2", "hog3",
        ]
        assert q._vfloor == 2.0

    @pytest.mark.parametrize("weight", [0.1, 3, 1e300, 1e-308])
    def test_accepted_as_a_float(self, weight):
        q = self._loaded()
        q.set_weight("a", weight)
        w = q.weight_of("a")
        assert w == weight and type(w) is float
        assert 0.0 < 1.0 / w < math.inf
        assert len(q.drain_fair()) == 6


class TestStamps:
    def test_oldest_stamp_is_per_request(self):
        q = FairQueue()
        assert q.oldest_stamp() == math.inf
        q.enqueue_many([spec("old"), spec("old2")], 1.0)
        q.enqueue_many([spec("young")], 1.9)
        assert q.oldest_stamp() == 1.0
        # half of the oldest request gone: the rest of it still waits
        assert q.remove_ids({"old"}) == ["old"]
        assert q.oldest_stamp() == 1.0
        # all of it gone: younger jobs must not inherit its wait
        assert q.remove_ids({"old2"}) == ["old2"]
        assert q.oldest_stamp() == 1.9
        assert [s.id for s in q.drain_fair()] == ["young"]
        assert q.oldest_stamp() == math.inf

    def test_a_wholly_refused_request_leaves_no_stamp(self):
        q = FairQueue()
        q.enqueue_many([spec("a")], 5.0, limit=1)
        assert q.enqueue_many([spec("b"), spec("c")], 0.0, limit=1) == ["b", "c"]
        assert q.oldest_stamp() == 5.0 and q.buffered == 1


class TestBackpressure:
    def test_limit_is_per_tenant_and_counts_what_is_buffered(self):
        q = FairQueue()
        jobs = [spec("a0", "a"), spec("a1", "a"), spec("b0", "b"), spec("a2", "a")]
        assert q.enqueue_many(jobs, 0.0, limit=2) == ["a2"]
        assert q.depths() == {"a": 2, "b": 1}
        assert q.enqueue_many([spec("a3", "a"), spec("b1", "b")], 0.0, limit=2) == ["a3"]
        q.drain_fair()
        assert q.enqueue_many([spec("a4", "a")], 0.0, limit=2) == []
