"""Tests for the online scheduling session (service subsystem tentpole).

Covers the incremental re-entrant dispatch loop and the rows it owns, the
session verbs (submit / cancel / advance / drain) and — the
acceptance criterion — event-for-event identity between a
submission-order-faithful session and the batch compiled engine.
"""

import json
import math
import pickle
import sys
from collections import OrderedDict

import numpy as np
import pytest

from helpers import ruler_rigid_instance, run_out
from repro.conformance.fuzz import (
    drive_session_faithfully,
    portable_events,
    service_specs,
    submit_horizons,
)
from repro.core.list_scheduler import fifo_priority, list_schedule
from repro.dag.generators import layered_random
from repro.dag.graph import DAG
from repro.engine.dispatch import _VECTOR_QUEUE, IncrementalPriorityLoop
from repro.experiments.workloads import random_instance
from repro.instance.instance import Instance, with_poisson_arrivals, with_release_times
from repro.jobs.candidates import make_candidates
from repro.jobs.job import Job
from repro.obs import MetricsRegistry
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector
from repro.service.checkpoint import checkpoint_session, restore_session
from repro.service.session import JobSpec, SchedulingSession


def diamond_session(caps=(4, 4)):
    s = SchedulingSession(caps)
    s.submit(
        [
            JobSpec("a", (2, 1), 1.0),
            JobSpec("b", (2, 2), 2.0, preds=("a",)),
            JobSpec("c", (3, 1), 1.5, preds=("a",)),
            JobSpec("d", (1, 1), 0.5, preds=("b", "c")),
        ]
    )
    return s


def fixed_allocation(inst, d):
    strat = make_candidates("diagonal", levels=6) if d >= 5 else None
    table = inst.candidate_table(strat) if strat is not None else inst.candidate_table()
    return {j: min(es, key=lambda e: e.time * e.area).alloc for j, es in table.items()}


class TestLoopRows:
    """A live session's rows: the loop appends, wires and packs them; the
    session's ``validate_row`` checks one before it is admitted."""

    @staticmethod
    def _admit(loop, ids, preds, demands):
        k = len(ids)
        loop.admit(
            ids, preds, [()] * k, demands, [1.0] * k, list(range(k)), [0.0] * k,
            [len(p) for p in preds],
        )

    def test_append_and_structure(self):
        loop = IncrementalPriorityLoop([4, 4])
        self._admit(loop, ["a", "b"], [(), (0,)], [(2, 1), (1, 1)])
        a, b = 0, 1
        assert loop.index == {"a": a, "b": b}
        assert loop.order == ["a", "b"]
        assert loop.succ[a] == [b]
        assert loop.preds[b] == (a,)
        assert loop.layout.packable
        assert loop.layout.bits == 4  # capacity 4: three bits and the headroom bit
        assert loop.packed[a] == (1 << 4) + 2 == loop.layout.images([(2, 1)])[0]

    def test_unpackable_platforms(self):
        # packable <=> d * bits <= 64
        assert IncrementalPriorityLoop([2] * 21).layout.packable
        assert not IncrementalPriorityLoop([2] * 22).layout.packable
        assert not IncrementalPriorityLoop([1 << 15] * 4).layout.packable
        assert IncrementalPriorityLoop([(1 << 15) - 1] * 4).layout.packable
        # the image exists either way: fields as wide as the capacities need
        loop = IncrementalPriorityLoop([1 << 15, 3])
        assert loop.layout.bits == 17
        self._admit(loop, ["a"], [()], [(1 << 15, 2)])
        assert loop.packed == [(2 << 17) + (1 << 15)]

    def test_validation_errors(self):
        s = SchedulingSession([4, 4])
        s.submit([JobSpec("a", (1, 1), 1.0)])
        with pytest.raises(ValueError, match="already submitted"):
            s.validate_row("a", (1, 1), 1.0)
        with pytest.raises(ValueError, match="1 amounts for 2 resource types"):
            s.validate_row("b", (1,), 1.0)
        with pytest.raises(ValueError, match="exceeds capacities"):
            s.validate_row("b", (5, 1), 1.0)
        with pytest.raises(ValueError, match="at least one unit"):
            s.validate_row("b", (0, 0), 1.0)
        with pytest.raises(ValueError, match="duration"):
            s.validate_row("b", (1, 1), 0.0)
        with pytest.raises(ValueError, match="duration"):
            s.validate_row("b", (1, 1), float("inf"))
        with pytest.raises(ValueError, match="release"):
            s.validate_row("b", (1, 1), 1.0, release=-1.0)
        with pytest.raises(ValueError, match="release"):
            s.validate_row("b", (1, 1), 1.0, release=float("inf"))
        assert s.validate_row("b", [1, 1], 1.0) == (1, 1)
        # an amount must equal its integer value: lowered, or refused —
        # never truncated
        assert s.validate_row("b", (2.0, np.int64(1)), 1.0) == (2, 1)
        assert all(type(a) is int for a in s.validate_row("b", (2.0, np.int64(1)), 1.0))
        for bad in ((2.7, 1), ("1", 1), (float("nan"), 1), (float("inf"), 1)):
            with pytest.raises(ValueError, match="job 'b': "):
                s.validate_row("b", bad, 1.0)
        with pytest.raises(ValueError, match="capacities must be a positive"):
            IncrementalPriorityLoop([])


_BASE = {"id": "j", "demand": [1, 2], "duration": 1.5}

#: every refusal of ``JobSpec.from_dict``: (test id, record, exact message)
_REFUSALS = [
    ("not-an-object", ["id"], "job record must be an object, got list"),
    ("null", None, "job record must be an object, got NoneType"),
    ("unknown-fields", {**_BASE, "nope": 1, "alsonope": 2}, "unknown job fields: ['alsonope', 'nope']"),
    ("missing-id", {"demand": [1], "duration": 1.0}, "job record missing required field 'id'"),
    ("missing-demand", {"id": "j", "duration": 1.0}, "job record missing required field 'demand'"),
    ("missing-duration", {"id": "j", "demand": [1]}, "job record missing required field 'duration'"),
    (
        "duration-text",
        {**_BASE, "duration": "soon"},
        "job record has a malformed duration: could not convert string to float: 'soon'",
    ),
    (
        "duration-past-float",
        {**_BASE, "duration": 10**400},
        "job record has a malformed duration: int too large to convert to float",
    ),
    ("bool-id", {**_BASE, "id": True}, "job id True must be a string or integer"),
    ("list-id", {**_BASE, "id": ["l"]}, "job id ['l'] must be a string or integer"),
    ("float-id", {**_BASE, "id": 1.5}, "job id 1.5 must be a string or integer"),
    ("scalar-demand", {**_BASE, "demand": 3}, "job 'j': demand must be a list of per-type amounts"),
    ("string-demand", {**_BASE, "demand": "12"}, "job 'j': demand must be a list of per-type amounts"),
    (
        "nested-demand",
        {**_BASE, "demand": [[1], 2]},
        "job 'j': malformed record: int() argument must be a string, "
        "a bytes-like object or a real number, not 'list'",
    ),
    (
        "text-amount",
        {**_BASE, "demand": ["x", 2]},
        "job 'j': malformed record: invalid literal for int() with base 10: 'x'",
    ),
    ("bare-string-preds", {**_BASE, "preds": "j10"}, "job 'j': preds must be a list of job ids"),
    ("empty-string-preds", {**_BASE, "preds": ""}, "job 'j': preds must be a list of job ids"),
    ("nested-preds", {**_BASE, "preds": [["x"]]}, "job 'j': predecessor ['x'] must be a string or integer"),
    ("bool-pred", {**_BASE, "preds": [True]}, "job 'j': predecessor True must be a string or integer"),
    ("preds-null", {**_BASE, "preds": None}, "job 'j': malformed record: 'NoneType' object is not iterable"),
    (
        "release-null",
        {**_BASE, "release": None},
        "job 'j': malformed record: float() argument must be a string "
        "or a real number, not 'NoneType'",
    ),
    (
        "release-past-float",
        {**_BASE, "release": 10**400},
        "job 'j': malformed record: int too large to convert to float",
    ),
    # amounts: never truncated (2.7 -> 2 and "1" -> 1 used to be admitted)
    (
        "fractional-amounts",
        {**_BASE, "demand": [2.7, "1"]},
        "job 'j': malformed record: demand amounts must be whole numbers, got [2.7, '1']",
    ),
    (
        "nan-amount",
        {**_BASE, "demand": [float("nan"), 1]},
        "job 'j': malformed record: cannot convert float NaN to integer",
    ),
    # a JSON boolean is not a number (True == 1 used to be admitted as one)
    (
        "bool-amount",
        {**_BASE, "demand": [True, 1]},
        "job 'j': malformed record: demand amounts must be whole numbers, got [True, 1]",
    ),
    (
        "numpy-bool-amount",
        {**_BASE, "demand": [1, np.True_]},
        "job 'j': malformed record: demand amounts must be whole numbers, got [1, np.True_]",
    ),
    (
        "bool-duration",
        {**_BASE, "duration": True},
        "job record has a malformed duration: expected a number, got True",
    ),
    (
        "bool-release",
        {**_BASE, "release": False},
        "job 'j': malformed record: expected a number, got False",
    ),
    # json.loads reads 1e400 as inf; int(inf) raises OverflowError
    (
        "inf-amount",
        {**_BASE, "demand": [float("inf"), 1]},
        "job 'j': malformed record: cannot convert float infinity to integer",
    ),
]


class _MyInt(int):
    pass


class _MyStr(str):
    pass


class _MyList(list):
    pass


def _subclassed(rec):
    """The same record out of subclasses of every builtin it holds, so
    none of ``from_dict``'s exact-type tests can pass."""
    if not isinstance(rec, dict):
        return rec

    def sub(x):
        if isinstance(x, bool):
            return x
        if isinstance(x, int):
            return _MyInt(x)
        if isinstance(x, str):
            return _MyStr(x)
        if isinstance(x, list):
            return _MyList(x)
        return x

    return OrderedDict((k, sub(v)) for k, v in rec.items())


class TestJobSpec:
    def test_is_a_row(self):
        a = JobSpec("a", (2, 1), 1.0, ("p",), 3.0, 7, "acme")
        b = JobSpec(id="a", demand=(2, 1), duration=1.0, preds=("p",), release=3.0,
                    key=7, tenant="acme")
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != b._replace(tenant="other")
        assert JobSpec("a", (1,), 1.0)[3:] == ((), 0.0, None, "default")
        assert JobSpec._fields == (
            "id", "demand", "duration", "preds", "release", "key", "tenant"
        )
        assert pickle.loads(pickle.dumps(a)) == a
        with pytest.raises(AttributeError):
            a.tenant = "other"
        # a batch of rows transposes to its columns
        ids, demands, *_ = zip(a, b._replace(id="b"))
        assert ids == ("a", "b") and demands == ((2, 1), (2, 1))

    @pytest.mark.parametrize("wrap", (lambda r: r, _subclassed), ids=("builtin", "subclass"))
    @pytest.mark.parametrize(
        "rec, message", [pytest.param(r, m, id=slug) for slug, r, m in _REFUSALS]
    )
    def test_every_refusal_and_its_message(self, rec, message, wrap):
        with pytest.raises(ValueError) as exc:
            JobSpec.from_dict(wrap(rec))
        assert str(exc.value) == message

    @pytest.mark.parametrize("wrap", (lambda r: r, _subclassed), ids=("builtin", "subclass"))
    def test_accepted_records(self, wrap):
        full = {**_BASE, "preds": ["a", 3], "release": 2, "key": 1.5, "tenant": "t"}
        spec = JobSpec.from_dict(wrap(full))
        assert spec == JobSpec("j", (1, 2), 1.5, ("a", 3), 2.0, 1.5, "t")
        assert type(spec.release) is float and JobSpec.from_dict(spec.to_dict()) == spec
        assert JobSpec.from_dict(wrap(_BASE)) == JobSpec("j", (1, 2), 1.5)
        assert JobSpec.from_dict(wrap({**_BASE, "id": 7})).id == 7
        # the one coercion: whatever names the tenant is its str()
        assert JobSpec.from_dict(wrap({**_BASE, "tenant": None})).tenant == "None"
        assert JobSpec.from_dict(wrap({**_BASE, "tenant": 7})).tenant == "7"
        # whole amounts in other clothes are the amount
        spec = JobSpec.from_dict(wrap({**_BASE, "demand": [2.0, np.int64(1)]}))
        assert spec.demand == (2, 1) and all(type(a) is int for a in spec.demand)
        assert JobSpec.from_dict(wrap({**_BASE, "duration": 3})).duration == 3.0
        assert JobSpec.from_dict(wrap({**_BASE, "duration": "3"})).duration == 3.0


class TestSessionBasics:
    def test_diamond_drain(self):
        s = diamond_session()
        s.drain()
        sched = s.to_schedule()
        assert len(sched.placements) == 4
        # a at 0; b at 1; c waits for b's type-0 units (2+3 > 4)
        assert sched.placements["a"].start == 0.0
        assert sched.placements["b"].start == 1.0
        assert sched.placements["c"].start == 3.0
        assert sched.placements["d"].start == 4.5
        s.validate()
        assert s.state_of("d") == "done"

    def test_advance_semantics(self):
        s = diamond_session()
        events = s.advance(1.0)
        kinds = [(e["event"], e["id"]) for e in events]
        assert ("start", "a") in kinds and ("finish", "a") in kinds
        assert s.now == 1.0
        # time only moves forward, even to a no-event point
        s.advance(1.25)
        assert s.now == 1.25
        with pytest.raises(ValueError, match="backwards"):
            s.advance(1.0)

    @pytest.mark.parametrize("until", (float("nan"), float("inf"), -float("inf")))
    def test_advance_refuses_non_finite_times(self, until):
        """NaN used to drain every event, inf to pin the clock at inf."""
        s = diamond_session()
        s.advance(1.0)
        before = (s.now, s.status(), s.available(), s.loop.pending)
        with pytest.raises(ValueError, match="non-finite"):
            s.advance(until)
        assert (s.now, s.status(), s.available(), s.loop.pending) == before
        s.drain()
        assert s.makespan() == 5.0  # a 0-1, b 1-3, c 3-4.5, d 4.5-5

    def test_capacities_past_int64(self):
        """Amounts numpy cannot lower take the scalar validation path —
        and the loop's python-int demand image has no width limit."""
        s = SchedulingSession([1 << 70, 3])
        s.submit(
            [
                JobSpec("a", (1 << 70, 1), 1.0),
                JobSpec("b", (1, 3), 2.0),
                JobSpec("c", ((1 << 70) - 1, 0), 1.0),
                JobSpec("d", (5, 1), 1.0, preds=("a",)),
            ]
        )
        with pytest.raises(ValueError, match="exceeds capacities"):
            s.submit([JobSpec("e", ((1 << 70) + 1, 1), 1.0)])
        s.drain()
        placed = s.to_schedule().placements
        # a fills type 0; b waits for it, c (one unit short of everything)
        # fits beside b, d then waits for b's three units of type 1
        assert {j: p.start for j, p in placed.items()} == {
            "a": 0.0, "b": 1.0, "c": 1.0, "d": 3.0,
        }
        assert s.available() == (1 << 70, 3)

    def test_submit_all_or_nothing(self):
        s = SchedulingSession([4])
        with pytest.raises(ValueError, match="unknown predecessor"):
            s.submit(
                [
                    JobSpec("ok", (1,), 1.0),
                    JobSpec("bad", (1,), 1.0, preds=("missing",)),
                ]
            )
        assert s.status()["jobs"] == 0  # the valid job was not admitted either
        # row-level problems (demand bounds, durations, releases) must also
        # reject before any admission, not mid-loop
        for bad in (
            JobSpec("bad", (9,), 1.0),
            JobSpec("bad", (1,), -2.0),
            JobSpec("bad", (1,), 1.0, release=float("inf")),
        ):
            with pytest.raises(ValueError):
                s.submit([JobSpec("ok", (1,), 1.0), bad])
            assert s.status()["jobs"] == 0
        s.submit([JobSpec("ok", (1,), 1.0)])  # the batch retries cleanly

    @pytest.mark.parametrize(
        "batches",
        (
            [[JobSpec("x", (8, 8), 1e308), JobSpec("y", (8, 8), 1e308)]],
            [[JobSpec("x", (8, 8), 1e307)] , [JobSpec("y", (8, 8), 1e308)]],
            [[JobSpec("x", (8, 8), 1e308, release=1e308)]],
            # max + ulp/4 + ulp/4 is max summed in this order, inf when the
            # keys run the two small jobs first: (ulp/4 + ulp/4) + max
            [[JobSpec("x", (8, 8), sys.float_info.max, key=3),
              JobSpec("y", (8, 8), 2.0**969, key=1),
              JobSpec("z", (8, 8), 2.0**969, key=2)]],
        ),
        ids=("one-batch", "two-submits", "release-plus-duration", "reassociated"),
    )
    def test_work_past_float_range_is_refused(self, batches):
        """Each job is positive and finite; ``1e308 + 1e308`` is not — the
        second finish used to pin the clock at ``inf`` (as a non-finite
        ``advance`` once did)."""
        s = SchedulingSession([8, 8])
        with pytest.raises(ValueError, match="leaves the float64 range"):
            for batch in batches:
                s.submit(batch)
        assert s.status()["jobs"] == len(batches) - 1  # the refused batch: no row
        s.submit([JobSpec("ok", (8, 8), 2.0)])
        s.drain()
        assert math.isfinite(s.now) and math.isfinite(s.makespan())

    def test_fractional_amounts_are_refused_not_truncated(self):
        """(2.7, "1") used to be admitted and served as allocation (2, 1)."""
        s = SchedulingSession([4, 4])
        for bad in ((2.7, 1), ("1", 1), (float("nan"), 1), (1, float("inf"))):
            with pytest.raises(ValueError, match="job 'bad': "):
                s.submit([JobSpec("bad", bad, 1.0)])
            # all-or-nothing, with the only bad row the last of the batch
            with pytest.raises(ValueError, match="job 'bad': "):
                s.submit([JobSpec("ok", (1, 1), 1.0), JobSpec("ok2", (2, 2), 1.0),
                          JobSpec("bad", bad, 1.0)])
            assert s.status()["jobs"] == 0
        # whole amounts of any numeric type are lowered to python ints
        s.submit([JobSpec("a", (2.0, 1), 1.0), JobSpec("b", np.array([1, 2]), 1.0)])
        assert s.loop.demand == [(2, 1), (1, 2)]
        assert all(type(a) is int for row in s.loop.demand for a in row)
        s.drain()
        assert s.to_schedule().placements["a"].alloc == ResourceVector((2, 1))

    def test_submit_validation(self):
        s = SchedulingSession([4])
        with pytest.raises(ValueError, match="string or integer"):
            s.submit([JobSpec(("tuple", "id"), (1,), 1.0)])
        with pytest.raises(ValueError, match="key must be numeric"):
            s.submit([JobSpec("k", (1,), 1.0, key="high")])
        s.submit([JobSpec("a", (1,), 1.0)])
        with pytest.raises(ValueError, match="already submitted"):
            s.submit([JobSpec("a", (1,), 1.0)])

    def test_submit_from_protocol_dicts(self):
        s = SchedulingSession([4, 4])
        s.submit([{"id": "x", "demand": [2, 1], "duration": 1.5}])
        assert s.state_of("x") == "queued"
        with pytest.raises(ValueError, match="unknown job fields"):
            s.submit([{"id": "y", "demand": [1, 1], "duration": 1.0, "nope": 1}])
        with pytest.raises(ValueError, match="missing required field"):
            s.submit([{"id": "y", "demand": [1, 1]}])

    def test_release_gating(self):
        s = SchedulingSession([4])
        s.submit([JobSpec("late", (1,), 1.0, release=5.0)])
        s.advance(4.0)
        assert s.state_of("late") == "waiting"
        s.advance(5.0)
        assert s.state_of("late") == "running"
        s.drain()
        sched = s.to_schedule()
        assert sched.placements["late"].start == 5.0

    def test_release_in_the_past_is_available_now(self):
        s = SchedulingSession([4])
        s.advance(10.0)
        s.submit([JobSpec("old", (1,), 1.0, release=2.0)])
        s.drain()
        sched = s.to_schedule()
        assert sched.placements["old"].start == 10.0

    def test_priority_keys_order_queue(self):
        # one unit: jobs run one at a time, in key order, FIFO on ties
        s = SchedulingSession([1])
        s.submit(
            [
                JobSpec("low", (1,), 1.0, key=2.0),
                JobSpec("high", (1,), 1.0, key=-1.0),
                JobSpec("mid", (1,), 1.0, key=0.5),
            ]
        )
        s.drain()
        sched = s.to_schedule()
        order = sorted(sched.placements, key=lambda j: sched.placements[j].start)
        assert order == ["high", "mid", "low"]

    def test_empty_session(self):
        s = SchedulingSession([2, 2])
        s.drain()
        sched = s.to_schedule()
        assert len(sched.placements) == 0 and sched.makespan == 0.0
        s.validate()
        assert s.status()["states"]["done"] == 0


class TestCancellation:
    def test_cancel_pending_cascades(self):
        s = diamond_session()
        s.advance(0.5)  # a running, b/c/d pending
        cancelled = s.cancel("b")
        assert cancelled == ("b", "d")
        s.drain()
        sched = s.to_schedule()
        assert set(sched.placements) == {"a", "c"}
        s.validate()
        assert [e["id"] for e in s.cancellations()] == ["b", "d"]

    def test_cancel_running_or_done_is_too_late(self):
        s = diamond_session()
        s.advance(0.5)
        assert s.cancel("a") == ()  # running
        s.drain()
        assert s.cancel("d") == ()  # done

    def test_cancel_unknown_raises(self):
        s = diamond_session()
        with pytest.raises(KeyError):
            s.cancel("nope")

    def test_cancelled_predecessor_rejects_submission(self):
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (1,), 1.0, release=1.0)])
        s.cancel("a")
        with pytest.raises(ValueError, match="was cancelled"):
            s.submit([JobSpec("b", (1,), 1.0, preds=("a",))])

    def test_cancel_frees_nothing_but_unblocks_queue_slot(self):
        s = SchedulingSession([1])
        s.submit([JobSpec("r", (1,), 1.0, release=2.0), JobSpec("x", (1,), 5.0)])
        s.cancel("r")
        s.drain()
        sched = s.to_schedule()
        assert set(sched.placements) == {"x"}
        s.validate()

    def test_cancel_purges_pending_release_from_the_clock(self):
        # a cancelled far-future arrival must not drag the session clock
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (2,), 1.0), JobSpec("late", (1,), 1.0, release=1000.0)])
        s.cancel("late")
        s.drain()
        assert s.now == 1.0  # the last completion, not the phantom release
        s.advance(5.0)  # and time still moves forward normally
        assert s.now == 5.0

    def test_nan_priority_key_rejected(self):
        # NaN would corrupt the sorted (key, index) queue order
        s = SchedulingSession([4])
        with pytest.raises(ValueError, match="key must be numeric"):
            s.submit([JobSpec("a", (1,), 1.0, key=float("nan"))])
        assert s.status()["jobs"] == 0


class TestBatchIdentity:
    """The acceptance criterion: faithful sessions == batch engine."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("arrivals", ["offline", "poisson"])
    def test_faithful_interleaving_identity(self, d, arrivals):
        pool = ResourcePool.uniform(d, 8)
        inst = random_instance("layered", 18, pool, seed=d).instance
        if arrivals == "poisson":
            inst = with_poisson_arrivals(inst, 2.0, seed=d)
        alloc = fixed_allocation(inst, d)
        batch = list_schedule(inst, alloc, fifo_priority)
        session = drive_session_faithfully(inst, alloc, seed=17 * d, checkpoint=False,
                                           horizons=submit_horizons(inst, batch))
        sched = session.to_schedule()
        session.validate()
        assert len(sched.placements) == inst.n
        for j, p in batch.placements.items():
            q = sched.placements[repr(j)]
            assert (q.start, q.time, tuple(q.alloc)) == (p.start, p.time, tuple(p.alloc))

    @pytest.mark.parametrize("driver", ["plain", "checkpointed", "metrics_on"])
    def test_open_loop_stream_equals_batch(self, driver):
        """A contended stream: rigid jobs on a 6 × 40 layered DAG (d = 4,
        capacity 24) with Poisson releases just under the batch service
        rate, submitted 64 a chunk with an advance to each chunk's last arrival,
        reproduces the batch schedule event for event through mid-stream
        compactions — plain, through a checkpoint and a hot restore at
        the halfway chunk, and with a metrics registry bound."""
        inst, alloc = ruler_rigid_instance(6, 40, seed=0)
        gaps = np.random.default_rng(0).exponential(1 / 1.8, size=inst.n)
        online = with_release_times(
            inst, dict(zip(inst.dag.topological_order(), np.cumsum(gaps).tolist()))
        )
        specs = service_specs(online, alloc)
        batch = list_schedule(online, alloc, fifo_priority)
        session = SchedulingSession(inst.pool.capacities, compact_min_rows=96)
        if driver == "metrics_on":
            session.bind_metrics(MetricsRegistry())
        for k in range(0, inst.n, 64):
            if driver == "checkpointed" and k == 128:
                session = restore_session(checkpoint_session(session))
            chunk = specs[k:k + 64]
            session.submit(chunk)
            session.advance(chunk[-1].release, events=False)
        session.drain()
        session.validate()
        assert session.compactions >= 1
        assert portable_events(session.to_schedule(), reprify=False) == portable_events(
            batch, reprify=True
        )

    def test_single_shot_submit_equals_batch(self):
        pool = ResourcePool.uniform(3, 8)
        inst = random_instance("cholesky", 20, pool, seed=5).instance
        alloc = fixed_allocation(inst, 3)
        batch = list_schedule(inst, alloc, fifo_priority)
        session = SchedulingSession(pool.capacities)
        session.submit(service_specs(inst, alloc))
        session.drain()
        sched = session.to_schedule()
        assert {j: (p.start, p.time) for j, p in sched.placements.items()} == {
            repr(j): (p.start, p.time) for j, p in batch.placements.items()
        }


def _rigid_session_starts(dag, capacities, demands, durations):
    """Submit the rigid jobs whole, stop mid-schedule, fork through a JSON
    checkpoint (strict restore) and run both sessions out.  Asserts that
    the two runs reply the same events and that every start is
    ``list_schedule``'s; returns ``(packable, queue length after the first
    pass, (id, start) log)``."""
    jobs = {j: Job(id=j, time_fn=lambda alloc, t=durations[j]: t) for j in dag.nodes()}
    inst = Instance(jobs=jobs, dag=dag, pool=ResourcePool.of(*capacities))
    alloc = {j: ResourceVector(tuple(demands[j])) for j in jobs}
    batch = list_schedule(inst, alloc, fifo_priority)
    session = SchedulingSession(capacities)
    session.submit(service_specs(inst, alloc))
    replies = session.advance(0.0)
    queued = session.loop.L
    replies += session.advance(batch.makespan / 2)
    fork = restore_session(json.loads(json.dumps(checkpoint_session(session))))
    assert fork.available() == session.available()
    tail = run_out(session)
    assert run_out(fork) == tail
    started = [e for e in replies + tail if e["event"] == "start"]
    assert {e["id"]: (e["time"], tuple(e["alloc"])) for e in started} == {
        repr(j): (p.start, tuple(demands[j])) for j, p in batch.placements.items()
    }
    return session.loop.layout.packable, queued, [(e["id"], e["time"]) for e in started]


@pytest.mark.parametrize("boundary", ("capacity", "fifth-type", "long-queue"))
def test_session_packing_boundary_identity(boundary):
    """The session twin of ``test_packing_boundary_identity``: the same
    demands either side of ``loop.layout.packable`` — ``d = 4`` at capacity
    ``2**15 - 1`` vs ``2**15``, ``d = 12`` vs ``d = 13`` at capacity 12 with
    a last type nobody asks for (the parameter id dates from the boundary
    having been the fifth type), the latter also with a queue past
    ``_VECTOR_QUEUE`` (vector pass on the packable side, in-order scan on
    the other) — start every job where ``list_schedule`` does, before and
    after a checkpoint round trip (which restores availability through
    the layout's packer)."""
    rng = np.random.default_rng(41)
    if boundary == "long-queue":
        # two or three sources fit at once: the rest stay queued, past the
        # length where the packable side switches to its vector pass
        nsrc = _VECTOR_QUEUE + 24
        nodes = list(range(nsrc + 8))
        dag = DAG(nodes=nodes, edges=[(i, nsrc + i % 8) for i in range(nsrc)])
    else:
        dag = layered_random(6, 12, seed=41)
        nodes = list(dag.nodes())
    durations = dict(zip(nodes, rng.uniform(0.5, 2.0, len(nodes)).tolist()))
    if boundary == "capacity":
        # demands are multiples of 3 and neither 2**15 - 1 nor 2**15 is:
        # no sum of them lands on the one unit the capacities differ by
        rows = (3 * rng.integers(1, 4000, size=(len(nodes), 4))).tolist()
        demands = dict(zip(nodes, rows))
        narrow = _rigid_session_starts(dag, (2**15 - 1,) * 4, demands, durations)
        wide = _rigid_session_starts(dag, (2**15,) * 4, demands, durations)
    else:
        rows = rng.integers(1, 7, size=(len(nodes), 12)).tolist()
        narrow = _rigid_session_starts(
            dag, (12,) * 12, dict(zip(nodes, rows)), durations
        )
        wide = _rigid_session_starts(
            dag, (12,) * 13, {j: r + [0] for j, r in zip(nodes, rows)}, durations
        )
    assert narrow[0] and not wide[0]
    assert narrow[2] == wide[2]
    if boundary == "long-queue":
        assert narrow[1] == wide[1] > _VECTOR_QUEUE
