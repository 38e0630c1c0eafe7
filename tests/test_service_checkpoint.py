"""Tests for repro-session/2 checkpoints: the exact-resume guarantee.

The satellite property: ``checkpoint → restore → drain`` is event-for-event
identical to an uninterrupted run, across workload families × schedulers ×
d ∈ {1..6} × arrival modes (hypothesis-sampled).  The v2 format is
columnar and stores the ready queue in dispatch order (hot restore); the
per-record v1 format is refused by name.
"""

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.fuzz import service_specs
from repro.experiments.workloads import WORKLOAD_FAMILIES, random_instance
from repro.instance.instance import with_poisson_arrivals
from repro.jobs.candidates import make_candidates
from repro.registry import get_scheduler
from repro.resources.pool import ResourcePool
from repro.service.checkpoint import (
    SESSION_FORMAT,
    checkpoint_session,
    load_session,
    restore_session,
    save_session,
)
from repro.service.session import JobSpec, SchedulingSession

from helpers import ReferenceHistory, reference_checkpoint, reference_event_dict

_DIAGONAL = make_candidates("diagonal", levels=6)

#: Registered schedulers that keep a fixed allocation to replay (the
#: malleable relaxation keeps none; the Sun schedulers are independent-only
#: and are covered through the ``independent`` family draw).
_SCHEDULERS = ("ours", "min_area", "min_time", "tetris", "heft", "level_shelf", "backfill")


def _roundtrip(session):
    return restore_session(json.loads(json.dumps(checkpoint_session(session))))


def _session_case(family, scheduler, d, arrivals, seed):
    """(instance, allocation) for one sampled configuration, or None when
    the combination is contractually unsupported."""
    spec = get_scheduler(scheduler)
    if spec.graphs == "independent" and family != "independent":
        return None
    pool = ResourcePool.uniform(d, 8)
    inst = random_instance(family, 8, pool, seed=seed).instance
    if arrivals == "poisson" and scheduler not in ("backfill", "level_shelf"):
        inst = with_poisson_arrivals(inst, 2.0, seed=seed)
    strategy = _DIAGONAL if d >= 5 else None
    try:
        if scheduler == "ours":
            result = (
                spec.schedule(inst, candidate_strategy=strategy)
                if strategy is not None
                else spec.schedule(inst)
            )
        else:
            result = (
                spec.schedule(inst, strategy=strategy)
                if strategy is not None
                else spec.schedule(inst)
            )
    except ValueError:
        return None  # contractual rejection (e.g. offline planner + releases)
    allocation = getattr(result, "allocation", None)
    if allocation is None:
        return None
    return inst, allocation


class TestCheckpointBasics:
    def test_save_load_file(self, tmp_path):
        s = SchedulingSession([4, 4], seed=3)
        s.submit([JobSpec("a", (2, 2), 1.0), JobSpec("b", (1, 1), 2.0, preds=("a",))])
        s.advance(0.5)
        path = tmp_path / "session.json"
        save_session(s, str(path))
        data = json.loads(path.read_text())
        assert data["format"] == SESSION_FORMAT
        s2 = load_session(str(path))
        assert s2.now == s.now
        s.drain()
        s2.drain()
        assert s.to_schedule().placements == s2.to_schedule().placements
        assert s.events == s2.events

    def test_rng_stream_resumes(self):
        s = SchedulingSession([2], seed=11)
        s.rng.random(3)
        s2 = _roundtrip(s)
        assert list(s.rng.random(4)) == list(s2.rng.random(4))

    def test_counters_and_tenants_survive(self):
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (1,), 1.0, tenant="acme"), JobSpec("b", (1,), 1.0)])
        s.cancel("b")
        s2 = _roundtrip(s)
        assert s2.counters.submitted == 2 and s2.counters.cancelled == 1
        assert s2.tenants == ["acme", "default"]
        assert s2.state_of("b") == "cancelled"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unsupported session checkpoint format"):
            restore_session({"format": "repro-session/99"})

    def test_truncated_checkpoint_raises_value_error(self):
        # a snapshot missing required fields must fail the documented way
        # (ValueError -> the CLI's clean 'cannot restore' path), not KeyError
        with pytest.raises(ValueError, match="malformed session checkpoint"):
            restore_session({"format": SESSION_FORMAT})
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (2,), 5.0)])
        snap = checkpoint_session(s)
        del snap["jobs"]["demand"]
        with pytest.raises(ValueError, match="malformed session checkpoint"):
            restore_session(snap)

    def test_corrupt_availability_rejected(self):
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (2,), 5.0)])
        s.advance(1.0)  # a is running, available = [2]
        snap = checkpoint_session(s)
        snap["available"] = [4]
        with pytest.raises(ValueError, match="disagrees"):
            restore_session(snap)

    def test_corrupt_ready_rejected(self):
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (2,), 5.0), JobSpec("b", (4,), 1.0)])
        s.advance(1.0)  # a runs, b is queued
        snap = checkpoint_session(s)
        snap["ready"] = []
        with pytest.raises(ValueError, match="disagrees"):
            restore_session(snap)
        snap["ready"] = [7]
        with pytest.raises(ValueError, match="unknown job index"):
            restore_session(snap)

    def test_work_past_float_range_rejected(self):
        """A crafted snapshot is the other way in for the state ``submit``
        refuses: two queued jobs whose durations do not sum."""
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (4,), 5.0), JobSpec("b", (4,), 5.0)])
        snap = checkpoint_session(s)
        snap["jobs"]["duration"] = [1e308, 1e308]
        with pytest.raises(ValueError, match="leaves the float64 range"):
            restore_session(snap)

    def test_corrupt_state_rejected(self):
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (2,), 5.0)])
        snap = checkpoint_session(s)
        snap["jobs"]["state"][0] = "levitating"
        with pytest.raises(ValueError, match="unknown state"):
            restore_session(snap)

    def test_corrupt_heap_rejected(self):
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (2,), 5.0, release=1.0)])
        snap = checkpoint_session(s)
        snap["heap"].append([2.0, 9, 55])
        with pytest.raises(ValueError, match="unknown job index"):
            restore_session(snap)

    def test_overcommit_rejected(self):
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (3,), 5.0)])
        s.advance(1.0)
        snap = checkpoint_session(s)
        ghost = {
            "id": "ghost", "demand": [3], "duration": 1.0, "key": 1.0,
            "preds": [], "ext_preds": [], "release": 0.0, "tenant": "default",
            "state": "running", "remaining": 0, "start": 0.5, "finish": None,
        }
        for col, val in ghost.items():
            snap["jobs"][col].append(val)
        snap["available"] = [-2]
        with pytest.raises(ValueError, match="overcommit"):
            restore_session(snap)

    @staticmethod
    def _running_snapshot():
        """a and b run (completions at 1 and 5), c is queued, clock 0.5."""
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (2,), 1.0), JobSpec("b", (2,), 5.0), JobSpec("c", (4,), 1.0)])
        s.advance(0.5)
        snap = checkpoint_session(s)
        assert snap["heap"] == [[1.0, 0, 0], [5.0, 1, 1]] and snap["ready"] == [2]
        return snap

    def test_a_duplicated_completion_entry_is_refused(self):
        """Two completions would free a's demand twice: drain overcommits."""
        snap = self._running_snapshot()
        snap["heap"].append([1.0, 2, 0])
        with pytest.raises(ValueError, match="job 'a': more than one event heap entry"):
            restore_session(snap)

    def test_a_dropped_completion_entry_is_refused(self):
        """With no completion, a never finishes: drain leaves it running."""
        snap = self._running_snapshot()
        del snap["heap"][0]
        with pytest.raises(ValueError, match="job 'a': running with no completion entry"):
            restore_session(snap)

    def test_a_heap_entry_before_the_clock_is_refused(self):
        """The clock would run back to the pending completions."""
        snap = self._running_snapshot()
        snap["clock"] = 100
        with pytest.raises(ValueError, match=r"job 'a': heap entry at 1\.0 is before the clock"):
            restore_session(snap)

    def test_a_completion_entry_for_a_row_that_is_not_running_is_refused(self):
        snap = self._running_snapshot()
        snap["heap"].append([2.0, 2, 2])
        with pytest.raises(ValueError, match="job 'c': completion entry but the job is queued"):
            restore_session(snap)

    def test_a_completion_entry_not_at_start_plus_duration_is_refused(self):
        snap = self._running_snapshot()
        snap["heap"][0][0] = 2.0
        with pytest.raises(ValueError, match="job 'a': completion entry at 2.0, not at start"):
            restore_session(snap)

    def test_a_release_entry_for_a_row_that_is_not_waiting_is_refused(self):
        snap = self._running_snapshot()
        snap["heap"].append([3.0, 2, ~2])
        with pytest.raises(ValueError, match="job 'c': release entry but the job is queued"):
            restore_session(snap)

    def test_a_start_after_the_clock_is_refused(self):
        snap = self._running_snapshot()
        snap["jobs"]["start"][0] = 0.75
        snap["heap"][0][0] = 1.75
        with pytest.raises(ValueError, match="job 'a': start 0.75 is after the clock 0.5"):
            restore_session(snap)

    @pytest.mark.parametrize("eps", [1e9, float("inf"), 0.0, 1e-9])
    def test_a_batch_tolerance_other_than_the_engines_is_refused(self, eps):
        """A wider tolerance batches completions that do not coincide:
        drain then starts work before its capacity is free."""
        snap = self._running_snapshot()
        snap["time_eps"] = eps
        with pytest.raises(ValueError, match="time_eps"):
            restore_session(snap)

    @staticmethod
    def _archived_snapshot():
        """Seven jobs, four of them done and archived, three live."""
        s = SchedulingSession([4], compact_threshold=0.5, compact_min_rows=4)
        s.submit([JobSpec(f"j{i}", (2,), 1.0) for i in range(7)])
        s.advance(2.0)
        assert len(s.archive) == 4 and len(s.gi.order) == 3
        return checkpoint_session(s)

    def test_an_archive_listing_an_id_twice_is_refused(self):
        snap = self._archived_snapshot()
        snap["archive"].append(dict(snap["archive"][1]))
        with pytest.raises(ValueError, match="archived job 'j1' appears more than once"):
            restore_session(snap)

    def test_an_archived_id_that_is_also_live_is_refused(self):
        snap = self._archived_snapshot()
        live = snap["jobs"]["id"][0]
        snap["archive"].append({**snap["archive"][0], "id": live})
        with pytest.raises(ValueError, match=f"job {live!r} is both archived and a live row"):
            restore_session(snap)

    @pytest.mark.parametrize("demand", [[2, 2], [-1], [5], [2**63]])
    def test_an_archived_demand_of_the_wrong_length_is_refused(self, demand):
        """The archive holds demands back to back: a short row would shift
        every later one, and an amount outside 0..capacity is no job the
        platform ran, so restore refuses either by id."""
        snap = self._archived_snapshot()
        snap["archive"][2]["demand"] = demand
        with pytest.raises(ValueError, match="archived job 'j2': demand"):
            restore_session(snap)

    @staticmethod
    def _two_type_snapshot():
        """On ``[8, 8]``: five jobs done and archived, ``a`` running and
        ``b`` queued behind it (``b`` never fits beside ``a``)."""
        s = SchedulingSession([8, 8], compact_threshold=0.5, compact_min_rows=4)
        s.submit([JobSpec(f"j{i}", (2, 1), 1.0) for i in range(5)])
        s.advance(2.0)
        s.submit([JobSpec("a", (8, 8), 1.0), JobSpec("b", (7, 8), 1.0)])
        assert len(s.archive) == 5 and s.state_of("b") == "queued"
        return checkpoint_session(s)

    def test_a_fractional_live_demand_is_refused_not_truncated(self):
        """``submit`` refuses a ``7.9``; restore used to admit the row as
        ``(7, 8)``: a job running on less than it asked for."""
        snap = self._two_type_snapshot()
        snap["jobs"]["demand"][snap["jobs"]["id"].index("b")] = [7.9, 8]
        with pytest.raises(ValueError, match=r"^job 'b': demand \[7\.9, 8\]: .*whole"):
            restore_session(snap)

    def test_a_fractional_archived_demand_is_refused_not_truncated(self):
        snap = self._two_type_snapshot()
        snap["archive"][2]["demand"] = [1.5, 0]
        with pytest.raises(ValueError, match=r"^archived job 'j2': demand \[1\.5, 0\]: .*whole"):
            restore_session(snap)

    def test_an_all_zero_live_demand_is_refused(self):
        """``submit`` refuses a job that asks for nothing; restore used to
        admit it and drain it."""
        snap = self._two_type_snapshot()
        snap["jobs"]["demand"][snap["jobs"]["id"].index("b")] = [0, 0]
        with pytest.raises(ValueError, match=r"^job 'b': demand \(0, 0\) must request at least one"):
            restore_session(snap)

    def test_fractional_capacities_are_refused_not_truncated(self):
        snap = self._two_type_snapshot()
        snap["capacities"] = [8.5, 8]
        with pytest.raises(ValueError, match="capacities must be a positive vector of whole"):
            restore_session(snap)

    def test_resume_mid_flight_then_submit_more(self):
        """The restored session is live: it keeps admitting and cancelling."""
        s = SchedulingSession([4, 4])
        s.submit([JobSpec("a", (2, 1), 2.0)])
        s.advance(1.0)
        s2 = _roundtrip(s)
        for sess in (s, s2):
            sess.submit([JobSpec("b", (1, 1), 1.0, preds=("a",), tenant="t2")])
            sess.advance(2.5)
            sess.submit([JobSpec("c", (4, 4), 0.5)])
            assert sess.cancel("c") == ("c",)
        s.drain()
        s2.drain()
        assert s.to_schedule().placements == s2.to_schedule().placements
        assert s.events == s2.events

    def test_v1_checkpoint_is_refused(self, tmp_path, capsys):
        """The PR-5 per-record format is no longer read: every way in
        names the tag it got and the one it reads."""
        from repro.cli import main

        snap = {
            "format": "repro-session/1",
            "capacities": [4],
            "time_eps": 1e-9,
            "clock": 0.0,
            "seq": 0,
            "jobs": [],
            "heap": [],
            "available": [4],
            "events": [],
            "counters": {"submitted": 0, "cancelled": 0, "completed": 0},
            "rng": None,
        }
        refusal = r"repro-session/1.*repro-session/2"
        with pytest.raises(ValueError, match=refusal):
            restore_session(snap)
        with pytest.raises(ValueError, match=refusal):
            restore_session(json.dumps(snap))
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(snap))
        with pytest.raises(ValueError, match=refusal):
            load_session(str(path))
        assert main(["serve", "--restore", str(path)]) == 2
        err = capsys.readouterr().err
        assert "repro-session/1" in err and "repro-session/2" in err

    def test_roundtrip_through_compaction(self):
        """A checkpoint taken after compaction carries the archive; restore
        resumes with archived history intact (schedule, states, makespan)."""
        s = SchedulingSession([4], compact_threshold=0.5, compact_min_rows=4)
        s.submit([JobSpec(f"j{i}", (2,), 1.0) for i in range(8)])
        s.cancel("j7")
        s.advance(2.0)  # 4 jobs finish -> dead fraction crosses the threshold
        assert s.compactions >= 1
        s2 = _roundtrip(s)
        assert s2.compactions == s.compactions
        assert s2.state_of("j0") == "done" and s2.state_of("j7") == "cancelled"
        # archived ids stay visible: duplicates rejected, preds resolvable
        with pytest.raises(ValueError, match="already submitted"):
            s2.submit([JobSpec("j0", (1,), 1.0)])
        s2.submit([JobSpec("tail", (1,), 1.0, preds=("j0",))])
        s.submit([JobSpec("tail", (1,), 1.0, preds=("j0",))])
        s.drain()
        s2.drain()
        assert s.to_schedule().placements == s2.to_schedule().placements
        assert s.makespan() == s2.makespan()


class TestExactResumeProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(WORKLOAD_FAMILIES),
        scheduler=st.sampled_from(_SCHEDULERS),
        d=st.integers(min_value=1, max_value=6),
        arrivals=st.sampled_from(["offline", "poisson"]),
        seed=st.integers(min_value=0, max_value=10**6),
        cut=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_checkpoint_restore_drain_identity(
        self, family, scheduler, d, arrivals, seed, cut
    ):
        case = _session_case(family, scheduler, d, arrivals, seed)
        if case is None:
            return
        inst, allocation = case
        specs = service_specs(inst, allocation)
        caps = inst.pool.capacities

        uninterrupted = SchedulingSession(caps)
        uninterrupted.submit(specs)
        uninterrupted.drain()
        baseline = uninterrupted.to_schedule()

        interrupted = SchedulingSession(caps)
        interrupted.submit(specs)
        interrupted.advance(cut * max(baseline.makespan, 1e-9))
        resumed = _roundtrip(interrupted)
        resumed.drain()
        resumed.validate()

        assert resumed.to_schedule().placements == baseline.placements
        assert resumed.events == uninterrupted.events


class TestColumnarHistory:
    """The session keeps its archive in columns and logs a start as
    ``("start", id, t)``; its checkpoints and ``advance`` replies must be
    byte for byte those of the frozen record-per-row writer
    (``tests/helpers.py``), through compactions, cancellations, prunes and
    restores."""

    @staticmethod
    def _drive(d, seed, int_ids):
        rng = np.random.default_rng(seed)
        caps = [int(c) for c in rng.integers(2, 9, size=d)]
        s = SchedulingSession(caps, seed=seed, compact_threshold=0.3, compact_min_rows=8)
        hist = ReferenceHistory(s)
        submitted: list = []
        cancelled: set = set()
        seen = set()
        for step in range(160):
            act = rng.random()
            if act < 0.35:
                specs = []
                for _ in range(int(rng.integers(1, 7))):
                    k = len(submitted) + len(specs)
                    jid = k if int_ids else f"j{k}"
                    alive = [j for j in submitted if j not in cancelled]
                    preds = ()
                    if alive and rng.random() < 0.6:
                        picks = rng.choice(len(alive), size=min(2, len(alive)), replace=False)
                        preds = tuple(alive[int(p)] for p in picks)
                    demand = [int(rng.integers(0, c + 1)) for c in caps]
                    demand[int(rng.integers(d))] = max(1, demand[0] if d == 1 else 1)
                    key = (None, int(rng.integers(50)), float(rng.uniform(0, 50)))[
                        int(rng.integers(3))
                    ]
                    release = s.now + float(rng.uniform(0, 3)) if rng.random() < 0.2 else 0.0
                    specs.append(
                        JobSpec(jid, tuple(demand), float(rng.uniform(0.2, 2.0)), preds,
                                release, key, ("default", "acme")[int(rng.integers(2))])
                    )
                s.submit(specs)
                submitted.extend(sp.id for sp in specs)
            elif act < 0.45 and submitted:
                cancelled.update(s.cancel(submitted[int(rng.integers(len(submitted)))]))
            elif act < 0.8:
                got, want = hist.advance(s.now + float(rng.uniform(0, 2.5)))
                assert got == want
            elif act < 0.85:
                s.prune_events()
                seen.add("pruned")
            else:
                text = json.dumps(checkpoint_session(s))
                assert text == json.dumps(reference_checkpoint(s, hist))
                seen.update(s.state_of(j) for j in s.archive_index)
                if len(s.gi.order):
                    seen.add("live")
                snap = json.loads(text)
                if rng.random() < 0.5:
                    s = restore_session(snap)
                else:  # an in-memory snapshot
                    s = restore_session(checkpoint_session(s))
                hist = ReferenceHistory(s, snap["archive"], snap["events"])
                assert json.dumps(checkpoint_session(s)) == json.dumps(
                    reference_checkpoint(s, hist)
                )
        s.drain()
        assert json.dumps(checkpoint_session(s)) == json.dumps(reference_checkpoint(s, hist))
        assert s.event_dicts() == [reference_event_dict(e) for e in hist.events]
        s.validate()
        return seen

    @pytest.mark.parametrize("d", (1, 4, 13))
    @pytest.mark.parametrize("int_ids", (False, True), ids=("str-ids", "int-ids"))
    def test_checkpoints_and_replies_match_the_frozen_writer(self, d, int_ids):
        seen = set()
        for seed in range(3):
            seen |= self._drive(d, 100 * d + seed, int_ids)
        # every shape the history takes was written at least once
        assert {"done", "cancelled", "live", "pruned"} <= seen

    def test_archived_jobs_add_no_gc_tracked_objects(self):
        """An archived job is a row of columns, not a container: after a
        collection, the objects the garbage collector tracks do not grow
        with the archive (a dict and a preds list per job would add two
        each)."""
        s = SchedulingSession([4, 4], compact_threshold=0.5, compact_min_rows=64)

        def run(n):
            base = len(s.archive) + len(s.gi.order)
            s.submit(
                [
                    JobSpec(f"j{base + k}", (1, 2), 1.0, (f"j{base + k - 1}",) if k else ())
                    for k in range(n)
                ]
            )
            s.drain()
            s.prune_events()
            gc.collect()
            return len(gc.get_objects())

        run(200)
        before = run(200)
        after = run(2000)
        assert len(s.archive) >= 2200
        assert after - before < 100
