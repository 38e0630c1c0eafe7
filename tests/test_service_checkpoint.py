"""Tests for repro-session/3 checkpoints: the exact-resume guarantee.

The satellite property: ``checkpoint → restore → drain`` is event-for-event
identical to an uninterrupted run, across workload families × schedulers ×
d ∈ {1..6} × arrival modes (hypothesis-sampled), and through exact
completion ties.  The v3 format holds the rows and the order the running
rows' completions pop in; restore derives the rest of the loop state and
refuses rows the loop cannot have produced.  A v2 snapshot (the same rows
plus the loop state they imply, written by ``tests/helpers.py``'s frozen
writer or committed under ``tests/data/``) restores when its stored state
is the derived one; the per-record v1 format is refused by name.
"""

import gc
import json
import pathlib

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

from helpers import (
    ReferenceHistory,
    reference_checkpoint,
    reference_checkpoint_v3,
    reference_event_dict,
    run_out,
)

_DIAGONAL = make_candidates("diagonal", levels=6)

#: Registered schedulers that keep a fixed allocation to replay (the
#: malleable relaxation keeps none; the Sun schedulers are independent-only
#: and are covered through the ``independent`` family draw).
_SCHEDULERS = ("ours", "min_area", "min_time", "tetris", "heft", "level_shelf", "backfill")


def _roundtrip(session):
    return restore_session(json.loads(json.dumps(checkpoint_session(session))))


def _frozen(capacities, **kw):
    """A session and the history the frozen writers read, kept from its
    first op on."""
    s = SchedulingSession(capacities, **kw)
    return s, ReferenceHistory(s)


def _v2(session, history) -> dict:
    """``session``'s snapshot as the frozen ``repro-session/2`` writer
    writes it, through JSON."""
    return json.loads(json.dumps(reference_checkpoint(session, history)))


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
        result = spec.schedule(inst, strategy=strategy)
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
        assert run_out(s) == run_out(s2)
        assert s.to_schedule().placements == s2.to_schedule().placements

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

    def test_a_checkpoint_holds_no_derived_state(self):
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (2,), 5.0), JobSpec("b", (4,), 1.0, release=9.0)])
        s.advance(1.0)
        snap = checkpoint_session(s)
        assert snap["format"] == "repro-session/3" and snap["running"] == [0]
        assert not {"seq", "ready", "heap", "available", "counters"} & set(snap)
        assert "remaining" not in snap["jobs"]

    def test_corrupt_availability_rejected(self):
        s, hist = _frozen([4])
        s.submit([JobSpec("a", (2,), 5.0)])
        s.advance(1.0)  # a is running, available = [2]
        snap = _v2(s, hist)
        snap["available"] = [4]
        with pytest.raises(ValueError, match=r"stored available \[4\] disagrees"):
            restore_session(snap)

    def test_corrupt_ready_rejected(self):
        s, hist = _frozen([4])
        s.submit([JobSpec("a", (2,), 5.0), JobSpec("b", (4,), 1.0)])
        s.advance(1.0)  # a runs, b is queued
        snap = _v2(s, hist)
        for ready in ([], [7]):
            snap["ready"] = ready
            with pytest.raises(ValueError, match="stored ready .* disagrees"):
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
        s, hist = _frozen([4])
        s.submit([JobSpec("a", (2,), 5.0, release=1.0)])
        snap = _v2(s, hist)
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
            "state": "running", "start": 0.5, "finish": None,
        }
        for col, val in ghost.items():
            snap["jobs"][col].append(val)
        snap["running"].append(1)
        with pytest.raises(ValueError, match="overcommit"):
            restore_session(snap)

    @staticmethod
    def _running_snapshot():
        """As the frozen v2 writer writes it: a and b run (completions at
        1 and 5), c is queued, clock 0.5."""
        s, hist = _frozen([4])
        s.submit([JobSpec("a", (2,), 1.0), JobSpec("b", (2,), 5.0), JobSpec("c", (4,), 1.0)])
        s.advance(0.5)
        snap = _v2(s, hist)
        assert snap["heap"] == [[1.0, 0, 0], [5.0, 1, 1]] and snap["ready"] == [2]
        return snap

    def test_a_duplicated_completion_entry_is_refused(self):
        """Two completions would free a's demand twice: drain overcommits."""
        snap = self._running_snapshot()
        snap["heap"].append([1.0, 2, 0])
        with pytest.raises(ValueError, match="job 'a': listed as running more than once"):
            restore_session(snap)

    def test_a_dropped_completion_entry_is_refused(self):
        """With no completion, a never finishes: drain leaves it running."""
        snap = self._running_snapshot()
        del snap["heap"][0]
        with pytest.raises(ValueError, match="job 'a': running but not listed among the running"):
            restore_session(snap)

    def test_a_heap_entry_before_the_clock_is_refused(self):
        """The clock would run back to the pending completions."""
        snap = self._running_snapshot()
        snap["clock"] = 100
        with pytest.raises(
            ValueError, match=r"job 'a': a running row cannot have start 0\.0 and finish None at clock 100"
        ):
            restore_session(snap)

    def test_a_completion_entry_for_a_row_that_is_not_running_is_refused(self):
        snap = self._running_snapshot()
        snap["heap"].append([2.0, 2, 2])
        with pytest.raises(ValueError, match="job 'c': listed as running but is queued"):
            restore_session(snap)

    def test_a_completion_entry_not_at_start_plus_duration_is_refused(self):
        snap = self._running_snapshot()
        snap["heap"][0][0] = 2.0
        with pytest.raises(ValueError, match=r"stored heap \[\(2\.0, 0\), .* disagrees"):
            restore_session(snap)

    def test_a_release_entry_for_a_row_that_is_not_waiting_is_refused(self):
        snap = self._running_snapshot()
        snap["heap"].append([3.0, 2, ~2])
        with pytest.raises(ValueError, match=r"stored heap .*\(3\.0, -3\).* disagrees"):
            restore_session(snap)

    def test_a_start_after_the_clock_is_refused(self):
        snap = self._running_snapshot()
        snap["jobs"]["start"][0] = 0.75
        snap["heap"][0][0] = 1.75
        with pytest.raises(
            ValueError, match="job 'a': a running row cannot have start 0.75 and finish None at clock 0.5"
        ):
            restore_session(snap)

    @pytest.mark.parametrize("seq", [0, 1])
    def test_a_heap_seq_not_below_the_stored_seq_is_refused(self, seq):
        """Later pushes would reuse the seq: completions at one time would
        pop by row index, not in the order the jobs started."""
        snap = self._running_snapshot()
        snap["seq"] = seq
        with pytest.raises(
            ValueError, match=rf"heap entry seq {seq} is not below the stored seq {seq}"
        ):
            restore_session(snap)

    def test_two_heap_entries_sharing_a_seq_are_refused(self):
        snap = self._running_snapshot()
        snap["heap"][1][1] = 0
        with pytest.raises(ValueError, match="heap entry reuses seq 0"):
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
        assert len(s.archive) == 4 and len(s.loop.order) == 3
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

    @pytest.mark.parametrize("key", [float("nan"), True], ids=["nan", "true"])
    def test_a_live_key_submit_refuses_is_refused(self, key):
        """Restore used to store a live row's key as it was: a queued NaN
        broke the ready queue's ``(key, index)`` order (a later cancel lost
        the row), and a boolean was written back as ``true``."""
        snap = self._two_type_snapshot()
        snap["jobs"]["key"][snap["jobs"]["id"].index("b")] = key
        with pytest.raises(ValueError, match=r"^job 'b': priority key must be numeric"):
            restore_session(snap)

    @pytest.mark.parametrize("key", [float("nan"), True], ids=["nan", "true"])
    def test_an_archived_key_submit_refuses_is_refused(self, key):
        snap = self._two_type_snapshot()
        snap["archive"][2]["key"] = key
        with pytest.raises(ValueError, match=r"^archived job 'j2': priority key must be numeric"):
            restore_session(snap)

    @pytest.mark.parametrize(
        "field, value",
        [("duration", float("inf")), ("duration", -5.0), ("duration", 0.0),
         ("release", -5.0), ("release", float("inf")), ("release", float("nan"))],
    )
    def test_an_archived_duration_or_release_submit_refuses_is_refused(self, field, value):
        """Archived numbers used to be read with a bare ``float()``: an
        ``inf`` duration or a ``-5.0`` release restored as it was."""
        snap = self._two_type_snapshot()
        snap["archive"][2][field] = value
        with pytest.raises(ValueError, match=rf"^archived job 'j2': {field} must be"):
            restore_session(snap)

    def test_a_live_id_listed_twice_is_refused(self):
        """The live rows used to be taken as they came: with an id named
        twice, both rows were restored and ``drain`` ran that job twice."""
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (2,), 1.0), JobSpec("b", (2,), 1.0)])
        snap = checkpoint_session(s)
        snap["jobs"]["id"][snap["jobs"]["id"].index("b")] = "a"
        with pytest.raises(ValueError, match=r"^job 'a' appears more than once among the live"):
            restore_session(snap)

    def test_fractional_capacities_are_refused_not_truncated(self):
        snap = self._two_type_snapshot()
        snap["capacities"] = [8.5, 8]
        with pytest.raises(ValueError, match="capacities must be a positive vector of whole"):
            restore_session(snap)

    @pytest.mark.parametrize(
        "field, value",
        [("applied_seq", 2.7), ("applied_seq", -4), ("applied_seq", True),
         ("compactions", -3), ("compactions", 1.5),
         ("compact.min_rows", 2.5), ("compact.min_rows", True)],
    )
    def test_a_scalar_that_is_not_a_whole_count_is_refused_not_truncated(self, field, value):
        """``applied_seq: 2.7`` used to restore as 2, ``-4`` as it was, and
        ``compact.min_rows: 2.5`` as 2."""
        snap = self._two_type_snapshot()
        if field.startswith("compact."):
            snap["compact"][field.split(".")[1]] = value
        else:
            snap[field] = value
        with pytest.raises(ValueError, match=rf"^{field} must be a whole number"):
            restore_session(snap)

    def test_a_boolean_compaction_threshold_is_refused(self):
        snap = self._two_type_snapshot()
        snap["compact"]["threshold"] = True
        with pytest.raises(ValueError, match="expected a number, got True"):
            restore_session(snap)

    @staticmethod
    def _done_snapshot():
        """``a`` done and archived, ``b`` (after ``a``) done and live,
        ``c`` running, the clock at 3.5."""
        s = SchedulingSession([4], compact_threshold=1.0, compact_min_rows=1)
        s.submit([JobSpec("a", (4,), 1.0)])
        s.advance(1.0)
        s.submit([JobSpec("b", (4,), 2.0, preds=("a",)), JobSpec("c", (4,), 9.0)])
        s.advance(3.5)
        assert list(s.archive_index) == ["a"] and s.state_of("b") == "done"
        return json.loads(json.dumps(checkpoint_session(s)))

    @staticmethod
    def _archived(snap, jid):
        return next(r for r in snap["archive"] if r["id"] == jid)

    def test_a_clock_before_a_live_finish_is_refused(self):
        snap = self._done_snapshot()
        snap["clock"] = 1.0
        with pytest.raises(
            ValueError, match="job 'b': a done row cannot have start 1.0 and finish 3.0 at clock 1.0"
        ):
            restore_session(snap)

    def test_an_archived_start_after_its_finish_is_refused(self):
        """Restored, ``validate()`` reported a precedence violation."""
        snap = self._done_snapshot()
        self._archived(snap, "a")["start"] = 5.0
        with pytest.raises(ValueError, match="job 'a': a done row cannot have start 5.0"):
            restore_session(snap)

    @pytest.mark.parametrize("times", [False, True], ids=["as-run", "no-times"])
    def test_an_archived_predecessor_relabelled_cancelled_is_refused(self, times):
        """Restored, ``validate()`` failed with "DAG nodes must match": a
        done job whose predecessor never ran."""
        snap = self._done_snapshot()
        rec = self._archived(snap, "a")
        rec["state"] = "cancelled"
        snap["events"].append(["cancel", "a", 0.0])
        if times:
            rec["start"] = rec["finish"] = None
            refusal = "job 'b': done but its predecessor 'a' is not done"
        else:
            refusal = "job 'a': a cancelled row cannot have start 0.0 and finish 1.0"
        with pytest.raises(ValueError, match=refusal):
            restore_session(snap)

    @pytest.mark.parametrize("counters", [{"completed": 99}, {"submitted": 0}])
    def test_v2_counters_the_rows_contradict_are_refused(self, counters):
        """``status()`` reported them, and ``_maybe_compact`` read them."""
        s, hist = _frozen([4])
        s.submit([JobSpec("a", (2,), 1.0), JobSpec("b", (2,), 1.0)])
        s.advance(1.5)
        snap = _v2(s, hist)
        snap["counters"].update(counters)
        with pytest.raises(ValueError, match="stored counters .* disagrees with the rows"):
            restore_session(snap)

    @pytest.mark.parametrize(
        "edit, refusal",
        [
            (lambda c: c["running"].clear(), "job 'a': running but not listed"),
            (lambda c: c["running"].append(0), "job 'a': listed as running more than once"),
            (lambda c: c["running"].append(2), "job 'c': listed as running but is queued"),
            (lambda c: c["running"].append(True), "unknown job index True"),
            (lambda c: c["jobs"]["start"].__setitem__(2, 0.0), "job 'c': a queued row cannot"),
            (lambda c: c["jobs"]["release"].__setitem__(2, 9.0), "job 'c': queued before its release"),
            (lambda c: c["jobs"]["state"].__setitem__(2, "waiting"),
             "job 'c': waiting with no outstanding predecessors"),
            (lambda c: c.update(clock=-1.0), "clock must be finite and >= 0"),
        ],
    )
    def test_rows_the_loop_cannot_have_produced_are_refused(self, edit, refusal):
        """``a`` and ``b`` run, ``c`` is queued, the clock at 0.5."""
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (2,), 1.0), JobSpec("b", (2,), 5.0), JobSpec("c", (4,), 1.0)])
        s.advance(0.5)
        snap = json.loads(json.dumps(checkpoint_session(s)))
        edit(snap)
        with pytest.raises(ValueError, match=refusal):
            restore_session(snap)

    def test_a_waiting_row_under_a_cancelled_predecessor_is_refused(self):
        """Restored, ``drain`` left the row waiting for ever."""
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (4,), 1.0), JobSpec("b", (4,), 1.0),
                  JobSpec("c", (1,), 1.0, preds=("b",))])
        assert s.cancel("b") == ("b", "c")
        snap = checkpoint_session(s)
        snap["jobs"]["state"][2] = "waiting"
        snap["events"].pop()
        with pytest.raises(ValueError, match="job 'c': waiting on a cancelled predecessor"):
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
        assert run_out(s) == run_out(s2)
        assert s.to_schedule().placements == s2.to_schedule().placements
        assert s.cancellations() == s2.cancellations() == [
            {"event": "cancel", "id": "c", "time": 2.5}
        ]

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


def _tie_ops(seed, d):
    """Submits of jobs with integer durations, each batch followed by an
    ``advance`` to the clock it was submitted at (its jobs start in a pass
    of their own), the clock moving on by whole units: completions and
    releases tie exactly.  Keys fall from batch to batch, so a later pass
    at one clock often starts a job that one pass would have started
    first."""
    rng = np.random.default_rng(seed)
    caps = [int(c) for c in rng.integers(2, 6, size=d)]
    ops, clock, n = [], 0, 0
    for batch in range(14):
        specs = []
        for _ in range(int(rng.integers(1, 4))):
            demand = [int(rng.integers(0, c + 1)) for c in caps]
            demand[int(rng.integers(d))] = 1
            preds = (f"t{int(rng.integers(n))}",) if n and rng.random() < 0.3 else ()
            release = float(clock + int(rng.integers(1, 3))) if rng.random() < 0.2 else 0.0
            specs.append(JobSpec(f"t{n}", tuple(demand), float(rng.integers(1, 4)),
                                 preds, release, int(rng.integers(4)) - batch))
            n += 1
        ops += [("submit", specs), ("advance", float(clock))]
        clock += int(rng.integers(0, 2))
    return caps, ops


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

        baseline = SchedulingSession(caps)
        baseline.submit(specs)
        baseline.drain()
        until = cut * max(baseline.makespan(), 1e-9)

        uninterrupted = SchedulingSession(caps)
        uninterrupted.submit(specs)
        interrupted = SchedulingSession(caps)
        interrupted.submit(specs)
        assert interrupted.advance(until) == uninterrupted.advance(until)
        resumed = _roundtrip(interrupted)
        assert run_out(resumed) == run_out(uninterrupted)
        resumed.drain()
        resumed.validate()

        assert resumed.to_schedule().placements == baseline.to_schedule().placements

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 3), cut=st.integers(0, 28),
           every=st.booleans())
    def test_exact_ties_resume_identically(self, seed, d, cut, every):
        """Integer durations, and submits between ``advance``s at one
        clock: completions tie exactly, and a restore at op ``cut`` (and,
        with ``every``, before each later op) must continue with the
        uninterrupted run's replies."""
        caps, ops = _tie_ops(seed, d)

        def replies(restore):
            s = SchedulingSession(caps)
            out = []
            for k, (op, arg) in enumerate(ops):
                if restore(k):
                    s = _roundtrip(s)
                out.append(getattr(s, op)(arg))
            if restore(len(ops)):
                s = _roundtrip(s)
            return out, run_out(s)

        want = replies(lambda k: False)
        assert replies(lambda k: k == cut or (every and k > cut)) == want


class TestCompletionTies:
    """Which of two completions at exactly one time pops — and is reported
    — first is the one order the rows cannot fix: ``running`` carries it."""

    @staticmethod
    def _session(one_pass):
        """On ``[2]``, A (key 5) and B (key 1) start at 0 and take 1.0:
        A in a pass of its own before B, or both in one pass (B first)."""
        s = SchedulingSession([2])
        if one_pass:
            s.submit([JobSpec("A", (1,), 1.0, key=5), JobSpec("B", (1,), 1.0, key=1)])
        else:
            s.submit([JobSpec("A", (1,), 1.0, key=5)])
            s.advance(0.0)
            s.submit([JobSpec("B", (1,), 1.0, key=1)])
        s.advance(0.0)
        return s

    @pytest.mark.parametrize("one_pass", [False, True], ids=["two-passes", "one-pass"])
    def test_the_next_reply_after_a_restore_is_the_uninterrupted_one(self, one_pass):
        s = self._session(one_pass)
        snap = json.loads(json.dumps(checkpoint_session(s)))
        other = checkpoint_session(self._session(not one_pass))
        assert snap["jobs"] == json.loads(json.dumps(other))["jobs"]  # the rows cannot tell
        assert snap["running"] == ([1, 0] if one_pass else [0, 1])
        want = s.advance(1.0)
        assert [e["id"] for e in want] == (["B", "A"] if one_pass else ["A", "B"])
        assert restore_session(snap).advance(1.0) == want


_DATA = pathlib.Path(__file__).parent / "data"


class TestV2Fixture:
    """``tests/data/session_v2.json`` is a ``repro-session/2`` snapshot the
    v2 writer wrote mid-flight — running, queued, waiting-on-release,
    waiting-on-a-predecessor, archived and cancelled rows, and two
    completions tied at 3.0 — and ``session_v2_expected.json`` what that
    session did next: its next ``advance`` reply, its drained schedule and
    its status."""

    def test_it_restores_and_resumes_as_recorded(self):
        want = json.loads((_DATA / "session_v2_expected.json").read_text())
        s = load_session(str(_DATA / "session_v2.json"))
        assert s.advance(want["advance"]["until"]) == want["advance"]["reply"]
        s.drain()
        placements = s.to_schedule().placements
        rows = sorted([p.start, p.time, list(p.alloc), j] for j, p in placements.items())
        assert rows == want["schedule"]
        assert s.status() == want["status"]
        assert checkpoint_session(s)["format"] == "repro-session/3"


class TestColumnarHistory:
    """The session keeps its archive in columns and no event log; its
    checkpoints and ``advance`` replies must be byte for byte those of the
    frozen record-per-row writer (``tests/helpers.py``), through
    compactions, cancellations and restores — from v3 snapshots and from
    the frozen v2 writer's, whose stored loop state must be the derived
    one."""

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
                assert s.cancellations() == list(map(reference_event_dict, hist.cancellations()))
                seen.add("cancellations")
            else:
                text = json.dumps(checkpoint_session(s))
                assert text == json.dumps(reference_checkpoint_v3(s, hist))
                seen.update(s.state_of(j) for j in s.archive_index)
                if len(s.loop.order):
                    seen.add("live")
                snap = json.loads(text)
                if rng.random() < 0.5:
                    s = restore_session(snap)
                elif step % 2:  # an in-memory snapshot
                    s = restore_session(checkpoint_session(s))
                else:  # the frozen v2 writer's snapshot of the same session
                    s = restore_session(json.loads(json.dumps(reference_checkpoint(s, hist))))
                hist = ReferenceHistory(s, snap["archive"], snap["events"])
                assert json.dumps(checkpoint_session(s)) == text
                assert text == json.dumps(reference_checkpoint_v3(s, hist))
            assert s.loop.log == []
        s.drain()
        assert json.dumps(checkpoint_session(s)) == json.dumps(reference_checkpoint_v3(s, hist))
        assert s.cancellations() == list(map(reference_event_dict, hist.cancellations()))
        s.validate()
        return seen

    @pytest.mark.parametrize("d", (1, 4, 13))
    @pytest.mark.parametrize("int_ids", (False, True), ids=("str-ids", "int-ids"))
    def test_checkpoints_and_replies_match_the_frozen_writer(self, d, int_ids):
        seen = set()
        for seed in range(3):
            seen |= self._drive(d, 100 * d + seed, int_ids)
        # every shape the history takes was written at least once
        assert {"done", "cancelled", "live", "cancellations"} <= seen

    def test_archived_jobs_add_no_gc_tracked_objects(self):
        """An archived job is a row of columns, not a container: after a
        collection, the objects the garbage collector tracks do not grow
        with the archive (a dict and a preds list per job would add two
        each)."""
        s = SchedulingSession([4, 4], compact_threshold=0.5, compact_min_rows=64)

        def run(n):
            base = len(s.archive) + len(s.loop.order)
            s.submit(
                [
                    JobSpec(f"j{base + k}", (1, 2), 1.0, (f"j{base + k - 1}",) if k else ())
                    for k in range(n)
                ]
            )
            s.drain()
            gc.collect()
            return len(gc.get_objects())

        run(200)
        before = run(200)
        after = run(2000)
        assert len(s.archive) >= 2200
        assert after - before < 100


def _history_tuples(session) -> list:
    """Every ``submit``, ``start`` or ``finish`` tuple a list attribute of
    the session or of its loop holds."""
    loop = session.loop
    lists = [v for v in vars(session).values() if isinstance(v, list)]
    lists += [getattr(loop, n) for n in type(loop).__slots__ if isinstance(getattr(loop, n), list)]
    return [e for v in lists for e in v
            if type(e) is tuple and e and e[0] in ("submit", "start", "finish")]


class TestNoRetainedHistory:
    """A job's start and finish are on its row; the session keeps no event
    log beside the rows, and a checkpoint carries only cancellations."""

    def test_no_history_tuple_between_verbs(self):
        s = SchedulingSession([4], compact_threshold=0.5, compact_min_rows=4)
        s.submit([JobSpec(f"j{i}", (2,), 1.0) for i in range(6)] + [JobSpec("x", (4,), 1.0)])
        assert _history_tuples(s) == []
        assert s.advance(1.5) and _history_tuples(s) == []
        assert s.cancel("x") == ("x",) and _history_tuples(s) == []
        s = _roundtrip(s)
        assert _history_tuples(s) == []
        s.drain()
        assert _history_tuples(s) == [] and s.compactions >= 1
        assert s.advance(s.now + 1.0, events=False) == 0
        assert s.cancels == [("x", 1.5)]

    def test_a_checkpoint_holds_only_cancel_rows(self):
        s = SchedulingSession([4])
        s.submit([JobSpec("a", (4,), 1.0), JobSpec("b", (4,), 1.0, preds=("a",)),
                   JobSpec("c", (1,), 1.0, preds=("b",))])
        s.advance(0.5)
        assert s.cancel("b") == ("b", "c")
        s.drain()
        snap = json.loads(json.dumps(checkpoint_session(s)))
        assert snap["events"] == [["cancel", "b", 0.5], ["cancel", "c", 0.5]]
        assert _roundtrip(s).cancellations() == s.cancellations()



class TestCancelRows:
    """A cancel row names a cancelled row, archived or live, once, at a time
    in ``[0, clock]``, and every cancelled row has one; any other row would
    reach the trace as a cancellation that never happened, and a missing
    one would leave a cancellation out of it."""

    @staticmethod
    def _snapshot():
        """``x`` cancelled at 0.5 and archived, ``y`` cancelled at 2.0 and
        live, ``r`` and ``a`` queued, the clock at 2.0."""
        s = SchedulingSession([4], compact_threshold=0.5, compact_min_rows=4)
        s.submit([JobSpec(f"j{i}", (2,), 1.0) for i in range(6)] + [JobSpec("x", (4,), 1.0)])
        s.advance(0.5)
        assert s.cancel("x") == ("x",)
        s.advance(2.0)
        s.submit([JobSpec("r", (4,), 1.0), JobSpec("a", (1,), 1.0),
                  JobSpec("y", (1,), 1.0, preds=("a",))])
        assert s.cancel("y") == ("y",)
        assert "x" in s.archive_index and s.state_of("a") == "queued"
        return json.loads(json.dumps(checkpoint_session(s)))

    def test_archived_and_live_cancellations_restore(self):
        restored = restore_session(self._snapshot())
        assert restored.cancels == [("x", 0.5), ("y", 2.0)]

    @pytest.mark.parametrize(
        "row, refusal",
        [
            (["cancel", "ghost", 0.0], "cancel event of job 'ghost', which is not cancelled"),
            (["cancel", "a", 1.0], "cancel event of job 'a', which is not cancelled"),
            (["cancel", "j0", 1.0], "cancel event of job 'j0', which is not cancelled"),
            (["cancel", "x", 0.5], "job 'x' is cancelled more than once"),
        ],
    )
    def test_a_row_for_no_cancelled_job_or_a_second_one_is_refused(self, row, refusal):
        snap = self._snapshot()
        snap["events"].append(row)
        with pytest.raises(ValueError, match=refusal):
            restore_session(snap)

    def test_a_cancelled_row_no_cancel_row_names_is_refused(self):
        """Restored, ``status()`` counted the cancellation and the trace
        held none."""
        snap = self._snapshot()
        del snap["events"][1]
        with pytest.raises(ValueError, match="job 'y' is cancelled but no cancel row names it"):
            restore_session(snap)

    @pytest.mark.parametrize("t", ["nan", "inf", 2.5, -1.0])
    def test_a_cancellation_outside_the_clock_is_refused(self, t):
        snap = self._snapshot()
        snap["events"][1][2] = t
        with pytest.raises(ValueError, match=r"job 'y' at .*, outside \[0, clock 2.0\]"):
            restore_session(snap)

class TestParentSnapshots:
    """A snapshot written while the session kept its event log — ``submit``,
    ``start``, ``finish`` and ``cancel`` rows, the start with its duration
    and demand — restores: its rows are checked, its cancellations kept."""

    @staticmethod
    def _sessions():
        """The same ops on two sessions, the second's history frozen the way
        a session with an event log wrote it."""
        ops = [
            ("submit", [JobSpec("a", (2,), 1.0), JobSpec("b", (3,), 2.0, tenant="t"),
                        JobSpec("c", (1,), 1.0, preds=("b",)), JobSpec("d", (4,), 1.0)]),
            ("advance", 1.5),
            ("cancel", "d"),
            ("submit", [JobSpec("e", (2,), 0.5, preds=("a",))]),
        ]
        plain = SchedulingSession([4])
        frozen = SchedulingSession([4])
        hist = ReferenceHistory(frozen)
        for s in (plain, frozen):
            for op, arg in ops:
                getattr(s, op)(arg)
        return plain, frozen, hist

    def test_a_full_log_restores_and_resumes(self):
        plain, frozen, hist = self._sessions()
        snap = json.loads(json.dumps(reference_checkpoint(frozen, hist, full_log=True)))
        assert {e[0] for e in snap["events"]} == {"submit", "start", "finish", "cancel"}
        restored = restore_session(snap)
        assert restored.cancels == [("d", 1.5)]
        assert [c["id"] for c in restored.to_trace()["cancelled"]] == ["'d'"]
        assert checkpoint_session(restored)["events"] == [("cancel", "d", 1.5)]
        assert restored.advance(2.5) == plain.advance(2.5)
        assert run_out(restored) == run_out(plain)
        assert restored.to_schedule().placements == plain.to_schedule().placements

    @pytest.mark.parametrize(
        "row, refusal",
        [
            (["levitate", "a", 0.0], "unknown event kind 'levitate'"),
            (["start", "ghost", 0.0, 1.0, [1]], "event log starts unknown job 'ghost'"),
            (["finish", "a"], "malformed session checkpoint"),
            (["submit", "a", 0.0], "submit event of job 'a' has no tenant"),
            (["cancel", "d", "soon"], "could not convert"),
        ],
    )
    def test_a_bad_row_of_a_full_log_is_refused(self, row, refusal):
        _, frozen, hist = self._sessions()
        snap = json.loads(json.dumps(reference_checkpoint(frozen, hist, full_log=True)))
        snap["events"].insert(2, row)
        with pytest.raises(ValueError, match=refusal):
            restore_session(snap)
