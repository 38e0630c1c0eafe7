"""Tests for schedule trace (de)serialization."""

import json

import pytest

from helpers import tiny_instance
from repro.core.list_scheduler import list_schedule
from repro.instance.instance import with_poisson_arrivals
from repro.jobs.candidates import full_grid
from repro.sim.trace import (
    TRACE_VERSION,
    schedule_from_trace,
    schedule_to_trace,
    trace_to_json,
)


def make_schedule(seed=0):
    inst = tiny_instance(seed=seed, d=2, capacity=6)
    table = inst.candidate_table(full_grid)
    alloc = {j: es[len(es) // 2].alloc for j, es in table.items()}
    return inst, list_schedule(inst, alloc)


class TestTrace:
    def test_roundtrip(self):
        inst, sched = make_schedule()
        trace = schedule_to_trace(sched)
        rebuilt = schedule_from_trace(inst, trace)
        rebuilt.validate()
        assert rebuilt.makespan == pytest.approx(sched.makespan)
        for j in inst.jobs:
            assert rebuilt.placements[j].start == sched.placements[j].start
            assert rebuilt.placements[j].alloc == sched.placements[j].alloc

    def test_json_string_roundtrip(self):
        inst, sched = make_schedule(1)
        s = trace_to_json(sched)
        data = json.loads(s)
        assert data["version"] == TRACE_VERSION == 3
        rebuilt = schedule_from_trace(inst, s)
        assert rebuilt.makespan == pytest.approx(sched.makespan)

    def test_release_carried_and_checked(self):
        """Online-arrival traces carry per-job releases and the loader
        rejects a trace whose releases disagree with the instance."""
        inst, _ = make_schedule(3)
        online = with_poisson_arrivals(inst, 2.0, seed=3)
        table = online.candidate_table(full_grid)
        alloc = {j: es[len(es) // 2].alloc for j, es in table.items()}
        sched = list_schedule(online, alloc)
        trace = schedule_to_trace(sched)
        released = [r for r in trace["jobs"] if "release" in r]
        assert released, "online trace must carry release times"
        rebuilt = schedule_from_trace(online, trace)
        assert rebuilt.placements == sched.placements

        trace["jobs"][0]["release"] = 1e9
        with pytest.raises(ValueError, match="release"):
            schedule_from_trace(online, trace)

    def test_version1_trace_loads_without_release_check(self):
        inst, sched = make_schedule(4)
        trace = schedule_to_trace(sched)
        trace["version"] = 1
        for rec in trace["jobs"]:
            rec.pop("release", None)
        rebuilt = schedule_from_trace(inst, trace)
        assert rebuilt.makespan == pytest.approx(sched.makespan)

    def test_trace_contents(self):
        inst, sched = make_schedule(2)
        trace = schedule_to_trace(sched)
        assert trace["platform"]["capacities"] == list(inst.pool.capacities)
        assert len(trace["jobs"]) == inst.n
        assert len(trace["edges"]) == inst.dag.num_edges
        # jobs sorted by start time
        starts = [r["start"] for r in trace["jobs"]]
        assert starts == sorted(starts)

    def test_version_check(self):
        inst, sched = make_schedule()
        trace = schedule_to_trace(sched)
        trace["version"] = 99
        with pytest.raises(ValueError, match="version"):
            schedule_from_trace(inst, trace)

    def test_unknown_job_rejected(self):
        inst, sched = make_schedule()
        trace = schedule_to_trace(sched)
        trace["jobs"][0]["id"] = "'bogus'"
        with pytest.raises(ValueError):
            schedule_from_trace(inst, trace)

    def test_a_fractional_alloc_is_refused_by_job_not_truncated(self):
        """A traced ``[4.6, 4.6]`` used to load as ``(4, 4)``."""
        inst, sched = make_schedule()
        trace = schedule_to_trace(sched)
        rec = trace["jobs"][1]
        rec["alloc"] = [4.6, 4.6]
        with pytest.raises(
            ValueError, match=rf"^trace job {rec['id']}: alloc: .*whole numbers"
        ):
            schedule_from_trace(inst, trace)

    def test_incomplete_trace_rejected(self):
        inst, sched = make_schedule()
        trace = schedule_to_trace(sched)
        trace["jobs"] = trace["jobs"][:-1]
        with pytest.raises(ValueError, match="cover"):
            schedule_from_trace(inst, trace)


class TestTraceV3Cancellations:
    def test_version2_traces_still_load(self):
        inst, sched = make_schedule(5)
        trace = schedule_to_trace(sched)
        trace["version"] = 2  # a v2 archive: no cancelled list
        rebuilt = schedule_from_trace(inst, trace)
        assert rebuilt.placements == sched.placements
        assert trace.get("cancelled", []) == []

    def test_cancellations_carried_and_extracted(self):
        from repro.service.session import JobSpec, SchedulingSession

        s = SchedulingSession([4])
        s.submit(
            [
                JobSpec("run", (2,), 1.0),
                JobSpec("drop", (1,), 1.0, release=5.0),
            ]
        )
        s.cancel("drop")
        s.drain()
        trace = s.to_trace()
        assert trace["version"] == 3
        assert trace["cancelled"] == [{"id": "'drop'", "time": 0.0}]
        # the loader rebuilds the completed placements, ignoring cancellations
        sched = s.to_schedule()
        rebuilt = schedule_from_trace(sched.instance, trace)
        assert rebuilt.placements == sched.placements

    def test_cancelled_and_placed_is_corrupt(self):
        inst, sched = make_schedule(6)
        placed = next(iter(sched.placements))
        with pytest.raises(ValueError, match="also placed"):
            schedule_to_trace(sched, cancellations=[{"id": placed, "time": 0.0}])
        trace = schedule_to_trace(sched)
        trace["cancelled"] = [{"id": repr(placed), "time": 0.0}]
        with pytest.raises(ValueError, match="both cancelled and placed"):
            schedule_from_trace(inst, trace)
