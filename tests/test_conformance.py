"""Tests for the conformance subsystem: strict validator + fuzz harness.

The validator tests hand-build *invalid* schedules (capacity breach,
precedence breach, pre-release start, wrong durations, off-candidate
allocations) and assert each is caught with the right violation kind; the
fuzz tests pin the matrix shape and run slices of it end-to-end with zero
failures.
"""

import json

import pytest

from helpers import tiny_instance
from repro.conformance import (
    ScheduleConformanceError,
    assert_conformant,
    validate_schedule,
)
from repro.conformance.fuzz import (
    _OFFLINE_ONLY,
    SCENARIOS,
    FuzzCase,
    default_matrix,
    run_case,
    run_fuzz,
)
from repro.core.list_scheduler import list_schedule
from repro.dag.graph import DAG
from repro.instance.instance import Instance, with_release_times
from repro.jobs.candidates import full_grid
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector
from repro.sim.schedule import Schedule, ScheduledJob


def rigid_two_jobs(d=1, capacity=2, time=2.0, edge=True):
    """Two rigid jobs (alloc = full capacity), optionally a -> b."""
    alloc = ResourceVector([capacity] * d)
    jobs = {
        k: Job(id=k, time_fn=lambda p, t=time: t, candidates=(alloc,))
        for k in ("a", "b")
    }
    dag = DAG(nodes=["a", "b"], edges=[("a", "b")] if edge else [])
    return Instance(jobs=jobs, dag=dag, pool=ResourcePool.uniform(d, capacity))


def place(inst, starts, allocs=None, times=None):
    placements = {}
    for j, s in starts.items():
        a = allocs[j] if allocs else inst.jobs[j].candidates[0]
        t = times[j] if times else inst.time(j, a)
        placements[j] = ScheduledJob(job_id=j, start=s, time=t, alloc=a)
    return Schedule(instance=inst, placements=placements)


class TestStrictValidator:
    def test_valid_schedule_passes(self):
        inst = rigid_two_jobs()
        s = place(inst, {"a": 0.0, "b": 2.0})
        report = validate_schedule(s)
        assert report.ok
        assert_conformant(s)  # does not raise

    def test_capacity_breach_detected(self):
        inst = rigid_two_jobs(edge=False)
        s = place(inst, {"a": 0.0, "b": 1.0})  # overlap at full capacity
        report = validate_schedule(s)
        assert "capacity" in report.kinds()

    def test_precedence_breach_detected(self):
        inst = rigid_two_jobs(capacity=4)
        small = ResourceVector([1])
        s = place(
            inst, {"a": 0.0, "b": 1.0}, allocs={"a": small, "b": small}
        )  # b starts mid-a
        report = validate_schedule(s, strict=False)
        assert "precedence" in report.kinds()

    def test_prerelease_start_detected(self):
        inst = with_release_times(rigid_two_jobs(), {"a": 5.0})
        s = place(inst, {"a": 0.0, "b": 7.0})
        report = validate_schedule(s)
        assert "release" in report.kinds()

    def test_negative_start_detected(self):
        inst = rigid_two_jobs()
        s = place(inst, {"a": -1.0, "b": 2.0})
        assert "negative-start" in validate_schedule(s).kinds()

    def test_job_set_mismatch_detected(self):
        inst = rigid_two_jobs()
        s = place(inst, {"a": 0.0})
        report = validate_schedule(s)
        assert "job-set" in report.kinds()
        with pytest.raises(ValueError, match="exactly"):
            report.raise_if_failed()

    def test_oversized_allocation_detected(self):
        inst = rigid_two_jobs(capacity=2)
        big = ResourceVector([3])
        s = place(
            inst, {"a": 0.0, "b": 5.0}, allocs={"a": big, "b": ResourceVector([1])},
            times={"a": 2.0, "b": 2.0},
        )
        assert "allocation" in validate_schedule(s).kinds()

    def test_duration_inconsistency_detected_only_in_strict(self):
        inst = rigid_two_jobs()
        s = place(inst, {"a": 0.0, "b": 2.0}, times={"a": 1.0, "b": 2.0})
        assert "duration" in validate_schedule(s).kinds()
        # the baseline profile (Schedule.validate's checks) accepts derived
        # timelines with perturbed durations, e.g. straggler replays —
        # precedence still holds here since a's *placed* finish is 1.0 < 2.0
        assert validate_schedule(s, strict=False).ok

    def test_candidate_membership_and_mu_cap(self):
        inst = rigid_two_jobs(capacity=8, edge=False)  # candidates = (8,)
        off = ResourceVector([5])
        s = place(
            inst, {"a": 0.0, "b": 5.0}, allocs={"a": off, "b": off},
            times={"a": 2.0, "b": 2.0},
        )
        kinds = validate_schedule(s).kinds()
        assert "candidate" in kinds
        # with µ = 0.55 the cap is ceil(µ·8)... µ must be < 0.5, use 0.49:
        # ceil(0.49·8) = 4, still not 5 -> violation persists
        assert "candidate" in validate_schedule(s, mu=0.49).kinds()
        # an allocation that IS the µ-capped image of a candidate is legal
        capped = ResourceVector([4])
        s2 = place(
            inst, {"a": 0.0, "b": 5.0}, allocs={"a": capped, "b": capped},
            times={"a": 2.0, "b": 2.0},
        )
        report = validate_schedule(s2, mu=0.49)
        assert "candidate" not in report.kinds()

    def test_violation_lists_are_bounded_per_kind(self):
        """A grossly corrupt schedule (every job of a chain at t=0) must
        not materialize O(m) violation objects."""
        from repro.conformance.invariants import _MAX_VIOLATIONS_PER_KIND

        n = 200
        alloc = ResourceVector([1])
        jobs = {
            k: Job(id=k, time_fn=lambda p: 1.0, candidates=(alloc,))
            for k in range(n)
        }
        dag = DAG(nodes=range(n), edges=[(k, k + 1) for k in range(n - 1)])
        inst = Instance(jobs=jobs, dag=dag, pool=ResourcePool.uniform(1, n))
        s = Schedule(
            instance=inst,
            placements={
                k: ScheduledJob(job_id=k, start=0.0, time=1.0, alloc=alloc)
                for k in range(n)
            },
        )
        report = validate_schedule(s)
        per_kind = {}
        for v in report.violations:
            per_kind[v.kind] = per_kind.get(v.kind, 0) + 1
        assert per_kind["precedence"] <= _MAX_VIOLATIONS_PER_KIND
        assert any("elided" in v.detail for v in report.violations)

    def test_error_lists_every_violation(self):
        inst = rigid_two_jobs()
        s = place(inst, {"a": -1.0, "b": 0.0})  # negative start + precedence
        with pytest.raises(ScheduleConformanceError) as exc_info:
            assert_conformant(s, strict=False)
        err = exc_info.value
        assert len(err.violations) >= 2
        assert "negative-start" in {v.kind for v in err.violations}

    def test_schedule_validate_delegates(self):
        """Schedule.validate() is the baseline profile of the strict
        validator: same checks, same (matchable) messages."""
        inst = rigid_two_jobs(edge=False)
        s = place(inst, {"a": 0.0, "b": 1.0})
        with pytest.raises(ValueError, match="capacity violated"):
            s.validate()

    def test_back_to_back_reuse_still_legal(self):
        inst = rigid_two_jobs(edge=False)
        s = place(inst, {"a": 0.0, "b": 2.0})  # b starts exactly at a's finish
        assert validate_schedule(s).ok

    def test_non_finite_placement_is_its_own_violation(self):
        """One infinite finish used to widen the time tolerance to infinity,
        so every other check passed: a trace with its last start set to
        ``inf`` loaded and validated ``ok``."""
        from repro.sim.trace import schedule_from_trace, schedule_to_trace

        inst = rigid_two_jobs(edge=False)
        trace = schedule_to_trace(place(inst, {"a": 0.0, "b": 2.0}))
        trace["jobs"][-1]["start"] = float("inf")
        s = schedule_from_trace(inst, json.dumps(trace))
        report = validate_schedule(s)
        assert [(v.kind, v.job_id) for v in report.violations] == [("non-finite", "b")]
        with pytest.raises(ValueError, match="non-finite"):
            s.validate()

    def test_two_infinite_finishes_terminate(self):
        """``abs(inf - inf) <= tol`` is False, so the capacity sweep never
        advanced past two infinite events; they stay out of it now."""
        inst = rigid_two_jobs(edge=False)
        s = place(inst, {"a": float("inf"), "b": float("inf")})
        report = validate_schedule(s)
        assert [v.kind for v in report.violations] == ["non-finite", "non-finite"]

    def test_real_schedule_is_strictly_conformant(self):
        inst = tiny_instance(seed=5, d=2, capacity=6)
        table = inst.candidate_table(full_grid)
        alloc = {j: es[0].alloc for j, es in table.items()}
        sched = list_schedule(inst, alloc)
        assert validate_schedule(sched).ok


class TestFuzzMatrix:
    def test_quick_matrix_is_large_and_diverse(self):
        cases = default_matrix(quick=True)
        assert len(cases) >= 500
        assert {c.d for c in cases} == {1, 2, 3, 4, 5, 6}
        assert {c.scenario for c in cases} == set(SCENARIOS)
        assert 1 in {c.capacity for c in cases}  # degenerate platform
        assert any(c.capacity >= 1 << 15 for c in cases)  # unpacked boundary
        schedulers = {c.scheduler for c in cases}
        assert len(schedulers) == 11

    def test_matrix_is_deterministic(self):
        assert default_matrix(quick=True) == default_matrix(quick=True)
        assert default_matrix(quick=True, seed=7) != default_matrix(quick=True)

    def test_scheduler_filter(self):
        cases = default_matrix(quick=True, schedulers=["ours", "tetris"])
        assert {c.scheduler for c in cases} == {"ours", "tetris"}
        with pytest.raises(KeyError, match="unknown"):
            default_matrix(schedulers=["nope"])

    def test_families_filter_respected_by_independent_only_schedulers(self):
        cases = default_matrix(quick=True, families=["chain"])
        assert {c.family for c in cases} == {"chain"}
        assert not any(c.scheduler in ("sun_list", "sun_shelf") for c in cases)
        with_ind = default_matrix(quick=True, families=["chain", "independent"])
        assert any(c.scheduler == "sun_list" for c in with_ind)

    def test_scenario_decorrelated_from_d(self):
        """Every (d, scenario) combination is reachable — a correlated
        rotation would never fuzz e.g. the packed d=4 path under crashes."""
        combos = {(c.d, c.scenario) for c in default_matrix(quick=True)}
        assert combos == {
            (d, s) for d in (1, 2, 3, 4, 5, 6) for s in SCENARIOS
        }

    def test_every_scheduler_reaches_every_scenario(self):
        """With 4 scenarios, a k-step of 2 kept each scheduler on 2 of them
        (the parity of its registry index): ``ours`` never met Poisson
        arrivals or crash recovery."""
        reached: dict[str, set[str]] = {}
        for c in default_matrix(quick=True):
            reached.setdefault(c.scheduler, set()).add(c.scenario)
        for name, scenarios in reached.items():
            if name == "malleable":
                expected = {"offline"}
            elif name in _OFFLINE_ONLY:
                expected = set(SCENARIOS) - {"poisson"}
            else:
                expected = set(SCENARIOS)
            assert scenarios == expected, name

    def test_offline_only_planners_never_get_poisson(self):
        cases = default_matrix(quick=False)
        for c in cases:
            if c.scheduler in ("backfill", "level_shelf", "sun_shelf", "malleable"):
                assert c.scenario != "poisson"


class TestFuzzExecution:
    def test_slice_of_quick_matrix_is_clean(self):
        cases = default_matrix(quick=True)[::17]  # ~30 cases across the sweep
        report = run_fuzz(cases)
        assert report.cases_run + report.cases_skipped == len(cases)
        assert report.ok, report.summary()

    def test_each_scenario_runs_clean(self):
        for scenario in SCENARIOS:
            case = FuzzCase("ours", "layered", 10, 2, 8, 0, scenario)
            failures, skipped = run_case(case)
            assert not skipped
            assert failures == []

    def test_unknown_scenario_is_refused(self):
        """A misspelt or retired scenario used to run as ``offline`` and
        pass, so a stale reproducer checked nothing it named."""
        for scenario in ("servce", "faults"):
            with pytest.raises(ValueError, match="offline.*poisson.*service.*crash"):
                FuzzCase("ours", "layered", 8, 2, 16, 0, scenario=scenario)

    def test_unsupported_scenario_is_a_skip_not_a_failure(self):
        case = FuzzCase("backfill", "layered", 8, 2, 8, 0, "poisson")
        failures, skipped = run_case(case)
        assert skipped and failures == []

    def test_bad_case_is_recorded_not_sweep_aborting(self):
        """A bad family or scheduler name must surface as a crash failure
        in the report — never abort the whole sweep with a traceback."""
        for case in (
            FuzzCase("ours", "no-such-family", 8, 2, 8, 0, "offline"),
            FuzzCase("no-such-scheduler", "chain", 8, 2, 8, 0, "offline"),
        ):
            failures, skipped = run_case(case)
            assert not skipped
            assert [f.check for f in failures] == ["crash"]

    def test_harness_catches_an_injected_corruption(self, monkeypatch):
        """A validator that misses nothing: corrupt the schedule the
        scheduler returns and the case must fail."""
        from repro.conformance import fuzz as fuzz_mod

        real = fuzz_mod._run_scheduler

        def corrupting(spec, instance, strategy):
            result = real(spec, instance, strategy)
            sched = result.schedule
            j, p = next(iter(sched.placements.items()))
            sched.placements[j] = ScheduledJob(
                job_id=p.job_id, start=-5.0, time=p.time, alloc=p.alloc
            )
            return result

        monkeypatch.setattr(fuzz_mod, "_run_scheduler", corrupting)
        case = FuzzCase("min_time", "independent", 8, 2, 8, 0, "offline")
        failures, skipped = fuzz_mod.run_case(case)
        assert not skipped
        assert any(f.check == "validator" for f in failures)

    def test_report_json_shape(self):
        cases = default_matrix(quick=True, schedulers=["min_area"])[:4]
        report = run_fuzz(cases)
        data = report.to_json()
        assert set(data) == {
            "cases_run", "cases_skipped", "by_scenario", "by_scheduler", "failures",
        }
        assert data["failures"] == []
        assert sum(data["by_scheduler"].values()) == data["cases_run"]

    def test_scheduler_crash_is_a_failure_not_a_skip(self, monkeypatch):
        """A ValueError outside the contractual rejections (offline planner
        + releases, independent-only + precedence) must surface as a crash
        failure — not silently drain into cases_skipped."""
        from repro.conformance import fuzz as fuzz_mod

        def exploding(spec, instance, strategy):
            raise ValueError("empty candidate set")

        monkeypatch.setattr(fuzz_mod, "_run_scheduler", exploding)
        case = FuzzCase("min_time", "chain", 8, 2, 8, 0, "offline")
        failures, skipped = fuzz_mod.run_case(case)
        assert not skipped
        assert [f.check for f in failures] == ["crash"]
