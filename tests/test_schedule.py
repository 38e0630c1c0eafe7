"""Tests for the Schedule container, validation oracle and interval analysis."""

import pickle

import numpy as np
import pytest

from helpers import (
    reference_callback_list_schedule,
    reference_intervals,
    ruler_rigid_instance,
    schedule_from_decisions,
    schedule_of,
    tiny_instance,
)
from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    list_schedule,
    lpt_priority,
)
from repro.dag.graph import DAG
from repro.instance.instance import Instance
from repro.jobs.candidates import full_grid
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector
from repro.sim.intervals import classify_intervals
from repro.sim.schedule import Schedule, ScheduledJob
from repro.sim.trace import schedule_from_trace, schedule_to_trace


@pytest.fixture
def built(monkeypatch):
    """Count of ``ScheduledJob`` constructions from here on."""
    count = [0]
    new = ScheduledJob.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ScheduledJob, "__new__", counting)
    return count


def two_job_instance():
    pool = ResourcePool.of(2, 2)
    jobs = {
        "a": Job(id="a", time_fn=lambda p: 2.0, candidates=(ResourceVector((1, 1)),)),
        "b": Job(id="b", time_fn=lambda p: 3.0, candidates=(ResourceVector((2, 1)),)),
    }
    dag = DAG(nodes=["a", "b"], edges=[("a", "b")])
    return Instance(jobs=jobs, dag=dag, pool=pool)


class TestScheduleBasics:
    def test_from_decisions_and_makespan(self):
        inst = two_job_instance()
        s = schedule_from_decisions(
            inst,
            {"a": ResourceVector((1, 1)), "b": ResourceVector((2, 1))},
            {"a": 0.0, "b": 2.0},
        )
        assert s.makespan == pytest.approx(5.0)
        assert s.placements["b"].finish == pytest.approx(5.0)
        s.validate()

    def test_precedence_violation_detected(self):
        inst = two_job_instance()
        s = schedule_from_decisions(
            inst,
            {"a": ResourceVector((1, 1)), "b": ResourceVector((2, 1))},
            {"a": 0.0, "b": 1.0},  # b starts before a finishes
        )
        with pytest.raises(ValueError, match="precedence"):
            s.validate()

    def test_capacity_violation_detected(self):
        pool = ResourcePool.of(2)
        jobs = {
            k: Job(id=k, time_fn=lambda p: 2.0, candidates=(ResourceVector((2,)),))
            for k in ("x", "y")
        }
        inst = Instance(jobs=jobs, dag=DAG(nodes=["x", "y"]), pool=pool)
        s = schedule_from_decisions(
            inst, {k: ResourceVector((2,)) for k in jobs}, {"x": 0.0, "y": 1.0}
        )
        with pytest.raises(ValueError, match="capacity"):
            s.validate()

    def test_back_to_back_reuse_allowed(self):
        """A job may start exactly when another releases the resources."""
        pool = ResourcePool.of(2)
        jobs = {
            k: Job(id=k, time_fn=lambda p: 1.0, candidates=(ResourceVector((2,)),))
            for k in ("x", "y")
        }
        inst = Instance(jobs=jobs, dag=DAG(nodes=["x", "y"]), pool=pool)
        s = schedule_from_decisions(
            inst, {k: ResourceVector((2,)) for k in jobs}, {"x": 0.0, "y": 1.0}
        )
        s.validate()

    def test_negative_start_detected(self):
        inst = two_job_instance()
        s = schedule_from_decisions(
            inst,
            {"a": ResourceVector((1, 1)), "b": ResourceVector((2, 1))},
            {"a": -1.0, "b": 2.0},
        )
        with pytest.raises(ValueError, match="before time 0"):
            s.validate()

    def test_missing_job_detected(self):
        inst = two_job_instance()
        s = Schedule(inst)
        with pytest.raises(ValueError, match="exactly"):
            s.validate()


class TestIntervalsAndUtilization:
    def test_intervals_partition_makespan(self):
        inst = tiny_instance(seed=4, d=2, capacity=6)
        table = inst.candidate_table(full_grid)
        alloc = {j: es[len(es) // 2].alloc for j, es in table.items()}
        s = list_schedule(inst, alloc)
        total = sum(t1 - t0 for t0, t1, _ in s.intervals())
        assert total == pytest.approx(s.makespan)

    def test_interval_usage_matches_placements(self):
        inst = two_job_instance()
        s = schedule_from_decisions(
            inst,
            {"a": ResourceVector((1, 1)), "b": ResourceVector((2, 1))},
            {"a": 0.0, "b": 2.0},
        )
        ivals = list(s.intervals())
        assert ivals[0][2] == (1, 1)
        assert ivals[1][2] == (2, 1)

    def test_utilization_bounds(self):
        inst = tiny_instance(seed=8, d=2, capacity=5)
        table = inst.candidate_table(full_grid)
        alloc = {j: es[0].alloc for j, es in table.items()}
        s = list_schedule(inst, alloc)
        for u in s.utilization():
            assert 0.0 < u <= 1.0 + 1e-9

    def test_classification_partitions(self):
        inst = tiny_instance(seed=15, d=2, capacity=8)
        table = inst.candidate_table(full_grid)
        alloc = {j: es[len(es) // 2].alloc for j, es in table.items()}
        s = list_schedule(inst, alloc)
        cls = classify_intervals(s, mu=0.382)
        assert cls.total == pytest.approx(s.makespan)
        assert cls.t1 >= 0 and cls.t2 >= 0 and cls.t3 >= 0

    def test_classification_categories(self):
        """Hand-crafted usages land in the right buckets (P=10, µ=0.382:
        lo = ceil(3.82) = 4, hi = ceil(6.18) = 7)."""
        pool = ResourcePool.of(10)
        jobs = {}
        starts = {}
        allocs = {}
        # t in [0,1): usage 3 -> I1; [1,2): usage 5 -> I2; [2,3): usage 8 -> I3
        for k, (t0, units) in enumerate([(0.0, 3), (1.0, 5), (2.0, 8)]):
            jid = f"j{k}"
            jobs[jid] = Job(id=jid, time_fn=lambda p: 1.0,
                            candidates=(ResourceVector((units,)),))
            starts[jid] = t0
            allocs[jid] = ResourceVector((units,))
        inst = Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=pool)
        s = schedule_from_decisions(inst, allocs, starts)
        cls = classify_intervals(s, mu=0.382)
        assert cls.t1 == pytest.approx(1.0)
        assert cls.t2 == pytest.approx(1.0)
        assert cls.t3 == pytest.approx(1.0)

    def test_classification_rejects_bad_mu(self):
        inst = two_job_instance()
        s = schedule_from_decisions(
            inst,
            {"a": ResourceVector((1, 1)), "b": ResourceVector((2, 1))},
            {"a": 0.0, "b": 2.0},
        )
        with pytest.raises(ValueError):
            classify_intervals(s, mu=0.7)


class TestIntervalsSweep:
    """``intervals()`` is one sweep over the start/finish instants, equal to
    the frozen every-placement-against-every-interval body."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_equals_the_frozen_body_on_seeded_schedules(self, seed):
        inst, alloc = ruler_rigid_instance(3, 60, seed, d=3, capacity=12)
        for rule in (fifo_priority, lpt_priority):
            cols = list_schedule(inst, alloc, rule)
            got = list(cols.intervals())
            assert got == reference_intervals(cols)  # which reads placements
            assert list(cols.intervals()) == got  # and changes nothing
            assert all(
                type(t0) is float and type(t1) is float and t0 < t1
                and all(type(u) is int for u in usage)
                for t0, t1, usage in got
            )

    def test_simultaneous_starts_and_finishes(self):
        """Unit durations on a grid of instants: many placements start and
        finish at every point, some exactly as others release the
        resources, plus a zero-length placement that occupies nothing."""
        rng = np.random.default_rng(7)
        n = 120
        jobs = {
            j: Job(id=j, time_fn=lambda p: 1.0, candidates=(ResourceVector((1, 1)),))
            for j in range(n)
        }
        inst = Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=ResourcePool.of(500, 500))
        placements = {
            j: ScheduledJob(
                j, float(rng.integers(0, 6)), float(rng.integers(1, 4)),
                ResourceVector(rng.integers(0, 4, size=2)),
            )
            for j in range(n)
        }
        placements[n] = ScheduledJob(n, 2.0, 0.0, ResourceVector((3, 3)))
        s = schedule_of(inst, placements.values())
        got = list(s.intervals())
        assert got == reference_intervals(s)
        assert [t0 for t0, _, _ in got] == [float(t) for t in range(len(got))]

    def test_a_placement_is_read_a_bounded_number_of_times(self, built):
        """The count that was quadratic, placement reads per interval: the
        sweep reads the columns and builds no placement at all."""
        inst, alloc = ruler_rigid_instance(5, 100, seed=3)
        s = reference_callback_list_schedule(inst, alloc, fifo_priority)
        built[0] = 0
        assert len(list(s.intervals())) > 400
        assert built[0] == 0

    def test_utilization_of_five_thousand_jobs(self, built):
        inst, alloc = ruler_rigid_instance(10, 500, seed=1)
        s = list_schedule(inst, alloc)
        util = s.utilization()
        # work conservation: busy area over capacity x makespan, per type
        area = sum(
            np.array(alloc[j]) * inst.time(j, alloc[j]) for j in inst.jobs
        ) / (24 * s.makespan)
        assert util == pytest.approx(area.tolist())
        assert built[0] == 0  # read off the columns


class TestColumnBackedSchedule:
    """A schedule is its columns; ``placements`` is a read-only view whose
    ``ScheduledJob`` values are built when read, and a changed schedule is
    a new one (``replace``)."""

    @pytest.fixture
    def case(self):
        inst, alloc = ruler_rigid_instance(4, 50, seed=11, d=3, capacity=12)
        return inst, alloc

    def test_no_placement_object_until_placements_is_read(self, case, built):
        inst, alloc = case
        s = list_schedule(inst, alloc, bottom_level_priority)
        assert len(s) == len(inst.jobs)
        assert s.makespan > 0 and s.allocation == alloc
        assert set(s.starts) == set(inst.jobs)
        list(s.intervals())
        view = s.placements
        assert len(view) == len(inst.jobs) and set(view) == set(inst.jobs)
        assert built[0] == 0
        assert len(list(view.values())) == len(inst.jobs) == built[0]
        j = inst.dag.order[0]
        assert view[j].start == s.starts[j]
        assert built[0] == len(inst.jobs) + 1  # one more per read
        assert j in view and "no-such-job" not in view

    def test_list_schedule_lowers_a_plain_mapping_once(self, case, monkeypatch):
        from repro.instance.compiled import DemandLayout

        inst, alloc = case
        lowered, matrix = [0], DemandLayout.matrix

        def counting(self, rows):
            lowered[0] += 1
            return matrix(self, rows)

        monkeypatch.setattr(DemandLayout, "matrix", counting)
        s = list_schedule(inst, dict(alloc))
        assert lowered[0] == 1 and s.allocation == alloc
        assert s.alloc.dtype == np.int64 and s.alloc.shape == (len(inst.jobs), inst.d)

    def test_placements_cannot_be_assigned(self, case):
        inst, alloc = case
        s = list_schedule(inst, alloc)
        j, p = next(iter(s.placements.items()))
        with pytest.raises(TypeError):
            s.placements[j] = p._replace(start=-1.0)
        with pytest.raises(TypeError):
            del s.placements[j]
        with pytest.raises(ValueError):
            s.start[0] = -1.0  # the columns are read-only too
        assert s.placements[j] == p

    def test_replace_leaves_the_original_unchanged(self, case):
        inst, alloc = case
        s = list_schedule(inst, alloc)
        before = dict(s.placements.items())
        j, p = next(iter(before.items()))
        moved = s.replace(j, start=p.start + 1.0, time=p.time * 2.0)
        assert dict(s.placements.items()) == before and s.makespan == max(
            q.finish for q in before.values()
        )
        assert moved.placements[j] == p._replace(start=p.start + 1.0, time=p.time * 2.0)
        assert moved != s and list(moved.placements) == list(s.placements)
        with pytest.raises(KeyError):
            s.replace("no-such-job", start=0.0)

    def test_producers_in_different_row_orders_compare_equal(self, case):
        inst, alloc = case
        s = list_schedule(inst, alloc, lpt_priority)
        loaded = schedule_from_trace(inst, schedule_to_trace(s))  # by start
        rows = list(s.placements.values())
        backwards = schedule_of(inst, rows[::-1])
        assert list(loaded.placements) != list(s.placements)
        assert s == loaded == backwards and backwards == s
        j = rows[0].job_id
        assert backwards.replace(j, start=rows[0].start + 1.0) != s

    def test_a_wrong_width_row_or_a_repeated_id_is_refused(self):
        inst = two_job_instance()  # d = 2
        with pytest.raises(ValueError, match=r"job 'b' allocation: \(1,\) has dimension 1"):
            Schedule(inst, "ab", [0.0, 2.0], [2.0, 3.0], [(1, 1), (1,)])
        with pytest.raises(ValueError, match=r"job 'a' allocation: \(1, 1, 1\) has dimension 3"):
            Schedule(inst, "ab", [0.0, 2.0], [2.0, 3.0], np.ones((2, 3), int))
        with pytest.raises(ValueError, match="job 'a' is placed twice"):
            Schedule(inst, "aba", [0.0, 2.0, 5.0], [2.0, 3.0, 2.0], [(1, 1), (2, 1), (1, 1)])
        with pytest.raises(ValueError, match="job 'b' allocation: .*whole numbers"):
            Schedule(inst, "ab", [0.0, 2.0], [2.0, 3.0], [(1, 1), (2.5, 1)])
        s = schedule_from_decisions(
            inst, {"a": ResourceVector((1, 1)), "b": ResourceVector((2, 1))},
            {"a": 0.0, "b": 2.0},
        )
        with pytest.raises(ValueError, match=r"job 'a' allocation: \(1, 1, 1\)"):
            s.replace("a", alloc=(1, 1, 1))

    @pytest.mark.parametrize(
        "rule", (fifo_priority, lpt_priority, bottom_level_priority),
        ids=lambda r: r.__name__,
    )
    def test_equals_the_frozen_callback_form(self, case, rule):
        inst, alloc = case
        ref = reference_callback_list_schedule(inst, alloc, rule)
        s = list_schedule(inst, alloc, rule)
        # read off the columns first, then off the dict
        for _ in range(2):
            assert len(s) == len(ref)
            assert s.makespan == ref.makespan
            assert s.allocation == ref.allocation and s.starts == ref.starts
            assert list(s.starts) == list(ref.starts)  # dispatch order
            assert s == ref and ref == s and not s != ref
            assert list(s.placements.items()) == list(ref.placements.items())
        s.validate()

    def test_validate_on_columns_and_unhashable(self, case):
        inst, alloc = case
        s = list_schedule(inst, alloc)
        s.validate()
        with pytest.raises(TypeError):
            hash(s)
        assert s != list_schedule(inst, alloc, lpt_priority)
        assert (s == object()) is False

    def test_pickles(self, case):
        inst, alloc = case
        inst = Instance(  # the module-level time functions of a picklable instance
            jobs={j: Job(id=j, time_fn=_unit_time, candidates=job.candidates)
                  for j, job in inst.jobs.items()},
            dag=inst.dag, pool=inst.pool,
        )
        s = list_schedule(inst, alloc)
        back = pickle.loads(pickle.dumps(s))
        assert back.makespan == s.makespan and back.placements == s.placements
        assert list(back.placements.items()) == list(s.placements.items())
        assert not back.alloc.flags.writeable and back.alloc.dtype == np.int64

    def test_replaced_rows_are_seen(self, case):
        inst, alloc = case
        s = list_schedule(inst, alloc)
        j, p = max(s.placements.items(), key=lambda kv: kv[1].finish)
        later = s.replace(j, start=p.start + 100.0)
        assert later.makespan == later.placements[j].finish > p.finish + 99.0
        assert later.starts[j] == p.start + 100.0
        later.validate()  # later is still valid
        first = inst.dag.topological_order()[-1]
        bad = later.replace(first, start=-1.0)
        with pytest.raises(ValueError, match="before time 0"):
            bad.validate()
        later.validate()
        s.validate()

    def test_empty_schedule_from_columns(self):
        inst = Instance(jobs={}, dag=DAG(nodes=[]), pool=ResourcePool.of(2))
        s = list_schedule(inst, {})
        assert len(s) == 0 and s.makespan == 0.0 and list(s.intervals()) == []
        assert s.placements == {} and s == Schedule(inst)


def _unit_time(alloc):
    return 1.0
