"""Tests for Instance: Definitions 1-2 arithmetic and candidate tables."""

import numpy as np
import pytest

from helpers import tiny_instance
from repro.core.list_scheduler import fifo_priority, list_schedule
from repro.dag.generators import independent
from repro.dag.graph import DAG
from repro.instance.instance import Instance, make_instance
from repro.jobs.candidates import full_grid, make_candidates
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


def fixed_time_instance():
    """Two jobs in series on a (4, 2) pool with hand-computable times."""
    pool = ResourcePool.of(4, 2)
    # t_a((p0, p1)) = 8 / min(p0, 2*p1), t_b = 4 / p0
    a = Job(id="a", time_fn=lambda p: 8.0 / min(p[0], 2 * p[1]) if min(p) >= 1 else 8.0)
    b = Job(id="b", time_fn=lambda p: 4.0 / p[0] if p[0] >= 1 else 4.0)
    dag = DAG(nodes=["a", "b"], edges=[("a", "b")])
    return Instance(jobs={"a": a, "b": b}, dag=dag, pool=pool)


class TestDefinitions:
    def test_work_area_avg(self):
        inst = fixed_time_instance()
        alloc = ResourceVector((2, 1))
        # t_a = 8/2 = 4
        assert inst.time("a", alloc) == pytest.approx(4.0)
        assert inst.work("a", alloc, 0) == pytest.approx(8.0)   # 2 * 4
        assert inst.work("a", alloc, 1) == pytest.approx(4.0)   # 1 * 4
        assert inst.area("a", alloc, 0) == pytest.approx(2.0)   # 8 / 4
        assert inst.area("a", alloc, 1) == pytest.approx(2.0)   # 4 / 2
        assert inst.avg_area("a", alloc) == pytest.approx(2.0)

    def test_totals_and_critical_path(self):
        inst = fixed_time_instance()
        alloc = {"a": ResourceVector((2, 1)), "b": ResourceVector((4, 1))}
        # t_a = 4, t_b = 1; chain -> C = 5
        assert inst.critical_path(alloc) == pytest.approx(5.0)
        # A = avg_area(a) + avg_area(b) = 2.0 + (4/4 + 1/2)/2 * 1 = 2.0 + 0.75
        assert inst.total_area(alloc) == pytest.approx(2.75)
        assert inst.lower_bound_functional(alloc) == pytest.approx(5.0)

    def test_total_area_per_type(self):
        inst = fixed_time_instance()
        alloc = {"a": ResourceVector((2, 1)), "b": ResourceVector((4, 1))}
        per_type = [sum(inst.area(j, alloc[j], i) for j in inst.jobs) for i in range(inst.d)]
        assert per_type[0] == pytest.approx(2.0 + 1.0)
        assert per_type[1] == pytest.approx(2.0 + 0.5)
        # average over types equals A(p)
        assert sum(per_type) / 2 == pytest.approx(inst.total_area(alloc))

    def test_times_map(self):
        inst = fixed_time_instance()
        alloc = {"a": ResourceVector((4, 2)), "b": ResourceVector((1, 1))}
        assert inst.times(alloc) == {"a": pytest.approx(2.0), "b": pytest.approx(4.0)}


class TestValidation:
    def test_dag_job_mismatch(self):
        pool = ResourcePool.of(2)
        dag = DAG(nodes=["a", "b"])
        with pytest.raises(ValueError):
            Instance(jobs={"a": Job(id="a", time_fn=lambda p: 1.0)}, dag=dag, pool=pool)

    def test_cyclic_dag_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            DAG(edges=[("a", "b"), ("b", "a")])

    def test_validate_allocation_map(self):
        inst = fixed_time_instance()
        with pytest.raises(ValueError):
            inst.validate_allocation_map({"a": ResourceVector((1, 1))})  # missing b
        with pytest.raises(ValueError):
            inst.validate_allocation_map(
                {"a": ResourceVector((9, 1)), "b": ResourceVector((1, 1))}
            )


class TestAllocationRows:
    """``validate_allocation_map`` refuses a row that is not whole, lies
    outside the pool or asks for nothing, with a ``ValueError`` naming the
    job, whatever sequence carries it.  A ``(2.7, 1)`` row used to be
    truncated to two units, so four such jobs ran together on 8 units of
    type 0; a tuple over the capacities died with an ``AttributeError``."""

    @staticmethod
    def unit_jobs():
        return make_instance(independent(4), ResourcePool.of(8, 8), lambda j: (lambda a: 1.0))

    @pytest.mark.parametrize(
        "row", [(2.7, 1), [2.7, 1], np.array([2.7, 1.0]), (float("nan"), 1), ("2", 1)]
    )
    def test_a_fractional_amount_is_refused_not_truncated(self, row):
        inst = self.unit_jobs()
        with pytest.raises(ValueError, match=r"^job \d: demand "):
            inst.validate_allocation_map(dict.fromkeys(inst.jobs, row))
        with pytest.raises(ValueError, match=r"^job \d: "):
            list_schedule(inst, dict.fromkeys(inst.jobs, row), fifo_priority)

    @pytest.mark.parametrize(
        "row, reason",
        [((9, 1), "exceeds capacities"), ([0, 0], "at least one"),
         ((-1, 2), "non-negative"), (np.array([1, 9]), "exceeds capacities")],
    )
    def test_an_out_of_range_or_empty_row_is_refused_by_job(self, row, reason):
        inst = self.unit_jobs()
        alloc = {**dict.fromkeys(inst.jobs, (1, 1)), 2: row}
        with pytest.raises(ValueError, match=rf"^job 2: .*{reason}"):
            inst.validate_allocation_map(alloc)
        with pytest.raises(ValueError, match=rf"^job 2: .*{reason}"):
            list_schedule(inst, alloc, fifo_priority)

    def test_whole_amounts_in_any_sequence_are_units(self):
        inst = self.unit_jobs()
        rows = [ResourceVector((2, 1)), (2, 1), [2.0, 1], np.array([2, 1])]
        alloc = dict(zip(inst.jobs, rows))
        m = inst.validate_allocation_map(alloc)
        assert m.dtype == np.int64 and m.tolist() == [[2, 1]] * 4
        sched = list_schedule(inst, alloc, fifo_priority)
        assert {p.start for p in sched.placements.values()} == {0.0}

    def test_a_missing_job_is_named(self):
        inst = self.unit_jobs()
        with pytest.raises(ValueError, match="allocation missing job 3"):
            inst.validate_allocation_map({j: (1, 1) for j in range(3)})


class TestCandidateTable:
    def test_frontier_shape(self):
        inst = fixed_time_instance()
        table = inst.candidate_table(full_grid)
        for j, entries in table.items():
            assert entries, f"empty frontier for {j}"
            for e1, e2 in zip(entries, entries[1:]):
                assert e1.time < e2.time
                assert e1.area > e2.area

    def test_cache_by_strategy(self):
        inst = fixed_time_instance()
        t1 = inst.candidate_table(full_grid)
        t2 = inst.candidate_table(full_grid)
        assert t1 is t2

    def test_cache_not_aliased_by_a_freed_strategy(self):
        """A strategy built inline is freed after the call and the next one
        reuses its address: keyed on ``id(strategy)`` the second call got the
        first call's table."""
        inst = tiny_instance(capacity=16)
        coarse = inst.candidate_table(make_candidates("diagonal", levels=2))
        fine = inst.candidate_table(make_candidates("diagonal", levels=16))
        assert fine is not coarse
        assert all(len(entries) <= 2 for entries in coarse.values())
        assert any(len(entries) > 2 for entries in fine.values())
        fresh = tiny_instance(capacity=16)
        assert fine == fresh.candidate_table(make_candidates("diagonal", levels=16))

    def test_make_instance_roundtrip(self):
        pool = ResourcePool.of(3, 3)
        dag = DAG(nodes=range(3), edges=[(0, 1)])
        inst = make_instance(dag, pool, lambda j: (lambda p: 1.0 + j))
        assert inst.n == 3
        assert inst.time(2, ResourceVector((1, 1))) == pytest.approx(3.0)
