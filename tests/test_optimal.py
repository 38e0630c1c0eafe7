"""Tests for the exact branch-and-bound scheduling oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import rigid_unit_job, tiny_instance
from repro.core.list_scheduler import list_schedule, random_priority
from repro.core.lower_bounds import lp_lower_bound
from repro.core.optimal import optimal_makespan, optimal_makespan_fixed_allocation
from repro.core.two_phase import MoldableScheduler
from repro.dag.graph import DAG
from repro.instance.instance import Instance
from repro.jobs.candidates import full_grid
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


class TestFixedAllocation:
    def test_chain_is_sum(self):
        pool = ResourcePool.of(2)
        jobs = {i: rigid_unit_job(i, 1, 0) for i in range(4)}
        dag = DAG(nodes=range(4), edges=[(i, i + 1) for i in range(3)])
        inst = Instance(jobs=jobs, dag=dag, pool=pool)
        mk, sched = optimal_makespan_fixed_allocation(
            inst, {i: ResourceVector((1,)) for i in range(4)}
        )
        assert mk == pytest.approx(4.0)
        sched.validate()

    def test_packing_beats_greedy_order(self):
        """Jobs with sizes 2,2,1,1 and durations 1,1,2,2 on P=3: total work
        is 8 so T_opt >= 8/3, and the area-tight packing achieving 3
        (a+c, b+d overlapped) exists; exact search must find 3 and never be
        beaten by any list order."""
        pool = ResourcePool.of(3)
        spec = {"a": (2, 1.0), "b": (2, 1.0), "c": (1, 2.0), "d": (1, 2.0)}
        jobs = {
            k: Job(id=k, time_fn=(lambda t: (lambda p: t))(t),
                   candidates=(ResourceVector((s,)),))
            for k, (s, t) in spec.items()
        }
        inst = Instance(jobs=jobs, dag=DAG(nodes=list(spec)), pool=pool)
        alloc = {k: ResourceVector((s,)) for k, (s, _) in spec.items()}
        mk, sched = optimal_makespan_fixed_allocation(inst, alloc)
        sched.validate()
        for seed in range(5):
            s = list_schedule(inst, alloc, random_priority(seed))
            assert mk <= s.makespan + 1e-9
        assert mk == pytest.approx(3.0)

    def test_respects_precedence(self):
        pool = ResourcePool.of(4)
        jobs = {i: rigid_unit_job(i, 1, 0) for i in range(3)}
        dag = DAG(nodes=range(3), edges=[(0, 2), (1, 2)])
        inst = Instance(jobs=jobs, dag=dag, pool=pool)
        mk, sched = optimal_makespan_fixed_allocation(
            inst, {i: ResourceVector((1,)) for i in range(3)}
        )
        assert mk == pytest.approx(2.0)
        sched.validate()

    def test_size_guard(self):
        inst = tiny_instance(seed=0, edges=(), n=12)
        with pytest.raises(ValueError):
            optimal_makespan_fixed_allocation(
                inst, {j: ResourceVector((1, 1)) for j in inst.jobs}, max_jobs=9
            )

    def test_empty(self):
        inst = tiny_instance(seed=0, edges=(), n=0)
        mk, sched = optimal_makespan_fixed_allocation(inst, {})
        assert mk == 0.0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_never_beaten_by_list_scheduling(self, seed):
        inst = tiny_instance(seed=seed, d=2, capacity=4,
                             edges=((0, 2), (1, 2), (1, 3)))
        table = inst.candidate_table(full_grid)
        alloc = {j: es[len(es) // 2].alloc for j, es in table.items()}
        mk, sched = optimal_makespan_fixed_allocation(inst, alloc)
        sched.validate()
        for prio_seed in range(3):
            s = list_schedule(inst, alloc, random_priority(prio_seed))
            assert mk <= s.makespan + 1e-9


class TestFullOptimal:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_sandwiched_by_bounds(self, seed):
        """LB <= T_opt <= our makespan, and our ratio vs T_opt within the
        proven factor."""
        inst = tiny_instance(seed=seed, d=2, capacity=3,
                             edges=((0, 1), (0, 2), (2, 3)))
        t_opt, sched = optimal_makespan(inst, full_grid)
        sched.validate()
        lb = lp_lower_bound(inst, full_grid)
        assert lb <= t_opt * (1 + 1e-6)
        res = MoldableScheduler(allocator="lp", strategy=full_grid).schedule(inst)
        assert t_opt <= res.makespan + 1e-9
        assert res.makespan <= res.proven_ratio * t_opt * (1 + 1e-6)

    def test_moldability_helps(self):
        """The optimal over allocations is at least as good as any fixed
        (rigid) choice."""
        inst = tiny_instance(seed=10, d=2, capacity=3, edges=((0, 1),), n=3)
        t_opt, _ = optimal_makespan(inst, full_grid)
        table = inst.candidate_table(full_grid)
        for pick in (0, -1):
            alloc = {j: es[pick].alloc for j, es in table.items()}
            mk, _ = optimal_makespan_fixed_allocation(inst, alloc)
            assert t_opt <= mk + 1e-9

    def test_guards(self):
        inst = tiny_instance(seed=0, edges=(), n=8)
        with pytest.raises(ValueError):
            optimal_makespan(inst, full_grid, max_jobs=6)
        inst2 = tiny_instance(seed=0, edges=(), n=5, capacity=8)
        with pytest.raises(ValueError):
            optimal_makespan(inst2, full_grid, max_jobs=6, max_combinations=10)
