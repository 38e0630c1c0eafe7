"""Tests for Algorithm 2 — the extended multi-resource list scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import rigid_unit_job, tiny_instance
from repro.core.list_scheduler import (
    bottom_level_priority,
    explicit_priority,
    fifo_priority,
    list_schedule,
    lpt_priority,
    random_priority,
    spt_priority,
)
from repro.dag.graph import DAG
from repro.instance.instance import Instance
from repro.jobs.candidates import full_grid
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


def balanced_allocation(inst):
    table = inst.candidate_table(full_grid)
    return {j: min(es, key=lambda e: e.time * e.area).alloc for j, es in table.items()}


class TestBasics:
    def test_single_job(self):
        pool = ResourcePool.of(4)
        inst = Instance(
            jobs={"j": rigid_unit_job("j", 1, 0)}, dag=DAG(nodes=["j"]), pool=pool
        )
        s = list_schedule(inst, {"j": ResourceVector((1,))})
        assert s.makespan == pytest.approx(1.0)
        assert s.placements["j"].start == 0.0

    def test_chain_is_sequential(self):
        pool = ResourcePool.of(2)
        jobs = {i: rigid_unit_job(i, 1, 0) for i in range(4)}
        dag = DAG(nodes=range(4), edges=[(i, i + 1) for i in range(3)])
        inst = Instance(jobs=jobs, dag=dag, pool=pool)
        s = list_schedule(inst, {i: ResourceVector((1,)) for i in range(4)})
        assert s.makespan == pytest.approx(4.0)
        for i in range(3):
            assert s.placements[i + 1].start == pytest.approx(s.placements[i].finish)

    def test_parallel_fills_capacity(self):
        pool = ResourcePool.of(3)
        jobs = {i: rigid_unit_job(i, 1, 0) for i in range(6)}
        inst = Instance(jobs=jobs, dag=DAG(nodes=range(6)), pool=pool)
        s = list_schedule(inst, {i: ResourceVector((1,)) for i in range(6)})
        assert s.makespan == pytest.approx(2.0)

    def test_multi_resource_blocking(self):
        """A job blocked on ONE type must wait even if others are free."""
        pool = ResourcePool.of(2, 2)
        t = {"a": (2, 1), "b": (1, 2), "c": (2, 2)}
        jobs = {
            k: rigid_unit_job(k, 2, 0) for k in t
        }
        jobs = {
            k: jobs[k].__class__(id=k, time_fn=lambda a: 1.0,
                                 candidates=(ResourceVector(v),))
            for k, v in t.items()
        }
        inst = Instance(jobs=jobs, dag=DAG(nodes=list(t)), pool=pool)
        alloc = {k: ResourceVector(v) for k, v in t.items()}
        s = list_schedule(inst, alloc, explicit_priority({"a": 0, "b": 1, "c": 2}))
        s.validate()
        # a and b run together (2+1 <= 2 per type? type0: 2+1=3 > 2) -> a alone,
        # actually a=(2,1) and b=(1,2): type0 usage 3 > 2, so they cannot overlap
        assert s.makespan == pytest.approx(3.0)

    def test_queue_scan_does_not_block_behind_big_job(self):
        """Algorithm 2 scans the entire queue: a small ready job starts even
        when a higher-priority big job cannot."""
        pool = ResourcePool.of(4)
        specs = {"big1": 3, "big2": 3, "small": 1}
        jobs = {
            k: rigid_unit_job(k, 1, 0).__class__(
                id=k, time_fn=lambda a: 1.0, candidates=(ResourceVector((v,)),)
            )
            for k, v in specs.items()
        }
        inst = Instance(jobs=jobs, dag=DAG(nodes=list(specs)), pool=pool)
        alloc = {k: ResourceVector((v,)) for k, v in specs.items()}
        s = list_schedule(inst, alloc, explicit_priority({"big1": 0, "big2": 1, "small": 2}))
        # big1 + small at t=0 (3+1=4), big2 at t=1
        assert s.placements["small"].start == pytest.approx(0.0)
        assert s.makespan == pytest.approx(2.0)

    def test_empty_instance(self):
        pool = ResourcePool.of(2)
        inst = Instance(jobs={}, dag=DAG(), pool=pool)
        s = list_schedule(inst, {})
        assert s.makespan == 0.0

    def test_oversized_allocation_rejected(self):
        pool = ResourcePool.of(2)
        inst = Instance(
            jobs={"j": rigid_unit_job("j", 1, 0)}, dag=DAG(nodes=["j"]), pool=pool
        )
        with pytest.raises(ValueError):
            list_schedule(inst, {"j": ResourceVector((3,))})


class TestPriorities:
    def test_priority_controls_order(self):
        pool = ResourcePool.of(1)
        jobs = {k: rigid_unit_job(k, 1, 0) for k in ("x", "y")}
        inst = Instance(jobs=jobs, dag=DAG(nodes=["x", "y"]), pool=pool)
        alloc = {k: ResourceVector((1,)) for k in jobs}
        s1 = list_schedule(inst, alloc, explicit_priority({"x": 0, "y": 1}))
        s2 = list_schedule(inst, alloc, explicit_priority({"x": 1, "y": 0}))
        assert s1.placements["x"].start < s1.placements["y"].start
        assert s2.placements["y"].start < s2.placements["x"].start

    def test_all_rules_produce_valid_schedules(self):
        inst = tiny_instance(seed=17, d=2, capacity=6,
                             edges=((0, 2), (1, 2), (2, 3), (1, 4)))
        alloc = balanced_allocation(inst)
        for rule in (fifo_priority, lpt_priority, spt_priority,
                     random_priority(5), bottom_level_priority):
            s = list_schedule(inst, alloc, rule)
            s.validate()
            assert len(s) == inst.n

    def test_deterministic(self):
        inst = tiny_instance(seed=23, d=2, capacity=6)
        alloc = balanced_allocation(inst)
        s1 = list_schedule(inst, alloc)
        s2 = list_schedule(inst, alloc)
        assert s1.starts == s2.starts


class TestRandomizedValidity:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_always_valid_and_complete(self, seed, d, n):
        import numpy as np

        from repro.dag.generators import erdos_renyi_dag
        from repro.instance.instance import make_instance
        from repro.jobs.speedup import random_multi_resource_time

        rng = np.random.default_rng(seed)
        dag = erdos_renyi_dag(n, 0.3, seed=rng)
        pool = ResourcePool.uniform(d, 5)
        fns = {j: random_multi_resource_time(d, rng) for j in dag.topological_order()}
        inst = make_instance(dag, pool, lambda j: fns[j])
        alloc = balanced_allocation(inst)
        s = list_schedule(inst, alloc)
        s.validate()
        assert len(s) == n

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_greedy_never_idles_with_small_jobs(self, seed):
        """With unit allocations and no precedence, greedy list scheduling
        achieves the trivially optimal ceil(n/P) makespan."""
        n = 13
        pool = ResourcePool.of(4)
        jobs = {i: rigid_unit_job(i, 1, 0) for i in range(n)}
        inst = Instance(jobs=jobs, dag=DAG(nodes=range(n)), pool=pool)
        s = list_schedule(inst, {i: ResourceVector((1,)) for i in range(n)},
                          random_priority(seed))
        assert s.makespan == pytest.approx(-(-n // 4))


class TestPortfolio:
    def test_best_of_rules(self):
        from repro.core.list_scheduler import portfolio_list_schedule

        inst = tiny_instance(seed=31, d=2, capacity=6,
                             edges=((0, 2), (1, 2), (2, 3), (1, 4)))
        alloc = balanced_allocation(inst)
        sched, winner = portfolio_list_schedule(inst, alloc)
        sched.validate()
        for rule in (fifo_priority, lpt_priority, bottom_level_priority):
            single = list_schedule(inst, alloc, rule)
            assert sched.makespan <= single.makespan + 1e-9
        assert winner in ("bottom_level", "fifo", "lpt", "random")

    def test_empty_rules_rejected(self):
        from repro.core.list_scheduler import portfolio_list_schedule

        inst = tiny_instance(seed=0)
        alloc = balanced_allocation(inst)
        with pytest.raises(ValueError):
            portfolio_list_schedule(inst, alloc, rules={})

    def test_first_rule_wins_ties(self):
        """Regression: the documented tie-breaking contract — the first rule
        (iteration order) keeps ties, later rules need a strict improvement."""
        from repro.core.list_scheduler import portfolio_list_schedule

        inst = tiny_instance(seed=31, d=2, capacity=6)
        alloc = balanced_allocation(inst)
        # identical rules => identical makespans for every entry
        rules = {"first": fifo_priority, "second": fifo_priority,
                 "third": fifo_priority}
        sched, winner = portfolio_list_schedule(inst, alloc, rules=rules)
        assert winner == "first"
        # reversing the dict order flips the winner, confirming it is the
        # *order*, not the name, that decides ties
        rules_rev = {"third": fifo_priority, "first": fifo_priority}
        _, winner_rev = portfolio_list_schedule(inst, alloc, rules=rules_rev)
        assert winner_rev == "third"

    def test_set_up_is_paid_once_not_once_per_rule(self, monkeypatch):
        """The allocation is validated once and every job's time evaluated
        once, whatever the number of rules — and each rule still gets the
        schedule ``list_schedule`` gives it."""
        from repro.core.list_scheduler import portfolio_list_schedule

        base = tiny_instance(seed=31, d=2, capacity=6,
                             edges=((0, 2), (1, 2), (2, 3), (1, 4)))
        calls = []

        def counted(job):
            def time_fn(alloc):
                calls.append(job.id)
                return job.time_fn(alloc)
            return time_fn

        inst = Instance(
            jobs={j: Job(id=j, time_fn=counted(job), candidates=job.candidates)
                  for j, job in base.jobs.items()},
            dag=base.dag, pool=base.pool,
        )
        alloc = balanced_allocation(base)
        singles = {
            name: list_schedule(base, alloc, rule).makespan
            for name, rule in (("bottom_level", bottom_level_priority),
                               ("fifo", fifo_priority), ("lpt", lpt_priority))
        }
        validations = []
        validate = Instance.validate_allocation_map
        monkeypatch.setattr(
            Instance, "validate_allocation_map",
            lambda self, a: validations.append(1) or validate(self, a),
        )
        sched, winner = portfolio_list_schedule(inst, alloc)  # four rules
        assert sorted(calls, key=repr) == sorted(inst.jobs, key=repr)
        assert len(validations) == 1
        assert sched.makespan <= min(singles.values())
        if winner in singles:
            assert sched.makespan == singles[winner]

    def test_tiny_improvements_within_tolerance_do_not_steal_the_win(self):
        from repro.core.list_scheduler import portfolio_list_schedule

        inst = tiny_instance(seed=8, d=2, capacity=6)
        alloc = balanced_allocation(inst)
        base = list_schedule(inst, alloc, fifo_priority).makespan
        better = list_schedule(inst, alloc, bottom_level_priority).makespan
        sched, winner = portfolio_list_schedule(
            inst, alloc,
            rules={"fifo": fifo_priority, "bottom": bottom_level_priority},
        )
        if better < base - 1e-12:
            assert winner == "bottom"
        else:
            assert winner == "fifo"
        assert sched.makespan == pytest.approx(min(base, better))
