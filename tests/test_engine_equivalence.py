"""Differential tests: kernel-based schedulers vs. the frozen pre-refactor
loops in :mod:`repro.engine.reference` and ``helpers.py``.

The kernel port must preserve the old loops' behavior *exactly* — same
starts, same tie-breaking, same RNG draw order — so every comparison below
asserts identical schedules, not just identical makespans.
"""

import numpy as np
import pytest

from helpers import (
    reference_backfill_plan,
    reference_malleable_task_starts,
    reference_pack_shelf_placements,
    reference_run_dynamic,
    tiny_instance,
)
from repro.baselines.backfill import backfill_scheduler
from repro.baselines.heft import heft_moldable_scheduler, make_heft_policy
from repro.baselines.level_shelf import level_shelf_scheduler
from repro.baselines.sun2018 import sun_shelf_scheduler
from repro.baselines.tetris import make_tetris_policy, tetris_scheduler
from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    list_schedule,
    lpt_priority,
    random_priority,
    spt_priority,
)
from repro.core.independent import optimal_independent_allocation
from repro.dag.analysis import node_levels
from repro.dag.generators import erdos_renyi_dag
from repro.dag.paths import bottom_levels
from repro.engine.dispatch import run_dynamic
from repro.engine.reference import reference_list_schedule
from repro.instance.instance import make_instance
from repro.jobs.candidates import full_grid
from repro.jobs.speedup import random_multi_resource_time
from repro.malleable.model import moldable_to_malleable
from repro.malleable.scheduler import malleable_list_schedule
from repro.resources.pool import ResourcePool


def random_instance(seed, d=2, n=14, capacity=6, p=0.3):
    rng = np.random.default_rng(seed)
    dag = erdos_renyi_dag(n, p, seed=rng)
    pool = ResourcePool.uniform(d, capacity)
    fns = {j: random_multi_resource_time(d, rng) for j in dag.topological_order()}
    return make_instance(dag, pool, lambda j: fns[j])


def balanced_allocation(inst):
    table = inst.candidate_table(full_grid)
    return {j: min(es, key=lambda e: e.time * e.area).alloc for j, es in table.items()}


SEEDS = (0, 1, 7, 23, 101)


class TestListScheduleEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("rule", [
        fifo_priority, lpt_priority, spt_priority,
        bottom_level_priority, random_priority(3),
    ])
    def test_identical_placements(self, seed, rule):
        inst = random_instance(seed, d=2 + seed % 2)
        alloc = balanced_allocation(inst)
        new = list_schedule(inst, alloc, rule)
        old = reference_list_schedule(inst, alloc, rule)
        assert new.starts == old.starts
        assert new.makespan == old.makespan

    def test_contended_queue_identical(self):
        # tight capacity -> long ready queues -> the vectorized prefilter
        # path is exercised heavily
        inst = random_instance(5, d=3, n=24, capacity=4, p=0.15)
        alloc = balanced_allocation(inst)
        new = list_schedule(inst, alloc, bottom_level_priority)
        old = reference_list_schedule(inst, alloc, bottom_level_priority)
        assert new.starts == old.starts


class TestDynamicBaselineEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tetris_identical(self, seed):
        inst = random_instance(seed)
        table = inst.candidate_table()
        new = run_dynamic(inst, make_tetris_policy(inst, table))
        old = reference_run_dynamic(inst, make_tetris_policy(inst, table))
        assert new.starts == old.starts
        assert new.allocation == old.allocation

    @pytest.mark.parametrize("seed", SEEDS)
    def test_heft_identical(self, seed):
        inst = random_instance(seed, d=3)
        table = inst.candidate_table()
        new = run_dynamic(inst, make_heft_policy(inst, table))
        old = reference_run_dynamic(inst, make_heft_policy(inst, table))
        assert new.starts == old.starts

    def test_scheduler_wrappers_match_reference(self):
        inst = random_instance(2)
        table = inst.candidate_table()
        assert tetris_scheduler(inst).schedule.starts == \
            reference_run_dynamic(inst, make_tetris_policy(inst, table)).starts
        assert heft_moldable_scheduler(inst).schedule.starts == \
            reference_run_dynamic(inst, make_heft_policy(inst, table)).starts


class TestShelfEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sun_shelf_identical(self, seed):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 3
        pool = ResourcePool.uniform(d, 6)
        dag = erdos_renyi_dag(12, 0.0, seed=rng)  # independent jobs
        fns = {j: random_multi_resource_time(d, rng) for j in dag.topological_order()}
        inst = make_instance(dag, pool, lambda j: fns[j])
        res = sun_shelf_scheduler(inst)
        allocation = optimal_independent_allocation(inst).allocation
        times = {j: inst.time(j, allocation[j]) for j in inst.jobs}
        order = sorted(inst.jobs, key=lambda j: -times[j])
        ref, _ = reference_pack_shelf_placements(
            order, allocation, times, inst.pool.capacities
        )
        assert res.schedule.starts == {j: p.start for j, p in ref.items()}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_level_shelf_identical(self, seed):
        inst = random_instance(seed, d=2, n=12)
        res = level_shelf_scheduler(inst)
        allocation = res.allocation
        times = {j: inst.time(j, allocation[j]) for j in inst.jobs}
        levels = node_levels(inst.dag)
        by_level = {}
        for j, l in levels.items():
            by_level.setdefault(l, []).append(j)
        ref = {}
        t0 = 0.0
        for level in sorted(by_level):
            jobs = sorted(by_level[level], key=lambda j: -times[j])
            placed, t0 = reference_pack_shelf_placements(
                jobs, allocation, times, inst.pool.capacities, t0=t0
            )
            ref.update(placed)
        assert res.schedule.starts == {j: p.start for j, p in ref.items()}


class TestBackfillEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_reservations_identical(self, seed):
        inst = random_instance(seed, d=2, n=12)
        res = backfill_scheduler(inst)
        allocation = res.allocation
        times = {j: inst.time(j, allocation[j]) for j in inst.jobs}
        rank = bottom_levels(inst.dag, times)
        order = sorted(inst.dag.topological_order(), key=lambda j: (-rank[j],))
        ref = reference_backfill_plan(inst, allocation, times, order)
        assert res.schedule.starts == {j: p.start for j, p in ref.items()}


class TestMalleableEquivalence:
    @pytest.mark.parametrize("seed", (0, 3, 9))
    def test_task_starts_identical(self, seed):
        inst = tiny_instance(seed=seed, d=2, capacity=4)
        m = moldable_to_malleable(inst)
        new = malleable_list_schedule(m)
        old = reference_malleable_task_starts(m)
        assert new.task_start == old
