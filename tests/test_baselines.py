"""Tests for the baseline schedulers."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import tiny_instance
from repro.baselines import (
    balanced_scheduler,
    heft_moldable_scheduler,
    min_area_scheduler,
    min_time_scheduler,
    sun_list_scheduler,
    sun_shelf_scheduler,
    tetris_scheduler,
)
from repro.core.lower_bounds import lp_lower_bound
from repro.jobs.candidates import full_grid

ALL_GENERAL = [
    min_area_scheduler,
    min_time_scheduler,
    balanced_scheduler,
    tetris_scheduler,
    heft_moldable_scheduler,
]


class TestFixedAllocationBaselines:
    def test_min_area_picks_cheapest(self):
        inst = tiny_instance(seed=0)
        table = inst.candidate_table(full_grid)
        res = min_area_scheduler(inst, full_grid)
        for j, entries in table.items():
            assert res.allocation[j] == entries[-1].alloc

    def test_min_time_picks_fastest(self):
        inst = tiny_instance(seed=0)
        table = inst.candidate_table(full_grid)
        res = min_time_scheduler(inst, full_grid)
        for j, entries in table.items():
            assert res.allocation[j] == entries[0].alloc

    def test_balanced_picks_knee(self):
        inst = tiny_instance(seed=0)
        table = inst.candidate_table(full_grid)
        res = balanced_scheduler(inst, full_grid)
        for j, entries in table.items():
            best = min(entries, key=lambda e: e.time * e.area)
            assert res.allocation[j] == best.alloc

    def test_one_knee_rule(self):
        """The knee lives in ``jobs/profiles.py``; every baseline and the
        malleable relaxation use that one function, and the old import path
        ``repro.baselines.naive.knee`` still resolves to it."""
        from repro.baselines import backfill, heft, level_shelf, naive
        from repro.jobs import profiles
        from repro.malleable import model

        assert all(
            module.knee is profiles.knee
            for module in (naive, heft, level_shelf, backfill, model)
        )

    @pytest.mark.parametrize("scheduler", ALL_GENERAL)
    def test_valid_and_above_lower_bound(self, scheduler):
        inst = tiny_instance(seed=13, d=2, capacity=6,
                             edges=((0, 1), (0, 2), (1, 3), (2, 3), (3, 4)))
        res = scheduler(inst, full_grid)
        res.schedule.validate()
        assert len(res.schedule) == inst.n
        lb = lp_lower_bound(inst, full_grid)
        assert res.makespan >= lb / (1 + 1e-6)

    @given(st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=10, deadline=None)
    def test_dynamic_baselines_valid_on_random_instances(self, seed):
        inst = tiny_instance(seed=seed, d=2, capacity=5,
                             edges=((0, 1), (1, 2), (0, 3), (3, 4), (2, 5), (4, 5)))
        for scheduler in (tetris_scheduler, heft_moldable_scheduler):
            res = scheduler(inst, full_grid)
            res.schedule.validate()
            assert len(res.schedule) == inst.n


class TestSun2018:
    def test_requires_independent(self):
        inst = tiny_instance(seed=0, edges=((0, 1),))
        with pytest.raises(ValueError):
            sun_list_scheduler(inst)
        with pytest.raises(ValueError):
            sun_shelf_scheduler(inst)

    def test_list_within_2d(self):
        inst = tiny_instance(seed=21, d=2, capacity=8, edges=(), n=10)
        from repro.core.independent import optimal_independent_allocation

        lb = optimal_independent_allocation(inst, full_grid).l_min
        res = sun_list_scheduler(inst, full_grid)
        res.schedule.validate()
        assert res.makespan <= 2 * inst.d * lb * (1 + 1e-6)

    def test_shelf_within_2d_plus_1(self):
        inst = tiny_instance(seed=22, d=2, capacity=8, edges=(), n=10)
        from repro.core.independent import optimal_independent_allocation

        lb = optimal_independent_allocation(inst, full_grid).l_min
        res = sun_shelf_scheduler(inst, full_grid)
        res.schedule.validate()
        assert res.makespan <= (2 * inst.d + 1) * lb * (1 + 1e-6)

    def test_shelf_structure(self):
        """Shelf schedule = distinct start times shared by shelf members, and
        each shelf's jobs fit the pool simultaneously (validated); shelves
        must not overlap: starts + heights are ordered."""
        inst = tiny_instance(seed=23, d=2, capacity=6, edges=(), n=8)
        res = sun_shelf_scheduler(inst, full_grid)
        starts = sorted({p.start for p in res.schedule.placements.values()})
        # jobs in shelf k all start at the same time; shelf k+1 starts exactly
        # at the max finish of shelf k
        for s0, s1 in zip(starts, starts[1:]):
            members = [p for p in res.schedule.placements.values() if p.start == s0]
            assert max(m.finish for m in members) == pytest.approx(s1)

    @given(st.integers(min_value=0, max_value=10**5), st.integers(min_value=1, max_value=3))
    @settings(max_examples=12, deadline=None)
    def test_sun_bounds_randomized(self, seed, d):
        inst = tiny_instance(seed=seed, d=d, capacity=6, edges=(), n=6)
        from repro.core.independent import optimal_independent_allocation

        lb = optimal_independent_allocation(inst, full_grid).l_min
        rl = sun_list_scheduler(inst, full_grid)
        rs = sun_shelf_scheduler(inst, full_grid)
        rl.schedule.validate()
        rs.schedule.validate()
        assert rl.makespan <= 2 * d * lb * (1 + 1e-6)
        assert rs.makespan <= (2 * d + 1) * lb * (1 + 1e-6)
