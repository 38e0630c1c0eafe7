"""Tests for the Lemma 8 optimal independent-jobs allocation."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import exact_lmin_bruteforce, tiny_instance
from repro.core.independent import optimal_independent_allocation
from repro.jobs.candidates import full_grid


class TestOptimality:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce(self, seed, n, d):
        inst = tiny_instance(seed=seed, d=d, capacity=4, edges=(), n=n)
        res = optimal_independent_allocation(inst, full_grid)
        exact, _ = exact_lmin_bruteforce(inst, full_grid)
        assert res.l_min == pytest.approx(exact, rel=1e-12)

    def test_value_consistency(self):
        inst = tiny_instance(seed=12, d=2, capacity=6, edges=(), n=8)
        res = optimal_independent_allocation(inst, full_grid)
        assert res.l_min == pytest.approx(
            max(res.max_time, res.total_area), rel=1e-12
        )
        # recompute from the returned allocation
        assert inst.total_area(res.allocation) == pytest.approx(res.total_area)
        times = inst.times(res.allocation)
        assert max(times.values()) == pytest.approx(res.max_time)

    def test_l_min_below_any_allocation(self):
        inst = tiny_instance(seed=3, d=2, capacity=4, edges=(), n=5)
        res = optimal_independent_allocation(inst, full_grid)
        table = inst.candidate_table(full_grid)
        for pick in (0, -1):
            alloc = {j: es[pick].alloc for j, es in table.items()}
            assert res.l_min <= inst.lower_bound_functional(alloc) + 1e-12

    def test_rejects_precedence(self):
        inst = tiny_instance(seed=0, edges=((0, 1),))
        with pytest.raises(ValueError):
            optimal_independent_allocation(inst, full_grid)

    def test_empty(self):
        inst = tiny_instance(seed=0, edges=(), n=0)
        res = optimal_independent_allocation(inst, full_grid)
        assert res.l_min == 0.0
        assert res.allocation == {}

    def test_single_job_picks_balanced_point(self):
        """For one job, L = max(t, a); the optimum is the frontier point
        minimizing that."""
        inst = tiny_instance(seed=21, d=2, capacity=6, edges=(), n=1)
        res = optimal_independent_allocation(inst, full_grid)
        table = inst.candidate_table(full_grid)
        (j, entries), = table.items()
        best = min(max(e.time, e.area) for e in entries)
        assert res.l_min == pytest.approx(best)
