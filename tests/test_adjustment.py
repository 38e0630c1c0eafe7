"""Tests for the Eq. (5) adjustment and Lemma 4's bounds."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import tiny_instance
from repro.core.adjustment import adjust_allocation
from repro.core.dtct import dtct_allocate
from repro.jobs.candidates import full_grid


class TestEquation5:
    def test_caps_applied_componentwise(self):
        inst = tiny_instance(seed=2, d=2, capacity=10)
        mu = 0.382
        caps = inst.pool.mu_caps(mu)
        assert caps == (math.ceil(3.82), math.ceil(3.82))
        table = inst.candidate_table(full_grid)
        p_prime = {j: entries[0].alloc for j, entries in table.items()}  # fastest: big allocs
        res = adjust_allocation(inst, p_prime, mu)
        for j, alloc in res.allocation.items():
            for i in range(2):
                expected = min(p_prime[j][i], caps[i])
                assert alloc[i] == expected

    def test_unadjusted_jobs_untouched(self):
        inst = tiny_instance(seed=2, d=2, capacity=10)
        table = inst.candidate_table(full_grid)
        p_prime = {j: entries[-1].alloc for j, entries in table.items()}  # cheapest: small allocs
        res = adjust_allocation(inst, p_prime, 0.45)
        for j in inst.jobs:
            if j not in res.adjusted_jobs:
                assert res.allocation[j] == p_prime[j]

    def test_adjusted_set_accurate(self):
        inst = tiny_instance(seed=9, d=2, capacity=12)
        table = inst.candidate_table(full_grid)
        p_prime = {j: entries[0].alloc for j, entries in table.items()}
        res = adjust_allocation(inst, p_prime, 0.3)
        for j in inst.jobs:
            changed = tuple(res.allocation[j]) != tuple(p_prime[j])
            assert (j in res.adjusted_jobs) == changed


    def test_only_a_capped_job_gets_a_new_vector(self, monkeypatch):
        """A count, not a stopwatch: the ``(n, d)`` matrix is capped in one
        ``minimum`` and exactly ``len(adjusted_jobs)`` vectors are built."""
        from repro.core import adjustment

        built = []

        class Counting(adjustment.ResourceVector):
            def __new__(cls, amounts):
                built.append(amounts)
                return super().__new__(cls, amounts)

        inst = tiny_instance(seed=9, d=2, capacity=12, n=12, edges=((0, 1),))
        table = inst.candidate_table(full_grid)
        p_prime = {
            j: entries[0 if j % 3 else -1].alloc for j, entries in table.items()
        }  # fastest (big) for two jobs in three, cheapest (small) for the third
        monkeypatch.setattr(adjustment, "ResourceVector", Counting)
        res = adjust_allocation(inst, p_prime, 0.3)
        assert 0 < len(res.adjusted_jobs) < inst.n
        assert len(built) == len(res.adjusted_jobs)
        for j in inst.jobs:
            assert (res.allocation[j] is p_prime[j]) == (j not in res.adjusted_jobs)
            assert tuple(res.allocation[j]) == tuple(p_prime[j].cap(res.caps))
        assert list(res.allocation) == list(p_prime)

    def test_degenerate_inputs(self):
        inst = tiny_instance(seed=9)
        assert adjust_allocation(inst, {}, 0.3).allocation == {}
        from repro.resources.vector import ResourceVector

        with pytest.raises(ValueError):
            adjust_allocation(inst, {0: ResourceVector((1, 1, 1))}, 0.3)
        with pytest.raises(ValueError):
            adjust_allocation(inst, {0: ResourceVector((1, 1)), 1: ResourceVector((1,))}, 0.3)


class TestLemma4:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.34, max_value=0.49),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_time_and_area_bounds(self, seed, mu, d):
        """t_j(p_j) <= t_j(p'_j)/µ and a_j^(i)(p_j) <= d·a_j(p'_j)
        whenever P_min >= 1/µ² (Lemma 4)."""
        capacity = max(9, math.ceil(1.0 / (mu * mu)))
        inst = tiny_instance(seed=seed, d=d, capacity=capacity)
        assert inst.pool.supports_mu(mu)
        table = inst.candidate_table(full_grid)
        p_prime, _ = dtct_allocate(inst, table, rho=0.4)
        res = adjust_allocation(inst, p_prime, mu)
        for j in inst.jobs:
            t_adj = inst.time(j, res.allocation[j])
            t_pre = inst.time(j, p_prime[j])
            assert t_adj <= t_pre / mu * (1 + 1e-9)
            avg_pre = inst.avg_area(j, p_prime[j])
            for i in range(d):
                assert inst.area(j, res.allocation[j], i) <= d * avg_pre * (1 + 1e-9)

    def test_rejects_bad_mu(self):
        inst = tiny_instance(seed=0)
        with pytest.raises(ValueError):
            adjust_allocation(inst, {}, 0.6)
        with pytest.raises(ValueError):
            adjust_allocation(inst, {}, 0.0)
