"""End-to-end tests of the complete algorithm, including the makespan
guarantee T <= f_d(µ,ρ)·L_LP that the proof of Theorem 1 establishes."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import tiny_instance
from repro.core import theory
from repro.core.two_phase import MoldableScheduler
from repro.dag.sp import random_sp_tree, sp_to_dag
from repro.experiments.workloads import random_instance
from repro.jobs.candidates import full_grid
from repro.resources.pool import ResourcePool


class TestGeneralPath:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_makespan_guarantee_vs_lp_bound(self, seed, d):
        """T <= f_d(µ*, ρ*) · L_LP whenever P_min >= 1/µ*² — the quantity the
        proof of Theorem 1 actually bounds (L_LP <= T_opt tightens it)."""
        inst = tiny_instance(seed=seed, d=d, capacity=8,
                             edges=((0, 1), (0, 2), (1, 3), (2, 3), (1, 4)))
        sched = MoldableScheduler(allocator="lp", strategy=full_grid)
        res = sched.schedule(inst)
        res.schedule.validate()
        assert res.makespan <= res.proven_ratio * res.lower_bound * (1 + 1e-6)

    def test_explicit_parameters_respected(self):
        inst = tiny_instance(seed=4)
        res = MoldableScheduler(mu=0.45, rho=0.6, allocator="lp").schedule(inst)
        assert res.mu == 0.45
        assert res.rho == 0.6
        # guarantee with the explicit parameters
        bound = theory.f_bound(inst.d, 0.45, 0.6)
        assert res.makespan <= bound * res.lower_bound * (1 + 1e-6)

    def test_phase1_artifacts_exposed(self):
        inst = tiny_instance(seed=4)
        res = MoldableScheduler(allocator="lp").schedule(inst)
        assert res.phase1 is not None
        assert res.phase1.lower_bound == res.lower_bound
        assert set(res.phase1.p_prime) == set(inst.jobs)


class TestAllocatorSelection:
    def test_auto_independent(self):
        inst = tiny_instance(seed=1, edges=(), n=6)
        res = MoldableScheduler().schedule(inst)
        assert res.allocator == "independent"
        assert res.rho is None

    def test_auto_sp_with_tree(self):
        sp = random_sp_tree(6, seed=2)
        dag = sp_to_dag(sp)
        pool = ResourcePool.of(8, 8)
        import numpy as np

        from repro.instance.instance import make_instance
        from repro.jobs.speedup import random_multi_resource_time

        rng = np.random.default_rng(2)
        fns = {j: random_multi_resource_time(2, rng) for j in dag.topological_order()}
        inst = make_instance(dag, pool, lambda j: fns[j])
        res = MoldableScheduler().schedule(inst, sp_tree=sp)
        assert res.allocator == "sp"
        res.schedule.validate()
        assert res.makespan <= res.proven_ratio * res.lower_bound * (1 + 1e-6)

    def test_auto_lp_fallback(self):
        inst = tiny_instance(seed=3)
        res = MoldableScheduler().schedule(inst)
        assert res.allocator == "lp"

    def test_sp_requires_tree(self):
        inst = tiny_instance(seed=3)
        with pytest.raises(ValueError):
            MoldableScheduler(allocator="sp").schedule(inst)

    def test_unknown_allocator(self):
        inst = tiny_instance(seed=3)
        with pytest.raises(ValueError):
            MoldableScheduler(allocator="bogus").schedule(inst)


class TestIndependentPath:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_theorem5_guarantee(self, seed, d):
        """Independent jobs: ratio vs exact L_min stays below Theorem 5."""
        inst = tiny_instance(seed=seed, d=d, capacity=max(8, 7), edges=(), n=7)
        res = MoldableScheduler(strategy=full_grid).schedule(inst)
        res.schedule.validate()
        assert res.makespan <= res.proven_ratio * res.lower_bound * (1 + 1e-6)

    def test_ratio_property(self):
        inst = tiny_instance(seed=5, edges=(), n=5)
        res = MoldableScheduler().schedule(inst)
        assert res.ratio() == pytest.approx(res.makespan / res.lower_bound)


class TestWorkloadFamilies:
    @pytest.mark.parametrize("family", ["layered", "cholesky", "forkjoin", "stencil", "erdos"])
    def test_families_end_to_end(self, family):
        pool = ResourcePool.uniform(2, 8)
        wl = random_instance(family, 16, pool, seed=0)
        res = MoldableScheduler().schedule(wl.instance)
        res.schedule.validate()
        assert res.makespan <= res.proven_ratio * res.lower_bound * (1 + 1e-6)

    @pytest.mark.parametrize("family", ["outtree", "intree", "sp"])
    def test_sp_families_end_to_end(self, family):
        pool = ResourcePool.uniform(2, 8)
        wl = random_instance(family, 10, pool, seed=1)
        res = MoldableScheduler(epsilon=0.5).schedule(wl.instance, sp_tree=wl.sp_tree)
        assert res.allocator == "sp"
        res.schedule.validate()
        assert res.makespan <= res.proven_ratio * res.lower_bound * (1 + 1e-6)
