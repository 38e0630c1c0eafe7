"""Cross-cutting pipeline invariants (heavier hypothesis suites).

Each test draws a whole random pipeline configuration — graph family,
dimensionality, capacities, job models, parameters — and asserts the
paper's inequality chain end to end:

    L_LP <= L(p') functional relations <= theorem bounds on T

plus structural invariants (validity, determinism, monotonicity of the
lower-bound chain) that no single-module test pins down.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import theory
from repro.core.allocation import allocate_resources
from repro.core.list_scheduler import list_schedule, random_priority
from repro.core.two_phase import MoldableScheduler
from repro.experiments.workloads import random_instance
from repro.resources.pool import ResourcePool
from repro.sim.metrics import verify_lemma_bounds

FAMILIES = ["layered", "erdos", "forkjoin", "chain", "independent", "stencil"]

pipeline_configs = st.tuples(
    st.sampled_from(FAMILIES),
    st.integers(min_value=1, max_value=3),          # d
    st.integers(min_value=8, max_value=24),         # capacity
    st.integers(min_value=4, max_value=18),         # n
    st.integers(min_value=0, max_value=10**6),      # seed
)


class TestEndToEndChain:
    @given(pipeline_configs)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_inequality_chain(self, cfg):
        family, d, capacity, n, seed = cfg
        pool = ResourcePool.uniform(d, capacity)
        wl = random_instance(family, n, pool, seed=seed)
        inst = wl.instance

        mu, rho, proven = theory.best_parameters(d, "general")
        phase1 = allocate_resources(inst, rho, mu)
        lb = phase1.lower_bound

        # Lemma 3's two inequalities relative to the LP bound
        assert inst.critical_path(phase1.p_prime) <= lb / rho * (1 + 1e-6)
        assert inst.total_area(phase1.p_prime) <= lb / (1 - rho) * (1 + 1e-6)

        # Phase 2 with an arbitrary (random) priority keeps the guarantee
        sched = list_schedule(inst, phase1.allocation, random_priority(seed))
        sched.validate()
        assert sched.makespan <= proven * lb * (1 + 1e-6)

        # lemma machinery holds whenever the capacity precondition does
        if inst.pool.supports_mu(mu):
            check = verify_lemma_bounds(sched, phase1)
            assert check.all_hold
            assert check.t1 + check.t2 + check.t3 == pytest.approx(sched.makespan)

    @given(pipeline_configs)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_determinism(self, cfg):
        family, d, capacity, n, seed = cfg
        pool = ResourcePool.uniform(d, capacity)

        def run():
            wl = random_instance(family, n, pool, seed=seed)
            res = MoldableScheduler(allocator="lp").schedule(wl.instance)
            return res.makespan, res.lower_bound

        assert run() == run()

    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=12, deadline=None)
    def test_lower_bound_chain_monotone(self, seed, d):
        """trivial floors <= L_LP and adjusted allocation's L(p) within the
        adjustment inflation envelope of L(p')."""
        from helpers import trivial_lower_bounds
        from repro.core.lower_bounds import lp_lower_bound

        pool = ResourcePool.uniform(d, 10)
        wl = random_instance("layered", 10, pool, seed=seed)
        inst = wl.instance
        lb = lp_lower_bound(inst)
        triv = trivial_lower_bounds(inst)
        assert triv["max_min_time"] <= lb * (1 + 1e-6)
        assert triv["min_total_area"] <= lb * (1 + 1e-6)

        mu, rho, _ = theory.best_parameters(d, "general")
        phase1 = allocate_resources(inst, rho, mu)
        # adjustment inflates any job's time by at most 1/µ (Lemma 4)
        c_prime = inst.critical_path(phase1.p_prime)
        c_final = inst.critical_path(phase1.allocation)
        assert c_final <= c_prime / mu * (1 + 1e-6)


class TestScheduleInvariance:
    @given(pipeline_configs, st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_priority_is_valid_and_bounded(self, cfg, prio_seed):
        family, d, capacity, n, seed = cfg
        pool = ResourcePool.uniform(d, capacity)
        wl = random_instance(family, n, pool, seed=seed)
        res = MoldableScheduler(allocator="lp").schedule(wl.instance)
        other = list_schedule(wl.instance, res.allocation, random_priority(prio_seed))
        other.validate()
        assert other.makespan <= res.proven_ratio * res.lower_bound * (1 + 1e-6)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_makespan_at_least_any_single_job(self, seed):
        pool = ResourcePool.uniform(2, 8)
        wl = random_instance("layered", 10, pool, seed=seed)
        res = MoldableScheduler(allocator="lp").schedule(wl.instance)
        times = wl.instance.times(res.allocation)
        assert res.makespan >= max(times.values()) - 1e-9
        total_min_area = sum(
            min(e.area for e in es) for es in wl.instance.candidate_table().values()
        )
        assert res.makespan >= total_min_area / (1 + 1e-6)
