"""Tests for the Lemma 5/6 empirical verification."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import tiny_instance
from repro.core.allocation import allocate_resources
from repro.core.list_scheduler import list_schedule, random_priority
from repro.core import theory
from repro.jobs.candidates import full_grid
from repro.sim.metrics import verify_lemma_bounds


def phase1_and_schedule(seed, d=2, capacity=8, priority=None, mu=None, rho=None):
    inst = tiny_instance(seed=seed, d=d, capacity=capacity,
                         edges=((0, 1), (0, 2), (1, 3), (2, 3), (2, 4)))
    mu = mu if mu is not None else theory.MU_A
    rho = rho if rho is not None else theory.theorem1_rho(d)
    phase1 = allocate_resources(inst, rho, mu, full_grid)
    sched = list_schedule(inst, phase1.allocation,
                          priority if priority else random_priority(seed))
    return inst, phase1, sched


class TestLemmaVerification:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_lemmas_hold_on_real_schedules(self, seed, d):
        """Lemma 5 (T1 + µT2 <= C(p')) and Lemma 6 (µT2 + (1−µ)T3 <= dA(p'))
        hold on every Algorithm 1 + Algorithm 2 schedule with P_min >= 1/µ²."""
        inst, phase1, sched = phase1_and_schedule(seed, d=d, capacity=8)
        assert inst.pool.supports_mu(phase1.mu)
        check = verify_lemma_bounds(sched, phase1)
        assert check.lemma5_holds, (check.lemma5_lhs, check.lemma5_rhs)
        assert check.lemma6_holds, (check.lemma6_lhs, check.lemma6_rhs)
        assert check.all_hold
        # the interval decomposition covers the makespan
        assert check.t1 + check.t2 + check.t3 == pytest.approx(sched.makespan)

    def test_makespan_reassembly(self):
        """The proof's final assembly: T <= f_d(µ,ρ)·L_LP follows from the
        lemma quantities — re-derive it numerically from the check."""
        inst, phase1, sched = phase1_and_schedule(3)
        check = verify_lemma_bounds(sched, phase1)
        mu = phase1.mu
        d = inst.d
        # T = T1 + T2 + T3 <= C(p') + d/(1-µ) A(p') when (1-µ)² <= µ
        bound = check.critical_path_pprime + d / (1 - mu) * check.total_area_pprime
        assert sched.makespan <= bound * (1 + 1e-9)

    def test_capacity_precondition_reported(self):
        inst, phase1, sched = phase1_and_schedule(5, capacity=4)  # 4 < 1/µ² ≈ 6.85
        check = verify_lemma_bounds(sched, phase1)
        assert not check.capacity_precondition
