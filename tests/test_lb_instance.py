"""Tests for the Theorem 6 / Figure 2 lower-bound instance family."""

import pytest

from repro.core.list_scheduler import list_schedule
from repro.experiments.lb_instance import (
    adversarial_priority,
    informed_priority,
    lower_bound_instance,
    theoretical_makespans,
)


def pinned_allocation(inst):
    return {j: inst.jobs[j].candidates[0] for j in inst.jobs}


class TestConstruction:
    def test_size_and_shape(self):
        d, m = 3, 6
        inst = lower_bound_instance(d, m)
        assert inst.n == 2 * m * d
        assert inst.pool.capacities == tuple([2] * d)
        # forest: every node has at most one parent
        assert all(inst.dag.in_degree(j) <= 1 for j in inst.jobs)
        # unit-time single-type rigid jobs
        for j, job in inst.jobs.items():
            assert len(job.candidates) == 1
            alloc = job.candidates[0]
            assert sum(alloc) == 1
            assert job.time(alloc) == 1.0

    def test_type_gating(self):
        inst = lower_bound_instance(3, 3)
        # every type-i job (i >= 1) is a child of the previous release job
        for j in inst.jobs:
            i = j[1]
            preds = list(inst.dag.predecessors(j))
            if i == 0:
                assert preds == []
            else:
                assert preds == [("r", i - 1)]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            lower_bound_instance(0, 3)
        with pytest.raises(ValueError):
            lower_bound_instance(2, 0)


class TestMakespans:
    @pytest.mark.parametrize("d,m", [(1, 3), (2, 6), (3, 12), (4, 9), (5, 12)])
    def test_closed_forms(self, d, m):
        inst = lower_bound_instance(d, m)
        alloc = pinned_allocation(inst)
        theo = theoretical_makespans(d, m)

        s_opt = list_schedule(inst, alloc, informed_priority(inst))
        s_opt.validate()
        assert s_opt.makespan == pytest.approx(theo["optimal"])

        s_adv = list_schedule(inst, alloc, adversarial_priority(inst))
        s_adv.validate()
        assert s_adv.makespan == pytest.approx(theo["adversarial"])

    def test_ratio_approaches_d(self):
        d = 4
        prev = 0.0
        for m in (12, 48, 192):
            theo = theoretical_makespans(d, m)
            assert theo["ratio"] > prev
            prev = theo["ratio"]
        # by M = 192 the ratio exceeds d - 0.1
        assert prev > d - 0.1
        assert prev < d  # never exceeds the bound itself on this family

    def test_informed_is_optimal(self):
        """T_opt >= max(area bound, release-chain gating) = M + d - 1, and the
        informed schedule achieves it."""
        d, m = 3, 6
        inst = lower_bound_instance(d, m)
        alloc = pinned_allocation(inst)
        s_opt = list_schedule(inst, alloc, informed_priority(inst))
        # gating argument: type d-1 work (2M units, capacity 2) cannot start
        # before t = d-1
        assert s_opt.makespan == pytest.approx(m + d - 1)
