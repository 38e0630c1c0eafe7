"""Tests for the Pegasus workflow study."""

import pytest

from repro.experiments.workflow_study import WORKFLOWS, workflow_comparison, workflow_instance
from repro.resources.pool import ResourcePool


class TestWorkflowInstances:
    @pytest.mark.parametrize("name", sorted(WORKFLOWS))
    def test_buildable_and_schedulable(self, name):
        pool = ResourcePool.uniform(2, 8)
        inst = workflow_instance(name, pool)
        assert inst.n > 5
        from repro.core.two_phase import MoldableScheduler

        res = MoldableScheduler(allocator="lp").schedule(inst)
        res.schedule.validate()
        assert res.makespan <= res.proven_ratio * res.lower_bound * (1 + 1e-6)

    def test_unknown_workflow(self):
        with pytest.raises(ValueError):
            workflow_instance("nope", ResourcePool.uniform(2, 8))

    def test_comparison_rows(self):
        rows = workflow_comparison(d=2, capacity=12, names=("montage",))
        assert rows[0]["workflow"] == "montage"
        assert rows[0]["ours"] <= rows[0]["proven"] + 1e-9
        for key in ("min_area", "min_time", "balanced", "tetris", "heft"):
            assert rows[0][key] >= 1.0 - 1e-9
