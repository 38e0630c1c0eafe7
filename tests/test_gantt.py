"""Tests for ASCII Gantt rendering."""

from helpers import tiny_instance
from repro.core.list_scheduler import list_schedule
from repro.experiments.lb_instance import (
    informed_priority,
    lower_bound_instance,
)
from repro.jobs.candidates import full_grid
from repro.sim.gantt import ascii_gantt
from repro.sim.schedule import Schedule


class TestGantt:
    def test_empty(self):
        inst = tiny_instance(seed=0, edges=(), n=0)
        s = Schedule(inst)
        assert ascii_gantt(s) == "(empty schedule)"

    def test_renders_bands_per_type(self):
        inst = tiny_instance(seed=1, d=2, capacity=4)
        table = inst.candidate_table(full_grid)
        alloc = {j: es[-1].alloc for j, es in table.items()}
        s = list_schedule(inst, alloc)
        out = ascii_gantt(s, width=40)
        assert out.startswith("makespan = ")
        assert out.count("-- type") == 2
        # one lane row per capacity unit
        assert len(out.splitlines()) == 1 + 2 * (1 + 4)

    def test_unit_instance_exact(self):
        inst = lower_bound_instance(2, 3)
        alloc = {j: inst.jobs[j].candidates[0] for j in inst.jobs}
        s = list_schedule(inst, alloc, informed_priority(inst))
        out = ascii_gantt(s, width=80)
        # makespan M + d - 1 = 4 characters of occupancy on the busiest lane
        assert "makespan = 4" in out
