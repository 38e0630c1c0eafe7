"""Hypothesis property: the time-point-batched loop is the per-event loop.

The batched restructure (pop every simultaneous event in one batch, apply
completions/releases vectorized, one feasibility re-scan per time point)
and the admit-then-refilter dispatch pass are *optimizations*, not
semantic changes: across workload families × schedulers × d ∈ {1..6} ×
arrival modes (hypothesis-sampled), the live engine must reproduce the
frozen per-event PR-1 reference loop event for event — and, offline, the
pre-kernel loop too — or the property fails with a seeded reproducer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    list_schedule,
    lpt_priority,
    spt_priority,
)
from repro.engine.reference import (
    reference_list_schedule,
    reference_pr1_list_schedule,
)
from repro.experiments.workloads import WORKLOAD_FAMILIES, random_instance
from repro.instance.instance import with_poisson_arrivals
from repro.jobs.candidates import make_candidates
from repro.registry import get_scheduler
from repro.resources.pool import ResourcePool

_DIAGONAL = make_candidates("diagonal", levels=6)

#: Schedulers that keep a fixed allocation for the engine to replay.
_SCHEDULERS = ("ours", "min_area", "min_time", "tetris", "heft", "level_shelf", "backfill")

_RULES = {
    "fifo": fifo_priority,
    "lpt": lpt_priority,
    "spt": spt_priority,
    "bottom_level": bottom_level_priority,
}


def _case(family, scheduler, d, arrivals, seed):
    """(instance, allocation) for one sampled configuration, or None when
    the combination is contractually unsupported."""
    spec = get_scheduler(scheduler)
    if spec.graphs == "independent" and family != "independent":
        return None
    pool = ResourcePool.uniform(d, 8)
    inst = random_instance(family, 8, pool, seed=seed).instance
    if arrivals == "poisson" and scheduler not in ("backfill", "level_shelf"):
        inst = with_poisson_arrivals(inst, 2.0, seed=seed)
    strategy = _DIAGONAL if d >= 5 else None
    try:
        if scheduler == "ours":
            result = (
                spec.schedule(inst, candidate_strategy=strategy)
                if strategy is not None
                else spec.schedule(inst)
            )
        elif strategy is not None:
            result = spec.schedule(inst, strategy=strategy)
        else:
            result = spec.schedule(inst)
    except ValueError:
        return None  # contractual rejection (offline planner + releases)
    allocation = getattr(result, "allocation", None)
    if allocation is None:
        return None
    return inst, allocation


def _events(schedule):
    return {j: (p.start, p.time, tuple(p.alloc)) for j, p in schedule.placements.items()}


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(WORKLOAD_FAMILIES),
    scheduler=st.sampled_from(_SCHEDULERS),
    d=st.integers(min_value=1, max_value=6),
    arrivals=st.sampled_from(["offline", "poisson"]),
    rule=st.sampled_from(sorted(_RULES)),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_batched_loop_equals_per_event_reference(
    family, scheduler, d, arrivals, rule, seed
):
    case = _case(family, scheduler, d, arrivals, seed)
    if case is None:
        return
    inst, allocation = case
    priority = _RULES[rule]

    live = list_schedule(inst, allocation, priority)
    reference = reference_pr1_list_schedule(inst, allocation, priority)
    assert _events(live) == _events(reference)
    assert live.makespan == reference.makespan

    if not inst.has_releases:  # the pre-kernel loop predates releases
        legacy = reference_list_schedule(inst, allocation, priority)
        assert _events(live) == _events(legacy)
