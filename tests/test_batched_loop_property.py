"""Hypothesis property: the time-point-batched loop is the per-event loop.

The batched restructure (pop every simultaneous event in one batch, apply
completions/releases vectorized, one feasibility re-scan per time point)
and the admit-then-refilter dispatch pass are *optimizations*, not
semantic changes: across workload families × schedulers × d ∈ {1..6} ×
arrival modes (hypothesis-sampled), the live engine must reproduce the
frozen per-event PR-1 reference loop event for event — and, offline, the
pre-kernel loop too — or the property fails with a seeded reproducer.
The same race runs deterministically over every case of the quick fuzz
matrix, which covers every registered scheduler and every capacity regime.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_TWINS, reference_list_schedule, reference_pr1_list_schedule
from repro.conformance.fuzz import (
    _run_scheduler,
    _strategy_for,
    build_case_instance,
    default_matrix,
)
from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    list_schedule,
    lpt_priority,
    spt_priority,
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
        result = spec.schedule(inst, strategy=strategy)
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
    twin = REFERENCE_TWINS[priority]
    reference = reference_pr1_list_schedule(inst, allocation, twin)
    assert _events(live) == _events(reference)
    assert live.makespan == reference.makespan

    if not inst.has_releases:  # the pre-kernel loop predates releases
        legacy = reference_list_schedule(inst, allocation, twin)
        assert _events(live) == _events(legacy)


def test_quick_fuzz_matrix_equals_both_frozen_generations():
    """Every quick-matrix case with an allocation: the batch loop under the
    bottom-level rule equals the PR-1 loop and, without releases, the
    pre-kernel loop.  Unlike the property above this reaches ``balanced``,
    ``sun_list`` and ``sun_shelf`` and capacities 1, 4, 16 and ``2**15``
    (both sides of ``d * bits = 64``)."""
    cases = default_matrix(quick=True)
    compared, diverged = 0, []
    for case in cases:
        inst = build_case_instance(case)
        result = _run_scheduler(get_scheduler(case.scheduler), inst, _strategy_for(case))
        allocation = getattr(result, "allocation", None)
        if allocation is None:
            continue
        compared += 1
        live = _events(list_schedule(inst, allocation, bottom_level_priority))
        if live != _events(reference_pr1_list_schedule(inst, allocation, None)):
            diverged.append(f"PR-1: {case.describe()}")
        if not inst.has_releases and live != _events(
            reference_list_schedule(inst, allocation, None)
        ):
            diverged.append(f"pre-kernel: {case.describe()}")
    assert diverged == []
    # the malleable relaxation is the only scheduler that keeps no allocation
    assert compared == sum(c.scheduler != "malleable" for c in cases)
