"""Algorithm 1 hands Algorithm 2 one value: the instance's ``Allocation``.

The oracle is the frozen dict pipeline in ``helpers`` (``round_fractional``
→ the dict µ-adjustment → the dict list scheduler, with Lemma 8's frozen
sweep): all three allocators must give its schedule, ``p'``, ``p``, capped
set and lower bound — the LP allocator's ``p'`` now gathered by
``dtct_allocate`` as a matrix, never a dict.  The value's durations are
``instance.time``'s, bit for bit, and so is the table's time of every
chosen row: both come from one kernel (``jobs/vectorized.py::exact_times``
over the table's lowering), so a batch that took numpy's ``**`` or
``sum`` fails here; CI runs this file a second time with numpy's AVX-512
dispatch off, so both of numpy's ``**`` paths are held.  On an instance
with no table (opaque callables, the rigid case) the durations are one
pass over the time functions: the same floats, the same refusals, each
function called once.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from helpers import (
    reference_dict_list_schedule,
    reference_moldable_schedule,
    reference_service_specs,
    ruler_rigid_instance,
)
from repro.conformance.fuzz import (
    _run_scheduler,
    _strategy_for,
    build_case_instance,
    default_matrix,
    service_specs,
)
from repro.core.adjustment import adjust_allocation
from repro.core.allocation import allocate_resources
from repro.core.independent import optimal_independent_allocation
from repro.core.list_scheduler import list_schedule, list_schedule_log
from repro.core.sp_fptas import sp_fptas_allocation
from repro.core.two_phase import MoldableScheduler
from repro.experiments.workloads import WORKLOAD_FAMILIES, perturbed_instance, random_instance
from repro.dag.graph import DAG
from repro.instance.compiled import Allocation
from repro.instance.instance import Instance
from repro.jobs.job import Job
from repro.registry import get_scheduler
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

#: capacity per d: the geometric grid stays small at d = 8 and d = 12
CAPACITY = {2: 8, 4: 8, 8: 4, 12: 2}
ALLOCATOR_FAMILIES = {
    "lp": WORKLOAD_FAMILIES,
    "independent": ("independent",),
    "sp": ("outtree", "intree", "sp"),
}


@lru_cache(maxsize=None)  # both tests read the same instances and tables
def workload(family, d, combiner, seed=3, n=8):
    pool = ResourcePool.of(*[CAPACITY[d]] * d)
    return random_instance(family, n, pool, seed=seed, combiner=combiner)


def bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("combiner", ["max", "sum"])
@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("allocator", sorted(ALLOCATOR_FAMILIES))
def test_every_allocator_equals_the_frozen_dict_pipeline(allocator, d, combiner):
    for family in ALLOCATOR_FAMILIES[allocator]:
        w = workload(family, d, combiner)
        inst = w.instance
        res = MoldableScheduler(allocator=allocator).schedule(inst, sp_tree=w.sp_tree)
        if allocator == "lp":
            p_prime, adjusted = res.phase1.p_prime, res.phase1.adjustment.adjusted_jobs
            assert res.phase1.allocation is res.allocation
        else:
            p_prime = (
                optimal_independent_allocation(inst).allocation
                if allocator == "independent"
                else sp_fptas_allocation(inst, w.sp_tree, 0.3).allocation
            )
            adjusted = adjust_allocation(inst, p_prime, res.mu).adjusted_jobs
        ref = reference_moldable_schedule(inst, allocator, w.sp_tree)
        assert res.schedule.placements == ref["schedule"].placements, family
        assert dict(res.allocation) == ref["allocation"], family
        assert dict(p_prime) == ref["p_prime"], family
        assert adjusted == ref["adjusted_jobs"], family
        assert res.lower_bound == ref["lower_bound"], family


@pytest.mark.parametrize("combiner", ["max", "sum"])
@pytest.mark.parametrize("d", [2, 4, 8, 12])
def test_durations_are_instance_time_bit_for_bit(d, combiner):
    """``p'`` lowered and ``p`` capped, on every family: each duration is
    ``instance.time`` of that job's vector, to the bit, and it is what the
    loop runs.  The table's time of every chosen row is that float too: the
    table and the durations are one kernel's."""
    table_differs = 0
    for family in WORKLOAD_FAMILIES:
        inst = workload(family, d, combiner).instance
        phase1 = MoldableScheduler(allocator="lp").schedule(inst).phase1
        table = phase1.table
        for value in (Allocation.lower(inst, phase1.p_prime), phase1.allocation):
            want = [inst.time(j, value[j]) for j in inst.dag.order]
            assert bits(value.durations) == bits(want), family
            assert list_schedule_log(inst, value).duration is value.durations
        for j, alloc in phase1.p_prime.items():
            (entry,) = (e for e in table[j] if e.alloc == alloc)
            table_differs += entry.time != inst.time(j, alloc)
    assert table_differs == 0


def test_a_value_of_the_perturbed_instance_is_lowered_again():
    """The robustness ablation plans on noisy estimates and runs on the
    true instance (same DAG and pool): the plan's value is lowered again,
    so the run takes the true durations."""
    true = random_instance("layered", 30, ResourcePool.of(8, 8), seed=5).instance
    estimate = perturbed_instance(true, 0.3, seed=2)
    plan = allocate_resources(estimate, 0.3, 0.38).allocation
    assert plan.instance is estimate
    log = list_schedule_log(true, plan)
    assert bits(log.duration) == bits([true.time(j, plan[j]) for j in true.dag.order])
    assert bits(log.duration) != bits(plan.durations)
    assert list_schedule(true, plan) == reference_dict_list_schedule(true, dict(plan))


def test_the_value_is_the_mapping_it_stands_for():
    inst = workload("layered", 2, "max").instance
    p = {j: es[0].alloc for j, es in inst.candidate_table().items()}
    value = Allocation.lower(inst, p)
    assert value == p and dict(value) == p and len(value) == inst.n
    assert list(value) == inst.dag.order
    assert all(value[j] is p[j] for j in inst.jobs)
    assert value.matrix.dtype == np.int64
    assert value.matrix.tolist() == [list(p[j]) for j in inst.dag.order]
    assert Allocation.lower(inst, value) is value
    assert "missing" not in value
    with pytest.raises(KeyError):
        value["missing"]
    with pytest.raises(ValueError):
        value.durations[0] = 1.0
    with pytest.raises(ValueError):
        value.matrix[0, 0] = 1


def test_a_value_comes_only_from_the_checked_lowering():
    """No public constructor takes a matrix on trust, and a value runs as
    it is only on its own instance: an over-capacity allocation is refused
    however it reaches ``list_schedule``."""
    small = workload("layered", 2, "max").instance
    over = {j: (CAPACITY[2] + 1, 1) for j in small.jobs}
    with pytest.raises(TypeError):
        Allocation(small, np.ones((small.n, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="capacit"):
        list_schedule(small, over)
    big = random_instance("layered", 8, ResourcePool.of(16, 16), seed=3).instance
    assert big.dag.order == small.dag.order
    fits_big = Allocation.lower(big, over)
    with pytest.raises(ValueError, match="capacit"):
        list_schedule(small, fits_big)


def test_service_specs_are_the_lowered_rows():
    """``service_specs`` reads one ``Allocation.lower``'s matrix and
    durations: on every ``ours`` case of the quick fuzz matrix the specs
    equal the per-job casts and ``inst.time`` calls it replaced, durations
    bit for bit — for the result's value and for a plain dict of it."""
    spec = get_scheduler("ours")
    cases = [c for c in default_matrix(quick=True) if c.scheduler == "ours"]
    assert len(cases) >= 50
    for case in cases:
        inst = build_case_instance(case)
        allocation = _run_scheduler(spec, inst, _strategy_for(case)).allocation
        want = reference_service_specs(inst, allocation)
        for given in (allocation, dict(allocation)):
            got = service_specs(inst, given)
            assert got == want, case
            assert bits([s.duration for s in got]) == bits([s.duration for s in want]), case
            assert all(type(a) is int for s in got for a in s.demand), case


# ----------------------------------------------------------------------
# an instance with no table: the opaque durations in one pass
# ----------------------------------------------------------------------
def opaque_instance(fns, d=2, capacity=8, seed=0, cls=Instance, job_cls=Job):
    """``(instance, allocation)``: one job per time function, a random
    layered-ish DAG over them, random rows; no candidate table is built."""
    rng = np.random.default_rng(seed)
    n = len(fns)
    edges = [(i, j) for i in range(n) for j in range(i + 1, min(n, i + 4)) if rng.random() < 0.4]
    jobs = {j: job_cls(id=j, time_fn=fn) for j, fn in enumerate(fns)}
    alloc = {j: ResourceVector(r) for j, r in enumerate(rng.integers(1, capacity + 1, (n, d)).tolist())}
    return cls(jobs=jobs, dag=DAG(jobs, edges), pool=ResourcePool.uniform(d, capacity)), alloc


def per_job(inst, alloc):
    """The per-job path: ``instance.time`` job by job in topological order;
    its durations, or the exception it raises."""
    try:
        return np.array([inst.time(j, alloc[j]) for j in inst.dag.order])
    except Exception as exc:  # noqa: BLE001 - the refusal is the result
        return exc


def one_pass(inst, alloc):
    try:
        return Allocation.lower(inst, alloc).durations
    except Exception as exc:  # noqa: BLE001
        return exc


def same_outcome(got, want) -> bool:
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return not isinstance(got, Exception) and bits(got) == bits(want)


@pytest.mark.parametrize("seed", range(6))
def test_opaque_durations_are_instance_time_bit_for_bit(seed, monkeypatch):
    """Random rigid instances (the ruler's shape at d = 4 and 6, and time
    functions of the row that land anywhere in a float's last bits): the
    one pass gives ``instance.time``'s floats, asks it nothing, and calls
    every time function exactly once."""
    inst, alloc = ruler_rigid_instance(4, 25, seed, d=4 + 2 * (seed % 2))
    assert bits(Allocation.lower(inst, alloc).durations) == bits(per_job(inst, alloc))

    rng = np.random.default_rng(seed)
    calls = []

    def fn_of(j, w, beta):
        def fn(row):
            calls.append(j)
            return w / math.fsum(row) ** beta + 1e-3 * (row[0] % 3)
        return fn

    n = 80
    fns = [fn_of(j, w, b) for j, (w, b) in enumerate(zip(rng.uniform(0.1, 9.0, n), rng.uniform(0.3, 1.0, n)))]
    inst, alloc = opaque_instance(fns, d=3, seed=seed)
    want = per_job(inst, alloc)
    calls.clear()
    asked = []
    real_time = Instance.time
    monkeypatch.setattr(Instance, "time", lambda self, j, a: asked.append(j) or real_time(self, j, a))
    durations = Allocation.lower(inst, alloc).durations
    assert bits(durations) == bits(want)
    assert sorted(calls) == list(range(n))  # each function exactly once
    assert bits(list_schedule_log(inst, alloc).duration) == bits(want)
    assert asked == []


class _Boom(RuntimeError):
    pass


def _raises(row):
    raise _Boom(f"no time at {tuple(row)}")


#: a time function's bad outcomes: a value ``Job.time`` refuses, a value
#: ``float`` cannot take, and a call that raises
BAD = {
    "zero": lambda row: 0.0,
    "negative": lambda row: -1.5,
    "nan": lambda row: float("nan"),
    "inf": lambda row: float("inf"),
    "-inf": lambda row: float("-inf"),
    "none": lambda row: None,
    "text": lambda row: "fast",
    "raises": _raises,
}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("at", [0, 17, 39])
def test_an_opaque_refusal_is_the_per_job_paths(bad, at):
    """One bad time function among good ones: the exception type, message
    and job are the per-job path's (``Job.time``'s refusal names the job
    and the row)."""
    fns = [lambda row, k=k: 1.0 + k / 7 for k in range(40)]
    fns[at] = BAD[bad]
    inst, alloc = opaque_instance(fns, seed=at)
    want = per_job(inst, alloc)
    assert isinstance(want, Exception)
    assert same_outcome(one_pass(inst, alloc), want)
    if isinstance(want, ValueError) and bad != "text":
        assert str(want).startswith(f"job {at}: execution time must be positive and finite")


@pytest.mark.parametrize("bad", ["zero", "nan", "-inf", "none"])
def test_the_first_refusal_in_topological_order_wins(bad):
    """A bad value at job j and a raising function at job k > j: the one
    pass meets k's exception first, and still raises j's refusal."""
    fns = [lambda row, k=k: 2.0 + k for k in range(30)]
    order = opaque_instance(fns, seed=1)[0].dag.order
    fns[order[5]], fns[order[20]] = BAD[bad], _raises
    inst, alloc = opaque_instance(fns, seed=1)
    assert inst.dag.order == order
    want = per_job(inst, alloc)
    assert not isinstance(want, _Boom)
    assert same_outcome(one_pass(inst, alloc), want)


class _HalfJob(Job):
    """A job class with its own ``time``: half the function's value."""

    def time(self, alloc):
        return 0.5 * float(self.time_fn(alloc))


class _ShiftedInstance(Instance):
    """An instance with its own ``time``: every job a unit longer."""

    def time(self, job_id, alloc):
        return super().time(job_id, alloc) + 1.0


@pytest.mark.parametrize("override", ["job", "instance"])
def test_an_overridden_time_is_asked_job_by_job(override):
    """A job class or an instance that overrides ``time`` keeps the per-job
    call: its own floats, and its own refusal (here ``_HalfJob`` passes a
    0 that ``Job.time`` would refuse)."""
    fns = [lambda row, k=k: 1.0 + k / 3 for k in range(25)]
    kw = {"job_cls": _HalfJob} if override == "job" else {"cls": _ShiftedInstance}
    inst, alloc = opaque_instance(fns, **kw)
    want = per_job(inst, alloc)
    plain = per_job(*opaque_instance(fns))
    assert bits(want) != bits(plain)
    assert same_outcome(one_pass(inst, alloc), want)
    if override == "job":
        fns[3] = BAD["zero"]
        inst, alloc = opaque_instance(fns, **kw)
        assert bits(one_pass(inst, alloc))[inst.dag.index[3]] == bits([0.0])[0]
