"""Phase 2's durations come from one exact batch, and Phase 1 hands them
over in columns.

``Allocation.durations`` evaluates every job whose time function has an
exact array form at once (``jobs/vectorized.py::exact_times``, over the
time functions the candidate table lowered) and must give ``Job.time``'s
value to the bit: numpy for ``+ − × ÷`` and ``min``, python's ``**`` per
element, ``math.log2`` per distinct level, python's ``max``/``sum`` order.
Everything else — opaque callables, overridden ``__call__``, a value that is
not positive and finite — goes to ``instance.time``, which raises its own
refusal.  The mechanism is held as counts on a 1 000-job run: no frontier
view, no per-job fraction array and no time-function call.
"""

import ast
import functools
import inspect
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import pipeline_instance
from repro.core import dtct
from repro.core.two_phase import moldable_schedule
from repro.dag.generators import independent
from repro.instance.compiled import Allocation
from repro.instance.instance import make_instance
from repro.jobs import profiles, vectorized
from repro.jobs.job import Job
from repro.jobs.speedup import (
    LinearSpeedup,
    MultiResourceTime,
    PowerLawSpeedup,
    random_multi_resource_time,
)
from repro.jobs.vectorized import _python_sum, _TimeFunctions, exact_times
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

FAMILIES = ("linear", "amdahl", "power", "roofline", "log", "mixed")


def bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def neumaier_sum(terms) -> float:
    """CPython 3.12's ``sum`` of floats, in python: ``0 + first``, then
    each addition compensated, the compensation added once at the end if
    it is finite and not 0."""
    total, comp = 0 + terms[0], 0.0
    for x in terms[1:]:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@st.composite
def rows(draw):
    """``(jobs, allocs, pool)``: random time functions of one family and
    combiner, some types without work, and amounts anywhere in ``1..P``
    (off the grid) or at the µ-caps — 0 where a type has no work."""
    d = draw(st.sampled_from([1, 2, 4, 8, 12]))
    family = draw(st.sampled_from(FAMILIES))
    combiner = draw(st.sampled_from(["max", "sum"]))
    zero_prob = draw(st.sampled_from([0.0, 0.4]))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    caps = rng.integers(1, 65, size=d)
    pool = ResourcePool.of(*caps.tolist())
    n = draw(st.integers(1, 40))
    fns = [
        random_multi_resource_time(d, rng, model=family, combiner=combiner, zero_prob=zero_prob)
        for _ in range(n)
    ]
    allocs = rng.integers(1, caps + 1, size=(n, d))
    mu_caps = np.array(pool.mu_caps(float(rng.uniform(0.05, 0.49))))
    at_cap = rng.random((n, d)) < 0.3
    allocs = np.where(at_cap, np.minimum(allocs, mu_caps), allocs)
    allocs[np.array([fn.works for fn in fns]) == 0] = 0
    jobs = [Job(id=k, time_fn=fn) for k, fn in enumerate(fns)]
    return jobs, allocs.astype(np.int64), pool


@given(rows())
@settings(max_examples=300, deadline=None)
def test_the_batch_is_job_time_bit_for_bit(case):
    jobs, allocs, _ = case
    got = exact_times(_TimeFunctions.lower(jobs, allocs.shape[1]), allocs)
    want = [job.time(ResourceVector(row)) for job, row in zip(jobs, allocs.tolist())]
    assert bits(got) == bits(want)


@given(rows())
@settings(max_examples=60, deadline=None)
def test_allocation_durations_are_instance_time_bit_for_bit(case):
    """Through the value Phase 2 reads, with the lowering reused from the
    instance's table and permuted to topological order."""
    jobs, allocs, pool = case
    inst = make_instance(independent(len(jobs)), pool, lambda j: jobs[j].time_fn)
    inst.candidate_table(lambda p: (ResourceVector(pool.capacities),))
    rows_ = {j: ResourceVector(row) for j, row in enumerate(allocs.tolist())}
    value = Allocation.lower(inst, rows_)
    want = [inst.time(j, value[j]) for j in inst.dag.order]
    assert bits(value.durations) == bits(want)


def test_the_sum_is_pythons_on_either_side_of_3_12(monkeypatch):
    """Both combiner orders, whichever interpreter runs the suite, on terms
    that cancel badly: the two orders give other floats on these rows."""
    rng = np.random.default_rng(5)
    terms = rng.choice([1e16, 1.0, 3.5, 1e-3, 7e15], size=(2000, 6))
    terms *= rng.uniform(0.5, 2, terms.shape)
    terms[rng.random(terms.shape) < 0.3] = 0.0  # a skipped type
    terms[:, 0] = np.where(terms.any(axis=1), terms[:, 0], 1.0)
    used = [[x for x in row if x] for row in terms.tolist()]
    want = {
        (3, 11): [functools.reduce(operator.add, row, 0) for row in used],
        (3, 12): [neumaier_sum(row) for row in used],
    }
    assert bits(want[(3, 11)]) != bits(want[(3, 12)])
    for version, python_sum in want.items():
        monkeypatch.setattr(vectorized.sys, "version_info", version)
        assert bits(_python_sum(terms.T)) == bits(python_sum)


def tabled_instance(time_fn_of, pool=ResourcePool.of(4, 4), n=3):
    """An instance whose candidate table (one candidate, ``(1, 1)``) has
    been built, so the durations reuse its lowering."""
    inst = make_instance(independent(n), pool, time_fn_of)
    inst.candidate_table(one_candidate)
    return inst


def one_candidate(pool):
    return (ResourceVector((1, 1)),)


def durations_at(inst, alloc):
    return Allocation.lower(inst, {j: ResourceVector(alloc) for j in inst.jobs}).durations


@pytest.mark.parametrize("value", [0.0, float("inf"), float("nan")], ids=["zero", "inf", "nan"])
@pytest.mark.parametrize("tabled", [False, True], ids=["no-table", "table"])
def test_a_bad_time_is_job_times_refusal(value, tabled):
    """An opaque callable returning 0, inf or NaN: ``Job.time``'s own
    message, naming the job and the allocation."""
    good = random_multi_resource_time(2, seed=1)

    def bad(alloc):
        return value if tuple(alloc) == (2, 3) else 1.0

    fns = lambda j: bad if j == 1 else good  # noqa: E731
    pool = ResourcePool.of(4, 4)
    inst = tabled_instance(fns) if tabled else make_instance(independent(3), pool, fns)
    with pytest.raises(ValueError) as refused:
        durations_at(inst, (2, 3))
    assert str(refused.value) == (
        f"job 1: execution time must be positive and finite, got {value} at allocation (2, 3)"
    )


def test_an_array_form_time_that_underflows_is_job_times_refusal():
    """The batch computes 0 for the smallest work halved; ``Job.time``
    raises it, by name."""
    tiny = MultiResourceTime(works=(5e-324, 0.0), speedups=(LinearSpeedup(),) * 2)
    inst = tabled_instance(lambda j: tiny, n=1)
    with pytest.raises(
        ValueError,
        match=r"^job 0: execution time must be positive and finite, got 0\.0 at "
        r"allocation \(2, 0\)$",
    ):
        durations_at(inst, (2, 0))


def test_an_overridden_call_is_asked_not_computed():
    """A subclass that overrides ``__call__`` — of the time function or of
    a speedup — has no array form, for the durations or for the table:
    both are its own values."""

    class Doubled(MultiResourceTime):
        def __call__(self, alloc):
            return 2.0 * super().__call__(alloc)

    class Halved(PowerLawSpeedup):
        def __call__(self, x):
            return super().__call__(x) / 2.0

    fns = {
        0: Doubled(works=(3.0, 2.0), speedups=(LinearSpeedup(),) * 2),
        1: MultiResourceTime(works=(3.0, 2.0), speedups=(Halved(0.7), LinearSpeedup())),
        2: MultiResourceTime(works=(3.0, 2.0), speedups=(PowerLawSpeedup(0.7), LinearSpeedup())),
    }
    inst = tabled_instance(fns.__getitem__)
    got = durations_at(inst, (3, 2))
    assert bits(got) == bits([fns[j](ResourceVector((3, 2))) for j in inst.dag.order])
    lowered = _TimeFunctions.lower([inst.jobs[j] for j in range(3)], 2)
    assert lowered.exact.tolist() == [False, False, True]
    table = inst.candidate_table()
    for j in (0, 1):  # (job 2's are numpy's kernel, which may differ in the last bit)
        assert [e.time for e in table[j]] == [fns[j](e.alloc) for e in table[j]]


# ---------------------------------------------------------------------------
# the mechanism, as counts
# ---------------------------------------------------------------------------
def counted(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (which keeps working)."""
    calls = []
    real = inspect.getattr_static(owner, name)
    target = real.fget if isinstance(real, property) else real

    def counting(*args, **kwargs):
        calls.append(args)
        return target(*args, **kwargs)

    monkeypatch.setattr(owner, name, property(counting) if isinstance(real, property) else counting)
    return calls


def test_a_pipeline_run_builds_no_view_no_fraction_array_and_calls_no_time_function(monkeypatch):
    inst = pipeline_instance(10, 100, 5)
    assert inst.n == 1000
    views = counted(monkeypatch, profiles._Frontier, "__init__")
    fractions = counted(monkeypatch, dtct.FractionalSolution, "fractions")
    time_fn_calls = counted(monkeypatch, MultiResourceTime, "__call__")
    job_time_calls = counted(monkeypatch, Job, "time")
    result = moldable_schedule(inst)
    assert result.allocator == "lp" and len(result.allocation.durations) == 1000
    assert (views, fractions, time_fn_calls, job_time_calls) == ([], [], [], [])
    # and each is still there for a caller that looks
    assert len(result.phase1.fractional.fractions) == 1000 and len(fractions) == 1
    assert len(result.phase1.table[0]) and len(views) == 1
    assert bits(result.allocation.durations) == bits(
        [inst.time(j, result.allocation[j]) for j in inst.dag.order]
    )


@pytest.mark.parametrize("as_dict", [False, True], ids=["columns", "hand-built"])
def test_the_flat_rounding_is_the_dict_one(as_dict):
    """``dtct_allocate``'s gathered ``p'`` against ``round_fractional``'s
    dict, lowered — from the flat answer and from its dict once read."""
    inst = pipeline_instance(3, 20, 1)
    table = inst.candidate_table()
    given = dict(table) if as_dict else table
    for rho in (0.05, 0.31, 0.5, 0.95):
        value, solution = dtct.dtct_allocate(inst, given, rho)
        flat = dtct.round_fractional(given, solution, rho)
        read = dtct.FractionalSolution(solution.lower_bound, solution.fractions, {}, {})
        for p_prime in (flat, dtct.round_fractional(given, read, rho)):
            assert value.matrix.tolist() == Allocation.lower(inst, p_prime).matrix.tolist()
            assert dict(value) == p_prime


def test_a_gathered_row_the_bounds_rule_refuses_names_the_job():
    inst = pipeline_instance(2, 5, 1)
    table = dict(inst.candidate_table())
    table[3] = [profiles.ProfileEntry(ResourceVector((40, 1)), 1.0, 1.0)]
    with pytest.raises(ValueError, match=r"^job 3: demand \(40, 1\) exceeds capacities"):
        dtct.dtct_allocate(inst, table, 0.5)


def calls_in(function) -> set[str]:
    """The dotted names ``function`` calls (``f``, ``Allocation.lower``)."""
    tree = ast.parse(inspect.getsource(function))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                names.add(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                names.add(f"{f.value.id}.{f.attr}")
    return names


def test_dtct_allocate_neither_builds_the_dict_nor_lowers_a_mapping():
    called = calls_in(dtct.dtct_allocate)
    assert "_quantile_picks" in called and "table.allocations" in called
    assert not called & {"round_fractional", "Allocation.lower"}
    assert "_quantile_picks" in calls_in(dtct.round_fractional)
