"""Step 1 by the sweep: a ``max`` job's Eq. (2) frontier from its per-type terms.

On a candidate list that is the lexicographic product of its levels, a job
whose time function is the built-in ``MultiResourceTime`` under ``max`` —
with finite, positive, non-increasing per-type terms — is filtered over its
``Σ_i L_i`` sweep points instead of its ``Π_i L_i`` rows
(``jobs/vectorized.py::_sweep``).  The table must be the grid kernel's bit
for bit (the kernel with the sweep switched off, in this tree) and equal to
the frozen per-job form (``tests/helpers.py::reference_candidate_table``).
Every other job — ``sum``, opaque, an overridden ``__call__``, a list that is
not a product, a level below 1, terms that are not finite, positive and
non-increasing — takes the grid kernel, and its refusals are that kernel's
own words.  The mechanism is held as counts.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import HalvingSpeedup, pipeline_instance, reference_candidate_table
from repro.core.two_phase import moldable_schedule
from repro.dag.generators import independent
from repro.dag.graph import DAG
from repro.instance.instance import Instance, make_instance
from repro.jobs import vectorized
from repro.jobs.candidates import diagonal_grid, full_grid, geometric_grid
from repro.jobs.job import Job
from repro.jobs.speedup import (
    AmdahlSpeedup,
    LinearSpeedup,
    MultiResourceTime,
    PowerLawSpeedup,
    RooflineSpeedup,
    random_multi_resource_time,
)
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

FAMILIES = ("linear", "amdahl", "power", "roofline", "log", "mixed")
COLUMNS = ("starts", "times", "areas", "rows")


def grid_kernel(inst: Instance, strategy):
    """The table with the sweep switched off: every list taken as no product."""
    with mock.patch.object(vectorized, "_product_strides", lambda levels, level_of: None):
        return vectorized.candidate_columns(inst.jobs, inst.pool, strategy)


def assert_bit_identical(a, b) -> None:
    for column in COLUMNS:
        x, y = getattr(a, column), getattr(b, column)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), column


def assert_sweep_is_the_grid_kernel(inst: Instance, strategy):
    swept = vectorized.candidate_columns(inst.jobs, inst.pool, strategy)
    assert_bit_identical(swept, grid_kernel(inst, strategy))
    assert swept == reference_candidate_table(inst, strategy)
    return swept


def refusal(inst: Instance, strategy) -> str:
    with np.errstate(all="ignore"), pytest.raises(ValueError) as refused:
        vectorized.candidate_columns(inst.jobs, inst.pool, strategy)
    return str(refused.value)


# ---------------------------------------------------------------------------
# the sweep's table is the grid kernel's, bit for bit
# ---------------------------------------------------------------------------
STRATEGIES = {
    "geometric-2": geometric_grid,
    "geometric-3": lambda pool: geometric_grid(pool, base=3.0),
    "full": full_grid,
}


@st.composite
def sweep_instances(draw):
    """d ∈ {1, 2, 3, 4, 6} with capacities of 1 and non-powers of two, one
    family (or all mixed), zero-work types and roofline caps that fall on a
    level; geometric bases 2 and 3 and the full grid (kept small)."""
    d = draw(st.sampled_from([1, 2, 3, 4, 6]))
    strategy = draw(st.sampled_from(sorted(STRATEGIES)))
    top = {"full": 4 if d >= 4 else 9}.get(strategy, 6 if d >= 4 else 24)
    caps = draw(st.lists(st.sampled_from([1, 2, 3, 5, 6, 7, top]), min_size=d, max_size=d))
    pool = ResourcePool.of(*[min(c, top) for c in caps])
    family = draw(st.sampled_from(FAMILIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n = draw(st.integers(1, 12))
    zero_prob = draw(st.sampled_from([0.0, 0.4]))
    fns = []
    for _ in range(n):
        fn = random_multi_resource_time(d, rng, model=family, zero_prob=zero_prob)
        if draw(st.booleans()):  # a roofline whose cap is one of the levels: ties
            at = [float(rng.integers(1, cap + 1)) for cap in pool.capacities]
            fn = MultiResourceTime(
                works=fn.works, speedups=tuple(RooflineSpeedup(cap=c) for c in at)
            )
        fns.append(fn)
    return make_instance(independent(n), pool, lambda j: fns[j]), STRATEGIES[strategy]


@st.composite
def mixed_instances(draw):
    """Sweep jobs beside every job the sweep leaves to the grid kernel, in
    one instance: pinned product lists (0 on unused types), pinned lists
    that are not products, ``sum`` jobs, opaque callables, custom speedups
    and overridden ``__call__``; on the geometric or the diagonal grid."""
    d = draw(st.sampled_from([1, 2, 3, 4]))
    pool = ResourcePool.of(*draw(st.lists(st.integers(1, 9), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    jobs = {}
    kinds = ["sweep", "sweep", "sum", "product", "pinned", "opaque", "custom", "override"]
    for j, kind in enumerate(draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=10))):
        fn = random_multi_resource_time(
            d, rng, zero_prob=0.3, combiner="sum" if kind == "sum" else "max"
        )
        candidates = None
        if kind == "product":
            axes = [
                sorted({1, int(rng.integers(1, c + 1))}) if w else [0]
                for w, c in zip(fn.works, pool.capacities)
            ]
            candidates = tuple(ResourceVector(p) for p in itertools.product(*axes))
        elif kind == "pinned":
            caps = np.array(pool.capacities)
            rows = rng.integers(1, caps + 1, size=(int(rng.integers(1, 6)), d))
            candidates = tuple(ResourceVector(r) for r in rows.tolist())
        elif kind == "opaque":
            fn = (lambda f: lambda p: f(p))(fn)
        elif kind == "custom":
            fn = MultiResourceTime(works=fn.works, speedups=(HalvingSpeedup(),) * d)
        elif kind == "override":
            fn = Quartered(works=fn.works, speedups=fn.speedups)
        jobs[j] = Job(id=j, time_fn=fn, candidates=candidates)
    strategy = draw(st.sampled_from([geometric_grid, diagonal_grid]))
    return Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=pool), strategy


class Quartered(MultiResourceTime):
    """A subclass whose ``__call__`` is not the family formulas."""

    def __call__(self, alloc):
        return super().__call__(alloc) / 4


class TestTheSweepIsTheGridKernel:
    @given(sweep_instances())
    @settings(max_examples=120, deadline=None)
    def test_families_dimensions_and_grids(self, case):
        inst, strategy = case
        assert_sweep_is_the_grid_kernel(inst, strategy)

    @given(mixed_instances())
    @settings(max_examples=100, deadline=None)
    def test_mixed_instances(self, case):
        inst, strategy = case
        table = assert_sweep_is_the_grid_kernel(inst, strategy)
        for cells in (1, 7, 13):  # a job a block; a few; a sweep row and a bit
            with mock.patch.object(vectorized, "_BLOCK_CELLS", cells):
                cut = vectorized.candidate_columns(inst.jobs, inst.pool, strategy)
            assert_bit_identical(cut, table)

    @pytest.mark.parametrize("i", range(3))
    def test_the_seed_0_pipeline_inputs(self, i):
        assert_sweep_is_the_grid_kernel(pipeline_instance(10, 100, [0, i]), geometric_grid)

    def test_roofline_ties_keep_the_least_point(self):
        # terms 8, 4, 4, 4 and 4, 2, 1, 1 on levels 1, 2, 4, 8: twelve rows
        # run in the fastest time, 4; the least of them, (2, 1), is kept
        fn = MultiResourceTime(
            works=(8.0, 4.0), speedups=(RooflineSpeedup(cap=2.0), RooflineSpeedup(cap=4.0))
        )
        inst = make_instance(independent(1), ResourcePool.of(8, 8), lambda j: fn)
        table = assert_sweep_is_the_grid_kernel(inst, geometric_grid)
        assert [(tuple(e.alloc), e.time) for e in table[0]] == [((2, 1), 4.0)]

    def test_a_job_whose_terms_rise_takes_the_grid_kernel(self):
        """An Amdahl fraction above 1 (past the constructor's check) slows
        down with more units: the sweep's precondition fails, the grid
        kernel filters the job."""
        rising = AmdahlSpeedup(alpha=0.5)
        object.__setattr__(rising, "alpha", 1.5)
        fns = [
            random_multi_resource_time(2, seed=1),
            MultiResourceTime(works=(5.0, 3.0), speedups=(rising, LinearSpeedup())),
        ]
        inst = make_instance(independent(2), ResourcePool.of(8, 8), lambda j: fns[j])
        calls = []
        real = vectorized._block_times
        with mock.patch.object(
            vectorized, "_block_times", lambda *a: calls.append(a[2].works) or real(*a)
        ):
            vectorized.candidate_columns(inst.jobs, inst.pool, geometric_grid)
        assert [w.tolist() for w in calls] == [[[5.0, 3.0]]]
        assert_sweep_is_the_grid_kernel(inst, geometric_grid)


class TestProductLists:
    @pytest.mark.parametrize(
        "strategy, product",
        [(geometric_grid, True), (full_grid, True), (diagonal_grid, False)],
    )
    def test_the_strategies(self, strategy, product):
        pool = ResourcePool.of(6, 3, 5)
        grid = vectorized.CandidateGrid.lower(strategy(pool), pool)
        assert (grid.strides is not None) == product
        if product:
            assert np.array_equal(grid.level_of @ grid.strides, np.arange(len(grid.candidates)))

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 1), (2, 1), (1, 2), (2, 2)],  # every point, not in product order
            [(1, 1), (1, 2), (2, 1)],  # a point missing
            [(1, 1), (1, 1), (1, 2), (2, 1)],  # Π L_i rows, one repeated
        ],
    )
    def test_a_list_that_is_not_the_product_in_its_order_is_none(self, rows):
        pool = ResourcePool.of(2, 2)
        grid = vectorized.CandidateGrid.lower([ResourceVector(r) for r in rows], pool)
        assert grid.strides is None


# ---------------------------------------------------------------------------
# refusals: the grid kernel's words
# ---------------------------------------------------------------------------
class TestRefusals:
    def test_a_level_below_one_on_a_used_type(self):
        """The group's lists provide 0 units of type 1, which job ``b`` uses:
        the whole group takes the grid kernel, which names ``b``."""
        product = tuple(ResourceVector(r) for r in [(1, 0), (1, 1), (2, 0), (2, 1)])
        lone = MultiResourceTime(works=(3.0, 0.0), speedups=(LinearSpeedup(),) * 2)
        both = MultiResourceTime(works=(3.0, 2.0), speedups=(LinearSpeedup(),) * 2)
        jobs = {
            j: Job(id=j, time_fn=fn, candidates=product)
            for j, fn in (("a", lone), ("b", both), ("c", both))
        }
        inst = Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=ResourcePool.of(2, 2))
        words = "job 'b': allocation must provide >= 1 unit of every used type"
        assert refusal(inst, geometric_grid) == words
        with mock.patch.object(vectorized, "_product_strides", lambda levels, level_of: None):
            assert refusal(inst, geometric_grid) == words

    @pytest.mark.parametrize(
        "bad, words",
        [
            # 5e-324 / 2 rounds to 0: the first row at level 2 runs in no time
            (
                MultiResourceTime(works=(5e-324, 0.0), speedups=(LinearSpeedup(),) * 2),
                "got 0.0 at allocation (2, 1)",
            ),
            # a roofline capped below one unit (past the constructor's check)
            ("inf", "got inf at allocation (1, 1)"),
        ],
        ids=["zero", "inf"],
    )
    def test_a_time_of_zero_or_inf(self, bad, words):
        if bad == "inf":
            low = RooflineSpeedup(cap=1.0)
            object.__setattr__(low, "cap", 0.5)
            bad = MultiResourceTime(works=(1e308, 1.0), speedups=(low, LinearSpeedup()))
        fine = random_multi_resource_time(2, seed=2)
        fns = {"ok": fine, "bad": bad, "ok2": fine}
        jobs = {j: Job(id=j, time_fn=fn) for j, fn in fns.items()}
        inst = Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=ResourcePool.of(4, 4))
        expected = f"job 'bad': execution time must be positive and finite, {words}"
        assert refusal(inst, geometric_grid) == expected
        with mock.patch.object(vectorized, "_product_strides", lambda levels, level_of: None):
            assert refusal(inst, geometric_grid) == expected


# ---------------------------------------------------------------------------
# an overridden __call__ is the job's own time, in the table too
# ---------------------------------------------------------------------------
def test_an_overridden_call_is_certified_against_its_own_times():
    """Until the table asked it, a subclass returning a quarter of the
    family formula had the formula in the table: a "lower bound" of 5.0 for
    a schedule of 2.5 that strict validation passed."""
    fn = Quartered(works=(10.0, 10.0), speedups=(LinearSpeedup(), LinearSpeedup()))
    jobs = {j: Job(id=j, time_fn=fn) for j in range(4)}
    chain = DAG(jobs, [(0, 1), (1, 2), (2, 3)])
    inst = Instance(jobs=jobs, dag=chain, pool=ResourcePool.uniform(2, 8))
    result = moldable_schedule(inst)
    assert result.lower_bound <= result.makespan
    table = inst.candidate_table()
    for j in jobs:
        assert [e.time for e in table[j]] == [inst.jobs[j].time(e.alloc) for e in table[j]]


def test_an_overridden_speedup_is_asked_too():
    class Doubling(PowerLawSpeedup):
        def __call__(self, x):
            return 2.0 * super().__call__(x)

    fn = MultiResourceTime(works=(6.0, 4.0), speedups=(Doubling(0.5), LinearSpeedup()))
    inst = make_instance(independent(1), ResourcePool.of(8, 8), lambda j: fn)
    table = inst.candidate_table()
    assert [e.time for e in table[0]] == [fn(e.alloc) for e in table[0]]
    assert table == reference_candidate_table(inst)


# ---------------------------------------------------------------------------
# the mechanism, as counts
# ---------------------------------------------------------------------------
def counted(monkeypatch, name):
    """Record the arguments of every call of ``vectorized.<name>``."""
    calls = []
    real = getattr(vectorized, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vectorized, name, counting)
    return calls


def test_a_pipeline_input_is_swept_not_gridded(monkeypatch):
    """1 000 jobs on the 6 × 6 geometric grid: no grid-kernel call, and the
    Eq. (2) filter sees Σ L_i = 12 columns a job, not Π L_i = 36."""
    inst = pipeline_instance(10, 100, 5)
    grid_calls = counted(monkeypatch, "_block_times")
    filters = counted(monkeypatch, "pareto_rows")
    table = inst.candidate_table()
    assert len(table) == 1000 and grid_calls == []
    assert [args[0].shape for args in filters] == [(1000, 12)]
    assert math.prod(len(set(c[i] for c in table.candidates[0])) for i in range(2)) == 36
