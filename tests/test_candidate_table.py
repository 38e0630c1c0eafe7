"""The columnar candidate table against the per-job form it replaced.

``Instance.candidate_table`` evaluates all jobs of a grid in one batched
kernel (``jobs/vectorized.py``) and returns a ``CandidateTable`` — columns
that are also the ``Mapping[JobId, Sequence[ProfileEntry]]`` the table has
always been.  ``tests/helpers.py::reference_candidate_table`` is the per-job
*array* form as it stood before: the two must be ``==``, entry for entry.
(Not python's scalar ``**``: numpy's SIMD ``power``/``log2`` are not libm's.)
The mechanism — no entry object in the pipeline, a kernel-call count that
does not grow with n, a bounded working set — is held by counts, not by a
stopwatch.
"""

import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    HalvingSpeedup,
    pipeline_instance,
    reference_candidate_table,
    reference_pareto_filter,
)
from repro.core.two_phase import moldable_schedule
from repro.dag.generators import independent
from repro.dag.graph import DAG
from repro.instance.instance import Instance, make_instance
from repro.jobs import vectorized
from repro.jobs.candidates import full_grid, geometric_grid
from repro.jobs.job import Job
from repro.jobs.profiles import CandidateTable, ProfileEntry
from repro.jobs.speedup import (
    AmdahlSpeedup,
    LinearSpeedup,
    LogSpeedup,
    MultiResourceTime,
    PowerLawSpeedup,
    RooflineSpeedup,
    random_multi_resource_time,
)
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


def fresh_columns(inst: Instance, strategy, cells: int | None = None) -> CandidateTable:
    """The kernel run again (no instance cache), optionally at a forced block size."""
    if cells is None:
        return vectorized.candidate_columns(inst.jobs, inst.pool, strategy)
    with mock.patch.object(vectorized, "_BLOCK_CELLS", cells):
        return vectorized.candidate_columns(inst.jobs, inst.pool, strategy)


def assert_equals_reference(inst: Instance, strategy=geometric_grid) -> CandidateTable:
    table = inst.candidate_table(strategy)
    ref = reference_candidate_table(inst, strategy)
    assert list(table) == list(ref) == list(inst.jobs)
    assert table == ref and ref == table
    return table


# ---------------------------------------------------------------------------
# batched == per-job array form
# ---------------------------------------------------------------------------
positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
speedups = st.one_of(
    st.just(LinearSpeedup()),
    st.builds(AmdahlSpeedup, alpha=st.floats(min_value=0.0, max_value=1.0)),
    # 0.5 and 1.0: the exponents numpy special-cases when they come as scalars
    st.builds(
        PowerLawSpeedup,
        beta=st.one_of(st.sampled_from([0.5, 1.0, 0.75]), st.floats(min_value=0.01, max_value=1.0)),
    ),
    st.builds(RooflineSpeedup, cap=st.floats(min_value=1.0, max_value=16.0)),
    st.builds(LogSpeedup, gamma=st.floats(min_value=0.01, max_value=math.log(2.0))),
)


@st.composite
def mixed_instances(draw):
    """A pool of d ∈ {1, 2, 3, 9} types, a shared grid of a few arbitrary
    rows (repeated rows and columns with one or two distinct levels come up
    — shorter than any SIMD lane) and up to eight jobs of every kind the
    kernel tells apart, interleaved: built-in families with zero-work types
    under ``max``/``sum``, a list pinned with 0 on the unused types, an
    opaque wrapper, a custom speedup model."""
    d = draw(st.sampled_from([1, 2, 3, 9]))
    caps = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
    pool = ResourcePool.of(*caps)
    row = st.tuples(*(st.integers(1, cap) for cap in caps))
    grid = tuple(ResourceVector(r) for r in draw(st.lists(row, min_size=1, max_size=10)))

    def time_function(models=speedups):
        works = draw(st.lists(st.one_of(st.just(0.0), positive), min_size=d, max_size=d))
        if not any(works):
            works[draw(st.integers(0, d - 1))] = draw(positive)
        return MultiResourceTime(
            works=tuple(works),
            speedups=tuple(draw(st.lists(models, min_size=d, max_size=d))),
            combiner=draw(st.sampled_from(["max", "sum"])),
        )

    jobs = {}
    for j, kind in enumerate(
        draw(st.lists(st.sampled_from(["grid", "grid", "pinned", "opaque", "custom"]),
                      min_size=1, max_size=8))
    ):
        if kind == "grid":
            jobs[j] = Job(id=j, time_fn=time_function())
        elif kind == "pinned":
            fn = time_function()
            own = draw(st.lists(row, min_size=1, max_size=6))
            jobs[j] = Job(id=j, time_fn=fn, candidates=tuple(
                ResourceVector(x if w else 0 for x, w in zip(r, fn.works)) for r in own
            ))
        elif kind == "opaque":
            fn = time_function()
            jobs[j] = Job(id=j, time_fn=lambda p, fn=fn: fn(p))
        else:
            jobs[j] = Job(id=j, time_fn=time_function(st.just(HalvingSpeedup())))
    return Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=pool), (lambda p: grid)


class TestEqualsThePerJobForm:
    @given(mixed_instances())
    @settings(max_examples=150, deadline=None)
    def test_mixed_instances(self, case):
        inst, strategy = case
        table = assert_equals_reference(inst, strategy)
        for cells in (1, 7):  # a job a block; a few
            assert fresh_columns(inst, strategy, cells) == table

    @pytest.mark.parametrize("i", range(3))
    def test_the_seed_0_pipeline_inputs(self, i):
        table = assert_equals_reference(pipeline_instance(10, 100, [0, i]))
        assert isinstance(table, CandidateTable)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 0.75])
    @pytest.mark.parametrize("levels", [1, 2, 3, 7, 8, 9, 17])
    def test_power_law_exponents_and_short_level_columns(self, beta, levels):
        """β = 0.5 / 1.0 take numpy's scalar-exponent shortcuts in the per-job
        form; a column of fewer levels than a SIMD lane is all remainder."""
        pool = ResourcePool.of(199)
        grid = tuple(ResourceVector((x,)) for x in np.linspace(1, 199, levels).astype(int))
        rng = np.random.default_rng(levels)
        fns = [
            MultiResourceTime(works=(float(w),), speedups=(PowerLawSpeedup(beta=b),))
            for w in rng.uniform(1.0, 50.0, size=3)
            for b in (beta, 0.3, beta)
        ]
        inst = make_instance(independent(len(fns)), pool, lambda j: fns[j])
        assert_equals_reference(inst, lambda p: grid)

    def test_nine_types_under_sum_is_numpys_pairwise_sum(self):
        """From 8 terms on numpy's ``sum`` is not a left fold, and which
        terms share an accumulator depends on which types a job uses."""
        pool = ResourcePool.uniform(9, 4)
        rng = np.random.default_rng(9)
        grid = tuple(ResourceVector(r) for r in rng.integers(1, 5, size=(12, 9)).tolist())
        fns = [
            random_multi_resource_time(9, rng, combiner="sum", zero_prob=zp)
            for zp in (0.0, 0.0, 0.1, 0.1, 0.1, 0.5)
        ]
        assert {sum(w > 0 for w in fn.works) for fn in fns} & {8, 9}
        inst = make_instance(independent(len(fns)), pool, lambda j: fns[j])
        assert_equals_reference(inst, lambda p: grid)


class TestTies:
    """Equal times, equal areas and exact duplicates, on the kernel's own
    path: the earliest row wins, as ``pareto_rows`` documents."""

    def test_equal_times_keep_the_smallest_area(self):
        # a roofline at 3: levels 4, 8 and 16 run equally fast; 4 is cheapest
        fn = MultiResourceTime(works=(8.0,), speedups=(RooflineSpeedup(cap=3.0),))
        inst = make_instance(independent(1), ResourcePool.of(16), lambda j: fn)
        table = assert_equals_reference(inst)
        assert [tuple(e.alloc) for e in table[0]] == [(4,), (2,)]

    def test_equal_areas_keep_the_fastest(self):
        # linear speedup on one type: t · p is the same at every level
        fn = MultiResourceTime(works=(8.0,), speedups=(LinearSpeedup(),))
        inst = make_instance(independent(1), ResourcePool.of(16), lambda j: fn)
        table = assert_equals_reference(inst)
        assert [tuple(e.alloc) for e in table[0]] == [(16,)]

    def test_exact_duplicates_keep_the_earliest_row(self):
        fn = MultiResourceTime(works=(8.0, 3.0), speedups=(AmdahlSpeedup(alpha=0.1),) * 2)
        rows = [(4, 2), (1, 1), (4, 2), (2, 4), (1, 1), (2, 4)]
        pinned = tuple(ResourceVector(r) for r in rows)
        jobs = {
            "a": Job(id="a", time_fn=fn, candidates=pinned),
            "b": Job(id="b", time_fn=lambda p: fn(p), candidates=pinned),
        }
        inst = Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=ResourcePool.of(4, 4))
        table = assert_equals_reference(inst)
        for j in jobs:
            kept = table.rows[table.starts[table.positions([j])[0]] :][: len(table[j])]
            assert all(r == rows.index(rows[r]) for r in kept.tolist())
            assert list(table[j]) == reference_pareto_filter(
                ProfileEntry(c, inst.time(j, c), inst.avg_area(j, c)) for c in pinned
            )


class TestBlocks:
    """How jobs are cut into blocks must not show in the table."""

    @pytest.mark.parametrize("n", [4, 5, 6, 11])
    def test_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        fns = [random_multi_resource_time(2, rng, zero_prob=0.2) for _ in range(n)]
        opaque = fns[1]
        fns[1] = lambda p: opaque(p)
        inst = make_instance(independent(n), ResourcePool.of(8, 8), lambda j: fns[j])
        whole = assert_equals_reference(inst)
        m = len(geometric_grid(inst.pool))
        for per_block in (1, 2, 5):  # n = block − 1, block, block + 1 among them
            cut = fresh_columns(inst, geometric_grid, per_block * m)
            assert cut == whole
            for column in ("starts", "times", "areas", "rows"):
                assert np.array_equal(getattr(cut, column), getattr(whole, column))

    def test_working_set_is_bounded_by_the_block(self):
        """d = 4, capacity 32: 1 296 rows a job, 2.6 M cells in all.  The
        peak inside the kernel stays under 128 bytes per *block* cell (≈ 75
        measured; every cell at once would be > 100 MB) — which is what
        keeps ``peak_rss_mb`` where it was."""
        rng = np.random.default_rng(0)
        pool = ResourcePool.uniform(4, 32)
        jobs = {j: Job(id=j, time_fn=random_multi_resource_time(4, rng)) for j in range(2000)}
        assert len(geometric_grid(pool)) == 1296
        tracemalloc.start()
        try:
            table = vectorized.candidate_columns(jobs, pool, geometric_grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 2000
        assert peak <= 128 * vectorized._BLOCK_CELLS


# ---------------------------------------------------------------------------
# the mapping contract
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def small():
    rng = np.random.default_rng(4)
    fns = {j: random_multi_resource_time(2, rng) for j in "cab"}
    jobs = {j: Job(id=j, time_fn=fn) for j, fn in fns.items()}
    jobs["rigid"] = Job(id="rigid", time_fn=lambda p: 2.0, candidates=(ResourceVector((1, 2)),))
    return Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=ResourcePool.of(8, 4))


class TestMappingContract:
    def test_is_a_mapping_in_job_order_equal_to_its_dict(self, small):
        table = small.candidate_table()
        ref = reference_candidate_table(small)
        assert isinstance(table, CandidateTable)
        assert list(table) == list(table.keys()) == list(small.jobs) == ["c", "a", "b", "rigid"]
        assert len(table) == 4 and "a" in table and "z" not in table
        assert table == ref and ref == table and table == dict(table)
        assert table != {**ref, "a": ref["a"][:-1]} and table != 3
        assert [j for j, _ in table.items()] == list(small.jobs)
        assert [list(es) for es in table.values()] == list(ref.values())
        with pytest.raises(KeyError):
            table["z"]
        with pytest.raises(TypeError):
            table["a"] = []

    def test_a_frontier_is_a_sequence_of_entries(self, small):
        table, ref = small.candidate_table(), reference_candidate_table(small)
        frontier = table["a"]
        assert len(frontier) == len(ref["a"]) > 1
        assert frontier == ref["a"] and ref["a"] == frontier and frontier != ref["a"][:-1]
        assert frontier[0] == ref["a"][0] and frontier[-1] == ref["a"][-1]
        assert frontier[1:] == ref["a"][1:] and list(reversed(frontier)) == ref["a"][::-1]
        assert ref["a"][0] in frontier and frontier.index(ref["a"][1]) == 1
        assert frontier[0] is table["a"][0]  # built once, handed out again
        assert type(frontier[0]) is ProfileEntry and type(frontier[0].alloc) is ResourceVector
        assert type(frontier[0].time) is float and type(frontier[0].area) is float
        assert min(frontier, key=lambda e: e.time * e.area) in ref["a"]
        assert repr(frontier) == repr(ref["a"])
        with pytest.raises(IndexError):
            frontier[len(frontier)]
        with pytest.raises(TypeError):
            hash(frontier)

    def test_columns(self, small):
        table = small.candidate_table()
        assert table.jobs == tuple(small.jobs)
        assert table.starts.tolist() == np.cumsum([0] + [len(es) for es in table.values()]).tolist()
        flat = [e for es in table.values() for e in es]
        assert table.times.tolist() == [e.time for e in flat]
        assert table.areas.tolist() == [e.area for e in flat]
        for j, position in zip(table, table.positions(table).tolist()):
            kept = table.rows[table.starts[position] : table.starts[position + 1]]
            assert [table.candidates[position][r] for r in kept.tolist()] == [
                e.alloc for e in table[j]
            ]
        # jobs on the strategy's grid share one candidate list
        assert table.candidates[0] is table.candidates[1] is table.candidates[2]
        assert table.candidates[3] == small.jobs["rigid"].candidates

    def test_cached_per_strategy_and_survives_pickle(self, small):
        assert small.candidate_table() is small.candidate_table(geometric_grid)
        assert small.candidate_table(full_grid) is not small.candidate_table()
        table = small.candidate_table()
        assert pickle.loads(pickle.dumps(table)) == table

    def test_from_entries_round_trip(self, small):
        ref = reference_candidate_table(small)
        lowered = CandidateTable.from_entries(ref)
        assert lowered == ref and list(lowered) == list(ref)
        assert lowered["a"][0] is ref["a"][0]  # the same objects come back
        computed = small.candidate_table()
        for column in ("starts", "times", "areas"):
            assert np.array_equal(getattr(lowered, column), getattr(computed, column))
        assert CandidateTable.from_entries(computed) == computed
        empty = CandidateTable.from_entries({})
        assert len(empty) == 0 and empty == {} and empty.times.size == 0

    def test_empty_instance(self):
        inst = Instance(jobs={}, dag=DAG(), pool=ResourcePool.of(4))
        table = inst.candidate_table()
        assert len(table) == 0 and table == {} and table.starts.tolist() == [0]


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------
class TestRefusals:
    def test_an_overflowing_time_names_its_job_and_allocation(self):
        """Each term is finite; their ``sum`` is not.  (Until PR 23: ``execution
        times must be positive and finite``, naming nothing.)"""
        fine = MultiResourceTime(works=(3.0, 2.0), speedups=(LinearSpeedup(),) * 2)
        huge = MultiResourceTime(
            works=(1e308, 1e308), speedups=(RooflineSpeedup(cap=1.0),) * 2, combiner="sum"
        )
        jobs = {j: Job(id=j, time_fn=fn) for j, fn in (("ok", fine), ("big", huge), ("ok2", fine))}
        inst = Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=ResourcePool.of(2, 2))
        with np.errstate(over="ignore"), pytest.raises(
            ValueError,
            match=r"job 'big': execution time must be positive and finite, "
            r"got inf at allocation \(1, 1\)",
        ):
            inst.candidate_table(full_grid)
        # the scalar path's words, for the same function behind an opaque wrapper
        jobs["big"] = Job(id="big", time_fn=lambda p: huge(p))
        inst = Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=ResourcePool.of(2, 2))
        with pytest.raises(ValueError, match=r"job 'big': .* got inf at allocation \(1, 1\)"):
            inst.candidate_table(full_grid)

    def test_a_zero_on_a_used_type_names_its_job(self):
        fn = MultiResourceTime(works=(3.0, 2.0), speedups=(LinearSpeedup(),) * 2)
        job = Job(id="j", time_fn=fn, candidates=(ResourceVector((2, 0)),))
        inst = Instance(jobs={"j": job}, dag=DAG(nodes=["j"]), pool=ResourcePool.of(2, 2))
        with pytest.raises(ValueError, match="job 'j': allocation must provide >= 1 unit"):
            inst.candidate_table()

    def test_a_time_function_of_another_dimension_names_its_job(self):
        fn = MultiResourceTime(works=(3.0,), speedups=(LinearSpeedup(),))
        inst = make_instance(independent(1), ResourcePool.of(2, 2), lambda j: fn)
        with pytest.raises(ValueError, match="job 0: time function has 1 resource types"):
            inst.candidate_table()


# ---------------------------------------------------------------------------
# the mechanism, as counts
# ---------------------------------------------------------------------------
def counted(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (which keeps working)."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestMechanism:
    def test_the_pipeline_builds_no_entry_object(self, monkeypatch):
        inst = pipeline_instance(10, 100, 5)
        built = counted(monkeypatch, ProfileEntry, "__init__")
        result = moldable_schedule(inst)
        assert result.allocator == "lp" and len(result.schedule.placements) == 1000
        assert built == []
        table = result.phase1.table
        assert sum(len(entries) for entries in table.values()) == table.times.size
        assert built == []  # a length is read off the columns
        table[0][0]
        assert len(built) == len(table[0])  # one job's, on first use

    def test_kernel_calls_do_not_grow_with_n(self, monkeypatch):
        """One speedup-kernel call per family, type and block: the same at
        n = 200 and n = 1 000 (both one block of the 36-row grid)."""
        calls = counted(monkeypatch, vectorized, "family_array")
        counts = []
        for layers in (2, 10):
            del calls[:]
            pipeline_instance(layers, 100, 5).candidate_table()
            counts.append(len(calls))
        assert counts[0] == counts[1] == 5 * 2  # five families on each of d = 2 types
        # and every call saw the distinct levels of its column, not its rows
        assert {args[1].shape for args in calls} == {(1, 6)}

    def test_an_opaque_time_function_is_called_once_per_candidate(self):
        """Until PR 23 twice: once for the time, once inside ``avg_area``."""
        seen = []
        fn = random_multi_resource_time(2, seed=3)

        def opaque(alloc):
            seen.append(alloc)
            return fn(alloc)

        inst = make_instance(independent(1), ResourcePool.of(8, 8), lambda j: opaque)
        table = inst.candidate_table()
        assert seen == list(geometric_grid(inst.pool))
        del seen[:]
        assert table == reference_candidate_table(inst)
