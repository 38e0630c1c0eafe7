"""Tests for candidate-allocation enumeration strategies."""

import pytest

from repro.jobs.candidates import (
    candidates_for_job,
    diagonal_grid,
    full_grid,
    geometric_grid,
    make_candidates,
)
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


class TestGrids:
    def test_full_grid_size(self):
        pool = ResourcePool.of(3, 4)
        grid = full_grid(pool)
        assert len(grid) == 12
        assert len(set(grid)) == 12
        assert all(1 <= a[i] <= pool.capacities[i] for a in grid for i in range(2))

    def test_geometric_grid_axis(self):
        pool = ResourcePool.of(16)
        grid = geometric_grid(pool, base=2.0)
        assert set(grid) == {(1,), (2,), (4,), (8,), (16,)}

    def test_geometric_grid_includes_extremes(self):
        pool = ResourcePool.of(13, 7)
        grid = geometric_grid(pool)
        assert ResourceVector((1, 1)) in grid
        assert ResourceVector((13, 7)) in grid

    def test_geometric_bad_base(self):
        with pytest.raises(ValueError):
            geometric_grid(ResourcePool.of(4), base=1.0)

    def test_diagonal_grid(self):
        pool = ResourcePool.of(10, 20)
        grid = diagonal_grid(pool, levels=4)
        assert grid[-1] == (10, 20)
        assert all(len(a) == 2 for a in grid)
        # fractions 1/4, 2/4, 3/4, 1 -> no duplicates here
        assert len(grid) == 4

    def test_diagonal_min_one_unit(self):
        pool = ResourcePool.of(2, 100)
        grid = diagonal_grid(pool, levels=8)
        assert all(a[0] >= 1 for a in grid)

    def test_make_candidates(self):
        pool = ResourcePool.of(8, 8)
        assert make_candidates("full")(pool) == full_grid(pool)
        assert make_candidates("geometric", base=3.0)(pool) == geometric_grid(pool, base=3.0)
        assert make_candidates("diagonal", levels=2)(pool) == diagonal_grid(pool, levels=2)
        with pytest.raises(ValueError):
            make_candidates("nope")
        with pytest.raises(TypeError):
            make_candidates("geometric", bogus=1)


class TestPerJob:
    def test_pinned_candidates_win(self):
        pool = ResourcePool.of(4, 4)
        pinned = (ResourceVector((1, 0)),)
        job = Job(id="j", time_fn=lambda a: 1.0, candidates=pinned)
        assert candidates_for_job(job, pool, full_grid) == pinned

    def test_strategy_used_when_unpinned(self):
        pool = ResourcePool.of(2, 2)
        job = Job(id="j", time_fn=lambda a: 1.0)
        assert candidates_for_job(job, pool, full_grid) == full_grid(pool)

    def test_invalid_pinned_rejected(self):
        pool = ResourcePool.of(2, 2)
        job = Job(id="j", time_fn=lambda a: 1.0, candidates=(ResourceVector((3, 1)),))
        with pytest.raises(ValueError):
            candidates_for_job(job, pool, full_grid)

    def test_empty_pinned_rejected(self):
        pool = ResourcePool.of(2, 2)
        job = Job(id="j", time_fn=lambda a: 1.0, candidates=())
        with pytest.raises(ValueError):
            candidates_for_job(job, pool, full_grid)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (ResourceVector((1, 1, 1)), "allocation has 3 types, pool has 2"),
            (ResourceVector((3, 1)), "allocation (3, 1) exceeds capacities (2, 2)"),
            (ResourceVector((0, 0)), "allocation must request at least one resource unit"),
            (ResourceVector((2**70, 1)), f"allocation ({2**70}, 1) exceeds capacities (2, 2)"),
        ],
    )
    def test_the_first_refused_row_is_named(self, bad, message):
        """The list is checked as one array; a refusal is the per-row
        check's own text, for the first row it refuses."""
        pool = ResourcePool.of(2, 2)
        later = ResourceVector((5, 5))  # refused too, but after ``bad``
        for pinned in ((bad,), (ResourceVector((1, 2)), bad, later)):
            job = Job(id="j", time_fn=lambda a: 1.0, candidates=pinned)
            with pytest.raises(ValueError) as refused:
                candidates_for_job(job, pool, full_grid)
            assert str(refused.value) == message

    def test_an_empty_list_is_refused_by_name(self):
        pool = ResourcePool.of(2, 2)
        for empty in ((), []):
            job = Job(id="j", time_fn=lambda a: 1.0, candidates=empty)
            with pytest.raises(ValueError) as refused:
                candidates_for_job(job, pool, full_grid)
            assert str(refused.value) == "job 'j' has an empty candidate set"
        with pytest.raises(ValueError) as refused:
            candidates_for_job(Job(id="k", time_fn=lambda a: 1.0), pool, lambda p: ())
        assert str(refused.value) == "job 'k' has an empty candidate set"

    def test_an_accepted_list_comes_back_as_a_tuple(self):
        pool = ResourcePool.of(2, 2)
        rows = [ResourceVector((1, 0)), ResourceVector((2, 2)), ResourceVector((0, 1))]
        job = Job(id="j", time_fn=lambda a: 1.0, candidates=tuple(rows))
        assert candidates_for_job(job, pool, full_grid) == tuple(rows)
        assert candidates_for_job(Job(id="k", time_fn=lambda a: 1.0), pool, lambda p: rows) == tuple(rows)

    def test_rigid_flag(self):
        """A rigid job is one pinned to a single allocation: that vector is
        its whole candidate set, whatever the strategy."""
        pool = ResourcePool.of(2, 2)
        job = Job(id="j", time_fn=lambda a: 1.0, candidates=(ResourceVector((1, 1)),))
        assert candidates_for_job(job, pool, full_grid) == (ResourceVector((1, 1)),)
        free = Job(id="k", time_fn=lambda a: 1.0)
        assert len(candidates_for_job(free, pool, full_grid)) > 1


class TestJobValidation:
    def test_time_must_be_positive_finite(self):
        bad = Job(id="j", time_fn=lambda a: 0.0)
        with pytest.raises(ValueError):
            bad.time(ResourceVector((1,)))
        nan = Job(id="j", time_fn=lambda a: float("nan"))
        with pytest.raises(ValueError):
            nan.time(ResourceVector((1,)))
        inf = Job(id="j", time_fn=lambda a: float("inf"))
        with pytest.raises(ValueError):
            inf.time(ResourceVector((1,)))
