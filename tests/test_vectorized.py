"""Tests for the vectorized profile evaluation (HPC fast path)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.instance.instance import make_instance
from repro.dag.generators import independent
from repro.jobs.candidates import full_grid
from repro.jobs.profiles import ProfileEntry, pareto_filter
from repro.jobs.speedup import (
    AmdahlSpeedup,
    LinearSpeedup,
    LogSpeedup,
    MultiResourceTime,
    PowerLawSpeedup,
    RooflineSpeedup,
    random_multi_resource_time,
)
from repro.jobs.vectorized import (
    NoArrayForm,
    evaluate_times,
    speedup_array,
)
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector, iter_allocation_grid


class TestSpeedupArray:
    @pytest.mark.parametrize(
        "model",
        [
            LinearSpeedup(),
            AmdahlSpeedup(alpha=0.17),
            PowerLawSpeedup(beta=0.62),
            RooflineSpeedup(cap=4.5),
            LogSpeedup(gamma=0.6),
        ],
    )
    def test_matches_scalar(self, model):
        xs = np.arange(1, 40)
        arr = speedup_array(model, xs)
        for x, v in zip(xs, arr):
            assert v == pytest.approx(model(int(x)))

    def test_custom_model_raises(self):
        class Custom:
            def __call__(self, x):
                return float(x)

        assert issubclass(NoArrayForm, TypeError)
        with pytest.raises(NoArrayForm):
            speedup_array(Custom(), np.array([1, 2]))


class TestEvaluateTimes:
    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from(["max", "sum"]))
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_everywhere(self, seed, combiner):
        fn = random_multi_resource_time(2, seed=seed, combiner=combiner)
        allocs = [tuple(a) for a in iter_allocation_grid(ResourceVector((5, 5)))]
        vec = evaluate_times(fn, np.array(allocs))
        for a, t in zip(allocs, vec):
            assert t == pytest.approx(fn(ResourceVector(a)), rel=1e-12)

    def test_shape_validation(self):
        fn = MultiResourceTime(works=(1.0, 1.0), speedups=(LinearSpeedup(),) * 2)
        with pytest.raises(ValueError):
            evaluate_times(fn, np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            evaluate_times(fn, np.array([[0, 1]]))

    def test_zero_work_type_ignored(self):
        fn = MultiResourceTime(works=(4.0, 0.0), speedups=(LinearSpeedup(),) * 2)
        vec = evaluate_times(fn, np.array([[2, 0], [4, 0]]))
        assert vec == pytest.approx([2.0, 1.0])


class TestEvaluateEntries:
    """One job's entries, read off the table (``evaluate_entries``, a second
    way to build them, went in PR 23)."""

    def test_matches_scalar_table(self):
        pool = ResourcePool.of(5, 4)
        fn = random_multi_resource_time(2, seed=77)
        cands = full_grid(pool)
        fast = make_instance(independent(1), pool, lambda j: fn).candidate_table(full_grid)[0]
        # scalar reference
        d = pool.d
        scalar = pareto_filter(
            ProfileEntry(
                alloc=c,
                time=fn(c),
                area=fn(c) * sum(c[i] / pool.capacities[i] for i in range(d)) / d,
            )
            for c in cands
        )
        assert len(fast) == len(scalar)
        for e1, e2 in zip(fast, scalar):
            assert e1.alloc == e2.alloc
            assert e1.time == pytest.approx(e2.time, rel=1e-12)
            assert e1.area == pytest.approx(e2.area, rel=1e-12)

    def test_instance_table_uses_fast_path_consistently(self):
        """candidate_table output is identical whether or not the vectorized
        path applies (custom function vs MultiResourceTime)."""
        pool = ResourcePool.of(4, 4)
        fn = random_multi_resource_time(2, seed=5)
        dag = independent(3)
        inst_fast = make_instance(dag, pool, lambda j: fn)
        inst_slow = make_instance(dag, pool, lambda j: (lambda a: fn(a)))  # opaque wrapper
        t_fast = inst_fast.candidate_table(full_grid)
        t_slow = inst_slow.candidate_table(full_grid)
        for j in range(3):
            assert [e.alloc for e in t_fast[j]] == [e.alloc for e in t_slow[j]]
            for e1, e2 in zip(t_fast[j], t_slow[j]):
                assert e1.time == pytest.approx(e2.time, rel=1e-12)
                assert e1.area == pytest.approx(e2.area, rel=1e-12)
