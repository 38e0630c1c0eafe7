"""Tests for the vectorized profile evaluation (HPC fast path)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import iter_allocation_grid, reference_pareto_filter
from repro.instance.instance import make_instance
from repro.dag.generators import independent
from repro.jobs.candidates import full_grid
from repro.jobs.job import Job
from repro.jobs.profiles import ProfileEntry
from repro.jobs.speedup import (
    AmdahlSpeedup,
    LinearSpeedup,
    LogSpeedup,
    MultiResourceTime,
    PowerLawSpeedup,
    RooflineSpeedup,
    random_multi_resource_time,
)
from repro.jobs.vectorized import _block_times, _family_of, _levels, _TimeFunctions, family_array
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


def kernel_times(fn: MultiResourceTime, allocs) -> np.ndarray:
    """``t_j`` of one job over an ``(m, d)`` allocation matrix, through the
    table's kernel."""
    job = Job(id="j", time_fn=fn)
    return _block_times(*_levels(np.asarray(allocs)), _TimeFunctions.lower([job], fn.d), [job])[0]


class TestFamilyArray:
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
        code, attr = _family_of(type(model))
        arr = family_array(code, xs.astype(np.float64), getattr(model, attr) if attr else None)
        assert arr.tolist() == [model(int(x)) for x in xs]  # the scalar's float, bit for bit

    def test_custom_model_has_no_family(self):
        class Custom:
            def __call__(self, x):
                return float(x)

        assert _family_of(Custom) == (-1, None)


class TestLowering:
    """``_TimeFunctions.lower`` reads each family's parameter once per class
    of speedup, over that class's elements; every value is the model's own."""

    @pytest.mark.parametrize("n", [1, 2, 60])
    def test_every_parameter_and_code_is_the_models_own(self, n):
        rng = np.random.default_rng(n)
        fns = [random_multi_resource_time(3, rng, zero_prob=0.2) for _ in range(n)]
        jobs = [Job(id=k, time_fn=fn) for k, fn in enumerate(fns)]
        jobs.insert(n // 2, Job(id="opaque", time_fn=lambda a: 1.0))
        lowered = _TimeFunctions.lower(jobs, 3)
        want_codes, want_params = [], []
        for job in jobs:
            models = getattr(job.time_fn, "speedups", (None,) * 3)
            families = [_family_of(type(s)) for s in models]
            want_codes.append([code for code, _ in families])
            want_params.append([getattr(s, a) if a else 0.0 for s, (_, a) in zip(models, families)])
        assert lowered.codes.tolist() == want_codes
        assert lowered.params.tolist() == want_params
        assert lowered.exact.tolist() == [job.id != "opaque" for job in jobs]

    def test_refusals_name_the_job(self):
        two = MultiResourceTime(works=(1.0, 2.0), speedups=(LinearSpeedup(),) * 2)
        with pytest.raises(ValueError) as refused:
            _TimeFunctions.lower([Job(id="a", time_fn=two)], 3)
        assert str(refused.value) == "job 'a': time function has 2 resource types, the pool has 3"
        fraction = MultiResourceTime(works=(Fraction(1, 2), 1.0), speedups=(LinearSpeedup(),) * 2)
        jobs = [Job(id="a", time_fn=two), Job(id="b", time_fn=fraction)]
        with pytest.raises(TypeError) as refused:
            _TimeFunctions.lower(jobs, 2)
        assert str(refused.value) == (
            "job 'b': per-type works must be numbers, got (Fraction(1, 2), 1.0)"
        )


class TestKernelTimes:
    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from(["max", "sum"]))
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_everywhere(self, seed, combiner):
        fn = random_multi_resource_time(2, seed=seed, combiner=combiner)
        allocs = [tuple(a) for a in iter_allocation_grid(ResourceVector((5, 5)))]
        vec = kernel_times(fn, np.array(allocs))
        assert vec.tolist() == [fn(ResourceVector(a)) for a in allocs]

    def test_zero_work_type_ignored(self):
        fn = MultiResourceTime(works=(4.0, 0.0), speedups=(LinearSpeedup(),) * 2)
        vec = kernel_times(fn, np.array([[2, 0], [4, 0]]))
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
        scalar = reference_pareto_filter(
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
