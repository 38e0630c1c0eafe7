"""Tests for the analytic execution-time models, especially Assumption 3."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.jobs.profiles import ProfileEntry, assumption3_violations
from repro.jobs.speedup import (
    AmdahlSpeedup,
    CommunicationOverheadTime,
    LinearSpeedup,
    LogSpeedup,
    MultiResourceTime,
    PowerLawSpeedup,
    RooflineSpeedup,
    random_multi_resource_time,
)
from repro.resources.vector import ResourceVector, iter_allocation_grid


class TestSpeedupModels:
    def test_linear(self):
        s = LinearSpeedup()
        assert s(4) == 4.0

    def test_amdahl_limits(self):
        s = AmdahlSpeedup(alpha=0.1)
        assert s(1) == pytest.approx(1.0)
        assert s(1000) < 1.0 / 0.1 + 1e-6
        with pytest.raises(ValueError):
            AmdahlSpeedup(alpha=1.5)

    def test_power_law(self):
        s = PowerLawSpeedup(beta=0.5)
        assert s(4) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            PowerLawSpeedup(beta=0.0)

    def test_roofline(self):
        s = RooflineSpeedup(cap=4.0)
        assert s(2) == 2.0
        assert s(16) == 4.0
        with pytest.raises(ValueError):
            RooflineSpeedup(cap=0.5)

    def test_log(self):
        s = LogSpeedup(gamma=0.5)
        assert s(1) == pytest.approx(1.0)
        assert s(8) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            LogSpeedup(gamma=0.0)
        with pytest.raises(ValueError):
            LogSpeedup(gamma=1.0)  # superlinear near x=1

    @pytest.mark.parametrize(
        "model",
        [
            LinearSpeedup(),
            AmdahlSpeedup(alpha=0.2),
            PowerLawSpeedup(beta=0.7),
            RooflineSpeedup(cap=5.0),
            LogSpeedup(gamma=0.6),
        ],
    )
    def test_sufficient_condition(self, model):
        """s non-decreasing, s(x)/x non-increasing — the Assumption 3
        sufficient condition (see module docstring of repro.jobs.speedup)."""
        for x in range(1, 64):
            assert model(x + 1) >= model(x) - 1e-12
            assert model(x + 1) / (x + 1) <= model(x) / x + 1e-12


class TestMultiResourceTime:
    def test_max_combiner(self):
        t = MultiResourceTime(works=(8.0, 4.0), speedups=(LinearSpeedup(), LinearSpeedup()))
        assert t(ResourceVector((2, 4))) == pytest.approx(4.0)
        assert t(ResourceVector((8, 1))) == pytest.approx(4.0)

    def test_sum_combiner(self):
        t = MultiResourceTime(
            works=(8.0, 4.0),
            speedups=(LinearSpeedup(), LinearSpeedup()),
            combiner="sum",
        )
        assert t(ResourceVector((2, 4))) == pytest.approx(5.0)

    def test_zero_work_type_skipped(self):
        t = MultiResourceTime(works=(8.0, 0.0), speedups=(LinearSpeedup(), LinearSpeedup()))
        assert t(ResourceVector((2, 0))) == pytest.approx(4.0)

    def test_zero_alloc_on_used_type_rejected(self):
        t = MultiResourceTime(works=(8.0, 1.0), speedups=(LinearSpeedup(), LinearSpeedup()))
        with pytest.raises(ValueError):
            t(ResourceVector((2, 0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiResourceTime(works=(0.0, 0.0), speedups=(LinearSpeedup(), LinearSpeedup()))
        with pytest.raises(ValueError):
            MultiResourceTime(works=(1.0,), speedups=(LinearSpeedup(), LinearSpeedup()))
        with pytest.raises(ValueError):
            MultiResourceTime(works=(1.0,), speedups=(LinearSpeedup(),), combiner="prod")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_non_finite_works_are_refused_at_construction(self, bad):
        """``w < 0`` is false for nan and inf: until PR 23 both got in, and
        the candidate table refused them later, naming no job."""
        with pytest.raises(ValueError, match="non-negative"):
            MultiResourceTime(works=(bad, 1.0), speedups=(LinearSpeedup(),) * 2)

    def test_dimension_mismatch(self):
        t = MultiResourceTime(works=(1.0,), speedups=(LinearSpeedup(),))
        with pytest.raises(ValueError):
            t(ResourceVector((1, 1)))

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["amdahl", "power", "roofline", "log", "linear", "mixed"]),
        st.sampled_from(["max", "sum"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_assumption3_holds_on_grid(self, seed, model, combiner):
        """Every random model satisfies Assumption 3 on a full 2-type grid."""
        fn = random_multi_resource_time(2, seed=seed, model=model, combiner=combiner)
        entries = []
        for alloc in iter_allocation_grid(ResourceVector((6, 6))):
            t = fn(alloc)
            entries.append(ProfileEntry(alloc=alloc, time=t, area=t))  # area unused here
        assert assumption3_violations(entries, rtol=1e-9) == []

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20)
    def test_random_model_deterministic(self, seed):
        a = random_multi_resource_time(3, seed=seed)
        b = random_multi_resource_time(3, seed=seed)
        alloc = ResourceVector((2, 3, 4))
        assert a(alloc) == b(alloc)

    def test_zero_prob_respected(self):
        fn = random_multi_resource_time(4, seed=1, zero_prob=1.0)
        # at least one type must still carry work
        assert sum(1 for w in fn.works if w > 0) == 1


class TestCommunicationOverhead:
    def test_non_monotone_tail(self):
        t = CommunicationOverheadTime(rtype=0, work=16.0, overhead=1.0, d=1)
        best = min(range(1, 33), key=lambda x: t(ResourceVector((x,))))
        assert best == 4  # sqrt(w/c)
        assert t(ResourceVector((32,))) > t(ResourceVector((4,)))

    def test_validation(self):
        with pytest.raises(ValueError):
            CommunicationOverheadTime(rtype=0, work=0.0, overhead=1.0, d=1)
        with pytest.raises(ValueError):
            CommunicationOverheadTime(rtype=2, work=1.0, overhead=0.0, d=1)
        t = CommunicationOverheadTime(rtype=0, work=4.0, overhead=0.5, d=2)
        with pytest.raises(ValueError):
            t(ResourceVector((0, 1)))
