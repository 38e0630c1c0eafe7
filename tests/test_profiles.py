"""Tests for tabulated profiles and the Eq. (2) Pareto kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import assumption3_violations, kernel_frontier
from repro.jobs.profiles import ProfileEntry, TabulatedTimeFunction
from repro.resources.vector import ResourceVector


def entry(t, a, alloc=(1,)):
    return ProfileEntry(alloc=ResourceVector(alloc), time=t, area=a)


class TestParetoFilter:
    def test_keeps_frontier(self):
        entries = [entry(1.0, 10.0), entry(2.0, 5.0), entry(4.0, 1.0)]
        assert kernel_frontier(entries) == entries

    def test_drops_dominated(self):
        dominated = entry(3.0, 7.0)  # slower and costlier than (2, 5)
        out = kernel_frontier([entry(1.0, 10.0), entry(2.0, 5.0), dominated, entry(4.0, 1.0)])
        assert dominated not in out
        assert len(out) == 3

    def test_equal_time_keeps_min_area(self):
        out = kernel_frontier([entry(2.0, 5.0), entry(2.0, 3.0)])
        assert out == [entry(2.0, 3.0)]

    def test_equal_area_keeps_fastest(self):
        out = kernel_frontier([entry(1.0, 5.0), entry(2.0, 5.0)])
        assert out == [entry(1.0, 5.0)]

    def test_result_strictly_monotone(self):
        out = kernel_frontier(
            [entry(1.0, 4.0), entry(1.0, 6.0), entry(2.0, 4.0), entry(3.0, 2.0), entry(3.5, 2.0)]
        )
        for e1, e2 in zip(out, out[1:]):
            assert e1.time < e2.time
            assert e1.area > e2.area

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100, allow_nan=False),
                st.floats(min_value=0.1, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_matches_bruteforce_dominance(self, pairs):
        entries = [entry(t, a) for t, a in pairs]
        out = kernel_frontier(entries)
        out_set = {(e.time, e.area) for e in out}
        # 1) no kept entry is strictly dominated (Eq. 2)
        for e in out:
            assert not any(o.dominates(e) for o in entries)
        # 2) every dropped entry is strictly dominated or redundant
        #    (same time with >= area, or same area with >= time, vs a kept one)
        for e in entries:
            if (e.time, e.area) in out_set:
                continue
            dominated = any(o.dominates(e) for o in entries)
            redundant = any(
                (o.time <= e.time and o.area <= e.area) for o in out
            )
            assert dominated or redundant
        # 3) frontier is strictly monotone
        for e1, e2 in zip(out, out[1:]):
            assert e1.time < e2.time and e1.area > e2.area


class TestTabulatedTimeFunction:
    def test_lookup(self):
        fn = TabulatedTimeFunction({(1, 1): 4.0, (2, 2): 2.5})
        assert fn(ResourceVector((1, 1))) == 4.0
        assert fn((2, 2)) == 2.5

    def test_missing_raises(self):
        fn = TabulatedTimeFunction({(1, 1): 4.0})
        with pytest.raises(KeyError):
            fn(ResourceVector((3, 3)))

    def test_monotone_extension(self):
        fn = TabulatedTimeFunction({(1, 1): 4.0, (2, 2): 2.5}, extend_monotone=True)
        # (3, 2) dominates (2, 2) and (1, 1): fastest dominated time is 2.5
        assert fn(ResourceVector((3, 2))) == 2.5
        with pytest.raises(KeyError):
            fn(ResourceVector((0, 1)))  # dominates nothing in the table

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedTimeFunction({})
        with pytest.raises(ValueError):
            TabulatedTimeFunction({(1,): -2.0})
        with pytest.raises(ValueError):
            TabulatedTimeFunction({(1,): 1.0, (1, 2): 2.0})


class TestAssumption3Checker:
    def test_clean_profile_passes(self):
        entries = [
            ProfileEntry(ResourceVector((1,)), 4.0, 4.0),
            ProfileEntry(ResourceVector((2,)), 2.0, 4.0),
            ProfileEntry(ResourceVector((4,)), 1.0, 4.0),
        ]
        assert assumption3_violations(entries) == []

    def test_detects_monotonicity_violation(self):
        entries = [
            ProfileEntry(ResourceVector((1,)), 1.0, 1.0),
            ProfileEntry(ResourceVector((2,)), 2.0, 4.0),  # more resources, slower
        ]
        bad = assumption3_violations(entries)
        assert bad and "monotonicity" in bad[0]

    def test_detects_superlinear_speedup(self):
        entries = [
            ProfileEntry(ResourceVector((1,)), 10.0, 10.0),
            ProfileEntry(ResourceVector((2,)), 1.0, 2.0),  # 10x speedup from 2x resources
        ]
        bad = assumption3_violations(entries)
        assert bad and "superlinear" in bad[0]

    def test_max_report_cap(self):
        entries = [
            ProfileEntry(ResourceVector((x,)), float(x), 1.0) for x in range(1, 20)
        ]
        assert len(assumption3_violations(entries, max_report=3)) == 3
