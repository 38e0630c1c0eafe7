"""Tests for the noise-injection profile builder."""

import pytest

from repro.jobs.builders import perturbed_time_fn
from repro.jobs.speedup import LinearSpeedup, MultiResourceTime
from repro.resources.vector import ResourceVector


class TestPerturbation:
    def base(self):
        return MultiResourceTime(works=(8.0,), speedups=(LinearSpeedup(),))

    def test_zero_noise_identity(self):
        base = self.base()
        assert perturbed_time_fn(base, 0.0) is base

    def test_deterministic_per_allocation(self):
        fn = perturbed_time_fn(self.base(), 0.2, seed=7)
        a = ResourceVector((2,))
        assert fn(a) == fn(a)
        fn2 = perturbed_time_fn(self.base(), 0.2, seed=7)
        assert fn(a) == fn2(a)

    def test_different_seeds_differ(self):
        a = ResourceVector((2,))
        f1 = perturbed_time_fn(self.base(), 0.3, seed=1)
        f2 = perturbed_time_fn(self.base(), 0.3, seed=2)
        assert f1(a) != f2(a)

    def test_noise_magnitude_reasonable(self):
        base = self.base()
        fn = perturbed_time_fn(base, 0.1, seed=3)
        vals = [fn(ResourceVector((x,))) / base(ResourceVector((x,))) for x in range(1, 30)]
        assert all(0.5 < v < 2.0 for v in vals)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            perturbed_time_fn(self.base(), -0.1)
