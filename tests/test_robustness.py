"""Tests for the estimation-noise robustness experiment."""


from helpers import bench_table, tiny_instance
from repro.experiments.workloads import perturbed_instance


class TestPerturbedInstance:
    def test_structure_preserved(self):
        inst = tiny_instance(seed=0)
        noisy = perturbed_instance(inst, 0.2, seed=1)
        assert set(noisy.jobs) == set(inst.jobs)
        assert sorted(map(str, noisy.dag.edges())) == sorted(map(str, inst.dag.edges()))
        assert noisy.pool == inst.pool

    def test_times_perturbed_but_deterministic(self):
        inst = tiny_instance(seed=0)
        n1 = perturbed_instance(inst, 0.3, seed=1)
        n2 = perturbed_instance(inst, 0.3, seed=1)
        n3 = perturbed_instance(inst, 0.3, seed=2)
        alloc = inst.pool.capacities
        changed = 0
        for j in inst.jobs:
            t1, t2, t3 = n1.time(j, alloc), n2.time(j, alloc), n3.time(j, alloc)
            assert t1 == t2
            if t1 != t3:
                changed += 1
        assert changed > 0

    def test_zero_noise_identity_times(self):
        inst = tiny_instance(seed=3)
        noisy = perturbed_instance(inst, 0.0, seed=1)
        alloc = inst.pool.capacities
        for j in inst.jobs:
            assert noisy.time(j, alloc) == inst.time(j, alloc)


class TestRobustnessSweep:
    """The ``robustness`` benchmark's rows: allocation on noisy estimates,
    execution with the true times."""

    def test_shape_and_noiseless_row(self):
        rows = bench_table("robustness").rows
        assert [r["rel_noise"] for r in rows] == [0.0, 0.1, 0.3, 0.6]
        # the noiseless row must respect the proven bound
        assert rows[0]["max_ratio"] <= rows[0]["proven_noiseless"] + 1e-9
        for r in rows:
            assert r["mean_ratio"] >= 1.0 - 1e-9

    def test_degradation_is_bounded(self):
        """Moderate noise should not blow the ratio up by more than the
        worst-case noise factor itself (sanity envelope)."""
        rows = bench_table("robustness").rows
        for r in rows[1:]:
            assert r["mean_ratio"] <= rows[0]["mean_ratio"] * 3.0
