"""Tests for the Lemma 7 FPTAS on series-parallel graphs and trees."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import exact_lmin_bruteforce
from repro.core.sp_fptas import sp_fptas_allocation
from repro.dag.sp import SPLeaf, SPParallel, SPSeries, random_sp_tree, sp_to_dag, tree_to_sp
from repro.dag.generators import random_out_tree
from repro.instance.instance import make_instance
from repro.jobs.candidates import full_grid
from repro.jobs.speedup import random_multi_resource_time
from repro.resources.pool import ResourcePool


def sp_instance(sp_tree, d=2, capacity=4, seed=0):
    dag = sp_to_dag(sp_tree)
    pool = ResourcePool.uniform(d, capacity)
    rng = np.random.default_rng(seed)
    fns = {j: random_multi_resource_time(d, rng) for j in dag.topological_order()}
    return make_instance(dag, pool, lambda j: fns[j])


class TestGuarantee:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.2, max_value=1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_within_epsilon_of_exact(self, seed, n, epsilon):
        sp = random_sp_tree(n, seed=seed)
        inst = sp_instance(sp, seed=seed)
        res = sp_fptas_allocation(inst, sp, epsilon=epsilon, strategy=full_grid)
        exact, _ = exact_lmin_bruteforce(inst, full_grid)
        assert res.l_value <= (1.0 + epsilon) * exact * (1 + 1e-9)

    def test_tighter_epsilon_not_worse(self):
        sp = random_sp_tree(6, seed=5)
        inst = sp_instance(sp, seed=5)
        loose = sp_fptas_allocation(inst, sp, epsilon=1.0, strategy=full_grid)
        tight = sp_fptas_allocation(inst, sp, epsilon=0.1, strategy=full_grid)
        exact, _ = exact_lmin_bruteforce(inst, full_grid)
        assert tight.l_value <= (1.0 + 0.1) * exact * (1 + 1e-9)
        assert loose.l_value <= (1.0 + 1.0) * exact * (1 + 1e-9)

    def test_works_on_trees_via_conversion(self):
        dag = random_out_tree(7, seed=9)
        sp = tree_to_sp(dag)
        pool = ResourcePool.uniform(2, 4)
        rng = np.random.default_rng(9)
        fns = {j: random_multi_resource_time(2, rng) for j in dag.topological_order()}
        inst = make_instance(dag, pool, lambda j: fns[j])
        res = sp_fptas_allocation(inst, sp, epsilon=0.3, strategy=full_grid)
        exact, _ = exact_lmin_bruteforce(inst, full_grid)
        # the SP-tree of a tree implies the same set of schedules, so L_min
        # computed on the tree DAG is the right oracle
        assert res.l_value <= 1.3 * exact * (1 + 1e-9)


class TestStructure:
    def test_series_chain(self):
        sp = SPSeries(SPLeaf("a"), SPSeries(SPLeaf("b"), SPLeaf("c")))
        inst = sp_instance(sp, seed=2)
        res = sp_fptas_allocation(inst, sp, epsilon=0.2, strategy=full_grid)
        # chain: C dominates; allocation must cover all three jobs
        assert set(res.allocation) == {"a", "b", "c"}
        assert res.l_value >= inst.critical_path(res.allocation) - 1e-9

    def test_parallel_only(self):
        sp = SPParallel(SPLeaf("a"), SPParallel(SPLeaf("b"), SPLeaf("c")))
        inst = sp_instance(sp, seed=3)
        res = sp_fptas_allocation(inst, sp, epsilon=0.2, strategy=full_grid)
        exact, _ = exact_lmin_bruteforce(inst, full_grid)
        assert res.l_value <= 1.2 * exact * (1 + 1e-9)

    def test_leaf_mismatch_rejected(self):
        sp = SPLeaf("zzz")
        inst = sp_instance(SPLeaf("a"), seed=0)
        with pytest.raises(ValueError):
            sp_fptas_allocation(inst, sp)

    def test_bad_epsilon(self):
        sp = SPLeaf("a")
        inst = sp_instance(sp, seed=0)
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                sp_fptas_allocation(inst, sp, epsilon=eps)
