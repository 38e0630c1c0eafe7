"""Unit tests for the array-native lowering (:mod:`repro.instance.compiled`).

The dispatch engine trusts this layer completely — CSR round-trips,
release vectors, rank stability and the packed-demand SWAR encoding are
each pinned here against the dict-based structures they lower.
"""

import numpy as np
import pytest

from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    list_schedule,
)
from repro.dag.generators import erdos_renyi_dag, layered_random
from repro.dag.graph import DAG
from repro.instance.compiled import compile_dag, compile_instance
from repro.instance.instance import make_instance, with_release_times
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


def build(dag, d=2, capacity=8):
    pool = ResourcePool.uniform(d, capacity)
    return make_instance(dag, pool, lambda j: (lambda a: 1.0 + sum(a)))


@pytest.fixture(params=[0, 1, 2])
def dag(request):
    return erdos_renyi_dag(20, 0.25, seed=request.param)


class TestCompiledDAGRoundTrip:
    def test_csr_matches_adjacency(self, dag):
        cd = compile_dag(dag)
        index = cd.index
        for i, j in enumerate(cd.order):
            succ = [cd.order[s] for s in cd.successors_of(i).tolist()]
            assert succ == list(dag.successors(j))  # same jobs, same order
            # same jobs, listed by ascending topological index (the
            # transposed CSR is sorted off the successor CSR, not read
            # from the DAG)
            preds = cd.predecessors_of(i).tolist()
            assert preds == sorted(index[p] for p in dag.predecessors(j))
            assert cd.in_degree[i] == dag.in_degree(j)
            assert cd.out_degree[i] == dag.out_degree(j)
            assert index[j] == i

    def test_predecessor_csr_is_built_on_first_use(self, dag):
        """Neither Phase 2 under fifo nor the bottom-level sweep reads the
        transposed adjacency, so neither builds it; the in-degrees are
        there without it."""
        inst = build(dag)
        alloc = {j: ResourceVector((1, 1)) for j in inst.jobs}
        for rule in (fifo_priority, bottom_level_priority):
            list_schedule(inst, alloc, rule)
        cd = compile_dag(dag)
        assert cd._pred_csr is None
        assert cd.in_degree.dtype == np.int64
        assert cd.in_degree.tolist() == [len(dag.predecessors(j)) for j in cd.order]
        assert cd._pred_csr is None
        indptr, indices = cd.pred_indptr, cd.pred_indices
        assert cd._pred_csr is not None and cd.pred_indptr is indptr
        assert np.array_equal(np.diff(indptr), cd.in_degree)
        assert indices.dtype == np.int64 and indices.size == cd.succ_indices.size

    def test_predecessor_csr_is_the_lowering_s_own_after_the_dag_mutates(self):
        """The transposed CSR is sorted off the successor CSR: a DAG edited
        after the lowering cannot leak into the old lowering, and gets a
        fresh one."""
        dag = DAG(nodes=[0, 1, 2, 3], edges=[(0, 2), (1, 2)])
        cd = compile_dag(dag)
        dag.add_edge(2, 3)

        def preds(c, j):
            return {c.order[p] for p in c.predecessors_of(c.index[j]).tolist()}

        assert preds(cd, 3) == set() and preds(cd, 2) == {0, 1}
        fresh = compile_dag(dag)
        assert fresh is not cd
        assert preds(fresh, 3) == {2} and preds(fresh, 2) == {0, 1}
        assert fresh.in_degree[fresh.index[3]] == 1

    def test_succ_lists_mirror_csr(self, dag):
        cd = compile_dag(dag)
        for i in range(cd.n):
            assert cd.succ_lists()[i] == cd.successors_of(i).tolist()

    def test_order_is_the_dag_topological_order(self, dag):
        assert compile_dag(dag).order == dag.topological_order()

    def test_cache_dropped_on_mutation(self):
        dag = DAG(nodes=[0, 1, 2], edges=[(0, 1)])
        cd = compile_dag(dag)
        assert compile_dag(dag) is cd  # cached while unchanged
        dag.add_edge(1, 2)
        cd2 = compile_dag(dag)
        assert cd2 is not cd
        assert cd2.n == 3 and cd2.in_degree.sum() == 2


class TestCompiledInstance:
    def test_release_vector(self, dag):
        inst = build(dag)
        releases = {j: float(i % 3) for i, j in enumerate(dag.topological_order())}
        online = with_release_times(inst, releases)
        ci = compile_instance(online)
        assert ci.has_releases
        for i, j in enumerate(ci.order):
            assert ci.release[i] == releases[j]
        assert not compile_instance(inst).has_releases

    def test_compiled_cache_follows_dag(self):
        inst = build(DAG(nodes=[0, 1, 2], edges=[(0, 1)]))
        ci = compile_instance(inst)
        assert compile_instance(inst) is ci
        inst.dag.add_edge(1, 2)  # mutating the DAG invalidates the lowering
        assert compile_instance(inst) is not ci

    def test_alloc_matrix_and_duration_vector(self, dag):
        inst = build(dag, d=2)
        alloc = {j: ResourceVector((1 + i % 3, 2)) for i, j in enumerate(inst.jobs)}
        ci = compile_instance(inst)
        m = ci.alloc_matrix(alloc)
        times = {j: inst.time(j, alloc[j]) for j in inst.jobs}
        tv = ci.duration_vector(times)
        for i, j in enumerate(ci.order):
            assert tuple(m[i]) == tuple(alloc[j])
            assert tv[i] == times[j]


class TestRankPermutation:
    def test_mapping_and_array_forms_agree(self, dag):
        inst = build(dag)
        ci = compile_instance(inst)
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 4, size=ci.n).astype(np.float64)  # many ties
        keys_map = {j: (vals[i], i) for i, j in enumerate(ci.order)}
        r_map, t_map = ci.rank_permutation(keys_map)
        r_arr, t_arr = ci.rank_permutation(vals)
        assert t_map == list(t_arr)
        assert np.array_equal(r_map, r_arr)

    def test_ties_break_by_topological_index(self, dag):
        ci = compile_instance(build(dag))
        rank_of, topo_of_rank = ci.rank_permutation(np.zeros(ci.n))
        assert topo_of_rank == list(range(ci.n))  # all-tie: pure topo order
        assert np.array_equal(rank_of, np.arange(ci.n))

    def test_rank_is_a_permutation(self, dag):
        ci = compile_instance(build(dag))
        rng = np.random.default_rng(3)
        rank_of, topo_of_rank = ci.rank_permutation(rng.random(ci.n))
        assert sorted(topo_of_rank) == list(range(ci.n))
        assert sorted(rank_of.tolist()) == list(range(ci.n))
        for i in range(ci.n):
            assert rank_of[topo_of_rank[i]] == i

    def test_array_shape_validated(self, dag):
        ci = compile_instance(build(dag))
        with pytest.raises(ValueError):
            ci.rank_permutation(np.zeros(ci.n + 1))


class TestPackedDemands:
    def test_packable_predicate(self):
        """``packable`` ⇔ ``d * bits <= 64``, a field being the widest
        capacity's bit length plus its headroom bit."""
        dag = layered_random(3, 4, p=0.5, seed=0)
        for d, capacity, bits in (
            (4, 2**15 - 1, 16),  # exactly one word
            (4, 2**15, 17),      # 68 bits
            (2, 2**15, 17),
            (5, 8, 5),
            (6, 24, 6),
            (12, 12, 5),         # 60 bits
            (13, 12, 5),         # 65 bits
            (1, 2**62, 64),
        ):
            ci = compile_instance(build(dag, d=d, capacity=capacity))
            assert ci.bits == bits
            assert ci.packable == (d * bits <= 64)

    def test_pack_round_trip(self):
        dag = layered_random(3, 4, p=0.5, seed=1)
        inst = build(dag, d=3, capacity=9)
        ci = compile_instance(inst)
        rng = np.random.default_rng(5)
        alloc = {j: ResourceVector(rng.integers(0, 10, size=3)) for j in inst.jobs}
        m = ci.alloc_matrix(alloc)
        packed = ci.pack_demands(m)
        field = (1 << ci.bits) - 1
        for i in range(ci.n):
            fields = [
                (int(packed[i]) >> (ci.bits * r)) & field for r in range(ci.d)
            ]
            assert fields == list(m[i])

    def test_swar_test_equals_vector_dominance(self):
        dag = layered_random(2, 3, p=0.5, seed=2)
        inst = build(dag, d=4, capacity=24)
        ci = compile_instance(inst)
        rng = np.random.default_rng(11)
        H = ci.fit_mask
        for _ in range(200):
            a = rng.integers(0, 25, size=4)
            av = rng.integers(0, 25, size=4)
            pa = sum(int(x) << (ci.bits * r) for r, x in enumerate(a))
            pav = sum(int(x) << (ci.bits * r) for r, x in enumerate(av))
            swar = ((pav + H) - pa) & H == H
            assert swar == bool((a <= av).all())

    def test_pack_requires_packable(self):
        dag = layered_random(2, 3, p=0.5, seed=3)
        inst = build(dag, d=13, capacity=8)
        ci = compile_instance(inst)
        with pytest.raises(ValueError):
            ci.pack_demands(np.zeros((ci.n, 13), dtype=np.int64))
