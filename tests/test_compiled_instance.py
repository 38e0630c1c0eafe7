"""Unit tests for the array-native lowering (:mod:`repro.instance.compiled`).

The dispatch engine trusts this layer completely — release vectors, the
allocation matrix, rank stability and the packed-demand SWAR encoding are
each pinned here against the dict-based structures they lower (the DAG's
own CSR layout is pinned in ``test_dag_graph.py``).
"""

import numpy as np
import pytest

from repro.dag.generators import erdos_renyi_dag, layered_random
from repro.instance.compiled import compile_instance
from repro.instance.instance import make_instance, with_release_times
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


def build(dag, d=2, capacity=8):
    pool = ResourcePool.uniform(d, capacity)
    return make_instance(dag, pool, lambda j: (lambda a: 1.0 + sum(a)))


@pytest.fixture(params=[0, 1, 2])
def dag(request):
    return erdos_renyi_dag(20, 0.25, seed=request.param)


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

    def test_lowering_is_cached_and_reads_the_dag_in_place(self, dag):
        inst = build(dag)
        ci = compile_instance(inst)
        assert compile_instance(inst) is ci
        assert ci.dag is inst.dag is dag
        assert ci.order is dag.order and ci.index is dag.index and ci.n == len(dag)

    def test_alloc_matrix(self, dag):
        inst = build(dag, d=2)
        alloc = {j: ResourceVector((1 + i % 3, 2)) for i, j in enumerate(inst.jobs)}
        ci = compile_instance(inst)
        m = ci.alloc_matrix(alloc)
        for i, j in enumerate(ci.order):
            assert tuple(m[i]) == tuple(alloc[j])


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
