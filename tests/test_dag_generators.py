"""Tests for the workload graph generators."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from helpers import nx_graph
from repro.dag import generators


def assert_acyclic(dag):
    assert nx.is_directed_acyclic_graph(nx_graph(dag))


class TestBasicShapes:
    def test_independent(self):
        g = generators.independent(7)
        assert len(g) == 7
        assert g.num_edges == 0

    def test_chain(self):
        g = generators.chain(5)
        assert len(g) == 5
        assert g.num_edges == 4
        assert g.sources() == [0]
        assert g.sinks() == [4]

    def test_fork_join_counts(self):
        g = generators.fork_join(width=4, stages=3)
        # per stage: fork + 4 work + join = 6 nodes
        assert len(g) == 18
        # per stage: 8 fork/join edges, plus 2 inter-stage links
        assert g.num_edges == 3 * 8 + 2
        assert g.sources() == [("fork", 0)]
        assert g.sinks() == [("join", 2)]

    def test_fork_join_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generators.fork_join(0)

    def test_layered_shape(self):
        g = generators.layered_random(4, 5, p=0.5, seed=0)
        assert len(g) == 20
        assert_acyclic(g)
        # connect_all guarantees every non-top job has a predecessor
        for l in range(1, 4):
            for i in range(5):
                assert g.in_degree((l, i)) >= 1

    def test_layered_disconnected_allowed(self):
        g = generators.layered_random(3, 3, p=0.0, seed=1, connect_all=False)
        assert g.num_edges == 0

    def test_erdos_renyi_extremes(self):
        assert generators.erdos_renyi_dag(10, 0.0, seed=0).num_edges == 0
        assert generators.erdos_renyi_dag(10, 1.0, seed=0).num_edges == 45

    def test_trees(self):
        out_t = generators.random_out_tree(30, seed=2)
        assert out_t.num_edges == 29
        assert all(out_t.in_degree(i) <= 1 for i in range(30))
        in_t = generators.random_in_tree(30, seed=2)
        assert all(in_t.out_degree(i) <= 1 for i in range(30))
        assert_acyclic(out_t)
        assert_acyclic(in_t)



class TestLinearAlgebraGraphs:
    @pytest.mark.parametrize("b", [1, 2, 3, 5])
    def test_cholesky_task_count(self, b):
        g = generators.cholesky_dag(b)
        expected = b + 2 * (b * (b - 1) // 2) + b * (b - 1) * (b - 2) // 6
        assert len(g) == expected
        assert_acyclic(g)
        assert g.sources() == [("potrf", 0)]

    @pytest.mark.parametrize("b", [1, 2, 4])
    def test_lu_task_count(self, b):
        g = generators.lu_dag(b)
        expected = b + 2 * (b * (b - 1) // 2) + sum((b - 1 - k) ** 2 for k in range(b))
        assert len(g) == expected
        assert_acyclic(g)

    def test_cholesky_dependency_sanity(self):
        g = nx_graph(generators.cholesky_dag(3))
        # potrf(1) must transitively depend on potrf(0)
        assert ("potrf", 0) in nx.ancestors(g, ("potrf", 1))
        # final potrf depends on everything at earlier steps on its panel
        assert ("syrk", 1, 2) in nx.ancestors(g, ("potrf", 2))


class TestIterativeGraphs:
    def test_stencil(self):
        g = generators.stencil_dag(width=4, steps=3)
        assert len(g) == 12
        assert g.in_degree((0, 0)) == 0
        assert g.in_degree((1, 0)) == 2  # border: left neighbor clamped
        assert g.in_degree((1, 1)) == 3
        assert_acyclic(g)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generators.stencil_dag(0, 1)


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20)
    def test_seeded_generators_reproducible(self, seed):
        for gen in (
            lambda s: generators.erdos_renyi_dag(12, 0.3, seed=s),
            lambda s: generators.random_out_tree(12, seed=s),
            lambda s: generators.layered_random(3, 4, 0.4, seed=s),
        ):
            a, b = gen(seed), gen(seed)
            assert sorted(map(str, a.edges())) == sorted(map(str, b.edges()))
