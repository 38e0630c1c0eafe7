"""Tests for series-parallel structures: composition semantics, tree
conversion, random generation."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from helpers import nx_graph
from repro.dag import generators
from repro.dag.graph import DAG
from repro.dag.paths import critical_path_length
from repro.dag.sp import (
    SPLeaf,
    SPParallel,
    SPSeries,
    parallel,
    random_sp_tree,
    series,
    sp_to_dag,
    tree_to_sp,
)


class TestComposition:
    def test_leaf(self):
        dag = sp_to_dag(SPLeaf("a"))
        assert dag.nodes() == ["a"]
        assert dag.num_edges == 0

    def test_series_semantics(self):
        dag = sp_to_dag(SPSeries(SPLeaf("a"), SPLeaf("b")))
        assert dag.has_edge("a", "b")

    def test_parallel_semantics(self):
        dag = sp_to_dag(SPParallel(SPLeaf("a"), SPLeaf("b")))
        assert dag.num_edges == 0

    def test_series_of_parallels(self):
        # (a || b) ; (c || d): both sinks of the left precede both sources of right
        tree = SPSeries(SPParallel(SPLeaf("a"), SPLeaf("b")),
                        SPParallel(SPLeaf("c"), SPLeaf("d")))
        dag = sp_to_dag(tree)
        for u in ("a", "b"):
            for v in ("c", "d"):
                assert dag.has_edge(u, v)
        assert dag.num_edges == 4

    def test_duplicate_job_rejected(self):
        with pytest.raises(ValueError):
            sp_to_dag(SPSeries(SPLeaf("a"), SPLeaf("a")))

    def test_series_parallel_folds(self):
        t = series(SPLeaf("a"), SPLeaf("b"), SPLeaf("c"))
        dag = sp_to_dag(t)
        assert dag.has_edge("a", "b") and dag.has_edge("b", "c")
        t2 = parallel(SPLeaf("x"), SPLeaf("y"), SPLeaf("z"))
        assert sp_to_dag(t2).num_edges == 0
        with pytest.raises(ValueError):
            series()

    def test_critical_path_algebra(self):
        # C(series) = sum, C(parallel) = max, with unit times
        tree = SPSeries(SPParallel(series(SPLeaf(1), SPLeaf(2)), SPLeaf(3)), SPLeaf(4))
        dag = sp_to_dag(tree)
        times = {j: 1.0 for j in dag.nodes()}
        # longest chain: 1 -> 2 -> 4
        assert critical_path_length(dag, times) == pytest.approx(3.0)


class TestTreeConversion:
    def test_out_tree(self):
        dag = DAG(edges=[("r", "a"), ("r", "b"), ("a", "c")])
        sp = tree_to_sp(dag)
        sp_dag = nx_graph(sp_to_dag(sp))
        # original tree edges must be implied
        for u, v in dag.edges():
            assert v in nx.descendants(sp_dag, u) or sp_dag.has_edge(u, v)
        # siblings must stay unordered
        assert "b" not in nx.descendants(sp_dag, "a")
        assert "a" not in nx.descendants(sp_dag, "b")

    def test_in_tree(self):
        dag = DAG(edges=[("a", "r"), ("b", "r"), ("c", "a")])
        sp = tree_to_sp(dag)
        sp_dag = nx_graph(sp_to_dag(sp))
        assert "r" in nx.descendants(sp_dag, "c")
        assert "b" not in nx.descendants(sp_dag, "a")

    def test_forest(self):
        dag = DAG(edges=[("r1", "a")])
        dag.add_node("lone")
        sp = tree_to_sp(dag)
        assert set(sp.leaves()) == {"r1", "a", "lone"}

    def test_non_tree_rejected(self):
        diamond = DAG(edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
        with pytest.raises(ValueError):
            tree_to_sp(diamond)

    def test_direction_mismatch_rejected(self):
        out_tree = DAG(edges=[("r", "a"), ("r", "b")])
        with pytest.raises(ValueError):
            tree_to_sp(out_tree, direction="in")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tree_to_sp(DAG())

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25)
    def test_random_out_tree_roundtrip(self, n, seed):
        dag = generators.random_out_tree(n, seed=seed)
        sp_dag = sp_to_dag(tree_to_sp(dag))
        assert set(sp_dag.nodes()) == set(dag.nodes())
        # SP semantics may add transitive edges but never new *orderings*
        # beyond the tree's reachability, and must preserve all of them
        sp_g, g = nx_graph(sp_dag), nx_graph(dag)
        for u in dag.nodes():
            assert nx.descendants(sp_g, u) == nx.descendants(g, u)


class TestRandomSP:
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25)
    def test_leaf_count_and_acyclic(self, n, seed):
        tree = random_sp_tree(n, seed=seed)
        leaves = list(tree.leaves())
        assert len(leaves) == n
        assert len(set(leaves)) == n
        sp_to_dag(tree).validate()

    def test_p_series_extremes(self):
        chain_tree = random_sp_tree(6, seed=0, p_series=1.0)
        dag = sp_to_dag(chain_tree)
        # all-series: a total order = chain with transitive edges; check reachability
        order, g = dag.topological_order(), nx_graph(dag)
        for i, u in enumerate(order):
            assert len(nx.descendants(g, u)) == len(order) - i - 1
        par_tree = random_sp_tree(6, seed=0, p_series=0.0)
        assert sp_to_dag(par_tree).num_edges == 0

    def test_bad_n(self):
        with pytest.raises(ValueError):
            random_sp_tree(0)
