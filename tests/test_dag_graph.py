"""Tests for the DAG container, cross-checked against networkx."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import ReferenceDAG, _layered_edges, nx_graph
from repro.dag.generators import erdos_renyi_dag
from repro.dag.graph import DAG


def diamond() -> DAG:
    return DAG(nodes=range(4), edges=[(0, 1), (0, 2), (1, 3), (2, 3)])


class TestConstruction:
    def test_empty(self):
        g = DAG()
        assert len(g) == 0
        assert g.topological_order() == []

    def test_repeated_node_kept_once(self):
        g = DAG(nodes=["a", "b", "a"], edges=[("b", "a")])
        assert len(g) == 2
        assert g.nodes() == ["a", "b"]

    def test_repeated_edge_kept_once(self):
        g = DAG(edges=[(0, 1), (0, 2), (0, 1)])
        assert g.num_edges == 2
        assert list(g.successors(0)) == [1, 2]
        assert list(g.edges()) == [(0, 1), (0, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            DAG(edges=[("x", "x")])

    def test_malformed_edge_rejected(self):
        with pytest.raises(ValueError, match="pair"):
            DAG(edges=[(0, 1, 2)])

    def test_auto_node_creation(self):
        g = DAG(nodes=[5], edges=[(0, 1)])
        assert 0 in g and 1 in g
        assert g.nodes() == [5, 0, 1]  # unseen endpoints append, u before v

    def test_immutable(self):
        """Built once: no mutators, no attribute to hang a cache on, so a
        graph can be shared by every instance built over it."""
        g = diamond()
        for name in ("add_node", "add_edge", "copy", "validate"):
            assert not hasattr(g, name)
        with pytest.raises(AttributeError):
            g.extra = 1


class TestQueries:
    def test_degrees(self):
        g = diamond()
        assert g.in_degree(0) == 0
        assert g.out_degree(0) == 2
        assert g.in_degree(3) == 2
        assert sorted(g.predecessors(3)) == [1, 2]

    def test_sources_sinks(self):
        g = diamond()
        assert g.sources() == [0]
        assert g.sinks() == [3]

    def test_has_edge(self):
        g = diamond()
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_is_independent(self):
        assert DAG(nodes=range(5)).is_independent()
        assert not diamond().is_independent()

    def test_ancestors_descendants(self):
        """Walking ``predecessors`` / ``successors`` closes to the
        reachability sets the networkx oracle computes."""

        def closure(start, step):
            seen, stack = set(), [start]
            while stack:
                for k in step(stack.pop()):
                    if k not in seen:
                        seen.add(k)
                        stack.append(k)
            return seen

        g = diamond()
        assert closure(3, g.predecessors) == {0, 1, 2}
        assert closure(0, g.successors) == {1, 2, 3}
        assert closure(0, g.predecessors) == set()
        nxg = nx_graph(g)
        for j in g.nodes():
            assert closure(j, g.predecessors) == nx.ancestors(nxg, j)
            assert closure(j, g.successors) == nx.descendants(nxg, j)


class TestTopology:
    def test_topological_order_valid(self):
        g = diamond()
        order = g.topological_order()
        pos = {n: i for i, n in enumerate(order)}
        for u, v in g.edges():
            assert pos[u] < pos[v]

    def test_cycle_detection(self):
        with pytest.raises(ValueError, match="cycle"):
            DAG(edges=[(0, 1), (1, 2), (2, 0)])

    @given(st.integers(min_value=1, max_value=40), st.randoms(use_true_random=False))
    def test_random_dag_matches_networkx(self, n, rnd):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.2]
        g = DAG(nodes=range(n), edges=edges)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        assert nx.is_directed_acyclic_graph(nxg)
        order = g.topological_order()
        assert sorted(order) == list(range(n))
        pos = {v: i for i, v in enumerate(order)}
        for u, v in nxg.edges():
            assert pos[u] < pos[v]
        assert g.num_edges == nxg.number_of_edges()
        assert set(g.sources()) == {v for v in nxg if nxg.in_degree(v) == 0}

    @given(st.integers(min_value=0, max_value=40), st.randoms(use_true_random=False))
    def test_levels_are_longest_path_depths(self, n, rnd):
        """A node's level is the number of edges on a longest path into it;
        dense draws put several in-edges of one node in one peeling round."""
        p = rnd.choice([0.05, 0.2, 0.6])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p]
        g = DAG(nodes=rnd.sample(range(n), n), edges=edges)
        nxg = nx.DiGraph(edges)
        nxg.add_nodes_from(range(n))
        depth = {}
        for v in nx.topological_sort(nxg):
            depth[v] = max((depth[u] + 1 for u in nxg.predecessors(v)), default=0)
        assert g.levels.tolist() == [depth[v] for v in g.order]

    def test_a_chain_has_one_level_a_node(self):
        g = DAG(edges=[(i, i + 1) for i in range(499)])
        assert g.levels.tolist() == list(range(500))
        assert [group.tolist() for group in g.level_groups()] == [[i] for i in range(500)]


class TestPositions:
    """The CSR layout over topological positions, against the frozen
    dict-based container."""

    @pytest.fixture(params=[0, 1, 2])
    def dag(self, request):
        return erdos_renyi_dag(20, 0.25, seed=request.param)

    def test_csr_matches_adjacency(self, dag):
        ref = ReferenceDAG(dag.nodes(), dag.edges())
        for i, j in enumerate(dag.order):
            lo, hi = dag.pred_indptr[i], dag.pred_indptr[i + 1]
            assert [dag.order[s] for s in dag.succ_lists()[i]] == ref.successors(j)
            assert [dag.order[p] for p in dag.pred_indices[lo:hi]] == ref.predecessors(j)
            assert dag.in_degrees[i] == len(ref.predecessors(j))
            assert dag.out_degrees[i] == len(ref.successors(j))
            assert dag.index[j] == i

    def test_succ_lists_mirror_csr(self, dag):
        for i in range(dag.n):
            lo, hi = dag.succ_indptr[i], dag.succ_indptr[i + 1]
            assert dag.succ_lists()[i] == dag.succ_indices[lo:hi].tolist()

    def test_order_is_the_reference_kahn_order(self, dag):
        ref = ReferenceDAG(dag.nodes(), dag.edges())
        assert dag.order == ref.topological_order()


def test_construction_transients_stay_within_a_per_edge_budget():
    """The ruler's 25 × 400 layered graph, passed as ``zip`` over two int
    lists, is built within 140 B per edge above its inputs, the graph it
    keeps included: the edges are read in chunks, and no edge-sized list
    outlives the step that needs it (an edge tuple list, two int lists and
    three stable argsorts held ≈ 220 B per edge)."""
    src, dst = map(list, zip(*_layered_edges(np.random.default_rng(0), 25, 400)))
    tracemalloc.start()
    try:
        dag = DAG(range(25 * 400), zip(src, dst))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dag.num_edges == len(src) > 70_000
    assert peak <= 140 * len(src), peak / len(src)
