"""Tests for the DAG container, cross-checked against networkx."""

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from helpers import nx_graph
from repro.dag.graph import DAG


def diamond() -> DAG:
    return DAG(nodes=range(4), edges=[(0, 1), (0, 2), (1, 3), (2, 3)])


class TestConstruction:
    def test_empty(self):
        g = DAG()
        assert len(g) == 0
        assert g.topological_order() == []

    def test_add_node_idempotent(self):
        g = DAG()
        g.add_node("a")
        g.add_node("a")
        assert len(g) == 1

    def test_add_edge_idempotent(self):
        g = DAG()
        g.add_edge(0, 1)
        g.add_edge(0, 1)
        assert g.num_edges == 1
        assert list(g.successors(0)) == [1]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            DAG().add_edge("x", "x")

    def test_auto_node_creation(self):
        g = DAG(edges=[(0, 1)])
        assert 0 in g and 1 in g

    def test_copy_independent(self):
        g = diamond()
        h = g.copy()
        h.add_edge(3, 4)
        assert 4 not in g
        assert 4 in h


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
        g = DAG(edges=[(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError):
            g.validate()

    @given(st.integers(min_value=1, max_value=40), st.randoms(use_true_random=False))
    def test_random_dag_matches_networkx(self, n, rnd):
        g = DAG(nodes=range(n))
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if rnd.random() < 0.2:
                    g.add_edge(i, j)
                    nxg.add_edge(i, j)
        assert nx.is_directed_acyclic_graph(nxg)
        order = g.topological_order()
        assert sorted(order) == list(range(n))
        pos = {v: i for i, v in enumerate(order)}
        for u, v in nxg.edges():
            assert pos[u] < pos[v]
        assert g.num_edges == nxg.number_of_edges()
        assert set(g.sources()) == {v for v in nxg if nxg.in_degree(v) == 0}
