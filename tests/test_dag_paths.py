"""Tests for weighted path computations (critical path, levels)."""

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from repro.core.list_scheduler import fifo_priority, list_schedule
from repro.dag.graph import DAG
from repro.dag.paths import bottom_levels, critical_path, critical_path_length
from repro.dag import generators
from repro.instance.instance import make_instance
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


def weighted_diamond():
    dag = DAG(nodes=range(4), edges=[(0, 1), (0, 2), (1, 3), (2, 3)])
    times = {0: 1.0, 1: 5.0, 2: 2.0, 3: 1.0}
    return dag, times


def top_levels(dag, times):
    """Longest weighted path ending just before each node (forward pass)."""
    tl = {}
    for j in dag.topological_order():
        tl[j] = max((tl[p] + times[p] for p in dag.predecessors(j)), default=0.0)
    return tl


class TestCriticalPath:
    def test_diamond(self):
        dag, times = weighted_diamond()
        assert critical_path_length(dag, times) == pytest.approx(7.0)
        assert critical_path(dag, times) == [0, 1, 3]

    def test_chain(self):
        dag = generators.chain(5)
        times = {i: float(i + 1) for i in range(5)}
        assert critical_path_length(dag, times) == pytest.approx(15.0)
        assert critical_path(dag, times) == [0, 1, 2, 3, 4]

    def test_independent(self):
        dag = generators.independent(4)
        times = {i: float(i) + 0.5 for i in range(4)}
        assert critical_path_length(dag, times) == pytest.approx(3.5)
        assert len(critical_path(dag, times)) == 1

    def test_empty(self):
        assert critical_path_length(DAG(), {}) == 0.0
        assert critical_path(DAG(), {}) == []

    def test_path_is_a_real_path(self):
        dag = generators.erdos_renyi_dag(30, 0.15, seed=7)
        times = {i: 1.0 + (i % 5) for i in range(30)}
        path = critical_path(dag, times)
        for u, v in zip(path, path[1:]):
            assert dag.has_edge(u, v)
        assert sum(times[j] for j in path) == pytest.approx(critical_path_length(dag, times))


class TestLevels:
    def test_bottom_levels_diamond(self):
        dag, times = weighted_diamond()
        b = bottom_levels(dag, times)
        assert b[3] == pytest.approx(1.0)
        assert b[1] == pytest.approx(6.0)
        assert b[2] == pytest.approx(3.0)
        assert b[0] == pytest.approx(7.0)

    def test_top_levels_diamond(self):
        """With capacity to spare, list scheduling starts every job at its
        top level: the longest path of predecessors before it."""
        dag, times = weighted_diamond()
        inst = make_instance(dag, ResourcePool.of(4), lambda j: (lambda a: times[j]))
        sched = list_schedule(inst, {j: ResourceVector((1,)) for j in dag.nodes()},
                              fifo_priority)
        starts = {j: p.start for j, p in sched.placements.items()}
        assert starts == pytest.approx(top_levels(dag, times))
        assert starts[0] == pytest.approx(0.0)
        assert starts[1] == pytest.approx(1.0)
        assert starts[3] == pytest.approx(6.0)

    def test_top_plus_bottom_bounded_by_cp(self):
        dag = generators.erdos_renyi_dag(25, 0.2, seed=3)
        times = {i: 1.0 for i in range(25)}
        cp = critical_path_length(dag, times)
        tl, bl = top_levels(dag, times), bottom_levels(dag, times)
        for j in range(25):
            assert tl[j] + bl[j] <= cp + 1e-9
        for j in critical_path(dag, times):  # tight along a critical path
            assert tl[j] + bl[j] == pytest.approx(cp)

    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6))
    def test_matches_networkx_longest_path(self, n, seed):
        dag = generators.erdos_renyi_dag(n, 0.25, seed=seed)
        times = {i: float((i * 7919) % 13 + 1) for i in range(n)}
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(dag.edges())
        expected = max(
            sum(times[j] for j in nx.dag_longest_path(nxg, weight=None)), 0.0
        ) if n else 0.0
        # networkx's unweighted longest path maximizes hop count, not time; use
        # node-weight transform instead for the oracle.
        expected = 0.0
        for node in nxg.nodes:
            expected = max(expected, _longest_from(nxg, node, times, {}))
        assert critical_path_length(dag, times) == pytest.approx(expected)


def _longest_from(nxg, node, times, memo):
    if node in memo:
        return memo[node]
    best = times[node] + max(
        (_longest_from(nxg, s, times, memo) for s in nxg.successors(node)), default=0.0
    )
    memo[node] = best
    return best
