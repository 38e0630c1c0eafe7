"""Identity of the precedence DAG across its storage change.

Two oracles hold ``DAG(nodes, edges)`` to the dict-based container it
replaced:

* a hypothesis property over random edge lists against the frozen class
  (``helpers.ReferenceDAG``): node order, edge order, per-node adjacency
  order, sources, sinks, edge count and the topological order are equal,
  and self-loops and cycles are refused at construction;
* digests of ``(nodes, edges, predecessors, order)`` recorded before the
  change, for every graph a generator, workflow, materializer or loader
  builds.  The topological order keys every FIFO tie-break, so a moved
  digest moves schedules.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import ReferenceDAG, tiny_instance
from repro.dag import generators, workflows
from repro.dag.graph import _CHUNK, DAG
from repro.dag.sp import random_sp_tree, sp_to_dag, tree_to_sp
from repro.experiments.lb_instance import lower_bound_instance
from repro.experiments.workloads import perturbed_instance, random_instance, workflow_instance
from repro.instance.serialize import instance_from_json, instance_to_json
from repro.jobs.candidates import geometric_grid
from repro.malleable.model import moldable_to_malleable
from repro.resources.pool import ResourcePool


def _digest(dag) -> str:
    nodes = dag.nodes()
    shape = (
        nodes,
        list(dag.edges()),
        [list(dag.predecessors(v)) for v in nodes],
        dag.topological_order(),
    )
    return hashlib.sha256(repr(shape).encode()).hexdigest()[:16]


def _roundtrip():
    pool = ResourcePool.uniform(2, 8)
    inst = workflow_instance("montage", pool)
    return instance_from_json(instance_to_json(inst, geometric_grid)).dag


def _malleable_digest():
    inst = tiny_instance(seed=3, d=2, capacity=4)
    mall = moldable_to_malleable(inst)
    parts = [_digest(mall.dag)] + [_digest(job.tasks) for job in mall.jobs.values()]
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _session_dag():
    from repro.conformance.fuzz import service_specs
    from repro.service.session import SchedulingSession

    inst = random_instance("layered", 15, ResourcePool.uniform(2, 6), seed=4).instance
    alloc = {j: inst.jobs[j].candidates[0] if inst.jobs[j].candidates else
             next(iter(inst.candidate_table()[j])).alloc for j in inst.jobs}
    session = SchedulingSession(inst.pool.capacities)
    session.submit(service_specs(inst, alloc))
    session.drain()
    return session.to_schedule().instance.dag


BUILDS = {
    "independent": lambda: generators.independent(7),
    "chain": lambda: generators.chain(9),
    "fork_join": lambda: generators.fork_join(4, 3),
    "layered_random": lambda: generators.layered_random(5, 6, p=0.3, seed=1),
    "layered_connect": lambda: generators.layered_random(4, 5, p=0.0, seed=2),
    "layered_loose": lambda: generators.layered_random(
        3, 4, p=0.1, seed=3, connect_all=False
    ),
    "erdos_renyi": lambda: generators.erdos_renyi_dag(30, 0.2, seed=4),
    "out_tree": lambda: generators.random_out_tree(25, seed=5),
    "in_tree": lambda: generators.random_in_tree(25, seed=6),
    "cholesky_1": lambda: generators.cholesky_dag(1),
    "cholesky_5": lambda: generators.cholesky_dag(5),
    "lu_1": lambda: generators.lu_dag(1),
    "lu_4": lambda: generators.lu_dag(4),
    "stencil": lambda: generators.stencil_dag(5, 4),
    "montage": lambda: workflows.montage_dag(5),
    "cybershake": lambda: workflows.cybershake_dag(6),
    "epigenomics": lambda: workflows.epigenomics_dag(2, 3),
    "ligo": lambda: workflows.ligo_dag(7, 3),
    "sp_random": lambda: sp_to_dag(random_sp_tree(30, seed=7)),
    "sp_out_tree": lambda: sp_to_dag(tree_to_sp(generators.random_out_tree(20, seed=8))),
    "sp_in_tree": lambda: sp_to_dag(tree_to_sp(generators.random_in_tree(20, seed=9))),
    "lb_instance": lambda: lower_bound_instance(3, 3).dag,
    "serialize": _roundtrip,
    "perturbed": lambda: perturbed_instance(
        random_instance("sp", 12, ResourcePool.uniform(2, 8), seed=5).instance, 0.1, seed=1
    ).dag,
    "session": _session_dag,
}

#: recorded on the dict-of-lists ``DAG`` the CSR one replaced
DIGESTS = {
    "chain": "5c879856eefb24f0",
    "cholesky_1": "2527aa65b195c9d5",
    "cholesky_5": "7f5d5903c806c900",
    "cybershake": "73d4625001c542fe",
    "epigenomics": "54d07b22084992ed",
    "erdos_renyi": "5d01065dbf50a93f",
    "fork_join": "44560f1823f0dea2",
    "in_tree": "6895637c5ea39af0",
    "independent": "c943c629a54ca381",
    "layered_connect": "78d45c1f71b9acdd",
    "layered_loose": "dc450a5acb4cf5dc",
    "layered_random": "cffcbb311ce5538f",
    "lb_instance": "64028a9e6ff79bf9",
    "ligo": "aa9251133a89c54e",
    "lu_1": "06802368ed80c748",
    "lu_4": "ca034d4425a3150b",
    "montage": "876c04033b803cce",
    "out_tree": "42a4b44838bb1db9",
    "perturbed": "dd09f32932ca9eb5",
    "serialize": "5bfc51f9616b85a8",
    "session": "3d44796ad0221349",
    "sp_in_tree": "ae07c5acaf9fac31",
    "sp_out_tree": "5e13bfc7d71ac48c",
    "sp_random": "1b23d214708d14ef",
    "stencil": "6d6ffb7084eb05da",
    "malleable": "2ebde94e0ab811b0",
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_builder_reproduces_the_recorded_graph(name):
    assert _digest(BUILDS[name]()) == DIGESTS[name]


def test_malleable_relaxation_reproduces_the_recorded_graphs():
    assert _malleable_digest() == DIGESTS["malleable"]


# ----------------------------------------------------------------------
# the frozen dict-based container as the oracle
# ----------------------------------------------------------------------
UNIVERSE = [0, 1, 2, 3, 4, 5, "a", "b", "c", ("t", 0), ("t", 1), (2, "x")]
ids = st.sampled_from(UNIVERSE)


@st.composite
def graphs(draw):
    nodes = draw(st.lists(ids, max_size=8))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=30))
    if draw(st.booleans()):
        # orient every edge along UNIVERSE: acyclic unless a self-loop
        rank = UNIVERSE.index
        pairs = [(u, v) if rank(u) <= rank(v) else (v, u) for u, v in pairs]
        if draw(st.booleans()):
            pairs = [(u, v) for u, v in pairs if u != v]
    return nodes, pairs


def _reference_or_error(nodes, edges):
    try:
        ref = ReferenceDAG(nodes, edges)
        order = ref.topological_order()
    except ValueError:
        return None, None
    return ref, order


@given(graphs())
@settings(max_examples=300)
def test_the_csr_dag_equals_the_dict_dag(graph):
    nodes, edges = graph
    ref, order = _reference_or_error(nodes, edges)
    if ref is None:
        with pytest.raises(ValueError):
            DAG(nodes, iter(edges))
        return
    dag = DAG(nodes, iter(edges))  # a one-shot iterator, as the ruler passes
    _assert_same_graph(dag, ref, order, edges)


def _assert_same_graph(dag, ref, order, edges):
    assert dag.nodes() == ref.nodes()
    assert list(dag.edges()) == ref.edges()
    assert dag.num_edges == ref.num_edges
    assert dag.sources() == ref.sources()
    assert dag.sinks() == ref.sinks()
    assert dag.topological_order() == order
    assert len(dag) == len(ref.nodes())
    for v in ref.nodes():
        assert list(dag.successors(v)) == ref.successors(v)
        assert list(dag.predecessors(v)) == ref.predecessors(v)
        assert dag.in_degree(v) == len(ref.predecessors(v))
        assert dag.out_degree(v) == len(ref.successors(v))
    for u, v in edges:
        assert dag.has_edge(u, v) and not dag.has_edge(v, u)


# ----------------------------------------------------------------------
# construction past one chunk of edges (the property draws at most 30)
# ----------------------------------------------------------------------
def _chunked_edges():
    """``3.5 × _CHUNK`` acyclic edges over ints, strings and tuples, with
    repeats on both sides of the first two chunk boundaries."""
    rng = np.random.default_rng(50)
    universe = [*range(300), *(f"s{i}" for i in range(300)), *((i, "t") for i in range(300))]
    a, b = rng.integers(len(universe), size=(2, 7 * _CHUNK // 2))
    edges = [(universe[min(i, j)], universe[max(i, j)]) for i, j in zip(a.tolist(), b.tolist())
             if i != j]
    for k in (_CHUNK, 2 * _CHUNK):
        edges[k:k] = [edges[k - 1], edges[k - 2]]  # right after the boundary
        edges[k - 3:k - 3] = [edges[k + 5]]  # ahead of its first occurrence's chunk
    assert len(edges) > 3 * _CHUNK
    return universe[::7], edges


def test_a_graph_of_several_chunks_equals_the_dict_dag():
    nodes, edges = _chunked_edges()
    ref = ReferenceDAG(nodes, edges)
    assert ref.num_edges < len(edges)
    order = ref.topological_order()
    _assert_same_graph(DAG(nodes, edges), ref, order, edges)
    _assert_same_graph(DAG(nodes, (e for e in edges)), ref, order, edges)  # one-shot


@pytest.mark.parametrize("bad", [(7,), (7, 8, 9)])
def test_a_malformed_pair_in_a_later_chunk_is_refused(bad):
    _, edges = _chunked_edges()
    edges.insert(2 * _CHUNK + 7, bad)
    with pytest.raises(ValueError, match=r"every edge must be a \(u, v\) pair"):
        DAG((), iter(edges))


@pytest.mark.parametrize("edges", [(), [], iter(()), (e for e in ())])
def test_no_edges_leave_the_given_nodes(edges):
    dag = DAG(["b", 0, ("t", 1)], edges)
    assert dag.nodes() == dag.topological_order()[::-1] == ["b", 0, ("t", 1)]
    assert dag.num_edges == 0 and list(dag.edges()) == []


@given(graphs())
@example(([], []))  # the empty DAG
@example((["a", ("t", 0), 3], [("a", 3), (("t", 0), 3), ("a", 3)]))  # repeated edge
@example(([5, "c", (2, "x")], []))  # isolated nodes only
@settings(max_examples=200)
def test_edge_positions_are_the_edges_over_positions(graph):
    nodes, edges = graph
    ref, _ = _reference_or_error(nodes, edges)
    assume(ref is not None)
    dag = DAG(nodes, edges)
    tails, heads = dag.edge_positions()
    assert tails.dtype == heads.dtype == np.int64
    got = list(zip(tails.tolist(), heads.tolist()))
    assert got == [(dag.index[u], dag.index[v]) for u, v in dag.edges()]
    assert got == [(dag.index[u], dag.index[v]) for u, v in ref.edges()]


def test_self_loops_and_cycles_are_refused_at_construction():
    with pytest.raises(ValueError, match="self-loop on 'x'"):
        DAG(edges=[("a", "b"), ("x", "x")])
    with pytest.raises(ValueError, match="cycle"):
        DAG(edges=[(0, 1), (1, 2), (2, 0)])
    with pytest.raises(TypeError):
        DAG(edges=[([0], 1)])  # an unhashable id
