"""A minimal, validated directed-acyclic-graph container for job precedence.

Nodes are arbitrary hashable job identifiers.  The class stores forward and
backward adjacency, guarantees acyclicity on demand, and exposes the
traversal primitives the schedulers need: topological order, ready-set
seeding (sources), and immediate predecessor/successor queries.

We deliberately do not depend on :mod:`networkx` here — the scheduler's hot
path iterates these structures heavily and plain dict/list adjacency is both
faster and dependency-free.  (:mod:`networkx` is used only in tests as an
independent oracle.)
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

__all__ = ["DAG"]

JobId = Hashable


class DAG:
    """Directed acyclic graph of job precedence constraints.

    An edge ``u -> v`` means job ``v`` cannot start before job ``u``
    completes (Section 3.1).
    """

    def __init__(self, nodes: Iterable[JobId] = (), edges: Iterable[tuple[JobId, JobId]] = ()):
        self._succ: dict[JobId, list[JobId]] = {}
        self._pred: dict[JobId, list[JobId]] = {}
        self._edge_set: set[tuple[JobId, JobId]] = set()
        # lazily filled structural caches, dropped on any mutation:
        # the Kahn order and the array-native lowering (repro.instance.compiled)
        self._topo_cache: list[JobId] | None = None
        self._compiled = None
        for n in nodes:
            self.add_node(n)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _invalidate_caches(self) -> None:
        self._topo_cache = None
        self._compiled = None

    def add_node(self, node: JobId) -> None:
        """Insert ``node`` (idempotent)."""
        if node not in self._succ:
            self._succ[node] = []
            self._pred[node] = []
            self._invalidate_caches()

    def add_edge(self, u: JobId, v: JobId) -> None:
        """Insert precedence ``u -> v`` (idempotent); nodes are auto-created."""
        if u == v:
            raise ValueError(f"self-loop on {u!r} is not a valid precedence")
        self.add_node(u)
        self.add_node(v)
        if (u, v) not in self._edge_set:
            self._edge_set.add((u, v))
            self._succ[u].append(v)
            self._pred[v].append(u)
            self._invalidate_caches()

    def copy(self) -> "DAG":
        return DAG(self.nodes(), self.edges())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, node: JobId) -> bool:
        return node in self._succ

    def nodes(self) -> list[JobId]:
        return list(self._succ)

    def edges(self) -> Iterator[tuple[JobId, JobId]]:
        for u, vs in self._succ.items():
            for v in vs:
                yield (u, v)

    @property
    def num_edges(self) -> int:
        return len(self._edge_set)

    def successors(self, node: JobId) -> Sequence[JobId]:
        """Immediate successors of ``node``."""
        return self._succ[node]

    def predecessors(self, node: JobId) -> Sequence[JobId]:
        """Immediate predecessors of ``node``."""
        return self._pred[node]

    def in_degree(self, node: JobId) -> int:
        return len(self._pred[node])

    def out_degree(self, node: JobId) -> int:
        return len(self._succ[node])

    def sources(self) -> list[JobId]:
        """Jobs with no predecessor — initially ready (Algorithm 2)."""
        return [n for n in self._succ if not self._pred[n]]

    def sinks(self) -> list[JobId]:
        """Jobs with no successor."""
        return [n for n in self._succ if not self._succ[n]]

    def has_edge(self, u: JobId, v: JobId) -> bool:
        return (u, v) in self._edge_set

    def is_independent(self) -> bool:
        """True when there are no precedence constraints at all."""
        return not self._edge_set

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def topological_order(self) -> list[JobId]:
        """Kahn topological order; raises ``ValueError`` if a cycle exists.

        The order is cached until the graph mutates (schedulers ask for it
        repeatedly — priority rules, tie-breaking, the compiled lowering);
        callers receive a fresh list they may mutate freely.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        indeg = {n: len(ps) for n, ps in self._pred.items()}
        frontier = [n for n, k in indeg.items() if k == 0]
        order: list[JobId] = []
        while frontier:
            n = frontier.pop()
            order.append(n)
            for s in self._succ[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    frontier.append(s)
        if len(order) != len(self._succ):
            raise ValueError("precedence graph contains a cycle")
        self._topo_cache = order
        return list(order)

    def validate(self) -> None:
        """Raise ``ValueError`` on cycles (acyclicity check)."""
        self.topological_order()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DAG(n={len(self)}, m={self.num_edges})"
