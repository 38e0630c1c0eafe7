"""The precedence DAG of Section 3.1, built once into its topological order
and CSR adjacency.

Nodes are arbitrary hashable job identifiers.  ``DAG(nodes, edges)`` is
immutable: the constructor numbers the ids, drops repeated edges, refuses a
self-loop or a cycle, runs the one Kahn pass and lays the graph out as the
arrays the schedulers read — the topological order, an id → position
index, and successor and predecessor CSR over topological positions.  The
id-level queries (``successors``, ``predecessors``, ``edges``, ...) are
views of those arrays, in the order the edges were given;
``edge_positions`` is ``edges`` over positions, for array consumers.

Everything structural the engine and the sweeps need beyond that — the
longest-path levels, the per-level successor gathers, python-int
successor lists — is derived lazily and kept: an immutable graph never
invalidates anything.

We deliberately do not depend on :mod:`networkx` here (it is used only in
tests as an independent oracle).
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Iterable, Iterator

import numpy as np

__all__ = ["DAG"]

JobId = Hashable


class DAG:
    """Directed acyclic graph of job precedence constraints.

    An edge ``u -> v`` means job ``v`` cannot start before job ``u``
    completes (Section 3.1).

    Attributes
    ----------
    n:
        Number of nodes.
    order:
        The job ids in topological order: Kahn's algorithm with a LIFO
        frontier seeded with the sources in node order.  Every tie-break
        downstream keys on positions in this order.
    index:
        Mapping job id → position in ``order``.
    succ_indptr / succ_indices:
        CSR successor adjacency over positions: the successors of position
        ``i`` are ``succ_indices[succ_indptr[i]:succ_indptr[i+1]]``, in the
        order their edges were given.
    pred_indptr / pred_indices:
        The predecessor CSR, laid out the same way.
    in_degrees / out_degrees:
        Per-position degree vectors (int64).
    num_edges:
        Number of distinct edges.
    """

    __slots__ = (
        "n", "order", "index", "num_edges",
        "succ_indptr", "succ_indices", "pred_indptr", "pred_indices",
        "in_degrees", "out_degrees",
        "_nodes", "_pos",
        "_levels", "_level_groups", "_succ_lists", "_pred_lists", "_succ_gathers",
    )

    def __init__(
        self, nodes: Iterable[JobId] = (), edges: Iterable[tuple[JobId, JobId]] = ()
    ) -> None:
        pairs = list(edges)
        if not {2}.issuperset(map(len, pairs)):
            raise ValueError("every edge must be a (u, v) pair")
        flat = list(chain.from_iterable(pairs))
        # rows in first-appearance order: the given nodes, then unseen
        # endpoints edge by edge, u before v
        ids = list(dict.fromkeys(chain(nodes, flat)))
        n = len(ids)
        row = dict(zip(ids, range(n)))
        codes = np.fromiter(map(row.__getitem__, flat), np.int64, len(flat))
        src, dst = codes[0::2], codes[1::2]
        loops = np.flatnonzero(src == dst)
        if loops.size:
            u = ids[int(src[loops[0]])]
            raise ValueError(f"self-loop on {u!r} is not a valid precedence")
        # a repeated edge keeps its first occurrence
        _, first = np.unique(src * n + dst, return_index=True)
        if first.size < src.size:
            first.sort()
            src, dst = src[first], dst[first]

        # Kahn over python ints, LIFO frontier seeded in row order
        ptr, nxt = _csr(src, dst, n)
        ptr, nxt = ptr.tolist(), nxt.tolist()
        remaining = np.bincount(dst, minlength=n).tolist()
        frontier = [r for r, k in enumerate(remaining) if not k]
        pop, push = frontier.pop, frontier.append
        topo: list[int] = []
        visit = topo.append
        while frontier:
            r = pop()
            visit(r)
            for s in nxt[ptr[r]:ptr[r + 1]]:
                remaining[s] -= 1
                if not remaining[s]:
                    push(s)
        if len(topo) != n:
            raise ValueError("precedence graph contains a cycle")

        pos = np.empty(n, dtype=np.int64)
        pos[topo] = np.arange(n, dtype=np.int64)
        order = list(map(ids.__getitem__, topo))
        self.n = n
        self.order = order
        self.index = dict(zip(order, range(n)))
        self.num_edges = int(src.size)
        src, dst = pos[src], pos[dst]
        self.succ_indptr, self.succ_indices = _csr(src, dst, n)
        self.pred_indptr, self.pred_indices = _csr(dst, src, n)
        self.out_degrees = np.diff(self.succ_indptr)
        self.in_degrees = np.diff(self.pred_indptr)
        self._nodes = ids
        self._pos = pos
        self._levels: np.ndarray | None = None
        self._level_groups: list[np.ndarray] | None = None
        self._succ_lists: list[list[int]] | None = None
        self._pred_lists: list[list[int]] | None = None
        self._succ_gathers: list[tuple] | None = None

    # ------------------------------------------------------------------
    # queries over job ids
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __contains__(self, node: JobId) -> bool:
        return node in self.index

    def nodes(self) -> list[JobId]:
        """The job ids in first-appearance order."""
        return list(self._nodes)

    def edges(self) -> Iterator[tuple[JobId, JobId]]:
        """Every edge, grouped by source in node order, each group in the
        order its edges were given: :meth:`edge_positions` as job ids."""
        at = self.order.__getitem__
        tails, heads = self.edge_positions()
        return zip(map(at, tails.tolist()), map(at, heads.tolist()))

    def edge_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge as ``(tails, heads)``, positions in ``order`` (int64),
        in :meth:`edges` order — the successor CSR read row by row in node
        order rather than in topological order."""
        heads, _, _ = _ragged_gather(self.succ_indptr, self.succ_indices, self._pos)
        return np.repeat(self._pos, self.out_degrees[self._pos]), heads

    def successors(self, node: JobId) -> list[JobId]:
        """Immediate successors of ``node``."""
        return list(map(self.order.__getitem__, self.succ_lists()[self.index[node]]))

    def predecessors(self, node: JobId) -> list[JobId]:
        """Immediate predecessors of ``node``."""
        if self._pred_lists is None:
            self._pred_lists = _split(self.pred_indptr, self.pred_indices)
        return list(map(self.order.__getitem__, self._pred_lists[self.index[node]]))

    def in_degree(self, node: JobId) -> int:
        return int(self.in_degrees[self.index[node]])

    def out_degree(self, node: JobId) -> int:
        return int(self.out_degrees[self.index[node]])

    def sources(self) -> list[JobId]:
        """Jobs with no predecessor — initially ready (Algorithm 2)."""
        return self._select(self.in_degrees)

    def sinks(self) -> list[JobId]:
        """Jobs with no successor."""
        return self._select(self.out_degrees)

    def _select(self, degrees: np.ndarray) -> list[JobId]:
        rows = np.flatnonzero(degrees[self._pos] == 0).tolist()
        return list(map(self._nodes.__getitem__, rows))

    def has_edge(self, u: JobId, v: JobId) -> bool:
        i, j = self.index.get(u), self.index.get(v)
        return i is not None and j is not None and j in self.succ_lists()[i]

    def is_independent(self) -> bool:
        """True when there are no precedence constraints at all."""
        return not self.num_edges

    def topological_order(self) -> list[JobId]:
        """The topological order (``order``), as a fresh list."""
        return list(self.order)

    # ------------------------------------------------------------------
    # derived structure over positions (lazy, kept)
    # ------------------------------------------------------------------
    def succ_lists(self) -> list[list[int]]:
        """Successor adjacency as plain python int lists, one per position.

        The event loops decrement a handful of successor in-degrees per
        completion; for the typical fan-outs (tens of edges) a python loop
        over ints beats the fixed dispatch cost of a numpy CSR slice.
        """
        if self._succ_lists is None:
            self._succ_lists = _split(self.succ_indptr, self.succ_indices)
        return self._succ_lists

    @property
    def levels(self) -> np.ndarray:
        """Longest-path level of every position (0 for sources).

        Computed by synchronous Kahn peeling: the round in which a node's
        in-degree reaches zero *is* its longest-path level.
        """
        if self._levels is None:
            level = np.zeros(self.n, dtype=np.int64)
            cnt = self.in_degrees.copy()
            frontier = np.flatnonzero(cnt == 0)
            l = 0
            while frontier.size:
                level[frontier] = l
                targets, _, _ = _ragged_gather(self.succ_indptr, self.succ_indices, frontier)
                np.subtract.at(cnt, targets, 1)
                frontier = np.unique(targets[cnt[targets] == 0])
                l += 1
            self._levels = level
        return self._levels

    def level_groups(self) -> list[np.ndarray]:
        """Positions grouped by level, ``groups[l]`` sorted ascending."""
        if self._level_groups is None:
            lv = self.levels
            if self.n == 0:
                self._level_groups = []
            else:
                srt = np.argsort(lv, kind="stable")
                bounds = np.searchsorted(lv[srt], np.arange(int(lv.max()) + 2))
                self._level_groups = [
                    srt[bounds[l]:bounds[l + 1]] for l in range(len(bounds) - 1)
                ]
        return self._level_groups

    def level_succ_gathers(self) -> list[tuple]:
        """Per-level ``(targets, seg_starts, sources)`` successor gathers.

        ``sources`` are the level's positions with at least one successor
        and ``targets``/``seg_starts`` their concatenated adjacency ready
        for ``np.ufunc.reduceat`` — the structure-constant part of every
        level-batched sweep (:mod:`repro.dag.paths`).
        """
        if self._succ_gathers is None:
            gathers = []
            for nodes in self.level_groups():
                targets, seg_starts, nz = _ragged_gather(
                    self.succ_indptr, self.succ_indices, nodes
                )
                gathers.append((targets, seg_starts, nodes[nz]))
            self._succ_gathers = gathers
        return self._succ_gathers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DAG(n={self.n}, m={self.num_edges})"


def _csr(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the edges ``src -> dst`` grouped by ``src``;
    the sort is stable, so each group keeps the edges' given order."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


def _split(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """A CSR as one python int list per row."""
    ptr, flat = indptr.tolist(), indices.tolist()
    return [flat[ptr[i]:ptr[i + 1]] for i in range(len(ptr) - 1)]


def _ragged_gather(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated adjacency of ``nodes``.

    Returns ``(targets, seg_starts, nz)`` where ``nz`` masks the nodes with
    at least one neighbor, ``targets`` is their concatenated neighbor list
    and ``seg_starts`` the start offset of each nonempty segment inside it
    (ready for ``np.ufunc.reduceat``).
    """
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    nz = lens > 0
    ln = lens[nz]
    if ln.size == 0:
        return np.empty(0, dtype=indices.dtype), np.empty(0, dtype=np.int64), nz
    seg_ends = np.cumsum(ln)
    seg_starts = seg_ends - ln
    total = int(seg_ends[-1])
    rep = np.repeat(np.arange(ln.size), ln)
    pos = np.arange(total) - seg_starts[rep]
    targets = indices[starts[nz][rep] + pos]
    return targets, seg_starts, nz
