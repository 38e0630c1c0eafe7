"""Series-parallel (SP) precedence structures (Section 5.1).

We model SP precedence as *series-parallel posets*, the form required by the
FPTAS of Lemma 7: a decomposition tree whose leaves are jobs and whose
internal nodes are

* ``SPSeries(left, right)`` — every job of ``left`` precedes every job of
  ``right`` (critical path adds: ``C = C_left + C_right``);
* ``SPParallel(left, right)`` — no constraints across the two sides
  (critical path maxes: ``C = max(C_left, C_right)``).

:func:`sp_to_dag` materializes the transitive reduction (sinks of the left
series operand to sources of the right).  :func:`tree_to_sp` converts rooted
in/out-trees — the paper's other special class — into SP-trees, so the same
FPTAS covers both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

import numpy as np

from repro.dag.graph import DAG
from repro.util.rng import ensure_rng

__all__ = [
    "SPNode",
    "SPLeaf",
    "SPSeries",
    "SPParallel",
    "sp_to_dag",
    "tree_to_sp",
    "random_sp_tree",
]

JobId = Hashable


class SPNode:
    """Base class of SP decomposition-tree nodes."""

    def leaves(self) -> Iterator[JobId]:
        """Yield the job ids at the leaves, left to right."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of jobs (leaves)."""
        return sum(1 for _ in self.leaves())


@dataclass(frozen=True)
class SPLeaf(SPNode):
    """A single job."""

    job: JobId

    def leaves(self) -> Iterator[JobId]:
        yield self.job


@dataclass(frozen=True)
class SPSeries(SPNode):
    """Series composition: ``left`` entirely before ``right``."""

    left: SPNode
    right: SPNode

    def leaves(self) -> Iterator[JobId]:
        yield from self.left.leaves()
        yield from self.right.leaves()


@dataclass(frozen=True)
class SPParallel(SPNode):
    """Parallel composition: no cross constraints."""

    left: SPNode
    right: SPNode

    def leaves(self) -> Iterator[JobId]:
        yield from self.left.leaves()
        yield from self.right.leaves()


def series(*parts: SPNode) -> SPNode:
    """Left fold of :class:`SPSeries` over two or more parts."""
    if not parts:
        raise ValueError("series() needs at least one operand")
    node = parts[0]
    for p in parts[1:]:
        node = SPSeries(node, p)
    return node


def parallel(*parts: SPNode) -> SPNode:
    """Left fold of :class:`SPParallel` over two or more parts."""
    if not parts:
        raise ValueError("parallel() needs at least one operand")
    node = parts[0]
    for p in parts[1:]:
        node = SPParallel(node, p)
    return node


# ----------------------------------------------------------------------
# materialization
# ----------------------------------------------------------------------
def sp_to_dag(root: SPNode) -> DAG:
    """Materialize the SP-poset as a DAG (transitive reduction of series).

    Raises ``ValueError`` on duplicate job ids.
    """
    leaves: dict[JobId, None] = {}
    edges: list[tuple[JobId, JobId]] = []

    def rec(node: SPNode) -> tuple[list[JobId], list[JobId]]:
        """Return (sources, sinks) of the sub-poset, adding edges as we go."""
        if isinstance(node, SPLeaf):
            if node.job in leaves:
                raise ValueError(f"duplicate job id {node.job!r} in SP tree")
            leaves[node.job] = None
            return [node.job], [node.job]
        if isinstance(node, SPSeries):
            lsrc, lsink = rec(node.left)
            rsrc, rsink = rec(node.right)
            edges.extend((u, v) for u in lsink for v in rsrc)
            return lsrc, rsink
        if isinstance(node, SPParallel):
            lsrc, lsink = rec(node.left)
            rsrc, rsink = rec(node.right)
            return lsrc + rsrc, lsink + rsink
        raise TypeError(f"unknown SP node {node!r}")

    rec(root)
    return DAG(leaves, edges)


# ----------------------------------------------------------------------
# trees
# ----------------------------------------------------------------------
def tree_to_sp(dag: DAG, *, direction: str = "auto") -> SPNode:
    """Convert a rooted tree/forest DAG into an equivalent SP-tree.

    ``direction`` is ``"out"`` (every node has ≤1 predecessor: out-tree,
    dependencies flow root→leaves), ``"in"`` (every node has ≤1 successor),
    or ``"auto"`` to detect.  A forest is combined with parallel composition.

    Raises ``ValueError`` when the DAG is not a tree/forest in the requested
    orientation.
    """
    if len(dag) == 0:
        raise ValueError("empty graph has no SP decomposition")
    is_out = all(dag.in_degree(n) <= 1 for n in dag.nodes())
    is_in = all(dag.out_degree(n) <= 1 for n in dag.nodes())
    if direction == "auto":
        if is_out:
            direction = "out"
        elif is_in:
            direction = "in"
        else:
            raise ValueError("graph is neither an out-tree/forest nor an in-tree/forest")
    if direction == "out" and not is_out:
        raise ValueError("graph is not an out-tree/forest")
    if direction == "in" and not is_in:
        raise ValueError("graph is not an in-tree/forest")

    def out_rec(v: JobId) -> SPNode:
        kids = list(dag.successors(v))
        if not kids:
            return SPLeaf(v)
        return SPSeries(SPLeaf(v), parallel(*[out_rec(c) for c in kids]))

    def in_rec(v: JobId) -> SPNode:
        kids = list(dag.predecessors(v))
        if not kids:
            return SPLeaf(v)
        return SPSeries(parallel(*[in_rec(c) for c in kids]), SPLeaf(v))

    if direction == "out":
        roots = [n for n in dag.nodes() if dag.in_degree(n) == 0]
        return parallel(*[out_rec(r) for r in roots])
    roots = [n for n in dag.nodes() if dag.out_degree(n) == 0]
    return parallel(*[in_rec(r) for r in roots])


# ----------------------------------------------------------------------
# random generation
# ----------------------------------------------------------------------
def random_sp_tree(
    n: int,
    seed: int | np.random.Generator | None = None,
    *,
    p_series: float = 0.5,
    id_prefix: str = "j",
) -> SPNode:
    """A random SP-tree with ``n`` leaf jobs.

    The tree is built by recursive random bisection; each internal node is a
    series composition with probability ``p_series`` (else parallel).  Leaf
    job ids are ``f"{id_prefix}{k}"`` for ``k = 0..n-1``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = ensure_rng(seed)
    counter = iter(range(n))

    def build(k: int) -> SPNode:
        if k == 1:
            return SPLeaf(f"{id_prefix}{next(counter)}")
        split = int(rng.integers(1, k))
        left = build(split)
        right = build(k - split)
        if rng.random() < p_series:
            return SPSeries(left, right)
        return SPParallel(left, right)

    return build(n)
