"""Synthetic precedence-graph generators.

These cover the workload families scheduling evaluations traditionally draw
from:

* structureless: :func:`independent`, :func:`erdos_renyi_dag`,
  :func:`layered_random`;
* classic shapes: :func:`chain`, :func:`fork_join`, :func:`random_out_tree`,
  :func:`random_in_tree` (random series-parallel graphs are
  :func:`repro.dag.sp.random_sp_tree` + :func:`~repro.dag.sp.sp_to_dag`);
* dense linear-algebra workflows (the paper's HPC motivation):
  :func:`cholesky_dag`, :func:`lu_dag`;
* iterative/stencil workflows: :func:`stencil_dag`.

All generators return a :class:`~repro.dag.graph.DAG`; stochastic ones take a
``seed`` (int / Generator / None) and are deterministic for a fixed seed.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.dag.graph import DAG
from repro.util.rng import ensure_rng

__all__ = [
    "independent",
    "chain",
    "fork_join",
    "layered_random",
    "erdos_renyi_dag",
    "random_out_tree",
    "random_in_tree",
    "cholesky_dag",
    "lu_dag",
    "stencil_dag",
]

JobId = Hashable


def independent(n: int) -> DAG:
    """``n`` jobs, no precedence constraints (Section 5.2 workloads)."""
    return DAG(nodes=range(n))


def chain(n: int) -> DAG:
    """A linear chain ``0 -> 1 -> ... -> n-1`` (fully sequential)."""
    return DAG(range(n), ((i, i + 1) for i in range(n - 1)))


def fork_join(width: int, stages: int = 1) -> DAG:
    """``stages`` repetitions of fork → ``width`` parallel jobs → join.

    Node ids: ``("fork", s)``, ``("work", s, k)``, ``("join", s)``.  The join
    of stage ``s`` is the fork of stage ``s+1``'s predecessor.
    """
    if width < 1 or stages < 1:
        raise ValueError("width and stages must be >= 1")
    edges: list[tuple[JobId, JobId]] = []
    for s in range(stages):
        fork = ("fork", s)
        join = ("join", s)
        if s:
            edges.append((("join", s - 1), fork))
        for k in range(width):
            w = ("work", s, k)
            edges += [(fork, w), (w, join)]
    return DAG(edges=edges)


def layered_random(
    layers: int,
    width: int,
    p: float = 0.3,
    seed: int | np.random.Generator | None = None,
    *,
    connect_all: bool = True,
) -> DAG:
    """A layered random DAG: ``layers × width`` jobs, edges only between
    consecutive layers, each present with probability ``p``.

    With ``connect_all`` every non-first-layer job is guaranteed at least one
    predecessor (a uniformly random one), avoiding degenerate wide graphs.
    Node ids are ``(layer, index)``.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    rng = ensure_rng(seed)
    edges: list[tuple[JobId, JobId]] = []
    for l in range(layers - 1):
        for j in range(width):
            preds = np.nonzero(rng.random(width) < p)[0].tolist()
            if connect_all and not preds:
                preds = [int(rng.integers(width))]
            edges += [((l, i), (l + 1, j)) for i in preds]
    return DAG(((l, i) for l in range(layers) for i in range(width)), edges)


def erdos_renyi_dag(n: int, p: float, seed: int | np.random.Generator | None = None) -> DAG:
    """A random DAG: fix the order ``0..n-1`` and add each edge ``i -> j``
    (``i < j``) independently with probability ``p``."""
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    rng = ensure_rng(seed)
    edges: list[tuple[int, int]] = []
    for i in range(n):
        js = i + 1 + np.nonzero(rng.random(n - i - 1) < p)[0]
        edges += [(i, j) for j in js.tolist()]
    return DAG(range(n), edges)


def random_out_tree(n: int, seed: int | np.random.Generator | None = None) -> DAG:
    """A uniformly-attached random out-tree: node ``i >= 1`` has a single
    parent chosen uniformly from ``0..i-1`` (dependencies flow root→leaves)."""
    rng = ensure_rng(seed)
    return DAG(range(n), [(int(rng.integers(i)), i) for i in range(1, n)])


def random_in_tree(n: int, seed: int | np.random.Generator | None = None) -> DAG:
    """Mirror of :func:`random_out_tree`: dependencies flow leaves→root
    (every node has at most one successor)."""
    rng = ensure_rng(seed)
    return DAG(range(n), [(i, int(rng.integers(i))) for i in range(1, n)])


# ----------------------------------------------------------------------
# dense linear algebra task graphs
# ----------------------------------------------------------------------
def cholesky_dag(b: int) -> DAG:
    """Tiled Cholesky factorization task graph on a ``b × b`` tile matrix.

    Tasks: ``("potrf", k)``, ``("trsm", k, i)`` for ``i > k``,
    ``("syrk", k, i)``, and ``("gemm", k, i, j)`` for ``j < i``; standard
    dependency pattern of the right-looking tiled algorithm (as scheduled by
    StarPU / PaRSEC, the runtimes cited in the paper's introduction).
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    edges: list[tuple[JobId, JobId]] = []
    add = edges.append
    for k in range(b):
        potrf = ("potrf", k)
        if k > 0:
            add((("syrk", k - 1, k), potrf))
        for i in range(k + 1, b):
            trsm = ("trsm", k, i)
            add((potrf, trsm))
            if k > 0:
                add((("gemm", k - 1, i, k), trsm))
        for i in range(k + 1, b):
            syrk = ("syrk", k, i)
            add((("trsm", k, i), syrk))
            if k > 0:
                add((("syrk", k - 1, i), syrk))
            for j in range(k + 1, i):
                gemm = ("gemm", k, i, j)
                add((("trsm", k, i), gemm))
                add((("trsm", k, j), gemm))
                if k > 0:
                    add((("gemm", k - 1, i, j), gemm))
    # every later potrf first appears as the head of its syrk edge
    return DAG([("potrf", 0)], edges)


def lu_dag(b: int) -> DAG:
    """Tiled LU factorization (no pivoting) task graph on ``b × b`` tiles.

    Tasks: ``("getrf", k)``, row/column solves ``("trsm_r", k, j)`` /
    ``("trsm_c", k, i)``, and trailing updates ``("gemm", k, i, j)``.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    edges: list[tuple[JobId, JobId]] = []
    add = edges.append
    for k in range(b):
        getrf = ("getrf", k)
        if k > 0:
            add((("gemm", k - 1, k, k), getrf))
        for j in range(k + 1, b):
            tr = ("trsm_r", k, j)
            add((getrf, tr))
            if k > 0:
                add((("gemm", k - 1, k, j), tr))
        for i in range(k + 1, b):
            tc = ("trsm_c", k, i)
            add((getrf, tc))
            if k > 0:
                add((("gemm", k - 1, i, k), tc))
        for i in range(k + 1, b):
            for j in range(k + 1, b):
                gm = ("gemm", k, i, j)
                add((("trsm_c", k, i), gm))
                add((("trsm_r", k, j), gm))
                if k > 0:
                    add((("gemm", k - 1, i, j), gm))
    # every later getrf first appears as the head of its gemm edge
    return DAG([("getrf", 0)], edges)


# ----------------------------------------------------------------------
# iterative workflows
# ----------------------------------------------------------------------
def stencil_dag(width: int, steps: int) -> DAG:
    """A 1-D 3-point stencil unrolled over time: job ``(t, i)`` depends on
    ``(t-1, i-1)``, ``(t-1, i)``, ``(t-1, i+1)`` (clamped at borders)."""
    if width < 1 or steps < 1:
        raise ValueError("width and steps must be >= 1")
    return DAG(
        ((t, i) for t in range(steps) for i in range(width)),
        (
            ((t - 1, j), (t, i))
            for t in range(1, steps)
            for i in range(width)
            for j in (i - 1, i, i + 1)
            if 0 <= j < width
        ),
    )
