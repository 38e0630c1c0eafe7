"""Weighted path computations on precedence DAGs (Definition 2).

Given per-job execution times ``t_j`` these compute the critical-path
length ``C(p) = max_f Σ_{j∈f} t_j`` and the *bottom level* used by the
global list-scheduling priority.

Both are one level-batched numpy sweep over the DAG's CSR adjacency
(:meth:`~repro.dag.graph.DAG.level_succ_gathers`): every edge crosses
strictly downward in the level decomposition, so sweeping levels deepest
first makes each level a single segmented reduction — bit-identical to a
per-node recursion, since only ``max`` and ``+`` are involved.
"""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from repro.dag.graph import DAG

__all__ = ["critical_path_length", "critical_path", "bottom_levels", "bottom_levels_array"]

JobId = Hashable


def bottom_levels_array(dag: DAG, times: np.ndarray) -> np.ndarray:
    """``b(j) = t_j + max_{s ∈ succ(j)} b(s)`` for every position, one sweep
    (``times`` aligned with ``dag.order``)."""
    b = np.asarray(times, dtype=np.float64).copy()
    for targets, seg_starts, src in reversed(dag.level_succ_gathers()):
        if targets.size:
            seg_max = np.maximum.reduceat(b[targets], seg_starts)
            b[src] = times[src] + seg_max
    return b


def _times_vector(dag: DAG, times: Mapping[JobId, float]) -> np.ndarray:
    return np.array([times[j] for j in dag.order], dtype=np.float64)


def bottom_levels(dag: DAG, times: Mapping[JobId, float]) -> dict[JobId, float]:
    """Bottom level ``b(j)``: longest total time of a path starting at ``j``
    (inclusive of ``t_j``).  ``max_j b(j)`` is the critical-path length."""
    b = bottom_levels_array(dag, _times_vector(dag, times))
    return dict(zip(dag.order, b.tolist()))


def critical_path_length(dag: DAG, times: Mapping[JobId, float]) -> float:
    """``C(p)`` — the total execution time along a longest path (the
    maximum bottom level; 0.0 for an empty graph)."""
    b = bottom_levels_array(dag, _times_vector(dag, times))
    return float(b.max()) if b.size else 0.0


def critical_path(dag: DAG, times: Mapping[JobId, float]) -> list[JobId]:
    """One longest (critical) path, as a list of job ids source→sink."""
    if len(dag) == 0:
        return []
    b = bottom_levels(dag, times)
    # start at a source with maximal bottom level, then greedily follow the
    # successor that preserves b(j) = t_j + b(successor).
    start = max(dag.sources(), key=lambda j: b[j])
    path = [start]
    cur = start
    while succ := dag.successors(cur):
        cur = max(succ, key=lambda s: b[s])
        path.append(cur)
    return path
