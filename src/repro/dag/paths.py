"""Weighted path computations on precedence DAGs (Definition 2).

Given per-job execution times ``t_j`` these compute the critical-path
length ``C(p) = max_f Σ_{j∈f} t_j`` and the *bottom level* used by the
global list-scheduling priority.

Both run on the cached array lowering of the DAG
(:mod:`repro.instance.compiled`): one level-batched numpy sweep over the
CSR adjacency instead of a per-node python recursion, with bit-identical
results (only ``max`` and ``+`` are involved).
"""

from __future__ import annotations

from typing import Hashable, Mapping

import numpy as np

from repro.dag.graph import DAG

__all__ = ["critical_path_length", "critical_path", "bottom_levels"]

JobId = Hashable


def _times_vector(order: list[JobId], times: Mapping[JobId, float]) -> np.ndarray:
    return np.array([times[j] for j in order], dtype=np.float64)


def bottom_levels(dag: DAG, times: Mapping[JobId, float]) -> dict[JobId, float]:
    """Bottom level ``b(j)``: longest total time of a path starting at ``j``
    (inclusive of ``t_j``).  ``max_j b(j)`` is the critical-path length."""
    from repro.instance.compiled import bottom_levels_array, compile_dag

    cd = compile_dag(dag)
    b = bottom_levels_array(cd, _times_vector(cd.order, times))
    return dict(zip(cd.order, b.tolist()))


def critical_path_length(dag: DAG, times: Mapping[JobId, float]) -> float:
    """``C(p)`` — the total execution time along a longest path."""
    from repro.instance.compiled import compile_dag, critical_path_length_array

    if len(dag) == 0:
        return 0.0
    cd = compile_dag(dag)
    return critical_path_length_array(cd, _times_vector(cd.order, times))


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
    while dag.successors(cur):
        cur = max(dag.successors(cur), key=lambda s: b[s])
        path.append(cur)
    return path
