"""Structural DAG metrics used by the experiment reports.

Workload structure drives scheduling difficulty; these metrics summarize
it: depth (hop count of the longest chain), width (peak parallelism of the
level decomposition), average degree, and the *parallelism profile* (ready
width per level) — the quantities evaluation sections tabulate when
describing their workload mix.

The level decomposition is the DAG's own lazily kept
:attr:`~repro.dag.graph.DAG.levels`: one vectorized Kahn peel over its CSR
adjacency, shared with the level-batched path sweeps.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.dag.graph import DAG

__all__ = ["node_levels", "depth", "level_widths", "width", "edge_density", "summarize"]

JobId = Hashable


def node_levels(dag: DAG) -> dict[JobId, int]:
    """Precedence level of each node: 0 for sources, else 1 + max over preds."""
    return dict(zip(dag.order, dag.levels.tolist()))


def depth(dag: DAG) -> int:
    """Number of levels (hop-longest chain length); 0 for an empty graph."""
    return int(dag.levels.max(initial=-1)) + 1


def level_widths(dag: DAG) -> list[int]:
    """Node count per precedence level (the parallelism profile)."""
    return np.bincount(dag.levels).tolist()


def width(dag: DAG) -> int:
    """Peak level width — an upper-bound estimate of exploitable parallelism.

    (The true maximum antichain can be larger; the level decomposition is
    the standard cheap proxy used in scheduling evaluations.)
    """
    widths = level_widths(dag)
    return max(widths) if widths else 0


def edge_density(dag: DAG) -> float:
    """Edges divided by the maximum possible ``n(n−1)/2`` (0 for n < 2)."""
    n = len(dag)
    if n < 2:
        return 0.0
    return dag.num_edges / (n * (n - 1) / 2)


def summarize(dag: DAG) -> dict[str, float]:
    """All metrics in one dict (for workload tables)."""
    return {
        "n": len(dag),
        "edges": dag.num_edges,
        "depth": depth(dag),
        "width": width(dag),
        "edge_density": edge_density(dag),
        "sources": len(dag.sources()),
        "sinks": len(dag.sinks()),
    }
