"""FPTAS resource allocation for series-parallel graphs and trees (Lemma 7).

Adapted from Lepère, Trystram, Woeginger [26] to multiple resource types by
first applying the Eq. (2) dominance filter.  The scheme:

* guess a target ``X`` for the lower-bound functional ``L``;
* discretize average areas in units of ``εX/n`` and run a dynamic program
  over the SP decomposition tree computing, for every discretized area
  budget ``b``, the minimum achievable critical-path length ``F(b)``:

  - leaf (job): fastest candidate whose discretized area fits ``b``;
  - series composition: ``F(b) = min_{b1+b2=b} F_left(b1) + F_right(b2)``;
  - parallel composition: ``F(b) = min_{b1+b2=b} max(F_left(b1), F_right(b2))``;

* ``X`` is feasible when some budget ``b`` has ``F(b) <= X`` and
  ``b·unit <= (1+ε')X`` — any ``X >= L_min`` passes, because the optimal
  allocation's rounded-up area exceeds the true one by at most ``n`` units;
* binary search ``X`` down to relative precision ``ε'``.

With the internal ``ε' = ε/3`` both error sources compose to at most
``(1+ε'/1)(1+ε') <= 1+ε`` for ``ε <= 1``, i.e. the returned allocation
satisfies ``L(p') <= (1+ε)·L_min`` — Lemma 7's guarantee (restricted to the
enumerated candidate set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.dag.sp import SPLeaf, SPNode, SPParallel, SPSeries
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy
from repro.jobs.profiles import ProfileEntry
from repro.resources.vector import ResourceVector

__all__ = ["SPAllocation", "sp_fptas_allocation"]

JobId = Hashable


@dataclass(frozen=True)
class SPAllocation:
    """FPTAS result: allocation with ``L(p') <= (1+ε)·L_min``."""

    allocation: dict[JobId, ResourceVector]
    l_value: float
    target: float
    epsilon: float
    #: width of the final DP table (``bmax + 1`` area budgets): the
    #: FPTAS's cost, ``O(n / ε)``
    budget_levels: int


@dataclass
class _NodeDP:
    """DP table of one SP node: F over budgets, with reconstruction info."""

    f: np.ndarray           # min critical path per budget
    choice: np.ndarray      # leaf: candidate index; internal: left budget
    node: SPNode
    left: "_NodeDP | None" = None
    right: "_NodeDP | None" = None


def _leaf_dp(entries: Sequence[ProfileEntry], unit: float, bmax: int, node: SPLeaf) -> _NodeDP:
    f = np.full(bmax + 1, np.inf)
    choice = np.full(bmax + 1, -1, dtype=np.int32)
    # entries: time strictly increasing, area strictly decreasing, so the
    # discretized areas are non-increasing; for budget b the best (fastest)
    # feasible entry is the first whose discretized area fits.
    prev_da = bmax + 1
    for k, e in enumerate(entries):
        da = int(math.ceil(e.area / unit - 1e-12))
        if da >= prev_da:
            continue  # cannot improve any budget the previous entry covered
        hi = min(prev_da, bmax + 1)
        if da <= bmax and da < hi:
            f[da:hi] = e.time
            choice[da:hi] = k
        prev_da = da
        if da == 0:
            break
    return _NodeDP(f=f, choice=choice, node=node)


def _combine(left: _NodeDP, right: _NodeDP, node: SPNode, bmax: int, mode: str) -> _NodeDP:
    f = np.full(bmax + 1, np.inf)
    choice = np.full(bmax + 1, -1, dtype=np.int32)
    lf, rf = left.f, right.f
    for b1 in range(bmax + 1):
        v1 = lf[b1]
        if not np.isfinite(v1):
            continue
        seg = rf[: bmax + 1 - b1]
        cand = v1 + seg if mode == "series" else np.maximum(v1, seg)
        tgt = slice(b1, bmax + 1)
        better = cand < f[tgt]
        if better.any():
            f[tgt] = np.where(better, cand, f[tgt])
            choice[tgt] = np.where(better, b1, choice[tgt])
    return _NodeDP(f=f, choice=choice, node=node, left=left, right=right)


def _build_dp(
    node: SPNode,
    table: Mapping[JobId, Sequence[ProfileEntry]],
    unit: float,
    bmax: int,
) -> _NodeDP:
    if isinstance(node, SPLeaf):
        return _leaf_dp(table[node.job], unit, bmax, node)
    if isinstance(node, (SPSeries, SPParallel)):
        left = _build_dp(node.left, table, unit, bmax)
        right = _build_dp(node.right, table, unit, bmax)
        mode = "series" if isinstance(node, SPSeries) else "parallel"
        return _combine(left, right, node, bmax, mode)
    raise TypeError(f"unknown SP node {node!r}")


def _reconstruct(
    dp: _NodeDP,
    b: int,
    table: Mapping[JobId, Sequence[ProfileEntry]],
    out: dict[JobId, ResourceVector],
) -> None:
    if isinstance(dp.node, SPLeaf):
        k = int(dp.choice[b])
        if k < 0:  # pragma: no cover - guarded by feasibility check
            raise RuntimeError("reconstruction hit an infeasible budget")
        out[dp.node.job] = table[dp.node.job][k].alloc
        return
    b1 = int(dp.choice[b])
    if b1 < 0:  # pragma: no cover - guarded by feasibility check
        raise RuntimeError("reconstruction hit an infeasible budget")
    _reconstruct(dp.left, b1, table, out)
    _reconstruct(dp.right, b - b1, table, out)


def sp_fptas_allocation(
    instance: Instance,
    sp_tree: SPNode,
    epsilon: float = 0.3,
    strategy: CandidateStrategy | None = None,
) -> SPAllocation:
    """Compute an allocation with ``L(p') <= (1+ε)·L_min`` (Lemma 7).

    ``sp_tree`` must decompose exactly the instance's job set (its
    materialized constraints may be a superset of the DAG's — e.g. a tree's
    SP-tree implies the same schedules).
    """
    if epsilon <= 0 or epsilon > 1:
        raise ValueError(f"ε must lie in (0, 1], got {epsilon}")
    leaf_jobs = list(sp_tree.leaves())
    if set(leaf_jobs) != set(instance.jobs):
        raise ValueError("SP tree leaves must match the instance's job ids")

    table = instance.candidate_table(strategy)
    n = len(leaf_jobs)
    eps_in = epsilon / 3.0

    # bounds on L_min
    lo = max(
        max(table[j][0].time for j in leaf_jobs),       # some job runs at full tilt
        sum(table[j][-1].area for j in leaf_jobs),      # total area at minimum
    )
    alloc_fast = {j: table[j][0].alloc for j in leaf_jobs}
    hi = instance.lower_bound_functional(alloc_fast)
    hi = max(hi, lo)

    def solve_for(x: float) -> tuple[bool, float, int, _NodeDP]:
        unit = eps_in * x / n
        bmax = int(math.ceil((1.0 + eps_in) * x / unit)) + 1
        dp = _build_dp(sp_tree, table, unit, bmax)
        best_b, best_val = -1, np.inf
        for b in range(bmax + 1):
            if np.isfinite(dp.f[b]) and dp.f[b] <= x * (1 + 1e-12) and b * unit <= (1.0 + eps_in) * x * (1 + 1e-12):
                val = max(dp.f[b], b * unit)
                if val < best_val:
                    best_val, best_b = val, b
        return best_b >= 0, unit, best_b, dp

    # binary search on X (log scale); hi is always feasible
    feas_hi = solve_for(hi)
    if not feas_hi[0]:  # pragma: no cover - hi >= L_min is feasible by construction
        raise RuntimeError("FPTAS upper bound unexpectedly infeasible")
    best_x, best = hi, feas_hi
    lo_x = lo
    while hi / lo_x > 1.0 + eps_in:
        mid = math.sqrt(lo_x * hi)
        res = solve_for(mid)
        if res[0]:
            hi, best_x, best = mid, mid, res
        else:
            lo_x = mid

    _, unit, b, dp = best
    allocation: dict[JobId, ResourceVector] = {}
    _reconstruct(dp, b, table, allocation)
    return SPAllocation(
        allocation=allocation,
        l_value=instance.lower_bound_functional(allocation),
        target=best_x,
        epsilon=epsilon,
        budget_levels=len(dp.f),
    )
