"""Extended experiments beyond the paper's displayed results.

These probe the knobs the theorems expose:

* :func:`capacity_sweep` — the ``P_min >= 1/µ²`` precondition: how the
  measured ratio behaves as per-type capacity shrinks through the threshold;
* :func:`epsilon_sweep` — FPTAS accuracy/cost tradeoff on SP workloads;
* :func:`strategy_sweep` — candidate-enumeration strategies (full vs
  geometric vs diagonal): allocation quality vs LP size;
* :func:`true_ratio_study` — *true* approximation ratios against the exact
  branch-and-bound optimum on tiny instances (the only place ``T_opt``
  itself is computable).
"""

from __future__ import annotations

from statistics import mean
from typing import Sequence

from repro.core.lower_bounds import lp_lower_bound
from repro.core.optimal import optimal_makespan
from repro.core.sp_fptas import sp_fptas_allocation
from repro.core.two_phase import MoldableScheduler
from repro.experiments.workloads import random_instance
from repro.jobs.candidates import diagonal_grid, full_grid, geometric_grid
from repro.resources.pool import ResourcePool

__all__ = ["capacity_sweep", "epsilon_sweep", "strategy_sweep", "true_ratio_study"]


def capacity_sweep(
    d: int = 2,
    *,
    capacities: Sequence[int] = (2, 4, 7, 16, 32),
    n: int = 24,
    seeds: Sequence[int] = (0, 1, 2),
    family: str = "layered",
) -> list[dict]:
    """Measured ratio vs. per-type capacity ``P``.

    Theorem 1 requires ``P_min >= 7``; the sweep crosses that threshold and
    reports whether the precondition held alongside the measured ratios.
    """
    rows: list[dict] = []
    for cap in capacities:
        pool = ResourcePool.uniform(d, cap)
        ratios = []
        proven = None
        for seed in seeds:
            wl = random_instance(family, n, pool, seed=seed)
            res = MoldableScheduler(allocator="lp").schedule(wl.instance)
            res.schedule.validate()
            ratios.append(res.ratio())
            proven = res.proven_ratio
        rows.append(
            {
                "capacity": cap,
                "pmin_precondition": cap >= 7,
                "mean_ratio": mean(ratios),
                "max_ratio": max(ratios),
                "proven": proven,
            }
        )
    return rows


def epsilon_sweep(
    *,
    epsilons: Sequence[float] = (1.0, 0.5, 0.25, 0.1),
    n: int = 16,
    d: int = 2,
    capacity: int = 12,
    seeds: Sequence[int] = (0, 1),
) -> list[dict]:
    """FPTAS ε vs. allocation quality and cost on random SP workloads.

    ``l_over_lp`` compares the FPTAS allocation's ``L(p')`` to the LP
    fractional bound (≥ 1 by definition; closer to 1 is better).
    ``mean_budget_levels`` is the cost: the width of the final DP table
    (:attr:`~repro.core.sp_fptas.SPAllocation.budget_levels`), which grows
    with ``n / ε`` and is the same on every host.
    """
    pool = ResourcePool.uniform(d, capacity)
    workloads = [random_instance("sp", n, pool, seed=s) for s in seeds]
    lps = [lp_lower_bound(w.instance) for w in workloads]
    rows: list[dict] = []
    for eps in epsilons:
        vals, levels = [], []
        for wl, lp in zip(workloads, lps):
            res = sp_fptas_allocation(wl.instance, wl.sp_tree, epsilon=eps)
            vals.append(res.l_value / lp)
            levels.append(res.budget_levels)
        rows.append(
            {
                "epsilon": eps,
                "l_over_lp": mean(vals),
                "mean_budget_levels": mean(levels),
            }
        )
    return rows


def strategy_sweep(
    *,
    d: int = 2,
    capacity: int = 16,
    n: int = 20,
    seeds: Sequence[int] = (0, 1, 2),
    family: str = "layered",
) -> list[dict]:
    """Candidate strategies: schedule quality vs. LP size.

    The geometric grid should lose only a few percent against the full grid
    while shrinking the candidate count by an order of magnitude.
    """
    strategies = {
        "full": full_grid,
        "geometric": geometric_grid,
        "diagonal": lambda pool: diagonal_grid(pool, levels=16),
    }
    pool = ResourcePool.uniform(d, capacity)
    rows: list[dict] = []
    for name, strat in strategies.items():
        makespans, cand_counts = [], []
        for seed in seeds:
            wl = random_instance(family, n, pool, seed=seed)
            inst = wl.instance
            res = MoldableScheduler(allocator="lp", candidate_strategy=strat).schedule(inst)
            res.schedule.validate()
            makespans.append(res.makespan)
            table = inst.candidate_table(strat)
            cand_counts.append(mean(len(es) for es in table.values()))
        rows.append(
            {
                "strategy": name,
                "mean_makespan": mean(makespans),
                "mean_frontier_size": mean(cand_counts),
            }
        )
    return rows


def true_ratio_study(
    *,
    d_values: Sequence[int] = (1, 2),
    n: int = 4,
    capacity: int = 3,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> list[dict]:
    """True approximation ratios ``T / T_opt`` on tiny instances.

    ``T_opt`` comes from the exact branch-and-bound oracle, so these are the
    only *exact* ratios in the evaluation; everything else is measured
    against lower bounds.  Expect values far below the proven worst case.
    """
    rows: list[dict] = []
    for d in d_values:
        pool = ResourcePool.uniform(d, capacity)
        true_ratios, lb_ratios = [], []
        proven = None
        for seed in seeds:
            wl = random_instance("erdos", n, pool, seed=seed)
            inst = wl.instance
            res = MoldableScheduler(allocator="lp", candidate_strategy=full_grid).schedule(inst)
            res.schedule.validate()
            t_opt, _ = optimal_makespan(inst, full_grid, max_jobs=max(6, n))
            assert t_opt <= res.makespan + 1e-9
            assert t_opt >= res.lower_bound / (1 + 1e-6)
            true_ratios.append(res.makespan / t_opt)
            lb_ratios.append(res.ratio())
            proven = res.proven_ratio
        rows.append(
            {
                "d": d,
                "mean_true_ratio": mean(true_ratios),
                "max_true_ratio": max(true_ratios),
                "mean_lb_ratio": mean(lb_ratios),
                "proven": proven,
            }
        )
    return rows
