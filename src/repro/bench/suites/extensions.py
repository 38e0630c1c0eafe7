"""Extension benchmarks: beyond the paper's displayed results.

The capacity precondition, the FPTAS epsilon, the candidate strategies
and the He et al. malleable relaxation — one spec per result table, each
computing its rows from the parameters it pins.
"""

from __future__ import annotations

from statistics import mean

from repro.bench.core import Checker, Outcome, Table
from repro.bench.registry import register_benchmark


@register_benchmark(
    "capacity_sweep",
    description="Capacity precondition: where P_min >= 1/mu^2 starts to hold",
)
def capacity_benchmark() -> Outcome:
    """Ratio vs platform capacity around the precondition threshold (d=2).

    Theorem 1 requires ``P_min >= 7``; the sweep crosses that threshold and
    reports whether the precondition held alongside the measured ratios.
    """
    from repro.experiments.workloads import random_instance
    from repro.registry import get_scheduler
    from repro.resources.pool import ResourcePool

    rows = []
    for cap in (2, 4, 7, 16, 32):
        pool = ResourcePool.uniform(2, cap)
        results = []
        for seed in (0, 1):
            res = get_scheduler("ours").schedule(
                random_instance("layered", 20, pool, seed=seed).instance, allocator="lp"
            )
            res.schedule.validate()
            results.append(res)
        ratios = [res.ratio() for res in results]
        rows.append(
            {
                "capacity": cap,
                "pmin_precondition": cap >= 7,
                "mean_ratio": mean(ratios),
                "max_ratio": max(ratios),
                "proven": results[-1].proven_ratio,
            }
        )
    c = Checker()
    c.check(
        "bound_holds_under_precondition",
        all(r["max_ratio"] <= r["proven"] + 1e-9 for r in rows if r["pmin_precondition"]),
        "the proven bound must hold whenever the precondition holds",
    )
    c.check("ratios_at_least_one", all(r["mean_ratio"] >= 1.0 - 1e-9 for r in rows))
    table = Table("Capacity sweep: P_min >= 1/mu^2 ~ 7 precondition (d=2)", rows)
    return table, c.results, {}


@register_benchmark(
    "epsilon_sweep",
    description="FPTAS epsilon: solution quality vs runtime on SP workloads",
)
def epsilon_benchmark() -> Outcome:
    """Tighter epsilon must never end worse and must cost a wider DP.

    ``l_over_lp`` compares the FPTAS allocation's ``L(p')`` to the LP
    fractional bound (>= 1; closer to 1 is better); ``mean_budget_levels``
    is the cost: the width of the final DP table, which grows with
    ``n / epsilon`` and is the same on every host.
    """
    from repro.core.lower_bounds import lp_lower_bound
    from repro.core.sp_fptas import sp_fptas_allocation
    from repro.experiments.workloads import random_instance
    from repro.resources.pool import ResourcePool

    pool = ResourcePool.uniform(2, 12)
    workloads = [random_instance("sp", 12, pool, seed=s) for s in (0, 1)]
    lps = [lp_lower_bound(w.instance) for w in workloads]
    rows = []
    for eps in (1.0, 0.5, 0.25):
        allocs = [sp_fptas_allocation(w.instance, w.sp_tree, epsilon=eps) for w in workloads]
        rows.append(
            {
                "epsilon": eps,
                "l_over_lp": mean(a.l_value / lp for a, lp in zip(allocs, lps)),
                "mean_budget_levels": mean(a.budget_levels for a in allocs),
            }
        )
    c = Checker()
    vals = [r["l_over_lp"] for r in rows]
    c.check(
        "tightest_at_least_as_good",
        vals[-1] <= vals[0] + 1e-9,
        "the tightest epsilon must match or beat the loosest",
    )
    c.check("above_lp", all(r["l_over_lp"] >= 1.0 - 1e-6 for r in rows))
    levels = [r["mean_budget_levels"] for r in rows]
    c.check(
        "cost_grows_with_tightness",
        levels[-1] >= levels[0],
        "DP budget levels scale with n/epsilon",
    )
    table = Table("FPTAS epsilon sweep (SP workloads): quality vs runtime", rows, precision=4)
    return table, c.results, {}


@register_benchmark(
    "strategy_sweep",
    description="Candidate strategies: schedule quality vs LP size",
)
def strategy_benchmark() -> Outcome:
    """Geometric grid vs full frontier: bounded quality loss, much smaller LP."""
    from repro.experiments.workloads import random_instance
    from repro.jobs.candidates import diagonal_grid, full_grid, geometric_grid
    from repro.registry import get_scheduler
    from repro.resources.pool import ResourcePool

    strategies = {
        "full": full_grid,
        "geometric": geometric_grid,
        "diagonal": lambda pool: diagonal_grid(pool, levels=16),
    }
    pool = ResourcePool.uniform(2, 16)
    rows = []
    for name, strategy in strategies.items():
        makespans, frontier_sizes = [], []
        for seed in (0, 1, 2):
            inst = random_instance("layered", 16, pool, seed=seed).instance
            res = get_scheduler("ours").schedule(inst, allocator="lp", strategy=strategy)
            res.schedule.validate()
            makespans.append(res.makespan)
            table = inst.candidate_table(strategy)
            frontier_sizes.append(mean(len(es) for es in table.values()))
        rows.append(
            {
                "strategy": name,
                "mean_makespan": mean(makespans),
                "mean_frontier_size": mean(frontier_sizes),
            }
        )
    by_strategy = {r["strategy"]: r for r in rows}
    c = Checker()
    c.check(
        "geometric_quality_bounded",
        by_strategy["geometric"]["mean_makespan"] <= by_strategy["full"]["mean_makespan"] * 1.2,
        "geometric loses at most 20% quality vs the full frontier",
    )
    c.check(
        "geometric_smaller_lp",
        by_strategy["geometric"]["mean_frontier_size"]
        <= by_strategy["full"]["mean_frontier_size"],
    )
    table = Table("Candidate strategy sweep: quality vs LP size", rows, precision=4)
    return table, c.results, {}


@register_benchmark(
    "malleable",
    description="Moldable (ours) vs the malleable relaxation (He et al. [21])",
)
def malleable_benchmark() -> Outcome:
    """What the moldable restriction costs against per-step reshaping."""
    from repro.core.two_phase import MoldableScheduler
    from repro.experiments.workloads import random_instance
    from repro.malleable import malleable_list_schedule, moldable_to_malleable
    from repro.resources.pool import ResourcePool

    pool = ResourcePool.uniform(2, 8)
    rows = []
    for seed in (0, 1, 2, 3):
        wl = random_instance("layered", 16, pool, seed=seed, work_range=(1.0, 20.0))
        mold = MoldableScheduler(allocator="lp").schedule(wl.instance)
        mold.schedule.validate()
        mall_inst = moldable_to_malleable(wl.instance)
        mall = malleable_list_schedule(mall_inst)
        mall.validate()
        lb = mall_inst.lower_bound()
        rows.append(
            {
                "seed": seed,
                "moldable_makespan": mold.makespan,
                "malleable_makespan": mall.makespan,
                "malleable_lb": lb,
                "malleable_ratio": mall.makespan / lb,
                "d_plus_1": mall_inst.d + 1,
            }
        )

    c = Checker()
    c.check(
        "he_guarantee_holds",
        all(r["malleable_ratio"] <= r["d_plus_1"] + 1e-9 for r in rows),
        "He et al.'s (d+1) guarantee on the malleable schedule",
    )
    c.check(
        "relaxation_competitive",
        mean(r["malleable_makespan"] for r in rows)
        <= mean(r["moldable_makespan"] for r in rows) * 1.5,
    )
    table = Table("Moldable (ours) vs malleable relaxation (He et al. [21])", rows)
    return table, c.results, {}
