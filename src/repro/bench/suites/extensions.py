"""Extension benchmarks: beyond the paper's displayed results.

The capacity precondition, the FPTAS epsilon, the candidate strategies
and the He et al. malleable relaxation — one spec per result table.
"""

from __future__ import annotations

from statistics import mean

from repro.bench.core import (
    BenchCase,
    BenchPlan,
    Checker,
    table_from_cases,
)
from repro.bench.registry import register_benchmark


@register_benchmark(
    "capacity_sweep",
    kind="extension",
    description="Capacity precondition: where P_min >= 1/mu^2 starts to hold",
)
def capacity_benchmark() -> BenchPlan:
    """Ratio vs platform capacity around the precondition threshold (d=2)."""
    from repro.experiments.extended import capacity_sweep

    def checks(by_name):
        c = Checker()
        rows = by_name["sweep"].value
        c.check(
            "bound_holds_under_precondition",
            all(
                r["max_ratio"] <= r["proven"] + 1e-9
                for r in rows
                if r["pmin_precondition"]
            ),
            "the proven bound must hold whenever the precondition holds",
        )
        c.check("ratios_at_least_one", all(r["mean_ratio"] >= 1.0 - 1e-9 for r in rows))
        return c.results

    return BenchPlan(
        cases=[
            BenchCase(
                name="sweep",
                fn=lambda: capacity_sweep(
                    d=2, capacities=(2, 4, 7, 16, 32), n=20, seeds=(0, 1)
                ),
                rows=lambda rows: rows,
            )
        ],
        checks=checks,
        tables=table_from_cases(
            "capacity_sweep",
            "Capacity sweep: P_min >= 1/mu^2 ~ 7 precondition (d=2)",
        ),
    )


@register_benchmark(
    "epsilon_sweep",
    kind="extension",
    description="FPTAS epsilon: solution quality vs runtime on SP workloads",
)
def epsilon_benchmark() -> BenchPlan:
    """Tighter epsilon must never end worse and must cost more time."""
    from repro.experiments.extended import epsilon_sweep

    def checks(by_name):
        c = Checker()
        rows = by_name["sweep"].value
        vals = [r["l_over_lp"] for r in rows]
        c.check(
            "tightest_at_least_as_good",
            vals[-1] <= vals[0] + 1e-9,
            "the tightest epsilon must match or beat the loosest",
        )
        c.check("above_lp", all(r["l_over_lp"] >= 1.0 - 1e-6 for r in rows))
        runtimes = [r["mean_seconds"] for r in rows]
        c.check(
            "cost_grows_with_tightness",
            runtimes[-1] >= runtimes[0],
            "DP budget levels scale with n/epsilon",
        )
        return c.results

    return BenchPlan(
        cases=[
            BenchCase(
                name="sweep",
                fn=lambda: epsilon_sweep(epsilons=(1.0, 0.5, 0.25), n=12, seeds=(0, 1)),
                rows=lambda rows: rows,
            )
        ],
        checks=checks,
        tables=table_from_cases(
            "epsilon_sweep",
            "FPTAS epsilon sweep (SP workloads): quality vs runtime",
            precision=4,
        ),
    )


@register_benchmark(
    "strategy_sweep",
    kind="extension",
    description="Candidate strategies: schedule quality vs LP size",
)
def strategy_benchmark() -> BenchPlan:
    """Geometric grid vs full frontier: bounded quality loss, much smaller LP."""
    from repro.experiments.extended import strategy_sweep

    def checks(by_name):
        c = Checker()
        by_strategy = {r["strategy"]: r for r in by_name["sweep"].value}
        c.check(
            "geometric_quality_bounded",
            by_strategy["geometric"]["mean_makespan"]
            <= by_strategy["full"]["mean_makespan"] * 1.2,
            "geometric loses at most 20% quality vs the full frontier",
        )
        c.check(
            "geometric_smaller_lp",
            by_strategy["geometric"]["mean_frontier_size"]
            <= by_strategy["full"]["mean_frontier_size"],
        )
        return c.results

    return BenchPlan(
        cases=[
            BenchCase(
                name="sweep",
                fn=lambda: strategy_sweep(d=2, capacity=16, n=16, seeds=(0, 1, 2)),
                rows=lambda rows: rows,
            )
        ],
        checks=checks,
        tables=table_from_cases(
            "strategy_sweep", "Candidate strategy sweep: quality vs LP size", precision=4
        ),
    )


@register_benchmark(
    "malleable",
    kind="extension",
    description="Moldable (ours) vs the malleable relaxation (He et al. [21])",
)
def malleable_benchmark() -> BenchPlan:
    """What the moldable restriction costs against per-step reshaping."""
    from repro.core.two_phase import MoldableScheduler
    from repro.experiments.workloads import random_instance
    from repro.malleable import malleable_list_schedule, moldable_to_malleable
    from repro.resources.pool import ResourcePool

    seeds = (0, 1, 2, 3)

    def run():
        pool = ResourcePool.uniform(2, 8)
        rows = []
        for seed in seeds:
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
        return rows

    def checks(by_name):
        c = Checker()
        rows = by_name["sweep"].value
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
        return c.results

    return BenchPlan(
        cases=[BenchCase(name="sweep", fn=run, rows=lambda rows: rows)],
        checks=checks,
        tables=table_from_cases(
            "malleable", "Moldable (ours) vs malleable relaxation (He et al. [21])"
        ),
    )
