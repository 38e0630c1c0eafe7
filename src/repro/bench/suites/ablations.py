"""Ablation benchmarks: the design knobs around the theorem-optimal point.

The (µ, ρ) landscape, the Phase 2 priority rules, the DTCT rounding
strategies and the robustness sweep — one spec per result table.
"""

from __future__ import annotations

from statistics import mean

from repro.bench.core import (
    BenchCase,
    BenchPlan,
    Checker,
    Table,
    table_from_cases,
)
from repro.bench.registry import register_benchmark

_PRIORITY_RULES = ("fifo", "lpt", "spt", "random", "bottom_level")


@register_benchmark(
    "ablation_mu_rho",
    kind="ablation",
    description="Sensitivity of the measured ratio to the (mu, rho) parameters",
)
def mu_rho_benchmark() -> BenchPlan:
    """Map the practical landscape around the theorem-optimal point at d=3."""
    from repro.core import theory
    from repro.experiments.sweeps import mu_rho_ablation

    d = 3
    mus = (0.15, 0.25, round(theory.MU_A, 3), 0.45)
    rhos = (0.2, round(theory.theorem1_rho(d), 3), 0.5, 0.7)

    def checks(by_name):
        c = Checker()
        rows = by_name["sweep"].value
        c.check("row_count", len(rows) == len(mus) * len(rhos))
        best = min(r["mean_ratio"] for r in rows)
        theorem_row = next(
            r
            for r in rows
            if r["mu"] == round(theory.MU_A, 3)
            and r["rho"] == round(theory.theorem1_rho(d), 3)
        )
        c.check(
            "theorem_point_not_pathological",
            theorem_row["mean_ratio"] <= best * 1.5,
            "the theorem-optimal (mu*, rho*) must stay within 50% of the "
            "best swept configuration",
        )
        c.check("ratios_at_least_one", all(r["mean_ratio"] >= 1.0 - 1e-9 for r in rows))

        def own_bound(r):
            f = (
                theory.f_bound(d, r["mu"], r["rho"])
                if r["mu"] >= theory.MU_A - 1e-9
                else float("inf")
            )
            g = (
                theory.g_bound(d, r["mu"], r["rho"])
                if r["mu"] <= theory.MU_A + 1e-9
                else float("inf")
            )
            return max(f, g)

        c.check(
            "own_proven_factors_hold",
            all(r["max_ratio"] <= own_bound(r) + 1e-9 for r in rows),
        )
        return c.results

    return BenchPlan(
        cases=[
            BenchCase(
                name="sweep",
                fn=lambda: mu_rho_ablation(d=d, n=24, mus=mus, rhos=rhos, seeds=(0, 1, 2)),
                rows=lambda rows: rows,
            )
        ],
        checks=checks,
        tables=table_from_cases(
            "ablation_mu_rho",
            f"Ablation: µ/ρ sensitivity at d={d} "
            f"(theorem point µ={mus[2]}, ρ={rhos[1]})",
        ),
    )


@register_benchmark(
    "ablation_priority",
    kind="ablation",
    description="Phase 2 queue orders: local vs global priorities (Theorem 6 gap)",
)
def priority_benchmark() -> BenchPlan:
    """Random-workload priority sweep plus the adversarial Theorem 6 family."""
    from repro.experiments.sweeps import priority_ablation, theorem6_sweep

    def checks(by_name):
        c = Checker()
        rows = by_name["sweep"].value
        c.check(
            "ratios_at_least_one",
            all(r[rule] >= 1.0 - 1e-9 for r in rows for rule in _PRIORITY_RULES),
        )
        c.check(
            "global_competitive_with_local",
            all(
                r["bottom_level"]
                <= min(r[k] for k in ("fifo", "lpt", "spt", "random")) * 1.15
                for r in rows
            ),
            "the informed (global) priority must stay within 15% of the "
            "best local rule",
        )
        t6 = by_name["theorem6"].value[0]
        c.check(
            "adversarial_gap_visible",
            t6["T_adversarial"] / t6["T_informed"] > 3.5,
            "the d=4 family must exhibit most of its factor-d gap",
        )
        return c.results

    def tables(by_name):
        t6 = by_name["theorem6"].value[0]
        footer = (
            f"Theorem 6 family (d=4, M=48): adversarial local order "
            f"{t6['T_adversarial']:g} vs informed {t6['T_informed']:g} "
            f"-> gap {t6['measured_ratio']:.3f}"
        )
        return [
            Table(
                name="ablation_priority",
                title="Ablation: Phase 2 priority rules (mean ratio vs LP bound)",
                rows=by_name["sweep"].rows or [],
                footer=footer,
            )
        ]

    return BenchPlan(
        cases=[
            BenchCase(
                name="sweep",
                fn=lambda: priority_ablation(
                    d=3, n=30, seeds=(0, 1, 2), families=("layered", "cholesky")
                ),
                rows=lambda rows: rows,
            ),
            BenchCase(
                name="theorem6",
                fn=lambda: theorem6_sweep(d_values=(4,), m_values=(48,)),
            ),
        ],
        checks=checks,
        tables=tables,
    )


@register_benchmark(
    "ablation_rounding",
    kind="ablation",
    description="DTCT rounding strategies: quantile vs randomized vs swept rho",
)
def rounding_benchmark() -> BenchPlan:
    """L(p') per rounding strategy on the same fractional solutions (d=2)."""
    from repro.core import theory
    from repro.core.rounding import compare_roundings
    from repro.experiments.workloads import random_instance
    from repro.resources.pool import ResourcePool

    d = 2
    seeds = (0, 1, 2, 3)

    def run():
        pool = ResourcePool.uniform(d, 16)
        rho = theory.theorem1_rho(d)
        out = []
        for seed in seeds:
            wl = random_instance("layered", 20, pool, seed=seed)
            res = compare_roundings(wl.instance, rho=rho, trials=16, seed=seed)
            out.append({"seed": seed, **res})
        return out

    def checks(by_name):
        c = Checker()
        rows = by_name["sweep"].value
        c.check(
            "above_lp_bound",
            all(
                r[key] >= r["lp_bound"] / (1 + 1e-6)
                for r in rows
                for key in ("quantile", "randomized", "best_quantile")
            ),
        )
        c.check(
            "swept_never_worse_per_seed",
            all(r["best_quantile"] <= r["quantile"] + 1e-12 for r in rows),
        )
        c.check(
            "swept_never_worse_aggregate",
            mean(r["best_quantile"] for r in rows)
            <= mean(r["quantile"] for r in rows) + 1e-12,
        )
        return c.results

    return BenchPlan(
        cases=[BenchCase(name="sweep", fn=run, rows=lambda rows: rows)],
        checks=checks,
        tables=table_from_cases(
            "ablation_rounding",
            "Ablation: DTCT rounding strategies, L(p') vs LP bound",
            precision=4,
        ),
    )


@register_benchmark(
    "robustness",
    kind="ablation",
    description="Allocation on noisy estimates, execution with true times",
)
def robustness_benchmark() -> BenchPlan:
    """Ratio degradation as estimate noise grows (d=2)."""
    from repro.experiments.robustness import robustness_sweep

    def checks(by_name):
        c = Checker()
        rows = by_name["sweep"].value
        c.check(
            "noiseless_within_bound",
            rows[0]["max_ratio"] <= rows[0]["proven_noiseless"] + 1e-9,
        )
        c.check("ratios_at_least_one", all(r["mean_ratio"] >= 1.0 - 1e-9 for r in rows))
        return c.results

    return BenchPlan(
        cases=[
            BenchCase(
                name="sweep",
                fn=lambda: robustness_sweep(
                    noise_levels=(0.0, 0.1, 0.3, 0.6), d=2, n=20, seeds=(0, 1)
                ),
                rows=lambda rows: rows,
            )
        ],
        checks=checks,
        tables=table_from_cases(
            "robustness",
            "Robustness: allocation on noisy estimates, execution with true times",
        ),
    )
