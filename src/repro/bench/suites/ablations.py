"""Ablation benchmarks: the design knobs around the theorem-optimal point.

The (µ, ρ) landscape, the Phase 2 priority rules, the DTCT rounding
strategies and the robustness sweep — one spec per result table, each
computing its rows from the parameters it pins.
"""

from __future__ import annotations

from statistics import mean

from repro.bench.core import Checker, Outcome, Table
from repro.bench.registry import register_benchmark

_PRIORITY_RULES = ("fifo", "lpt", "spt", "random", "bottom_level")


@register_benchmark(
    "ablation_mu_rho",
    description="Sensitivity of the measured ratio to the (mu, rho) parameters",
)
def mu_rho_benchmark() -> Outcome:
    """Map the practical landscape around the theorem-optimal point at d=3."""
    from repro.core import theory
    from repro.core.lower_bounds import lp_lower_bound
    from repro.experiments.workloads import random_instance
    from repro.registry import get_scheduler
    from repro.resources.pool import ResourcePool

    d = 3
    mus = (0.15, 0.25, round(theory.MU_A, 3), 0.45)
    rhos = (0.2, round(theory.theorem1_rho(d), 3), 0.5, 0.7)
    pool = ResourcePool.uniform(d, 16)
    instances = [random_instance("layered", 24, pool, seed=s).instance for s in (0, 1, 2)]
    lbs = [lp_lower_bound(inst) for inst in instances]
    ours = get_scheduler("ours")
    rows = []
    for mu in mus:
        for rho in rhos:
            rs = [
                ours.schedule(inst, mu=mu, rho=rho, allocator="lp").makespan / lb
                for inst, lb in zip(instances, lbs)
            ]
            rows.append({"mu": mu, "rho": rho, "mean_ratio": mean(rs), "max_ratio": max(rs)})

    c = Checker()
    c.check("row_count", len(rows) == len(mus) * len(rhos))
    best = min(r["mean_ratio"] for r in rows)
    theorem_row = next(r for r in rows if r["mu"] == mus[2] and r["rho"] == rhos[1])
    c.check(
        "theorem_point_not_pathological",
        theorem_row["mean_ratio"] <= best * 1.5,
        "the theorem-optimal (mu*, rho*) must stay within 50% of the best swept configuration",
    )
    c.check("ratios_at_least_one", all(r["mean_ratio"] >= 1.0 - 1e-9 for r in rows))

    def own_bound(r):
        inf = float("inf")
        f = theory.f_bound(d, r["mu"], r["rho"]) if r["mu"] >= theory.MU_A - 1e-9 else inf
        g = theory.g_bound(d, r["mu"], r["rho"]) if r["mu"] <= theory.MU_A + 1e-9 else inf
        return max(f, g)

    c.check(
        "own_proven_factors_hold",
        all(r["max_ratio"] <= own_bound(r) + 1e-9 for r in rows),
    )
    table = Table(
        f"Ablation: µ/ρ sensitivity at d={d} (theorem point µ={mus[2]}, ρ={rhos[1]})", rows
    )
    return table, c.results, {}


@register_benchmark(
    "ablation_priority",
    description="Phase 2 queue orders: local vs global priorities (Theorem 6 gap)",
)
def priority_benchmark() -> Outcome:
    """Random-workload priority sweep plus the adversarial Theorem 6 family.

    The allocation is fixed (Phase 1 with theorem parameters); only the
    list order changes, isolating the priority rule's effect.
    """
    from repro.core.list_scheduler import (
        bottom_level_priority,
        fifo_priority,
        list_schedule,
        lpt_priority,
        random_priority,
        spt_priority,
    )
    from repro.experiments.lb_instance import theorem6_sweep
    from repro.experiments.workloads import random_instance
    from repro.registry import get_scheduler
    from repro.resources.pool import ResourcePool

    d = 3
    rules = {
        "fifo": fifo_priority,
        "lpt": lpt_priority,
        "spt": spt_priority,
        "random": random_priority(123),
        "bottom_level": bottom_level_priority,
    }
    pool = ResourcePool.uniform(d, 16)
    rows = []
    for family in ("layered", "cholesky"):
        ratios: dict[str, list[float]] = {name: [] for name in rules}
        for seed in (0, 1, 2):
            inst = random_instance(family, 30, pool, seed=seed).instance
            base = get_scheduler("ours").schedule(inst, allocator="lp")
            for name, rule in rules.items():
                sched = list_schedule(inst, base.allocation, rule)
                sched.validate()
                ratios[name].append(sched.makespan / base.lower_bound)
        rows.append({"family": family, "d": d, **{name: mean(rs) for name, rs in ratios.items()}})
    [t6] = theorem6_sweep(d_values=(4,), m_values=(48,))

    c = Checker()
    c.check(
        "ratios_at_least_one",
        all(r[rule] >= 1.0 - 1e-9 for r in rows for rule in _PRIORITY_RULES),
    )
    c.check(
        "global_competitive_with_local",
        all(
            r["bottom_level"] <= min(r[k] for k in ("fifo", "lpt", "spt", "random")) * 1.15
            for r in rows
        ),
        "the informed (global) priority must stay within 15% of the best local rule",
    )
    c.check(
        "adversarial_gap_visible",
        t6["T_adversarial"] / t6["T_informed"] > 3.5,
        "the d=4 family must exhibit most of its factor-d gap",
    )
    table = Table(
        "Ablation: Phase 2 priority rules (mean ratio vs LP bound)",
        rows,
        footer=(
            f"Theorem 6 family (d=4, M=48): adversarial local order "
            f"{t6['T_adversarial']:g} vs informed {t6['T_informed']:g} "
            f"-> gap {t6['measured_ratio']:.3f}"
        ),
    )
    return table, c.results, {}


@register_benchmark(
    "ablation_rounding",
    description="DTCT rounding strategies: quantile vs randomized vs swept rho",
)
def rounding_benchmark() -> Outcome:
    """L(p') per rounding strategy on the same fractional solutions (d=2)."""
    from repro.core import theory
    from repro.core.rounding import compare_roundings
    from repro.experiments.workloads import random_instance
    from repro.resources.pool import ResourcePool

    d = 2
    pool = ResourcePool.uniform(d, 16)
    rho = theory.theorem1_rho(d)
    rows = []
    for seed in (0, 1, 2, 3):
        wl = random_instance("layered", 20, pool, seed=seed)
        rows.append({"seed": seed, **compare_roundings(wl.instance, rho=rho, trials=16, seed=seed)})

    c = Checker()
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
        mean(r["best_quantile"] for r in rows) <= mean(r["quantile"] for r in rows) + 1e-12,
    )
    table = Table("Ablation: DTCT rounding strategies, L(p') vs LP bound", rows, precision=4)
    return table, c.results, {}


@register_benchmark(
    "robustness",
    description="Allocation on noisy estimates, execution with true times",
)
def robustness_benchmark() -> Outcome:
    """Ratio degradation as estimate noise grows (d=2).

    Assumption 2 grants exact execution-time functions; here Phase 1
    allocates on *perturbed* profiles (deterministic lognormal noise per
    allocation) and Phase 2 dispatches that allocation on the true times.
    Ratios are against the true instance's LP bound, so the no-noise row
    is the standard result and the others isolate mis-estimation's cost.
    """
    from repro.core import theory
    from repro.core.allocation import allocate_resources
    from repro.core.list_scheduler import list_schedule
    from repro.core.lower_bounds import lp_lower_bound
    from repro.experiments.workloads import perturbed_instance, random_instance
    from repro.resources.pool import ResourcePool

    d = 2
    pool = ResourcePool.uniform(d, 16)
    mu, rho, proven = theory.best_parameters(d, "general")
    instances = [random_instance("layered", 20, pool, seed=s).instance for s in (0, 1)]
    lbs = [lp_lower_bound(inst) for inst in instances]
    rows = []
    for noise in (0.0, 0.1, 0.3, 0.6):
        ratios = []
        for s, (inst, lb) in enumerate(zip(instances, lbs)):
            estimate = inst if noise == 0.0 else perturbed_instance(inst, noise, seed=s)
            sched = list_schedule(inst, allocate_resources(estimate, rho, mu).allocation)
            sched.validate()
            ratios.append(sched.makespan / lb)
        rows.append(
            {
                "scheduler": "ours",
                "rel_noise": noise,
                "mean_ratio": mean(ratios),
                "max_ratio": max(ratios),
                "proven_noiseless": proven,
            }
        )
    c = Checker()
    c.check(
        "noiseless_within_bound",
        rows[0]["max_ratio"] <= rows[0]["proven_noiseless"] + 1e-9,
    )
    c.check("ratios_at_least_one", all(r["mean_ratio"] >= 1.0 - 1e-9 for r in rows))
    table = Table("Robustness: allocation on noisy estimates, execution with true times", rows)
    return table, c.results, {}
