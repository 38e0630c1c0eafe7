"""Paper-result benchmarks: every displayed figure/table regenerated.

Each spec reproduces one of the paper's displayed results, records its
qualitative claims as named checks, and returns the result rows as its
table (the committed ``benchmarks/results/*.txt`` file is rendered from
it).  Schedule-quality means are deterministic in the pinned seed sets,
so the gated ones compare exactly across runs.
"""

from __future__ import annotations

import math
from statistics import mean

from repro.bench.core import Checker, Gate, Outcome, Table
from repro.bench.registry import register_benchmark

_SIM_A_FAMILIES = ("layered", "cholesky", "forkjoin", "outtree")
_SIM_A_BASELINES = ("min_area", "min_time", "balanced", "tetris", "heft")
_OURS_MEAN_RATIO = Gate("ours_mean_ratio", direction="lower", max_regression=0.05)


def _approx(a: float, b: float, rel: float = 1e-6, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


@register_benchmark(
    "table1",
    description="Table 1: proven ratios per precedence class + empirical verification",
)
def table1_benchmark() -> Outcome:
    """Proven-ratio summary cross-checked on random instances per class."""
    from repro.experiments.table1 import empirical_check, table1_text

    d_check = (1, 2, 3)
    rows = [
        row for d in d_check for row in empirical_check(d, n=18, seeds=(0, 1), capacity=12)
    ]
    c = Checker()
    c.check("row_count", len(rows) == 3 * len(d_check))
    c.check(
        "within_proven_bounds",
        all(r["within_bound"] for r in rows),
        "a measured ratio breached its proven bound",
    )
    c.check("ratios_at_least_one", all(r["worst_empirical"] >= 1.0 - 1e-9 for r in rows))
    table = Table(
        "Empirical verification (ratios vs certified lower bounds)",
        rows,
        preamble=table1_text((1, 2, 3, 4, 8, 22, 50)),
    )
    return table, c.results, {}


@register_benchmark(
    "figure1",
    description="Figure 1: Theorem 2 estimated vs actual ratio vs Theorem 1",
)
def figure1_benchmark() -> Outcome:
    """The three ratio series for 22 <= d <= 50 (pure theory, no scheduling)."""
    from repro.core import theory

    d_min, d_max = 22, 50
    rows = theory.figure1_rows(d_min, d_max)
    c = Checker()
    c.check("d_range", [r["d"] for r in rows] == list(range(d_min, d_max + 1)))
    c.check("estimate_below_theorem1", all(r["theorem2_actual"] < r["theorem1"] for r in rows))
    c.check(
        "estimate_hugs_actual",
        all(
            _approx(r["theorem2_estimate"], r["theorem2_actual"], rel=0.02)
            and r["theorem2_estimate"] >= r["theorem2_actual"] - 1e-9
            for r in rows
        ),
        "the closed-form estimate must stay within 2% above the actual curve",
    )
    gaps = [r["theorem1"] - r["theorem2_actual"] for r in rows]
    c.check("gap_widens_with_d", gaps[-1] > gaps[0])
    table = Table(
        f"Figure 1: approximation ratios for {d_min} <= d <= {d_max}",
        rows,
        precision=4,
        columns=[
            ("d", "d"),
            ("theorem2_actual", "Thm2 actual"),
            ("theorem2_estimate", "Thm2 estimate"),
            ("theorem1", "Thm1 ratio"),
            ("mu_star", "mu*"),
        ],
    )
    return table, c.results, {}


@register_benchmark(
    "figure2_lower_bound",
    description="Figure 2 / Theorem 6: the local-priority list-scheduling lower bound",
)
def figure2_benchmark() -> Outcome:
    """Adversarial vs informed priorities on the reconstructed tree family."""
    from repro.experiments.sweeps import theorem6_sweep

    rows = theorem6_sweep(d_values=(2, 3, 4, 5, 6), m_values=(12, 24, 48, 96))
    c = Checker()
    c.check(
        "closed_forms_match",
        all(
            _approx(r["T_informed"], r["M"] + r["d"] - 1)
            and _approx(r["T_adversarial"], r["M"] * r["d"])
            and _approx(r["measured_ratio"], r["closed_form_ratio"])
            for r in rows
        ),
        "measured makespans must match the closed forms exactly",
    )
    c.check("ratio_below_d", all(r["measured_ratio"] < r["d"] for r in rows))
    by_d: dict[int, list[float]] = {}
    for r in rows:
        by_d.setdefault(r["d"], []).append(r["measured_ratio"])
    c.check("ratio_monotone_in_M", all(ratios == sorted(ratios) for ratios in by_d.values()))
    c.check(
        "ratio_approaches_d",
        all(ratios[-1] > d * 0.94 for d, ratios in by_d.items()),
        "at M=96 the ratio must land within 6% of d",
    )
    table = Table("Figure 2 / Theorem 6: local list scheduling forced to ratio -> d", rows)
    return table, c.results, {}


@register_benchmark(
    "sim_ratio_vs_d",
    description="Sim-A: makespan/lower-bound ratio vs d, ours vs baselines",
    gates=[_OURS_MEAN_RATIO],
)
def sim_a_benchmark() -> Outcome:
    """Graph families x d in {1..4}: ours vs every fixed-allocation baseline."""
    from repro.experiments.sweeps import algorithm_comparison

    d_values = (1, 2, 3, 4)
    rows = algorithm_comparison(
        families=_SIM_A_FAMILIES, d_values=d_values, n=24, capacity=16, seeds=(0, 1, 2)
    )
    c = Checker()
    c.check("row_count", len(rows) == len(_SIM_A_FAMILIES) * len(d_values))
    c.check(
        "within_proven_bounds",
        all(1.0 - 1e-9 <= r["ours"] <= r["proven"] + 1e-9 for r in rows),
    )
    ours_mean = mean(r["ours"] for r in rows)
    c.check(
        "beats_fixed_baselines",
        all(
            ours_mean <= mean(r[b] for r in rows) + 1e-9
            for b in ("min_area", "min_time", "balanced")
        ),
        "ours must win on average against every fixed baseline",
    )
    best_dyn = min(mean(r[b] for r in rows) for b in ("tetris", "heft"))
    c.check(
        "competitive_with_dynamic",
        ours_mean <= best_dyn * 1.25,
        "ours must stay within 25% of the best dynamic heuristic",
    )
    derived = {
        "ours_mean_ratio": ours_mean,
        "best_baseline_mean_ratio": min(mean(r[b] for r in rows) for b in _SIM_A_BASELINES),
    }
    table = Table(
        "Sim-A: mean makespan/LB ratio per graph family and d "
        f"(baselines: {', '.join(_SIM_A_BASELINES)})",
        rows,
    )
    return table, c.results, derived


@register_benchmark(
    "sim_independent",
    description="Sim-B: independent jobs, ours (Theorem 5) vs Sun et al. [36]",
    gates=[_OURS_MEAN_RATIO],
)
def sim_b_benchmark() -> Outcome:
    """Independent-job ratios against the exact L_min (Lemma 8)."""
    from repro.experiments.sweeps import independent_comparison

    d_values = (1, 2, 3, 4)
    rows = independent_comparison(d_values=d_values, n=32, capacity=16, seeds=(0, 1, 2, 3))
    c = Checker()
    c.check("d_order", [r["d"] for r in rows] == list(d_values))
    c.check(
        "within_proven_bounds",
        all(
            r["ours"] <= r["proven_ours"] + 1e-9
            and r["sun_list"] <= r["proven_sun_list"] + 1e-9
            and r["sun_shelf"] <= r["proven_sun_shelf"] + 1e-9
            for r in rows
        ),
    )
    c.check(
        "list_beats_shelf",
        mean(r["ours"] for r in rows) <= mean(r["sun_shelf"] for r in rows) + 1e-9,
        "list packing must dominate pack-by-shelves on average",
    )
    table = Table("Sim-B: independent jobs, mean ratio vs exact L_min", rows)
    return table, c.results, {"ours_mean_ratio": mean(r["ours"] for r in rows)}


@register_benchmark(
    "workflow_study",
    description="Pegasus-shaped real workflows: ratio vs LP bound per workflow",
    gates=[_OURS_MEAN_RATIO],
)
def workflow_benchmark() -> Outcome:
    """Montage/CyberShake/Epigenomics/LIGO structures at d=2."""
    from repro.experiments.workflow_study import workflow_comparison

    rows = workflow_comparison(d=2, capacity=16)
    c = Checker()
    c.check(
        "workflow_set",
        {r["workflow"] for r in rows} == {"montage", "cybershake", "epigenomics", "ligo"},
    )
    c.check(
        "within_proven_bounds",
        all(1.0 - 1e-9 <= r["ours"] <= r["proven"] + 1e-9 for r in rows),
    )
    ours_mean = mean(r["ours"] for r in rows)
    c.check(
        "beats_fixed_baselines",
        all(
            ours_mean <= mean(r[b] for r in rows) + 1e-9
            for b in ("min_area", "min_time", "balanced")
        ),
    )
    table = Table("Pegasus workflow study (d=2): ratio vs LP bound", rows)
    return table, c.results, {"ours_mean_ratio": ours_mean}


@register_benchmark(
    "true_ratio",
    description="True ratios T/T_opt against the exact branch-and-bound optimum",
)
def true_ratio_benchmark() -> Outcome:
    """Tiny instances where T_opt is exactly computable."""
    from repro.experiments.extended import true_ratio_study

    rows = true_ratio_study(d_values=(1, 2), n=4, capacity=3, seeds=(0, 1, 2, 3, 4))
    c = Checker()
    c.check(
        "ratio_bounds",
        all(
            1.0 - 1e-9 <= r["mean_true_ratio"] and r["max_true_ratio"] <= r["proven"] + 1e-9
            for r in rows
        ),
    )
    c.check(
        "lb_ratio_overstates",
        all(r["mean_lb_ratio"] >= r["mean_true_ratio"] - 1e-9 for r in rows),
        "the lower-bound ratio must over-state the true one",
    )
    c.check("far_from_worst_case", all(r["mean_true_ratio"] <= 0.6 * r["proven"] for r in rows))
    table = Table("True ratios T/T_opt (exact oracle, tiny instances)", rows)
    return table, c.results, {}
