"""Simulation sweeps: the evaluation study (Sim-A/Sim-B and ablations).

Every function returns plain ``list[dict]`` rows ready for
:func:`repro.experiments.report.format_table`, and is deterministic for
fixed seeds.  Each sweep is run by one registered ``repro bench`` spec
(:mod:`repro.bench.suites`), which pins its parameters.
"""

from __future__ import annotations

from statistics import mean
from typing import Sequence

from repro.core import theory
from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    list_schedule,
    lpt_priority,
    random_priority,
    spt_priority,
)
from repro.core.lower_bounds import lp_lower_bound
from repro.experiments.lb_instance import (
    adversarial_priority,
    informed_priority,
    lower_bound_instance,
    theoretical_makespans,
)
from repro.experiments.workloads import random_instance
from repro.registry import available_schedulers, get_scheduler
from repro.resources.pool import ResourcePool

__all__ = [
    "algorithm_comparison",
    "independent_comparison",
    "mu_rho_ablation",
    "priority_ablation",
    "theorem6_sweep",
]


def _sim_a_cell(
    family: str, d: int, n: int, capacity: int, seed: int, schedulers: tuple[str, ...]
) -> dict[str, float]:
    """One Sim-A (family, d, seed) cell: ratio per scheduler."""
    pool = ResourcePool.uniform(d, capacity)
    wl = random_instance(family, n, pool, seed=seed)
    inst = wl.instance
    lb = lp_lower_bound(inst)
    res = get_scheduler("ours").schedule(inst, allocator="lp")
    res.schedule.validate()
    out = {"ours": res.makespan / lb}
    for name in schedulers:
        b = get_scheduler(name).schedule(inst)
        b.schedule.validate()
        out[name] = b.makespan / lb
    return out


def algorithm_comparison(
    families: Sequence[str] = ("layered", "cholesky", "forkjoin", "outtree"),
    d_values: Sequence[int] = (1, 2, 3, 4),
    *,
    n: int = 30,
    capacity: int = 16,
    seeds: Sequence[int] = (0, 1, 2),
    schedulers: Sequence[str] | None = None,
) -> list[dict]:
    """Sim-A: mean makespan / LP-lower-bound ratio, ours vs. baselines.

    One row per (family, d) with the mean ratio of each algorithm over the
    seeds, plus the proven bound for reference.  ``schedulers`` defaults to
    every registered DAG-capable baseline (see :mod:`repro.registry`), so
    newly registered schedulers join the comparison automatically.
    """
    if schedulers is None:
        schedulers = available_schedulers(kind="baseline", graphs="any")
    schedulers = tuple(schedulers)
    rows: list[dict] = []
    for family in families:
        for d in d_values:
            cells = [_sim_a_cell(family, d, n, capacity, seed, schedulers)
                     for seed in seeds]
            row = {"family": family, "d": d, "proven": theory.theorem1_ratio(d)}
            row.update({
                name: mean(c[name] for c in cells) for name in ("ours", *schedulers)
            })
            rows.append(row)
    return rows


def _sim_b_cell(d: int, n: int, capacity: int, seed: int) -> tuple[float, float, float]:
    """One Sim-B (d, seed) cell: (ours, sun_list, sun_shelf) ratios."""
    pool = ResourcePool.uniform(d, capacity)
    wl = random_instance("independent", n, pool, seed=seed)
    inst = wl.instance
    res = get_scheduler("ours").schedule(inst, allocator="independent")
    res.schedule.validate()
    lb = res.lower_bound
    bl = get_scheduler("sun_list").schedule(inst)
    bl.schedule.validate()
    bs = get_scheduler("sun_shelf").schedule(inst)
    bs.schedule.validate()
    return res.makespan / lb, bl.makespan / lb, bs.makespan / lb


def independent_comparison(
    d_values: Sequence[int] = (1, 2, 3, 4),
    *,
    n: int = 40,
    capacity: int = 16,
    seeds: Sequence[int] = (0, 1, 2, 3),
) -> list[dict]:
    """Sim-B: independent jobs — ours (Theorem 5) vs. Sun et al. [36].

    Ratios are against the *exact* ``L_min`` (Lemma 8), so they are true
    upper bounds on the approximation factor achieved.
    """
    rows: list[dict] = []
    for d in d_values:
        ours, sun_list, sun_shelf = zip(
            *(_sim_b_cell(d, n, capacity, seed) for seed in seeds)
        )
        rows.append(
            {
                "d": d,
                "ours": mean(ours),
                "sun_list": mean(sun_list),
                "sun_shelf": mean(sun_shelf),
                "proven_ours": theory.theorem5_ratio(d),
                "proven_sun_list": 2.0 * d,
                "proven_sun_shelf": 2.0 * d + 1.0,
            }
        )
    return rows


def mu_rho_ablation(
    d: int = 3,
    *,
    n: int = 30,
    capacity: int = 16,
    mus: Sequence[float] = (0.15, 0.25, 0.382, 0.45),
    rhos: Sequence[float] = (0.2, 0.31, 0.5, 0.7),
    seeds: Sequence[int] = (0, 1, 2),
    family: str = "layered",
) -> list[dict]:
    """Ablation-µ/ρ: sensitivity of the measured ratio to the parameters.

    The theorem-optimal pair is included (µ=0.382, ρ=Theorem 1's choice ≈
    the second value for d=3) so the sweep shows where theory sits in the
    practical landscape.
    """
    pool = ResourcePool.uniform(d, capacity)
    workloads = [random_instance(family, n, pool, seed=s) for s in seeds]
    lbs = [lp_lower_bound(w.instance) for w in workloads]
    rows: list[dict] = []
    ours = get_scheduler("ours")
    for mu in mus:
        for rho in rhos:
            rs = []
            for wl, lb in zip(workloads, lbs):
                res = ours.schedule(wl.instance, mu=mu, rho=rho, allocator="lp")
                rs.append(res.makespan / lb)
            rows.append({"mu": mu, "rho": rho, "mean_ratio": mean(rs), "max_ratio": max(rs)})
    return rows


def priority_ablation(
    d: int = 3,
    *,
    n: int = 40,
    capacity: int = 16,
    seeds: Sequence[int] = (0, 1, 2, 3),
    families: Sequence[str] = ("layered", "cholesky"),
) -> list[dict]:
    """Ablation-priority: Phase 2 queue orders, local vs. global.

    The allocation is fixed (Phase 1 with theorem parameters); only the list
    order changes, isolating the priority rule's effect.
    """
    rules = {
        "fifo": fifo_priority,
        "lpt": lpt_priority,
        "spt": spt_priority,
        "random": random_priority(123),
        "bottom_level": bottom_level_priority,
    }
    ours = get_scheduler("ours")
    rows: list[dict] = []
    for family in families:
        pool = ResourcePool.uniform(d, capacity)
        accum = {name: [] for name in rules}
        for seed in seeds:
            wl = random_instance(family, n, pool, seed=seed)
            inst = wl.instance
            base = ours.schedule(inst, allocator="lp")
            lb = base.lower_bound
            for name, rule in rules.items():
                sched = list_schedule(inst, base.allocation, rule)
                sched.validate()
                accum[name].append(sched.makespan / lb)
        row = {"family": family, "d": d}
        row.update({name: mean(v) for name, v in accum.items()})
        rows.append(row)
    return rows


def theorem6_sweep(
    d_values: Sequence[int] = (2, 3, 4, 5, 6),
    m_values: Sequence[int] = (12, 24, 48),
) -> list[dict]:
    """Figure 2 / Theorem 6: measured adversarial vs. informed makespans.

    Asserts nothing itself; the benchmark asserts the measured values match
    the closed forms and that the ratio approaches ``d``.
    """
    rows: list[dict] = []
    for d in d_values:
        for m in m_values:
            inst = lower_bound_instance(d, m)
            s_adv = list_schedule(inst, {j: inst.jobs[j].candidates[0] for j in inst.jobs},
                                  adversarial_priority(inst))
            s_opt = list_schedule(inst, {j: inst.jobs[j].candidates[0] for j in inst.jobs},
                                  informed_priority(inst))
            s_adv.validate()
            s_opt.validate()
            theo = theoretical_makespans(d, m)
            rows.append(
                {
                    "d": d,
                    "M": m,
                    "T_adversarial": s_adv.makespan,
                    "T_informed": s_opt.makespan,
                    "measured_ratio": s_adv.makespan / s_opt.makespan,
                    "closed_form_ratio": theo["ratio"],
                    "theorem6_bound": theo["theorem6_bound"],
                }
            )
    return rows
