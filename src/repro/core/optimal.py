"""Exact optimal schedulers for small instances (test/benchmark oracles).

``T_opt`` is strongly NP-complete, but tiny instances can be solved exactly,
which lets the benchmarks report *true* approximation ratios instead of
ratios against lower bounds:

* :func:`optimal_makespan_fixed_allocation` — with allocations fixed, the
  problem is a multi-resource RCPSP.  Every optimal schedule is an *active*
  schedule, and the serial schedule-generation scheme (SGS) enumerated over
  all precedence-feasible job permutations generates all active schedules;
  we branch-and-bound over permutations with critical-path/area pruning.
* :func:`optimal_makespan` — additionally minimizes over the (Pareto)
  candidate allocation combinations.

Complexities are factorial/exponential by design; both functions refuse
instances beyond a configurable size.
"""

from __future__ import annotations

from itertools import product
from typing import Hashable, Mapping

from repro.dag.paths import bottom_levels
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy
from repro.resources.vector import ResourceVector
from repro.sim.schedule import Schedule, ScheduledJob

__all__ = ["optimal_makespan_fixed_allocation", "optimal_makespan"]

JobId = Hashable


def _earliest_start(
    placed: list[ScheduledJob],
    est: float,
    duration: float,
    alloc: ResourceVector,
    caps: ResourceVector,
    d: int,
) -> float:
    """Earliest ``t >= est`` at which ``alloc`` fits for ``duration``
    alongside ``placed``.

    Resource availability only increases at completion times, so candidate
    starts are ``est`` and placed finish times after it.  Feasibility over
    the window ``[t, t + duration)`` is checked at ``t`` and at every placed
    job's start inside the window (the only points where usage can rise).
    """
    candidates = sorted({est} | {p.finish for p in placed if p.finish > est})
    eps = 1e-12
    for t in candidates:
        end = t + duration
        ok = True
        for probe in [t] + [p.start for p in placed if t < p.start < end - eps]:
            usage = [0] * d
            for p in placed:
                if p.start <= probe + eps and probe < p.finish - eps:
                    for r in range(d):
                        usage[r] += p.alloc[r]
            if any(usage[r] + alloc[r] > caps[r] for r in range(d)):
                ok = False
                break
        if ok:
            return t
    # after every placed job finishes there is always room
    return max((p.finish for p in placed), default=est)


def optimal_makespan_fixed_allocation(
    instance: Instance,
    allocation: Mapping[JobId, ResourceVector],
    *,
    max_jobs: int = 9,
) -> tuple[float, Schedule]:
    """Exact minimum makespan for fixed allocations (branch and bound).

    Raises ``ValueError`` beyond ``max_jobs`` jobs (factorial search).
    """
    if instance.n > max_jobs:
        raise ValueError(f"exact search limited to {max_jobs} jobs, got {instance.n}")
    instance.validate_allocation_map(allocation)
    if instance.n == 0:
        return 0.0, Schedule(instance)

    dag = instance.dag
    caps = instance.pool.capacities
    d = instance.d
    times = instance.times(allocation)
    blevel = bottom_levels(dag, times)
    # area floor: remaining work per type / capacity
    best: dict = {"makespan": float("inf"), "placed": None}

    def lower_bound(placed: list[ScheduledJob], remaining: set) -> float:
        cur = max((p.finish for p in placed), default=0.0)
        cp = 0.0
        for j in remaining:
            est = max(
                (p.finish for p in placed if p.job_id in dag_pred_cache[j]), default=0.0
            )
            cp = max(cp, est + blevel[j])
        return max(cur, cp)

    dag_pred_cache = {j: set(dag.predecessors(j)) for j in instance.jobs}

    def dfs(placed: list[ScheduledJob], done: dict[JobId, float], remaining: set) -> None:
        if not remaining:
            mk = max(p.finish for p in placed)
            if mk < best["makespan"] - 1e-12:
                best["makespan"] = mk
                best["placed"] = list(placed)
            return
        if lower_bound(placed, remaining) >= best["makespan"] - 1e-12:
            return
        # eligible: all predecessors already placed
        eligible = [j for j in remaining if dag_pred_cache[j] <= set(done)]
        # heuristic order: largest bottom level first (finds good incumbents early)
        eligible.sort(key=lambda j: -blevel[j])
        for j in eligible:
            est = max((done[p] for p in dag_pred_cache[j]), default=0.0)
            start = _earliest_start(placed, est, times[j], allocation[j], caps, d)
            sj = ScheduledJob(job_id=j, start=start, time=times[j], alloc=allocation[j])
            placed.append(sj)
            done[j] = sj.finish
            remaining.remove(j)
            dfs(placed, done, remaining)
            remaining.add(j)
            del done[j]
            placed.pop()

    dfs([], {}, set(instance.jobs))
    schedule = Schedule(instance, *zip(*best["placed"]))
    schedule.validate()
    return best["makespan"], schedule


def optimal_makespan(
    instance: Instance,
    strategy: CandidateStrategy | None = None,
    *,
    max_jobs: int = 6,
    max_combinations: int = 200_000,
) -> tuple[float, Schedule]:
    """Exact ``T_opt`` over the candidate allocation set (tiny instances).

    Minimizes :func:`optimal_makespan_fixed_allocation` over every
    combination of the *raw* candidate allocations — NOT the Eq. (2)
    Pareto frontier.  Dominance on ``(time, average area)`` is safe for the
    lower-bound functional ``L`` (Lemma 2) but not for the makespan itself:
    a dominating allocation may demand more of some resource type and pack
    strictly worse, so ``T_opt`` can require a dominated allocation.
    Refuses instances whose search space exceeds the limits.
    """
    if instance.n > max_jobs:
        raise ValueError(f"exact search limited to {max_jobs} jobs, got {instance.n}")
    from repro.jobs.candidates import candidates_for_job, geometric_grid

    strat = strategy if strategy is not None else geometric_grid
    candidates = {
        j: candidates_for_job(instance.jobs[j], instance.pool, strat)
        for j in instance.jobs
    }
    jobs = list(instance.jobs)
    combos = 1
    for j in jobs:
        combos *= len(candidates[j])
        if combos > max_combinations:
            raise ValueError(f"allocation search space exceeds {max_combinations}")
    if not jobs:
        return 0.0, Schedule(instance)

    best_mk = float("inf")
    best_sched: Schedule | None = None
    for combo in product(*(candidates[j] for j in jobs)):
        alloc = dict(zip(jobs, combo))
        # cheap prune: L(p) is a lower bound on this combo's makespan
        if instance.lower_bound_functional(alloc) >= best_mk - 1e-12:
            continue
        mk, sched = optimal_makespan_fixed_allocation(instance, alloc, max_jobs=max_jobs)
        if mk < best_mk - 1e-12:
            best_mk, best_sched = mk, sched
    assert best_sched is not None
    return best_mk, best_sched
