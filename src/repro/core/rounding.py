"""Alternative roundings of the fractional DTCT solution (ablation study).

Phase 1's deterministic ρ-quantile rounding (Lemma 3) is what the proofs
use, but other roundings of the same fractional solution are natural and
worth comparing empirically:

* :func:`randomized_rounding` — sample each job's candidate from its
  fractional distribution; in expectation both the time and the cost of
  every job equal their fractional values, so ``E[C] <= C_frac`` per path
  and ``E[A] = A_frac`` — but without the per-job worst-case guarantee;
  repeated trials keep the sample minimizing ``L(p')``.
* :func:`best_quantile_rounding` — sweep ρ over a grid and keep the rounded
  allocation minimizing ``L(p')`` (still inherits Lemma 3's guarantee for
  the *chosen* ρ, and can only improve on any single choice).

Both produce drop-in replacements for Step 2's output; the registered
``ablation_rounding`` benchmark (``repro bench --only ablation_rounding``)
compares them end-to-end.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.dtct import FractionalSolution, round_fractional, solve_dtct_lp
from repro.instance.instance import Instance
from repro.jobs.profiles import ProfileEntry
from repro.resources.vector import ResourceVector
from repro.util.rng import ensure_rng

__all__ = ["randomized_rounding", "best_quantile_rounding"]

JobId = Hashable


def randomized_rounding(
    instance: Instance,
    table: Mapping[JobId, Sequence[ProfileEntry]],
    solution: FractionalSolution,
    *,
    trials: int = 16,
    seed: int | np.random.Generator | None = None,
) -> dict[JobId, ResourceVector]:
    """Sample candidates from the fractional distribution, keep the best trial.

    "Best" = smallest ``L(p') = max(A(p'), C(p'))``, the quantity the second
    phase's analysis consumes.  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = ensure_rng(seed)
    jobs = list(solution.fractions)
    best_alloc: dict[JobId, ResourceVector] | None = None
    best_l = float("inf")
    for _ in range(trials):
        alloc: dict[JobId, ResourceVector] = {}
        for j in jobs:
            x = solution.fractions[j]
            k = int(rng.choice(len(x), p=x / x.sum()))
            alloc[j] = table[j][k].alloc
        l = instance.lower_bound_functional(alloc)
        if l < best_l:
            best_l, best_alloc = l, alloc
    assert best_alloc is not None
    return best_alloc


def best_quantile_rounding(
    instance: Instance,
    table: Mapping[JobId, Sequence[ProfileEntry]],
    solution: FractionalSolution,
    *,
    rhos: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
) -> tuple[dict[JobId, ResourceVector], float]:
    """Quantile rounding swept over ρ; returns (allocation, chosen ρ).

    Each candidate allocation satisfies Lemma 3 for its own ρ, so the
    returned one satisfies it for the returned ρ.
    """
    if not rhos:
        raise ValueError("rhos must be non-empty")
    best: tuple[float, dict[JobId, ResourceVector], float] | None = None
    for rho in rhos:
        alloc = round_fractional(table, solution, rho)
        l = instance.lower_bound_functional(alloc)
        if best is None or l < best[0]:
            best = (l, alloc, rho)
    assert best is not None
    return best[1], best[2]


def compare_roundings(
    instance: Instance,
    *,
    rho: float,
    trials: int = 16,
    seed: int = 0,
) -> dict[str, float]:
    """Evaluate ``L(p')`` of the three roundings on one instance (ablation
    helper; returns the values keyed by rounding name)."""
    table = instance.candidate_table()
    solution = solve_dtct_lp(instance, table)
    quantile = round_fractional(table, solution, rho)
    randomized = randomized_rounding(instance, table, solution, trials=trials, seed=seed)
    swept, swept_rho = best_quantile_rounding(instance, table, solution)
    return {
        "lp_bound": solution.lower_bound,
        "quantile": instance.lower_bound_functional(quantile),
        "randomized": instance.lower_bound_functional(randomized),
        "best_quantile": instance.lower_bound_functional(swept),
        "best_quantile_rho": swept_rho,
    }
