"""Phase 1 — resource allocation (Algorithm 1).

Step 1 evaluates every candidate and discards the dominated ones (all jobs
at once, inside :meth:`Instance.candidate_table`:
:func:`repro.jobs.vectorized.candidate_columns` and
:func:`repro.jobs.profiles.pareto_rows`), Step 2 solves + rounds the DTCT
relaxation (:mod:`repro.core.dtct`), and Step 3 applies the µ-adjustment
(:mod:`repro.core.adjustment`).  The table stays in columns from Step 1 to
the chosen allocation: no step builds a per-candidate object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.adjustment import AdjustmentResult, adjust_allocation
from repro.core.dtct import FractionalSolution, dtct_allocate
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy
from repro.jobs.profiles import CandidateTable
from repro.resources.vector import ResourceVector

__all__ = ["Phase1Result", "allocate_resources"]

JobId = Hashable


@dataclass(frozen=True)
class Phase1Result:
    """Everything produced by Algorithm 1.

    Attributes
    ----------
    p_prime:
        The initial (rounded) allocation satisfying Lemma 3.
    allocation:
        The final µ-adjusted allocation ``p`` handed to Phase 2.
    fractional:
        The LP solution; ``fractional.lower_bound`` certifies
        ``L_LP <= T_opt``.
    adjustment:
        Which jobs were capped, and the caps.
    rho, mu:
        The parameters used.
    table:
        The per-job non-dominated candidate frontiers (Step 1's output): a
        mapping job → entries, held in columns.
    """

    p_prime: dict[JobId, ResourceVector]
    allocation: dict[JobId, ResourceVector]
    fractional: FractionalSolution
    adjustment: AdjustmentResult
    rho: float
    mu: float
    table: CandidateTable

    @property
    def lower_bound(self) -> float:
        """``L_LP`` — certified lower bound on the optimal makespan."""
        return self.fractional.lower_bound


def allocate_resources(
    instance: Instance,
    rho: float,
    mu: float,
    strategy: CandidateStrategy | None = None,
) -> Phase1Result:
    """Run Algorithm 1 with explicit parameters ``ρ`` and ``µ``."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"ρ must lie in (0, 1), got {rho}")
    table = instance.candidate_table(strategy)          # Step 1 (Eq. 2)
    p_prime, fractional = dtct_allocate(instance, table, rho)  # Step 2 (Lemma 3)
    adjustment = adjust_allocation(instance, p_prime, mu)      # Step 3 (Eq. 5)
    return Phase1Result(
        p_prime=p_prime,
        allocation=adjustment.allocation,
        fractional=fractional,
        adjustment=adjustment,
        rho=rho,
        mu=mu,
        table=table,
    )
