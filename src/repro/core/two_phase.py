"""The complete multi-resource scheduling algorithm (Sections 4-5).

:class:`MoldableScheduler` glues Phase 1 (resource allocation) to Phase 2
(list scheduling) and selects theorem-optimal parameters automatically:

* general DAGs — the DTCT LP + ρ-rounding + µ-adjustment with ``µ*, ρ*``
  from Theorem 1 (or Theorem 2's numeric optimum for ``d >= 22``);
* independent jobs — Lemma 8's exact allocation (Theorem 5's µ);
* series-parallel graphs / trees — Lemma 7's FPTAS (Theorems 3-4's µ),
  enabled by passing the SP decomposition tree.

Each allocator yields ``p'`` and a certified lower bound; the µ-adjustment,
Phase 2 and the :class:`ScheduleResult` are one tail for all three.  The
result carries the lower bound so callers can report sound empirical
approximation ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import theory
from repro.core.adjustment import adjust_allocation
from repro.core.allocation import Phase1Result, allocate_resources
from repro.core.independent import optimal_independent_allocation
from repro.core.list_scheduler import PriorityRule, fifo_priority, list_schedule
from repro.core.sp_fptas import sp_fptas_allocation
from repro.dag.sp import SPNode
from repro.instance.compiled import Allocation
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy
from repro.registry import register_scheduler
from repro.sim.schedule import Schedule

__all__ = ["ScheduleResult", "MoldableScheduler", "moldable_schedule"]


@dataclass(frozen=True)
class ScheduleResult:
    """A schedule plus the provenance needed to evaluate it.

    ``lower_bound`` is a certified lower bound on the optimal makespan
    (the fractional LP value, Lemma 8's exact ``L_min``, or the FPTAS
    target divided by ``1+ε``), so ``ratio()`` never under-reports.
    """

    schedule: Schedule
    allocation: Allocation
    lower_bound: float
    mu: float
    rho: float | None
    proven_ratio: float
    allocator: str
    phase1: Phase1Result | None = None

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    def ratio(self) -> float:
        """Empirical makespan / certified-lower-bound ratio (>= true ratio
        against ``T_opt`` is unknowable; this is an upper bound on it)."""
        if self.lower_bound <= 0:
            return 1.0
        return self.makespan / self.lower_bound


@dataclass
class MoldableScheduler:
    """Two-phase multi-resource scheduler with theorem defaults.

    Parameters
    ----------
    mu, rho:
        Algorithm parameters; ``None`` selects the theorem-optimal values
        for the instance's ``d`` and the allocator in use.
    allocator:
        ``"auto"`` (independent jobs → Lemma 8, SP tree given → FPTAS,
        otherwise LP), or one of ``"lp"``, ``"independent"``, ``"sp"``.
    strategy:
        Candidate enumeration for Phase 1 (``None`` = geometric grid).
    priority:
        Phase 2 queue priority rule (default FIFO — the paper's baseline).
    epsilon:
        FPTAS accuracy for the SP allocator.
    """

    mu: float | None = None
    rho: float | None = None
    allocator: str = "auto"
    strategy: CandidateStrategy | None = None
    priority: PriorityRule = fifo_priority
    epsilon: float = 0.3
    sp_tree: SPNode | None = None

    def schedule(self, instance: Instance, sp_tree: SPNode | None = None) -> ScheduleResult:
        """Run both phases on ``instance`` and return the result."""
        sp = sp_tree if sp_tree is not None else self.sp_tree
        allocator = self._resolve_allocator(instance, sp)
        graph_class = "general" if allocator == "lp" else allocator
        mu_def, rho_def, ratio = theory.best_parameters(instance.d, graph_class, eps=self.epsilon)
        mu = self.mu if self.mu is not None else mu_def
        rho = phase1 = None
        if allocator == "independent":
            ind = optimal_independent_allocation(instance, self.strategy)
            p_prime, lower_bound = ind.allocation, ind.l_min
        elif allocator == "sp":
            if sp is None:
                raise ValueError("SP allocator requires the SP decomposition tree")
            res = sp_fptas_allocation(instance, sp, self.epsilon, self.strategy)
            # the FPTAS certifies L(p') <= (1+ε) L_min, so L(p')/(1+ε)
            # under-estimates L_min — a sound lower bound
            p_prime, lower_bound = res.allocation, res.l_value / (1.0 + self.epsilon)
        else:
            rho = self.rho if self.rho is not None else rho_def
            phase1 = allocate_resources(instance, rho, mu, self.strategy)
            lower_bound = phase1.lower_bound
        adjustment = phase1.adjustment if phase1 else adjust_allocation(instance, p_prime, mu)
        return ScheduleResult(
            schedule=list_schedule(instance, adjustment.allocation, self.priority),
            allocation=adjustment.allocation,
            lower_bound=lower_bound,
            mu=mu,
            rho=rho,
            proven_ratio=ratio,
            allocator=allocator,
            phase1=phase1,
        )

    # ------------------------------------------------------------------
    def _resolve_allocator(self, instance: Instance, sp: SPNode | None) -> str:
        if self.allocator != "auto":
            if self.allocator not in ("lp", "independent", "sp"):
                raise ValueError(f"unknown allocator {self.allocator!r}")
            return self.allocator
        if instance.dag.is_independent():
            return "independent"
        if sp is not None:
            return "sp"
        return "lp"


@register_scheduler(
    "ours",
    kind="core",
    description="the paper's two-phase algorithm with theorem-optimal parameters",
)
def moldable_schedule(instance: Instance, *, sp_tree: SPNode | None = None, **opts) -> ScheduleResult:
    """Registry entry point: construct a :class:`MoldableScheduler` from
    ``opts`` (``mu``, ``rho``, ``allocator``, ``priority``, ``epsilon``, …)
    and run both phases on ``instance``."""
    return MoldableScheduler(**opts).schedule(instance, sp_tree=sp_tree)


