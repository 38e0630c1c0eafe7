"""Empirical verification of the proof machinery on concrete schedules.

Beyond the approximation theorem itself, the paper's proof rests on two
schedule-level inequalities that any Algorithm 2 schedule must satisfy when
the allocation came from Algorithm 1:

* **Lemma 5 (critical-path bound)**: ``T1 + µ·T2 <= C(p')``;
* **Lemma 6 (area bound)**: ``µ·T2 + (1−µ)·T3 <= d·A(p')`` when
  ``P_min >= 1/µ²``;

where ``T1/T2/T3`` are the durations of the I1/I2/I3 interval categories of
Section 4.2.2 and ``p'`` is the pre-adjustment allocation.  Verifying them
on concrete schedules is a much sharper implementation check than the
end-to-end ratio alone — :func:`verify_lemma_bounds` does exactly that, and
the invariant tests use it as their proof oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import Phase1Result
from repro.sim.intervals import classify_intervals
from repro.sim.schedule import Schedule

__all__ = ["LemmaCheck", "verify_lemma_bounds"]


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of the Lemma 5/6 verification on one schedule."""

    t1: float
    t2: float
    t3: float
    critical_path_pprime: float
    total_area_pprime: float
    lemma5_lhs: float
    lemma5_rhs: float
    lemma6_lhs: float
    lemma6_rhs: float
    lemma5_holds: bool
    lemma6_holds: bool
    capacity_precondition: bool

    @property
    def all_hold(self) -> bool:
        """Both inequalities hold (Lemma 6 only required when the capacity
        precondition ``P_min >= 1/µ²`` is met)."""
        return self.lemma5_holds and (self.lemma6_holds or not self.capacity_precondition)


def verify_lemma_bounds(schedule: Schedule, phase1: Phase1Result, *, rtol: float = 1e-9) -> LemmaCheck:
    """Check Lemmas 5-6 on a Phase 2 schedule produced from ``phase1``."""
    inst = schedule.instance
    mu = phase1.mu
    cls = classify_intervals(schedule, mu)
    c_pprime = inst.critical_path(phase1.p_prime)
    a_pprime = inst.total_area(phase1.p_prime)
    d = inst.d

    lemma5_lhs = cls.t1 + mu * cls.t2
    lemma6_lhs = mu * cls.t2 + (1.0 - mu) * cls.t3
    lemma6_rhs = d * a_pprime
    tol5 = rtol * max(1.0, c_pprime)
    tol6 = rtol * max(1.0, lemma6_rhs)
    return LemmaCheck(
        t1=cls.t1,
        t2=cls.t2,
        t3=cls.t3,
        critical_path_pprime=c_pprime,
        total_area_pprime=a_pprime,
        lemma5_lhs=lemma5_lhs,
        lemma5_rhs=c_pprime,
        lemma6_lhs=lemma6_lhs,
        lemma6_rhs=lemma6_rhs,
        lemma5_holds=lemma5_lhs <= c_pprime + tol5,
        lemma6_holds=lemma6_lhs <= lemma6_rhs + tol6,
        capacity_precondition=inst.pool.supports_mu(mu),
    )
