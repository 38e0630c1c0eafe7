"""Conformance subsystem: strict schedule validation + differential fuzzing.

The paper's claims (the (d·φ)-approximation, the Lemma 5/6 bounds, every
baseline comparison) are only as trustworthy as the schedules the kernel
emits.  This package is the machinery that keeps them trustworthy:

* :mod:`repro.conformance.invariants` — a strict, standalone schedule
  validator (per-event-point capacity feasibility for every resource type,
  strict precedence, release-time gating, candidate-set membership,
  duration consistency, job-set equality).  It subsumes
  :meth:`repro.sim.schedule.Schedule.validate`, which delegates to it.
* :mod:`repro.conformance.fuzz` — a seeded differential fuzz harness that
  sweeps every registered scheduler across the workload families ×
  resource dimensions × capacity regimes × arrival/service/crash
  scenarios, runs the strict validator on every schedule, races the batch
  dispatch loop against the session loop event for event, and asserts
  serialize/trace round-trip schedule identity.

Run it from the CLI: ``python -m repro fuzz --quick``.
"""

from repro.conformance.invariants import (
    ConformanceReport,
    ScheduleConformanceError,
    Violation,
    assert_conformant,
    validate_schedule,
)

__all__ = [
    "ConformanceReport",
    "ScheduleConformanceError",
    "Violation",
    "assert_conformant",
    "validate_schedule",
]
