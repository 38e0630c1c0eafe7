"""The shared event-driven simulation engine.

* :mod:`repro.engine.dispatch` — the two queue disciplines over the
  compiled-instance lowering (:mod:`repro.instance.compiled`): Algorithm
  2's priority scan (``PriorityLoop`` for a fixed job set,
  ``IncrementalPriorityLoop`` for the online service — one python-int
  demand image and one sorted-list ready queue in both, for any ``d``)
  and dispatch-time allocation policies;
* :mod:`repro.engine.kernel` — the callback-driven discrete-event core
  (virtual time, one event heap of completions and releases, numpy-vector
  resource accounting) under the policy driver, the malleable scheduler
  and the PR-1 reference;
* :mod:`repro.engine.shelves` — first-fit shelf packing (pack scheduling);
* :mod:`repro.engine.profile` — future-availability reservations
  (conservative backfilling);
* :mod:`repro.engine.reference` — the frozen loops of earlier
  generations (pre-kernel python and the PR-1 kernel driver), kept only
  for differential tests and benchmarks.

Every scheduler in :mod:`repro.core`, :mod:`repro.baselines` and
:mod:`repro.malleable` runs on this engine; the named-scheduler registry
in :mod:`repro.registry` is the front door.
"""

from repro.engine.dispatch import drive_policy_schedule
from repro.engine.kernel import COMPLETE, RELEASE, TIME_EPS, EventKernel
from repro.engine.profile import ReservationProfile
from repro.engine.shelves import Shelf, pack_shelves, stack_shelves

__all__ = [
    "COMPLETE",
    "RELEASE",
    "TIME_EPS",
    "EventKernel",
    "ReservationProfile",
    "Shelf",
    "drive_policy_schedule",
    "pack_shelves",
    "stack_shelves",
]
