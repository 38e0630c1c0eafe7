"""The shared event-driven simulation engine.

* :mod:`repro.engine.dispatch` — the event loops over the
  compiled-instance lowering (:mod:`repro.instance.compiled`): Algorithm
  2's priority scan (``PriorityLoop``, the batch kernel: a fixed job set,
  run once to completion, one output — the start log;
  ``IncrementalPriorityLoop``, the one resumable loop, behind the online
  session and ``repro schedule --follow`` — one python-int demand image
  and one sorted-list ready queue in both, for any ``d``),
  ``run_dynamic`` for dispatch-time allocation policies (Tetris, HEFT),
  and the batch rule :data:`~repro.engine.dispatch.TIME_EPS` all of them
  share;
* :mod:`repro.engine.shelves` — first-fit shelf packing (pack scheduling);
* :mod:`repro.engine.profile` — future-availability reservations
  (conservative backfilling).

The malleable scheduler (:mod:`repro.malleable.scheduler`) runs its own
unit-step loop.  Every scheduler in :mod:`repro.core`,
:mod:`repro.baselines` and :mod:`repro.malleable` is reached through the
named-scheduler registry in :mod:`repro.registry`.
"""

from repro.engine.dispatch import TIME_EPS, run_dynamic
from repro.engine.profile import ReservationProfile
from repro.engine.shelves import Shelf, pack_shelves, stack_shelves

__all__ = [
    "TIME_EPS",
    "ReservationProfile",
    "Shelf",
    "pack_shelves",
    "run_dynamic",
    "stack_shelves",
]
