"""The shared discrete-event simulation kernel: virtual time + resources.

Every scheduler in this repository ultimately runs the same loop: start work
that fits the available resources, advance virtual time to the next event,
release what completed, repeat.  :class:`EventKernel` is that loop in
callback form, for schedulers whose dispatch step is arbitrary python —
the dispatch-time allocation policies (Tetris and HEFT, through
:func:`repro.engine.dispatch.drive_policy_schedule`), the malleable
scheduler and the frozen PR-1 reference:

* a virtual clock and a single event heap carrying *completions* and *job
  releases* (online-arrival scenarios);
* numpy-vector resource accounting — acquisitions and releases are whole
  vector operations, and dispatchers can test feasibility of an entire
  ready queue with one vectorized comparison instead of per-type Python
  loops;
* the driving loop alternating dispatch passes with event batches.

Algorithm 2's priority scan does not run here: its allocations are fixed
up front, so :class:`repro.engine.dispatch.PriorityLoop` carries heap,
batching and accounting as flat arrays in its own ``run``.  The two share
:data:`TIME_EPS` and the batch rule (events within it of the first popped
one form one batch), which is what keeps their schedules identical.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["COMPLETE", "RELEASE", "TIME_EPS", "EventKernel"]

#: Event kinds carried on the kernel's heap.
COMPLETE = "complete"
RELEASE = "release"

#: Events within this tolerance of the earliest pending one are popped and
#: processed as a single batch — the tolerance the scheduling loops have
#: always used for simultaneous completions.
TIME_EPS = 1e-12


class EventKernel:
    """Discrete-event core: virtual time, one event heap, vector resources.

    Parameters
    ----------
    capacities:
        Per-type total resource amounts ``P^(i)``.
    time_eps:
        Batch tolerance for simultaneous events (see :data:`TIME_EPS`).
    """

    __slots__ = ("now", "time_eps", "_heap", "_seq", "_avail", "_caps")

    def __init__(self, capacities: Sequence[int], *, time_eps: float = TIME_EPS) -> None:
        self._caps = np.asarray(tuple(capacities), dtype=np.int64)
        if self._caps.ndim != 1 or not len(self._caps) or (self._caps <= 0).any():
            raise ValueError(f"capacities must be a positive vector, got {capacities!r}")
        self._avail = self._caps.copy()
        self.now = 0.0
        self.time_eps = time_eps
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = 0

    # ------------------------------------------------------------------
    # resource accounting (numpy vectors)
    # ------------------------------------------------------------------
    @property
    def capacities(self) -> np.ndarray:
        """Per-type capacities (do not mutate)."""
        return self._caps

    @property
    def available(self) -> np.ndarray:
        """The live availability vector (a view — do not mutate directly)."""
        return self._avail

    def acquire(self, demand: Sequence[int]) -> None:
        """Subtract ``demand`` from the availability vector."""
        self._avail -= demand
        if (self._avail < 0).any():
            self._avail += demand
            raise RuntimeError(
                f"overcommitted: demand {tuple(int(x) for x in np.asarray(demand))} "
                f"exceeds availability {tuple(int(x) for x in self._avail)}"
            )

    def release(self, demand: Sequence[int]) -> None:
        """Return ``demand`` to the availability vector."""
        self._avail += demand
        if (self._avail > self._caps).any():
            self._avail -= demand
            raise RuntimeError("released more resources than were acquired")

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def push_event(self, time: float, kind: str, payload: Any) -> None:
        """Schedule an event; ``payload`` is opaque to the kernel."""
        if time < self.now - self.time_eps:
            raise ValueError(f"cannot schedule an event in the past ({time} < {self.now})")
        heapq.heappush(self._heap, (float(time), self._seq, kind, payload))
        self._seq += 1

    def start(self, payload: Any, demand: Sequence[int], duration: float) -> float:
        """Acquire ``demand`` now and schedule completion after ``duration``."""
        self.acquire(demand)
        finish = self.now + duration
        self.push_event(finish, COMPLETE, payload)
        return finish

    def hold(self, payload: Any, duration: float) -> float:
        """Schedule a completion for work whose resources the caller has
        already acquired (a dispatcher that acquires one pass's starts in
        one :meth:`acquire`)."""
        finish = self.now + duration
        self.push_event(finish, COMPLETE, payload)
        return finish

    def schedule_release(self, time: float, payload: Any) -> None:
        """Announce that ``payload`` becomes known/ready-eligible at ``time``."""
        self.push_event(time, RELEASE, payload)

    @property
    def pending(self) -> int:
        """Number of events still on the heap."""
        return len(self._heap)

    @property
    def next_time(self) -> float | None:
        """Time of the earliest pending event (``None`` when drained)."""
        return self._heap[0][0] if self._heap else None

    def pop_batch(self) -> list[tuple[str, Any]]:
        """Advance the clock to the next event and pop it together with every
        event within ``time_eps`` of it (anchored at the first event's time)."""
        heap = self._heap
        if not heap:
            raise RuntimeError("pop_batch called on an empty event heap")
        t, _, kind, payload = heapq.heappop(heap)
        self.now = t
        batch = [(kind, payload)]
        horizon = t + self.time_eps
        while heap and heap[0][0] <= horizon:
            _, _, k2, p2 = heapq.heappop(heap)
            batch.append((k2, p2))
        return batch

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(
        self,
        dispatch: Callable[["EventKernel"], None],
        handle: Callable[["EventKernel", str, Any], None],
    ) -> None:
        """Alternate dispatch passes and event batches until quiescent.

        ``dispatch(kernel)`` is called at time 0 and after every event batch;
        it starts work via :meth:`start`.  ``handle(kernel, kind, payload)``
        processes one popped event (releasing resources, updating
        readiness).  The loop ends when the heap is empty and
        the final dispatch pass starts nothing; callers are responsible for
        detecting deadlock (work left unplaced) afterwards.
        """
        dispatch(self)
        while self._heap:
            for kind, payload in self.pop_batch():
                handle(self, kind, payload)
            dispatch(self)
