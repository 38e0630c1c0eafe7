"""Request tracing: a bounded ring of ``{rid, tenant, op, phase, t0, dur}``
spans.

One :class:`SpanLog` per front-end records what happened to a request
as it moves through the stack — ``request`` around the whole request,
``admit`` at flush time, ``journal-commit`` around the write-ahead
append, ``dispatch`` around the engine advance.  The log is a
fixed-capacity deque (oldest spans fall off), queryable by ``rid`` through the ``spans`` wire op and dumpable by
:meth:`ServiceClient.dump_spans`.

``clock`` is injectable (tests pass a fake), defaulting to
:func:`time.monotonic`; ``t0`` values are therefore *per-process*
monotonic stamps — comparable within one span log, not across processes.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable

__all__ = ["Span", "SpanLog"]


class Span:
    """One recorded phase of one request's journey."""

    __slots__ = ("rid", "tenant", "op", "phase", "t0", "dur")

    def __init__(
        self,
        op: str,
        phase: str,
        t0: float,
        dur: float,
        rid: Any = None,
        tenant: "str | None" = None,
    ) -> None:
        self.op = op
        self.phase = phase
        self.t0 = t0
        self.dur = dur
        self.rid = rid
        self.tenant = tenant

    def to_dict(self) -> dict[str, Any]:
        return {
            "rid": self.rid,
            "tenant": self.tenant,
            "op": self.op,
            "phase": self.phase,
            "t0": self.t0,
            "dur": self.dur,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(op={self.op!r}, phase={self.phase!r}, rid={self.rid!r}, "
            f"t0={self.t0:.6f}, dur={self.dur:.6f})"
        )


class SpanLog:
    """A fixed-capacity ring buffer of :class:`Span` records."""

    def __init__(
        self,
        capacity: int = 2048,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"span log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock
        self._ring: deque[Span] = deque(maxlen=capacity)
        self.recorded = 0  # lifetime count (the ring only keeps the tail)

    def now(self) -> float:
        """The log's clock — callers stamp ``t0`` with this."""
        return self.clock()

    def record(
        self,
        op: str,
        phase: str,
        t0: float,
        dur: float,
        *,
        rid: Any = None,
        tenant: "str | None" = None,
    ) -> None:
        self._ring.append(Span(op, phase, t0, dur, rid=rid, tenant=tenant))
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._ring)

    def snapshot(
        self, *, rid: Any = None, limit: "int | None" = None
    ) -> list[dict[str, Any]]:
        """The retained spans as dicts, oldest first; ``rid`` filters to
        one request, ``limit`` keeps only the newest N after filtering."""
        spans = [s for s in self._ring if rid is None or s.rid == rid]
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return [s.to_dict() for s in spans]

    def clear(self) -> None:
        self._ring.clear()
