"""Weighted fair-share admission queue (stride scheduling over tenants).

The :class:`~repro.service.frontend.ServiceFrontend` buffers every
submission here and drains it, at flush time, in weighted-fair order.

Each tenant owns a FIFO buffer; draining interleaves tenants by stride
scheduling: tenant ``T`` with weight ``w`` pays ``1/w`` virtual admission
time per job, and the pending job with the smallest ``(vtime, tenant
name)`` goes next.  A tenant (re)entering after idling starts at the
current virtual floor, so saved-up idle time cannot be hoarded into a
burst.

**Bookkeeping is per request, results are per job.**  The front-end hands
over a parsed request in one :meth:`FairQueue.enqueue_many` call; per
job that is a deque append, and everything else — tenant lookup (per run
of one tenant), the ``max_pending`` bound, gauges (once per tenant
touched) and the arrival log — happens per request.  The arrival log,
one ``(stamp, jobs)`` entry per request, is the queue's only record of
*when* work arrived, and the queue owns it: the front-end asks
:meth:`FairQueue.oldest_stamp` whether the batch interval is due (a
cancelled job's request leaves the log once all its jobs are gone, so
younger jobs never inherit its wait), and :meth:`FairQueue.drain_fair`
clears it.

**The drain is run-length, and bit-identical to the per-job rule.**
Picking ``min(active)`` once per job is O(jobs × tenants).  Instead the
queue picks the minimum tenant, takes the runner-up's ``(vtime, name)``
as a bound and pops from the pick for as long as it stays strictly ahead
of that bound — exactly the jobs for which the per-job rule would have
picked it again, since nobody else's ``vtime`` moves meanwhile.  Each pop
still performs the rule's own ``vtime += 1.0 / weight``, one addition
per job in the same order, so every ``vtime``, the floor and the output
order are the same floats and the same list at O(jobs + switches ×
tenants); ``tests/test_fairshare.py`` holds it to the frozen per-job
loop with non-dyadic weights.  The order is a function of the arrival
stream alone — however a client cuts it into requests.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import groupby
from operator import attrgetter
from typing import Any, Iterable

from repro.service.session import JobSpec, real_number

__all__ = ["FairQueue", "Tenant"]

_ID = attrgetter("id")
_TENANT = attrgetter("tenant")
_STRIDE_KEY = attrgetter("vtime", "name")


class Tenant:
    """One tenant's FIFO buffer and its stride-scheduling state."""

    __slots__ = ("name", "weight", "buffer", "vtime")

    def __init__(self, name: str, weight: float = 1.0) -> None:
        self.name = name
        self.weight = weight
        self.buffer: deque[JobSpec] = deque()
        self.vtime = 0.0


class FairQueue:
    """Per-tenant buffers with weighted-fair draining."""

    def __init__(self) -> None:
        self.tenants: dict[str, Tenant] = {}
        self.buffered = 0
        self._vfloor = 0.0  # virtual admission time of the last drained job
        # what is buffered, as it arrived: one ``(stamp, jobs)`` entry per
        # request — the batch-interval clock reads it
        self._arrivals: list[tuple[float, list[JobSpec]]] = []
        self._m_depth = None  # bound gauges (None = uninstrumented)
        self._m_lag = None

    def bind_metrics(self, registry) -> None:
        """Publish per-tenant queue depth and stride lag as gauges."""
        self._m_depth = registry.gauge(
            "repro_queue_depth",
            "Buffered submissions per tenant awaiting admission",
            labels=("tenant",),
        )
        self._m_lag = registry.gauge(
            "repro_queue_stride_lag",
            "Tenant virtual admission time minus the queue's virtual floor",
            labels=("tenant",),
        )
        for t in self.tenants.values():
            self._m_depth.set(len(t.buffer), tenant=t.name)
            self._m_lag.set(t.vtime - self._vfloor, tenant=t.name)

    def _observe(self, t: Tenant) -> None:
        self._m_depth.set(len(t.buffer), tenant=t.name)
        self._m_lag.set(t.vtime - self._vfloor, tenant=t.name)

    def tenant(self, name: str) -> Tenant:
        t = self.tenants.get(name)
        if t is None:
            t = self.tenants[name] = Tenant(name)
        return t

    def set_weight(self, name: str, weight: float) -> None:
        """Set a tenant's weight.  This is the only way a weight gets in,
        so it holds the one rule the stride arithmetic needs: a real number
        (no JSON boolean) whose step ``1.0 / weight`` is finite and
        positive.  A step of ``0.0`` (weight ``inf``) never advances the
        tenant's ``vtime`` — once picked, its whole buffer drains before
        anyone's second job; a step of ``inf`` (weight ``1e-320``) sends
        the virtual floor to ``inf``, where every tenant ties for the life
        of the process.  Refused with ``ValueError``, nothing mutated."""
        try:
            w = real_number(weight)
        except OverflowError:  # an integer past float range
            w = math.inf
        if not (w > 0 and 0.0 < 1.0 / w < math.inf):
            raise ValueError(
                "tenant weight must be a positive number with a finite, "
                f"non-zero stride step 1/weight, got {weight!r}"
            )
        self.tenant(name).weight = w

    def weight_of(self, name: str) -> float:
        t = self.tenants.get(name)
        return t.weight if t is not None else 1.0

    def depth(self, name: str) -> int:
        t = self.tenants.get(name)
        return len(t.buffer) if t is not None else 0

    def enqueue_many(
        self, specs: Iterable[JobSpec], stamp: float, limit: "int | None" = None
    ) -> list[Any]:
        """Buffer one request's jobs, in order, under one wall-clock
        ``stamp``; returns the ids refused because their tenant's buffer
        already held ``limit`` (>= 1) jobs — bounded buffers refuse
        explicitly instead of growing, the client backs off and retries.

        The work per job is a deque append; tenant lookup and
        (re)activation happen per run of one tenant, the arrival log and
        the gauges per request.
        """
        refused: list[Any] = []
        accepted: list[JobSpec] = []
        touched: dict[str, Tenant] = {}
        for name, run in groupby(specs, _TENANT):
            t = touched[name] = self.tenant(name)
            buf = t.buffer
            if not buf:
                # (re)activation: start at the virtual floor — idle time is
                # not banked into an admission burst
                t.vtime = max(t.vtime, self._vfloor)
            run = list(run)
            if limit is not None and len(buf) + len(run) > limit:
                room = max(limit - len(buf), 0)
                refused.extend(map(_ID, run[room:]))
                del run[room:]
            buf.extend(run)
            accepted += run
        if accepted:
            self._arrivals.append((stamp, accepted))
            self.buffered += len(accepted)
        if self._m_depth is not None:
            for t in touched.values():
                self._observe(t)
        return refused

    def oldest_stamp(self) -> float:
        """Stamp of the longest-waiting buffered job (``inf`` when nothing
        is buffered: no wait is ever due on an empty queue)."""
        return min((stamp for stamp, _ in self._arrivals), default=math.inf)

    def buffered_ids(self) -> set[Any]:
        return {spec.id for t in self.tenants.values() for spec in t.buffer}

    def drain_fair(self) -> list[JobSpec]:
        """Pop *everything* buffered, in weighted-fair stride order."""
        out: list[JobSpec] = []
        active = [t for t in self.tenants.values() if t.buffer]
        take = out.append
        while active:
            # run-length stride: the pick keeps the turn for as long as the
            # per-job rule would keep picking it, i.e. while it stays
            # strictly ahead of the runner-up
            t = min(active, key=_STRIDE_KEY)
            bv, bname = min(
                (_STRIDE_KEY(u) for u in active if u is not t),
                default=(math.inf, ""),
            )
            name, buf, v, step = t.name, t.buffer, t.vtime, 1.0 / t.weight
            while True:
                take(buf.popleft())
                v += step  # the per-job rule's float additions, in its order
                if not buf or not (v < bv or (v == bv and name < bname)):
                    break
            t.vtime = self._vfloor = v
            if not buf:
                active.remove(t)
        self.buffered = 0
        self._arrivals.clear()
        if self._m_depth is not None:
            for t in self.tenants.values():
                self._observe(t)
        return out

    def remove_ids(self, gone: Iterable[Any]) -> list[Any]:
        """Drop the given buffered ids; returns those actually removed."""
        gone = set(gone)
        removed: list[Any] = []
        for t in self.tenants.values():
            hit = [spec.id for spec in t.buffer if spec.id in gone]
            if hit:
                removed += hit
                t.buffer = deque(spec for spec in t.buffer if spec.id not in gone)
            if self._m_depth is not None:
                self._observe(t)
        if removed:
            self.buffered -= len(removed)
            # a request all of whose jobs are gone leaves the log, and its
            # stamp with it: younger jobs never inherit an older one's wait
            self._arrivals = [
                (stamp, kept)
                for stamp, specs in self._arrivals
                if (kept := [spec for spec in specs if spec.id not in gone])
            ]
        return removed

    def cascade(self, gone: set[Any]) -> set[Any]:
        """Grow ``gone`` with every buffered dependent (transitively)."""
        grew = True
        while grew:
            grew = False
            for t in self.tenants.values():
                for spec in t.buffer:
                    if spec.id not in gone and any(p in gone for p in spec.preds):
                        gone.add(spec.id)
                        grew = True
        return gone

    def describe(self) -> dict[str, dict[str, Any]]:
        """The ``status`` view: weight, queue depth and vtime per tenant."""
        return {
            t.name: {"weight": t.weight, "buffered": len(t.buffer), "vtime": t.vtime}
            for t in self.tenants.values()
        }

    def depths(self) -> dict[str, int]:
        """The ``stats`` view: queue depth per tenant."""
        return {t.name: len(t.buffer) for t in self.tenants.values()}
