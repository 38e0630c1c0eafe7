"""Strict, standalone schedule validation.

The validator re-derives every feasibility requirement of Section 3.2 from
the instance alone — deliberately independent of the scheduling algorithms
and of the engine that produced the schedule, so it can serve as the oracle
for the differential fuzz harness (:mod:`repro.conformance.fuzz`).

Invariant groups
----------------
Baseline (what :meth:`repro.sim.schedule.Schedule.validate` has always
checked, and now delegates here):

* **job-set equality** — the schedule places exactly the instance's jobs;
* **finite placements** — every start, duration and finish is finite (a
  non-finite one would otherwise widen the time tolerance to infinity or
  stall the capacity sweep; such placements stay out of the sweep);
* **time-0 gating** — no job starts before time 0;
* **release gating** — no job starts before its release (online arrivals);
* **strict precedence** — ``finish(u) <= start(v)`` for every edge;
* **per-event-point capacity** — at every event point the running jobs use
  at most ``P^(i)`` of every resource type (releases apply before acquires
  at coincident times, so back-to-back reuse is legal);
* **allocation bounds** — every allocation requests at least one unit and
  fits the capacities on its own (catches oversized zero-duration jobs the
  sweep cannot see); that it has the platform's ``d`` is refused earlier,
  when the :class:`~repro.sim.schedule.Schedule` is built.

Strict extras (``strict=True``, the fuzz harness's configuration):

* **candidate membership** — a job that pins its candidate set must be
  scheduled on one of its candidates, or (when the adjustment parameter
  ``mu`` is supplied) on the ``⌈µP^(i)⌉``-capped image of one (Eq. (5));
* **duration consistency** — the placement's execution time equals
  ``t_j(p_j)`` as the instance's time function evaluates it.

Unlike ``Schedule.validate``, the validator *collects* violations instead
of stopping at the first one: :func:`validate_schedule` returns a
:class:`ConformanceReport`; :func:`assert_conformant` (and the delegating
``Schedule.validate``) raises :class:`ScheduleConformanceError` — a
``ValueError`` — listing every violation found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.schedule import Schedule

__all__ = [
    "TIME_RTOL",
    "Violation",
    "ConformanceReport",
    "ScheduleConformanceError",
    "validate_schedule",
    "assert_conformant",
]

JobId = Hashable

#: Relative tolerance for floating-point time comparisons.  The single
#: source of truth — ``repro.sim.schedule`` imports it for its delegating
#: ``validate()``.
TIME_RTOL = 1e-9

#: Per-kind cap on *recorded* violations: a grossly corrupt schedule can
#: breach at every edge or event point, and the first few carry all the
#: information — without a cap a 100k-job corruption would materialize
#: O(m) Violation objects and a multi-megabyte exception message.
_MAX_VIOLATIONS_PER_KIND = 20


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which kind, where, and a human-readable why."""

    kind: str  #: "job-set" | "non-finite" | "negative-start" | "release"
    #: | "precedence" | "capacity" | "allocation" | "candidate" | "duration"
    detail: str
    job_id: JobId | None = None
    time: float | None = None


class ScheduleConformanceError(ValueError):
    """Raised by :func:`assert_conformant`; carries the full violation list."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = tuple(violations)
        lines = "\n".join(f"  - [{v.kind}] {v.detail}" for v in self.violations)
        super().__init__(
            f"schedule violates {len(self.violations)} invariant(s):\n{lines}"
        )


@dataclass(frozen=True)
class ConformanceReport:
    """Outcome of a validation run: every violation found, in check order."""

    violations: tuple[Violation, ...]
    strict: bool

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def raise_if_failed(self) -> None:
        if self.violations:
            raise ScheduleConformanceError(self.violations)


class _Collector:
    """Accumulates violations, eliding each kind past the per-kind cap."""

    def __init__(self, cap: int = _MAX_VIOLATIONS_PER_KIND):
        self.violations: list[Violation] = []
        self._cap = cap
        self._counts: dict[str, int] = {}

    def add(self, v: Violation) -> None:
        c = self._counts.get(v.kind, 0) + 1
        self._counts[v.kind] = c
        if c < self._cap:
            self.violations.append(v)
        elif c == self._cap:
            self.violations.append(
                Violation(
                    kind=v.kind,
                    detail=f"... further {v.kind} violations elided",
                )
            )

    def extend(self, vs: Iterable[Violation]) -> None:
        for v in vs:
            self.add(v)

    def saturated(self, kind: str) -> bool:
        return self._counts.get(kind, 0) >= self._cap


def validate_schedule(
    schedule: "Schedule",
    *,
    strict: bool = True,
    mu: float | None = None,
    rtol: float = TIME_RTOL,
) -> ConformanceReport:
    """Check every schedule invariant; return the full violation report.

    ``strict`` enables the candidate-membership and duration-consistency
    checks; ``mu`` (the Eq. (5) adjustment parameter, e.g. from a
    :class:`~repro.core.two_phase.ScheduleResult`) additionally admits the
    µ-capped image of each pinned candidate as a legal allocation.
    """
    inst = schedule.instance
    rows = schedule.placements.values()
    placements = {p.job_id: p for p in rows}
    col = _Collector()

    # ---------------------------------------------------------------- job set
    if placements.keys() != inst.jobs.keys():
        missing = sorted(map(repr, inst.jobs.keys() - placements.keys()))[:5]
        extra = sorted(map(repr, placements.keys() - inst.jobs.keys()))[:5]
        col.add(
            Violation(
                kind="job-set",
                detail=(
                    "schedule must place exactly the instance's jobs "
                    f"(missing: {missing}, unknown: {extra})"
                ),
            )
        )
    placed = [p for p in rows if p.job_id in inst.jobs]
    finite = []
    for p in placed:
        # start + time is non-finite iff either is (or the sum overflows)
        if math.isfinite(p.finish):
            finite.append(p)
        else:
            col.add(
                Violation(
                    kind="non-finite",
                    detail=(
                        f"job {p.job_id!r} has a non-finite placement (start "
                        f"{p.start}, duration {p.time}, finish {p.finish})"
                    ),
                    job_id=p.job_id,
                )
            )
    tol = rtol * max(
        1.0, max((p.finish for p in finite), default=0.0)
    )

    # --------------------------------------------------- starts and releases
    for p in placed:
        if p.start < -tol:
            col.add(
                Violation(
                    kind="negative-start",
                    detail=f"job {p.job_id!r} starts before time 0 (at {p.start})",
                    job_id=p.job_id,
                    time=p.start,
                )
            )
        r = inst.jobs[p.job_id].release
        if r > 0.0 and p.start < r - tol:
            col.add(
                Violation(
                    kind="release",
                    detail=(
                        f"job {p.job_id!r} starts at {p.start} "
                        f"before its release at {r}"
                    ),
                    job_id=p.job_id,
                    time=p.start,
                )
            )

    # ------------------------------------------------------------ precedence
    for u, v in inst.dag.edges():
        if col.saturated("precedence"):
            break
        pu, pv = placements.get(u), placements.get(v)
        if pu is None or pv is None:
            continue  # already reported as a job-set violation
        if pv.start < pu.finish - tol:
            col.add(
                Violation(
                    kind="precedence",
                    detail=(
                        f"precedence violated: {v!r} starts at {pv.start} "
                        f"before {u!r} finishes at {pu.finish}"
                    ),
                    job_id=v,
                    time=pv.start,
                )
            )

    # ----------------------------------------------------- allocation bounds
    d = inst.d
    caps = inst.pool.capacities
    for p in placed:
        if col.saturated("allocation"):
            break
        a = p.alloc
        if any(x < 0 for x in a) or sum(a) <= 0:
            col.add(
                Violation(
                    kind="allocation",
                    detail=(
                        f"job {p.job_id!r} allocation {tuple(a)} must request at "
                        "least one unit and no negative amounts"
                    ),
                    job_id=p.job_id,
                )
            )
        elif any(x > c for x, c in zip(a, caps)):
            col.add(
                Violation(
                    kind="allocation",
                    detail=(
                        f"job {p.job_id!r} allocation {tuple(a)} exceeds the "
                        f"platform capacities {tuple(caps)}"
                    ),
                    job_id=p.job_id,
                )
            )

    # ------------------------------------- per-event-point capacity sweep
    _sweep_capacity(col, finite, d, caps, tol)

    if strict:
        _candidate_membership(col, inst, placed, mu)
        _duration_consistency(col, inst, placed, rtol)

    return ConformanceReport(violations=tuple(col.violations), strict=strict)


def _sweep_capacity(col: _Collector, placed, d: int, caps, tol: float) -> None:
    """Joint event sweep over all resource types: at every event point,
    after applying the releases (first) and acquires at that time, usage
    must not exceed any capacity."""
    events: list[tuple[float, int, tuple[int, ...]]] = []
    for p in placed:
        # release (-1) sorts before acquire (+1) at equal times so that
        # back-to-back jobs may reuse resources at the same instant
        events.append((p.start, +1, p.alloc))
        events.append((p.finish, -1, p.alloc))
    events.sort()  # by time, releases first; the allocation only orders ties, applied together
    usage = [0] * d
    i = 0
    n_events = len(events)
    while i < n_events:
        t = events[i][0]
        while i < n_events and abs(events[i][0] - t) <= tol and events[i][1] == -1:
            for r in range(d):
                usage[r] -= events[i][2][r]
            i += 1
        while i < n_events and abs(events[i][0] - t) <= tol and events[i][1] == +1:
            for r in range(d):
                usage[r] += events[i][2][r]
            i += 1
        for r in range(d):
            if usage[r] > caps[r]:
                col.add(
                    Violation(
                        kind="capacity",
                        detail=(
                            f"capacity violated at t={t}: type {r} uses "
                            f"{usage[r]} > {caps[r]}"
                        ),
                        time=t,
                    )
                )
                if col.saturated("capacity"):
                    return


def _candidate_membership(col: _Collector, inst, placed, mu: float | None) -> None:
    """Every pinned job must run on a candidate — or, when ``mu`` is given,
    on the ``⌈µP^(i)⌉``-capped image of one (the Eq. (5) adjustment)."""
    mu_caps = inst.pool.mu_caps(mu) if mu is not None else None
    for p in placed:
        if col.saturated("candidate"):
            return
        job = inst.jobs[p.job_id]
        if job.candidates is None:
            continue
        allowed = {tuple(c) for c in job.candidates}
        if mu_caps is not None:
            allowed |= {tuple(c.cap(mu_caps)) for c in job.candidates}
        if p.alloc not in allowed:
            col.add(
                Violation(
                    kind="candidate",
                    detail=(
                        f"job {p.job_id!r} runs on {tuple(p.alloc)}, not in its pinned "
                        f"candidate set"
                        + ("" if mu_caps is None else " (nor a µ-capped image)")
                    ),
                    job_id=p.job_id,
                )
            )


def _duration_consistency(col: _Collector, inst, placed, rtol: float) -> None:
    """The placement's execution time must equal ``t_j(p_j)``."""
    for p in placed:
        if col.saturated("duration"):
            return
        try:
            expected = inst.time(p.job_id, p.alloc)
        except Exception as exc:  # time_fn rejects the allocation outright
            col.add(
                Violation(
                    kind="duration",
                    detail=(
                        f"job {p.job_id!r}: time function rejects allocation "
                        f"{tuple(p.alloc)}: {exc}"
                    ),
                    job_id=p.job_id,
                )
            )
            continue
        if abs(p.time - expected) > rtol * max(1.0, abs(expected)):
            col.add(
                Violation(
                    kind="duration",
                    detail=(
                        f"job {p.job_id!r} scheduled for {p.time} but "
                        f"t_j({tuple(p.alloc)}) = {expected}"
                    ),
                    job_id=p.job_id,
                )
            )


def assert_conformant(
    schedule: "Schedule",
    *,
    strict: bool = True,
    mu: float | None = None,
    rtol: float = TIME_RTOL,
) -> None:
    """Validate and raise :class:`ScheduleConformanceError` on any violation."""
    validate_schedule(schedule, strict=strict, mu=mu, rtol=rtol).raise_if_failed()
