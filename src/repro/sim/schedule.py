"""Schedules: the pair of decisions ``(p, s)`` of Section 3.2, held as
columns, with independent validity checking.

A schedule is *valid* when (i) at any time the running jobs use at most
``P^(i)`` of every resource type, and (ii) no job starts before all its
predecessors complete.  :meth:`Schedule.validate` checks both by an event
sweep that is deliberately independent of the scheduling algorithms (it is
the oracle used by the property-based tests).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping as MappingABC
from functools import cached_property
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.conformance.invariants import TIME_RTOL, validate_schedule
from repro.instance.compiled import Allocation, _trusted_vector
from repro.instance.instance import Instance
from repro.resources.vector import ResourceVector, whole_amounts

__all__ = ["ScheduledJob", "Schedule", "TIME_RTOL"]

JobId = Hashable


class ScheduledJob(NamedTuple):
    """One job's placement, as :attr:`Schedule.placements` reads it."""

    job_id: JobId
    start: float
    time: float
    alloc: ResourceVector

    @property
    def finish(self) -> float:
        """Completion time ``c_j = s_j + t_j(p_j)``."""
        return self.start + self.time


def _alloc_matrix(ids: list, alloc: list, d: int) -> np.ndarray:
    """``alloc`` as an ``(n, d)`` matrix, int64 unless an amount is past it
    (a session's platform may be); refuses by job a row that is not ``d``
    whole amounts."""
    rows = []
    for j, a in zip(ids, alloc):
        try:
            row = whole_amounts(a)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"job {j!r} allocation: {exc}") from None
        if len(row) != d:
            raise ValueError(f"job {j!r} allocation: {row} has dimension {len(row)}, platform has {d}")
        rows.append(row)
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), d)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), d)


class _Placements(MappingABC):
    """A schedule's rows as a read-only ``Mapping[JobId, ScheduledJob]``, in
    row order; every read builds the values it returns."""

    __slots__ = ("_of",)

    def __init__(self, schedule: "Schedule") -> None:
        self._of = schedule

    def __getitem__(self, job) -> ScheduledJob:
        s = self._of
        k = s._index[job]
        alloc = _trusted_vector(s.alloc[k].tolist())
        return ScheduledJob(s.job_ids[k], s.start[k].item(), s.time[k].item(), alloc)

    def __iter__(self) -> Iterator[JobId]:
        return iter(self._of.job_ids.tolist())

    def __len__(self) -> int:
        return len(self._of.job_ids)

    def values(self) -> list[ScheduledJob]:
        s = self._of
        ids, start, time = s.job_ids.tolist(), s.start.tolist(), s.time.tolist()
        return list(map(ScheduledJob, ids, start, time, s._vectors()))

    def items(self) -> list[tuple[JobId, ScheduledJob]]:
        return list(zip(self, self.values()))


class Schedule:
    """A complete schedule for an instance, one row per placed job.

    ``Schedule(instance, job_ids, start, time, alloc)`` keeps its parallel
    rows as read-only columns: ``job_ids`` (an object array), ``start`` and
    ``time`` (float64) and ``alloc``, an ``(n, d)`` int64 matrix with the
    instance's ``d``.  An allocation that is not ``d`` whole amounts and an
    id given twice are refused with a ``ValueError`` naming the job.
    :attr:`placements` is a read-only ``Mapping[JobId, ScheduledJob]`` view
    that builds its values when read; a changed schedule is a new one
    (:meth:`replace`).  Schedules are equal when their instances and
    placements are, whatever their row order.
    """

    __hash__ = None  # compared by value

    def __init__(
        self, instance: Instance, job_ids: Iterable[JobId] = (), start: Iterable[float] = (),
        time: Iterable[float] = (), alloc: Iterable[Sequence[int]] = (),
    ) -> None:
        ids = np.fromiter(job_ids, dtype=object)
        alloc = alloc.tolist() if isinstance(alloc, np.ndarray) else list(alloc)
        self._set(
            instance, ids, np.fromiter(start, np.float64), np.fromiter(time, np.float64),
            _alloc_matrix(ids.tolist(), alloc, instance.d),
        )
        n = len(ids)
        if not self.start.shape == self.time.shape == (n,) == (len(alloc),):
            raise ValueError(f"the columns of {n} job ids are of other lengths")
        if len(self._index) != n:
            twice = next(j for j, c in Counter(ids.tolist()).items() if c > 1)
            raise ValueError(f"job {twice!r} is placed twice")

    def _set(self, instance: Instance, *columns: np.ndarray) -> None:
        self.instance = instance
        self.job_ids, self.start, self.time, self.alloc = columns
        for column in columns:
            column.flags.writeable = False

    @classmethod
    def from_log(
        cls, instance: Instance, log, allocation: Mapping[JobId, ResourceVector]
    ) -> "Schedule":
        """The rows of a start log, in dispatch order, by numpy gathers: a
        :class:`~repro.core.list_scheduler.ScheduleLog`'s ``order`` (ids by
        topological index), ``job_index`` / ``start`` (per start) and
        ``duration`` (by topological index), and the matrix of
        ``allocation``, lowered unless it is an ``Allocation`` of
        ``instance``."""
        matrix = Allocation.lower(instance, allocation).matrix
        index, order = log.job_index, log.order
        twice = np.flatnonzero(np.bincount(index, minlength=len(order)) > 1)
        if twice.size:
            raise ValueError(f"job {order[twice[0]]!r} is placed twice")
        self = object.__new__(cls)
        ids = np.fromiter(order, dtype=object, count=len(order))[index]
        self._set(instance, ids, log.start, log.duration[index], matrix[index])
        return self

    def __reduce__(self):
        return type(self), (self.instance, self.job_ids, self.start, self.time, self.alloc)

    @cached_property
    def _index(self) -> dict[JobId, int]:
        """Job id → row."""
        return dict(zip(self.job_ids.tolist(), range(len(self.job_ids))))

    def _vectors(self) -> Iterator[ResourceVector]:
        """The allocations, row by row, built from the matrix's columns."""
        return map(_trusted_vector, zip(*self.alloc.T.tolist()))

    @property
    def placements(self) -> Mapping[JobId, ScheduledJob]:
        return _Placements(self)

    def replace(self, job: JobId, **fields) -> "Schedule":
        """A new schedule in which ``job``'s row takes the given ``start``,
        ``time`` and/or ``alloc``; this one is left as it is."""
        rows = self.placements.values()
        k = self._index[job]
        rows[k] = rows[k]._replace(**fields)
        return type(self)(self.instance, *zip(*rows))

    @property
    def makespan(self) -> float:
        """``T = max_j c_j`` (0 for an empty schedule)."""
        return float((self.start + self.time).max()) if len(self) else 0.0

    @property
    def allocation(self) -> dict[JobId, ResourceVector]:
        return dict(zip(self.job_ids.tolist(), self._vectors()))

    @property
    def starts(self) -> dict[JobId, float]:
        return dict(zip(self.job_ids.tolist(), self.start.tolist()))

    def __len__(self) -> int:
        return len(self.job_ids)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.instance, self.placements) == (other.instance, other.placements)

    def __repr__(self) -> str:
        placements = dict(self.placements.items())
        return f"{type(self).__name__}(instance={self.instance!r}, {placements=!r})"

    # ------------------------------------------------------------------
    # validation (independent oracle)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` on any capacity, precedence, release or
        job-set violation.

        Delegates to the strict standalone validator
        (:func:`repro.conformance.invariants.validate_schedule`) with the
        baseline invariant groups — the strict extras (candidate
        membership, duration consistency) are opt-in there because valid
        derived timelines (straggler replays, perturbed what-ifs) break
        them by design.  The raised error is a
        :class:`~repro.conformance.invariants.ScheduleConformanceError`
        (a ``ValueError``) listing *every* violation, not just the first.
        """
        validate_schedule(self, strict=False, rtol=TIME_RTOL).raise_if_failed()

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def intervals(self) -> Iterator[tuple[float, float, tuple[int, ...]]]:
        """Yield maximal intervals ``(t0, t1, usage)`` of constant resource
        usage (the partition I of Section 4.2.2).  Zero-length intervals are
        skipped.

        One sweep over the sorted start/finish instants with a running
        usage vector: every placement adds its allocation at its start and
        takes it back at its finish, so the cost is a sort, not a test of
        every placement against every interval."""
        n = len(self)
        if not n:
            return
        instants, at = np.unique(
            np.concatenate([self.start, self.start + self.time]), return_inverse=True
        )
        change = np.zeros((instants.size, self.instance.d), dtype=self.alloc.dtype)
        np.add.at(change, at[:n], self.alloc)
        np.subtract.at(change, at[n:], self.alloc)
        points = instants.tolist()
        # the last row is the empty platform after the final finish
        yield from zip(
            points, points[1:], map(tuple, change.cumsum(axis=0).tolist())
        )

    def utilization(self) -> list[float]:
        """Average fraction of each resource type in use over the makespan."""
        T = self.makespan
        if T <= 0:
            return [0.0] * self.instance.d
        caps = self.instance.pool.capacities
        tot = [0.0] * self.instance.d
        for t0, t1, usage in self.intervals():
            for r in range(self.instance.d):
                tot[r] += (t1 - t0) * usage[r]
        return [tot[r] / (caps[r] * T) for r in range(self.instance.d)]
