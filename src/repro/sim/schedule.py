"""Schedules: the pair of decisions ``(p, s)`` of Section 3.2, with
independent validity checking.

A schedule is *valid* when (i) at any time the running jobs use at most
``P^(i)`` of every resource type, and (ii) no job starts before all its
predecessors complete.  :meth:`Schedule.validate` checks both by an event
sweep that is deliberately independent of the scheduling algorithms (it is
the oracle used by the property-based tests).
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, NamedTuple

import numpy as np

from repro.conformance.invariants import TIME_RTOL, validate_schedule
from repro.instance.instance import Instance
from repro.resources.vector import ResourceVector

__all__ = ["ScheduledJob", "Schedule", "TIME_RTOL"]

JobId = Hashable


class ScheduledJob(NamedTuple):
    """One job's placement: start time, execution time and allocation.

    A ``NamedTuple`` rather than a dataclass: schedulers construct one per
    job on the hot path, and tuple construction is several times cheaper
    while keeping field equality, hashing and immutability.
    """

    job_id: JobId
    start: float
    time: float
    alloc: ResourceVector

    @property
    def finish(self) -> float:
        """Completion time ``c_j = s_j + t_j(p_j)``."""
        return self.start + self.time


class Schedule:
    """A complete schedule for an instance.

    Attributes
    ----------
    instance:
        The scheduled instance (provides the DAG, pool and time functions).
    placements:
        Mapping job id → :class:`ScheduledJob`, a plain mutable ``dict``.

    A schedule is backed by one of two things.  ``Schedule(instance,
    placements=dict)`` keeps the dict it is given — what the baselines and
    the session build.  :meth:`from_log` keeps the
    **columns** of a list-scheduling run (the start log's arrays and the
    allocation mapping) and no per-job object: ``makespan``, ``len``,
    ``allocation``, ``starts`` and ``intervals()`` are read off the arrays.
    The first look at :attr:`placements` builds every :class:`ScheduledJob`
    at once, in dispatch order, and drops the columns: from then on the dict
    is the only authority, so ``sched.placements[j] = …`` followed by
    ``validate()`` or ``makespan`` sees the edit.  Two schedules are equal
    when their instances and placements are, whatever backs them.
    """

    __hash__ = None  # mutable, compared by value

    def __init__(
        self,
        instance: Instance,
        placements: "dict[JobId, ScheduledJob] | None" = None,
    ) -> None:
        self.instance = instance
        self._placements = {} if placements is None else placements
        self._columns = None

    @classmethod
    def from_log(
        cls, instance: Instance, log, allocation: Mapping[JobId, ResourceVector]
    ) -> "Schedule":
        """The schedule of a start log, kept in columns until
        :attr:`placements` is read.  ``log`` carries ``order`` (job ids by
        topological index), ``job_index`` / ``start`` (one entry per start,
        dispatch order) and ``duration`` (by topological index) — a
        :class:`~repro.core.list_scheduler.ScheduleLog`; ``allocation`` is
        the mapping the run was given."""
        self = cls(instance)
        self._placements = None
        self._columns = (log, allocation)
        return self

    @classmethod
    def from_decisions(
        cls,
        instance: Instance,
        allocation: Mapping[JobId, ResourceVector],
        starts: Mapping[JobId, float],
    ) -> "Schedule":
        """Build from the paper's two decision vectors ``(p, s)``."""
        placements = {
            j: ScheduledJob(
                job_id=j,
                start=float(starts[j]),
                time=instance.time(j, allocation[j]),
                alloc=allocation[j],
            )
            for j in instance.jobs
        }
        return cls(instance=instance, placements=placements)

    # ------------------------------------------------------------------
    def _rows(self) -> tuple[list, list, list, list]:
        """Parallel ``(ids, starts, times, allocs)`` lists, one entry per
        placement, from whichever of the columns or the dict is held."""
        if self._placements is None:
            log, allocation = self._columns
            index = log.job_index
            ids = list(map(log.order.__getitem__, index.tolist()))
            return (
                ids,
                log.start.tolist(),
                log.duration[index].tolist(),
                list(map(allocation.__getitem__, ids)),
            )
        placed = self._placements.values()
        return (
            list(self._placements),
            [p.start for p in placed],
            [p.time for p in placed],
            [p.alloc for p in placed],
        )

    @property
    def placements(self) -> dict[JobId, ScheduledJob]:
        if self._placements is None:
            ids, starts, times, allocs = self._rows()
            self._placements = dict(
                zip(ids, map(ScheduledJob, ids, starts, times, allocs))
            )
            self._columns = None
        return self._placements

    @property
    def makespan(self) -> float:
        """``T = max_j c_j`` (0 for an empty schedule)."""
        if not len(self):
            return 0.0
        if self._placements is None:
            log = self._columns[0]
            return float((log.start + log.duration[log.job_index]).max())
        return max(p.finish for p in self._placements.values())

    @property
    def allocation(self) -> dict[JobId, ResourceVector]:
        ids, _, _, allocs = self._rows()
        return dict(zip(ids, allocs))

    @property
    def starts(self) -> dict[JobId, float]:
        ids, starts, _, _ = self._rows()
        return dict(zip(ids, starts))

    def __len__(self) -> int:
        if self._placements is None:
            return self._columns[0].job_index.size
        return len(self._placements)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.instance, self.placements) == (
            other.instance, other.placements
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(instance={self.instance!r}, "
            f"placements={self.placements!r})"
        )

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
        ids, starts, times, allocs = self._rows()
        if not ids:
            return
        n = len(ids)
        start = np.array(starts, dtype=np.float64)
        instants, at = np.unique(
            np.concatenate([start, start + np.array(times, dtype=np.float64)]),
            return_inverse=True,
        )
        amounts = np.array(allocs)[:, :self.instance.d]
        change = np.zeros((instants.size, amounts.shape[1]), dtype=amounts.dtype)
        np.add.at(change, at[:n], amounts)
        np.subtract.at(change, at[n:], amounts)
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

    def fraction_of_job_in(self, job_id: JobId, t0: float, t1: float) -> float:
        """``β_{j,I}`` — the fraction of job ``j`` executed in ``[t0, t1]``."""
        p = self.placements[job_id]
        overlap = max(0.0, min(p.finish, t1) - max(p.start, t0))
        return overlap / p.time if p.time > 0 else 0.0
