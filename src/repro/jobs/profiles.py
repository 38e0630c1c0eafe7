"""Tabulated profiles, Eq. (2) dominance filtering, and Assumption-3 checks.

The DTCT transformation (Section 4.1.2) evaluates each candidate allocation
``p`` of a job at the pair ``(t_j(p), a_j(p))`` — execution time and average
area — and discards the *dominated* subset

    D_j = { p | ∃ q : t_j(q) < t_j(p) and a_j(q) < a_j(p) }        (Eq. 2)

so that the remaining alternatives satisfy the DTCT tradeoff condition
(faster ⇒ at least as costly).  :func:`pareto_rows` is the one kernel that
does this — every job of a ``(jobs, candidates)`` matrix in the same
sort-and-scan; :func:`pareto_indices` (one job) and :func:`pareto_filter`
(entry objects) are its one-row forms.  It additionally drops redundant
duplicates (equal time with larger-or-equal area, or equal area with
larger-or-equal time — justified by footnote 1), yielding a frontier with
*strictly* increasing time and strictly decreasing area, the clean shape the
ρ-quantile rounding of Lemma 3 needs.

**The table is columns.**  :class:`CandidateTable` — what
:meth:`Instance.candidate_table` returns — keeps the frontiers of all jobs as
five columns: the job ids, ``starts`` (job ``i`` owns the flat positions
``starts[i]:starts[i + 1]``), flat ``times`` and ``areas`` in frontier order,
flat ``rows`` (the position of each kept candidate in its job's candidate
list) and, per job, that candidate list (one shared tuple for every job on
the strategy's grid).  Phase 1 reads the columns and never builds an entry:
the LP takes ``times``/``areas``/``starts``, the rounding picks a flat
position and looks the allocation up by ``rows``.  To everything else the
table *is* the ``Mapping[JobId, Sequence[ProfileEntry]]`` it always was: the
value of a job knows its length from ``starts`` alone and builds its
:class:`ProfileEntry` objects the first time it is indexed, iterated or
compared — once; it hands out the same objects afterwards.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC, Sequence as SequenceABC
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.resources.vector import ResourceVector

__all__ = [
    "ProfileEntry",
    "TabulatedTimeFunction",
    "CandidateTable",
    "take_segments",
    "pareto_rows",
    "pareto_indices",
    "pareto_filter",
    "assumption3_violations",
]


@dataclass(frozen=True)
class ProfileEntry:
    """One candidate allocation with its evaluated time and average area."""

    alloc: ResourceVector
    time: float
    area: float

    def dominates(self, other: "ProfileEntry") -> bool:
        """Strict Eq. (2) dominance: faster *and* cheaper."""
        return self.time < other.time and self.area < other.area


class TabulatedTimeFunction:
    """Execution time given by a finite table ``{allocation: time}``.

    Lookup is exact by default.  With ``extend_monotone=True`` a query for an
    allocation not in the table returns the time of the fastest tabulated
    allocation dominated by the query (monotone completion) — convenient for
    profiles sampled on a sub-grid.
    """

    def __init__(
        self,
        table: Mapping[ResourceVector, float] | Mapping[tuple, float],
        *,
        extend_monotone: bool = False,
    ):
        if not table:
            raise ValueError("profile table must be non-empty")
        self._table: dict[ResourceVector, float] = {}
        for alloc, t in table.items():
            v = alloc if isinstance(alloc, ResourceVector) else ResourceVector(alloc)
            if t <= 0:
                raise ValueError(f"profile times must be positive, got {t} at {tuple(v)}")
            self._table[v] = float(t)
        ds = {v.d for v in self._table}
        if len(ds) != 1:
            raise ValueError("all tabulated allocations must have the same dimension")
        self._extend = extend_monotone

    @property
    def allocations(self) -> tuple[ResourceVector, ...]:
        return tuple(self._table)

    def __call__(self, alloc: ResourceVector) -> float:
        alloc = alloc if isinstance(alloc, ResourceVector) else ResourceVector(alloc)
        t = self._table.get(alloc)
        if t is not None:
            return t
        if self._extend:
            feas = [tt for a, tt in self._table.items() if a.dominated_by(alloc)]
            if feas:
                return min(feas)
        raise KeyError(f"allocation {tuple(alloc)} not in profile table")


def take_segments(starts: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segments ``starts[p]:starts[p + 1]`` of a flat column, for ``p`` in
    ``positions``, laid end to end: ``(new_starts, flat_index)`` with
    ``column[flat_index]`` the reordered column."""
    counts = (starts[1:] - starts[:-1])[positions]
    new_starts = np.concatenate(([0], np.cumsum(counts)))
    shift = starts[:-1][positions] - new_starts[:-1]
    return new_starts, np.arange(int(new_starts[-1])) + np.repeat(shift, counts)


class _Frontier(SequenceABC):
    """One job's frontier in a :class:`CandidateTable`: a read-only sequence
    of :class:`ProfileEntry` that is a pair of column bounds until somebody
    looks at an entry."""

    __slots__ = ("_table", "_position", "_lo", "_hi", "_entries")
    __hash__ = None  # compares like the list it stands for

    def __init__(self, table: "CandidateTable", position: int, lo: int, hi: int) -> None:
        self._table = table
        self._position = position
        self._lo = lo
        self._hi = hi
        self._entries: list[ProfileEntry] | None = None

    def __len__(self) -> int:
        return self._hi - self._lo

    def entries(self) -> list[ProfileEntry]:
        """The entry objects, built on first use and kept."""
        entries = self._entries
        if entries is None:
            table, cut = self._table, slice(self._lo, self._hi)
            candidates = table.candidates[self._position]
            entries = self._entries = [
                ProfileEntry(alloc=candidates[r], time=t, area=a)
                for r, t, a in zip(
                    table.rows[cut].tolist(), table.times[cut].tolist(), table.areas[cut].tolist()
                )
            ]
        return entries

    def __getitem__(self, k):
        return self.entries()[k]

    def __iter__(self) -> Iterator[ProfileEntry]:
        return iter(self.entries())

    def __eq__(self, other) -> bool:
        if isinstance(other, _Frontier):
            other = other.entries()
        return self.entries() == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self.entries())


class CandidateTable(MappingABC):
    """Every job's Eq. (2) frontier, in columns (see the module docstring).

    Attributes
    ----------
    jobs:
        Job ids, in table order (``instance.jobs`` order for
        :meth:`Instance.candidate_table`).
    starts:
        ``(n + 1,)`` int64; job ``i`` owns flat positions
        ``starts[i]:starts[i + 1]``.
    times, areas:
        Flat float64 columns, per job strictly increasing / strictly
        decreasing.
    rows:
        Flat int64 column: the kept candidate at a flat position is
        ``candidates[i][rows[position]]``.
    candidates:
        Per job, the candidate list its rows index (shared between jobs
        that enumerate the same list).
    """

    def __init__(
        self,
        jobs: Sequence[Hashable],
        starts: np.ndarray,
        times: np.ndarray,
        areas: np.ndarray,
        rows: np.ndarray,
        candidates: Sequence[Sequence[ResourceVector]],
    ) -> None:
        self.jobs = tuple(jobs)
        self.starts = starts
        self.times = times
        self.areas = areas
        self.rows = rows
        self.candidates = candidates
        bounds = starts.tolist()
        self._frontiers = {
            j: _Frontier(self, i, lo, hi)
            for i, (j, lo, hi) in enumerate(zip(self.jobs, bounds, bounds[1:]))
        }

    @classmethod
    def from_entries(cls, entries: Mapping[Hashable, Sequence[ProfileEntry]]) -> "CandidateTable":
        """Lower a hand-built ``{job: entry list}`` to columns.  The lists
        are taken as they are — nothing is sorted, filtered or checked —
        and the table hands the same entry objects back."""
        jobs = list(entries)
        lists = [list(entries[j]) for j in jobs]
        flat = list(chain.from_iterable(lists))
        counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        starts = np.concatenate(([0], np.cumsum(counts)))
        table = cls(
            jobs,
            starts,
            np.fromiter((e.time for e in flat), dtype=np.float64, count=len(flat)),
            np.fromiter((e.area for e in flat), dtype=np.float64, count=len(flat)),
            np.arange(len(flat)) - np.repeat(starts[:-1], counts),
            [tuple(e.alloc for e in es) for es in lists],
        )
        for frontier, es in zip(table._frontiers.values(), lists):
            frontier._entries = es
        return table

    def positions(self, jobs: Iterable[Hashable]) -> np.ndarray:
        """Table positions of ``jobs`` (``KeyError`` for a job not in the table)."""
        frontiers = self._frontiers
        return np.fromiter((frontiers[j]._position for j in jobs), dtype=np.int64)

    # -- the mapping it has always been; values()/items() without a lookup per job
    def __getitem__(self, job) -> Sequence[ProfileEntry]:
        return self._frontiers[job]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._frontiers)

    def __len__(self) -> int:
        return len(self._frontiers)

    def values(self):
        return self._frontiers.values()

    def items(self):
        return self._frontiers.items()

    def __repr__(self) -> str:
        return f"CandidateTable({len(self)} jobs, {self.times.size} candidates)"


def pareto_rows(times: np.ndarray, areas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (2) on every row of a ``(jobs, candidates)`` pair of matrices.

    One stable sort per row on ``(time, area)``, then a pair is kept when it
    is the first of its equal-time group and its area is below that of
    everything sorted before it.  Returns ``(order, keep)``, both ``(jobs,
    candidates)``: ``order[i]`` is row ``i``'s sort permutation and
    ``keep[i]`` marks, *in sorted order*, the frontier — strictly increasing
    time, strictly decreasing area; among exact duplicates the earliest
    candidate wins.  ``order[keep]`` is every job's kept candidates, job
    after job.
    """
    order = np.lexsort((areas, times), axis=-1)
    t = np.take_along_axis(times, order, axis=-1)
    a = np.take_along_axis(areas, order, axis=-1)
    keep = np.ones(order.shape, dtype=bool)
    keep[:, 1:] = (t[:, 1:] != t[:, :-1]) & (a[:, 1:] < np.minimum.accumulate(a, axis=1)[:, :-1])
    return order, keep


def pareto_indices(times: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Positions of the Eq. (2) frontier of ``(times[i], areas[i])`` pairs,
    in frontier order: :func:`pareto_rows` on one row."""
    order, keep = pareto_rows(times[None, :], areas[None, :])
    return order[keep]


def pareto_filter(entries: Iterable[ProfileEntry]) -> list[ProfileEntry]:
    """The non-dominated set ``N_j`` of Eq. (2), deduplicated.

    Returns entries sorted by strictly increasing time with strictly
    decreasing area.  Ties: among equal times the minimum-area entry is kept;
    an entry whose area equals an already-kept faster entry's area is
    redundant (slower at the same cost) and dropped.
    """
    entries = list(entries)
    keep = pareto_indices(
        np.array([e.time for e in entries], dtype=np.float64),
        np.array([e.area for e in entries], dtype=np.float64),
    )
    return [entries[i] for i in keep.tolist()]


def assumption3_violations(
    entries: Sequence[ProfileEntry],
    *,
    rtol: float = 1e-9,
    max_report: int = 10,
) -> list[str]:
    """Check Assumption 3 over all comparable candidate pairs.

    For every pair ``p ⪯ q`` in ``entries`` verifies
    ``t(q) <= t(p) <= max_i(q^(i)/p^(i)) * t(q)`` (within ``rtol``) and
    returns human-readable descriptions of up to ``max_report`` violations
    (empty list ⇒ the profile is Assumption-3 compliant on this grid).
    """
    bad: list[str] = []
    for e1 in entries:
        for e2 in entries:
            if len(bad) >= max_report:
                return bad
            if e1 is e2 or not e1.alloc.strictly_dominated_by(e2.alloc):
                continue
            # e1.alloc ⪯ e2.alloc (p=e1, q=e2)
            if e2.time > e1.time * (1 + rtol):
                bad.append(
                    f"monotonicity: t{tuple(e2.alloc)}={e2.time:.6g} > "
                    f"t{tuple(e1.alloc)}={e1.time:.6g}"
                )
                continue
            ratio = e2.alloc.max_ratio_over(e1.alloc)
            if e1.time > ratio * e2.time * (1 + rtol):
                bad.append(
                    f"superlinear speedup: t{tuple(e1.alloc)}={e1.time:.6g} > "
                    f"{ratio:.4g} * t{tuple(e2.alloc)}={e2.time:.6g}"
                )
    return bad
