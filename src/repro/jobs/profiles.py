"""Tabulated profiles, Eq. (2) dominance filtering, and Assumption-3 checks.

The DTCT transformation (Section 4.1.2) evaluates each candidate allocation
``p`` of a job at the pair ``(t_j(p), a_j(p))`` — execution time and average
area — and discards the *dominated* subset

    D_j = { p | ∃ q : t_j(q) < t_j(p) and a_j(q) < a_j(p) }        (Eq. 2)

so that the remaining alternatives satisfy the DTCT tradeoff condition
(faster ⇒ at least as costly).  :func:`pareto_filter` (over entry objects)
and :func:`pareto_indices` (the array kernel that it and
:meth:`Instance.candidate_table` share) implement this and additionally drop
redundant duplicates (equal time with larger-or-equal area, or equal area
with larger-or-equal time — justified by footnote 1), yielding a frontier
with *strictly* increasing time and strictly decreasing area, the clean
shape the ρ-quantile rounding of Lemma 3 needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.resources.vector import ResourceVector

__all__ = [
    "ProfileEntry",
    "TabulatedTimeFunction",
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


def pareto_indices(times: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Positions of the Eq. (2) frontier of ``(times[i], areas[i])`` pairs.

    The array kernel behind :func:`pareto_filter` and
    :meth:`Instance.candidate_table`: a stable sort on ``(time, area)``, then
    a pair is kept when it is the first of its equal-time group and its area
    is below that of everything sorted before it.  Positions come back in
    frontier order (strictly increasing time, strictly decreasing area);
    among exact duplicates the earliest position wins.
    """
    order = np.lexsort((areas, times))
    t, a = times[order], areas[order]
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = (t[1:] != t[:-1]) & (a[1:] < np.minimum.accumulate(a)[:-1])
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
