"""First-fit shelf packing shared by the shelf-based schedulers.

Shelf (a.k.a. pack) scheduling places jobs on horizontal shelves: every job
on a shelf starts at the same instant, a shelf's height is its first
(tallest, when the caller pre-sorts by non-increasing time) job's execution
time, and shelves run back-to-back.  Both the level-by-level baseline and
Sun et al. [36]'s pack scheduler used to carry private copies of this
packing loop; this module is now the single implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Shelf", "pack_shelves", "stack_shelves"]

JobId = Hashable


@dataclass
class Shelf:
    """One shelf: its members, per-type usage, and height (run time)."""

    jobs: list[JobId]
    used: np.ndarray = field(repr=False)
    height: float


def pack_shelves(
    jobs: Iterable[JobId],
    allocation: Mapping[JobId, Sequence[int]],
    times: Mapping[JobId, float],
    capacities: Sequence[int],
) -> list[Shelf]:
    """First-fit pack ``jobs`` (in the given order) onto shelves.

    A job joins the first open shelf whose remaining capacity admits its
    allocation in every resource type; otherwise it opens a new shelf whose
    height is its own execution time.
    """
    caps = np.asarray(tuple(capacities), dtype=np.int64)
    shelves: list[Shelf] = []
    for j in jobs:
        a = np.asarray(tuple(allocation[j]), dtype=np.int64)
        for shelf in shelves:
            if ((shelf.used + a) <= caps).all():
                shelf.jobs.append(j)
                shelf.used += a
                break
        else:
            shelves.append(Shelf(jobs=[j], used=a.copy(), height=times[j]))
    return shelves


def stack_shelves(
    shelves: Sequence[Shelf], *, t0: float = 0.0
) -> tuple[dict[JobId, float], float]:
    """Run ``shelves`` back-to-back starting at ``t0``.

    Returns every job's start and the finish time of the last shelf (so
    callers stacking several shelf groups — e.g. one per precedence level —
    can chain them).
    """
    starts: dict[JobId, float] = {}
    for shelf in shelves:
        starts.update(dict.fromkeys(shelf.jobs, t0))
        t0 += shelf.height
    return starts, t0
