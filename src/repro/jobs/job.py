"""The moldable job: an id plus an execution-time function.

Assumption 2 (known execution times) is modeled by carrying the function
itself — any callable ``ResourceVector -> float``.  A job may optionally pin
its own candidate allocation list (e.g., rigid jobs in the Theorem 6
lower-bound instance expose exactly one candidate), overriding the
instance-wide enumeration strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.resources.vector import ResourceVector

__all__ = ["Job"]

JobId = Hashable
TimeFunction = Callable[[ResourceVector], float]


@dataclass(frozen=True)
class Job:
    """A moldable job.

    Parameters
    ----------
    id:
        Hashable identifier, unique within an instance.
    time_fn:
        Execution time ``t_j(p)`` for any allocation ``p`` (Assumption 2).
        Must return a strictly positive, finite float for every allocation
        the candidate strategy enumerates for this job.
    candidates:
        Optional explicit candidate allocations for Phase 1; when ``None``
        the instance-wide strategy is used.  A single-entry tuple makes the
        job rigid.
    release:
        Earliest time the job may start (its arrival in online scenarios).
        The default 0.0 is the paper's offline model — all jobs known and
        available at time zero.  The event kernel gates readiness on it.
    name:
        Cosmetic label for reports.
    """

    id: JobId
    time_fn: TimeFunction
    candidates: tuple[ResourceVector, ...] | None = None
    release: float = 0.0
    name: str = field(default="")

    def __post_init__(self) -> None:
        # an infinite release never gates open: the event loop would spin
        if not 0.0 <= self.release < float("inf"):
            raise ValueError(
                f"job {self.id!r}: release must be finite and >= 0, got {self.release}"
            )

    def time(self, alloc: ResourceVector) -> float:
        """Execution time under ``alloc`` — validated positive and finite."""
        t = float(self.time_fn(alloc))
        if not t > 0 or t != t or t == float("inf"):
            raise ValueError(
                f"job {self.id!r}: execution time must be positive and finite, "
                f"got {t} at allocation {tuple(alloc)}"
            )
        return t
