"""Candidate-allocation enumeration strategies for Phase 1.

The DTCT transformation needs, for each job, the set of allocations whose
``(time, area)`` pairs form the task's alternatives.  Enumerating the full
grid ``Q = Π_i P^(i)`` is exponential in ``d``; the strategies below trade
completeness for tractability:

* :func:`full_grid` — every allocation (exact; small pools, test oracles);
* :func:`geometric_grid` — powers of a base per type, plus the capacity
  itself (the standard moldable-scheduling practice: ``log``-many levels per
  type, so ``O(log^d)`` candidates);
* :func:`diagonal_grid` — one fraction applied to every type (``O(levels)``
  candidates; models jobs that scale all resources together).

A job with an explicit ``candidates`` tuple (e.g. rigid jobs) bypasses the
strategy — see :func:`candidates_for_job`.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Callable

import numpy as np

from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

__all__ = [
    "CandidateStrategy",
    "full_grid",
    "geometric_grid",
    "diagonal_grid",
    "make_candidates",
    "candidates_for_job",
]

CandidateStrategy = Callable[[ResourcePool], tuple[ResourceVector, ...]]


def _axis_levels_geometric(cap: int, base: float) -> list[int]:
    """Geometric levels ``1, base, base², ... , cap`` (deduplicated, sorted)."""
    levels = {1, cap}
    x = 1.0
    while x < cap:
        x *= base
        levels.add(min(cap, int(round(x))))
    return sorted(levels)


def full_grid(pool: ResourcePool) -> tuple[ResourceVector, ...]:
    """Every allocation with ``1 <= p^(i) <= P^(i)`` — exponential in ``d``."""
    axes = [range(1, cap + 1) for cap in pool.capacities]
    return tuple(ResourceVector(combo) for combo in product(*axes))


def geometric_grid(pool: ResourcePool, base: float = 2.0) -> tuple[ResourceVector, ...]:
    """Cartesian product of per-type geometric levels (includes 1 and P^(i))."""
    if base <= 1:
        raise ValueError(f"base must be > 1, got {base}")
    axes = [_axis_levels_geometric(cap, base) for cap in pool.capacities]
    return tuple(ResourceVector(combo) for combo in product(*axes))


def diagonal_grid(pool: ResourcePool, levels: int = 16) -> tuple[ResourceVector, ...]:
    """Allocations applying the same fraction ``f`` to every type:
    ``p^(i) = max(1, round(f * P^(i)))`` for ``levels`` fractions in (0, 1]."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    out: list[ResourceVector] = []
    seen: set[ResourceVector] = set()
    for k in range(1, levels + 1):
        f = k / levels
        v = ResourceVector(max(1, round(f * cap)) for cap in pool.capacities)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return tuple(out)


def make_candidates(kind: str = "geometric", **kwargs) -> CandidateStrategy:
    """Factory returning a strategy by name (``full``/``geometric``/``diagonal``)."""
    if kind == "full":
        return full_grid
    if kind == "geometric":
        base = kwargs.pop("base", 2.0)
        if kwargs:
            raise TypeError(f"unexpected arguments {sorted(kwargs)}")
        return lambda pool: geometric_grid(pool, base=base)
    if kind == "diagonal":
        levels = kwargs.pop("levels", 16)
        if kwargs:
            raise TypeError(f"unexpected arguments {sorted(kwargs)}")
        return lambda pool: diagonal_grid(pool, levels=levels)
    raise ValueError(f"unknown candidate strategy {kind!r}")


def candidates_for_job(
    job: Job,
    pool: ResourcePool,
    strategy: CandidateStrategy,
) -> tuple[ResourceVector, ...]:
    """The job's own candidate list if pinned, otherwise ``strategy(pool)``.

    Every returned allocation is validated against the pool.  Jobs whose time
    function rejects an allocation (e.g. zero units of a used type) should
    pin their candidates instead of relying on the strategy.
    """
    cands = job.candidates if job.candidates is not None else strategy(pool)
    if not cands:
        raise ValueError(f"job {job.id!r} has an empty candidate set")
    cands = tuple(cands)
    if not _accepted(cands, pool):
        for c in cands:
            pool.validate_allocation(c)  # names the first row it refuses
    return cands


def _accepted(cands: tuple, pool: ResourcePool) -> bool:
    """:meth:`ResourcePool.validate_allocation` of every row, as one ``(m,
    d)`` array: each row a :class:`ResourceVector` (whole, non-negative
    amounts) of ``d`` types, at most the capacities and not all zero.
    ``False`` says some row may be refused, not which."""
    if not {ResourceVector}.issuperset(map(type, cands)) or set(map(len, cands)) != {pool.d}:
        return False
    try:
        allocs = np.fromiter(chain.from_iterable(cands), np.int64, len(cands) * pool.d)
    except OverflowError:  # an amount no capacity reaches
        return False
    allocs = allocs.reshape(len(cands), pool.d)
    return bool((allocs <= np.array(pool.capacities)).all() and allocs.any(axis=1).all())
