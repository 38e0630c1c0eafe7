"""Allocation adjustment — Step 3 of Algorithm 1 (Eq. (5), Lemma 4).

The initial allocation ``p'`` from the DTCT rounding may give a single job a
large share of some resource type, which would let list scheduling idle most
of the platform behind it.  The adjustment caps every job's per-type
allocation at ``⌈µ P^(i)⌉``::

    p_j^(i) = ⌈µ P^(i)⌉   if p'_j^(i) > ⌈µ P^(i)⌉,  else  p'_j^(i)

Lemma 4 then bounds the damage: an adjusted job's execution time grows by at
most ``1/µ`` and its per-type area by at most ``d·a_j(p'_j)`` provided
``P^(i) >= 1/µ²`` — both of which the test suite asserts on concrete
instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

import numpy as np

from repro.instance.instance import Instance
from repro.resources.vector import ResourceVector

__all__ = ["AdjustmentResult", "adjust_allocation"]

JobId = Hashable


@dataclass(frozen=True)
class AdjustmentResult:
    """Final allocation ``p`` plus the set of adjusted jobs."""

    allocation: dict[JobId, ResourceVector]
    adjusted_jobs: frozenset
    mu: float
    caps: ResourceVector


def adjust_allocation(
    instance: Instance,
    p_prime: Mapping[JobId, ResourceVector],
    mu: float,
) -> AdjustmentResult:
    """Apply Eq. (5) to every job; returns the capped allocation ``p``.

    The ``(n, d)`` matrix of ``p'`` is capped in one ``minimum``; a job the
    caps do not touch keeps the vector it came with, and only a capped job
    gets a new one.
    """
    caps = instance.pool.mu_caps(mu)
    allocation = dict(p_prime)
    adjusted: list = []
    if allocation:
        jobs = list(allocation)
        wanted = np.array(list(allocation.values()), dtype=np.int64)
        if wanted.ndim != 2 or wanted.shape[1] != len(caps):
            raise ValueError(
                f"resource-type dimension mismatch: allocations of shape "
                f"{wanted.shape[1:]} against {len(caps)} resource types"
            )
        capped = np.minimum(wanted, np.array(caps, dtype=np.int64))
        hit = np.flatnonzero((capped != wanted).any(axis=1))
        for i, row in zip(hit.tolist(), capped[hit].tolist()):
            allocation[jobs[i]] = ResourceVector(row)
            adjusted.append(jobs[i])
    return AdjustmentResult(
        allocation=allocation, adjusted_jobs=frozenset(adjusted), mu=mu, caps=caps
    )
