"""Candidate tables in arrays: shared grid, bulk ``t_j(p)``, Eq. (2) by index.

:meth:`Instance.candidate_table` builds one ``(time, area)`` frontier per job.
Every job without pinned candidates enumerates the *same* grid
``strategy(pool)``, so the table-level path lowers that grid once
(:class:`CandidateGrid`: the validated allocations, their ``(m, d)`` integer
matrix and the share vector ``Σ_i p^(i)/P^(i)``) and per job only

* evaluates ``t_j`` over the whole matrix — for
  :class:`~repro.jobs.speedup.MultiResourceTime` each speedup family has an
  array form ``s(xs)`` and the combiner reduces the per-type
  ``w_i / s_i(xs[:, i])`` columns with ``max``/``sum``
  (:func:`evaluate_times`);
* selects the Eq. (2) frontier on the ``times``/``areas`` arrays
  (:func:`repro.jobs.profiles.pareto_indices`);
* builds :class:`~repro.jobs.profiles.ProfileEntry` objects for the kept rows
  only.

A time function with no array form (an opaque callable, or a speedup model
outside the built-in families — :class:`NoArrayForm`) is evaluated candidate
by candidate and then takes the same frontier step.  ``tests/helpers.py``
keeps the per-job loop this replaced as a frozen reference; the tables are
required to be equal entry for entry.  Its cost is the
``instance.candidate_table_s`` layer of ``benchmarks/stack``
(``moldable-pipeline``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.jobs.profiles import ProfileEntry, pareto_indices
from repro.jobs.speedup import (
    AmdahlSpeedup,
    LinearSpeedup,
    LogSpeedup,
    MultiResourceTime,
    PowerLawSpeedup,
    RooflineSpeedup,
)
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

__all__ = [
    "NoArrayForm",
    "CandidateGrid",
    "speedup_array",
    "evaluate_times",
    "evaluate_entries",
]


class NoArrayForm(TypeError):
    """The speedup model is not one of the built-in families, so its job is
    evaluated candidate by candidate instead."""


def speedup_array(model, xs: np.ndarray) -> np.ndarray:
    """Array form of a speedup model over integral allocations ``xs >= 1``.

    Supports the built-in families; raises :class:`NoArrayForm` (a
    ``TypeError``) for custom models, whose jobs take the scalar path.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if isinstance(model, LinearSpeedup):
        return xs
    if isinstance(model, AmdahlSpeedup):
        return xs / (model.alpha * xs + (1.0 - model.alpha))
    if isinstance(model, PowerLawSpeedup):
        return xs**model.beta
    if isinstance(model, RooflineSpeedup):
        return np.minimum(xs, model.cap)
    if isinstance(model, LogSpeedup):
        return 1.0 + model.gamma * np.log2(xs)
    raise NoArrayForm(f"no array form for speedup model {type(model).__name__}")


def evaluate_times(fn: MultiResourceTime, allocs: np.ndarray) -> np.ndarray:
    """``t_j`` over an ``(m, d)`` integer allocation matrix, vectorized.

    Allocations must provide >= 1 unit of every type the job uses (matching
    the scalar evaluator's contract).
    """
    allocs = np.asarray(allocs)
    if allocs.ndim != 2 or allocs.shape[1] != fn.d:
        raise ValueError(f"allocation matrix must be (m, {fn.d}), got {allocs.shape}")
    terms = []
    for i, (w, s) in enumerate(zip(fn.works, fn.speedups)):
        if w == 0:
            continue
        xs = allocs[:, i]
        if (xs < 1).any():
            raise ValueError("allocation must provide >= 1 unit of every used type")
        terms.append(w / speedup_array(s, xs))
    stack = np.stack(terms, axis=1)
    return stack.max(axis=1) if fn.combiner == "max" else stack.sum(axis=1)


@dataclass(frozen=True)
class CandidateGrid:
    """A candidate list lowered to arrays, shared by every job enumerating it.

    ``candidates`` must already be validated against ``pool`` (see
    :func:`repro.jobs.candidates.candidates_for_job`).
    """

    candidates: tuple[ResourceVector, ...]
    #: ``(m, d)`` integer allocation matrix, row ``i`` = ``candidates[i]``
    allocs: np.ndarray
    #: ``Σ_i p^(i)/P^(i)`` per row — Definition 1's area is ``t · share / d``
    shares: np.ndarray

    @classmethod
    def lower(
        cls, candidates: Sequence[ResourceVector], pool: ResourcePool
    ) -> "CandidateGrid":
        """Lower an already validated candidate list."""
        allocs = np.array([tuple(c) for c in candidates], dtype=np.int64)
        caps = np.array(tuple(pool.capacities), dtype=np.float64)
        return cls(tuple(candidates), allocs, (allocs / caps).sum(axis=1))

    def profile(self, fn: MultiResourceTime) -> tuple[np.ndarray, np.ndarray]:
        """``(times, areas)`` of ``fn`` over the grid, checked positive and
        finite.  Raises :class:`NoArrayForm` for a custom speedup model."""
        times = evaluate_times(fn, self.allocs)
        if not np.isfinite(times).all() or (times <= 0).any():
            raise ValueError("execution times must be positive and finite")
        return times, times * self.shares / self.allocs.shape[1]

    def entries(
        self, times: np.ndarray, areas: np.ndarray, rows: np.ndarray
    ) -> list[ProfileEntry]:
        """Entry objects of the given rows, in that order."""
        cands = self.candidates
        return [
            ProfileEntry(alloc=cands[i], time=t, area=a)
            for i, t, a in zip(rows.tolist(), times[rows].tolist(), areas[rows].tolist())
        ]

    def frontier(self, times: np.ndarray, areas: np.ndarray) -> list[ProfileEntry]:
        """The Eq. (2) frontier of the grid under ``times``/``areas``."""
        return self.entries(times, areas, pareto_indices(times, areas))


def evaluate_entries(
    fn: MultiResourceTime,
    candidates: Sequence[ResourceVector],
    pool: ResourcePool,
    *,
    pareto: bool = True,
) -> list[ProfileEntry]:
    """Build (and optionally Pareto-filter) the candidate entries for one job.

    The single-job form of the table-level path: equivalent to the scalar
    ``ProfileEntry`` loop; areas use Definition 1's average over resource
    types.
    """
    grid = CandidateGrid.lower(candidates, pool)
    times, areas = grid.profile(fn)
    if pareto:
        return grid.frontier(times, areas)
    return grid.entries(times, areas, np.arange(len(grid.candidates)))
