"""The candidate table's one kernel: all jobs of a grid at once.

Step 1 of Algorithm 1 evaluates every candidate allocation ``p`` of every job
at ``(t_j(p), a_j(p))`` and keeps the Eq. (2) frontier.
:func:`candidate_columns` does it for a whole instance and returns the
columnar :class:`~repro.jobs.profiles.CandidateTable`:

* **Jobs are grouped by the candidate list they enumerate** — every job
  without pinned candidates shares ``strategy(pool)``; pinned jobs with equal
  ``candidates`` tuples share a group.  A list is validated and lowered once
  (:class:`CandidateGrid`).
* **Per group and resource type, each speedup family is evaluated once, on
  the distinct levels of that column.**  ``t_j``'s ``i``-th term ``w_i /
  s_i(p^(i))`` depends on ``p^(i)`` only, and every array form below is an
  elementwise ufunc expression, whose value at an element does not depend on
  where in an array the element sits: evaluating the 6 distinct levels of a
  36-row column (6, not 1 296, at d = 4) as a ``(jobs of the family, levels)``
  array and gathering to ``(jobs, rows)`` gives, float for float, what
  evaluating every row for every job gives (:func:`family_array`,
  :func:`_block_times`).  Types a job has no work on are masked out, never
  divided by.
* The per-type terms of the jobs that use the same types under the same
  combiner are reduced with one ``max``/``sum`` over a trailing axis — the
  reduction the one-job form ``np.stack(terms, axis=1).sum(axis=1)`` is, so
  also numpy's pairwise ``sum`` from 8 terms on — multiplied into areas, and
  Eq. (2) takes all rows in one :func:`~repro.jobs.profiles.pareto_rows`.
* A time function with no array form (an opaque callable, or a speedup model
  outside the built-in families on a type the job uses) is evaluated
  candidate by candidate — once per candidate: the area comes from the time
  in hand — and joins the same matrices before the Eq. (2) step.
* Blocks of at most ``_BLOCK_CELLS`` ``(job, row)`` cells bound the working
  set.  Every step is per job row, so the table is the same at any block
  size.

No :class:`~repro.jobs.profiles.ProfileEntry` is built here; the table's
per-job views build them for callers that look at one.  ``tests/helpers.py``
keeps the per-job loop this replaced as a frozen reference; the tables are
required to be equal entry for entry.  The cost of all this is the
``instance.candidate_table_s`` layer of ``benchmarks/stack``
(``moldable-pipeline``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.jobs.candidates import CandidateStrategy, candidates_for_job
from repro.jobs.job import Job
from repro.jobs.profiles import CandidateTable, pareto_rows, take_segments
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
    "family_array",
    "speedup_array",
    "evaluate_times",
    "candidate_columns",
]

#: Most ``(job, row)`` cells evaluated at once.  An internal bound on the
#: working set (a few dozen bytes per cell), not a tuning knob: the table
#: does not depend on it.
_BLOCK_CELLS = 1 << 16


class NoArrayForm(TypeError):
    """The speedup model is not one of the built-in families, so its job is
    evaluated candidate by candidate instead."""


def _power(xs, beta):
    out = xs**beta
    if np.ndim(beta):
        # given as a python scalar — as the one-job form gives it — these two
        # exponents take numpy's sqrt / copy shortcuts, not the pow loop
        for shortcut in (0.5, 1.0):
            rows = np.flatnonzero(beta[:, 0] == shortcut)
            if rows.size:
                out[rows] = xs**shortcut
    return out


#: The built-in speedup families: class, parameter attribute, array form
#: ``s(xs, parameter)`` — ``parameter`` a scalar or a ``(jobs, 1)`` column.
_FAMILIES = (
    (LinearSpeedup, None, lambda xs, _: xs),
    (AmdahlSpeedup, "alpha", lambda xs, alpha: xs / (alpha * xs + (1.0 - alpha))),
    (PowerLawSpeedup, "beta", _power),
    (RooflineSpeedup, "cap", lambda xs, cap: np.minimum(xs, cap)),
    (LogSpeedup, "gamma", lambda xs, gamma: 1.0 + gamma * np.log2(xs)),
)


def _family_of(cls: type) -> tuple[int, str | None]:
    """``(family code, parameter attribute)`` of a speedup class; code -1
    for a class outside the built-in families."""
    for code, (family, attr, _) in enumerate(_FAMILIES):
        if issubclass(cls, family):
            return code, attr
    return -1, None


def family_array(code: int, xs: np.ndarray, parameter) -> np.ndarray:
    """The speedup kernel: family ``code`` over float allocations ``xs >= 1``."""
    return _FAMILIES[code][2](xs, parameter)


def speedup_array(model, xs: np.ndarray) -> np.ndarray:
    """Array form of a speedup model over integral allocations ``xs >= 1``.

    Supports the built-in families; raises :class:`NoArrayForm` (a
    ``TypeError``) for custom models, whose jobs take the scalar path.
    """
    code, attr = _family_of(type(model))
    if code < 0:
        raise NoArrayForm(f"no array form for speedup model {type(model).__name__}")
    return family_array(
        code, np.asarray(xs, dtype=np.float64), getattr(model, attr) if attr else None
    )


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
    #: per type, the distinct values of that column, ascending, as floats
    levels: tuple[np.ndarray, ...]
    #: ``(m, d)``: ``allocs[r, i] == levels[i][level_of[r, i]]``
    level_of: np.ndarray

    @classmethod
    def lower(
        cls, candidates: Sequence[ResourceVector], pool: ResourcePool
    ) -> "CandidateGrid":
        """Lower an already validated candidate list."""
        allocs = np.array([tuple(c) for c in candidates], dtype=np.int64)
        caps = np.array(tuple(pool.capacities), dtype=np.float64)
        return cls(tuple(candidates), allocs, (allocs / caps).sum(axis=1), *_levels(allocs))


def _levels(allocs: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """``(levels, level_of)`` of an ``(m, d)`` allocation matrix (see
    :class:`CandidateGrid`)."""
    columns = [np.unique(allocs[:, i], return_inverse=True) for i in range(allocs.shape[1])]
    return (
        tuple(levels.astype(np.float64) for levels, _ in columns),
        np.stack([inverse.reshape(-1) for _, inverse in columns], axis=1),
    )


@dataclass(frozen=True)
class _TimeFunctions:
    """The time functions of a group's jobs as ``(jobs, d)`` arrays.

    ``codes[k, i]`` is the family of job ``k``'s speedup on type ``i`` (-1:
    no built-in family; an opaque callable has -1 everywhere) and
    ``params[k, i]`` its parameter; ``sums[k]`` says the combiner is ``sum``.
    """

    works: np.ndarray
    codes: np.ndarray
    params: np.ndarray
    sums: np.ndarray

    @classmethod
    def lower(cls, jobs: Sequence[Job], d: int) -> "_TimeFunctions":
        ones, nones = (1.0,) * d, (None,) * d  # an opaque callable's row: no family anywhere
        works, models, sums = [], [], []
        for job in jobs:
            fn = job.time_fn
            if isinstance(fn, MultiResourceTime):
                if len(fn.works) != d:
                    raise ValueError(
                        f"job {job.id!r}: time function has {len(fn.works)} resource "
                        f"types, the pool has {d}"
                    )
                works.append(fn.works)
                models.append(fn.speedups)
                sums.append(fn.combiner == "sum")
            else:
                works.append(ones)
                models.append(nones)
                sums.append(False)
        works = np.array(works).reshape(len(jobs), d)
        if works.dtype.kind not in "biuf":
            # a type bug in a job's data is reported, not coerced
            bad = next(
                j for j in jobs
                if isinstance(j.time_fn, MultiResourceTime)
                and np.array(j.time_fn.works).dtype.kind not in "biuf"
            )
            raise TypeError(
                f"job {bad.id!r}: per-type works must be numbers, got {bad.time_fn.works!r}"
            )
        models = list(chain.from_iterable(models))
        classes = list(map(type, models))
        family = {c: _family_of(c) for c in set(classes)}  # one lookup per class
        attrs = [family[c][1] for c in classes]
        return cls(
            works.astype(np.float64),
            np.array([family[c][0] for c in classes], dtype=np.int64).reshape(len(jobs), d),
            np.array(
                [getattr(s, a) if a else 0.0 for s, a in zip(models, attrs)], dtype=np.float64
            ).reshape(len(jobs), d),
            np.array(sums, dtype=bool),
        )

    def array_form(self) -> np.ndarray:
        """Per job: every type it has work on has a built-in family."""
        return ((self.codes >= 0) | (self.works == 0)).all(axis=1)

    def take(self, rows) -> "_TimeFunctions":
        return _TimeFunctions(
            self.works[rows], self.codes[rows], self.params[rows], self.sums[rows]
        )


def _block_times(
    grid_levels: Sequence[np.ndarray],
    level_of: np.ndarray,
    fns: _TimeFunctions,
    jobs: Sequence[Job],
) -> np.ndarray:
    """``t_j(p)`` for every job of ``fns`` (all with an array form) and every
    row of a grid given by its ``levels`` and ``level_of``: ``(jobs, m)``.
    ``jobs`` only names the job in a refusal."""
    n, m = fns.works.shape[0], level_of.shape[0]
    used = fns.works != 0
    terms = []  # per type, (jobs, levels of that type); 0 where the type is unused
    for i, levels in enumerate(grid_levels):
        term = np.zeros((n, levels.size))
        users = used[:, i]
        if users.any():
            if levels[0] < 1:
                job = jobs[int(np.flatnonzero(users)[0])]
                raise ValueError(
                    f"job {job.id!r}: allocation must provide >= 1 unit of every used type"
                )
            codes = fns.codes[:, i]
            for code in np.unique(codes[users]).tolist():
                rows = np.flatnonzero(users & (codes == code))
                speedup = family_array(code, levels[None, :], fns.params[rows, i, None])
                term[rows] = fns.works[rows, i, None] / speedup
        terms.append(term)
    # ``max`` is exact in any order and a masked-out term is 0, below every
    # time: one running maximum over the gathered columns serves all jobs
    times = np.zeros((n, m))
    if not fns.sums.all():
        for i, term in enumerate(terms):
            np.maximum(times, term[:, level_of[:, i]], out=times)
    # ``sum`` is the one-job reduction itself: the jobs that use the same
    # types stack those columns, in type order, and reduce the trailing axis
    if fns.sums.any():
        summed = np.flatnonzero(fns.sums)
        shapes, shape_of = np.unique(used[summed], axis=0, return_inverse=True)
        for k, shape in enumerate(shapes):
            rows = summed[shape_of.reshape(-1) == k]
            types = np.flatnonzero(shape)
            stack = np.empty((rows.size, m, types.size))
            for c, i in enumerate(types.tolist()):
                stack[:, :, c] = terms[i][rows[:, None], level_of[None, :, i]]
            times[rows] = stack.sum(axis=-1)
    return times


def _check_times(times: np.ndarray, grid: CandidateGrid, jobs: Sequence[Job]) -> None:
    """Unless all ``times`` are positive and finite, the refusal
    :meth:`Job.time` makes, for the first offending job and allocation."""
    bad = ~(np.isfinite(times) & (times > 0))
    if bad.any():
        k, r = np.argwhere(bad)[0].tolist()
        raise ValueError(
            f"job {jobs[k].id!r}: execution time must be positive and finite, "
            f"got {times[k, r]} at allocation {tuple(grid.candidates[r])}"
        )


def _python_shares(grid: CandidateGrid, pool: ResourcePool) -> np.ndarray:
    """``Σ_i p^(i)/P^(i)`` per candidate, by the expression
    :meth:`Instance.avg_area` uses — python's ``sum`` and numpy's are not
    the same additions from 8 types on."""
    caps, d = pool.capacities, pool.d
    return np.array([sum(c[i] / caps[i] for i in range(d)) for c in grid.candidates])


def _group_blocks(grid: CandidateGrid, jobs: Sequence[Job], pool: ResourcePool):
    """``(which, times, areas)`` over the jobs of one group, a block at a
    time: ``which`` are positions in ``jobs``, the matrices ``(which.size,
    m)``.  Jobs with an array form come first, then the others."""
    m, d = grid.allocs.shape
    per_block = max(1, _BLOCK_CELLS // m)
    fns = _TimeFunctions.lower(jobs, d)
    form = fns.array_form()
    kernel, scalar = np.flatnonzero(form), np.flatnonzero(~form)
    for lo in range(0, kernel.size, per_block):
        which = kernel[lo : lo + per_block]
        named = [jobs[k] for k in which.tolist()]
        times = _block_times(grid.levels, grid.level_of, fns.take(which), named)
        _check_times(times, grid, named)
        yield which, times, times * grid.shares / d
    shares = _python_shares(grid, pool) if scalar.size else None
    for lo in range(0, scalar.size, per_block):
        which = scalar[lo : lo + per_block]
        # one call per candidate; Job.time refuses a bad value by name
        times = np.array(
            [[jobs[k].time(c) for c in grid.candidates] for k in which.tolist()]
        ).reshape(which.size, m)
        yield which, times, times * shares / d


def candidate_columns(
    jobs: Mapping[Hashable, Job], pool: ResourcePool, strategy: CandidateStrategy
) -> CandidateTable:
    """The Eq. (2) frontier of every job, as a columnar table in ``jobs`` order
    (see the module docstring)."""
    if not jobs:
        return CandidateTable.from_entries({})
    job_list = list(jobs.values())
    groups: dict[object, tuple[CandidateGrid, list[int]]] = {}
    for position, job in enumerate(job_list):
        key = None if job.candidates is None else tuple(job.candidates)
        group = groups.get(key)
        if group is None:
            # enumerated, validated and lowered once for every job that shares it
            grid = CandidateGrid.lower(candidates_for_job(job, pool, strategy), pool)
            group = groups[key] = (grid, [])
        group[1].append(position)

    # frontiers in the order they are computed, permuted to job order at the end
    computed, counts, times, areas, rows = [], [], [], [], []
    candidates: list = [None] * len(job_list)
    for grid, members in groups.values():
        for position in members:
            candidates[position] = grid.candidates
        positions = np.array(members)
        for which, t, a in _group_blocks(grid, [job_list[p] for p in members], pool):
            order, keep = pareto_rows(t, a)
            kept = keep.sum(axis=1)
            row = order[keep]  # every job's kept candidates, job after job
            job = np.repeat(np.arange(which.size), kept)
            computed.append(positions[which])
            counts.append(kept)
            times.append(t[job, row])
            areas.append(a[job, row])
            rows.append(row)
    starts, at = take_segments(
        np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
        np.argsort(np.concatenate(computed)),
    )
    return CandidateTable(
        list(jobs),
        starts,
        np.concatenate(times)[at],
        np.concatenate(areas)[at],
        np.concatenate(rows)[at],
        candidates,
    )


def evaluate_times(fn: MultiResourceTime, allocs: np.ndarray) -> np.ndarray:
    """``t_j`` over an ``(m, d)`` integer allocation matrix: the kernel on one
    job.  Allocations must provide >= 1 unit of every type the job uses
    (matching the scalar evaluator's contract); raises :class:`NoArrayForm`
    for a custom speedup model on such a type.
    """
    allocs = np.asarray(allocs)
    if allocs.ndim != 2 or allocs.shape[1] != fn.d:
        raise ValueError(f"allocation matrix must be (m, {fn.d}), got {allocs.shape}")
    job = Job(id="evaluate_times", time_fn=fn)
    fns = _TimeFunctions.lower([job], fn.d)
    if not fns.array_form()[0]:
        raise NoArrayForm("no array form for a speedup model of this time function")
    return _block_times(*_levels(allocs), fns, [job])[0]
