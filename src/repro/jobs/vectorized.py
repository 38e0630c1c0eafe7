"""The candidate table's one kernel: all jobs of a grid at once.

Step 1 of Algorithm 1 evaluates every candidate allocation ``p`` of every job
at ``(t_j(p), a_j(p))`` and keeps the Eq. (2) frontier.
:func:`candidate_columns` does it for a whole instance and returns the
columnar :class:`~repro.jobs.profiles.CandidateTable`:

* **Jobs are grouped by the candidate list they enumerate** — every job
  without pinned candidates shares ``strategy(pool)``; pinned jobs with equal
  ``candidates`` tuples share a group.  A list is validated and lowered once
  (:class:`CandidateGrid`).
* **One time kernel.**  ``t_j``'s ``i``-th term ``w_i / s_i(p^(i))``
  depends on ``p^(i)`` only, so per group and type each family is evaluated
  once, elementwise, on the column's distinct levels (6, not 1 296 rows, at
  d = 4) and gathered to the rows (:func:`family_array`,
  :func:`_type_terms`); types a job has no work on are masked out, never
  divided by.  The terms are combined as :class:`MultiResourceTime`
  combines them (:func:`_combine`): ``max`` as a running maximum over the
  gathered columns, ``sum`` as python's ``sum`` in type order
  (:func:`_python_sum`), not numpy's pairwise one.  The grid kernel, the
  sweep and :func:`exact_times` (Phase 2's durations) all evaluate through
  these two, and their rules are python's: numpy does ``+ − × ÷`` and
  ``min``, correctly rounded on any SIMD path, while ``float ** beta`` is
  ``math.pow`` per element and ``log2`` is ``math.log2`` once per level —
  numpy's vector ``pow``/``log2`` can land one ulp from the C library's on
  one host and not another.  So a table time, the bound built from it and
  a duration are ``Job.time``'s float, bit for bit, on any host.
* **The sweep.**  On a list that is the lexicographic product of its levels
  (:attr:`CandidateGrid.strides`; the geometric and full grids), a job under
  ``max`` whose terms are finite, positive and non-increasing along each
  type's levels is filtered over ``Σ_i L_i`` points, not ``Π_i L_i`` rows
  (12, not 36, on the ruler's d = 2 grid): each of its terms ``τ`` at or
  above its fastest time, with, per type, the first level whose term is
  ``<= τ``.  Every row's time is one of its terms and that point is at or
  below the row on every type — no larger in area, earlier in the product
  order — so Eq. (2) keeps the same rows, and the table is the grid
  kernel's bit for bit (:func:`_sweep`, :func:`_group_blocks`).
* **The grid kernel** takes every other job — ``sum``, a list that is not a
  product, a level below 1, terms that are not finite, positive and
  non-increasing — and refuses as it always has: the per-type terms are
  gathered to the rows and combined, multiplied into areas, and Eq. (2)
  takes all rows in one :func:`~repro.jobs.profiles.pareto_rows`
  (:func:`_block_times`).
* A time function with no array form (an opaque callable, a speedup model
  outside the built-in families on a type the job uses, or a subclass that
  overrides ``__call__``) is evaluated candidate by candidate — once per
  candidate: the area comes from the time in hand — and joins the same
  matrices before the Eq. (2) step.
* Blocks of at most ``_BLOCK_CELLS`` ``(job, column)`` cells bound the
  working set.  Every step is per job row, so the table is the same at any
  block size.

:func:`exact_times` reuses the table's lowered time functions
(:class:`_TimeFunctions`, kept as ``table.time_functions``) for
:class:`~repro.instance.compiled.Allocation`'s durations, each job's row a
grid of one row.  No :class:`~repro.jobs.profiles.ProfileEntry` is built
here; the table's per-job views build them for callers that look at one.
``tests/helpers.py`` keeps the per-job loop this replaced, every time
``Job.time``'s, as a frozen reference; the tables must be equal entry for
entry.
The cost of all this is the ``instance.candidate_table_s`` layer of
``benchmarks/stack`` (``moldable-pipeline``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import attrgetter, itemgetter
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
    "CandidateGrid",
    "family_array",
    "candidate_columns",
    "exact_times",
]

#: Most ``(job, row)`` cells evaluated at once.  An internal bound on the
#: working set (a few dozen bytes per cell), not a tuning knob: the table
#: does not depend on it.
_BLOCK_CELLS = 1 << 16


def _pow(xs: np.ndarray, beta) -> np.ndarray:
    """``float ** beta`` per element, as python computes it: ``math.pow``
    calls the C library's ``pow``, as ``float.__pow__`` does for the
    positive finite operands here; numpy's ``**`` may take a vector path
    that lands one ulp away, on one host and not another.  A ``(1, L)`` row
    of levels every job shares against one β per job (a ``(jobs, 1)``
    column) is evaluated level by level over the one list of βs, so no
    operand is listed twice; the result is then a transposed view."""
    xs, beta = np.asarray(xs), np.asarray(beta)
    if xs.ndim == beta.ndim == 2 and xs.shape[0] == 1 and beta.shape[1] == 1:
        betas = beta[:, 0].tolist()
        out = chain.from_iterable(map(math.pow, repeat(x), betas) for x in xs[0].tolist())
        return np.fromiter(out, np.float64, xs.size * len(betas)).reshape(xs.size, len(betas)).T
    xs, beta = np.broadcast_arrays(xs, beta)
    out = map(math.pow, xs.ravel().tolist(), beta.ravel().tolist())
    return np.fromiter(out, np.float64, xs.size).reshape(xs.shape)


def _log2(xs: np.ndarray) -> np.ndarray:
    """``math.log2`` per element, evaluated once per distinct value."""
    values, at = np.unique(xs, return_inverse=True)
    return np.array(list(map(math.log2, values.tolist())))[at.reshape(xs.shape)]


#: The built-in speedup families: class, parameter attribute, array form
#: ``s(xs, parameter)`` — ``parameter`` a scalar or a ``(jobs, 1)`` column.
_FAMILIES = (
    (LinearSpeedup, None, lambda xs, _: xs),
    (AmdahlSpeedup, "alpha", lambda xs, alpha: xs / (alpha * xs + (1.0 - alpha))),
    (PowerLawSpeedup, "beta", _pow),
    (RooflineSpeedup, "cap", lambda xs, cap: np.minimum(xs, cap)),
    (LogSpeedup, "gamma", lambda xs, gamma: 1.0 + gamma * _log2(xs)),
)


def _family_of(cls: type) -> tuple[int, str | None]:
    """``(family code, parameter attribute)`` of a speedup class; code -1
    for a class outside the built-in families, or for a subclass that
    overrides its family's ``__call__``: its formula is its own."""
    for code, (family, attr, _) in enumerate(_FAMILIES):
        if issubclass(cls, family):
            return (code, attr) if cls.__call__ is family.__call__ else (-1, None)
    return -1, None


def family_array(code: int, xs: np.ndarray, parameter) -> np.ndarray:
    """The speedup kernel: family ``code`` over float allocations ``xs >= 1``,
    each element the float the family's ``__call__`` returns."""
    return _FAMILIES[code][2](xs, parameter)


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
    #: the mixed-radix place values when the list is the lexicographic
    #: product of its levels (row ``r`` is ``level_of[r] @ strides``, as
    #: ``itertools.product`` lays it out), else ``None``
    strides: np.ndarray | None

    @classmethod
    def lower(
        cls, candidates: Sequence[ResourceVector], pool: ResourcePool
    ) -> "CandidateGrid":
        """Lower an already validated candidate list."""
        allocs = np.fromiter(chain.from_iterable(candidates), np.int64).reshape(len(candidates), pool.d)
        caps = np.array(tuple(pool.capacities), dtype=np.float64)
        levels, level_of = _levels(allocs)
        return cls(
            tuple(candidates), allocs, (allocs / caps).sum(axis=1), levels, level_of,
            _product_strides(levels, level_of),
        )


def _levels(allocs: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """``(levels, level_of)`` of an ``(m, d)`` allocation matrix (see
    :class:`CandidateGrid`)."""
    columns = [np.unique(allocs[:, i], return_inverse=True) for i in range(allocs.shape[1])]
    return (
        tuple(levels.astype(np.float64) for levels, _ in columns),
        np.stack([inverse.reshape(-1) for _, inverse in columns], axis=1),
    )


def _product_strides(levels: Sequence[np.ndarray], level_of: np.ndarray) -> np.ndarray | None:
    """:attr:`CandidateGrid.strides`: ``m == Π L_i`` and every row's level
    indices are the mixed-radix digits of its position."""
    sizes = [lv.size for lv in levels]
    m = level_of.shape[0]
    if m != math.prod(sizes):
        return None
    strides = np.cumprod([1] + sizes[:0:-1])[::-1]
    return strides if np.array_equal(level_of @ strides, np.arange(m)) else None


@dataclass(frozen=True)
class _TimeFunctions:
    """The time functions of a group's jobs as ``(jobs, d)`` arrays.

    ``codes[k, i]`` is the family of job ``k``'s speedup on type ``i`` (-1:
    none, see :func:`_family_of`; an opaque callable has -1 everywhere) and
    ``params[k, i]`` its parameter; ``sums[k]`` says the combiner is ``sum``.
    ``exact[k]`` says job ``k`` has an array form: its value *is* the family
    formulas, because its time function and every speedup on a type it uses
    call the built-in ``__call__``.  A subclass that overrides one is asked,
    for the table and for :func:`exact_times` alike — the table's times
    become the lower bound a schedule is certified against, so they must be
    the job's own.
    """

    works: np.ndarray
    codes: np.ndarray
    params: np.ndarray
    sums: np.ndarray
    exact: np.ndarray

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
        n = len(jobs)
        works = np.array(list(chain.from_iterable(works)))
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
        code_of = {c: _family_of(c)[0] for c in set(classes)}
        codes = np.fromiter(map(code_of.__getitem__, classes), np.int64, n * d)
        params = np.zeros(n * d)
        for code in set(code_of.values()) - {-1}:
            attr = _FAMILIES[code][1]
            if attr:  # one attribute getter per family, over its elements
                at = np.flatnonzero(codes == code)
                picked = itemgetter(*at.tolist())(models) if at.size > 1 else (models[at[0]],)
                params[at] = list(map(attrgetter(attr), picked))
        codes = codes.reshape(n, d)
        works = works.astype(np.float64).reshape(n, d)
        fn_types = list(map(type, (job.time_fn for job in jobs)))
        own = {t: getattr(t, "__call__", None) is MultiResourceTime.__call__ for t in set(fn_types)}
        return cls(
            works,
            codes,
            params.reshape(n, d),
            np.array(sums, dtype=bool),
            np.fromiter(map(own.get, fn_types), bool, n)
            & ((works == 0) | (codes >= 0)).all(axis=1),
        )

    def take(self, rows: np.ndarray) -> "_TimeFunctions":
        """The rows ``rows`` (integer positions), gathered along axis 0."""
        return _TimeFunctions(
            *(np.take(column, rows, axis=0) for column in (
                self.works, self.codes, self.params, self.sums, self.exact
            ))
        )


def _python_sum(columns) -> np.ndarray:
    """Element by element, python's ``sum`` of the ``columns`` (equal-shape
    arrays, one per type) in type order — the combiner
    :class:`MultiResourceTime` applies — with a 0 term a skipped term.
    Before 3.12 that is left to right from 0; from 3.12 on, ``sum`` of
    floats compensates each addition (Neumaier) and adds the compensation
    once, when it is finite and not 0.  Adding 0 changes neither the total
    nor the compensation, so skipped terms stay skipped."""
    total = 0.0
    if sys.version_info < (3, 12):
        for column in columns:
            total = total + column
        return total
    comp = 0.0
    for column in columns:
        t = total + column
        comp = comp + np.where(
            np.abs(total) >= np.abs(column), (total - t) + column, (column - t) + total
        )
        total = t
    keep = (comp != 0.0) & np.isfinite(comp)
    return np.where(keep, total + comp, total)


def _type_terms(fns: _TimeFunctions, amounts: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per type ``i``, the terms ``w_i / s_i(x)`` of every exact job of
    ``fns`` (no used amount below 1) at the float amounts ``amounts[i]``:
    ``L`` levels every job shares (a grid's) or a ``(jobs, 1)`` column, one
    amount per job; ``(jobs, L)``, 0 where the job does not use the type or
    is not exact."""
    terms = []
    for i, xs in enumerate(amounts):
        xs = np.atleast_2d(xs)
        users = (fns.works[:, i] != 0) & fns.exact
        term = np.zeros((users.size, xs.shape[1]))
        codes = fns.codes[:, i]
        for code in np.unique(codes[users]).tolist():
            rows = np.flatnonzero(users & (codes == code))
            at = xs if xs.shape[0] == 1 else xs[rows]
            term[rows] = fns.works[rows, i, None] / family_array(code, at, fns.params[rows, i, None])
        terms.append(term)
    return terms


def _combine(terms: Sequence[np.ndarray], level_of: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """``(jobs, rows)``: the terms of :func:`_type_terms` gathered to the
    rows of ``level_of`` (per type, a column index into that type's terms)
    and combined as ``Job.time`` combines them.  ``max`` is exact in any
    order and a masked-out term is 0, below every time: one running maximum
    over the gathered columns.  ``sum`` is python's (:func:`_python_sum`)."""
    times = np.zeros((sums.size, level_of.shape[0]))
    if not sums.all():
        for i, term in enumerate(terms):
            np.maximum(times, term[:, level_of[:, i]], out=times)
    if sums.any():
        rows = np.flatnonzero(sums)
        times[rows] = _python_sum(term[rows][:, level_of[:, i]] for i, term in enumerate(terms))
    return times


def exact_times(fns: _TimeFunctions, allocs: np.ndarray) -> np.ndarray:
    """``Job.time`` bit for bit, all jobs at once: row ``k`` of the ``(n,
    d)`` integer matrix ``allocs`` under the time function lowered in row
    ``k`` of ``fns``, by the table's own kernel (each job's row is a grid
    of one row).  A row whose job has no exact array form (``fns.exact``),
    or that gives a type the job uses less than one unit, is NaN: the
    caller asks ``Job.time``, which evaluates the callable or raises its
    refusal by name.
    """
    xs = allocs.astype(np.float64)
    ok = fns.exact & ~((fns.works != 0) & (xs < 1.0)).any(axis=1)
    terms = _type_terms(replace(fns, exact=ok), xs.T[:, :, None])
    times = _combine(terms, np.zeros((1, xs.shape[1]), dtype=np.int64), fns.sums)[:, 0]
    times[~ok] = np.nan
    return times


def _block_times(
    grid_levels: Sequence[np.ndarray],
    level_of: np.ndarray,
    fns: _TimeFunctions,
    jobs: Sequence[Job],
) -> np.ndarray:
    """``t_j(p)`` for every job of ``fns`` (all exact) and every row of a
    grid given by its ``levels`` and ``level_of``: ``(jobs, m)``.  ``jobs``
    only names the job in a refusal."""
    used = fns.works != 0
    for i, levels in enumerate(grid_levels):
        if levels[0] < 1 and used[:, i].any():
            job = jobs[int(np.flatnonzero(used[:, i])[0])]
            raise ValueError(
                f"job {job.id!r}: allocation must provide >= 1 unit of every used type"
            )
    return _combine(_type_terms(fns, grid_levels), level_of, fns.sums)


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


def _sweepable(terms: Sequence[np.ndarray], fns: _TimeFunctions) -> np.ndarray:
    """Per job: combined by ``max``, and on every type it uses its terms are
    finite, positive and non-increasing along the levels."""
    used = fns.works != 0
    ok = ~fns.sums
    for i, term in enumerate(terms):
        fit = (np.isfinite(term) & (term > 0)).all(axis=1)
        fit &= (term[:, 1:] <= term[:, :-1]).all(axis=1)
        ok &= fit | ~used[:, i]
    return ok


def _sweep(terms: Sequence[np.ndarray], strides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(times, rows)``, both ``(jobs, Σ_i L_i)``: for every per-type term
    ``τ`` of a job at or above its fastest time, the least point at time
    ``τ`` — per type the first level whose term is ``<= τ`` — as its grid
    row, and its time, which is ``τ``: the term that set it is at its own
    first level ``<= τ``, every other type is at or below ``τ``.  A term
    below the fastest time is raised to it (a duplicate of that point)."""
    times = np.concatenate(terms, axis=1)
    np.maximum(times, np.max([term[:, -1] for term in terms], axis=0)[:, None], out=times)
    rows = np.zeros(times.shape, dtype=np.int64)
    for term, stride in zip(terms, strides.tolist()):
        above = np.zeros(times.shape, dtype=np.int64)  # non-increasing: the level's index
        for level in term.T:
            above += level[:, None] > times
        rows += stride * above
    return times, rows


def _swept_blocks(grid: CandidateGrid, kernel: np.ndarray, fns: _TimeFunctions):
    """The sweep's blocks of :func:`_group_blocks` over the jobs ``kernel``
    of a product list; returns the jobs it left to the grid kernel."""
    d = grid.allocs.shape[1]
    per_block = max(1, _BLOCK_CELLS // sum(levels.size for levels in grid.levels))
    left = [kernel[:0]]
    for lo in range(0, kernel.size, per_block):
        which = kernel[lo : lo + per_block]
        block = fns.take(which)
        terms = _type_terms(block, grid.levels)
        swept = _sweepable(terms, block)
        if swept.any():
            times, rows = _sweep([term[swept] for term in terms], grid.strides)
            yield which[swept], times, times * grid.shares[rows] / d, rows
        left.append(which[~swept])
    return np.concatenate(left)


def _group_blocks(
    grid: CandidateGrid, jobs: Sequence[Job], fns: _TimeFunctions, pool: ResourcePool
):
    """``(which, times, areas, rows)`` over the jobs of one group (``fns``
    their lowered time functions), a block at a time: ``which`` are
    positions in ``jobs``, the matrices ``(which.size, columns)``, and
    ``rows`` the grid row of each column (``None``: column ``r`` is row
    ``r``).  Swept jobs come first, then the grid kernel's, then the jobs
    with no array form.  The sweep's point at time ``τ`` is at or below
    every row of time ``τ`` on every type, so no larger in area (``t ·
    share / d`` rounds monotonically) and earlier in the product order,
    which is what ``pareto_rows`` keeps on a tie.  In a group where a job
    would be refused for a level below 1, every job takes the grid kernel,
    so the refusal is that kernel's own."""
    m, d = grid.allocs.shape
    kernel, scalar = np.flatnonzero(fns.exact), np.flatnonzero(~fns.exact)
    below_one = np.array([levels[0] < 1 for levels in grid.levels])
    if grid.strides is not None and not (fns.works[kernel][:, below_one] != 0).any():
        kernel = yield from _swept_blocks(grid, kernel, fns)
    per_block = max(1, _BLOCK_CELLS // m)
    for lo in range(0, kernel.size, per_block):
        which = kernel[lo : lo + per_block]
        named = [jobs[k] for k in which.tolist()]
        times = _block_times(grid.levels, grid.level_of, fns.take(which), named)
        _check_times(times, grid, named)
        yield which, times, times * grid.shares / d, None
    shares = _python_shares(grid, pool) if scalar.size else None
    for lo in range(0, scalar.size, per_block):
        which = scalar[lo : lo + per_block]
        # one call per candidate; Job.time refuses a bad value by name
        times = np.array(
            [[jobs[k].time(c) for c in grid.candidates] for k in which.tolist()]
        ).reshape(which.size, m)
        yield which, times, times * shares / d, None


def candidate_columns(
    jobs: Mapping[Hashable, Job], pool: ResourcePool, strategy: CandidateStrategy
) -> CandidateTable:
    """The Eq. (2) frontier of every job, as a columnar table in ``jobs`` order
    (see the module docstring)."""
    if not jobs:
        return CandidateTable.from_entries({})
    job_list = list(jobs.values())
    fns = _TimeFunctions.lower(job_list, pool.d)  # once, kept for Allocation.durations
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
    first = np.empty(len(job_list), dtype=np.int64)  # each job's list in the stacked allocs
    stacked = 0
    for grid, members in groups.values():
        for position in members:
            candidates[position] = grid.candidates
        positions = np.array(members)
        first[positions] = stacked
        stacked += len(grid.candidates)
        blocks = _group_blocks(grid, [job_list[p] for p in members], fns.take(positions), pool)
        for which, t, a, grid_rows in blocks:
            order, keep = pareto_rows(t, a)
            kept = keep.sum(axis=1)
            column = order[keep]  # every job's kept candidates, job after job
            job = np.repeat(np.arange(which.size), kept)
            computed.append(positions[which])
            counts.append(kept)
            times.append(t[job, column])
            areas.append(a[job, column])
            rows.append(column if grid_rows is None else grid_rows[job, column])
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
        lists=(np.concatenate([grid.allocs for grid, _ in groups.values()]), first),
        time_functions=fns,
    )
