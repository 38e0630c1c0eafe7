"""Discrete Time-Cost Tradeoff relaxation and ρ-rounding (Section 4.1, Lemma 3).

The resource-allocation problem maps to the DTCT problem (Definition 3):
each job's non-dominated allocations are the task's alternatives with time
``t_j(p)`` and cost ``a_j(p)`` (average area).  Following the adaptation of
Skutella's algorithm described in the paper, we solve one LP that minimizes
the lower-bound functional ``L`` directly (instead of fixing a budget or a
deadline a priori).  With ``x_{j,k}`` the weight of job ``j``'s ``k``-th
alternative, ``τ_j = Σ_k t_{j,k} x_{j,k}`` and ``γ_j = Σ_k a_{j,k} x_{j,k}``,
the relaxation is

    minimize   L
    s.t.       Σ_k x_{j,k} = 1, x >= 0                  ∀ jobs j
               C_j >= τ_j                               ∀ j             (source length)
               C_j >= C_u + τ_j                         ∀ edges u -> j  (path length)
               C_j <= L                                 ∀ j             (C(p) <= L)
               Σ_j γ_j <= L                                             (A(p) <= L)

and its optimum ``L_LP`` satisfies ``L_LP <= L_min <= T_opt`` (Lemmas 1-2,
and because the fractional feasible region contains every integral
allocation).

**The LP handed to HiGHS** is that one in the *delta* (hull-segment)
formulation.  The ``x`` of a job enter the rows only through ``(τ_j, γ_j)``,
a point of the convex hull of its ``(t, a)`` alternatives; rows and objective
are monotone in ``γ_j``, so nothing is lost by keeping, for each ``τ_j``,
only the lowest such point — the job's lower convex hull, a convex
piecewise-linear curve through the vertices ``(t_0, a_0), …, (t_m, a_m)``
(first and last alternative always among them; alternatives above the hull
get no variable).  One variable per hull *segment*, filled from 0 to 1:

    τ_j = t_{j,0} + Σ_s Δt_{j,s} λ_{j,s}        Δt_s = t_s − t_{s−1} > 0
    γ_j = a_{j,0} + Σ_s Δa_{j,s} λ_{j,s}        Δa_s = a_s − a_{s−1} < 0
    0 <= λ_{j,s} <= 1

    minimize   L
    s.t.       C_j >= τ_j                     ∀ j without predecessors
               C_j >= C_u + τ_j               ∀ edges u -> j
               C_j <= L                       ∀ j without successors
               Σ_j γ_j <= L
               C >= 0

The convex-combination block and its ``Σ_k x = 1`` row are gone, and so are
the rows the precedence rows imply (``C_j >= τ_j`` below an edge, ``C_j <=
L`` above one): ``segments + n + 1`` columns, ``sources + edges + sinks + 1``
rows.  The slopes ``Δa_s/Δt_s`` increase along a hull, so filling segments in
order is the cheapest way to reach a ``τ_j`` and the optimum is the same
``L_LP``.  (Scaling a segment to ``[0, 1]`` rather than ``[0, Δt_s]`` keeps a
division out of the matrix: two alternatives one ulp apart would otherwise
put a slope of ``1e16`` in it, which HiGHS refuses.)  Times and areas are
given to HiGHS in a power-of-two *unit* near ``L``: the delta form moves job
data into the right-hand side, which HiGHS compares with absolute
tolerances, and dividing by a power of two is exact — the solve does not
depend on whether times are in seconds or nanoseconds.

**When no LP is needed.**  Put every job on its last (slowest, cheapest)
candidate: total area ``A_min = Σ_j a_{j,last}``, longest path ``C_slow``
(the largest bottom level at the times ``t_{j,last}``).  If ``C_slow <=
A_min`` the optimum is known in closed form:

    lower bound:  every feasible point has ``L >= Σ_j γ_j >= A_min`` (area row);
    optimality:   the all-last point is feasible at ``L = A_min``;
    uniqueness:   areas strictly decrease along a frontier, so ``Σ_j γ_j =
                  A_min`` puts every job on its last candidate.

This is Definition 2's ``L(p) = max(A(p), C(p))`` attained by its area half,
so ``L_LP = L_min`` and the relaxation is tight.  :func:`solve_dtct_lp` checks
it before any hull or LP work and returns ``x`` one-hot on each last
candidate; HiGHS is not loaded.  Because the optimum is unique, any solver's
answer rounds to the same ``p'``.  When ``C_slow > A_min`` the LP goes to
HiGHS unchanged.

**How it is solved.**  The model goes to HiGHS through the private binding
scipy ships (``scipy.optimize._highspy._core``), not through ``linprog``,
and numpy is all it takes to get there.  :func:`_lp_problem` lays the matrix
out column-wise itself, as the arrays scipy's canonical CSC holds, bit for
bit.  :func:`_highs_binding` loads the binding's extension file without
running ``scipy/optimize/__init__``, whose linalg, special and sparse
imports the LP never calls and which were a third of a pipeline run's
resident memory.  Then one array ``passModel``, ``run``, and ``col_value``
back (``_solve``).  The options are the ones ``linprog(method="highs")`` sets
plus the tuned pair, and an "optimal" answer still has to pass ``linprog``'s
own acceptance test (bounds and rows within ``√1e-9 · 10``), so the vertex is
the one ``linprog`` returned.  What ``linprog``'s wrapper added — input
cleaning, a CSR→CSC copy, duals, slacks and marginals — was a third of the
solve and is never read here.  ``tests/test_dtct.py`` pins every private name
used and where the binding's file lives, so a scipy that renames or moves
one fails there.

**Back to fractions.**  Only ``τ_j`` is read off the solver's answer; the
job's ``x`` is the pair of weights on the two hull vertices around ``τ_j``.
When the area row is slack HiGHS may fill a job's segments out of order,
i.e. sit above the hull; the projection keeps ``τ_j`` — hence every ``C_j``
and the path rows — and gives a ``γ_j`` no larger, so the projected point is
feasible for the first LP at the same ``L_LP``: the bound stays certified.

**What is read.**  Every function here takes the candidate table as a
``Mapping[JobId, Sequence[ProfileEntry]]`` and reads its *columns*
(:class:`~repro.jobs.profiles.CandidateTable`: flat ``times``/``areas`` in
frontier order, ``starts``, the ``rows`` that name each kept candidate in its
job's candidate list).  :meth:`Instance.candidate_table` returns them; a
hand-built dict of entry lists is lowered once on the way in (``_columns``)
and then takes the same path.  The LP gets ``times``/``areas``/``starts``
permuted to topological order and its answer stays flat
(:class:`FractionalSolution` builds its per-job dicts only when one is
read); one kernel (:func:`_quantile_picks`) rounds every job on one
``(jobs, longest frontier)`` matrix, and :func:`dtct_allocate` gathers
``p'``'s ``(n, d)`` matrix from the candidate lists' allocation arrays by
``rows`` — no entry object, dict or vector is built on the way from the
table to ``p'``.  :func:`round_fractional` runs the same kernel and
returns the dict a caller with a hand-built table wants.

Rounding (the ρ-quantile rule, equivalent to Skutella's virtual-task
rounding): per job, with alternatives sorted by increasing time (hence
decreasing cost, thanks to the Eq. (2) filter), choose the first alternative
at which the cumulative fraction reaches ``1 − ρ``.  This yields the
deterministic guarantees asserted by our tests::

    t_j(p'_j) <= τ_j / ρ           (fractional time τ_j = Σ_k t_{j,k} x_{j,k})
    a_j(p'_j) <= γ_j / (1 − ρ)     (fractional cost γ_j = Σ_k a_{j,k} x_{j,k})

and therefore ``C(p') <= L_LP/ρ`` and ``A(p') <= L_LP/(1−ρ)`` — exactly
Lemma 3 with ``T_opt`` replaced by the (smaller) ``L_LP``.  The argument
needs only ``x >= 0``, ``Σ x = 1`` and the order of the alternatives, so it
holds verbatim for the two-vertex ``x`` above.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Hashable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.dag.paths import bottom_levels_array
from repro.instance.compiled import Allocation
from repro.instance.instance import Instance
from repro.jobs.profiles import CandidateTable, ProfileEntry, take_segments
from repro.resources.vector import ResourceVector

__all__ = [
    "FractionalSolution",
    "DTCTSolveError",
    "solve_dtct_lp",
    "round_fractional",
    "dtct_allocate",
]

JobId = Hashable


class FractionalSolution:
    """Optimal fractional DTCT solution.

    Attributes
    ----------
    lower_bound:
        ``L_LP`` — a certified lower bound on ``T_opt``.
    fractions:
        Per job, the fractional weight of each candidate (aligned with the
        job's candidate-table order).
    fractional_times:
        ``τ_j = Σ_k t_{j,k} x_{j,k}``.
    fractional_areas:
        ``γ_j = Σ_k a_{j,k} x_{j,k}``.

    Built by hand, from these four values, the three dicts are what was
    given.  :func:`solve_dtct_lp` keeps its answer flat instead — ``x`` over
    every job's frontier, laid out as the LP read them, in topological
    order — and each dict is built on its first read.  Once ``fractions``
    has been read it is the only authority: a caller may edit it before
    rounding, and :func:`round_fractional` rounds what it holds.
    """

    __slots__ = ("lower_bound", "_flat", "_fractions", "_fractional_times", "_fractional_areas")
    __hash__ = None  # compares like the four values it stands for

    def __init__(
        self,
        lower_bound: float,
        fractions: dict[JobId, np.ndarray],
        fractional_times: dict[JobId, float],
        fractional_areas: dict[JobId, float],
    ) -> None:
        self.lower_bound = lower_bound
        self._flat = None
        self._fractions = fractions
        self._fractional_times = fractional_times
        self._fractional_areas = fractional_areas

    @classmethod
    def _of(cls, lower_bound: float, fr: "_Frontiers", x: np.ndarray) -> "FractionalSolution":
        """The flat answer: ``x`` over ``fr``'s layout."""
        self = cls(lower_bound, None, None, None)
        self._flat = (fr, x)
        return self

    def _per_job(self, column: np.ndarray) -> dict[JobId, float]:
        fr, x = self._flat
        total = np.bincount(fr.job_of, weights=column * x, minlength=len(fr.job_order))
        return dict(zip(fr.job_order, total.tolist()))

    @property
    def fractions(self) -> dict[JobId, np.ndarray]:
        if self._fractions is None:
            fr, x = self._flat
            self._fractions = dict(zip(fr.job_order, np.split(x, fr.starts[1:-1])))
        return self._fractions

    @property
    def fractional_times(self) -> dict[JobId, float]:
        if self._fractional_times is None:
            self._fractional_times = self._per_job(self._flat[0].times)
        return self._fractional_times

    @property
    def fractional_areas(self) -> dict[JobId, float]:
        if self._fractional_areas is None:
            self._fractional_areas = self._per_job(self._flat[0].areas)
        return self._fractional_areas

    def _values(self) -> tuple:
        return self.lower_bound, self.fractions, self.fractional_times, self.fractional_areas

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return (
            f"FractionalSolution(lower_bound={self.lower_bound!r}, "
            f"fractions={self.fractions!r}, fractional_times={self.fractional_times!r}, "
            f"fractional_areas={self.fractional_areas!r})"
        )


class DTCTSolveError(RuntimeError):
    """HiGHS did not return an optimal solution of the DTCT LP.

    The LP is always feasible and bounded, so this means a solver limit or
    numerically hostile input.  The problem was tried twice — with the tuned
    options, then with HiGHS's defaults: ``status`` and ``message`` are those
    of the second attempt, HiGHS's model status mapped to the codes
    ``scipy.optimize.linprog`` used (1 iteration/time limit, 2 infeasible or
    invalid model, 3 unbounded, 4 anything else, including an "optimal"
    answer that breaks the model), ``tuned_status`` that of the first,
    ``rows`` x ``columns`` the size of the constraint matrix both were given.
    """

    def __init__(self, status: int, message: str, *, tuned_status: int, rows: int, columns: int):
        super().__init__(
            f"DTCT LP ({rows} rows x {columns} columns) failed (status {status}; "
            f"status {tuned_status} with the tuned options): {message}"
        )
        self.status = status
        self.message = message
        self.tuned_status = tuned_status
        self.rows = rows
        self.columns = columns


#: How HiGHS is asked to solve the delta-form LP (sweep in CHANGES.md, PR 21).
#: Its rows are a network block plus one dense row — presolve finds little to
#: remove and costs more than it saves, and the dual simplex's default
#: steepest-edge weights cost more per pivot than the pivots they spare.  The
#: pair belongs to *this* formulation: on the convex-combination form
#: ``presolve: False`` is ten times slower, not faster.  In HiGHS's own names
#: and values: ``1`` is devex.
_HIGHS_OPTIONS = {"simplex_dual_edge_weight_strategy": 1, "presolve": "off"}

#: What ``linprog(method="highs")`` sets on every solve: no log, the dual
#: simplex (``1``), presolve on.  The retry after a failed tuned attempt gets
#: these alone — "HiGHS's defaults" as ``linprog`` gave them.
_BASE_OPTIONS = {
    "output_flag": False, "log_to_console": False, "simplex_strategy": 1, "presolve": "on",
}

#: HiGHS model status (by name) -> the status code and sentence ``linprog``
#: reported for it; any other status is 4.
_STATUS = {
    "kOptimal": (0, "Optimization terminated successfully."),
    "kTimeLimit": (1, "Time limit reached."),
    "kIterationLimit": (1, "Iteration limit reached."),
    "kInfeasible": (2, "The problem is infeasible."),
    "kModelError": (2, "HiGHS refused the model."),
    "kUnbounded": (3, "The problem is unbounded."),
}

#: ``linprog``'s acceptance test on an optimal answer: every bound and row
#: holds to ``√tol · 10`` with its default ``tol`` of 1e-9.
_FEASIBILITY_TOL = math.sqrt(1e-9) * 10

#: scipy's HiGHS binding, by the name ``scipy.optimize`` imports it under.
_HIGHS_MODULE = "scipy.optimize._highspy._core"
#: held while the binding is loaded: a second load of the extension would
#: register its types twice, which pybind11 refuses
_HIGHS_LOCK = threading.Lock()


class _Answer(NamedTuple):
    """One attempt: ``status`` 0 with the column values ``x``, or a failure
    code (see :class:`DTCTSolveError`) with ``x`` None."""

    status: int
    message: str
    x: np.ndarray | None
    iterations: int


@dataclass(frozen=True)
class _Frontiers:
    """Every job's ``(time, area)`` frontier, flat, and its lower convex hull.

    ``times``/``areas`` hold the candidates of ``job_order[i]`` at
    ``starts[i]:starts[i + 1]``; ``job_of`` maps a flat position back to
    ``i``.  Hull segment ``s`` — one LP column — joins the candidates at
    flat positions ``lo[s]`` and ``hi[s]``; segments are in job order and,
    within a job, in time order.  ``unit`` is the power of two the LP's
    times and areas are divided by.  The hulls are built on the first read
    of ``lo`` or ``hi``: only the LP reads them.
    """

    job_order: list
    starts: np.ndarray
    times: np.ndarray
    areas: np.ndarray
    job_of: np.ndarray
    unit: float

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        hull = _lower_hulls(self.times, self.areas, self.job_of)
        seg = np.flatnonzero(self.job_of[hull[1:]] == self.job_of[hull[:-1]])
        return hull[seg], hull[seg + 1]

    @property
    def lo(self) -> np.ndarray:
        return self._segments[0]

    @property
    def hi(self) -> np.ndarray:
        return self._segments[1]


def _lower_hulls(times: np.ndarray, areas: np.ndarray, job_of: np.ndarray) -> np.ndarray:
    """Flat positions of the vertices of every job's lower convex hull.

    All jobs at once: a point on or above the chord of its two current
    neighbours is a vertex of no lower hull, so every such point is dropped
    in one pass, and passes repeat until each remaining triple turns
    strictly left.  A job's first and last candidate always stay.
    """
    keep = np.arange(times.size)
    while True:
        t, a, j = times[keep], areas[keep], job_of[keep]
        turn = (t[1:-1] - t[:-2]) * (a[2:] - a[1:-1]) - (a[1:-1] - a[:-2]) * (t[2:] - t[1:-1])
        drop = (j[:-2] == j[2:]) & (turn <= 0.0)
        if not drop.any():
            return keep
        keep = np.delete(keep, np.flatnonzero(drop) + 1)


def _columns(table: Mapping[JobId, Sequence[ProfileEntry]]) -> CandidateTable:
    """The door: everything below reads a table's columns.  What
    :meth:`Instance.candidate_table` returns has them; a hand-built ``{job:
    entry list}`` is lowered here, once, and takes the same path."""
    return table if isinstance(table, CandidateTable) else CandidateTable.from_entries(table)


def _frontiers(instance: Instance, table: Mapping[JobId, Sequence[ProfileEntry]]) -> _Frontiers:
    """``table``'s columns permuted to topological order and checked."""
    table = _columns(table)
    job_order = instance.dag.topological_order()
    n = len(job_order)
    try:
        positions = table.positions(job_order)
    except KeyError as missing:
        raise ValueError(f"job {missing.args[0]!r} has no candidate allocations") from None
    starts, at = take_segments(table.starts, positions)
    counts = starts[1:] - starts[:-1]
    if not counts.all():
        j = job_order[int(np.flatnonzero(counts == 0)[0])]
        raise ValueError(f"job {j!r} has no candidate allocations")
    times, areas = table.times[at], table.areas[at]
    job_of = np.repeat(np.arange(n), counts)

    # the convex-combination form did not care how a job's rows were ordered;
    # the hull reads them as a frontier, so a table that is not one is refused
    ok = np.isfinite(times) & (times > 0.0) & np.isfinite(areas)
    ok[1:] &= (job_of[1:] != job_of[:-1]) | ((times[1:] > times[:-1]) & (areas[1:] < areas[:-1]))
    if not ok.all():
        j = job_order[int(job_of[np.flatnonzero(~ok)[0]])]
        raise ValueError(
            f"job {j!r}: candidate times must be positive, finite and strictly increasing, "
            "areas finite and strictly decreasing (an Eq. (2) frontier, as candidate_table "
            "returns)"
        )

    # L_LP is at least every job's shortest time and the sum of the smallest areas
    floor = max(times[starts[:-1]].max(), areas[starts[1:] - 1].sum())
    unit = math.ldexp(1.0, math.frexp(floor)[1] - 1)  # floor / unit in [1, 2)
    return _Frontiers(job_order, starts, times, areas, job_of, unit)


def _lp_problem(instance: Instance, fr: _Frontiers) -> dict:
    """The delta-form LP of the module docstring as arrays: minimize ``c · x``
    subject to ``A x <= b_ub`` and ``bounds[:, 0] <= x <= bounds[:, 1]``.

    ``A`` (``shape`` = rows x columns) is in the column-wise layout
    :func:`_solve` hands over, as scipy's canonical CSC holds it: column
    ``k`` has its entries at ``indptr[k]:indptr[k + 1]``, row indices
    ascending in ``indices`` (int32, as is ``indptr``) and values in ``data``.

    Variable layout: ``[λ_s for every hull segment] + [C_j for j in
    topological order] + [L]``.  Rows, in order: one arrival row per job
    without predecessors, one per edge in ``dag.edges()`` order, one ``C_j −
    L`` row per job without successors, the total-area row.  The row order is
    part of the model: HiGHS's pivots, hence the vertex, depend on it.
    """
    n = len(fr.job_order)
    n_y = fr.lo.size
    dt = (fr.times[fr.hi] - fr.times[fr.lo]) / fr.unit
    da = (fr.areas[fr.hi] - fr.areas[fr.lo]) / fr.unit
    first = fr.starts[:-1]
    t0 = fr.times[first] / fr.unit
    seg_counts = np.bincount(fr.job_of[fr.lo], minlength=n)
    seg_starts = np.cumsum(seg_counts) - seg_counts

    # ``fr.job_order`` is the DAG's ``order``: its positions are the C columns
    tail, head = instance.dag.edge_positions()
    n_e = tail.size
    sources = np.flatnonzero(np.bincount(head, minlength=n) == 0)
    sinks = np.flatnonzero(np.bincount(tail, minlength=n) == 0)
    n_k = sinks.size

    c_cols = n_y + np.arange(n)
    l_index = n_y + n
    # arrival at j, from time 0 for a source and from C_u for an edge u -> j:
    # [C_u] + Σ_s Δt_s λ_s − C_j <= −t_{j,0}; the Σ spans j's segment columns
    arrive = np.concatenate([sources, head])
    n_a = arrive.size
    arrive_rows = np.arange(n_a)
    tau_counts = seg_counts[arrive]
    tau_rows = np.repeat(arrive_rows, tau_counts)
    tau_cols = (
        np.arange(int(tau_counts.sum()))
        + np.repeat(seg_starts[arrive] - (np.cumsum(tau_counts) - tau_counts), tau_counts)
    )
    sink_rows = n_a + np.arange(n_k)
    area_row = n_a + n_k
    rows = np.concatenate([
        tau_rows, arrive_rows, arrive_rows[sources.size:],
        sink_rows, sink_rows,              # C_j − L <= 0
        np.full(n_y + 1, area_row),        # Σ Δa_s λ_s − L <= −Σ_j a_{j,0}
    ])
    cols = np.concatenate([
        tau_cols, c_cols[arrive], c_cols[tail],
        c_cols[sinks], np.full(n_k, l_index),
        np.arange(n_y), [l_index],
    ])
    vals = np.concatenate([
        dt[tau_cols], np.full(n_a, -1.0), np.ones(n_e),
        np.ones(n_k), np.full(n_k, -1.0),
        da, [-1.0],
    ])

    cost = np.zeros(l_index + 1)
    cost[l_index] = 1.0
    bounds = np.zeros((l_index + 1, 2))
    bounds[:n_y, 1] = 1.0
    bounds[n_y:, 1] = np.inf
    shape = (area_row + 1, l_index + 1)
    # no (row, column) pair repeats, so one sort by column, then row, is the
    # CSC order, and a column starts after the entries of those left of it
    at = np.argsort(cols * shape[0] + rows)
    indptr = np.zeros(shape[1] + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=shape[1]), out=indptr[1:])
    return {
        "c": cost,
        "indptr": indptr,
        "indices": rows[at].astype(np.int32),
        "data": vals[at],
        "shape": shape,
        "b_ub": np.concatenate([-t0[arrive], np.zeros(n_k), [-fr.areas[first].sum() / fr.unit]]),
        "bounds": bounds,
    }


def _highs_binding():
    """scipy's HiGHS binding (``scipy.optimize._highspy._core``), without
    running ``scipy/optimize/__init__``.

    A binding already imported — by this function or by ``scipy.optimize``
    — is the one returned.  Otherwise the extension file is found in scipy's
    directory (``find_spec`` imports nothing) and loaded under its canonical
    name into ``sys.modules``, where a later ``import scipy.optimize`` finds
    and reuses it.  A binding missing from its place raises ``ImportError``
    naming the path; ``tests/test_dtct.py`` pins the place.
    """
    with _HIGHS_LOCK:
        module = sys.modules.get(_HIGHS_MODULE)
        if module is not None:
            return module
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError("the DTCT LP needs scipy's HiGHS binding: scipy is not installed")
        folder = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
        spec = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
            _HIGHS_MODULE
        )
        if spec is None:
            path = os.path.join(folder, "_core")
            looked = ", ".join("_core" + suffix for suffix in EXTENSION_SUFFIXES)
            raise ImportError(
                f"scipy's HiGHS binding is not at {path} (looked for {looked})",
                name=_HIGHS_MODULE, path=path,
            )
        module = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_MODULE] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[_HIGHS_MODULE]
            raise
        return module


def _solve(problem: dict, options: dict) -> _Answer:
    """One HiGHS run on ``problem`` (as :func:`_lp_problem` builds it) with
    :data:`_BASE_OPTIONS` updated by ``options``.

    The model goes in through the array form of ``passModel``; assigning
    ``HighsLp`` fields instead converts every array element by element.  An
    optimal answer whose ``x`` leaves a bound or whose row activity exceeds
    ``b_ub`` by more than :data:`_FEASIBILITY_TOL` is reported as status 4.
    """
    highs = _highs_binding()
    rows, cols = problem["shape"]
    lower, upper = problem["bounds"].T
    solver = highs._Highs()
    for name, value in {**_BASE_OPTIONS, **options}.items():
        solver.setOptionValue(name, value)
    loaded = solver.passModel(
        cols, rows, problem["data"].size, highs.MatrixFormat.kColwise,
        highs.ObjSense.kMinimize, 0.0, problem["c"], lower, upper, np.full(rows, -np.inf),
        problem["b_ub"], problem["indptr"], problem["indices"], problem["data"],
        np.zeros(cols, dtype=np.int32),
    )
    if loaded == highs.HighsStatus.kError:
        model_status = highs.HighsModelStatus.kModelError
    else:
        solver.run()
        model_status = solver.getModelStatus()
    status, sentence = _STATUS.get(model_status.name, (4, "HiGHS stopped short of an optimum."))
    message = (
        f"{sentence} (HiGHS Status {int(model_status)}: "
        f"model_status is {solver.modelStatusToString(model_status)})"
    )
    iterations = solver.getInfo().simplex_iteration_count
    if status:
        return _Answer(status, message, None, iterations)
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    slack = problem["b_ub"] - np.array(solution.row_value)
    tol = _FEASIBILITY_TOL
    # NaN fails every comparison, so a NaN anywhere is refused too
    if not ((x >= lower - tol).all() and (x <= upper + tol).all() and (slack >= -tol).all()):
        message = f"HiGHS reported an optimum that breaks the model by more than {tol:.2E}."
        return _Answer(4, message, None, iterations)
    return _Answer(0, message, x, iterations)


def _project(fr: _Frontiers, lam: np.ndarray) -> np.ndarray:
    """Flat candidate weights: per job, its hull at ``τ_j = t_{j,0} + Σ_s Δt_s λ_s``.

    Only ``τ_j`` is read off the solver's segments.  Segment ``s`` of the
    hull is then *filled* to ``clip((τ_j − t_lo) / Δt_s, 0, 1)`` — ones, at
    most one fraction, zeros, in order, whatever HiGHS did — and a vertex
    weighs the fill of the segment ending at it (1 for a job's first) minus
    the fill of the segment starting at it (0 for its last).
    """
    first = fr.starts[:-1]
    dt = fr.times[fr.hi] - fr.times[fr.lo]
    seg_job = fr.job_of[fr.lo]
    tau = fr.times[first] + np.bincount(seg_job, weights=dt * lam, minlength=first.size)
    fill = np.clip((tau[seg_job] - fr.times[fr.lo]) / dt, 0.0, 1.0)
    x = np.zeros(fr.times.size)
    x[first] = 1.0
    x[fr.hi] = fill
    x[fr.lo] -= fill
    return x


def _lp_optimum(instance: Instance, fr: _Frontiers) -> tuple[np.ndarray, float]:
    """The LP solved by HiGHS: flat candidate weights and ``L_LP``.  The
    tuned options first, HiGHS's defaults once if they fail, then
    :class:`DTCTSolveError`."""
    problem = _lp_problem(instance, fr)
    answer = _solve(problem, _HIGHS_OPTIONS)
    if answer.status:
        # without presolve HiGHS forgives less; its defaults get the same problem once
        tuned_status = answer.status
        answer = _solve(problem, {})
        if answer.status:
            rows, columns = problem["shape"]
            raise DTCTSolveError(
                answer.status, answer.message, tuned_status=tuned_status, rows=rows,
                columns=columns,
            )
    return _project(fr, answer.x[: fr.lo.size]), float(answer.x[-1]) * fr.unit


def solve_dtct_lp(
    instance: Instance,
    table: Mapping[JobId, Sequence[ProfileEntry]],
) -> FractionalSolution:
    """Solve the relaxed DTCT LP: in closed form when the area bound is
    attained, with HiGHS (the copy scipy ships) otherwise.

    ``table`` maps each job to its non-dominated candidate entries as
    :meth:`Instance.candidate_table` returns them — times strictly
    increasing, areas strictly decreasing; a hand-built table that is not in
    that order, or that lacks one of the instance's jobs, is refused with
    ``ValueError``.

    If ``C_slow <= A_min`` (module docstring, *When no LP is needed*) the
    answer is ``x`` one-hot on every job's last candidate with
    ``lower_bound = A_min``, the last areas summed by ``math.fsum``: the
    exact sum rounded once, to within half an ulp.  Both sides of the test
    are floats: ``C_slow`` is a sum of times rounded at each step, so within
    a few ulps of ``A_min`` the closed form may be taken where exact
    arithmetic finds the path a few ulps longer.  ``A_min`` is then below
    ``L_LP`` by those ulps, far inside HiGHS's own tolerances, and still a
    lower bound (to that half ulp): the area row gives it for every point.

    Otherwise raises :class:`DTCTSolveError` if neither the tuned options
    nor HiGHS's defaults reach an optimum (should not happen: the LP is
    always feasible and bounded).
    """
    if instance.n == 0:
        return FractionalSolution(0.0, {}, {}, {})

    fr = _frontiers(instance, table)
    last = fr.starts[1:] - 1
    area = math.fsum(fr.areas[last].tolist())
    if bottom_levels_array(instance.dag, fr.times[last]).max() <= area:
        x = np.zeros(fr.times.size)
        x[last] = 1.0
        lower_bound = area
    else:
        x, lower_bound = _lp_optimum(instance, fr)

    return FractionalSolution._of(lower_bound, fr, x)


def _quantile_picks(starts: np.ndarray, x: np.ndarray, rho: float) -> np.ndarray:
    """Per job, the index in its frontier of the first candidate at which the
    cumulative fraction reaches ``1 − ρ`` (minus a small numeric slack); job
    ``i``'s fractions are ``x[starts[i]:starts[i + 1]]``.

    All jobs at once: the fractions go into one ``(jobs, longest frontier)``
    matrix, zero-padded, whose row-wise ``cumsum`` is each job's own.  A
    padded place repeats the row's total and a job's last candidate catches
    whatever stays below the threshold: the index ``searchsorted`` on the
    job's own cumulative sums gives.
    """
    counts = starts[1:] - starts[:-1]
    job_of = np.repeat(np.arange(counts.size), counts)
    padded = np.zeros((counts.size, int(counts.max())))
    padded[job_of, np.arange(x.size) - starts[job_of]] = x
    below = (np.cumsum(padded, axis=1) < 1.0 - rho - 1e-9).sum(axis=1)
    return np.minimum(below, counts - 1)


def _check_rho(rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ValueError(f"ρ must lie in (0, 1), got {rho}")


def _fraction_columns(
    table: CandidateTable, solution: FractionalSolution
) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """``(jobs, at, starts, x)``: the solution's jobs, their table
    positions and their fractions flat, each job's as long as its frontier
    in ``table`` and finite (``ValueError`` naming the job otherwise)."""
    fractions = None
    if solution._fractions is None:  # flat, and the dict not yet read
        fr, x = solution._flat
        jobs, starts = fr.job_order, fr.starts
    else:
        fractions = list(solution.fractions.values())
        jobs = list(solution.fractions)
        counts = np.fromiter(map(len, fractions), dtype=np.int64, count=len(jobs))
        starts = np.concatenate(([0], np.cumsum(counts)))
        x = np.concatenate(fractions) if jobs else np.zeros(0)
    at = table.positions(jobs)
    counts = starts[1:] - starts[:-1]
    wrong = np.flatnonzero((counts != (table.starts[1:] - table.starts[:-1])[at]) | (counts == 0))
    if wrong.size:
        k = int(wrong[0])
        raise ValueError(
            f"job {jobs[k]!r}: {counts[k]} fractions for "
            f"{len(table[jobs[k]])} candidate allocations"
        )
    if not np.isfinite(x).all():
        k = int(np.searchsorted(starts, np.flatnonzero(~np.isfinite(x))[0], side="right")) - 1
        given = fractions[k] if fractions is not None else x[starts[k] : starts[k + 1]]
        raise ValueError(f"job {jobs[k]!r}: fractions must be finite, got {given}")
    return jobs, at, starts, x


def round_fractional(
    table: Mapping[JobId, Sequence[ProfileEntry]],
    solution: FractionalSolution,
    rho: float,
) -> dict[JobId, ResourceVector]:
    """Apply the ρ-quantile rounding rule to a fractional solution.

    For each job the candidates are sorted by increasing time; we select the
    first index at which the cumulative fraction reaches ``1 − ρ`` (minus a
    small numeric slack).  See the module docstring for the resulting
    per-job guarantees.  One kernel picks every job's candidate
    (:func:`_quantile_picks`, which :func:`dtct_allocate` runs too); the
    chosen allocation is looked up by the table's ``rows`` column, so no
    entry object is built, and returned as a dict.  A fraction vector whose
    length is not its job's frontier's, or that is not finite, is refused
    with ``ValueError``.
    """
    _check_rho(rho)
    table = _columns(table)
    jobs, at, starts, x = _fraction_columns(table, solution)
    if not jobs:
        return {}
    chosen = table.rows[table.starts[:-1][at] + _quantile_picks(starts, x, rho)]
    candidates = table.candidates
    return {
        j: candidates[p][r] for j, p, r in zip(jobs, at.tolist(), chosen.tolist())
    }


def dtct_allocate(
    instance: Instance,
    table: Mapping[JobId, Sequence[ProfileEntry]],
    rho: float,
) -> tuple[Allocation, FractionalSolution]:
    """Solve the LP and round: Step 2 of Algorithm 1.

    Returns the initial allocation ``p'`` (satisfying Lemma 3 relative to the
    returned fractional lower bound) as the instance's
    :class:`~repro.instance.compiled.Allocation`, and the fractional solution
    itself.  The answer stays in columns: the rounding kernel picks each
    job's candidate off the flat ``x`` and ``p'``'s matrix is one gather
    from the candidate lists' allocation arrays
    (:meth:`~repro.jobs.profiles.CandidateTable.allocations`), held to the
    layout's bounds rule — no dict, no entry object, no vector.
    """
    _check_rho(rho)
    solution = solve_dtct_lp(instance, table)
    table = _columns(table)
    if instance.n == 0:
        return Allocation._of(instance, np.zeros((0, instance.d), dtype=np.int64)), solution
    jobs, at, starts, x = _fraction_columns(table, solution)
    rows = table.rows[table.starts[:-1][at] + _quantile_picks(starts, x, rho)]
    matrix = table.allocations(at, rows)
    layout = instance.compiled().layout
    if matrix.shape[1:] != (layout.d,) or not layout.accepts(matrix):
        for job, row in zip(jobs, matrix.tolist()):
            layout.row(job, row)  # raises, naming the first job it refuses
    return Allocation._of(instance, matrix), solution
