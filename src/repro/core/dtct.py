"""Discrete Time-Cost Tradeoff relaxation and ρ-rounding (Section 4.1, Lemma 3).

The resource-allocation problem maps to the DTCT problem (Definition 3):
each job's non-dominated allocations are the task's alternatives with time
``t_j(p)`` and cost ``a_j(p)`` (average area).  Following the adaptation of
Skutella's algorithm described in the paper, we solve one LP that minimizes
the lower-bound functional ``L`` directly (instead of fixing a budget or a
deadline a priori):

    minimize   L
    s.t.       Σ_k x_{j,k} = 1                          ∀ jobs j
               C_j >= Σ_k t_{j,k} x_{j,k}               ∀ j             (source length)
               C_j >= C_u + Σ_k t_{j,k} x_{j,k}         ∀ edges u -> j  (path length)
               C_j <= L                                 ∀ j             (C(p) <= L)
               Σ_j Σ_k a_{j,k} x_{j,k} <= L                             (A(p) <= L)
               x >= 0, C >= 0

The optimum ``L_LP`` satisfies ``L_LP <= L_min <= T_opt`` (Lemmas 1-2, and
because the fractional feasible region contains every integral allocation).

Rounding (the ρ-quantile rule, equivalent to Skutella's virtual-task
rounding): per job, with alternatives sorted by increasing time (hence
non-increasing cost, thanks to the Eq. (2) filter), choose the first
alternative at which the cumulative fraction reaches ``1 − ρ``.  This yields
the deterministic guarantees asserted by our tests::

    t_j(p'_j) <= τ_j / ρ           (fractional time τ_j = Σ_k t_{j,k} x_{j,k})
    a_j(p'_j) <= γ_j / (1 − ρ)     (fractional cost γ_j = Σ_k a_{j,k} x_{j,k})

and therefore ``C(p') <= L_LP/ρ`` and ``A(p') <= L_LP/(1−ρ)`` — exactly
Lemma 3 with ``T_opt`` replaced by the (smaller) ``L_LP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.instance.instance import Instance
from repro.jobs.profiles import ProfileEntry
from repro.resources.vector import ResourceVector

__all__ = [
    "FractionalSolution",
    "DTCTSolveError",
    "solve_dtct_lp",
    "round_fractional",
    "dtct_allocate",
]

JobId = Hashable


@dataclass(frozen=True)
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
    """

    lower_bound: float
    fractions: dict[JobId, np.ndarray]
    fractional_times: dict[JobId, float]
    fractional_areas: dict[JobId, float]


class DTCTSolveError(RuntimeError):
    """HiGHS did not return an optimal solution of the DTCT LP.

    The LP is always feasible and bounded, so this means a solver limit or
    numerically hostile input.  ``status`` and ``message`` are those of the
    ``scipy.optimize.linprog`` result (1 iteration/time limit, 2 infeasible,
    3 unbounded, 4 numerical difficulties).
    """

    def __init__(self, status: int, message: str):
        super().__init__(f"DTCT LP failed (status {status}): {message}")
        self.status = status
        self.message = message


def _lp_problem(instance: Instance, table: Mapping[JobId, Sequence[ProfileEntry]]):
    """The DTCT LP as ``linprog`` keyword arguments, assembled from flat arrays.

    Variable layout: ``[x_{j,k} for j in topological order for k] + [C_j for
    j] + [L]``.  ``A_ub`` rows, in order: one source-length row per job
    (redundant but harmless for a job with predecessors; keeps every ``C_j``
    anchored), one path-length row per edge in ``dag.edges()`` order, one
    ``C_j − L`` row per job, the total-area row.

    Returns ``(problem, job_order, times, areas, starts)``: the flat
    per-column ``times``/``areas`` and the offsets (``starts[i]:starts[i + 1]``
    are the ``x`` columns of ``job_order[i]``) are what unpacking needs.
    """
    # scipy is imported where an LP is built or solved, not with the
    # package: ``repro serve`` never solves one (tests/test_cli.py holds
    # the serve path to that)
    from scipy.sparse import csr_matrix

    job_order = instance.dag.topological_order()
    n = len(job_order)
    per_job = [table[j] for j in job_order]
    counts = np.fromiter(map(len, per_job), dtype=np.int64, count=n)
    if not counts.all():
        j = job_order[int(np.flatnonzero(counts == 0)[0])]
        raise ValueError(f"job {j!r} has no candidate allocations")
    starts = np.concatenate(([0], np.cumsum(counts)))
    n_x = int(starts[-1])
    l_index = n_x + n
    n_var = n_x + n + 1
    entries = list(chain.from_iterable(per_job))
    times = np.fromiter((e.time for e in entries), dtype=np.float64, count=n_x)
    areas = np.fromiter((e.area for e in entries), dtype=np.float64, count=n_x)

    jobs = np.arange(n)
    x_cols = np.arange(n_x)
    x_job = np.repeat(jobs, counts)
    c_cols = n_x + jobs

    # equality: sum_k x_{j,k} = 1
    a_eq = csr_matrix((np.ones(n_x), (x_job, x_cols)), shape=(n, n_var))

    # path length: C_u − C_j + τ_j <= 0 for every edge u -> j; the τ_j part
    # of edge row e spans job j's x columns
    position = {j: i for i, j in enumerate(job_order)}
    edges = list(instance.dag.edges())
    n_e = len(edges)
    tail = np.fromiter((position[u] for u, _ in edges), dtype=np.int64, count=n_e)
    head = np.fromiter((position[j] for _, j in edges), dtype=np.int64, count=n_e)
    edge_rows = n + np.arange(n_e)
    head_counts = counts[head]
    tau_rows = np.repeat(edge_rows, head_counts)
    tau_cols = (
        np.arange(int(head_counts.sum()))
        + np.repeat(starts[head] - (np.cumsum(head_counts) - head_counts), head_counts)
    )
    cap_rows = n + n_e + jobs
    area_row = 2 * n + n_e
    rows = np.concatenate([
        x_job, jobs,                       # source length: τ_j − C_j <= 0
        edge_rows, edge_rows, tau_rows,    # path length
        cap_rows, cap_rows,                # C_j − L <= 0
        np.full(n_x + 1, area_row),        # total area − L <= 0
    ])
    cols = np.concatenate([
        x_cols, c_cols,
        c_cols[tail], c_cols[head], tau_cols,
        c_cols, np.full(n, l_index),
        x_cols, [l_index],
    ])
    vals = np.concatenate([
        times, np.full(n, -1.0),
        np.ones(n_e), np.full(n_e, -1.0), times[tau_cols],
        np.ones(n), np.full(n, -1.0),
        areas, [-1.0],
    ])
    a_ub = csr_matrix((vals, (rows, cols)), shape=(area_row + 1, n_var))

    cost = np.zeros(n_var)
    cost[l_index] = 1.0
    bounds = np.zeros((n_var, 2))
    bounds[:n_x, 1] = 1.0
    bounds[n_x:, 1] = np.inf
    problem = {
        "c": cost,
        "A_ub": a_ub,
        "b_ub": np.zeros(area_row + 1),
        "A_eq": a_eq,
        "b_eq": np.ones(n),
        "bounds": bounds,
    }
    return problem, job_order, times, areas, starts


def solve_dtct_lp(
    instance: Instance,
    table: Mapping[JobId, Sequence[ProfileEntry]],
) -> FractionalSolution:
    """Solve the relaxed DTCT LP with scipy's HiGHS backend.

    ``table`` maps each job to its non-dominated candidate entries (from
    :meth:`Instance.candidate_table`).  Raises :class:`DTCTSolveError` if the
    solver does not reach an optimum (should not happen: the LP is always
    feasible and bounded).
    """
    if instance.n == 0:
        return FractionalSolution(0.0, {}, {}, {})
    from scipy.optimize import linprog  # see _lp_problem

    problem, job_order, times, areas, starts = _lp_problem(instance, table)
    res = linprog(**problem, method="highs")
    if not res.success:
        raise DTCTSolveError(res.status, res.message)

    # per job, not np.add.reduceat: the slice-wise sums and dot products keep
    # the fractional solution bit-equal to the entry-by-entry code's
    x_all = np.clip(res.x, 0.0, None)
    fractions: dict[JobId, np.ndarray] = {}
    f_times: dict[JobId, float] = {}
    f_areas: dict[JobId, float] = {}
    offsets = starts.tolist()
    for j, lo, hi in zip(job_order, offsets, offsets[1:]):
        x = x_all[lo:hi]
        s = x.sum()
        x = x / s if s > 0 else np.full(hi - lo, 1.0 / (hi - lo))
        fractions[j] = x
        f_times[j] = float(times[lo:hi] @ x)
        f_areas[j] = float(areas[lo:hi] @ x)
    return FractionalSolution(
        lower_bound=float(res.x[-1]),
        fractions=fractions,
        fractional_times=f_times,
        fractional_areas=f_areas,
    )


def round_fractional(
    table: Mapping[JobId, Sequence[ProfileEntry]],
    solution: FractionalSolution,
    rho: float,
) -> dict[JobId, ResourceVector]:
    """Apply the ρ-quantile rounding rule to a fractional solution.

    For each job the candidates are sorted by increasing time; we select the
    first index at which the cumulative fraction reaches ``1 − ρ`` (minus a
    small numeric slack).  See the module docstring for the resulting
    per-job guarantees.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"ρ must lie in (0, 1), got {rho}")
    allocation: dict[JobId, ResourceVector] = {}
    eps = 1e-9
    for j, x in solution.fractions.items():
        cum = np.cumsum(x)
        idx = int(np.searchsorted(cum, 1.0 - rho - eps))
        idx = min(idx, len(x) - 1)
        allocation[j] = table[j][idx].alloc
    return allocation


def dtct_allocate(
    instance: Instance,
    table: Mapping[JobId, Sequence[ProfileEntry]],
    rho: float,
) -> tuple[dict[JobId, ResourceVector], FractionalSolution]:
    """Solve the LP and round: Step 2 of Algorithm 1.

    Returns the initial allocation ``p'`` (satisfying Lemma 3 relative to the
    returned fractional lower bound) and the fractional solution itself.
    """
    solution = solve_dtct_lp(instance, table)
    return round_fractional(table, solution, rho), solution
