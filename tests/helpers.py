"""Shared instance builders for the test suite.

Imported explicitly (``from helpers import tiny_instance``) rather than via
``conftest``: importing from ``conftest`` is ambiguous whenever pytest
loads more than one conftest module, and the name that wins depends on
collection order.
"""

from __future__ import annotations

import functools
import heapq
import json
import socket
import threading
from bisect import insort
from collections import deque
from itertools import product
from operator import le as _le
from types import SimpleNamespace
from typing import Hashable, Iterator, Mapping, Sequence

import networkx as nx
import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix, csr_matrix

from repro.core.dtct import FractionalSolution
from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    lpt_priority,
    spt_priority,
)
from repro.dag.graph import DAG
from repro.engine.dispatch import TIME_EPS
from repro.instance.instance import Instance, make_instance
from repro.jobs.candidates import CandidateStrategy, candidates_for_job, geometric_grid
from repro.jobs.job import Job
from repro.jobs.profiles import ProfileEntry, pareto_rows
from repro.jobs.speedup import (
    AmdahlSpeedup,
    LinearSpeedup,
    LogSpeedup,
    MultiResourceTime,
    PowerLawSpeedup,
    RooflineSpeedup,
    random_multi_resource_time,
)
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector
from repro.sim.schedule import Schedule, ScheduledJob
from repro.util.rng import ensure_rng

__all__ = [
    "nx_graph",
    "ReferenceDAG",
    "tiny_instance",
    "HalvingSpeedup",
    "rigid_unit_job",
    "kernel_frontier",
    "reference_pareto_filter",
    "reference_pareto_indices",
    "reference_candidate_table",
    "reference_lp_problem",
    "reference_solve_dtct_lp",
    "reference_lower_hull",
    "pipeline_instance",
    "ruler_rigid_instance",
    "reference_intervals",
    "reference_callback_list_schedule",
    "reference_fifo_priority",
    "reference_lpt_priority",
    "reference_spt_priority",
    "reference_random_priority",
    "reference_bottom_level_priority",
    "REFERENCE_TWINS",
    "reference_list_schedule",
    "reference_pr1_list_schedule",
    "REFERENCE_LINPROG_OPTIONS",
    "reference_linprog_solve",
    "lp_matrix",
    "reference_delta_lp_problem",
    "scripted_highs",
    "reference_fair_queue",
    "bench_table",
    "ReferenceHistory",
    "run_out",
    "reference_event_dict",
    "reference_checkpoint",
    "reference_checkpoint_v3",
    "reference_run_dynamic",
    "reference_pack_shelf_placements",
    "reference_backfill_plan",
    "reference_malleable_task_starts",
    "exact_lmin_bruteforce",
    "trivial_lower_bounds",
    "iter_allocation_grid",
    "schedule_from_decisions",
    "schedule_of",
    "reference_capacity_breaches",
    "assumption3_violations",
    "reference_adjust_allocation",
    "reference_dict_list_schedule",
    "reference_independent_allocation",
    "reference_moldable_schedule",
]

JobId = Hashable


def run_out(session) -> list[dict]:
    """Advance ``session`` to quiescence in one call and return the reply:
    every event a ``drain`` would run, in the order it runs them (no
    event can pass ``now + span_bound``)."""
    return session.advance(session.now + session.span_bound)


@functools.lru_cache(maxsize=None)
def bench_table(name: str):
    """The result :class:`~repro.bench.core.Table` of registered paper
    benchmark ``name``, computed once per test session (treat it as
    read-only)."""
    from repro.bench.registry import get_benchmark

    table, _, _ = get_benchmark(name).fn()
    return table


def strict_json(resp):
    """``resp`` through a JSON round trip that refuses the non-JSON float
    literals (``NaN``, ``Infinity``) ``json.dumps`` would happily write."""

    def refuse(literal):
        raise AssertionError(f"non-JSON literal {literal} in {resp}")

    return json.loads(json.dumps(resp), parse_constant=refuse)


def scripted_tcp_server(*connections):
    """Listen on an ephemeral localhost port and hand each accepted
    connection, in order, to the next callable (which gets the text-mode
    socket file and returns when done with it).  Returns ``(port,
    thread)`` — a peer that misbehaves exactly as a test scripts it."""
    srv = socket.create_server(("127.0.0.1", 0))

    def run():
        with srv:
            for serve in connections:
                conn, _ = srv.accept()
                with conn, conn.makefile("rw", encoding="utf-8", newline="\n") as fh:
                    serve(fh)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return srv.getsockname()[1], thread


def nx_graph(dag: DAG) -> nx.DiGraph:
    """``dag`` as a networkx graph, the suite's independent graph oracle."""
    g = nx.DiGraph()
    g.add_nodes_from(dag.nodes())
    g.add_edges_from(dag.edges())
    return g


class ReferenceDAG:
    """The dict-of-lists precedence container ``DAG`` was before it became
    an immutable CSR built once (frozen; the oracle for node, edge and
    adjacency order and for the LIFO Kahn order).  ``add_edge`` skips a
    repeated edge, creates unseen endpoints (``u`` first) and refuses a
    self-loop; ``topological_order`` refuses a cycle."""

    def __init__(self, nodes=(), edges=()):
        self._succ: dict = {}
        self._pred: dict = {}
        self._edge_set: set = set()
        for n in nodes:
            self.add_node(n)
        for u, v in edges:
            self.add_edge(u, v)

    def add_node(self, node) -> None:
        if node not in self._succ:
            self._succ[node] = []
            self._pred[node] = []

    def add_edge(self, u, v) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u!r} is not a valid precedence")
        self.add_node(u)
        self.add_node(v)
        if (u, v) not in self._edge_set:
            self._edge_set.add((u, v))
            self._succ[u].append(v)
            self._pred[v].append(u)

    def nodes(self) -> list:
        return list(self._succ)

    def edges(self) -> list:
        return [(u, v) for u, vs in self._succ.items() for v in vs]

    @property
    def num_edges(self) -> int:
        return len(self._edge_set)

    def successors(self, node) -> list:
        return self._succ[node]

    def predecessors(self, node) -> list:
        return self._pred[node]

    def sources(self) -> list:
        return [n for n in self._succ if not self._pred[n]]

    def sinks(self) -> list:
        return [n for n in self._succ if not self._succ[n]]

    def topological_order(self) -> list:
        indeg = {n: len(ps) for n, ps in self._pred.items()}
        frontier = [n for n, k in indeg.items() if k == 0]
        order = []
        while frontier:
            n = frontier.pop()
            order.append(n)
            for s in self._succ[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    frontier.append(s)
        if len(order) != len(self._succ):
            raise ValueError("precedence graph contains a cycle")
        return order


def tiny_instance(
    *,
    d: int = 2,
    capacity: int = 8,
    edges: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (1, 3), (2, 3)),
    n: int | None = None,
    seed: int = 0,
    model: str = "mixed",
) -> Instance:
    """A small diamond-DAG (or custom) instance with random moldable jobs."""
    from repro.resources.pool import ResourcePool

    nodes = range(n if n is not None else (max((max(e) for e in edges), default=-1) + 1))
    dag = DAG(nodes=nodes, edges=edges)
    pool = ResourcePool.uniform(d, capacity)
    rng = np.random.default_rng(seed)
    fns = {j: random_multi_resource_time(d, rng, model=model) for j in dag.topological_order()}
    return make_instance(dag, pool, lambda j: fns[j])


class HalvingSpeedup:
    """A speedup model outside the built-in families: no array form."""

    def __call__(self, x: int) -> float:
        return 1.0 + x / 2.0


def rigid_unit_job(job_id, d: int, rtype: int) -> Job:
    """A unit-time job pinned to one unit of a single resource type."""
    alloc = ResourceVector.unit(d, rtype)
    return Job(id=job_id, time_fn=lambda a: 1.0, candidates=(alloc,))


# ---------------------------------------------------------------------------
# Frozen references for Phase 1.  The per-job ``Instance.candidate_table``
# body as it stood until PR 23 made the table one batched kernel: one
# evaluation of the whole grid, one ``pareto_indices`` and one entry list *per
# job* (``reference_pareto_indices`` is that code, not a call into the live
# module), every time ``job.time`` per candidate and every area the array
# form's ``t · share / d`` (``instance.avg_area`` for a job with no array
# form).  The live table must reproduce it with ``==``: its times are
# ``Job.time``'s, bit for bit.  ``reference_pareto_filter`` is the same Eq. (2)
# rule as a sort and a scan over entry objects.  The loop LP assembler of
# ``solve_dtct_lp`` in the convex-combination (``x``) form, as it stood until
# PR 21 put the delta form in ``core/dtct.py``: the oracle the live LP must
# agree with in its optimum (the vertex may differ), and the LP in which the
# live solution must be feasible.  And the ``linprog`` call that solved the delta form until
# ``core/dtct.py`` handed it to HiGHS directly (``reference_linprog_solve``):
# same problem, same options, so the live adapter must return its ``x`` bit
# for bit after the same number of iterations.  The delta form's assembler as
# it stood while it built the matrix with ``scipy.sparse`` from a list of
# ``dag.edges()`` (``reference_delta_lp_problem``): the live one must hand
# HiGHS the same arrays, dtypes included.
# ---------------------------------------------------------------------------
def kernel_frontier(entries) -> list[ProfileEntry]:
    """The live Eq. (2) kernel, ``pareto_rows``, on one job's entries: the
    kept entries in frontier order."""
    entries = list(entries)
    order, keep = pareto_rows(
        np.array([[e.time for e in entries]], dtype=np.float64).reshape(1, -1),
        np.array([[e.area for e in entries]], dtype=np.float64).reshape(1, -1),
    )
    return [entries[i] for i in order[keep].tolist()]


def reference_pareto_filter(entries) -> list[ProfileEntry]:
    """``pareto_filter`` as a sort and a scan over entry objects."""
    items = sorted(entries, key=lambda e: (e.time, e.area))
    out: list[ProfileEntry] = []
    best_area = float("inf")
    i = 0
    while i < len(items):
        # group of equal time: the first of the group has minimal area
        j = i
        while j + 1 < len(items) and items[j + 1].time == items[i].time:
            j += 1
        rep = items[i]
        if rep.area < best_area:
            out.append(rep)
            best_area = rep.area
        i = j + 1
    return out


def reference_pareto_indices(times: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """``pareto_indices`` over one job's arrays, as it stood before PR 23."""
    order = np.lexsort((areas, times))
    t, a = times[order], areas[order]
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = (t[1:] != t[:-1]) & (a[1:] < np.minimum.accumulate(a)[:-1])
    return order[keep]


def _is_family(model, family: type) -> bool:
    """``model`` computes ``family``'s formula: an instance that keeps its
    ``__call__`` (a subclass overriding it is asked, like any other model)."""
    return isinstance(model, family) and type(model).__call__ is family.__call__


def _has_array_form(fn) -> bool:
    """``fn`` is a ``MultiResourceTime`` whose every used type's speedup is
    a built-in family that keeps its ``__call__``: the kernel's jobs."""
    families = (LinearSpeedup, AmdahlSpeedup, PowerLawSpeedup, RooflineSpeedup, LogSpeedup)
    return _is_family(fn, MultiResourceTime) and all(
        w == 0 or any(_is_family(s, f) for f in families) for w, s in zip(fn.works, fn.speedups)
    )


def reference_candidate_table(instance: Instance, strategy=geometric_grid):
    """One grid enumeration, validation, evaluation, frontier and entry list
    per job."""
    table = {}
    for j, job in instance.jobs.items():
        cands = candidates_for_job(job, instance.pool, strategy)
        times = np.array([job.time(c) for c in cands])  # refuses by name
        if _has_array_form(job.time_fn):
            allocs = np.array([tuple(c) for c in cands], dtype=np.int64)
            caps = np.array(tuple(instance.pool.capacities), dtype=np.float64)
            areas = times * (allocs / caps).sum(axis=1) / instance.pool.d
        else:
            areas = np.array([instance.avg_area(j, c) for c in cands])
        rows = reference_pareto_indices(times, areas)
        table[j] = [
            ProfileEntry(alloc=cands[i], time=t, area=a)
            for i, t, a in zip(rows.tolist(), times[rows].tolist(), areas[rows].tolist())
        ]
    return table


def reference_lp_problem(instance: Instance, table) -> dict:
    """The DTCT LP as ``linprog`` keyword arguments, filled entry by entry."""
    job_order = instance.dag.topological_order()
    n = len(job_order)
    x_offset = {}
    off = 0
    for j in job_order:
        x_offset[j] = off
        off += len(table[j])
    n_x = off
    c_offset = {j: n_x + i for i, j in enumerate(job_order)}
    l_index = n_x + n
    n_var = n_x + n + 1

    times = {j: np.array([e.time for e in table[j]]) for j in job_order}
    areas = {j: np.array([e.area for e in table[j]]) for j in job_order}

    eq_rows, eq_cols, eq_vals = [], [], []
    for r, j in enumerate(job_order):
        k = len(table[j])
        eq_rows.extend([r] * k)
        eq_cols.extend(range(x_offset[j], x_offset[j] + k))
        eq_vals.extend([1.0] * k)
    a_eq = csr_matrix((eq_vals, (eq_rows, eq_cols)), shape=(n, n_var))

    ub_rows, ub_cols, ub_vals = [], [], []
    b_ub: list[float] = []
    row = 0

    def add_entry(r: int, col: int, val: float) -> None:
        ub_rows.append(r)
        ub_cols.append(col)
        ub_vals.append(val)

    for j in job_order:  # source length: τ_j − C_j <= 0
        for k, t in enumerate(times[j]):
            add_entry(row, x_offset[j] + k, float(t))
        add_entry(row, c_offset[j], -1.0)
        b_ub.append(0.0)
        row += 1
    for u, j in instance.dag.edges():  # path length: C_u − C_j + τ_j <= 0
        add_entry(row, c_offset[u], 1.0)
        add_entry(row, c_offset[j], -1.0)
        for k, t in enumerate(times[j]):
            add_entry(row, x_offset[j] + k, float(t))
        b_ub.append(0.0)
        row += 1
    for j in job_order:  # C_j − L <= 0
        add_entry(row, c_offset[j], 1.0)
        add_entry(row, l_index, -1.0)
        b_ub.append(0.0)
        row += 1
    for j in job_order:  # total area − L <= 0
        for k, a in enumerate(areas[j]):
            add_entry(row, x_offset[j] + k, float(a))
    add_entry(row, l_index, -1.0)
    b_ub.append(0.0)
    row += 1

    cost = np.zeros(n_var)
    cost[l_index] = 1.0
    return {
        "c": cost,
        "A_ub": csr_matrix((ub_vals, (ub_rows, ub_cols)), shape=(row, n_var)),
        "b_ub": np.array(b_ub),
        "A_eq": a_eq,
        "b_eq": np.ones(n),
        "bounds": [(0.0, 1.0)] * n_x + [(0.0, None)] * (n + 1),
    }


def reference_solve_dtct_lp(instance: Instance, table) -> FractionalSolution:
    """``solve_dtct_lp`` on the loop-assembled problem, unpacked job by job."""
    problem = reference_lp_problem(instance, table)
    res = linprog(
        problem["c"],
        **{k: v for k, v in problem.items() if k != "c"},
        method="highs",
    )
    assert res.success, res.message
    fractions, f_times, f_areas = {}, {}, {}
    off = 0
    for j in instance.dag.topological_order():
        times = np.array([e.time for e in table[j]])
        areas = np.array([e.area for e in table[j]])
        k = len(table[j])
        x = np.clip(res.x[off : off + k], 0.0, None)
        off += k
        s = x.sum()
        x = x / s if s > 0 else np.full(k, 1.0 / k)
        fractions[j] = x
        f_times[j] = float(times @ x)
        f_areas[j] = float(areas @ x)
    return FractionalSolution(
        lower_bound=float(res.x[-1]),
        fractions=fractions,
        fractional_times=f_times,
        fractional_areas=f_areas,
    )


#: ``core/dtct.py``'s tuned options as ``linprog`` took them, until the LP
#: went to HiGHS without it.
REFERENCE_LINPROG_OPTIONS = {"simplex_dual_edge_weight_strategy": "devex", "presolve": False}


def lp_matrix(problem: dict) -> csc_matrix:
    """The constraint matrix of a ``core/dtct.py::_lp_problem`` problem, as
    the scipy matrix its column arrays describe."""
    return csc_matrix(
        (problem["data"], problem["indices"], problem["indptr"]), shape=problem["shape"]
    )


def reference_linprog_solve(problem: dict, options: dict | None):
    """``solve_dtct_lp``'s solver call as it stood until it handed the model
    to HiGHS directly: ``linprog`` on the same problem (``options`` ``None``
    for the defaults retry).  The ``OptimizeResult`` whose ``x`` and ``nit``
    the adapter must reproduce exactly."""
    return linprog(
        problem["c"], A_ub=lp_matrix(problem), b_ub=problem["b_ub"], bounds=problem["bounds"],
        method="highs", options=options,
    )


def reference_delta_lp_problem(instance: Instance, fr) -> dict:
    """``core/dtct.py::_lp_problem`` as it stood while it built ``A_ub`` with
    ``scipy.sparse`` (COO triplets to CSC) and its edge rows from a list of
    ``dag.edges()`` and an id → position dict.  ``fr`` is what
    ``core/dtct.py::_frontiers`` returns."""
    n = len(fr.job_order)
    n_y = fr.lo.size
    dt = (fr.times[fr.hi] - fr.times[fr.lo]) / fr.unit
    da = (fr.areas[fr.hi] - fr.areas[fr.lo]) / fr.unit
    first = fr.starts[:-1]
    t0 = fr.times[first] / fr.unit
    seg_counts = np.bincount(fr.job_of[fr.lo], minlength=n)
    seg_starts = np.cumsum(seg_counts) - seg_counts

    position = {j: i for i, j in enumerate(fr.job_order)}
    edges = list(instance.dag.edges())
    n_e = len(edges)
    tail = np.fromiter((position[u] for u, _ in edges), dtype=np.int64, count=n_e)
    head = np.fromiter((position[j] for _, j in edges), dtype=np.int64, count=n_e)
    sources = np.flatnonzero(np.bincount(head, minlength=n) == 0)
    sinks = np.flatnonzero(np.bincount(tail, minlength=n) == 0)
    n_k = sinks.size

    c_cols = n_y + np.arange(n)
    l_index = n_y + n
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
        sink_rows, sink_rows,
        np.full(n_y + 1, area_row),
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
    return {
        "c": cost,
        "A_ub": csc_matrix((vals, (rows, cols)), shape=(area_row + 1, l_index + 1)),
        "b_ub": np.concatenate([-t0[arrive], np.zeros(n_k), [-fr.areas[first].sum() / fr.unit]]),
        "bounds": bounds,
    }


#: The 15 arguments of the array ``passModel`` overload, in order.
PASS_MODEL_ARGS = (
    "num_col", "num_row", "num_nz", "a_format", "sense", "offset", "cost", "col_lower",
    "col_upper", "row_lower", "row_upper", "start", "index", "value", "integrality",
)


def scripted_highs(monkeypatch, *scripted) -> list[dict]:
    """Stand in for HiGHS as ``core/dtct.py::_solve`` drives it.  Attempt
    ``k`` — a model passed through the array ``passModel`` — is loaded and
    run for real, then reports ``scripted[k]``: ``None`` for the real
    answer, or ``(model status, x)`` — the status HiGHS is to report and,
    for an "optimal" one, the column values, with row activities recomputed
    from them.  An attempt beyond the script fails; ``linprog``'s own solves
    (the ``HighsLp`` overload, as the frozen references make them) pass
    through untouched.  Returns the list each attempt is appended to:
    ``{"options": {name: value}, "model": {PASS_MODEL_ARGS name: argument}}``."""
    from scipy.optimize._highspy import _core

    calls: list[dict] = []
    answers = iter(scripted)

    class Scripted(_core._Highs):
        answer = None

        def __init__(self):
            super().__init__()
            self.options = {}

        def setOptionValue(self, name, value):
            self.options[name] = value
            return super().setOptionValue(name, value)

        def passModel(self, *args):
            if len(args) == len(PASS_MODEL_ARGS):
                self.answer = next(answers)
                self.model = dict(zip(PASS_MODEL_ARGS, args))
                calls.append({"options": self.options, "model": self.model})
            return super().passModel(*args)

        def getModelStatus(self):
            return super().getModelStatus() if self.answer is None else self.answer[0]

        def getSolution(self):
            if self.answer is None:
                return super().getSolution()
            m = self.model
            a = csc_matrix((m["value"], m["index"], m["start"]), shape=(m["num_row"], m["num_col"]))
            x = np.asarray(self.answer[1], dtype=float)
            return SimpleNamespace(col_value=x.tolist(), row_value=(a @ x).tolist())

    monkeypatch.setattr(_core, "_Highs", Scripted)
    return calls


def reference_lower_hull(times, areas) -> list[int]:
    """Positions of the lower-convex-hull vertices of one job's frontier
    (times strictly increasing): Andrew's monotone chain, one point at a
    time; a point on the chord of its neighbours is not a vertex."""
    hull: list[int] = []
    for k in range(len(times)):
        while len(hull) >= 2:
            p, c = hull[-2], hull[-1]
            turn = (times[c] - times[p]) * (areas[k] - areas[c]) - (areas[c] - areas[p]) * (
                times[k] - times[c]
            )
            if turn > 0:
                break
            hull.pop()
        hull.append(k)
    return hull


def _layered_edges(rng, layers: int, width: int) -> list[tuple[int, int]]:
    """Edges of the ruler's layered DAG, drawn as
    ``benchmarks/stack/workloads.py::layered_edges`` draws them (the tests
    cannot import it): each consecutive-layer pair with probability
    ``8 / width``, at least one predecessor per non-first-layer job."""
    p = min(0.5, 8.0 / width)
    edges = []
    for layer in range(layers - 1):
        hit = rng.random((width, width)) < p  # [successor, predecessor]
        lonely = np.flatnonzero(~hit.any(axis=1))
        hit[lonely, rng.integers(width, size=lonely.size)] = True
        j, i = np.nonzero(hit)
        edges += zip((layer * width + i).tolist(), ((layer + 1) * width + j).tolist())
    return edges


def pipeline_instance(layers: int, width: int, seed) -> Instance:
    """An input of the ``moldable-pipeline`` workload: what
    ``benchmarks/stack/workloads.py::make_moldable`` draws from
    ``default_rng(seed)`` at d = 2, capacity 32, expected in-degree 8
    (``seed = [0, i]`` is the benchmark's seed-0 input ``i``)."""
    rng = np.random.default_rng(seed)
    edges = _layered_edges(rng, layers, width)
    n = layers * width
    jobs = {j: Job(id=j, time_fn=random_multi_resource_time(2, rng)) for j in range(n)}
    return Instance(jobs=jobs, dag=DAG(jobs, edges), pool=ResourcePool.uniform(2, 32))


def ruler_rigid_instance(layers: int, width: int, seed, d: int = 4, capacity: int = 24):
    """``(instance, allocation)`` of the shape the ``rigid-batch-*`` ruler
    workloads have: the same layered DAG, demands uniform in 1–8 of each of
    ``d`` types at ``capacity`` each, durations in 0.5–4."""
    rng = np.random.default_rng(seed)
    n = layers * width
    edges = _layered_edges(rng, layers, width)
    allocation = {
        j: ResourceVector(row) for j, row in enumerate(rng.integers(1, 9, size=(n, d)))
    }
    jobs = {
        j: Job(id=j, time_fn=lambda alloc, t=t: t, candidates=(allocation[j],))
        for j, t in enumerate(rng.uniform(0.5, 4.0, size=n).tolist())
    }
    pool = ResourcePool.uniform(d, capacity)
    return Instance(jobs=jobs, dag=DAG(jobs, edges), pool=pool), allocation


def reference_capacity_breaches(schedule, tol: float) -> list[tuple[float, int, int]]:
    """The capacity sweep of ``validate_schedule`` as it was before its
    events were sorted without a key: ``(time, +1/-1)`` keys, a stable sort,
    releases then acquires within ``tol`` of each event point (frozen; the
    oracle for the keyless sort).  Returns every ``(t, type, usage)``
    breach, uncapped."""
    d, caps = schedule.instance.d, schedule.instance.pool.capacities
    events = []
    for p in schedule.placements.values():
        events.append((p.start, +1, tuple(p.alloc)))
        events.append((p.finish, -1, tuple(p.alloc)))
    events.sort(key=lambda e: (e[0], e[1]))
    usage, i, out = [0] * d, 0, []
    while i < len(events):
        t = events[i][0]
        for sign in (-1, +1):
            while i < len(events) and abs(events[i][0] - t) <= tol and events[i][1] == sign:
                usage = [u + sign * a for u, a in zip(usage, events[i][2])]
                i += 1
        out.extend((t, r, usage[r]) for r in range(d) if usage[r] > caps[r])
    return out


def reference_intervals(schedule) -> list[tuple[float, float, tuple[int, ...]]]:
    """``Schedule.intervals()`` as it was before it became a sweep: every
    placement tested against the midpoint of every interval (quadratic; the
    oracle for the sweep, frozen)."""
    placed = list(schedule.placements.values())
    points = sorted({p.start for p in placed} | {p.finish for p in placed})
    d = schedule.instance.d
    out = []
    for t0, t1 in zip(points, points[1:]):
        if t1 <= t0:
            continue
        usage = [0] * d
        mid = (t0 + t1) / 2.0
        for p in placed:
            if p.start <= mid < p.finish:
                for r in range(d):
                    usage[r] += p.alloc[r]
        out.append((t0, t1, tuple(usage)))
    return out


def reference_callback_list_schedule(instance: Instance, allocation, priority) -> Schedule:
    """``list_schedule`` as it was while it collected placements one start
    at a time: one ``ScheduledJob`` and one dict entry per dispatch, in
    dispatch order (read off the loop's start log), then one ``Schedule``
    of those rows (frozen; the oracle for the gathered columns)."""
    from repro.engine.dispatch import priority_loop

    alloc_mat = instance.validate_allocation_map(allocation)
    order = instance.compiled().order
    times = np.array([instance.time(j, allocation[j]) for j in order])
    loop = priority_loop(instance, allocation, priority(instance, allocation, times),
                         times, alloc_mat=alloc_mat)
    loop.run()
    placements: dict = {}
    for i, start in zip(*(a.tolist() for a in loop.start_log())):
        j = order[i]
        placements[j] = ScheduledJob(job_id=j, start=start, time=float(times[i]),
                                     alloc=allocation[j])
    return schedule_of(instance, placements.values())


# ----------------------------------------------------------------------
# Frozen admission queue: the per-job loop before PR 15.  The fair-share
# queue as `service/fairshare.py` had it (one `enqueue` per job, one
# `min(active)` per drained job) together with the per-job loop
# `_op_submit` ran over it (`max_pending` test, then `enqueue`, then a
# wall-clock stamp per id).  Bookkeeping moved
# from per job to per request; order, vtimes and refusals may not move.
# ----------------------------------------------------------------------
class _ReferenceTenant:
    def __init__(self, name, weight=1.0):
        self.name = name
        self.weight = weight
        self.buffer = deque()
        self.vtime = 0.0


class _ReferenceFairQueue:
    def __init__(self):
        self.tenants = {}
        self.buffered = 0
        self._vfloor = 0.0
        self.stamps = {}

    def tenant(self, name):
        t = self.tenants.get(name)
        if t is None:
            t = self.tenants[name] = _ReferenceTenant(name)
        return t

    def set_weight(self, name, weight):
        self.tenant(name).weight = float(weight)

    def depth(self, name):
        t = self.tenants.get(name)
        return len(t.buffer) if t is not None else 0

    def enqueue(self, spec):
        t = self.tenant(spec.tenant)
        if not t.buffer:
            t.vtime = max(t.vtime, self._vfloor)
        t.buffer.append(spec)
        self.buffered += 1

    def submit(self, specs, stamp, max_pending=None):
        """What `_op_submit` did with a parsed request; returns the
        refused ids."""
        refused = []
        for spec in specs:
            if max_pending is not None and self.depth(spec.tenant) >= max_pending:
                refused.append(spec.id)
            else:
                self.enqueue(spec)
                self.stamps[spec.id] = stamp
        return refused

    def oldest_stamp(self):
        return min(self.stamps.values())

    def drain_fair(self):
        out = []
        active = [t for t in self.tenants.values() if t.buffer]
        while active:
            t = min(active, key=lambda t: (t.vtime, t.name))
            out.append(t.buffer.popleft())
            t.vtime += 1.0 / t.weight
            self._vfloor = t.vtime
            if not t.buffer:
                active.remove(t)
        self.buffered = 0
        self.stamps.clear()
        return out

    def remove_ids(self, gone):
        gone = set(gone)
        removed = []
        for t in self.tenants.values():
            for spec in list(t.buffer):
                if spec.id in gone:
                    t.buffer.remove(spec)
                    removed.append(spec.id)
                    self.buffered -= 1
                    self.stamps.pop(spec.id, None)
        return removed

    def cascade(self, gone):
        grew = True
        while grew:
            grew = False
            for t in self.tenants.values():
                for spec in t.buffer:
                    if spec.id not in gone and any(p in gone for p in spec.preds):
                        gone.add(spec.id)
                        grew = True
        return gone


def reference_fair_queue() -> _ReferenceFairQueue:
    """The frozen per-job admission queue (see the banner above)."""
    return _ReferenceFairQueue()


# ----------------------------------------------------------------------
# frozen reference: a session's history as dict records and five-field
# start tuples.  The session keeps its archive in columns and no event log
# at all; these are the record-per-row archive, the full
# ("submit" | "start" | "finish" | "cancel", ...) log the session once
# kept, and the checkpoint writers and event materializer over them that
# its checkpoints and advance replies must match byte for byte.
# ----------------------------------------------------------------------
_REF_STATE_NAMES = ("waiting", "queued", "running", "done", "cancelled")


def reference_event_dict(e: tuple) -> dict:
    """The frozen protocol dict of one five-field event tuple."""
    kind = e[0]
    if kind == "start":
        return {
            "event": "start",
            "id": e[1],
            "time": e[2],
            "duration": e[3],
            "alloc": list(e[4]),
        }
    if kind == "finish":
        return {"event": "finish", "id": e[1], "time": e[2]}
    return {"event": "cancel", "id": e[1], "time": e[2]}


class ReferenceHistory:
    """Keeps ``session``'s archive as a list of record dicts and the event
    log it once kept — ``("submit", id, t, tenant)``, five-field starts,
    finishes and cancellations — alongside the session itself.

    The session's ``submit``, ``cancel``, ``_run`` and ``_compact`` are
    wrapped on the instance: a submission or cancellation is logged at the
    clock; what a run leaves in the loop's buffer is logged as it comes, a
    start with the duration and demand of its row (still live then); and
    before a compaction every dead row becomes a dict record.  A restored
    session starts from the snapshot's own ``archive`` and ``events``.
    """

    def __init__(self, session, archive=(), events=()) -> None:
        self.session = session
        self.archive = list(archive)
        self.events = [tuple(e) for e in events]
        submit, cancel, run, compact = (
            session.submit, session.cancel, session._run, session._compact
        )
        loop = session.loop

        def _submit(jobs):
            ids = submit(jobs)
            tenants = session.tenants[len(session.tenants) - len(ids):]
            self.events.extend(("submit", j, session.now, t) for j, t in zip(ids, tenants))
            return ids

        def _cancel(job_id):
            gone = cancel(job_id)
            self.events.extend(("cancel", j, session.now) for j in gone)
            return gone

        def _run(until):
            ran = run(until)
            for kind, jid, t in ran:
                if kind == "start":
                    i = loop.index[jid]
                    self.events.append((kind, jid, t, loop.duration[i], loop.demand[i]))
                else:
                    self.events.append((kind, jid, t))
            return ran

        def _compact():
            self._archive_dead_rows()
            compact()

        session.submit, session.cancel, session._run, session._compact = (
            _submit, _cancel, _run, _compact
        )

    def cancellations(self) -> list[tuple]:
        return [e for e in self.events if e[0] == "cancel"]

    def _archive_dead_rows(self) -> None:
        session = self.session
        loop = session.loop
        order = loop.order
        for i, s in enumerate(loop.state):
            if s <= 2:  # waiting / queued / running stay hot
                continue
            pr = [order[p] for p in loop.preds[i]]
            if loop.ext_preds[i]:
                pr.extend(loop.ext_preds[i])
            self.archive.append(
                {
                    "id": order[i],
                    "state": _REF_STATE_NAMES[s],
                    "demand": loop.demand[i],
                    "duration": loop.duration[i],
                    "key": loop.key[i],
                    "preds": pr,
                    "release": loop.release[i],
                    "tenant": session.tenants[i],
                    "start": loop.start[i],
                    "finish": loop.finish[i],
                }
            )

    def advance(self, until: float) -> tuple[list[dict], list[dict]]:
        """``session.advance(until)`` and the reply the frozen
        materializer gives for the same step."""
        n0 = len(self.events)
        reply = self.session.advance(until)
        return reply, [reference_event_dict(e) for e in self.events[n0:]]


def reference_checkpoint(session, history: ReferenceHistory, *, full_log=False) -> dict:
    """The frozen ``repro-session/2`` writer over ``history``'s archive and
    cancellations; with ``full_log``, over its whole event log, as the
    writer of a session that kept one did."""
    loop = session.loop
    return {
        "format": "repro-session/2",
        "capacities": list(session.capacities),
        "time_eps": loop.eps,
        "clock": loop.now,
        "seq": loop.seq,
        "compact": {
            "threshold": session.compact_threshold,
            "min_rows": session.compact_min_rows,
        },
        "compactions": session.compactions,
        "jobs": {
            "id": list(loop.order),
            "preds": [list(p) for p in loop.preds],
            "ext_preds": [list(p) for p in loop.ext_preds],
            "demand": [list(d) for d in loop.demand],
            "duration": list(loop.duration),
            "key": list(loop.key),
            "release": list(loop.release),
            "tenant": list(session.tenants),
            "state": [_REF_STATE_NAMES[s] for s in loop.state],
            "remaining": list(loop.remaining),
            "start": list(loop.start),
            "finish": list(loop.finish),
        },
        "ready": [i for _, i in loop.rq],
        "heap": [[t, s, c] for (t, s, c) in loop.heap],
        "available": list(loop.available()),
        "archive": list(history.archive),
        "events": list(history.events) if full_log else history.cancellations(),
        "counters": {
            "submitted": session.counters.submitted,
            "cancelled": session.counters.cancelled,
            "completed": session.counters.completed,
        },
        "applied_seq": session.applied_seq,
        "rng": session.rng.bit_generator.state,
    }


def reference_checkpoint_v3(session, history: ReferenceHistory) -> dict:
    """The frozen ``repro-session/3`` writer over ``history``'s archive and
    cancellations: the rows, and of the loop state only the order the
    running rows' completions pop in."""
    loop = session.loop
    return {
        "format": "repro-session/3",
        "capacities": list(session.capacities),
        "time_eps": loop.eps,
        "clock": loop.now,
        "compact": {
            "threshold": session.compact_threshold,
            "min_rows": session.compact_min_rows,
        },
        "compactions": session.compactions,
        "jobs": {
            "id": list(loop.order),
            "preds": [list(p) for p in loop.preds],
            "ext_preds": [list(p) for p in loop.ext_preds],
            "demand": [list(d) for d in loop.demand],
            "duration": list(loop.duration),
            "key": list(loop.key),
            "release": list(loop.release),
            "tenant": list(session.tenants),
            "state": [_REF_STATE_NAMES[s] for s in loop.state],
            "start": list(loop.start),
            "finish": list(loop.finish),
        },
        "running": [c for _, _, c in sorted(loop.heap) if c >= 0],
        "archive": list(history.archive),
        "events": history.cancellations(),
        "applied_seq": session.applied_seq,
        "rng": session.rng.bit_generator.state,
    }


# ----------------------------------------------------------------------
# Frozen Algorithm 2 loops, two generations: the original pre-kernel
# python loop (``reference_list_schedule``, with its
# ``reference_bottom_level_priority``) and the PR-1 kernel loop
# (``reference_pr1_list_schedule``) — the ``insort``-queue,
# dict-bookkeeping dispatch the compiled-instance engine replaced, on a
# private copy of the part of that era's event kernel it drives
# (``_PR1Kernel``).  The live batch loop must reproduce both event for
# event (``tests/test_batch_loop.py``, ``tests/test_batched_loop_property.py``,
# ``tests/test_compiled_equivalence.py``, ``tests/test_engine_equivalence.py``).
# Both read a priority rule's keys as a dict over job ids, the form the
# built-in rules had before they kept only their array bodies: pass them a
# rule's ``reference_*_priority`` twin (``REFERENCE_TWINS``).
#
# The frozen loops must not retroactively benefit from infrastructure the
# later refactors added (the DAG's cached topological order, the vectorized
# bottom levels, the whole-matrix allocation validation).  The ``_era_*``
# helpers reproduce the original implementations verbatim.
# ----------------------------------------------------------------------
#: PR-1's ready-queue length threshold for its vectorized prefilter.
_PR1_VECTOR_SCAN_MIN = 32


def _era_topological_order(dag) -> list[JobId]:
    """Kahn order rebuilt from the adjacency dicts, exactly as the DAG
    computed it before the order was cached (one fresh O(n+m) pass)."""
    indeg = {n: dag.in_degree(n) for n in dag.nodes()}
    frontier = [n for n, k in indeg.items() if k == 0]
    order: list[JobId] = []
    while frontier:
        n = frontier.pop()
        order.append(n)
        for s in dag.successors(n):
            indeg[s] -= 1
            if indeg[s] == 0:
                frontier.append(s)
    if len(order) != len(dag):
        raise ValueError("precedence graph contains a cycle")
    return order


def _era_validate_allocation_map(instance, allocation) -> None:
    """The original per-job validation loop (python dominance tests)."""
    for j in instance.jobs:
        if j not in allocation:
            raise ValueError(f"allocation missing job {j!r}")
        instance.pool.validate_allocation(allocation[j])


def reference_fifo_priority(instance, allocation, times) -> dict[JobId, object]:
    """The dict body of ``fifo_priority`` (frozen): topological index."""
    return {j: i for i, j in enumerate(instance.dag.topological_order())}


def reference_lpt_priority(instance, allocation, times) -> dict[JobId, object]:
    """The dict body of ``lpt_priority`` (frozen)."""
    return {j: (-times[j], i) for i, j in enumerate(instance.dag.topological_order())}


def reference_spt_priority(instance, allocation, times) -> dict[JobId, object]:
    """The dict body of ``spt_priority`` (frozen)."""
    return {j: (times[j], i) for i, j in enumerate(instance.dag.topological_order())}


def reference_random_priority(seed=None):
    """The dict body of ``random_priority`` (frozen)."""

    def rule(instance, allocation, times) -> dict[JobId, object]:
        rng = ensure_rng(seed)
        order = instance.dag.topological_order()
        perm = rng.permutation(len(order))
        return {j: int(perm[i]) for i, j in enumerate(order)}

    return rule


def reference_bottom_level_priority(instance, allocation, times) -> dict[JobId, object]:
    """The pre-vectorization bottom-level priority rule: a per-node python
    sweep over the DAG, keyed exactly like the live rule."""
    order = _era_topological_order(instance.dag)
    b: dict[JobId, float] = {}
    for j in reversed(order):
        succ_best = max((b[s] for s in instance.dag.successors(j)), default=0.0)
        b[j] = times[j] + succ_best
    return {j: (-b[j], i) for i, j in enumerate(_era_topological_order(instance.dag))}


#: Each built-in array rule's frozen dict twin, the key form the two frozen
#: loops read (``random_priority(seed)``'s is ``reference_random_priority(seed)``).
#: The bottom-level twin is the era sweep above: it keys exactly as the
#: rule's dict body did, ``(-bottom level, topological index)``.
REFERENCE_TWINS = {
    fifo_priority: reference_fifo_priority,
    lpt_priority: reference_lpt_priority,
    spt_priority: reference_spt_priority,
    bottom_level_priority: reference_bottom_level_priority,
}


def reference_list_schedule(instance, allocation, priority=None) -> Schedule:
    """The pre-kernel Algorithm 2 loop (python per-type accounting, insort
    ready queue, full-queue scans).

    ``priority=None`` uses :func:`reference_bottom_level_priority`, the
    era-faithful default for benchmark comparisons.
    """
    if priority is None:
        priority = reference_bottom_level_priority
    _era_validate_allocation_map(instance, allocation)
    times = {j: instance.time(j, allocation[j]) for j in instance.jobs}
    keys = priority(instance, allocation, times)

    dag = instance.dag
    remaining_preds = {j: dag.in_degree(j) for j in instance.jobs}
    tie = {j: i for i, j in enumerate(_era_topological_order(dag))}
    ready: list[tuple[object, int, JobId]] = []
    for j in dag.sources():
        insort(ready, (keys[j], tie[j], j))

    avail = list(instance.pool.capacities)
    d = instance.d
    running: list[tuple[float, int, JobId]] = []
    seq = 0
    placements: dict[JobId, ScheduledJob] = {}
    now = 0.0

    while ready or running:
        still_waiting: list[tuple[object, int, JobId]] = []
        for entry in ready:
            j = entry[2]
            a = allocation[j]
            if all(a[r] <= avail[r] for r in range(d)):
                for r in range(d):
                    avail[r] -= a[r]
                placements[j] = ScheduledJob(job_id=j, start=now, time=times[j], alloc=a)
                heapq.heappush(running, (now + times[j], seq, j))
                seq += 1
            else:
                still_waiting.append(entry)
        ready = still_waiting

        if not running:
            if ready:
                raise RuntimeError("deadlock: ready jobs cannot fit an empty platform")
            break

        now, _, j = heapq.heappop(running)
        completed = [j]
        while running and running[0][0] <= now + 1e-12:
            completed.append(heapq.heappop(running)[2])
        for c in completed:
            a = allocation[c]
            for r in range(d):
                avail[r] += a[r]
            for s in dag.successors(c):
                remaining_preds[s] -= 1
                if remaining_preds[s] == 0:
                    insort(ready, (keys[s], tie[s], s))

    if len(placements) != len(instance.jobs):
        raise RuntimeError("list scheduling failed to place every job")
    return schedule_of(instance, placements.values())


_COMPLETE, _RELEASE = "complete", "release"


class _PR1Kernel:
    """The PR-1 event kernel, cut down to what
    :func:`reference_pr1_list_schedule` calls: a clock, one heap of
    completions and releases, numpy-vector availability, and the loop
    that alternates dispatch passes with :data:`TIME_EPS` event batches."""

    def __init__(self, capacities) -> None:
        self.caps = np.asarray(tuple(capacities), dtype=np.int64)
        self.available = self.caps.copy()
        self.now = 0.0
        self.heap: list = []
        self.seq = 0

    def acquire(self, demand) -> None:
        self.available -= demand
        if (self.available < 0).any():
            raise RuntimeError("overcommitted")

    def release(self, demand) -> None:
        self.available += demand
        if (self.available > self.caps).any():
            raise RuntimeError("released more resources than were acquired")

    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self.heap, (float(time), self.seq, kind, payload))
        self.seq += 1

    def hold(self, payload, duration: float) -> None:
        """A completion for work whose resources the caller acquired."""
        self._push(self.now + duration, _COMPLETE, payload)

    def schedule_release(self, time: float, payload) -> None:
        self._push(time, _RELEASE, payload)

    def run(self, dispatch, handle) -> None:
        heap = self.heap
        dispatch(self)
        while heap:
            t, _, kind, payload = heapq.heappop(heap)
            self.now = t
            batch = [(kind, payload)]
            while heap and heap[0][0] <= t + TIME_EPS:
                batch.append(heapq.heappop(heap)[2:])
            for kind, payload in batch:
                handle(self, kind, payload)
            dispatch(self)


def reference_pr1_list_schedule(instance, allocation, priority=None) -> Schedule:
    """The PR-1 kernel list-schedule path, frozen verbatim.

    This is the priority-dispatch driver that shipped with the unified
    engine refactor: dict ``remaining`` bookkeeping, an ``insort``-sorted
    ready queue of ``(key, index, job)`` tuples, per-job tuple round-trips
    for resource accounting, and a vectorized feasibility prefilter for
    long queues — together with the era's per-run rebuilds (fresh Kahn
    order, python allocation validation, and, for ``priority=None``, the
    python bottom-level sweep).  The compiled-instance engine must
    reproduce its schedules exactly.
    """
    if priority is None:
        priority = reference_bottom_level_priority
    _era_validate_allocation_map(instance, allocation)
    durations = {j: instance.time(j, allocation[j]) for j in instance.jobs}
    keys = priority(instance, allocation, durations)

    placements: dict[JobId, ScheduledJob] = {}

    def on_start(j, start, duration):
        placements[j] = ScheduledJob(job_id=j, start=start, time=duration, alloc=allocation[j])

    dag = instance.dag
    order = _era_topological_order(dag)
    index = {j: i for i, j in enumerate(order)}
    d = instance.d
    rng_d = range(d)
    alloc_mat = np.zeros((len(order), d), dtype=np.int64)
    for j, i in index.items():
        alloc_mat[i] = tuple(allocation[j])
    alloc_tup = [tuple(allocation[j]) for j in order]

    remaining = {j: dag.in_degree(j) for j in order}
    kernel = _PR1Kernel(instance.pool.capacities)
    for j, r in instance.release_times().items():
        if r > 0.0:
            remaining[j] += 1
            kernel.schedule_release(r, j)

    ready: list[tuple[object, int, JobId]] = []
    for j in dag.sources():
        if remaining[j] == 0:
            insort(ready, (keys[j], index[j], j))

    freed = [0] * d
    have_freed = False

    def dispatch(k: _PR1Kernel) -> None:
        nonlocal have_freed
        if have_freed:
            k.release(freed)
            for r in rng_d:
                freed[r] = 0
            have_freed = False
        if not ready:
            return
        m = len(ready)
        fit = None
        if m > _PR1_VECTOR_SCAN_MIN:
            idxs = np.fromiter((e[1] for e in ready), dtype=np.int64, count=m)
            fit = (alloc_mat[idxs] <= k.available).all(axis=1).tolist()
            if True not in fit:
                return
        av = k.available.tolist()
        acq: list[int] | None = None
        keep: list[tuple[object, int, JobId]] = []
        for pos in range(m):
            entry = ready[pos]
            if fit is None or fit[pos]:
                a = alloc_tup[entry[1]]
                if all(map(_le, a, av)):
                    j = entry[2]
                    dur = durations[j]
                    kernel.hold(entry[1], dur)
                    if acq is None:
                        acq = list(a)
                    else:
                        for r in rng_d:
                            acq[r] += a[r]
                    for r in rng_d:
                        av[r] -= a[r]
                    on_start(j, k.now, dur)
                    continue
            keep.append(entry)
        if acq is not None:
            k.acquire(acq)
            ready[:] = keep

    def handle(k: _PR1Kernel, kind: str, payload) -> None:
        nonlocal have_freed
        if kind == _RELEASE:
            j = payload
            remaining[j] -= 1
            if remaining[j] == 0:
                insort(ready, (keys[j], index[j], j))
            return
        i = payload
        j = order[i]
        a = alloc_tup[i]
        for r in rng_d:
            freed[r] += a[r]
        have_freed = True
        for s in dag.successors(j):
            remaining[s] -= 1
            if remaining[s] == 0:
                insort(ready, (keys[s], index[s], s))

    kernel.run(dispatch, handle)

    if len(placements) != len(instance.jobs):
        raise RuntimeError("deadlock: ready jobs cannot fit an empty platform")
    return schedule_of(instance, placements.values())


# ----------------------------------------------------------------------
# Frozen pre-kernel loops of the schedulers other than Algorithm 2: the
# dynamic-allocation loop under Tetris and HEFT, the first-fit shelf
# packer, the conservative-backfilling planner and the unit-step malleable
# loop, as they stood before the engine refactor.  The live ports must
# reproduce them exactly (``tests/test_engine_equivalence.py``).
# ----------------------------------------------------------------------
def reference_run_dynamic(instance, policy) -> Schedule:
    """The pre-kernel dynamic-allocation loop (Tetris/HEFT substrate)."""
    dag = instance.dag
    remaining = {j: dag.in_degree(j) for j in instance.jobs}
    ready: list[JobId] = list(dag.sources())
    avail = list(instance.pool.capacities)
    d = instance.d
    running: list[tuple[float, int, JobId]] = []
    seq = 0
    now = 0.0
    placements: dict[JobId, ScheduledJob] = {}

    while ready or running:
        while True:
            starts = policy(instance, list(ready), tuple(avail))
            if not starts:
                break
            for j, alloc in starts:
                if j not in ready:
                    raise RuntimeError(f"policy started non-ready job {j!r}")
                instance.pool.validate_allocation(alloc)
                if any(alloc[r] > avail[r] for r in range(d)):
                    raise RuntimeError(
                        f"policy overcommitted: {tuple(alloc)} vs available {tuple(avail)}"
                    )
                t = instance.time(j, alloc)
                for r in range(d):
                    avail[r] -= alloc[r]
                placements[j] = ScheduledJob(job_id=j, start=now, time=t, alloc=alloc)
                heapq.heappush(running, (now + t, seq, j))
                seq += 1
                ready.remove(j)

        if not running:
            if ready:
                raise RuntimeError("policy stalled with ready jobs and an idle platform")
            break

        now, _, j = heapq.heappop(running)
        done = [j]
        while running and running[0][0] <= now + 1e-12:
            done.append(heapq.heappop(running)[2])
        for c in done:
            a = placements[c].alloc
            for r in range(d):
                avail[r] += a[r]
            for s in dag.successors(c):
                remaining[s] -= 1
                if remaining[s] == 0:
                    ready.append(s)

    if len(placements) != len(instance.jobs):
        raise RuntimeError("dynamic engine failed to place every job")
    return schedule_of(instance, placements.values())


def reference_pack_shelf_placements(
    jobs, allocation, times, capacities, *, t0: float = 0.0
) -> tuple[dict[JobId, ScheduledJob], float]:
    """The pre-kernel first-fit shelf loop shared (by copy) between the
    level-shelf baseline and Sun et al.'s pack scheduler."""
    caps = capacities
    d = len(caps)
    shelves: list[dict] = []
    for j in jobs:
        a = allocation[j]
        placed = False
        for shelf in shelves:
            if all(shelf["used"][r] + a[r] <= caps[r] for r in range(d)):
                shelf["jobs"].append(j)
                for r in range(d):
                    shelf["used"][r] += a[r]
                placed = True
                break
        if not placed:
            shelves.append({"jobs": [j], "used": list(a), "height": times[j]})
    placements: dict[JobId, ScheduledJob] = {}
    for shelf in shelves:
        for j in shelf["jobs"]:
            placements[j] = ScheduledJob(job_id=j, start=t0, time=times[j], alloc=allocation[j])
        t0 += shelf["height"]
    return placements, t0


def reference_backfill_plan(instance, allocation, times, order) -> dict[JobId, ScheduledJob]:
    """The pre-kernel conservative-backfilling reservation loop."""
    reserved: dict[JobId, ScheduledJob] = {}
    pending = list(order)
    caps = instance.pool.capacities
    d = instance.d

    def earliest_fit(est: float, alloc, duration: float) -> float:
        points = sorted({est} | {r.finish for r in reserved.values() if r.finish > est})
        for t in points:
            end = t + duration
            ok = True
            probes = [t] + [r.start for r in reserved.values() if t < r.start < end - 1e-12]
            for probe in probes:
                usage = [0] * d
                for r in reserved.values():
                    if r.start <= probe + 1e-12 and probe < r.finish - 1e-12:
                        for i in range(d):
                            usage[i] += r.alloc[i]
                if any(usage[i] + alloc[i] > caps[i] for i in range(d)):
                    ok = False
                    break
            if ok:
                return t
        return max((r.finish for r in reserved.values()), default=est)

    while pending:
        progressed = False
        for j in list(pending):
            preds = instance.dag.predecessors(j)
            if any(p not in reserved for p in preds):
                continue
            est = max((reserved[p].finish for p in preds), default=0.0)
            start = earliest_fit(est, allocation[j], times[j])
            reserved[j] = ScheduledJob(job_id=j, start=start, time=times[j], alloc=allocation[j])
            pending.remove(j)
            progressed = True
        if not progressed:
            raise RuntimeError("backfill planning stalled")
    return reserved


def reference_malleable_task_starts(instance) -> dict:
    """The pre-kernel unit-time-stepped malleable loop."""
    inst = instance
    outer_remaining = {j: inst.dag.in_degree(j) for j in inst.jobs}
    job_tasks_left = {j: inst.jobs[j].n_tasks for j in inst.jobs}
    open_jobs = [j for j in inst.dag.topological_order() if outer_remaining[j] == 0]

    intra_remaining = {
        j: {t: inst.jobs[j].tasks.in_degree(t) for t in inst.jobs[j].tasks.nodes()}
        for j in inst.jobs
    }
    ready = [
        (j, t)
        for j in open_jobs
        for t, k in intra_remaining[j].items()
        if k == 0
    ]
    task_start: dict = {}
    step = 0
    total = sum(job_tasks_left.values())

    while len(task_start) < total:
        if not ready:
            raise RuntimeError("malleable scheduler stalled")
        avail = list(inst.pool.capacities)
        started = []
        leftover = []
        for j, t in ready:
            r = inst.jobs[j].rtype[t]
            if avail[r] > 0:
                avail[r] -= 1
                task_start[(j, t)] = step
                started.append((j, t))
            else:
                leftover.append((j, t))
        ready = leftover
        newly_open = []
        for j, t in started:
            job_tasks_left[j] -= 1
            for s in inst.jobs[j].tasks.successors(t):
                intra_remaining[j][s] -= 1
                if intra_remaining[j][s] == 0:
                    ready.append((j, s))
            if job_tasks_left[j] == 0:
                for nxt in inst.dag.successors(j):
                    outer_remaining[nxt] -= 1
                    if outer_remaining[nxt] == 0:
                        newly_open.append(nxt)
        for j in newly_open:
            for t, k in intra_remaining[j].items():
                if k == 0:
                    ready.append((j, t))
        step += 1

    return task_start


# ----------------------------------------------------------------------
# Exhaustive oracles: the exact ``L_min`` over the candidate set by
# enumeration (the oracle for the FPTAS and Lemma 8) and the cheap floors
# ``max_j min t_j`` / ``Σ_j min a_j``.
# ----------------------------------------------------------------------
def exact_lmin_bruteforce(
    instance: Instance,
    strategy: CandidateStrategy | None = None,
    *,
    max_combinations: int = 2_000_000,
) -> tuple[float, dict[JobId, ResourceVector]]:
    """Exact ``L_min`` by enumerating every combination of candidates.

    Exponential in the number of jobs: refuses to run past
    ``max_combinations`` (it is a test oracle, not an algorithm).
    """
    table = instance.candidate_table(strategy)
    jobs = list(instance.jobs)
    count = 1
    for j in jobs:
        count *= len(table[j])
        if count > max_combinations:
            raise ValueError(
                f"brute force would enumerate > {max_combinations} combinations"
            )
    best_l = float("inf")
    best: dict[JobId, ResourceVector] = {}
    for combo in product(*(table[j] for j in jobs)):
        alloc = {j: e.alloc for j, e in zip(jobs, combo)}
        l = instance.lower_bound_functional(alloc)
        if l < best_l:
            best_l, best = l, alloc
    return best_l, best


def trivial_lower_bounds(instance: Instance, strategy: CandidateStrategy | None = None) -> dict[str, float]:
    """Cheap floors: ``max_j min t_j`` (a job must run) and ``Σ_j min a_j``
    (total area must fit)."""
    table = instance.candidate_table(strategy)
    if not instance.jobs:
        return {"max_min_time": 0.0, "min_total_area": 0.0}
    return {
        "max_min_time": max(min(e.time for e in table[j]) for j in instance.jobs),
        "min_total_area": sum(min(e.area for e in table[j]) for j in instance.jobs),
    }


def iter_allocation_grid(limits: ResourceVector) -> Iterator[ResourceVector]:
    """Yield every allocation ``1 <= p^(i) <= limits^(i)`` (full grid).

    Exponential in ``d`` — intended for small pools, oracles and tests.
    """
    d = len(limits)

    def rec(i: int, prefix: list[int]) -> Iterator[ResourceVector]:
        if i == d:
            yield ResourceVector(prefix)
            return
        for a in range(1, limits[i] + 1):
            prefix.append(a)
            yield from rec(i + 1, prefix)
            prefix.pop()

    yield from rec(0, [])


def schedule_of(instance: Instance, rows) -> Schedule:
    """The :class:`Schedule` of ``(job_id, start, time, alloc)`` rows, such
    as :class:`ScheduledJob` values, in the order given."""
    return Schedule(instance, *zip(*rows)) if rows else Schedule(instance)


def schedule_from_decisions(
    instance: Instance,
    allocation: Mapping[JobId, ResourceVector],
    starts: Mapping[JobId, float],
) -> Schedule:
    """Build from the paper's two decision vectors ``(p, s)``."""
    placements = {
        j: ScheduledJob(
            job_id=j,
            start=float(starts[j]),
            time=instance.time(j, allocation[j]),
            alloc=allocation[j],
        )
        for j in instance.jobs
    }
    return schedule_of(instance, placements.values())


# ----------------------------------------------------------------------
# Assumption 3 checked over every comparable pair of a job's candidates.
# ----------------------------------------------------------------------
def _strictly_dominated_by(p: ResourceVector, q: ResourceVector) -> bool:
    """``p ⪯ q`` and ``p != q``."""
    return p.dominated_by(q) and tuple(p) != tuple(q)


def _max_ratio_over(q: ResourceVector, p: ResourceVector) -> float:
    """``max_i q^(i) / p^(i)`` — the speed-loss factor of Assumption 3.

    Components where ``q`` is 0 contribute nothing; a positive demand
    over a zero ``p`` component yields ``inf``.
    """
    worst = 0.0
    for a, b in zip(q, p):
        if a == 0:
            continue
        if b == 0:
            return float("inf")
        worst = max(worst, a / b)
    return worst


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
            if e1 is e2 or not _strictly_dominated_by(e1.alloc, e2.alloc):
                continue
            # e1.alloc ⪯ e2.alloc (p=e1, q=e2)
            if e2.time > e1.time * (1 + rtol):
                bad.append(
                    f"monotonicity: t{tuple(e2.alloc)}={e2.time:.6g} > "
                    f"t{tuple(e1.alloc)}={e1.time:.6g}"
                )
                continue
            ratio = _max_ratio_over(e2.alloc, e1.alloc)
            if e1.time > ratio * e2.time * (1 + rtol):
                bad.append(
                    f"superlinear speedup: t{tuple(e1.alloc)}={e1.time:.6g} > "
                    f"{ratio:.4g} * t{tuple(e2.alloc)}={e2.time:.6g}"
                )
    return bad


# ----------------------------------------------------------------------
# Frozen hand-off from Algorithm 1 to Algorithm 2: the dict pipeline as it
# was before the allocation became one value of its instance.  ``p'`` was
# a dict, the µ-adjustment lowered it in dict order, capped it and rebuilt
# a dict, and the list scheduler lowered the dict again in topological
# order and evaluated ``instance.time`` once per job.  Lemma 8's sweep is
# frozen beside it, recomputing the max time at every threshold.
# ----------------------------------------------------------------------
def reference_adjust_allocation(instance: Instance, p_prime, mu: float):
    """Eq. (5) over a dict: ``(allocation, adjusted_jobs)``."""
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
    return allocation, frozenset(adjusted)


def reference_service_specs(inst: Instance, allocation) -> list:
    """``conformance/fuzz.py::service_specs`` as it stood while it cast each
    amount and evaluated ``inst.time`` per job: the specs the lowered rows
    must reproduce."""
    from repro.service.session import JobSpec

    return [
        JobSpec(
            id=repr(j),
            demand=tuple(int(a) for a in allocation[j]),
            duration=inst.time(j, allocation[j]),
            preds=tuple(repr(u) for u in inst.dag.predecessors(j)),
            release=inst.jobs[j].release,
            key=i,
        )
        for i, j in enumerate(inst.dag.topological_order())
    ]


def reference_dict_list_schedule(instance: Instance, allocation, priority=fifo_priority) -> Schedule:
    """Algorithm 2 over a dict: the dict lowered by the layout's bounds
    rule in topological order, one ``instance.time`` per job."""
    from repro.core.list_scheduler import ScheduleLog
    from repro.engine.dispatch import priority_loop

    ci = instance.compiled()
    layout, order = ci.layout, ci.order
    rows = [allocation[j] for j in order]
    alloc_mat = layout.matrix(rows)
    if alloc_mat is None:
        alloc_mat = layout.matrix(list(map(layout.row, order, rows)))
    times_vec = np.fromiter(
        (instance.time(j, allocation[j]) for j in order), dtype=np.float64, count=len(order)
    )
    keys = priority(instance, allocation, times_vec)
    loop = priority_loop(instance, allocation, keys, times_vec, alloc_mat=alloc_mat)
    loop.run()
    out_i, out_t = loop.start_log()
    log = ScheduleLog(order, out_i.copy(), out_t.copy(), times_vec, float(loop.now))
    return log.to_schedule(instance, allocation)


def reference_independent_allocation(instance: Instance, strategy=None, table=None):
    """Lemma 8's sweep with the max time recomputed over every job at every
    threshold (O(n·E)): ``(allocation, l_min, max_time, total_area)``."""
    tbl = table if table is not None else instance.candidate_table(strategy)
    jobs = list(instance.jobs)
    if not jobs:
        return {}, 0.0, 0.0, 0.0
    events = [(e.time, j, k) for j in jobs for k, e in enumerate(tbl[j]) if k > 0]
    events.sort(key=lambda ev: ev[0])
    ptr = {j: 0 for j in jobs}
    area = sum(tbl[j][0].area for j in jobs)

    def evaluate():
        mt = max(tbl[j][ptr[j]].time for j in jobs)
        return max(area, mt), mt, area

    best_l, best_mt, best_area = evaluate()
    best_ptr = dict(ptr)
    i = 0
    while i < len(events):
        t = events[i][0]
        while i < len(events) and events[i][0] == t:
            _, j, k = events[i]
            area += tbl[j][k].area - tbl[j][ptr[j]].area
            ptr[j] = max(ptr[j], k)
            i += 1
        lb, mt, a = evaluate()
        if lb < best_l - 1e-15:
            best_l, best_mt, best_area = lb, mt, a
            best_ptr = dict(ptr)
        if mt >= best_l:
            break
    allocation = {j: tbl[j][best_ptr[j]].alloc for j in jobs}
    return allocation, best_l, best_mt, best_area


def reference_moldable_schedule(instance: Instance, allocator: str, sp_tree=None, epsilon=0.3):
    """``MoldableScheduler(allocator=...).schedule`` over the frozen dict
    pipeline, with theorem-default parameters and the FIFO rule: a dict of
    ``p_prime``, ``allocation``, ``adjusted_jobs``, ``lower_bound`` and
    ``schedule``."""
    from repro.core import theory
    from repro.core.dtct import round_fractional, solve_dtct_lp
    from repro.core.sp_fptas import sp_fptas_allocation

    d = instance.d
    if allocator == "independent":
        mu, _, _ = theory.best_parameters(d, "independent")
        p_prime, lower_bound, _, _ = reference_independent_allocation(instance)
    elif allocator == "sp":
        mu, _, _ = theory.best_parameters(d, "sp", eps=epsilon)
        res = sp_fptas_allocation(instance, sp_tree, epsilon)
        p_prime, lower_bound = res.allocation, res.l_value / (1.0 + epsilon)
    else:
        mu, rho, _ = theory.best_parameters(d, "general")
        table = instance.candidate_table()
        fractional = solve_dtct_lp(instance, table)
        p_prime = round_fractional(table, fractional, rho)
        lower_bound = fractional.lower_bound
    allocation, adjusted = reference_adjust_allocation(instance, p_prime, mu)
    return {
        "p_prime": p_prime,
        "allocation": allocation,
        "adjusted_jobs": adjusted,
        "lower_bound": lower_bound,
        "schedule": reference_dict_list_schedule(instance, allocation),
    }
