"""Phase 1 against the code it replaced.

``tests/helpers.py`` keeps the per-job ``candidate_table`` body and the
entry-by-entry assembler of the convex-combination (``x``-form) LP as frozen
references.  The candidate table's arithmetic did not change — only how the
work is organised — so tables must be equal bit for bit.  The LP did change
(``core/dtct.py`` solves the delta form): it is held to the oracle's
*optimum* and to being a point of the oracle's LP, not to its matrix or its
vertex.  How the delta form reaches HiGHS changed too (``core/dtct.py::_solve``
instead of ``linprog``), and that change is held to the vertex itself: the
same ``x``, bit for bit, as the frozen ``linprog`` call on the same problem.
So is how the delta form's matrix is laid out: the column arrays must equal,
dtypes included, those of the frozen assembler built on ``scipy.sparse``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    REFERENCE_LINPROG_OPTIONS,
    HalvingSpeedup,
    kernel_frontier,
    lp_matrix,
    pipeline_instance,
    reference_candidate_table,
    reference_delta_lp_problem,
    reference_linprog_solve,
    reference_lower_hull,
    reference_lp_problem,
    reference_pareto_filter,
    reference_solve_dtct_lp,
    scripted_highs,
    tiny_instance,
)
from repro.conformance.fuzz import build_case_instance, default_matrix
from repro.conformance.invariants import validate_schedule
from repro.core.dtct import (
    _HIGHS_OPTIONS,
    FractionalSolution,
    _frontiers,
    _lp_optimum,
    _lp_problem,
    _solve,
    round_fractional,
    solve_dtct_lp,
)
from repro.core.two_phase import moldable_schedule
from repro.dag.generators import independent, layered_random
from repro.dag.graph import DAG
from repro.experiments.workloads import WORKLOAD_FAMILIES
from repro.instance.instance import Instance, make_instance
from repro.jobs.candidates import diagonal_grid, full_grid, geometric_grid
from repro.jobs.job import Job
from repro.jobs.profiles import ProfileEntry
from repro.jobs.speedup import (
    LinearSpeedup,
    MultiResourceTime,
    random_multi_resource_time,
)
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

FAMILIES = ["linear", "amdahl", "power", "roofline", "log"]
GRIDS = {"full": full_grid, "geometric": geometric_grid, "diagonal": diagonal_grid}


def mixed_instance(family: str, combiner: str, pool: ResourcePool, seed: int) -> Instance:
    """Every kind of job ``candidate_table`` tells apart, in one instance:
    built-in families on the shared grid (some with a zero-work type), a job
    pinned to its own candidates (incl. a 0 on its zero-work type), a rigid
    callable, an opaque wrapper and a custom speedup model (both scalar)."""
    rng = np.random.default_rng(seed)
    d = pool.d
    fns = [
        random_multi_resource_time(d, rng, model=family, combiner=combiner, zero_prob=zp)
        for zp in (0.0, 0.0, 0.0, 0.6, 0.6, 0.6)
    ]
    jobs = {j: Job(id=j, time_fn=fn) for j, fn in enumerate(fns)}
    one_type = MultiResourceTime(
        works=(7.0,) + (0.0,) * (d - 1), speedups=fns[0].speedups, combiner=combiner
    )
    jobs["pinned"] = Job(
        id="pinned",
        time_fn=one_type,
        candidates=tuple(
            ResourceVector((x,) + (0,) * (d - 1)) for x in (4, 1, 2, 2, pool.capacities[0])
        ),
    )
    jobs["rigid"] = Job(
        id="rigid", time_fn=lambda p: 3.0, candidates=(ResourceVector.ones(d),)
    )
    opaque = fns[1]
    jobs["opaque"] = Job(id="opaque", time_fn=lambda p: opaque(p))
    jobs["custom"] = Job(
        id="custom",
        time_fn=MultiResourceTime(
            works=(5.0,) * d, speedups=(HalvingSpeedup(),) * d, combiner=combiner
        ),
    )
    return Instance(jobs=jobs, dag=DAG(nodes=list(jobs)), pool=pool)


class TestCandidateTableIdentity:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("combiner", ["max", "sum"])
    @pytest.mark.parametrize("family", FAMILIES + ["mixed"])
    def test_equal_entry_for_entry(self, family, combiner, grid):
        for pool, seed in ((ResourcePool.of(12), 1), (ResourcePool.of(9, 6), 2),
                           (ResourcePool.of(5, 4, 6), 3)):
            inst = mixed_instance(family, combiner, pool, seed)
            table = inst.candidate_table(GRIDS[grid])
            ref = reference_candidate_table(inst, GRIDS[grid])
            assert list(table) == list(ref)
            # ProfileEntry equality is exact on alloc, time and area
            assert table == ref
            for entries in table.values():
                for e in entries:
                    assert type(e.alloc) is ResourceVector
                    assert type(e.time) is float and type(e.area) is float

    def test_scalar_path_is_taken_only_without_an_array_form(self):
        """A type bug in a job's data is reported where it is found, not
        swallowed and rerouted through the scalar loop."""
        scalar_calls = []

        class Recording(MultiResourceTime):
            def __call__(self, alloc):
                scalar_calls.append(alloc)
                return super().__call__(alloc)

        broken = Recording(works=(3.0, 2.0), speedups=(LinearSpeedup(),) * 2)
        object.__setattr__(broken, "works", (3.0, "2.0"))
        inst = make_instance(independent(1), ResourcePool.of(4, 4), lambda j: broken)
        with pytest.raises(TypeError):
            inst.candidate_table(full_grid)
        assert scalar_calls == []

        custom = Recording(works=(3.0, 2.0), speedups=(HalvingSpeedup(),) * 2)
        inst = make_instance(independent(1), ResourcePool.of(4, 4), lambda j: custom)
        inst.candidate_table(full_grid)
        assert scalar_calls

    def test_shared_grid_is_enumerated_and_validated_once(self):
        pool = ResourcePool.of(4, 4)
        calls = []

        def strategy(p):
            calls.append(p)
            return full_grid(p)

        fn = random_multi_resource_time(2, seed=0)
        inst = make_instance(independent(5), pool, lambda j: fn)
        inst.candidate_table(strategy)
        assert len(calls) == 1

    def test_invalid_shared_grid_still_rejected(self):
        pool = ResourcePool.of(2, 2)
        fn = random_multi_resource_time(2, seed=0)
        inst = make_instance(independent(2), pool, lambda j: fn)
        with pytest.raises(ValueError, match="exceeds capacities"):
            inst.candidate_table(lambda p: (ResourceVector((3, 1)),))
        with pytest.raises(ValueError, match="empty candidate set"):
            inst.candidate_table(lambda p: ())


def entry(t, a, k):
    return ProfileEntry(alloc=ResourceVector((k,)), time=t, area=a)


class TestParetoTies:
    CASES = {
        "single": [(2.0, 3.0)],
        "equal_time": [(2.0, 5.0), (2.0, 3.0), (2.0, 4.0)],
        "equal_area": [(2.0, 5.0), (1.0, 5.0), (3.0, 5.0)],
        "exact_duplicates": [(1.0, 4.0), (2.0, 3.0), (1.0, 4.0), (2.0, 3.0)],
        "mixed": [(1.0, 4.0), (1.0, 6.0), (2.0, 4.0), (3.0, 2.0), (3.5, 2.0), (0.5, 9.0),
                  (3.0, 2.0), (4.0, 1.0), (4.0, 1.5)],
        "all_dominated_but_one": [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)],
        "empty": [],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_filter_and_kernel_match_the_reference(self, case):
        # the allocation records the input position, so equality also pins
        # *which* of several tied entries survives
        entries = [entry(t, a, k) for k, (t, a) in enumerate(self.CASES[case])]
        assert kernel_frontier(entries) == reference_pareto_filter(entries)

    def test_random_pairs_with_many_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(1, 30))
            pairs = rng.integers(1, 6, size=(m, 2)).astype(float)
            entries = [entry(t, a, k) for k, (t, a) in enumerate(pairs.tolist())]
            assert kernel_frontier(entries) == reference_pareto_filter(entries)


def layered_instance(d: int, seed: int, layers: int = 4, width: int = 5) -> Instance:
    dag = layered_random(layers, width, p=0.4, seed=seed)
    rng = np.random.default_rng(seed)
    fns = {j: random_multi_resource_time(d, rng) for j in dag.topological_order()}
    return make_instance(dag, ResourcePool.uniform(d, 16), lambda j: fns[j])


# ---------------------------------------------------------------------------
# The delta-form LP against the x-form oracle.  What is held is what the
# proofs consume — the optimum, the certificate (the live solution is a point
# of the *reference* LP at that optimum) and Lemma 3 — not the matrix and not
# the vertex: among degenerate optima HiGHS may stop at a different one.
# ---------------------------------------------------------------------------
TOL = 1 + 1e-6
RHOS = (0.1, 0.31, 0.5, 0.9)


def frontier(table, j):
    return (np.array([e.time for e in table[j]]), np.array([e.area for e in table[j]]))


def scaled(entries, k: float):
    return [ProfileEntry(e.alloc, e.time * k, e.area * k) for e in entries]


def assert_same_optimum(inst, sol, ref):
    assert type(sol.lower_bound) is float
    assert sol.lower_bound == pytest.approx(ref.lower_bound, rel=1e-9, abs=0.0)
    order = inst.dag.topological_order()
    assert list(sol.fractions) == list(sol.fractional_times) == list(sol.fractional_areas) == order


def assert_hull_projection(table, sol):
    """Per job: a distribution on at most two candidates, adjacent on the
    job's lower hull, whose mean is the reported ``(τ_j, γ_j)``."""
    for j, x in sol.fractions.items():
        times, areas = frontier(table, j)
        assert x.shape == times.shape and (x >= 0.0).all()
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        hull = reference_lower_hull(times, areas)
        at = [hull.index(k) for k in np.flatnonzero(x).tolist()]  # ValueError: off the hull
        assert len(at) == 1 or (len(at) == 2 and at[1] - at[0] == 1), (j, x)
        assert sol.fractional_times[j] == pytest.approx(float(times @ x), rel=1e-12, abs=0.0)
        assert sol.fractional_areas[j] == pytest.approx(float(areas @ x), rel=1e-12, abs=0.0)


def assert_feasible_in_reference_lp(inst, table, sol):
    """``(x, C, L)`` with ``C`` the longest path under ``τ`` and ``L =
    L_LP (1 + 1e-9)`` satisfies every row and bound of the x-form LP."""
    ref = reference_lp_problem(inst, table)
    order = inst.dag.topological_order()
    done: dict = {}
    for j in order:
        ready = max((done[u] for u in inst.dag.predecessors(j)), default=0.0)
        done[j] = ready + sol.fractional_times[j]
    bound = sol.lower_bound * (1 + 1e-9)
    point = np.concatenate(
        [sol.fractions[j] for j in order] + [[done[j] for j in order], [bound]]
    )
    # rows are exact up to the rounding of a dot product against C_j ~ L
    assert (ref["A_ub"] @ point - ref["b_ub"]).max() <= 1e-12 * bound
    assert ref["A_eq"] @ point == pytest.approx(ref["b_eq"], abs=1e-12)
    for value, (lo, hi) in zip(point.tolist(), ref["bounds"]):
        assert lo <= value and (hi is None or value <= hi + 1e-12)


def assert_lemma3(inst, table, sol, rho):
    """Per job ``t <= τ/ρ`` and ``a <= γ/(1−ρ)``, hence ``C(p') <= L_LP/ρ``
    and ``A(p') <= L_LP/(1−ρ)`` — read off the table, so hand-built tables
    are held to it too."""
    p_prime = round_fractional(table, sol, rho)
    chosen = {j: next(e for e in table[j] if e.alloc == p_prime[j]) for j in table}
    done: dict = {}
    for j in inst.dag.topological_order():
        e = chosen[j]
        assert e.time <= sol.fractional_times[j] / rho * TOL
        assert e.area <= sol.fractional_areas[j] / (1.0 - rho) * TOL
        done[j] = e.time + max((done[u] for u in inst.dag.predecessors(j)), default=0.0)
    assert max(done.values()) <= sol.lower_bound / rho * TOL
    assert sum(e.area for e in chosen.values()) <= sol.lower_bound / (1.0 - rho) * TOL


def assert_agrees_with_oracle(inst, table):
    sol = solve_dtct_lp(inst, table)
    assert_same_optimum(inst, sol, reference_solve_dtct_lp(inst, table))
    assert_hull_projection(table, sol)
    assert_feasible_in_reference_lp(inst, table, sol)
    for rho in RHOS:
        assert_lemma3(inst, table, sol, rho)
    return sol


def assert_same_vertex_as_linprog(inst, table):
    """``_solve`` against the ``linprog`` call it replaced, on the same
    problem with the same options, tuned and defaults: the same ``x`` to the
    last bit after the same number of simplex iterations."""
    problem = _lp_problem(inst, _frontiers(inst, table))
    for options, linprog_options in ((_HIGHS_OPTIONS, REFERENCE_LINPROG_OPTIONS), ({}, None)):
        answer = _solve(problem, options)
        ref = reference_linprog_solve(problem, linprog_options)
        assert answer.status == ref.status == 0
        assert np.array_equal(answer.x, ref.x)
        assert answer.iterations == ref.nit


def assert_same_lp_arrays(inst, table):
    """``_lp_problem`` against the assembler that built its matrix with
    ``scipy.sparse`` and its edge rows from ``list(dag.edges())``: the same
    column arrays, dtypes included, and the same ``c``, ``b_ub`` and
    ``bounds`` — what HiGHS is handed is unchanged."""
    fr = _frontiers(inst, table)
    live, ref = _lp_problem(inst, fr), reference_delta_lp_problem(inst, fr)
    a = ref["A_ub"]
    assert live["shape"] == a.shape
    for name in ("indptr", "indices", "data"):
        assert live[name].dtype == getattr(a, name).dtype, name
        assert np.array_equal(live[name], getattr(a, name)), name
    for name in ("c", "b_ub", "bounds"):
        assert live[name].dtype == ref[name].dtype, name
        assert np.array_equal(live[name], ref[name]), name


def assert_schedules(inst, **opts):
    result = moldable_schedule(inst, **opts)
    assert result.allocator == "lp"
    report = validate_schedule(result.schedule, strict=True, mu=result.mu)
    assert report.ok, report.violations[:3]
    assert result.schedule.makespan <= result.proven_ratio * result.lower_bound
    return result


def shuffled_instance(seed: int) -> Instance:
    """``layered_instance(2, seed)`` with its DAG's nodes inserted in a
    shuffled order: ``dag.edges()``, grouped by tail in insertion order, is
    then not the topological order of the tails."""
    inst = layered_instance(2, seed)
    nodes = list(inst.dag.nodes())
    np.random.default_rng(seed).shuffle(nodes)
    return Instance(jobs=inst.jobs, dag=DAG(nodes=nodes, edges=inst.dag.edges()), pool=inst.pool)


ORACLE_CASES = {
    **{
        f"layered-d{d}-s{seed}": (lambda d=d, seed=seed: layered_instance(d, seed))
        for d in (1, 2, 3)
        for seed in (0, 7)
    },
    "shuffled-s0": lambda: shuffled_instance(0),
    # the benchmark's three seed-0 inputs, 1 000 jobs each
    **{f"pipeline-{i}": (lambda i=i: pipeline_instance(10, 100, [0, i])) for i in range(3)},
}
#: ``L_LP`` of the pipeline inputs: that these *are* the benchmark's inputs
PIPELINE_BOUNDS = {
    "pipeline-0": 818.5727525239973,
    "pipeline-1": 844.4971192595036,
    "pipeline-2": 878.1448558116704,
}


@pytest.fixture(scope="module", params=sorted(ORACLE_CASES))
def solved(request):
    inst = ORACLE_CASES[request.param]()
    table = inst.candidate_table()
    sol, ref = solve_dtct_lp(inst, table), reference_solve_dtct_lp(inst, table)
    return request.param, inst, table, sol, ref


class TestLPOracle:
    def test_same_optimum_as_the_x_form(self, solved):
        name, inst, table, sol, ref = solved
        assert_same_optimum(inst, sol, ref)
        if name in PIPELINE_BOUNDS:
            assert ref.lower_bound == pytest.approx(PIPELINE_BOUNDS[name], rel=1e-12, abs=0.0)

    def test_fractions_are_hull_projections(self, solved):
        _, _, table, sol, _ = solved
        assert_hull_projection(table, sol)

    def test_solution_is_feasible_in_the_x_form(self, solved):
        _, inst, table, sol, _ = solved
        assert_feasible_in_reference_lp(inst, table, sol)

    @pytest.mark.parametrize("rho", RHOS)
    def test_lemma3_per_job(self, solved, rho):
        _, inst, table, sol, _ = solved
        assert_lemma3(inst, table, sol, rho)

    def test_schedule_valid_within_proven_ratio(self, solved):
        _, inst, _, _, ref = solved
        result = assert_schedules(inst)
        assert result.lower_bound == pytest.approx(ref.lower_bound, rel=1e-9, abs=0.0)

    def test_same_vertex_as_linprog(self, solved):
        _, inst, table, _, _ = solved
        assert_same_vertex_as_linprog(inst, table)

    def test_same_lp_arrays_as_the_scipy_assembler(self, solved):
        _, inst, table, _, _ = solved
        assert_same_lp_arrays(inst, table)


@pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
def test_every_fuzz_family_gets_the_scipy_assembler_arrays(family):
    """Every quick fuzz case the two-phase scheduler runs, by family."""
    cases = default_matrix(quick=True, schedulers=["ours"], families=[family])
    assert len(cases) == 5
    for case in cases:
        inst = build_case_instance(case)
        assert_same_lp_arrays(inst, inst.candidate_table())


def test_edge_rows_follow_dag_edges_not_the_topological_order():
    """The vertex HiGHS stops at depends on the row order: edge rows sorted
    by their tail's topological position move ``x`` on all 36 pipeline LPs
    of seeds 0–11.  The edge rows stay in ``dag.edges()`` order, here on a
    DAG where that order is not the topological one."""
    inst = shuffled_instance(0)
    dag = inst.dag
    order = dag.topological_order()
    edges = list(dag.edges())
    position = {j: i for i, j in enumerate(order)}
    assert sorted(edges, key=lambda e: position[e[0]]) != edges
    a = lp_matrix(_lp_problem(inst, _frontiers(inst, inst.candidate_table())))
    sources = sum(1 for j in order if not dag.predecessors(j))
    first_c = a.shape[1] - inst.n - 1
    # an edge row u -> j has +1 at C_u and -1 at C_j among the C columns
    block = a.toarray()[sources : sources + len(edges), first_c : first_c + inst.n]
    tails = [order[k] for k in np.argmax(block == 1.0, axis=1)]
    heads = [order[k] for k in np.argmax(block == -1.0, axis=1)]
    assert list(zip(tails, heads)) == edges


def table_instance(n: int, edges) -> Instance:
    """``n`` jobs whose LP data comes from a hand-built table (the LP reads
    only the DAG off the instance)."""
    jobs = {j: Job(id=j, time_fn=lambda p: 1.0) for j in range(n)}
    return Instance(jobs=jobs, dag=DAG(nodes=range(n), edges=edges), pool=ResourcePool.of(64))


@st.composite
def dag_and_frontiers(draw):
    """A small DAG and, per job, a frontier built from small integer steps,
    so that collinear runs, equal slopes in different jobs and one-candidate
    jobs all come up."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    table = {}
    for j in range(n):
        steps = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=5))
        t, a = float(draw(st.integers(1, 4))), 1.0 + sum(da for _, da in steps)
        table[j] = [entry(t, a, 0)]
        for k, (dt, da) in enumerate(steps, start=1):
            t, a = t + dt, a - da
            table[j].append(entry(t, a, k))
    return table_instance(n, edges), table


class TestDegenerateProfiles:
    """Shapes on which a hull-segment LP could go wrong and the
    convex-combination one could not."""

    @given(dag_and_frontiers())
    @settings(max_examples=60, deadline=None)
    def test_integer_step_frontiers(self, case):
        assert_agrees_with_oracle(*case)

    @given(dag_and_frontiers())
    @settings(max_examples=60, deadline=None)
    def test_integer_step_frontiers_same_vertex_as_linprog(self, case):
        assert_same_vertex_as_linprog(*case)

    def test_all_rigid_dag_has_no_segment_variable(self, monkeypatch):
        dag = layered_random(3, 4, p=0.5, seed=1)
        rng = np.random.default_rng(1)
        jobs = {
            j: Job(
                id=j,
                time_fn=lambda p, t=float(rng.uniform(0.5, 4.0)): t,
                candidates=(ResourceVector(rng.integers(1, 5, size=2)),),
            )
            for j in dag.topological_order()
        }
        inst = Instance(jobs=jobs, dag=dag, pool=ResourcePool.of(8, 8))
        table = inst.candidate_table()
        calls = scripted_highs(monkeypatch, None, None)  # here, then in the schedule
        sol = assert_agrees_with_oracle(inst, table)
        assert calls[0]["model"]["num_col"] == inst.n + 1  # C_j and L only
        assert all(x.tolist() == [1.0] for x in sol.fractions.values())
        alloc = {j: job.candidates[0] for j, job in jobs.items()}
        rigid_bound = inst.lower_bound_functional(alloc)
        assert sol.lower_bound == pytest.approx(rigid_bound, rel=1e-9, abs=0.0)
        assert_schedules(inst)

    @pytest.mark.parametrize(
        "shape",
        [
            dict(n=1, edges=()),                                  # a single job
            dict(edges=((0, 1), (1, 2), (2, 3), (3, 4))),         # a chain
            dict(n=6, edges=()),                                  # independent jobs
        ],
        ids=["single", "chain", "independent"],
    )
    @pytest.mark.parametrize("seed", [3, 4])
    def test_single_chain_independent(self, shape, seed):
        inst = tiny_instance(seed=seed, **shape)
        assert_agrees_with_oracle(inst, inst.candidate_table())
        # ``auto`` would send independent jobs to the exact allocator
        assert_schedules(inst, allocator="lp")

    @pytest.mark.parametrize("combiner", ["max", "sum"])
    def test_zero_work_types_pinned_and_scalar_jobs(self, combiner):
        inst = mixed_instance("mixed", combiner, ResourcePool.of(9, 6), seed=2)
        assert_agrees_with_oracle(inst, inst.candidate_table())
        assert_schedules(inst, allocator="lp")

    def test_collinear_points_are_not_hull_vertices(self):
        inst = table_instance(3, [(0, 1), (0, 2)])
        line = [entry(1.0 + k, 9.0 - 2 * k, k) for k in range(5)]  # all on one line
        bent = [entry(1.0, 9.0, 0), entry(2.0, 5.0, 1), entry(3.0, 3.0, 2), entry(4.0, 1.0, 3)]
        table = {0: line, 1: bent, 2: line[:1] + bent[1:]}
        assert reference_lower_hull(*frontier(table, 0)) == [0, 4]
        assert reference_lower_hull(*frontier(table, 1)) == [0, 1, 3]
        assert_agrees_with_oracle(inst, table)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    def test_two_times_one_ulp_apart(self, scale):
        """The first hull segment is one ulp long and two area units deep: a
        slope near ``-1e16`` per unit time, were it ever formed.  Segments
        scaled to ``[0, 1]`` put ``Δt`` and ``Δa`` in the matrix instead."""
        inst = table_instance(3, [(0, 1), (0, 2)])
        t = 2.0 * scale
        steep = [entry(t, 5.0 * scale, 0), entry(np.nextafter(t, np.inf), 3.0 * scale, 1),
                 entry(2 * t, scale, 2)]
        assert reference_lower_hull(*frontier({0: steep}, 0)) == [0, 1, 2]
        assert_agrees_with_oracle(inst, {0: steep, 1: steep, 2: steep})

    @pytest.mark.parametrize("exponent", [-40, 40])
    def test_the_unit_of_time_does_not_matter(self, exponent):
        """Times and areas reach HiGHS in a power-of-two unit near ``L``, so
        the same instance in another (power-of-two) unit is the same floats
        to HiGHS: same vertex, bound scaled exactly."""
        inst = layered_instance(2, 0)
        table = inst.candidate_table()
        base = solve_dtct_lp(inst, table)
        k = 2.0 ** exponent
        other = solve_dtct_lp(inst, {j: scaled(es, k) for j, es in table.items()})
        assert other.lower_bound == base.lower_bound * k
        for j, x in base.fractions.items():
            assert other.fractions[j].tolist() == x.tolist()

    def test_wide_range_instance_matches_the_oracle(self):
        """120 jobs, each scaled by its own ``10^U(-12, 12)``.  With job data
        in its own units both the tuned options and the defaults stop at
        status 4 here; in the LP's unit near ``L`` the first attempt solves
        it — to HiGHS's own tolerance, which is all that can be held."""
        inst = layered_instance(2, 3, layers=8, width=15)
        rng = np.random.default_rng(3)
        table = {
            j: scaled(es, 10.0 ** rng.uniform(-12, 12))
            for j, es in inst.candidate_table().items()
        }
        sol = solve_dtct_lp(inst, table)
        ref = reference_solve_dtct_lp(inst, table)
        assert sol.lower_bound == pytest.approx(ref.lower_bound, rel=1e-6, abs=0.0)

    def test_small_time_values_keep_their_bound(self):
        """At times of ``1e-12`` every coefficient of the x-form is below the
        ``1e-9`` HiGHS drops from a matrix: the oracle itself answers 0."""
        inst = layered_instance(2, 7)
        table = inst.candidate_table()
        base = solve_dtct_lp(inst, table)
        tiny = {j: scaled(es, 1e-12) for j, es in table.items()}
        assert solve_dtct_lp(inst, tiny).lower_bound == pytest.approx(
            base.lower_bound * 1e-12, rel=1e-9, abs=0.0
        )
        assert reference_solve_dtct_lp(inst, tiny).lower_bound == 0.0


# ---------------------------------------------------------------------------
# The closed form (module docstring of ``core/dtct.py``, "When no LP is
# needed"): where every job's slowest candidate makes a path no longer than
# the least area, the optimum is that all-last point, and it is unique.
# ---------------------------------------------------------------------------
def slow_path_and_least_area(inst, table) -> tuple[float, float]:
    """``(C_slow, A_min)``, read off the table by hand."""
    order = inst.dag.topological_order()
    done: dict = {}
    for j in order:
        done[j] = table[j][-1].time + max((done[u] for u in inst.dag.predecessors(j)), default=0.0)
    return max(done.values()), math.fsum(table[j][-1].area for j in order)


def with_areas(table, k: float, *, nudge=None, by: float = 0.0):
    """Every area times ``k``; then job ``nudge``'s last area plus ``by``."""
    out = {j: [ProfileEntry(e.alloc, e.time, e.area * k) for e in es] for j, es in table.items()}
    if nudge is not None:
        *rest, last = out[nudge]
        out[nudge] = [*rest, ProfileEntry(last.alloc, last.time, last.area + by)]
    return out


@st.composite
def both_regimes(draw):
    """A small moldable instance and its table, with the areas as drawn,
    scaled by a drawn factor around ``C_slow / A_min``, or scaled and nudged
    so that ``A_min`` lands within a few ulps of ``C_slow``, either side."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    inst = tiny_instance(
        d=draw(st.integers(1, 3)), edges=tuple(edges), n=n, seed=draw(st.integers(0, 2**16))
    )
    table = dict(inst.candidate_table())
    c_slow, a_min = slow_path_and_least_area(inst, table)
    mode = draw(st.sampled_from(["drawn", "scaled", "tie"]))
    if mode == "scaled":
        table = with_areas(table, draw(st.floats(0.25, 4.0)) * c_slow / a_min)
    elif mode == "tie":
        table = with_areas(table, c_slow / a_min)
        job = max(table, key=lambda j: table[j][-1].area)
        ulps = draw(st.integers(-4, 4))
        target = c_slow + ulps * math.ulp(c_slow)
        table = with_areas(table, 1.0, nudge=job, by=target - slow_path_and_least_area(inst, table)[1])
        areas = frontier(table, job)[1]
        assume(areas[-1] > 0.0 and (len(areas) == 1 or areas[-1] < areas[-2]))
    return inst, table


class TestClosedForm:
    @given(both_regimes())
    @settings(max_examples=80, deadline=None)
    def test_both_regimes_agree_with_the_oracle_and_the_lp(self, case):
        """Either side of ``C_slow = A_min``, down to a few ulps: the bound
        is the frozen oracle's and the LP's, and the closed form rounds as
        both do at every ρ (its optimum is unique).  HiGHS runs once exactly
        when the slow path is longer than the least area."""
        inst, table = case
        with pytest.MonkeyPatch.context() as mp:
            calls = scripted_highs(mp, None)
            sol = assert_agrees_with_oracle(inst, table)
        ref = reference_solve_dtct_lp(inst, table)
        fr = _frontiers(inst, table)
        x, bound = _lp_optimum(inst, fr)  # the HiGHS path, whatever the regime
        lp = FractionalSolution(bound, dict(zip(fr.job_order, np.split(x, fr.starts[1:-1]))), {}, {})
        assert sol.lower_bound == pytest.approx(bound, rel=1e-9, abs=0.0)
        c_slow, a_min = slow_path_and_least_area(inst, table)
        assert len(calls) == (c_slow > a_min)
        for rho in RHOS:
            p_prime = round_fractional(table, sol, rho)
            assert p_prime == round_fractional(table, lp, rho)
            if not calls:
                assert p_prime == round_fractional(table, ref, rho)
        if not calls:
            assert sol.lower_bound == a_min
            assert all(x.tolist() == [0.0] * (len(x) - 1) + [1.0] for x in sol.fractions.values())


def test_problem_has_no_redundant_row_or_column(monkeypatch):
    """A count, not a stopwatch: on a 20 x 50 layered instance the LP is
    ``sources + edges + sinks + 1`` rows by ``segments + n + 1`` columns and
    has no equality block — a reintroduced per-job row block shows here.
    The instance is a mixed one (its slow critical path is longer than its
    least area), so the LP reaches HiGHS; the 10 x 100 shape of the
    ``moldable-pipeline`` workload is solved in closed form."""
    inst = pipeline_instance(20, 50, 5)
    table = inst.candidate_table()
    calls = scripted_highs(monkeypatch, None)
    solve_dtct_lp(inst, table)
    (call,) = calls
    model = call["model"]
    assert np.isneginf(model["row_lower"]).all()  # every row is ``<=``: no equality block
    dag = inst.dag
    sources = sum(1 for j in inst.jobs if not dag.predecessors(j))
    sinks = sum(1 for j in inst.jobs if not dag.successors(j))
    segments = sum(
        len(reference_lower_hull(*frontier(table, j))) - 1 for j in inst.jobs
    )
    assert sources == 50 and sinks > 0 and segments > inst.n
    shape = (model["num_row"], model["num_col"])
    assert shape == (sources + dag.num_edges + sinks + 1, segments + inst.n + 1)
    assert model["row_upper"].shape == (model["num_row"],)
    assert model["start"].shape == (model["num_col"] + 1,)
