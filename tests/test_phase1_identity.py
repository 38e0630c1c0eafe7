"""Phase 1's array code against the loops it replaced, with ``==``.

``tests/helpers.py`` keeps the per-job ``candidate_table`` body and the
entry-by-entry LP assembler as frozen references.  The arithmetic did not
change — only how the work is organised — so tables, matrices, fractional
solutions and start logs must be equal bit for bit, not approximately.
"""

import numpy as np
import pytest

from helpers import (
    reference_candidate_table,
    reference_lp_problem,
    reference_pareto_filter,
    reference_solve_dtct_lp,
)
from repro.core import theory
from repro.core.adjustment import adjust_allocation
from repro.core.dtct import _lp_problem, round_fractional, solve_dtct_lp
from repro.core.list_scheduler import list_schedule
from repro.core.two_phase import moldable_schedule
from repro.dag.generators import independent, layered_random
from repro.dag.graph import DAG
from repro.instance.instance import Instance, make_instance
from repro.jobs.candidates import diagonal_grid, full_grid, geometric_grid
from repro.jobs.job import Job
from repro.jobs.profiles import ProfileEntry, pareto_filter, pareto_indices
from repro.jobs.speedup import (
    LinearSpeedup,
    MultiResourceTime,
    random_multi_resource_time,
)
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

FAMILIES = ["linear", "amdahl", "power", "roofline", "log"]
GRIDS = {"full": full_grid, "geometric": geometric_grid, "diagonal": diagonal_grid}


class HalvingSpeedup:
    """A speedup model outside the built-in families: no array form."""

    def __call__(self, x: int) -> float:
        return 1.0 + x / 2.0


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
        expected = reference_pareto_filter(entries)
        assert pareto_filter(entries) == expected
        keep = pareto_indices(
            np.array([e.time for e in entries], dtype=np.float64),
            np.array([e.area for e in entries], dtype=np.float64),
        )
        assert [entries[i] for i in keep] == expected

    def test_random_pairs_with_many_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(1, 30))
            pairs = rng.integers(1, 6, size=(m, 2)).astype(float)
            entries = [entry(t, a, k) for k, (t, a) in enumerate(pairs.tolist())]
            assert pareto_filter(entries) == reference_pareto_filter(entries)


def layered_instance(d: int, seed: int) -> Instance:
    dag = layered_random(4, 5, p=0.4, seed=seed)
    rng = np.random.default_rng(seed)
    fns = {j: random_multi_resource_time(d, rng) for j in dag.topological_order()}
    return make_instance(dag, ResourcePool.uniform(d, 16), lambda j: fns[j])


def canonical(matrix):
    matrix = matrix.tocsr()
    return matrix.indptr.tolist(), matrix.indices.tolist(), matrix.data.tolist()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
class TestLPIdentity:
    def test_same_problem_handed_to_linprog(self, d, seed):
        inst = layered_instance(d, seed)
        table = inst.candidate_table()
        problem, *_ = _lp_problem(inst, table)
        ref = reference_lp_problem(inst, table)
        assert sorted(problem) == sorted(ref)
        for name in ("A_ub", "A_eq"):
            assert problem[name].shape == ref[name].shape
            assert (problem[name] != ref[name]).nnz == 0
            assert canonical(problem[name]) == canonical(ref[name])
        for name in ("c", "b_ub", "b_eq"):
            assert problem[name].dtype == ref[name].dtype
            assert problem[name].tolist() == ref[name].tolist()
        # linprog reads ``None`` as "no bound"
        ref_bounds = [(lo, np.inf if hi is None else hi) for lo, hi in ref["bounds"]]
        assert problem["bounds"].tolist() == [list(b) for b in ref_bounds]

    def test_fractional_solution_bit_equal(self, d, seed):
        inst = layered_instance(d, seed)
        table = inst.candidate_table()
        sol = solve_dtct_lp(inst, table)
        ref = reference_solve_dtct_lp(inst, table)
        assert sol.lower_bound == ref.lower_bound
        assert sol.fractional_times == ref.fractional_times
        assert sol.fractional_areas == ref.fractional_areas
        assert list(sol.fractions) == list(ref.fractions)
        for j, x in ref.fractions.items():
            assert sol.fractions[j].tolist() == x.tolist()

    def test_schedule_start_log_equal(self, d, seed):
        inst = layered_instance(d, seed)
        result = moldable_schedule(inst)
        assert result.allocator == "lp"

        ref_inst = layered_instance(d, seed)
        mu, rho, _ = theory.best_parameters(d, "general")
        ref_table = reference_candidate_table(ref_inst)
        ref_solution = reference_solve_dtct_lp(ref_inst, ref_table)
        p_prime = round_fractional(ref_table, ref_solution, rho)
        allocation = adjust_allocation(ref_inst, p_prime, mu).allocation
        ref_schedule = list_schedule(ref_inst, allocation)

        assert result.lower_bound == ref_solution.lower_bound
        assert result.allocation == allocation
        # placements: per job (id, start, time, alloc), in dispatch order
        assert list(result.schedule.placements.items()) == list(
            ref_schedule.placements.items()
        )
