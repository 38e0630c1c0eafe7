"""Tests for the DTCT LP relaxation and the ρ-quantile rounding (Lemma 3).

The rounding guarantees are deterministic — we assert them exactly (up to
LP solver tolerance) on randomized instances, not just on fixtures.
"""

import math
import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    REFERENCE_LINPROG_OPTIONS,
    lp_matrix,
    pipeline_instance,
    reference_linprog_solve,
    scripted_highs,
    tiny_instance,
)
from scipy.optimize._highspy._core import HighsModelStatus, MatrixFormat, ObjSense

from repro.core.dtct import (
    _STATUS,
    DTCTSolveError,
    FractionalSolution,
    _frontiers,
    _highs_binding,
    _lp_problem,
    dtct_allocate,
    round_fractional,
    solve_dtct_lp,
)
from repro.dag.graph import DAG
from repro.instance.instance import Instance
from repro.jobs.candidates import full_grid
from repro.jobs.job import Job
from repro.jobs.profiles import ProfileEntry
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

TOL = 1 + 1e-6
#: the options ``solve_dtct_lp`` gives HiGHS, in HiGHS's names, spelled out
#: here so that a drift in ``core/dtct.py`` fails a test: what
#: ``linprog(method="highs")`` set on every solve (the defaults retry gets
#: these alone), then the tuned attempt (1 = devex)
BASE = {"output_flag": False, "log_to_console": False, "simplex_strategy": 1, "presolve": "on"}
TUNED = {**BASE, "simplex_dual_edge_weight_strategy": 1, "presolve": "off"}


class TestLP:
    def test_lower_bound_below_any_integral_allocation(self):
        inst = tiny_instance(seed=42)
        table = inst.candidate_table(full_grid)
        sol = solve_dtct_lp(inst, table)
        # L_LP <= L(p) for every combination of frontier endpoints
        for pick in (0, -1):
            alloc = {j: entries[pick].alloc for j, entries in table.items()}
            assert sol.lower_bound <= inst.lower_bound_functional(alloc) * TOL

    def test_fractional_consistency(self):
        inst = tiny_instance(seed=7)
        table = inst.candidate_table(full_grid)
        sol = solve_dtct_lp(inst, table)
        for j, x in sol.fractions.items():
            assert x.sum() == pytest.approx(1.0, abs=1e-6)
            assert (x >= -1e-9).all()
            times = np.array([e.time for e in table[j]])
            assert sol.fractional_times[j] == pytest.approx(float(times @ x))

    def test_lp_bound_at_least_area_and_path_floors(self):
        inst = tiny_instance(seed=3)
        table = inst.candidate_table(full_grid)
        sol = solve_dtct_lp(inst, table)
        min_area = sum(min(e.area for e in es) for es in table.values())
        assert sol.lower_bound >= min_area / TOL
        # some path exists; its fractional length >= max over jobs of min time
        max_min_time = max(min(e.time for e in es) for es in table.values())
        assert sol.lower_bound >= max_min_time / TOL

    def test_empty_instance(self):
        pool = ResourcePool.of(4)
        inst = Instance(jobs={}, dag=DAG(), pool=pool)
        assert solve_dtct_lp(inst, {}) == FractionalSolution(0.0, {}, {}, {})

    def test_single_rigid_job(self):
        pool = ResourcePool.of(4, 4)
        alloc = ResourceVector((2, 2))
        job = Job(id="j", time_fn=lambda p: 3.0, candidates=(alloc,))
        inst = Instance(jobs={"j": job}, dag=DAG(nodes=["j"]), pool=pool)
        table = inst.candidate_table(full_grid)
        sol = solve_dtct_lp(inst, table)
        assert sol.lower_bound == pytest.approx(3.0, rel=1e-6)
        p_prime = round_fractional(table, sol, rho=0.5)
        assert p_prime["j"] == alloc


class TestTableOrder:
    """The hull reads a job's rows as a frontier, in order.  The
    convex-combination LP did not care, so until PR 21 every table below was
    accepted (and, now, would give a silently wrong bound)."""

    GOOD = [(1.0, 6.0), (2.0, 3.0), (4.0, 2.0)]

    @staticmethod
    def solve(points):
        """Job 2's frontier replaced by ``points``, or dropped for ``None``."""
        inst = tiny_instance(seed=2)
        table = dict(inst.candidate_table(full_grid))  # hand-built: a dict of entry lists
        if points is None:
            del table[2]
        else:
            table[2] = [
                ProfileEntry(alloc=ResourceVector((k + 1, 1)), time=t, area=a)
                for k, (t, a) in enumerate(points)
            ]
        return solve_dtct_lp(inst, table)

    def test_a_frontier_in_order_is_accepted(self):
        assert self.solve(self.GOOD).fractions[2].shape == (3,)

    @pytest.mark.parametrize(
        "points",
        [
            GOOD[::-1],                                  # slowest first
            [GOOD[1], GOOD[0], GOOD[2]],                 # one pair swapped
            [(1.0, 6.0), (1.0, 3.0), (4.0, 2.0)],        # equal times
            [(1.0, 6.0), (2.0, 6.0), (4.0, 2.0)],        # equal areas
            [(1.0, 6.0), (2.0, 7.0), (4.0, 2.0)],        # a dominated point
            [(1.0, 6.0), (float("nan"), 3.0), (4.0, 2.0)],
            [(1.0, 6.0), (2.0, float("nan")), (4.0, 2.0)],
            [(0.0, 6.0), (2.0, 3.0)],
            [(float("inf"), 6.0)],
        ],
    )
    def test_anything_else_is_refused_naming_the_job(self, points):
        with pytest.raises(ValueError, match=r"job 2: candidate times must be"):
            self.solve(points)

    def test_a_job_without_candidates_is_refused(self):
        # an empty frontier, and no entry at all (once a bare ``KeyError``
        # from the table's ``positions``)
        for points in ([], None):
            with pytest.raises(ValueError, match="job 2 has no candidate allocations"):
                self.solve(points)


class TestSolverFailure:
    @staticmethod
    def failed(status):
        """A HiGHS model status ``_solve`` maps to ``status``."""
        name = {1: "kIterationLimit", 2: "kInfeasible", 4: "kSolveError"}[status]
        return getattr(HighsModelStatus, name), None

    @pytest.mark.parametrize(
        "status, message",
        [
            (2, "The problem is infeasible. (HiGHS Status 8: model_status is Infeasible)"),
            (1, "Iteration limit reached. "
                "(HiGHS Status 14: model_status is Iteration limit reached)"),
        ],
    )
    def test_typed_error_carries_status_and_message(self, monkeypatch, status, message):
        calls = scripted_highs(monkeypatch, self.failed(4), self.failed(status))
        inst = tiny_instance(seed=2)
        with pytest.raises(DTCTSolveError) as err:
            solve_dtct_lp(inst, inst.candidate_table(full_grid))
        # the tuned attempt, then HiGHS's defaults on the same problem, then no more
        assert [call["options"] for call in calls] == [TUNED, BASE]
        assert all(call["model"]["sense"] == ObjSense.kMinimize for call in calls)
        assert err.value.status == status
        assert err.value.message == message
        assert err.value.tuned_status == 4
        rows, columns = calls[0]["model"]["num_row"], calls[0]["model"]["num_col"]
        assert (err.value.rows, err.value.columns) == (rows, columns)
        for part in (message, f"status {status}", "status 4", f"{rows} rows x {columns} columns"):
            assert part in str(err.value)
        assert isinstance(err.value, RuntimeError)

    def test_defaults_solve_what_the_tuned_options_gave_up_on(self, monkeypatch):
        inst = tiny_instance(seed=2)
        table = inst.candidate_table(full_grid)
        expected = solve_dtct_lp(inst, table)
        calls = scripted_highs(monkeypatch, self.failed(4), None)
        sol = solve_dtct_lp(inst, table)
        tuned, retry = calls
        assert tuned["options"] == TUNED and retry["options"] == BASE
        same = ("cost", "row_upper", "start", "index", "value")
        assert all(retry["model"][name] is tuned["model"][name] for name in same)
        assert sol.lower_bound == pytest.approx(expected.lower_bound, rel=1e-12, abs=0.0)
        assert sol.fractional_times == pytest.approx(expected.fractional_times, rel=1e-9)

    def test_highs_called_once_with_the_pinned_model_and_options(self, monkeypatch):
        """The formulation and the options were chosen together (on the
        convex-combination form ``presolve: False`` is ten times slower): a
        drift in either the model's form or the options fails here."""
        calls = scripted_highs(monkeypatch, None)
        inst = tiny_instance(seed=2)
        solve_dtct_lp(inst, inst.candidate_table(full_grid))
        (seen,) = calls
        assert seen["options"] == TUNED
        model = seen["model"]
        assert (model["a_format"], model["sense"], model["offset"]) == (
            MatrixFormat.kColwise, ObjSense.kMinimize, 0.0
        )
        # every row is ``<=`` and every column continuous
        assert np.isneginf(model["row_lower"]).all() and not model["integrality"].any()

    def test_an_optimum_that_breaks_a_row_takes_the_retry_then_the_error(self, monkeypatch):
        """``linprog`` checked an "optimal" answer against the model (bounds
        and rows to ``√1e-9 · 10`` ≈ 3.2e-4) and so does ``_solve``: an
        answer 1e-3 over one row is retried, then refused with status 4."""
        inst = tiny_instance(seed=2)
        table = inst.candidate_table(full_grid)
        problem = _lp_problem(inst, _frontiers(inst, table))
        a, b = lp_matrix(problem), problem["b_ub"]
        x = reference_linprog_solve(problem, REFERENCE_LINPROG_OPTIONS).x.copy()
        # C of the first job in topological order, a source: lowering it
        # tightens its arrival row (row 0) and loosens every other row it is in
        x[a.shape[1] - inst.n - 1] -= (b - a @ x)[0] + 1e-3
        over = a @ x - b
        assert np.flatnonzero(over > 1e-9).tolist() == [0]
        assert over[0] == pytest.approx(1e-3, rel=1e-9)
        assert (x >= problem["bounds"][:, 0]).all() and (x <= problem["bounds"][:, 1]).all()
        broken = (HighsModelStatus.kOptimal, x)
        calls = scripted_highs(monkeypatch, broken, broken)
        with pytest.raises(DTCTSolveError) as err:
            solve_dtct_lp(inst, table)
        assert [call["options"] for call in calls] == [TUNED, BASE]
        assert (err.value.status, err.value.tuned_status) == (4, 4)
        assert "breaks the model by more than 3.16E-04" in err.value.message


def test_highs_runs_only_where_the_area_bound_is_not_attained(monkeypatch):
    """A count: the three seed-0 inputs of the ``moldable-pipeline``
    workload (10 x 100, every job's slowest candidate makes a path shorter
    than the least area) are solved without HiGHS, at ``L_LP`` the least
    area; a 20 x 50 input of the same generator, whose slow path is longer,
    reaches HiGHS once, with the tuned options."""
    calls = scripted_highs(monkeypatch, None, None, None, None)
    for i in range(3):
        inst = pipeline_instance(10, 100, [0, i])
        table = inst.candidate_table()
        sol = solve_dtct_lp(inst, table)
        assert sol.lower_bound == math.fsum(es[-1].area for es in table.values())
        assert all(x[-1] == 1.0 == x.sum() for x in sol.fractions.values())
    assert calls == []
    solve_dtct_lp(mixed := pipeline_instance(20, 50, 5), mixed.candidate_table())
    assert [call["options"] for call in calls] == [TUNED]


def test_the_closed_form_never_loads_the_binding():
    """A pipeline run whose LP is solved in closed form leaves HiGHS's
    binding unloaded (fresh interpreter)."""
    code = (
        "import sys, repro\n"
        "inst = repro.make_instance(repro.generators.layered_random(3, 10, seed=0),\n"
        "    repro.ResourcePool.of(8, 8), lambda j: repro.random_multi_resource_time(2, seed=1))\n"
        "assert repro.get_scheduler('ours').schedule(inst).phase1.fractional.lower_bound > 0\n"
        "assert 'scipy.optimize._highspy._core' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_the_private_highs_names_the_adapter_uses_exist():
    """``core/dtct.py::_solve`` drives scipy's private HiGHS bindings, which
    any scipy release may rename or move.  Every name it uses is exercised
    here on a two-column LP, and the extension file is where
    ``_highs_binding`` looks for it, so an upgrade that moves either fails
    this test loudly rather than every LP quietly."""
    import scipy
    from scipy.optimize._highspy import _core

    folder, name = os.path.split(_core.__file__)
    assert folder == os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    assert name in {"_core" + suffix for suffix in EXTENSION_SUFFIXES}
    assert _highs_binding() is _core

    ok = _core.HighsStatus.kOk
    solver = _core._Highs()
    for options in (BASE, TUNED):
        for name, value in options.items():
            assert solver.setOptionValue(name, value) == ok, name
            assert solver.getOptionValue(name) == (ok, value), name
    # minimize x0 + 2 x1 subject to x0 + x1 >= 1 (as -x0 - x1 <= -1), x0 <= 1
    loaded = solver.passModel(
        2, 1, 2, _core.MatrixFormat.kColwise, _core.ObjSense.kMinimize, 0.0,
        np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, np.inf]),
        np.array([-np.inf]), np.array([-1.0]),
        np.array([0, 1, 2], dtype=np.int32), np.zeros(2, dtype=np.int32),
        np.array([-1.0, -1.0]), np.zeros(2, dtype=np.int32),
    )
    assert loaded == ok != _core.HighsStatus.kError  # what a refused model returns
    assert solver.run() == ok
    status = solver.getModelStatus()
    assert status == _core.HighsModelStatus.kOptimal
    assert (status.name, int(status), solver.modelStatusToString(status)) == ("kOptimal", 7, "Optimal")
    solution = solver.getSolution()
    assert list(solution.col_value) == [1.0, 0.0] and list(solution.row_value) == [-1.0]
    assert isinstance(solver.getInfo().simplex_iteration_count, int)
    # every status ``_solve`` maps, kModelError (a refused model) among them
    assert "kModelError" in _STATUS
    assert set(_STATUS) <= set(_core.HighsModelStatus.__members__)


#: Run in a fresh interpreter: a pipeline run, then ``linprog`` and
#: ``milp``, in the order ``argv[1]`` names; exits 0 when all hold.
_FRESH_INTERPRETER = """
import sys
import repro
from repro.core.dtct import _highs_binding
from repro.core.two_phase import moldable_schedule

def pipeline():
    inst = repro.make_instance(
        repro.generators.layered_random(3, 3, seed=0), repro.ResourcePool.of(8, 8),
        lambda j: repro.random_multi_resource_time(2, seed=1),
    )
    assert moldable_schedule(inst).allocator == "lp"

def scipy_solvers():
    from scipy.optimize import LinearConstraint, linprog, milp
    assert linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], method="highs").x.tolist() == [1, 0]
    res = milp([1, 2], constraints=LinearConstraint([[2, 2]], lb=3), integrality=[1, 1])
    assert res.x.tolist() == [2, 0]

if sys.argv[1] == "lp-first":
    pipeline()
    assert "scipy.optimize" not in sys.modules and "scipy.sparse" not in sys.modules
    core = _highs_binding()
    scipy_solvers()
else:
    from scipy.optimize._highspy import _core as core
    scipy_solvers()
    pipeline()
from scipy.optimize._highspy import _core
assert _highs_binding() is core is _core is sys.modules["scipy.optimize._highspy._core"]
"""


@pytest.mark.parametrize("order", ["lp-first", "scipy-first"])
def test_the_lp_loads_the_binding_alone_and_shares_it_with_scipy(order):
    """A pipeline run loads HiGHS's binding without ``scipy.optimize`` or
    ``scipy.sparse`` (a third of its resident memory).  ``linprog`` and
    ``milp`` then work on the same binding object, imported before or after
    the LP's: pybind11 refuses a second copy."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_INTERPRETER, order], env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr


def test_a_missing_binding_names_the_path(tmp_path):
    """No fallback: a scipy without the extension file where scipy keeps it
    is an ``ImportError`` that says where it looked."""
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = (
        "from repro.core.dtct import _highs_binding\n"
        "try:\n    _highs_binding()\n"
        "except ImportError as exc:\n    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), *sys.path]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    path = os.path.join(str(tmp_path), "scipy", "optimize", "_highspy", "_core")
    assert run.stdout.startswith(f"scipy's HiGHS binding is not at {path}")


class TestRounding:
    @pytest.mark.parametrize("rho", [0.1, 0.31, 0.5, 0.9])
    def test_lemma3_guarantees(self, rho):
        inst = tiny_instance(seed=11, d=2, capacity=8)
        table = inst.candidate_table(full_grid)
        p_prime, sol = dtct_allocate(inst, table, rho)
        # Lemma 3: C(p') <= L_LP / rho and A(p') <= L_LP / (1 - rho)
        assert inst.critical_path(p_prime) <= sol.lower_bound / rho * TOL
        assert inst.total_area(p_prime) <= sol.lower_bound / (1.0 - rho) * TOL

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_lemma3_randomized(self, seed, rho, d):
        inst = tiny_instance(seed=seed, d=d, capacity=6)
        table = inst.candidate_table(full_grid)
        p_prime, sol = dtct_allocate(inst, table, rho)
        assert inst.critical_path(p_prime) <= sol.lower_bound / rho * TOL
        assert inst.total_area(p_prime) <= sol.lower_bound / (1.0 - rho) * TOL
        # per-job quantile guarantees
        for j in inst.jobs:
            t = inst.time(j, p_prime[j])
            a = inst.avg_area(j, p_prime[j])
            assert t <= sol.fractional_times[j] / rho * TOL
            assert a <= sol.fractional_areas[j] / (1.0 - rho) * TOL

    def test_rho_extremes_shift_choice(self):
        """Small ρ favors cheap/slow candidates; large ρ favors fast ones."""
        inst = tiny_instance(seed=5, edges=(), n=6)
        table = inst.candidate_table(full_grid)
        slow, _ = dtct_allocate(inst, table, rho=0.05)
        fast, _ = dtct_allocate(inst, table, rho=0.95)
        t_slow = sum(inst.time(j, slow[j]) for j in inst.jobs)
        t_fast = sum(inst.time(j, fast[j]) for j in inst.jobs)
        assert t_fast <= t_slow * TOL

    def test_invalid_rho(self):
        inst = tiny_instance(seed=1)
        table = inst.candidate_table(full_grid)
        sol = solve_dtct_lp(inst, table)
        for rho in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                round_fractional(table, sol, rho)

    @pytest.mark.parametrize("as_dict", [False, True], ids=["columns", "hand-built"])
    def test_matrix_form_is_the_per_job_quantile(self, as_dict):
        """All jobs in one padded matrix against ``searchsorted`` on each
        job's own cumulative sums — the loop this replaced."""
        inst = tiny_instance(seed=11, d=2, capacity=8)
        table = inst.candidate_table(full_grid)
        sol = solve_dtct_lp(inst, table)
        rng = np.random.default_rng(0)
        spread = {j: rng.dirichlet(np.ones(len(x))) for j, x in sol.fractions.items()}
        for fractions in (sol.fractions, spread):
            given_ = FractionalSolution(sol.lower_bound, fractions, {}, {})
            for rho in (0.05, 0.31, 0.5, 0.95):
                expected = {
                    j: table[j][
                        min(int(np.searchsorted(np.cumsum(x), 1.0 - rho - 1e-9)), len(x) - 1)
                    ].alloc
                    for j, x in fractions.items()
                }
                got = round_fractional(dict(table) if as_dict else table, given_, rho)
                assert got == expected and list(got) == list(fractions)
        assert round_fractional(table, FractionalSolution(0.0, {}, {}, {}), 0.5) == {}


class TestRoundingTrustsNothing:
    """``round_fractional`` is public and takes any ``FractionalSolution``.
    Until PR 23 a vector shorter than its job's frontier silently selected a
    candidate, a longer one ended in ``IndexError: list index out of range``
    and a nan vector selected entry 0."""

    @staticmethod
    def rounded(fractions):
        inst = tiny_instance(seed=2)
        table = dict(inst.candidate_table(full_grid))
        table[2] = [
            ProfileEntry(alloc=ResourceVector((k + 1, 1)), time=t, area=a)
            for k, (t, a) in enumerate(TestTableOrder.GOOD)
        ]
        sol = solve_dtct_lp(inst, table)
        sol.fractions[2] = np.array(fractions, dtype=float)
        return round_fractional(table, sol, 0.5)[2]

    def test_a_vector_of_the_frontiers_length_selects_by_quantile(self):
        assert self.rounded([0.0, 1.0, 0.0]) == ResourceVector((2, 1))
        assert self.rounded([0.2, 0.2, 0.6]) == ResourceVector((3, 1))

    @pytest.mark.parametrize("fractions", [[0.0, 1.0], [1.0], [0.0, 0.0, 0.0, 1.0], []])
    def test_a_vector_of_another_length_is_refused(self, fractions):
        with pytest.raises(
            ValueError, match=rf"job 2: {len(fractions)} fractions for 3 candidate allocations"
        ):
            self.rounded(fractions)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_non_finite_vector_is_refused(self, bad):
        with pytest.raises(ValueError, match="job 2: fractions must be finite"):
            self.rounded([0.5, bad, 0.5])
