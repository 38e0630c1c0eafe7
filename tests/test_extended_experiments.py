"""Tests for the extension benchmarks' rows: capacity, epsilon, candidate
strategy and true-ratio studies, each as its registered spec computes it."""

from helpers import bench_table
from repro.bench.registry import get_benchmark


class TestCapacitySweep:
    def test_shape_and_precondition_flags(self):
        rows = bench_table("capacity_sweep").rows
        assert [r["capacity"] for r in rows] == [2, 4, 7, 16, 32]
        assert [r["pmin_precondition"] for r in rows] == [False, False, True, True, True]
        for r in rows:
            assert r["mean_ratio"] >= 1.0 - 1e-9

    def test_bound_holds_when_precondition_met(self):
        rows = [r for r in bench_table("capacity_sweep").rows if r["pmin_precondition"]]
        assert rows
        for r in rows:
            assert r["max_ratio"] <= r["proven"] + 1e-9


class TestEpsilonSweep:
    def test_quality_improves_with_epsilon(self):
        rows = bench_table("epsilon_sweep").rows
        assert [r["epsilon"] for r in rows] == [1.0, 0.5, 0.25]
        # the tightest epsilon gives an at-least-as-good allocation value
        assert rows[-1]["l_over_lp"] <= rows[0]["l_over_lp"] * (1 + 1e-9)
        for r in rows:
            assert r["l_over_lp"] >= 1.0 - 1e-6
        # the cost column is the DP's width, not wall-clock: tighter is wider
        levels = [r["mean_budget_levels"] for r in rows]
        assert 0 < levels[0] < levels[1] < levels[2]
        assert get_benchmark("epsilon_sweep").fn()[0].rows == rows


class TestStrategySweep:
    def test_frontier_sizes_ordered(self):
        rows = bench_table("strategy_sweep").rows
        by_name = {r["strategy"]: r for r in rows}
        # the full grid's Pareto frontier is the superset frontier: at least
        # as large as any sub-grid's (diagonal keeps more of its candidates
        # than geometric because its points are nearly collinear in (t, a))
        assert by_name["full"]["mean_frontier_size"] >= by_name["geometric"]["mean_frontier_size"]
        assert by_name["full"]["mean_frontier_size"] >= by_name["diagonal"]["mean_frontier_size"]
        # quality and LP size only: nothing host-dependent in the rows
        assert set(rows[0]) == {"strategy", "mean_makespan", "mean_frontier_size"}

    def test_full_grid_not_worse(self):
        by_name = {r["strategy"]: r for r in bench_table("strategy_sweep").rows}
        # richer candidate sets can only help the LP allocation (stochastic
        # list scheduling adds noise, so allow 10% slack)
        assert by_name["full"]["mean_makespan"] <= by_name["diagonal"]["mean_makespan"] * 1.10


class TestTrueRatioStudy:
    def test_true_ratios_bounded(self):
        for r in bench_table("true_ratio").rows:
            assert 1.0 - 1e-9 <= r["mean_true_ratio"] <= r["proven"]
            # ratio vs LB over-estimates ratio vs T_opt
            assert r["mean_lb_ratio"] >= r["mean_true_ratio"] - 1e-9
