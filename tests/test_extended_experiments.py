"""Tests for the extended experiment sweeps."""


from repro.experiments.extended import (
    capacity_sweep,
    epsilon_sweep,
    strategy_sweep,
    true_ratio_study,
)


class TestCapacitySweep:
    def test_shape_and_precondition_flags(self):
        rows = capacity_sweep(d=2, capacities=(4, 16), n=8, seeds=(0,))
        assert [r["capacity"] for r in rows] == [4, 16]
        assert rows[0]["pmin_precondition"] is False
        assert rows[1]["pmin_precondition"] is True
        for r in rows:
            assert r["mean_ratio"] >= 1.0 - 1e-9

    def test_bound_holds_when_precondition_met(self):
        rows = capacity_sweep(d=2, capacities=(16,), n=10, seeds=(0, 1))
        assert rows[0]["max_ratio"] <= rows[0]["proven"] + 1e-9


class TestEpsilonSweep:
    def test_quality_improves_with_epsilon(self):
        rows = epsilon_sweep(epsilons=(1.0, 0.2), n=8, seeds=(0,))
        assert rows[0]["epsilon"] == 1.0
        # tighter epsilon gives at-least-as-good allocation value
        assert rows[1]["l_over_lp"] <= rows[0]["l_over_lp"] * (1 + 1e-9)
        for r in rows:
            assert r["l_over_lp"] >= 1.0 - 1e-6
        # the cost column is the DP's width, not wall-clock: tighter is wider
        assert 0 < rows[0]["mean_budget_levels"] < rows[1]["mean_budget_levels"]
        assert epsilon_sweep(epsilons=(1.0, 0.2), n=8, seeds=(0,)) == rows


class TestStrategySweep:
    def test_frontier_sizes_ordered(self):
        rows = strategy_sweep(d=2, capacity=16, n=8, seeds=(0,))
        by_name = {r["strategy"]: r for r in rows}
        # the full grid's Pareto frontier is the superset frontier: at least
        # as large as any sub-grid's (diagonal keeps more of its candidates
        # than geometric because its points are nearly collinear in (t, a))
        assert by_name["full"]["mean_frontier_size"] >= by_name["geometric"]["mean_frontier_size"]
        assert by_name["full"]["mean_frontier_size"] >= by_name["diagonal"]["mean_frontier_size"]
        # quality and LP size only: nothing host-dependent in the rows
        assert set(rows[0]) == {"strategy", "mean_makespan", "mean_frontier_size"}

    def test_full_grid_not_worse(self):
        rows = strategy_sweep(d=2, capacity=8, n=8, seeds=(0, 1))
        by_name = {r["strategy"]: r for r in rows}
        # richer candidate sets can only help the LP allocation (stochastic
        # list scheduling adds noise, so allow 10% slack)
        assert by_name["full"]["mean_makespan"] <= by_name["diagonal"]["mean_makespan"] * 1.10


class TestTrueRatioStudy:
    def test_true_ratios_bounded(self):
        rows = true_ratio_study(d_values=(1,), n=4, capacity=3, seeds=(0, 1))
        r = rows[0]
        assert 1.0 - 1e-9 <= r["mean_true_ratio"] <= r["proven"]
        # ratio vs LB over-estimates ratio vs T_opt
        assert r["mean_lb_ratio"] >= r["mean_true_ratio"] - 1e-9
