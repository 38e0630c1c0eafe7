"""Tests for the experiment library (report, workloads, the Theorem 6
sweep), Table 1's rows and the paper benchmarks' result rows."""

import pytest

from helpers import bench_table
from repro.core import theory
from repro.experiments.lb_instance import theorem6_sweep
from repro.experiments.report import format_table, format_value
from repro.experiments.workloads import WORKLOAD_FAMILIES, random_instance
from repro.resources.pool import ResourcePool


class TestReport:
    def test_format_value(self):
        assert format_value(3.14159, 3) == "3.142"
        assert format_value(4.0) == "4"
        assert format_value(True) == "yes"
        assert format_value("x") == "x"

    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 3.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len({len(l) for l in lines[1:]}) == 1  # all rows aligned


class TestFigure1:
    def test_table_contents(self):
        """The registered ``figure1`` benchmark renders the one Figure 1
        table, straight from ``theory.figure1_rows``."""
        from repro.bench.registry import get_benchmark
        from repro.bench.runner import run_spec
        from repro.bench.schema import render_table

        out = render_table(run_spec(get_benchmark("figure1"))["table"])
        assert out.startswith("Figure 1: approximation ratios for 22 <= d <= 50")
        assert out.count("\n") == 2 + 29  # title + header + sep + 29 rows
        # first data row is d=22
        assert out.splitlines()[3].strip().startswith("22")


class TestTable1:
    def test_rows_cover_classes(self):
        rows = [r for r in theory.table1_rows() if r["d"] == 3]
        classes = {r["precedence"] for r in rows}
        assert classes == {"general", "sp/tree", "independent"}

    def test_large_d_adds_theorem2_and_4(self):
        rows = theory.table1_rows()
        formulas = [r["formula"] for r in rows if r["d"] == 22]
        assert any("O(d^(1/3))" in f for f in formulas)
        assert any("sqrt(d-1)" in f for f in formulas)
        # each theorem joins at its own threshold, not below it
        assert all(r["d"] >= 22 for r in rows if "O(d^(1/3))" in r["formula"])
        assert all(r["d"] >= 4 for r in rows if "sqrt(d-1)" in r["formula"])

    def test_text_renders(self):
        out = bench_table("table1").preamble
        assert out.startswith("Table 1")
        assert "independent" in out

    def test_empirical_rows_within_bounds(self):
        rows = bench_table("table1").rows
        assert [(r["precedence"], r["d"]) for r in rows] == [
            (cls, d) for d in (1, 2, 3) for cls in ("general", "sp/tree", "independent")
        ]
        for row in rows:
            assert row["within_bound"], row


class TestWorkloads:
    @pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
    def test_all_families_build(self, family):
        pool = ResourcePool.uniform(2, 8)
        wl = random_instance(family, 12, pool, seed=0)
        assert wl.instance.n >= 2
        wl.instance.dag.validate()
        if family in ("outtree", "intree", "sp"):
            assert wl.sp_tree is not None
            assert set(wl.sp_tree.leaves()) == set(wl.instance.jobs)
        else:
            assert wl.sp_tree is None

    @pytest.mark.parametrize("n", (0, -1))
    @pytest.mark.parametrize("family", WORKLOAD_FAMILIES)
    def test_n_below_one_is_refused(self, family, n):
        """Every family refuses alike, before any generator runs."""
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            random_instance(family, n, ResourcePool.uniform(2, 8), seed=0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            random_instance("nope", 5, ResourcePool.of(4), seed=0)

    def test_deterministic(self):
        pool = ResourcePool.uniform(2, 8)
        a = random_instance("layered", 12, pool, seed=5)
        b = random_instance("layered", 12, pool, seed=5)
        assert a.instance.times({j: pool.capacities for j in a.instance.jobs}) == \
            b.instance.times({j: pool.capacities for j in b.instance.jobs})


class TestSweeps:
    def test_theorem6_sweep_matches_theory(self):
        rows = theorem6_sweep(d_values=(2, 3), m_values=(6,))
        for r in rows:
            assert r["measured_ratio"] == pytest.approx(r["closed_form_ratio"])
            assert r["measured_ratio"] < r["theorem6_bound"]

    def test_sim_independent_shape(self):
        for r in bench_table("sim_independent").rows:
            assert r["ours"] <= r["proven_ours"] + 1e-9
            assert r["sun_list"] <= r["proven_sun_list"] + 1e-9

    def test_ablation_mu_rho_shape(self):
        rows = bench_table("ablation_mu_rho").rows
        assert len(rows) == 16
        assert all(r["mean_ratio"] >= 1.0 - 1e-9 for r in rows)

    def test_ablation_priority_shape(self):
        rows = bench_table("ablation_priority").rows
        assert [r["family"] for r in rows] == ["layered", "cholesky"]
        for row in rows:
            for key in ("fifo", "lpt", "spt", "random", "bottom_level"):
                assert row[key] >= 1.0 - 1e-9
