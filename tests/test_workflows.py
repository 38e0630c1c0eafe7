"""Tests for the Pegasus-style scientific workflow generators."""

import networkx as nx
import pytest

from helpers import nx_graph
from repro.dag.workflows import cybershake_dag, epigenomics_dag, ligo_dag, montage_dag


class TestMontage:
    def test_shape(self):
        g = montage_dag(4)
        assert nx.is_directed_acyclic_graph(nx_graph(g))
        # 4 projects + 3 diffs + concat + bgmodel + 4 backgrounds + 4 tail
        assert len(g) == 4 + 3 + 1 + 1 + 4 + 4
        assert g.sources() == [("mProject", i) for i in range(4)]
        assert g.sinks() == [("mJPEG", 0)]

    def test_diff_depends_on_pair(self):
        g = montage_dag(3)
        assert sorted(g.predecessors(("mDiffFit", 0))) == [("mProject", 0), ("mProject", 1)]

    def test_background_needs_model_and_projection(self):
        g = montage_dag(3)
        preds = set(g.predecessors(("mBackground", 2)))
        assert ("mBgModel", 0) in preds
        assert ("mProject", 2) in preds

    def test_min_size(self):
        with pytest.raises(ValueError):
            montage_dag(1)


class TestCyberShake:
    def test_shape(self):
        g = cybershake_dag(6)
        assert nx.is_directed_acyclic_graph(nx_graph(g))
        assert len(g) == 2 + 6 + 6 + 2
        assert set(g.sources()) == {("ExtractSGT", 0), ("ExtractSGT", 1)}
        assert set(g.sinks()) == {("ZipSeis", 0), ("ZipPSA", 0)}

    def test_zip_collects_everything(self):
        g = cybershake_dag(5)
        assert g.in_degree(("ZipSeis", 0)) == 5
        assert g.in_degree(("ZipPSA", 0)) == 5

    def test_bad_args(self):
        with pytest.raises(ValueError):
            cybershake_dag(0)


class TestEpigenomics:
    def test_shape(self):
        lanes, width = 2, 3
        g = epigenomics_dag(lanes, width)
        assert nx.is_directed_acyclic_graph(nx_graph(g))
        # per lane: split + 4*width chain + merge; global: 3 tail jobs
        assert len(g) == lanes * (1 + 4 * width + 1) + 3
        assert g.sinks() == [("pileup", 0)]
        assert len(g.sources()) == lanes

    def test_chain_structure(self):
        g = epigenomics_dag(1, 2)
        assert g.has_edge(("filterContams", 0, 0), ("sol2sanger", 0, 0))
        assert g.has_edge(("map", 0, 1), ("mapMerge", 0))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            epigenomics_dag(0, 1)


class TestLigo:
    def test_shape(self):
        g = ligo_dag(6, group=3)
        assert nx.is_directed_acyclic_graph(nx_graph(g))
        # 6 each of TmpltBank/Inspiral/TrigBank/Inspiral2 + 2 Thinca + 2 Thinca2
        assert len(g) == 4 * 6 + 2 + 2
        assert len(g.sources()) == 6

    def test_group_aggregation(self):
        g = ligo_dag(5, group=2)
        # groups: {0,1}, {2,3}, {4}
        assert g.in_degree(("Thinca", 0)) == 2
        assert g.in_degree(("Thinca", 2)) == 1
        assert g.has_edge(("Thinca", 1), ("TrigBank", 3))

    def test_usable_as_instance(self):
        from repro.instance.instance import make_instance
        from repro.jobs.speedup import random_multi_resource_time
        from repro.resources.pool import ResourcePool

        pool = ResourcePool.uniform(2, 8)
        g = ligo_dag(4)
        fns = {j: random_multi_resource_time(2, seed=i)
               for i, j in enumerate(g.topological_order())}
        inst = make_instance(g, pool, lambda j: fns[j])
        from repro.core.two_phase import MoldableScheduler

        res = MoldableScheduler().schedule(inst)
        res.schedule.validate()
        assert res.makespan <= res.proven_ratio * res.lower_bound * (1 + 1e-6)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            ligo_dag(0)
