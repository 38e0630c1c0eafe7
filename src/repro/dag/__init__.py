"""Precedence-constraint DAGs (Section 3.1) and workload graph generators."""

from repro.dag.graph import DAG
from repro.dag.paths import critical_path, critical_path_length, bottom_levels
from repro.dag.sp import SPNode, SPLeaf, SPSeries, SPParallel, sp_to_dag, tree_to_sp, random_sp_tree
from repro.dag import generators

__all__ = [
    "DAG",
    "critical_path",
    "critical_path_length",
    "bottom_levels",
    "SPNode",
    "SPLeaf",
    "SPSeries",
    "SPParallel",
    "sp_to_dag",
    "tree_to_sp",
    "random_sp_tree",
    "generators",
]
