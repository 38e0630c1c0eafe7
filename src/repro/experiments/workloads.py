"""Workload builders shared by the simulation benchmarks and examples.

:func:`random_instance` assembles a complete :class:`Instance` from a graph
family name, a platform shape and a job-model family, all seeded.  The
families mirror the workloads multi-resource scheduling evaluations use:

==============  ====================================================
family          graph
==============  ====================================================
``independent`` no edges (Section 5.2 / Sun et al. [36] setting)
``chain``       fully sequential
``layered``     layered random DAG
``erdos``       Erdős–Rényi random DAG
``forkjoin``    repeated fork-join stages
``outtree``     random out-tree (Theorem 3-4 class)
``intree``      random in-tree (Theorem 3-4 class)
``sp``          random series-parallel DAG (Theorem 3-4 class)
``cholesky``    tiled Cholesky factorization
``lu``          tiled LU factorization
``stencil``     1-D stencil sweep
==============  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dag import generators
from repro.dag.graph import DAG
from repro.dag.sp import SPNode, random_sp_tree, sp_to_dag, tree_to_sp
from repro.instance.instance import Instance, make_instance
from repro.jobs.speedup import random_multi_resource_time
from repro.resources.pool import ResourcePool
from repro.util.rng import ensure_rng

__all__ = ["WORKLOAD_FAMILIES", "RandomWorkload", "random_instance"]

WORKLOAD_FAMILIES = (
    "independent",
    "chain",
    "layered",
    "erdos",
    "forkjoin",
    "outtree",
    "intree",
    "sp",
    "cholesky",
    "lu",
    "stencil",
)


@dataclass(frozen=True)
class RandomWorkload:
    """A generated instance plus its SP decomposition when one exists."""

    instance: Instance
    sp_tree: SPNode | None
    family: str
    seed: int | None


def _build_dag(family: str, n: int, rng: np.random.Generator) -> tuple[DAG, SPNode | None]:
    if family == "independent":
        return generators.independent(n), None
    if family == "chain":
        return generators.chain(n), None
    if family == "layered":
        width = max(2, int(round(np.sqrt(n))))
        layers = max(2, n // width)
        return generators.layered_random(layers, width, p=0.3, seed=rng), None
    if family == "erdos":
        return generators.erdos_renyi_dag(n, p=min(0.5, 4.0 / max(n, 1)), seed=rng), None
    if family == "forkjoin":
        width = max(2, int(round(np.sqrt(n))))
        stages = max(1, n // (width + 2))
        return generators.fork_join(width, stages), None
    if family == "outtree":
        dag = generators.random_out_tree(n, seed=rng)
        return dag, tree_to_sp(dag, direction="out")
    if family == "intree":
        dag = generators.random_in_tree(n, seed=rng)
        return dag, tree_to_sp(dag, direction="in")
    if family == "sp":
        sp = random_sp_tree(n, seed=rng)
        return sp_to_dag(sp), sp
    if family == "cholesky":
        b = max(2, int(round(n ** (1 / 3) * 1.3)))
        return generators.cholesky_dag(b), None
    if family == "lu":
        b = max(2, int(round(n ** (1 / 3))))
        return generators.lu_dag(b), None
    if family == "stencil":
        width = max(2, int(round(np.sqrt(n))))
        steps = max(2, n // width)
        return generators.stencil_dag(width, steps), None
    raise ValueError(f"unknown workload family {family!r} (know {WORKLOAD_FAMILIES})")


def random_instance(
    family: str,
    n: int,
    pool: ResourcePool,
    seed: int | np.random.Generator | None = None,
    *,
    model: str = "mixed",
    combiner: str = "max",
    work_range: tuple[float, float] = (1.0, 100.0),
) -> RandomWorkload:
    """Build a seeded random workload of the given family.

    ``n`` is the approximate job count (structured families round to their
    natural size); it must be at least 1.  Job execution-time functions are
    drawn by :func:`repro.jobs.speedup.random_multi_resource_time`.
    """
    if n < 1:
        # the families disagree below 1: some build no job, some clamp to
        # their minimal shape, some fail inside numpy
        raise ValueError(f"n must be >= 1, got {n}")
    rng = ensure_rng(seed)
    dag, sp = _build_dag(family, n, rng)
    # one independent child generator per job, spawned in topological order
    # for determinism regardless of dict iteration
    fns = {
        node: random_multi_resource_time(
            pool.d, rng, total_work=work_range, model=model, combiner=combiner
        )
        for node in dag.topological_order()
    }
    inst = make_instance(dag, pool, lambda j: fns[j])
    return RandomWorkload(
        instance=inst,
        sp_tree=sp,
        family=family,
        seed=seed if isinstance(seed, int) else None,
    )
