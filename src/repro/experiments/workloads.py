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

:func:`workflow_instance` builds the Pegasus-shaped workflows
(:data:`WORKFLOWS`) with stage-specific profiles, and
:func:`perturbed_instance` copies an instance with estimation noise on
its time functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.dag import generators
from repro.dag.graph import DAG
from repro.dag.sp import SPNode, random_sp_tree, sp_to_dag, tree_to_sp
from repro.dag.workflows import cybershake_dag, epigenomics_dag, ligo_dag, montage_dag
from repro.instance.instance import Instance, make_instance
from repro.jobs.job import Job
from repro.jobs.speedup import (
    AmdahlSpeedup,
    MultiResourceTime,
    RooflineSpeedup,
    random_multi_resource_time,
)
from repro.resources.pool import ResourcePool
from repro.util.rng import ensure_rng

__all__ = [
    "WORKLOAD_FAMILIES",
    "RandomWorkload",
    "random_instance",
    "WORKFLOWS",
    "workflow_instance",
    "perturbed_instance",
]

JobId = Hashable

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


#: stage profile: (work scale, sequential fraction, io cap) — parallel
#: stages have low alpha, I/O-heavy stages a low roofline cap on type 1.
#: Mirrors the published per-stage characterizations: e.g. Montage's
#: `mProject` is embarrassingly parallel, `mConcatFit`/`mBgModel` are
#: sequential bottlenecks, `mAdd` is I/O-bound.
_STAGE_PROFILES: dict[str, tuple[float, float, float]] = {
    # montage
    "mProject": (20.0, 0.02, 8.0),
    "mDiffFit": (6.0, 0.10, 6.0),
    "mConcatFit": (4.0, 0.70, 2.0),
    "mBgModel": (6.0, 0.80, 2.0),
    "mBackground": (8.0, 0.05, 6.0),
    "mImgtbl": (2.0, 0.60, 2.0),
    "mAdd": (14.0, 0.30, 1.5),
    "mShrink": (3.0, 0.20, 3.0),
    "mJPEG": (2.0, 0.50, 2.0),
    # cybershake
    "ExtractSGT": (12.0, 0.15, 2.0),
    "SeismogramSynthesis": (25.0, 0.03, 6.0),
    "PeakValCalc": (2.0, 0.30, 4.0),
    "ZipSeis": (4.0, 0.60, 1.5),
    "ZipPSA": (4.0, 0.60, 1.5),
    # epigenomics
    "fastqSplit": (3.0, 0.50, 2.0),
    "filterContams": (6.0, 0.05, 6.0),
    "sol2sanger": (4.0, 0.10, 6.0),
    "fastq2bfq": (4.0, 0.10, 6.0),
    "map": (30.0, 0.02, 8.0),
    "mapMerge": (5.0, 0.50, 2.0),
    "mapMergeGlobal": (8.0, 0.60, 1.5),
    "maqIndex": (5.0, 0.40, 2.0),
    "pileup": (6.0, 0.30, 3.0),
    # ligo
    "TmpltBank": (15.0, 0.04, 6.0),
    "Inspiral": (35.0, 0.02, 8.0),
    "Thinca": (3.0, 0.60, 2.0),
    "TrigBank": (2.0, 0.40, 3.0),
    "Inspiral2": (20.0, 0.03, 8.0),
    "Thinca2": (3.0, 0.60, 2.0),
}

#: name -> DAG builder at the study's default scale
WORKFLOWS: dict[str, Callable[[], DAG]] = {
    "montage": lambda: montage_dag(8),
    "cybershake": lambda: cybershake_dag(10),
    "epigenomics": lambda: epigenomics_dag(2, 3),
    "ligo": lambda: ligo_dag(9, group=3),
}


def _stage_time_fn(stage: str, d: int) -> MultiResourceTime:
    work, alpha, io_cap = _STAGE_PROFILES[stage]
    works = [work] + [work * 0.5] * (d - 1)
    speedups: list = [AmdahlSpeedup(alpha)] + [RooflineSpeedup(io_cap)] * (d - 1)
    return MultiResourceTime(works=tuple(works), speedups=tuple(speedups), combiner="max")


def workflow_instance(name: str, pool: ResourcePool) -> Instance:
    """Build the named workflow instance with stage-specific profiles."""
    if name not in WORKFLOWS:
        raise ValueError(f"unknown workflow {name!r} (know {sorted(WORKFLOWS)})")
    dag = WORKFLOWS[name]()
    return make_instance(dag, pool, lambda job: _stage_time_fn(job[0], pool.d))


def perturbed_instance(instance: Instance, rel_noise: float, seed: int = 0) -> Instance:
    """A copy of ``instance`` whose time functions carry estimation noise.

    Shares the DAG and pool; each job's function is wrapped by
    :func:`repro.jobs.builders.perturbed_time_fn` with a per-job sub-seed.
    """
    # not at module level: the CLI imports this module, and builders pulls
    # in hashlib, a few ms on every `repro` start-up
    from repro.jobs.builders import perturbed_time_fn

    jobs: dict[JobId, Job] = {}
    for i, (jid, job) in enumerate(sorted(instance.jobs.items(), key=lambda kv: repr(kv[0]))):
        jobs[jid] = Job(
            id=jid,
            time_fn=perturbed_time_fn(job.time_fn, rel_noise, seed=seed * 1_000_003 + i),
            candidates=job.candidates,
            name=job.name,
        )
    return Instance(jobs=jobs, dag=instance.dag.copy(), pool=instance.pool)
