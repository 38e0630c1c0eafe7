"""repro — reproduction of "Multi-Resource List Scheduling of Moldable
Parallel Jobs under Precedence Constraints" (Perotin, Sun, Raghavan,
ICPP 2021; arXiv:2106.07059).

Quick start::

    from repro import (
        ResourcePool, MoldableScheduler, make_instance,
        generators, random_multi_resource_time,
    )

    pool = ResourcePool.of(32, 16, names=("cores", "memory"))
    dag = generators.layered_random(layers=4, width=5, p=0.3, seed=0)
    inst = make_instance(
        dag, pool,
        lambda j: random_multi_resource_time(pool.d, seed=hash(j) % 2**32),
    )
    result = MoldableScheduler().schedule(inst)
    print(result.makespan, result.ratio(), "<=", result.proven_ratio)
"""

from repro.resources import ResourceVector, ResourcePool
from repro.dag import DAG, generators
from repro.dag.sp import SPNode, SPLeaf, SPSeries, SPParallel, sp_to_dag, tree_to_sp, random_sp_tree
from repro.jobs import (
    Job,
    MultiResourceTime,
    random_multi_resource_time,
    TabulatedTimeFunction,
)
from repro.jobs.candidates import full_grid, geometric_grid, diagonal_grid, make_candidates
from repro.instance import Instance, make_instance
from repro.instance.instance import with_poisson_arrivals, with_release_times
from repro.registry import available_schedulers, get_scheduler, register_scheduler
from repro.core import (
    MoldableScheduler,
    ScheduleResult,
    allocate_resources,
    list_schedule,
    optimal_independent_allocation,
    sp_fptas_allocation,
    lp_lower_bound,
    theory,
)
from repro.sim import Schedule, classify_intervals, ascii_gantt

__version__ = "1.0.0"

__all__ = [
    "ResourceVector",
    "ResourcePool",
    "DAG",
    "generators",
    "SPNode",
    "SPLeaf",
    "SPSeries",
    "SPParallel",
    "sp_to_dag",
    "tree_to_sp",
    "random_sp_tree",
    "Job",
    "MultiResourceTime",
    "random_multi_resource_time",
    "TabulatedTimeFunction",
    "full_grid",
    "geometric_grid",
    "diagonal_grid",
    "make_candidates",
    "Instance",
    "make_instance",
    "with_release_times",
    "with_poisson_arrivals",
    "get_scheduler",
    "register_scheduler",
    "available_schedulers",
    "MoldableScheduler",
    "ScheduleResult",
    "allocate_resources",
    "list_schedule",
    "optimal_independent_allocation",
    "sp_fptas_allocation",
    "lp_lower_bound",
    "theory",
    "Schedule",
    "classify_intervals",
    "ascii_gantt",
]
