"""The malleable job model of He et al. [21, 20] (related-work comparison).

The paper positions moldable scheduling between two related models:

* **rigid** jobs (Garey-Graham [16]): fixed allocations — representable here
  by pinning a single candidate per job;
* **malleable** jobs (He et al. [21]): each job is a DAG of *unit-size
  tasks*, each requesting one unit of a single resource type, and the
  amount of resource a job uses may change at every time step.  List
  scheduling achieves (d+1)-approximation in that model.

This subpackage implements the malleable model faithfully (task-level
DAGs, greedy time-stepped list scheduling, the (d+1) bound) and provides a
*moldable → malleable relaxation* so the two schedulers can be compared on
the same workloads: each moldable job unrolls into ``⌈work⌉`` unit tasks
per resource type it uses, preserving total work and precedence while
discarding the moldable model's allocation rigidity.  The relaxation's
makespan is therefore an (often optimistic) reference point — malleability
is strictly more powerful — quantifying what the moldable restriction
costs (see the registered ``malleable`` benchmark).
"""

from repro.malleable.model import MalleableJob, MalleableInstance, moldable_to_malleable
from repro.malleable.scheduler import malleable_list_schedule, MalleableSchedule

__all__ = [
    "MalleableJob",
    "MalleableInstance",
    "moldable_to_malleable",
    "malleable_list_schedule",
    "MalleableSchedule",
]
