"""The Theorem 6 / Figure 2 lower-bound instance family.

Construction (reconstructed from the properties stated in the paper — see
DESIGN.md): ``d`` resource types with capacity ``P^(i) = 2`` each and, per
type ``i``:

* one *release* job ``("r", i)`` — unit time, one unit of type ``i``;
* ``2M − 1`` *bulk* jobs ``("b", i, k)`` — identical to the release job;
* every type-``i`` job (``i >= 1``) is a child of ``("r", i-1)``.

The precedence graph is a forest (every node has at most one parent) of
``n = 2Md`` unit jobs, each using a single resource type — exactly the
stated shape of Figure 2.

* A *graph-aware* priority (release jobs first) pipelines the types:
  ``r_i`` completes at time ``i+1``, each type's bulk saturates its two
  units, and the makespan is exactly ``T_opt = M + d − 1``.
* A *local* priority cannot tell release from bulk jobs; the adversarial
  tie-break (bulk first) delays ``r_i`` to the very end of type ``i``'s
  bulk, serializing the types: makespan exactly ``M·d``.

Hence ``T/T_opt = Md/(M + d − 1) → d``, matching Theorem 6 (the paper's own
worst case is ``M(d−1) + 4M/3``; same asymptotics, slightly different
constant — see the reconstruction note in DESIGN.md).
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.list_scheduler import PriorityRule, explicit_priority, list_schedule
from repro.dag.graph import DAG
from repro.instance.instance import Instance
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

__all__ = [
    "lower_bound_instance",
    "adversarial_priority",
    "informed_priority",
    "theoretical_makespans",
    "theorem6_sweep",
]

JobId = Hashable


def _unit_time(_: ResourceVector) -> float:
    return 1.0


def lower_bound_instance(d: int, m: int) -> Instance:
    """Build the instance for ``d`` resource types and parameter ``M = m``.

    ``m`` should be a positive multiple of 3 to mirror the paper's setup
    (any positive integer works for our construction).
    """
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and M >= 1")
    pool = ResourcePool.uniform(d, 2)
    jobs: dict[JobId, Job] = {}
    edges: list[tuple[JobId, JobId]] = []
    for i in range(d):
        alloc = ResourceVector.unit(d, i)
        level = [("r", i)] + [("b", i, k) for k in range(2 * m - 1)]
        for job_id in level:
            jobs[job_id] = Job(id=job_id, time_fn=_unit_time, candidates=(alloc,))
        if i >= 1:
            edges += [(("r", i - 1), job_id) for job_id in level]
    return Instance(jobs=jobs, dag=DAG(jobs, edges), pool=pool)


def adversarial_priority(instance: Instance) -> PriorityRule:
    """The worst-case *local* tie-break: bulk jobs before release jobs.

    Local in the Theorem 6 sense: the key depends only on the job's own
    attributes (its kind), never on its position in the graph — a scheduler
    that cannot distinguish identical-looking jobs can be forced into
    exactly this order.
    """
    keys = {j: (0 if j[0] == "b" else 1) for j in instance.jobs}
    return explicit_priority(keys)


def informed_priority(instance: Instance) -> PriorityRule:
    """The graph-aware tie-break (release jobs first) achieving ``T_opt``."""
    keys = {j: (0 if j[0] == "r" else 1) for j in instance.jobs}
    return explicit_priority(keys)


def theoretical_makespans(d: int, m: int) -> dict[str, float]:
    """Closed-form makespans of the two orders on this family."""
    return {
        "optimal": float(m + d - 1),
        "adversarial": float(m * d),
        "ratio": (m * d) / (m + d - 1),
        "theorem6_bound": float(d),
    }


def theorem6_sweep(d_values: Sequence[int], m_values: Sequence[int]) -> list[dict]:
    """Figure 2 / Theorem 6: measured adversarial vs. informed makespans.

    Asserts nothing itself; the benchmark asserts the measured values match
    the closed forms and that the ratio approaches ``d``.
    """
    rows: list[dict] = []
    for d in d_values:
        for m in m_values:
            inst = lower_bound_instance(d, m)
            s_adv = list_schedule(inst, {j: inst.jobs[j].candidates[0] for j in inst.jobs},
                                  adversarial_priority(inst))
            s_opt = list_schedule(inst, {j: inst.jobs[j].candidates[0] for j in inst.jobs},
                                  informed_priority(inst))
            s_adv.validate()
            s_opt.validate()
            theo = theoretical_makespans(d, m)
            rows.append(
                {
                    "d": d,
                    "M": m,
                    "T_adversarial": s_adv.makespan,
                    "T_informed": s_opt.makespan,
                    "measured_ratio": s_adv.makespan / s_opt.makespan,
                    "closed_form_ratio": theo["ratio"],
                    "theorem6_bound": theo["theorem6_bound"],
                }
            )
    return rows
