"""The scheduling problem instance and the quantities of Definitions 1-2.

An :class:`Instance` bundles the moldable jobs, their precedence DAG and the
platform pool, and evaluates the paper's allocation functionals:

* per job (Definition 1): work ``w_j^(i)(p) = p^(i) t_j(p)``, area
  ``a_j^(i) = w_j^(i)/P^(i)``, average area ``a_j = (1/d) Σ_i a_j^(i)``;
* per allocation decision (Definition 2): total area ``A(p)``, critical
  path ``C(p)``, and the lower-bound functional ``L(p) = max(A(p), C(p))``.

It also owns the cached per-job candidate tables (Pareto-filtered per
Eq. (2)), shared by Phase 1, the FPTAS and the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping

from repro.dag.graph import DAG
from repro.dag.paths import critical_path_length
from repro.jobs.candidates import CandidateStrategy, geometric_grid
from repro.jobs.job import Job
from repro.jobs.profiles import CandidateTable
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

__all__ = [
    "Instance",
    "AllocationMap",
    "make_instance",
    "with_release_times",
    "with_poisson_arrivals",
]

JobId = Hashable
AllocationMap = Mapping[JobId, ResourceVector]


@dataclass
class Instance:
    """A multi-resource moldable scheduling instance.

    Attributes
    ----------
    jobs:
        Mapping job id → :class:`~repro.jobs.job.Job`.
    dag:
        Precedence constraints over exactly the job ids.
    pool:
        The platform (``d`` resource types with capacities).
    """

    jobs: dict[JobId, Job]
    dag: DAG
    pool: ResourcePool
    _candidate_cache: dict[CandidateStrategy, CandidateTable] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: array-native lowering (see :mod:`repro.instance.compiled`); built on
    #: first use by :func:`~repro.instance.compiled.compile_instance`.
    _compiled: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        dag_nodes = set(self.dag.nodes())
        job_ids = set(self.jobs)
        if dag_nodes != job_ids:
            missing = job_ids - dag_nodes
            extra = dag_nodes - job_ids
            raise ValueError(
                f"DAG nodes must match job ids (missing from DAG: {sorted(map(repr, missing))[:5]}, "
                f"unknown in DAG: {sorted(map(repr, extra))[:5]})"
            )
        self.dag.validate()

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of jobs."""
        return len(self.jobs)

    @property
    def d(self) -> int:
        """Number of resource types."""
        return self.pool.d

    def time(self, job_id: JobId, alloc: ResourceVector) -> float:
        """``t_j(p_j)``."""
        return self.jobs[job_id].time(alloc)

    def compiled(self):
        """The cached array-native lowering of this instance.

        See :mod:`repro.instance.compiled`; equivalent to
        ``compile_instance(self)``.
        """
        from repro.instance.compiled import compile_instance

        return compile_instance(self)

    # ------------------------------------------------------------------
    # release times (online-arrival scenarios)
    # ------------------------------------------------------------------
    def release_times(self) -> dict[JobId, float]:
        """Per-job release (arrival) times; all 0.0 in the offline model."""
        return {j: job.release for j, job in self.jobs.items()}

    @property
    def has_releases(self) -> bool:
        """True when any job arrives after time 0 (online scenario)."""
        return any(job.release > 0.0 for job in self.jobs.values())

    # ------------------------------------------------------------------
    # Definition 1
    # ------------------------------------------------------------------
    def work(self, job_id: JobId, alloc: ResourceVector, rtype: int) -> float:
        """``w_j^(i)(p) = p^(i) · t_j(p)``."""
        return alloc[rtype] * self.time(job_id, alloc)

    def area(self, job_id: JobId, alloc: ResourceVector, rtype: int) -> float:
        """``a_j^(i)(p) = w_j^(i)(p) / P^(i)``."""
        return self.work(job_id, alloc, rtype) / self.pool.capacities[rtype]

    def avg_area(self, job_id: JobId, alloc: ResourceVector) -> float:
        """``a_j(p) = (1/d) Σ_i a_j^(i)(p)`` — the DTCT cost of the allocation."""
        t = self.time(job_id, alloc)
        caps = self.pool.capacities
        return t * sum(alloc[i] / caps[i] for i in range(self.d)) / self.d

    # ------------------------------------------------------------------
    # Definition 2
    # ------------------------------------------------------------------
    def times(self, allocation: AllocationMap) -> dict[JobId, float]:
        """Per-job execution times under ``allocation``."""
        return {j: self.time(j, allocation[j]) for j in self.jobs}

    def total_area(self, allocation: AllocationMap) -> float:
        """``A(p) = Σ_j a_j(p_j)`` — average total area over resource types."""
        return sum(self.avg_area(j, allocation[j]) for j in self.jobs)

    def critical_path(self, allocation: AllocationMap) -> float:
        """``C(p)`` — longest total execution time along a precedence path."""
        return critical_path_length(self.dag, self.times(allocation))

    def lower_bound_functional(self, allocation: AllocationMap) -> float:
        """``L(p) = max(A(p), C(p))`` (Definition 2); ``min_p L(p) <= T_opt``."""
        return max(self.total_area(allocation), self.critical_path(allocation))

    # ------------------------------------------------------------------
    # candidate tables (Eq. (2) applied)
    # ------------------------------------------------------------------
    def candidate_table(self, strategy: CandidateStrategy | None = None) -> CandidateTable:
        """Per-job non-dominated candidate frontiers, cached per strategy.

        The result is a :class:`~repro.jobs.profiles.CandidateTable`: a
        ``Mapping`` from job id (in ``self.jobs`` order) to that job's
        frontier — a sequence of :class:`~repro.jobs.profiles.ProfileEntry`
        sorted by strictly increasing time / strictly decreasing average area
        (see :func:`repro.jobs.profiles.pareto_rows`) — held as flat
        ``times``/``areas``/``rows`` columns.  Phase 1 reads the columns;
        entry objects are built per job, the first time a caller indexes or
        iterates that job's frontier (``len`` builds nothing).  All jobs are
        evaluated by one batched kernel, :func:`repro.jobs.vectorized.candidate_columns`:
        ``strategy(pool)`` is enumerated, validated and lowered once for all
        jobs without pinned candidates, a pinned list once per distinct list.
        """
        strategy = strategy if strategy is not None else geometric_grid
        # keyed on the strategy itself, which the cache thereby keeps alive:
        # the id() of a strategy built inline is reused once it is freed
        cached = self._candidate_cache.get(strategy)
        if cached is None:
            from repro.jobs.vectorized import candidate_columns

            cached = self._candidate_cache[strategy] = candidate_columns(
                self.jobs, self.pool, strategy
            )
        return cached

    def validate_allocation_map(self, allocation: AllocationMap):
        """Check that ``allocation`` covers every job and fits the pool.

        The check is one whole-matrix comparison over the compiled order;
        any failure re-runs the per-job loop so error messages (missing
        job, dimension mismatch, over-capacity, zero allocation) stay
        exactly as before.

        Returns the validated ``(n, d)`` allocation matrix in topological
        order when the vectorized path ran (``None`` after the fallback
        loop) — the dispatch drivers reuse it instead of lowering the
        allocation a second time.
        """
        try:
            ci = self.compiled()
            m = ci.alloc_matrix(allocation)  # refuses a row of the wrong length
            if bool(
                ((0 <= m) & (m <= ci.capacities)).all()
                and (m.sum(axis=1) > 0).all()
            ):
                return m
        except (KeyError, TypeError, ValueError):
            pass
        for j in self.jobs:
            if j not in allocation:
                raise ValueError(f"allocation missing job {j!r}")
            self.pool.validate_allocation(allocation[j])
        return None


def make_instance(
    dag: DAG,
    pool: ResourcePool,
    time_fn_factory: Callable[[JobId], Callable[[ResourceVector], float]],
    *,
    candidates_factory: Callable[[JobId], tuple[ResourceVector, ...] | None] | None = None,
) -> Instance:
    """Build an :class:`Instance` from a DAG by instantiating one job per node.

    ``time_fn_factory(job_id)`` returns the execution-time function;
    ``candidates_factory`` optionally pins per-job candidate allocations.
    """
    jobs: dict[JobId, Job] = {}
    for node in dag.nodes():
        cands = candidates_factory(node) if candidates_factory else None
        jobs[node] = Job(id=node, time_fn=time_fn_factory(node), candidates=cands)
    return Instance(jobs=jobs, dag=dag, pool=pool)


def with_release_times(instance: Instance, releases: Mapping[JobId, float]) -> Instance:
    """A copy of ``instance`` whose jobs carry the given release times.

    Jobs absent from ``releases`` keep their current release.  The DAG and
    pool are shared; candidate caches are not (they rebuild on demand).
    """
    jobs: dict[JobId, Job] = {}
    for j, job in instance.jobs.items():
        r = float(releases.get(j, job.release))
        jobs[j] = Job(
            id=j, time_fn=job.time_fn, candidates=job.candidates, release=r, name=job.name
        )
    return Instance(jobs=jobs, dag=instance.dag, pool=instance.pool)


def with_poisson_arrivals(
    instance: Instance, rate: float, seed: int | None = 0
) -> Instance:
    """An online-arrival variant: jobs arrive as a Poisson process.

    Exponential inter-arrival times (mean ``1/rate``) are assigned in
    topological order, so a job never arrives before its predecessors —
    the natural shape of a workflow submission stream.  Deterministic for a
    fixed seed.
    """
    if not rate > 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    from repro.util.rng import ensure_rng

    rng = ensure_rng(seed)
    t = 0.0
    releases: dict[JobId, float] = {}
    for j in instance.dag.topological_order():
        t += float(rng.exponential(1.0 / rate))
        releases[j] = t
    return with_release_times(instance, releases)
