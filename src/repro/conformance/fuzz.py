"""Seeded differential fuzzing of every registered scheduler.

A *fuzz case* is one fully-specified configuration — ``(scheduler,
workload family, n, d, capacity, seed, scenario)`` — and running it
performs every conformance check that applies:

1. **strict validation** — the schedule passes
   :func:`repro.conformance.invariants.validate_schedule` (capacity at
   every event point, strict precedence, release gating, candidate
   membership with the result's µ when it carries one, duration
   consistency, job-set equality);
2. **differential dispatch** — when the result carries a fixed allocation,
   the package's two live Algorithm 2 loops are raced event for event: the
   batch loop's FIFO schedule (:func:`repro.core.list_scheduler.list_schedule`,
   computed once per case) against the session loop, fed the allocation
   through a seeded *submission-order-faithful* interleaving of ``submit``
   / ``advance`` calls (every job submitted before virtual time reaches its
   batch start; :func:`drive_session_faithfully`).  In the ``service``
   scenario the replay also round-trips the session through checkpoint →
   JSON → restore at a random midpoint;
3. **serialize round-trip identity** — the scheduler re-runs on
   ``instance_from_json(instance_to_json(inst))`` and must reproduce the
   schedule event-for-event through the ``repr`` id mapping;
4. **trace round-trip identity** — ``schedule_from_trace(inst,
   schedule_to_trace(s))`` must equal ``s`` placement-for-placement;
5. **adversarial service replay** (``scenario="service"``) — the
   scheduler's fixed allocation is driven through a live
   :class:`~repro.service.session.SchedulingSession` with an adversarial
   interleaving — random chunk sizes, advances past batch starts,
   cancellations, checkpoint/restore — whose completed sub-schedule must
   strict-validate, place no cancelled job, and round-trip through the
   version-3 trace;
6. **crash recovery** (``scenario="crash"``) — the fixed allocation is
   driven through a *durable*
   :class:`~repro.service.journal.JournaledSession` under a seeded
   :class:`~repro.service.chaos.ChaosInjector` that kills the session at
   random injection points (mid-admission, mid-drain, torn journal
   appends, torn checkpoint writes); after every kill the client recovers
   (snapshot + journal replay) and retries, and the final drained
   schedule must equal the case's batch schedule **event for event** and
   strict-validate.

The default matrix sweeps all registered schedulers × the 11 workload
families × ``d ∈ {1..6}`` × capacity regimes (including the degenerate
``cap=1`` platform and ``cap = 2**15``, whose 17-bit fields put ``d = 4``
past the one-word demand image) × offline / Poisson-arrival / service /
crash-recovery scenarios.  Offline-only planners (backfill, the shelf
packers, the malleable relaxation) are swept offline; a scheduler that
*rejects* a scenario with ``ValueError`` is recorded as a skip, never a
failure.

Everything is deterministic in the case seed, so a failing case is its own
reproducer: ``python -m repro fuzz`` prints (and can dump as JSON) the
exact ``FuzzCase`` tuples that failed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import Sequence

from repro.conformance.invariants import validate_schedule
from repro.core.list_scheduler import fifo_priority, list_schedule
from repro.experiments.workloads import WORKLOAD_FAMILIES, random_instance
from repro.instance.compiled import Allocation
from repro.instance.instance import Instance, with_poisson_arrivals
from repro.instance.serialize import instance_from_json, instance_to_json
from repro.jobs.candidates import make_candidates
from repro.registry import get_scheduler, scheduler_specs
from repro.resources.pool import ResourcePool
from repro.sim.schedule import Schedule
from repro.sim.trace import schedule_from_trace, schedule_to_trace

__all__ = [
    "SCENARIOS",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "portable_events",
    "default_matrix",
    "run_case",
    "run_fuzz",
]

SCENARIOS = ("offline", "poisson", "service", "crash")

#: Schedulers that plan offline and reject release times by contract.
_OFFLINE_ONLY = frozenset({"backfill", "level_shelf", "sun_shelf", "malleable"})

#: Resource dimensions swept.
_D_VALUES = (1, 2, 3, 4, 5, 6)

#: A capacity that needs 17-bit fields: d <= 3 still fits one ``uint64``
#: demand image (``d * bits <= 64``), d = 4 does not — the word/wide
#: boundary the compiled engine must agree across.
_UNPACKED_CAP = 1 << 15

#: O(levels) candidates regardless of d — keeps huge-capacity and d=6
#: grids tractable (the Cartesian strategies are exponential in d).
_DIAGONAL = make_candidates("diagonal", levels=6)


@dataclass(frozen=True)
class FuzzCase:
    """One fully-specified fuzz configuration (its own reproducer)."""

    scheduler: str
    family: str
    n: int
    d: int
    capacity: int
    seed: int
    scenario: str = "offline"
    arrival_rate: float = 2.0

    def __post_init__(self) -> None:
        # an unknown scenario would run every check but its own, as offline
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )

    def describe(self) -> str:
        return (
            f"{self.scheduler} × {self.family} n={self.n} d={self.d} "
            f"cap={self.capacity} seed={self.seed} [{self.scenario}]"
        )


@dataclass(frozen=True)
class FuzzFailure:
    """One broken check: the case, which check broke, and why."""

    case: FuzzCase
    #: "crash" | "validator" | "differential" (batch loop ≠ session loop)
    #: | "serialize" | "trace" | "service" | "crash-recovery"
    check: str
    detail: str


@dataclass
class FuzzReport:
    """Aggregate outcome of a sweep."""

    cases_run: int = 0
    cases_skipped: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    by_scenario: Counter = field(default_factory=Counter)
    by_scheduler: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.cases_run} cases run, {self.cases_skipped} skipped "
            f"(unsupported scenario), {len(self.failures)} failure(s)",
            "  by scenario: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.by_scenario.items())),
            "  by scheduler: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.by_scheduler.items())),
        ]
        for f in self.failures:
            lines.append(f"  FAIL [{f.check}] {f.case.describe()}: {f.detail}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "cases_run": self.cases_run,
            "cases_skipped": self.cases_skipped,
            "by_scenario": dict(self.by_scenario),
            "by_scheduler": dict(self.by_scheduler),
            "failures": [
                {"case": asdict(f.case), "check": f.check, "detail": f.detail}
                for f in self.failures
            ],
        }


# ----------------------------------------------------------------------
# matrix generation
# ----------------------------------------------------------------------
def _capacities_for(d: int) -> tuple[int, ...]:
    """Capacity regimes per dimension: the degenerate single-unit platform,
    a small contended pool, a comfortable pool, and — up to ``d = 4``,
    where it straddles the one-word demand image — a capacity that needs
    17-bit fields."""
    regimes = [1, 4, 16]
    if d <= 4:
        regimes.append(_UNPACKED_CAP)
    return tuple(regimes)


def default_matrix(
    *,
    quick: bool = False,
    n: int = 10,
    seed: int = 0,
    schedulers: Sequence[str] | None = None,
    families: Sequence[str] | None = None,
) -> list[FuzzCase]:
    """The deterministic sweep matrix.

    Every valid (scheduler, family) pair is crossed with a rotating
    selection of ``(d, capacity, scenario, seed)`` variants — 5 per pair in
    ``--quick`` mode (≈500 cases over the full registry), 24 otherwise.
    The rotation covers every d, every capacity regime and every scenario
    across the matrix while keeping each pair's case count bounded.
    """
    variants = 5 if quick else 24
    cases: list[FuzzCase] = []
    specs = list(scheduler_specs())
    if schedulers is not None:
        wanted = set(schedulers)
        unknown = wanted - {s.name for s in specs}
        if unknown:
            raise KeyError(f"unknown scheduler(s): {sorted(unknown)}")
        specs = [s for s in specs if s.name in wanted]
    wanted_families = tuple(families) if families is not None else WORKLOAD_FAMILIES
    for s_idx, spec in enumerate(specs):
        if spec.graphs == "independent":
            # honor the family filter: these schedulers only ever run the
            # independent family, so excluding it excludes them
            fams: Sequence[str] = tuple(
                f for f in ("independent",) if f in wanted_families
            )
        else:
            fams = wanted_families
        for f_idx, family in enumerate(fams):
            for k in range(variants):
                d = _D_VALUES[(s_idx + f_idx + k) % len(_D_VALUES)]
                caps = _capacities_for(d)
                capacity = caps[(s_idx + f_idx * 2 + k) % len(caps)]
                # step 1 in k: each (scheduler, family) pair's 5 quick
                # variants cover all 4 scenarios.  The offsets differ from
                # the d and capacity rotations' (2·s_idx against s_idx), so
                # across the matrix every (d, capacity, scenario)
                # combination still occurs
                scenario = SCENARIOS[(2 * s_idx + f_idx + k) % len(SCENARIOS)]
                if spec.name in _OFFLINE_ONLY and scenario == "poisson":
                    scenario = "offline"
                if spec.name == "malleable":
                    # the relaxation keeps no allocation to replay, and its
                    # unit-task model needs a real multi-unit pool
                    scenario = "offline"
                    capacity = min(max(capacity, 4), 64)
                cases.append(
                    FuzzCase(
                        scheduler=spec.name,
                        family=family,
                        n=n,
                        d=d,
                        capacity=capacity,
                        seed=seed + k,
                        scenario=scenario,
                    )
                )
    return cases


# ----------------------------------------------------------------------
# case execution
# ----------------------------------------------------------------------
def _strategy_for(case: FuzzCase):
    """Diagonal candidates where Cartesian grids would blow up (huge
    capacities or d >= 5); the default geometric grid otherwise."""
    if case.capacity > 64 or case.d >= 5:
        return _DIAGONAL
    return None


def _run_scheduler(spec, instance: Instance, strategy):
    if spec.name == "malleable":
        return spec.schedule(instance)
    return spec.schedule(instance, strategy=strategy)


def portable_events(schedule: Schedule, *, reprify: bool) -> list[tuple]:
    """Canonical event list under the serialize module's id mapping: pass
    ``reprify=True`` for the original instance (ids map to their ``repr``)
    and ``False`` for a round-tripped one (ids already *are* the reprs)."""
    return sorted(
        (
            p.start,
            p.time,
            tuple(p.alloc),
            repr(j) if reprify else j,
        )
        for j, p in schedule.placements.items()
    )


def build_case_instance(case: FuzzCase) -> Instance:
    """The (deterministic) instance a case runs on."""
    pool = ResourcePool.uniform(case.d, case.capacity)
    inst = random_instance(case.family, case.n, pool, seed=case.seed).instance
    if case.scenario == "poisson":
        inst = with_poisson_arrivals(inst, case.arrival_rate, seed=case.seed)
    elif case.scenario in ("service", "crash"):
        # odd seeds add release times so sessions exercise online-arrival
        # gating too; offline-only planners keep the offline instance (they
        # reject releases by contract)
        if case.seed % 2 and case.scheduler not in _OFFLINE_ONLY:
            inst = with_poisson_arrivals(inst, case.arrival_rate, seed=case.seed)
    return inst


def _is_contractual_rejection(case: FuzzCase, spec) -> bool:
    """The only combinations a scheduler may reject by contract: an
    offline planner given release times, or an independent-jobs algorithm
    given a precedence-constrained family.  Everything else that raises —
    ``ValueError`` included (the codebase's universal error type) — is a
    failure; treating every ``ValueError`` as a skip would let a scheduler
    regression silently drain the sweep into ``cases_skipped``."""
    if case.scenario == "poisson" and spec.name in _OFFLINE_ONLY:
        return True
    if spec.graphs == "independent" and case.family != "independent":
        return True
    return False


def run_case(case: FuzzCase) -> tuple[list[FuzzFailure], bool]:
    """Run one case; returns ``(failures, skipped)``.

    ``skipped`` is True when the scheduler rejected the scenario by
    contract (see :func:`_is_contractual_rejection`) — that is conformant
    behavior, not a failure.
    """
    failures: list[FuzzFailure] = []
    try:
        inst = build_case_instance(case)
        spec = get_scheduler(case.scheduler)
    except Exception as exc:
        # a bad family name, an unknown scheduler or a workload-generator
        # corner must be a recorded crash, not a sweep-aborting traceback
        return [FuzzFailure(case, "crash", f"{type(exc).__name__}: {exc}")], False
    strategy = _strategy_for(case)

    try:
        result = _run_scheduler(spec, inst, strategy)
    except ValueError as exc:
        if _is_contractual_rejection(case, spec):
            return [], True
        return [
            FuzzFailure(case, "crash", f"{type(exc).__name__}: {exc}")
        ], False
    except Exception as exc:
        return [
            FuzzFailure(case, "crash", f"{type(exc).__name__}: {exc}")
        ], False

    schedule = getattr(result, "schedule", None)
    if schedule is None:
        return [
            FuzzFailure(
                case, "crash",
                "result carries no schedule (registry protocol broken)",
            )
        ], False
    if not isinstance(schedule, Schedule):
        # the malleable relaxation's timeline has its own validity oracle
        try:
            schedule.validate()
        except Exception as exc:
            failures.append(FuzzFailure(case, "validator", str(exc)))
        return failures, False

    # 1 — strict validation
    report = validate_schedule(schedule, mu=getattr(result, "mu", None))
    for v in report.violations:
        failures.append(FuzzFailure(case, "validator", f"[{v.kind}] {v.detail}"))

    allocation = getattr(result, "allocation", None)

    # 2 — differential dispatch: the batch loop against the session loop
    batch = None
    if allocation is not None:
        try:
            batch = list_schedule(inst, allocation, fifo_priority)
        except Exception as exc:
            failures.append(
                FuzzFailure(case, "differential", f"{type(exc).__name__}: {exc}")
            )
    if batch is not None:
        horizons = submit_horizons(inst, batch)
        failures.extend(_check_differential(case, inst, allocation, batch, horizons))

    # 3 — serialize round-trip schedule identity
    failures.extend(_check_serialize_roundtrip(case, spec, inst, strategy, schedule))

    # 4 — trace round-trip identity
    failures.extend(_check_trace_roundtrip(case, inst, schedule))

    # 5 — adversarial online-session replay (validity)
    if case.scenario == "service" and allocation is not None:
        failures.extend(_check_service(case, inst, allocation))

    # 6 — durable-session crash recovery (kill → recover → retry identity)
    if case.scenario == "crash" and batch is not None:
        failures.extend(_check_crash(case, inst, allocation, batch, horizons))

    return failures, False


def _check_differential(case, inst, allocation, batch, horizons) -> list[FuzzFailure]:
    try:
        session = drive_session_faithfully(
            inst,
            allocation,
            seed=case.seed + 9173,
            checkpoint=case.scenario == "service",
            horizons=horizons,
        )
        sched = session.to_schedule()
        session.validate()
    except Exception as exc:
        return [FuzzFailure(case, "differential", f"{type(exc).__name__}: {exc}")]
    if portable_events(sched, reprify=False) != portable_events(batch, reprify=True):
        return [
            FuzzFailure(
                case,
                "differential",
                "submission-order-faithful session diverges from the batch loop",
            )
        ]
    return []


def _check_serialize_roundtrip(case, spec, inst, strategy, schedule) -> list[FuzzFailure]:
    from repro.jobs.candidates import geometric_grid

    try:
        back = instance_from_json(
            instance_to_json(
                inst, strategy if strategy is not None else geometric_grid, indent=None
            )
        )
        result2 = _run_scheduler(spec, back, strategy)
    except Exception as exc:
        return [FuzzFailure(case, "serialize", f"{type(exc).__name__}: {exc}")]
    schedule2 = getattr(result2, "schedule", None)
    if not isinstance(schedule2, Schedule):
        return [FuzzFailure(case, "serialize", "round-trip lost the timeline")]
    if portable_events(schedule2, reprify=False) != portable_events(
        schedule, reprify=True
    ):
        return [
            FuzzFailure(
                case,
                "serialize",
                "round-tripped instance schedules differently "
                "(order-preserving serialization contract broken)",
            )
        ]
    return []


def _check_trace_roundtrip(case, inst, schedule) -> list[FuzzFailure]:
    try:
        back = schedule_from_trace(inst, schedule_to_trace(schedule))
    except Exception as exc:
        return [FuzzFailure(case, "trace", f"{type(exc).__name__}: {exc}")]
    if back.placements != schedule.placements:
        return [FuzzFailure(case, "trace", "trace round-trip changed the schedule")]
    return []


# ----------------------------------------------------------------------
# service-session replay (scenario="service")
# ----------------------------------------------------------------------
def service_specs(inst: Instance, allocation) -> list:
    """Lower ``(instance, allocation)`` to submittable service job specs.

    Ids become their ``repr`` (the portable key the serializers use),
    demands and durations are the rows of ``Allocation.lower(inst,
    allocation)`` (the instance's times at the fixed allocation), and the
    priority key is the topological index — the FIFO order the batch
    comparison run uses.  Shared with the hypothesis checkpoint suite.
    """
    from repro.service.session import JobSpec

    lowered = Allocation.lower(inst, allocation)
    return [
        JobSpec(
            id=repr(j),
            demand=tuple(demand),
            duration=duration,
            preds=tuple(repr(u) for u in inst.dag.predecessors(j)),
            release=inst.jobs[j].release,
            key=i,
        )
        for i, (j, demand, duration) in enumerate(
            zip(inst.dag.order, lowered.matrix.tolist(), lowered.durations.tolist())
        )
    ]


def _roundtrip_restore(session):
    """checkpoint → JSON text → restore (the exact-resume path under test);
    any divergence the restore's cross-checks let through is caught by the
    event-identity checks downstream."""
    import json

    from repro.service.checkpoint import checkpoint_session, restore_session

    return restore_session(json.loads(json.dumps(checkpoint_session(session))))


#: Compaction settings the fuzz drivers run under: aggressive enough that
#: every sampled case compacts at least once mid-stream, so batch identity
#: and strict validity are asserted *through* compactions, not around them.
_FUZZ_COMPACTION = {"compact_threshold": 0.3, "compact_min_rows": 4}


def submit_horizons(inst: Instance, batch: Schedule) -> list[float]:
    """By ``k``: the earliest start in ``batch`` of the jobs submitted from
    the ``k``-th on, in submission (topological) order."""
    starts = batch.starts
    return list(accumulate(map(starts.__getitem__, reversed(inst.dag.order)), min))[::-1]


def drive_session_faithfully(
    inst: Instance, allocation, *, seed: int, horizons: list[float], checkpoint: bool = True
):
    """Drive a session with a seeded submission-order-faithful interleaving.

    Jobs are submitted in random-size insertion-order chunks; between
    chunks, virtual time advances to a random point *strictly below* the
    earliest batch start among not-yet-submitted jobs — the faithfulness
    condition under which the session must reproduce the batch schedule.
    With ``checkpoint``, one random chunk boundary round-trips the session
    through checkpoint → JSON → restore.  ``horizons`` is
    :func:`submit_horizons` of the batch schedule.  Returns the drained
    session.

    The session runs with a metrics registry bound (and rebound across
    the checkpoint round-trip, exactly as ``restore`` does in the
    service), so the batch-identity assertion downstream also proves the
    instrumentation is observation-only.
    """
    import numpy as np

    from repro.obs import MetricsRegistry
    from repro.service.session import SchedulingSession

    specs = service_specs(inst, allocation)
    n = len(specs)
    rng = np.random.default_rng(seed)
    registry = MetricsRegistry()
    session = SchedulingSession(inst.pool.capacities, **_FUZZ_COMPACTION)
    session.bind_metrics(registry)
    ckpt_at = int(rng.integers(0, n + 1)) if checkpoint and n else None
    k = 0
    while k < n:
        size = int(rng.integers(1, n - k + 1))
        session.submit(specs[k:k + size])
        k += size
        if ckpt_at is not None and k >= ckpt_at:
            session = _roundtrip_restore(session)
            session.bind_metrics(registry)
            ckpt_at = None
        if k < n:
            horizon = horizons[k]
            if horizon > session.now:
                # strictly below the next unsubmitted start: faithful
                t = session.now + float(rng.uniform(0.0, 0.999)) * (
                    horizon - session.now
                )
                session.advance(t)
    session.drain()
    return session


def _drive_session_adversarially(inst: Instance, allocation, *, seed: int):
    """Random submit/cancel/advance/checkpoint/restore interleaving.

    No identity can hold here (advances outrun submissions, jobs get
    cancelled); the session must stay *valid*: the drained sub-schedule of
    completed jobs strict-validates, cancelled jobs never appear in it,
    and the v3 trace round-trips.  Returns ``(session, cancelled_ids)``.
    """
    import numpy as np

    from repro.service.session import SchedulingSession

    specs = service_specs(inst, allocation)
    n = len(specs)
    rng = np.random.default_rng(seed)
    session = SchedulingSession(inst.pool.capacities, **_FUZZ_COMPACTION)
    scale = max((s.duration for s in specs), default=1.0)
    cancelled: set = set()  # withdrawn after submission
    dropped: set = set()    # never submitted: a predecessor was withdrawn first
    k = 0
    while k < n:
        size = int(rng.integers(1, n - k + 1))
        chunk = []
        for s in specs[k:k + size]:
            if any(p in cancelled or p in dropped for p in s.preds):
                dropped.add(s.id)
            else:
                chunk.append(s)
        if chunk:
            session.submit(chunk)
        k += size
        if rng.random() < 0.5:
            live = [s.id for s in specs[:k] if s.id not in dropped]
            if live:
                victim = live[int(rng.integers(0, len(live)))]
                cancelled.update(session.cancel(victim))
        if rng.random() < 0.3:
            session = _roundtrip_restore(session)
        if rng.random() < 0.7:
            session.advance(session.now + float(rng.exponential(scale)))
    session.drain()
    return session, cancelled


def _check_service(case, inst, allocation) -> list[FuzzFailure]:
    out: list[FuzzFailure] = []
    try:
        session, cancelled = _drive_session_adversarially(
            inst, allocation, seed=case.seed + 40123
        )
        sched = session.to_schedule()
        session.validate()
        placed_cancelled = cancelled & set(sched.placements)
        if placed_cancelled:
            out.append(
                FuzzFailure(
                    case,
                    "service",
                    f"cancelled jobs were placed: {sorted(placed_cancelled)[:5]}",
                )
            )
        back = schedule_from_trace(sched.instance, session.to_trace())
        if back.placements != sched.placements:
            out.append(
                FuzzFailure(
                    case, "service", "service trace round-trip changed the schedule"
                )
            )
    except Exception as exc:
        out.append(FuzzFailure(case, "service", f"{type(exc).__name__}: {exc}"))
    return out


# ----------------------------------------------------------------------
# durable-session crash recovery (scenario="crash")
# ----------------------------------------------------------------------
#: Per-point crash rates the fuzz driver injects with.  Every point is
#: armed; ``max_crashes`` (not the rates) bounds how many fire per case.
_CRASH_RATES = {
    "op-begin": 0.12,
    "op-applied": 0.12,
    "op-journaled": 0.12,
    "mid-drain": 0.12,
    "checkpoint-temp": 0.12,
    "journal-torn": 0.12,
}


def drive_session_with_crashes(
    inst: Instance,
    allocation,
    *,
    seed: int,
    dirpath: str,
    horizons: list[float],
    rates=None,
    max_crashes: int = 4,
    checkpoint_every: int = 3,
):
    """Drive a durable session the way a crash-surviving client would.

    The submission-order-faithful interleaving of
    :func:`drive_session_faithfully`, but through a
    :class:`~repro.service.journal.JournaledSession` with a seeded
    :class:`~repro.service.chaos.ChaosInjector` armed at every crash
    point.  Whenever an operation dies mid-flight the client *recovers*
    (snapshot + journal replay — itself crashable at the checkpoint
    write) and retries exactly as the protocol prescribes: submits are
    re-sent minus the jobs recovery already knows (at-least-once,
    deduplicated by id), advances re-target the same horizon, the drain
    is re-issued.  ``checkpoint_every=3`` keeps journal rotation in the
    loop so recovery crosses compaction boundaries, not just appends.
    ``horizons`` is :func:`submit_horizons` of the batch schedule.
    Returns ``(journaled_session, injector)`` after the final drain.
    """
    import numpy as np

    from repro.service.chaos import ChaosCrash, ChaosInjector
    from repro.service.journal import JournaledSession

    specs = service_specs(inst, allocation)
    n = len(specs)
    rng = np.random.default_rng(seed)
    chaos = ChaosInjector(
        dict(rates) if rates is not None else dict(_CRASH_RATES),
        seed=seed,
        max_crashes=max_crashes,
    )
    journal_path = f"{dirpath}/journal.jsonl"
    snapshot_path = f"{dirpath}/snapshot.json"

    def recover():
        while True:
            try:
                return JournaledSession.recover(
                    journal_path,
                    snapshot_path,
                    capacities=inst.pool.capacities,
                    checkpoint_every=checkpoint_every,
                    fsync=False,
                    chaos=chaos,
                    session_kwargs=_FUZZ_COMPACTION,
                )
            except ChaosCrash:
                continue  # recovery's own trailing checkpoint died: go again

    js = recover()
    k = 0
    while k < n:
        size = int(rng.integers(1, n - k + 1))
        chunk = specs[k:k + size]
        while True:
            todo = [s for s in chunk if s.id not in js.session]
            if not todo:
                break
            try:
                js.submit(todo)
            except ChaosCrash:
                js = recover()
        k += size
        if k < n:
            horizon = horizons[k]
            if horizon > js.session.now:
                t = js.session.now + float(rng.uniform(0.0, 0.999)) * (
                    horizon - js.session.now
                )
                while js.session.now < t:
                    try:
                        js.advance(t, events=False)
                    except ChaosCrash:
                        js = recover()
    while True:
        try:
            js.drain()
            break
        except ChaosCrash:
            js = recover()
    return js, chaos


def _check_crash(case, inst, allocation, batch, horizons) -> list[FuzzFailure]:
    import tempfile

    try:
        with tempfile.TemporaryDirectory() as tmp:
            js, chaos = drive_session_with_crashes(
                inst, allocation, seed=case.seed + 55511, dirpath=tmp, horizons=horizons
            )
            sched = js.session.to_schedule()
            js.session.validate()
            js.close()
    except Exception as exc:
        return [FuzzFailure(case, "crash-recovery", f"{type(exc).__name__}: {exc}")]
    if portable_events(sched, reprify=False) != portable_events(batch, reprify=True):
        return [
            FuzzFailure(
                case,
                "crash-recovery",
                "recovered session diverges from the uninterrupted batch run "
                f"after {chaos.crashes} injected crash(es) at {chaos.fired}",
            )
        ]
    return []


# ----------------------------------------------------------------------
# sweep driver
# ----------------------------------------------------------------------
def run_fuzz(
    cases: Sequence[FuzzCase],
    *,
    progress=None,
    max_failures: int | None = None,
) -> FuzzReport:
    """Run a case list; returns the aggregate report.

    ``progress(i, total, case)`` is called before each case (the CLI's
    ticker); ``max_failures`` stops the sweep early once that many cases
    have failed (every failure is still a seeded reproducer).
    """
    report = FuzzReport()
    total = len(cases)
    for i, case in enumerate(cases):
        if progress is not None:
            progress(i, total, case)
        failures, skipped = run_case(case)
        if skipped:
            report.cases_skipped += 1
            continue
        report.cases_run += 1
        report.by_scenario[case.scenario] += 1
        report.by_scheduler[case.scheduler] += 1
        report.failures.extend(failures)
        if max_failures is not None and len(report.failures) >= max_failures:
            break
    return report
