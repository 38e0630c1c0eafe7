"""Incremental scheduling sessions: submit / cancel / advance / drain.

A :class:`SchedulingSession` is the online form of the batch pipeline:
instead of compiling a frozen instance and running the dispatch loop to
completion, it owns one
:class:`~repro.engine.dispatch.IncrementalPriorityLoop` — the resumable
heap, the ready queue (one sorted python list of ``(key, index)``
entries) and every row of every live job, which submissions append to,
never recompile — plus the service-level state around it (tenants, the
archive, counters, the cancellations), and exposes the service verbs:

* :meth:`~SchedulingSession.submit` — admit jobs (with chosen demands,
  durations, precedences, releases and priority keys) at the current
  virtual time; a job is a :class:`JobSpec` row (a named tuple), a batch
  of rows is transposed to its columns once (``zip(*specs)``), validated
  with vectorized bounds checks and appended to the loop's rows in one
  shot;
* :meth:`~SchedulingSession.cancel` — best-effort cancellation: a job
  that has not started is withdrawn together with its pending descendants
  (their precedence constraint became unsatisfiable); a running or
  completed job is too late to cancel;
* :meth:`~SchedulingSession.advance` — move virtual time forward,
  dispatching and completing work on the way;
* :meth:`~SchedulingSession.drain` — run to quiescence (the realized
  schedule is available via :meth:`~SchedulingSession.to_schedule`).

**Batch identity.**  Dispatch order inside the session is exactly the
batch discipline — the ready queue is totally ordered by ``(key,
submission index)``, every pass starts every fitting job, simultaneous
events batch within :data:`~repro.engine.dispatch.TIME_EPS` — so a
session driven *submission-order-faithfully* (every job submitted before
virtual time reaches the start it would get in the batch run) produces a
schedule event-for-event identical to
:func:`repro.core.list_scheduler.list_schedule` on the same job set.  The
conformance fuzz family (``scenario="service"``) and the hypothesis suite
assert this across every registered scheduler's allocations.

**Compaction.**  A long-lived session accumulates rows for finished and
cancelled jobs.  When the dead-row fraction crosses
``compact_threshold`` (and at least ``compact_min_rows`` rows exist),
``advance``/``drain`` compact the instance: dead rows move into the
session *archive* (an :class:`Archive` of columns, one row per job and
no python container per row, its ids indexed by
:attr:`SchedulingSession.archive_index` — completed history is never
lost, only moved out of the hot arrays) and the loop rebuilds its rows
contiguous in one call
(:meth:`~repro.engine.dispatch.IncrementalPriorityLoop.compact`).
Compaction is semantically invisible: schedules, traces, duplicate-id
checks, predecessor resolution and checkpoints all see through it, and
the conformance family drives sessions with aggressive compaction
settings to pin that.

**History** is the rows: a job's start, duration and demand live on its
live row or its archived one, and :meth:`~SchedulingSession.to_schedule`,
the trace, :meth:`~SchedulingSession.validate` and
:meth:`~SchedulingSession.state_of` read them there.  The session keeps no
event log beside them.  What the loop runs during one ``advance`` or
``drain`` — ``("start", id, t)`` and ``("finish", id, t)`` tuples in the
loop's ``log`` — is that verb's reply buffer: read for the reply (a start
gains its duration and demand from its row, still live then), the event
count and :attr:`~SchedulingSession.done_ids`, then emptied.  The one
record the rows cannot hold, the time of a cancellation, is kept as
``(id, time)`` in :attr:`~SchedulingSession.cancels`.

Sessions carry an RNG (:attr:`SchedulingSession.rng`) for stochastic
in-process clients, so that checkpoint/restore
(:mod:`repro.service.checkpoint`) resumes the *client's* stream exactly
too, not just the scheduler's.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Any, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.engine.dispatch import (
    J_CANCELLED,
    J_DONE,
    J_QUEUED,
    J_RUNNING,
    J_WAITING,
    IncrementalPriorityLoop,
)
from repro.instance.compiled import priority_key
from repro.resources.vector import whole_amounts

__all__ = ["Archive", "JobSpec", "SchedulingSession", "STATE_NAMES", "real_number"]

JobId = Hashable

#: Human-readable names of the loop's job states (checkpoint format order).
STATE_NAMES = ("waiting", "queued", "running", "done", "cancelled")

_DEFAULT_TENANT = "default"

#: Admission keeps every reachable virtual time below half the float64
#: range, so that no other association of the same additions (the loop sums
#: durations along the realized schedule, ``span_bound`` in admission order)
#: can round up to ``inf``.
_TIME_LIMIT = sys.float_info.max / 2


_INT = frozenset((int,))
_ID_TYPES = frozenset((str, int))
_NO_PREDS: tuple = ()
_new_row = tuple.__new__


def real_number(x: Any) -> float:
    """``float(x)`` wherever the protocol expects a number: a JSON boolean
    is refused (``float(True)`` is ``1.0``), as it is for ids and keys."""
    if isinstance(x, bool):
        raise ValueError(f"expected a number, got {x!r}")
    return float(x)


def duration_and_release(job_id: JobId, duration, release) -> tuple[float, float]:
    """The duration and release clauses of the numeric rule ``submit``
    applies (and checkpoint restore, to live and archived rows alike):
    ``(float(duration), float(release))``, or a ``ValueError`` naming the
    job unless the duration is positive and finite and the release finite
    and ``>= 0``."""
    duration = float(duration)
    if not duration > 0.0 or duration != duration or duration == float("inf"):
        raise ValueError(
            f"job {job_id!r}: duration must be positive and finite, got {duration}"
        )
    release = float(release)
    if not 0.0 <= release < float("inf"):
        raise ValueError(
            f"job {job_id!r}: release must be finite and >= 0, got {release}"
        )
    return duration, release


class JobSpec(NamedTuple):
    """One submitted job: the service protocol's unit of admission.

    A named tuple — a row: built by one C call, immutable, hashable,
    picklable, and a batch transposes to columns with one ``zip(*specs)``
    (what :meth:`SchedulingSession.submit` does).

    ``id`` must be a JSON-scalar (``str`` or ``int``) so checkpoints and
    the wire protocol carry it verbatim.  ``demand`` amounts are whole
    numbers (``2`` and ``2.0`` are two units; ``2.7`` or ``"2"`` are
    refused wherever they enter, never truncated).  ``preds`` name
    already-submitted jobs (or earlier jobs of the same ``submit`` call)
    — the online precedence model.  ``key`` is the priority sort key
    (smaller starts first, ties by submission order); omitted, the job's
    submission index is used, i.e. FIFO.  ``release`` gates the earliest
    start in virtual time; a release in the past is simply "available
    now".
    """

    id: JobId
    demand: tuple[int, ...]
    duration: float
    preds: tuple[JobId, ...] = ()
    release: float = 0.0
    key: float | int | None = None
    tenant: str = _DEFAULT_TENANT

    @classmethod
    def from_dict(cls, rec: Mapping[str, Any]) -> "JobSpec":
        """Build from a wire/protocol record; structural problems raise
        ``ValueError`` (unknown fields, missing fields, non-scalar ids or
        predecessors, scalar or fractional demands, amounts past float
        range) so transport layers can buffer the result without ever
        tripping over an unhashable or mistyped field.

        A record straight from ``json.loads`` holds exact builtin types;
        those are tested first and the row is built in one pass.  Anything
        else — a subclass, another mapping, a record about to be refused —
        goes through :meth:`_from_mapping`, which accepts the same records
        with the same result and owns every refusal and its message.
        """
        if type(rec) is dict and rec.keys() <= _FIELDS:
            try:
                jid = rec["id"]
                demand = rec["demand"]
                duration = rec["duration"]
                get = rec.get
                preds = get("preds", _NO_PREDS)
                release = get("release", 0.0)
                tenant = get("tenant", _DEFAULT_TENANT)
                if (
                    type(jid) in _ID_TYPES
                    and type(demand) is list
                    and _INT.issuperset(map(type, demand))
                    and (type(duration) is float or type(duration) is int)
                    and (type(release) is float or type(release) is int)
                    and type(tenant) is str
                    and (
                        preds is _NO_PREDS
                        or (type(preds) is list and _ID_TYPES.issuperset(map(type, preds)))
                    )
                ):
                    return _new_row(
                        cls,
                        (jid, tuple(demand), float(duration), tuple(preds),
                         float(release), get("key"), tenant),
                    )
            except (KeyError, OverflowError):
                pass  # refused below, with its message
        return cls._from_mapping(rec)

    @classmethod
    def _from_mapping(cls, rec: Mapping[str, Any]) -> "JobSpec":
        if not isinstance(rec, Mapping):
            raise ValueError(f"job record must be an object, got {type(rec).__name__}")
        unknown = set(rec) - _FIELDS
        if unknown:
            raise ValueError(f"unknown job fields: {sorted(unknown)}")
        try:
            jid = rec["id"]
            raw_demand = rec["demand"]
            duration = real_number(rec["duration"])
        except KeyError as exc:
            raise ValueError(f"job record missing required field {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"job record has a malformed duration: {exc}") from None
        if isinstance(jid, bool) or not isinstance(jid, (str, int)):
            raise ValueError(f"job id {jid!r} must be a string or integer")
        if isinstance(raw_demand, (str, int, float)) or not hasattr(raw_demand, "__iter__"):
            raise ValueError(f"job {jid!r}: demand must be a list of per-type amounts")
        raw_preds = rec.get("preds", ())
        if isinstance(raw_preds, str):  # a bare id would iterate character-wise
            raise ValueError(f"job {jid!r}: preds must be a list of job ids")
        try:
            demand = whole_amounts(raw_demand)
            preds = tuple(raw_preds)
            release = real_number(rec.get("release", 0.0))
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: json.loads reads 1e400 as inf, and int(inf) /
            # float(10**400) raise it rather than ValueError
            raise ValueError(f"job {jid!r}: malformed record: {exc}") from None
        for p in preds:
            if isinstance(p, bool) or not isinstance(p, (str, int)):
                raise ValueError(
                    f"job {jid!r}: predecessor {p!r} must be a string or integer"
                )
        return cls(
            id=jid,
            demand=demand,
            duration=duration,
            preds=preds,
            release=release,
            key=rec.get("key"),
            tenant=str(rec.get("tenant", _DEFAULT_TENANT)),
        )

    def to_dict(self) -> dict[str, Any]:
        """The wire/journal record; ``from_dict`` round-trips it exactly
        (defaults are omitted, so journals stay compact)."""
        rec: dict[str, Any] = {
            "id": self.id,
            "demand": list(self.demand),
            "duration": self.duration,
        }
        if self.preds:
            rec["preds"] = list(self.preds)
        if self.release:
            rec["release"] = self.release
        if self.key is not None:
            rec["key"] = self.key
        if self.tenant != _DEFAULT_TENANT:
            rec["tenant"] = self.tenant
        return rec


_FIELDS = frozenset(JobSpec._fields)  # the keys a wire record may carry


@dataclass
class _Counters:
    """Session-lifetime counters (monotone; survive checkpoints)."""

    submitted: int = 0
    cancelled: int = 0
    completed: int = 0


_NAN = float("nan")


class Archive:
    """The session's cold store: every compacted row, one column per field.

    A finished or cancelled job leaves the hot arrays at compaction and
    lands here as one entry per column — ``ids``, ``key`` and ``tenant``
    are lists (an int key stays an int), ``state`` is a ``bytearray`` of
    loop state codes, ``duration``, ``release``, ``start`` and ``finish``
    are ``array('d')`` (NaN stands for the ``None`` start and finish of a
    job that never ran), ``demand`` is the rows' amounts back to back in
    one list, and ``preds`` the rows' predecessor ids back to back, row
    ``pos``'s being ``preds[pred_off[pos]:pred_off[pos + 1]]``.  A row costs no
    python container of its own (about 190 bytes a job at d = 4) and adds
    no object for the garbage collector to walk.

    :meth:`record` is the one way a row is read whole: the checkpoint's
    archive dict, with the key order ``repro-session/3`` writes.
    :meth:`extend` is the one way rows come in, from
    :meth:`SchedulingSession._compact` and from a restore alike.
    """

    __slots__ = (
        "d", "ids", "state", "demand", "duration", "key", "preds", "pred_off",
        "release", "tenant", "start", "finish",
    )

    def __init__(self, d: int) -> None:
        self.d = d
        self.ids: list[JobId] = []
        self.state = bytearray()
        self.demand: list[int] = []
        self.duration = array("d")
        self.key: list = []
        self.preds: list[JobId] = []
        self.pred_off = array("q", (0,))
        self.release = array("d")
        self.tenant: list[str] = []
        self.start = array("d")
        self.finish = array("d")

    def __len__(self) -> int:
        return len(self.ids)

    def extend(
        self,
        ids: Sequence[JobId],
        states: Iterable[int],
        demands: Iterable[Sequence[int]],
        durations: Iterable[float],
        keys: Iterable,
        preds: Iterable[Sequence[JobId]],
        releases: Iterable[float],
        tenants: Iterable[str],
        starts: Iterable["float | None"],
        finishes: Iterable["float | None"],
    ) -> None:
        """Append rows given as columns: one entry per row, each demand
        of ``d`` amounts, a start or finish of ``None`` stored as NaN."""
        self.ids.extend(ids)
        self.state.extend(states)
        self.demand.extend(chain.from_iterable(demands))
        self.duration.extend(durations)
        self.key.extend(keys)
        preds = list(preds)
        self.preds.extend(chain.from_iterable(preds))
        end = self.pred_off[-1]
        self.pred_off.extend(end + c for c in accumulate(map(len, preds)))
        self.release.extend(releases)
        self.tenant.extend(tenants)
        self.start.extend(_NAN if t is None else t for t in starts)
        self.finish.extend(_NAN if t is None else t for t in finishes)

    def demand_of(self, pos: int) -> list[int]:
        d = self.d
        return list(self.demand[pos * d:(pos + 1) * d])

    def preds_of(self, pos: int) -> list[JobId]:
        return self.preds[self.pred_off[pos]:self.pred_off[pos + 1]]

    def record(self, pos: int) -> dict[str, Any]:
        """Row ``pos`` as the checkpoint's archive record."""
        start = self.start[pos]
        finish = self.finish[pos]
        return {
            "id": self.ids[pos],
            "state": STATE_NAMES[self.state[pos]],
            "demand": self.demand_of(pos),
            "duration": self.duration[pos],
            "key": self.key[pos],
            "preds": self.preds_of(pos),
            "release": self.release[pos],
            "tenant": self.tenant[pos],
            "start": None if start != start else start,
            "finish": None if finish != finish else finish,
        }

    def records(self) -> Iterator[dict[str, Any]]:
        """Every row as its record, in archive order (built one at a time)."""
        return map(self.record, range(len(self.ids)))


class SchedulingSession:
    """A long-running incremental scheduling session (see module docstring).

    Parameters
    ----------
    capacities:
        Per-type platform capacities ``P^(i)``.
    seed:
        Seed of the session RNG exposed to stochastic clients.
    compact_threshold:
        Dead-row fraction at which ``advance``/``drain`` compact the
        instance (``None`` disables compaction).
    compact_min_rows:
        Minimum row count before compaction is considered — keeps small
        sessions from churning.
    """

    def __init__(
        self,
        capacities: Sequence[int],
        *,
        seed: int | None = None,
        compact_threshold: float | None = 0.5,
        compact_min_rows: int = 512,
    ) -> None:
        if not self.valid_compact_threshold(compact_threshold):
            raise ValueError(
                f"compact_threshold must be in (0, 1] or None, got {compact_threshold}"
            )
        if compact_min_rows < 1:
            raise ValueError(f"compact_min_rows must be >= 1, got {compact_min_rows}")
        self.loop = IncrementalPriorityLoop(capacities)
        #: every cancellation as ``(id, time)``, in the order it happened —
        #: the trace's and the checkpoint's record of it (a cancelled row
        #: keeps no time)
        self.cancels: list[tuple[JobId, float]] = []
        self.tenants: list[str] = []  # per-job tenant label, the loop's row order
        self.counters = _Counters()
        self.rng = np.random.default_rng(seed)
        self.compact_threshold = compact_threshold
        self.compact_min_rows = int(compact_min_rows)
        self.compactions = 0
        # dead rows compacted away, in columns (the cold store), and
        # each archived id's position in them
        self.archive = Archive(self.loop.layout.d)
        self.archive_index: dict[JobId, int] = {}
        #: what :meth:`status` and :meth:`makespan` need of the archive —
        #: rows per state name and the latest archived finish — as running
        #: values, so both cost O(live rows) however long the session has
        #: run.  Updated where :meth:`_compact` archives a row, rebuilt
        #: where restore walks the archive.
        self.archived_states = {"done": 0, "cancelled": 0}
        self.archived_makespan = 0.0
        #: ids of every *completed* job, live row or archived — the
        #: one-hash membership test ``submit`` uses to accept a batch
        #: whose predecessors have all finished without resolving them
        #: one by one (archived-cancelled ids fail it and take the
        #: precise-error path through :attr:`archive_index`).  Maintained
        #: from the finishes each :meth:`advance` / :meth:`drain` ran, and
        #: rebuilt whole on restore.
        self.done_ids: set[JobId] = set()
        #: sequence id of the last journaled operation applied to this
        #: session (0 = none).  The write-ahead journal
        #: (:mod:`repro.service.journal`) stamps every record with the
        #: next value; checkpoints carry it so recovery can skip journal
        #: records the snapshot already contains.
        self.applied_seq = 0
        #: running over-approximation of ``latest release + Σ durations``
        #: over every job ever admitted.  List scheduling never idles once
        #: every job is released, so no event — and so the clock — can pass
        #: ``max(now, latest release) + Σ unfinished durations <= now +
        #: span_bound``; :meth:`submit` refuses the batch that would make
        #: that bound overflow.  Rebuilt from the live rows on restore.
        self.span_bound = 0.0
        #: metrics registry (``None`` = uninstrumented, the default; the
        #: batch engine and plain embedded sessions never pay for
        #: observability).  Runtime-only wiring — checkpoints do not
        #: persist it; front-ends rebind after a restore.
        self.metrics = None

    @staticmethod
    def valid_compact_threshold(value: float | None) -> bool:
        """Whether ``value`` may be a session's ``compact_threshold``:
        ``None`` (never compact) or a fraction in ``(0, 1]`` — NaN is not,
        and a checkpoint could not carry it (JSON has no NaN)."""
        return value is None or 0.0 < value <= 1.0

    def bind_metrics(self, registry) -> None:
        """Opt in to scheduler-side metrics on the given
        :class:`~repro.obs.MetricsRegistry`.

        Registers the session's counter/gauge families (idempotent per
        registry) and binds each one's child once, here; the verbs then
        record on the children: jobs submitted / dispatched / completed /
        cancelled, clock advances, compactions, and the virtual-clock
        gauge.  Counters are registry-level, so rebinding after
        checkpoint/restore keeps them monotone across session lineages.
        """
        self.metrics = registry
        self._m_submitted = registry.counter(
            "repro_jobs_submitted_total", "Jobs admitted into the session"
        ).labels()
        self._m_dispatched = registry.counter(
            "repro_jobs_dispatched_total", "Jobs started by the dispatch loop"
        ).labels()
        self._m_completed = registry.counter(
            "repro_jobs_completed_total", "Jobs run to completion"
        ).labels()
        self._m_cancelled = registry.counter(
            "repro_jobs_cancelled_total", "Jobs withdrawn by cancellation"
        ).labels()
        self._m_advances = registry.counter(
            "repro_clock_advances_total", "advance()/drain() calls moving virtual time"
        ).labels()
        self._m_compactions = registry.counter(
            "repro_compactions_total", "Dead-row compactions of the hot arrays"
        ).labels()
        self._m_clock = registry.gauge(
            "repro_session_clock", "Current virtual time of the session"
        ).labels()
        self._m_clock.set(self.now)

    def _observe_advance(self, nevents: int, finishes: int) -> None:
        """Fold one advance/drain into the bound metrics — O(1), no event
        iteration: the loop only logs ``start``/``finish`` entries while
        running, so starts are the new entries that aren't finishes."""
        starts = nevents - finishes
        if starts:
            self._m_dispatched.inc(starts)
        if finishes:
            self._m_completed.inc(finishes)
        self._m_advances.inc()
        self._m_clock.set(self.now)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The session's virtual clock."""
        return self.loop.now

    @property
    def capacities(self) -> tuple[int, ...]:
        return self.loop.layout.capacities

    def available(self) -> tuple[int, ...]:
        """Per-type resources free at the current clock."""
        return self.loop.available()

    def __contains__(self, job_id: JobId) -> bool:
        """True iff the session has ever admitted ``job_id`` (live row or
        archived) — the membership test an at-least-once client uses to
        filter re-submissions after a crash."""
        return job_id in self.loop.index or job_id in self.archive_index

    def __len__(self) -> int:
        """The number of jobs ever admitted, live row or archived — the
        ids :meth:`__contains__` answers for."""
        return len(self.loop.order) + len(self.archive)

    def state_of(self, job_id: JobId) -> str:
        """One of ``waiting / queued / running / done / cancelled``."""
        i = self.loop.index.get(job_id)
        if i is not None:
            return STATE_NAMES[self.loop.state[i]]
        pos = self.archive_index.get(job_id)
        if pos is not None:
            return STATE_NAMES[self.archive.state[pos]]
        raise KeyError(job_id)

    def status(self) -> dict[str, Any]:
        """A JSON-ready summary of the session."""
        counts = dict.fromkeys(STATE_NAMES, 0)
        for s in self.loop.state:
            counts[STATE_NAMES[s]] += 1
        for name, rows in self.archived_states.items():
            counts[name] += rows
        return {
            "clock": self.now,
            "jobs": len(self),
            "states": counts,
            "available": list(self.available()),
            "capacities": list(self.capacities),
            "pending_events": self.loop.pending,
            "submitted": self.counters.submitted,
            "cancelled": self.counters.cancelled,
            "completed": self.counters.completed,
            "compactions": self.compactions,
            "archived": len(self.archive),
        }

    def makespan(self) -> float:
        """Latest finish time over every completed job (0.0 when none)."""
        best = self.archived_makespan
        finish = self.loop.finish
        for i, s in enumerate(self.loop.state):
            if s == J_DONE and finish[i] > best:
                best = finish[i]
        return best

    # ------------------------------------------------------------------
    # the service verbs
    # ------------------------------------------------------------------
    def submit(self, jobs: "Iterable[JobSpec | Mapping[str, Any]]") -> list[JobId]:
        """Admit jobs at the current virtual time; returns their ids.

        Jobs are appended in the given order (which fixes their FIFO
        tie-break); a job may name earlier jobs of the same call as
        predecessors.  Validation — unknown predecessors, cancelled
        predecessors, demand bounds, non-finite durations, non-scalar ids,
        duplicate ids, a total of work whose completion time float64 cannot
        hold — raises ``ValueError`` *before* any of the call's jobs are
        admitted, so a rejected batch leaves the session untouched.  The
        whole batch is appended to the loop's rows in one vectorized shot
        (demands bounds-checked and packed as a matrix, rows extended in
        bulk, newly ready jobs entering the ready queue in one call).
        """
        specs = [
            spec if isinstance(spec, JobSpec) else JobSpec.from_dict(spec)
            for spec in jobs
        ]
        if not specs:
            return []
        loop = self.loop
        loop_state = loop.state
        base = len(loop.order)
        # validate the whole batch first: admission is all-or-nothing
        batch_pos: dict[JobId, int] = {}
        preds_idx: list[tuple[int, ...]] = []  # outstanding deps, as row indices
        ext_preds: list[tuple[JobId, ...]] = []  # satisfied deps, by id
        rem_counts: list[int] = []  # not-yet-done preds per row, for admit
        keys: list[float] = []
        sub0 = self.counters.submitted
        index = loop.index
        index_get = index.get
        batch_pos_get = batch_pos.get
        archive_index = self.archive_index
        arch_get = archive_index.get
        done_ids = self.done_ids
        # the one transpose: a batch of rows to its columns
        ids_col, dem_col, dur_col, preds_col, rel_col, key_col, tenants = zip(*specs)
        for off, (sid, skey, preds_s) in enumerate(zip(ids_col, key_col, preds_col)):
            if isinstance(sid, bool) or not isinstance(sid, (str, int)):
                raise ValueError(
                    f"job id {sid!r} must be a string or integer "
                    "(checkpoints and the wire protocol carry ids verbatim)"
                )
            if sid in batch_pos or sid in index or sid in archive_index:
                raise ValueError(f"job {sid!r} was already submitted")
            if skey is not None:
                priority_key(sid, skey)
            if preds_s and done_ids.issuperset(preds_s):
                # every predecessor already finished (the steady-state
                # case): one C-speed set test, nothing outstanding.  The
                # preds are recorded as external provenance ids — even
                # the ones still held as live rows — so no per-pred index
                # resolution happens at all; ``ext_preds`` means
                # "satisfied by-id reference", archived or not, and
                # :meth:`to_schedule` resolves both alike
                preds_idx.append(())
                ext_preds.append(tuple(preds_s))
                rem_counts.append(0)
                batch_pos[sid] = off
                keys.append(skey if skey is not None else float(sub0 + off))
                continue
            elif preds_s:
                # some predecessor is still outstanding (or invalid).
                # Finished preds — the bulk, in steady state — cost one
                # set-membership each and stay by-id references; only the
                # outstanding ones are resolved to row indices.  That
                # makes ``preds_idx`` exactly the set of dependencies
                # that can still fire, so it doubles as the successor
                # wiring source with no dead edges (done is terminal: an
                # edge from a finished predecessor can never fire again)
                pt2: list[int] = []
                et: list[JobId] = []
                for p in preds_s:
                    if p in done_ids:
                        et.append(p)
                        continue
                    pi = index_get(p)
                    if pi is not None:  # a live, unfinished row
                        st = loop_state[pi]
                        if st == J_CANCELLED:
                            raise ValueError(
                                f"job {sid!r}: predecessor {p!r} was "
                                "cancelled"
                            )
                        if st == J_DONE:  # pragma: no cover - done_ids holds
                            et.append(p)  # every finished id; stay safe if not
                            continue
                        pt2.append(pi)
                        continue
                    bp = batch_pos_get(p)
                    if bp is not None:  # earlier row of this batch
                        pt2.append(base + bp)
                        continue
                    if arch_get(p) is None:
                        raise ValueError(
                            f"job {sid!r}: unknown predecessor {p!r}"
                        )
                    # archived but not done: necessarily cancelled
                    raise ValueError(
                        f"job {sid!r}: predecessor {p!r} was cancelled"
                    )
                preds_idx.append(tuple(pt2))
                ext_preds.append(tuple(et))
                rem = len(pt2)
            else:
                preds_idx.append(())
                ext_preds.append(())
                rem = 0
            rem_counts.append(rem)
            batch_pos[sid] = off
            keys.append(skey if skey is not None else float(sub0 + off))

        ids = list(ids_col)
        demands, durations, releases = self._validate_numeric(
            ids, dem_col, dur_col, rel_col
        )
        span = self._bounded_span(releases, durations)
        loop.admit(
            ids, preds_idx, ext_preds, demands, durations, keys, releases, rem_counts
        )
        self.span_bound = span
        self.tenants.extend(tenants)
        self.counters.submitted = sub0 + len(specs)
        if self.metrics is not None:
            self._m_submitted.inc(len(specs))
        return ids

    def _bounded_span(
        self, releases: Sequence[float], durations: Sequence[float]
    ) -> float:
        """:attr:`span_bound` after admitting jobs with these releases and
        durations at the current clock; ``ValueError`` when the schedule
        could then run past :data:`_TIME_LIMIT` (each job is finite on its
        own; their sum need not be)."""
        span = self.span_bound + max(releases, default=0.0) + sum(durations)
        if not self.now + span < _TIME_LIMIT:
            raise ValueError(
                "clock + latest release + total admitted duration leaves the "
                "float64 range (the schedule could not finish at a finite time)"
            )
        return span

    def _validate_numeric(
        self, ids: Sequence[JobId], dem_col, dur_col, rel_col
    ) -> tuple[list[tuple[int, ...]], list[float], list[float]]:
        """Vectorized demand/duration/release bounds checks for a batch,
        given as columns.

        The fast path is the layout's whole-matrix bounds rule
        (:meth:`~repro.instance.compiled.DemandLayout.matrix`) and four
        whole-batch comparisons of the durations and releases; any failure
        (or a batch the matrix form declines: structurally malformed,
        amounts that are not ints, or past ``int64``) falls back to the
        scalar :meth:`validate_row` per row, which refuses by job — or
        accepts every row, whose scalar lowering is then the result.
        ``submit`` and checkpoint restore lower their rows through it alike.
        """
        try:
            # numpy lowers the whole batch in C; .tolist() converts back to
            # builtin ints/floats, so the stored rows never hold numpy scalars
            dm = self.loop.layout.matrix(dem_col)
            dr = np.array(dur_col, dtype=np.float64)
            rl = np.array(rel_col, dtype=np.float64)
            ok = (
                # the matrix form declines anything but int amounts (2.7,
                # "1", 2.0, True): the scalar rule's to refuse or lower,
                # never numpy's to truncate
                dm is not None
                and bool((dr > 0.0).all())
                and bool(np.isfinite(dr).all())
                and bool((rl >= 0.0).all())
                and bool(np.isfinite(rl).all())
            )
        except (TypeError, ValueError, OverflowError):
            ok = False
        if ok:
            return list(map(tuple, dm.tolist())), dr.tolist(), rl.tolist()
        # scalar path: raises the precise message
        demands = list(map(self.validate_row, ids, dem_col, dur_col, rel_col))
        return demands, list(map(float, dur_col)), list(map(float, rel_col))

    def validate_row(
        self,
        job_id: JobId,
        demand: Sequence[int],
        duration: float,
        release: float = 0.0,
    ) -> tuple[int, ...]:
        """Check one prospective row without admitting it; returns the
        normalized demand tuple — the scalar form of
        :meth:`_validate_numeric`, which refuses by job."""
        if job_id in self.loop.index:
            raise ValueError(f"job {job_id!r} was already submitted")
        dem = self.loop.layout.row(job_id, demand)
        duration_and_release(job_id, duration, release)
        return dem

    def cancel(self, job_id: JobId) -> tuple[JobId, ...]:
        """Best-effort cancel: returns the ids withdrawn (cascade order).

        A job that has not started is cancelled together with every
        pending transitive descendant (they could never run once a
        predecessor is withdrawn).  Returns ``()`` when the job already
        started, completed or was cancelled — too late, nothing changes.
        Unknown ids raise ``KeyError``.
        """
        loop = self.loop
        i = loop.index.get(job_id)
        if i is None:
            if job_id in self.archive_index:  # archived: done or cancelled
                return ()
            raise KeyError(job_id)
        state = loop.state
        if state[i] in (J_RUNNING, J_DONE, J_CANCELLED):
            return ()
        cancelled: list[JobId] = []
        stack = [i]
        while stack:
            k = stack.pop()
            if state[k] == J_CANCELLED:
                continue
            # descendants of a not-yet-started job are necessarily pending
            loop.cancel(k)
            self.counters.cancelled += 1
            self.cancels.append((loop.order[k], self.now))
            cancelled.append(loop.order[k])
            stack.extend(reversed(loop.succ[k]))
        if cancelled and self.metrics is not None:
            self._m_cancelled.inc(len(cancelled))
        return tuple(cancelled)

    def advance(
        self, until: float, *, events: bool = True
    ) -> "list[dict[str, Any]] | int":
        """Advance virtual time to ``until``; returns the events that fired.

        Dispatch passes run at the current clock first (new submissions
        start as early as possible), then every pending event up to
        ``until`` is processed; afterwards the clock *is* ``until`` even
        when nothing happened.  Time only moves forward.

        With ``events=False`` the fired events are *not* materialized as
        protocol dicts — their count is returned instead.  Embedded
        callers that only poll counters (the benchmark client, bulk
        replays) skip a dict allocation per event that way; the streaming
        front-end keeps the default.
        """
        until = float(until)
        if not math.isfinite(until):
            # NaN fails both orderings below and would drain every event;
            # inf would pin the clock (and every later start) at inf
            raise ValueError(f"cannot advance to a non-finite time ({until})")
        if until < self.now:
            raise ValueError(f"cannot advance backwards to {until} (clock is {self.now})")
        ran = self._run(until)
        out = self._event_dicts(ran) if events else len(ran)
        ran.clear()
        self._maybe_compact()
        return out

    def drain(self) -> None:
        """Run to quiescence: every admitted, uncancelled job completes.

        Deliberately does *not* materialize the realized schedule — that
        is :meth:`to_schedule`'s job, off the timed path; front-ends that
        only need the headline numbers read :meth:`makespan` and the
        counters instead.
        """
        self._run(None).clear()
        leftover = [
            self.loop.order[i]
            for i, s in enumerate(self.loop.state)
            if s in (J_WAITING, J_QUEUED, J_RUNNING)
        ]
        if leftover:  # pragma: no cover - admission bounds validation prevents this
            raise RuntimeError(f"drain left jobs unfinished: {leftover[:5]}")
        self._maybe_compact()

    def _run(self, until: float | None) -> list[tuple]:
        """Run the loop to ``until`` (``None``: to quiescence) and fold what
        it ran into the counters, :attr:`done_ids` and the bound metrics;
        returns the loop's buffer of ``("start" | "finish", id, t)``
        tuples, which the caller empties once it has read it."""
        loop = self.loop
        ran = loop.log
        c0 = loop.ncompleted
        loop.run(until)
        if until is not None:
            loop.advance_clock(until)
        self.counters.completed = loop.ncompleted
        self.done_ids.update(e[1] for e in ran if e[0] == "finish")
        if self.metrics is not None:
            self._observe_advance(len(ran), loop.ncompleted - c0)
        return ran

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _maybe_compact(self) -> None:
        thr = self.compact_threshold
        if thr is None:
            return
        rows = len(self.loop.order)
        if rows < self.compact_min_rows:
            return
        dead = self.counters.completed + self.counters.cancelled - len(self.archive)
        if dead >= thr * rows:
            self._compact()

    def _compact(self) -> None:
        """Archive every done/cancelled row, then have the loop drop them
        (the tenants column by the same ``keep``)."""
        loop = self.loop
        state = loop.state
        keep = [i for i, s in enumerate(state) if s <= J_RUNNING]  # stay hot
        dead = [i for i, s in enumerate(state) if s > J_RUNNING]  # done / cancelled
        order = loop.order
        preds = loop.preds
        ext = loop.ext_preds
        finish = loop.finish
        archive = self.archive
        pos = len(archive)
        ids = [order[i] for i in dead]
        self.archive_index.update(zip(ids, range(pos, pos + len(ids))))
        states = [state[i] for i in dead]
        done_finish = [finish[i] for i, s in zip(dead, states) if s == J_DONE]
        self.done_ids.update(  # already there via advance/drain; cheap belt
            jid for jid, s in zip(ids, states) if s == J_DONE
        )
        archive.extend(
            ids,
            states,
            [loop.demand[i] for i in dead],
            [loop.duration[i] for i in dead],
            [loop.key[i] for i in dead],
            [(*map(order.__getitem__, preds[i]), *ext[i]) for i in dead],
            [loop.release[i] for i in dead],
            [self.tenants[i] for i in dead],
            [loop.start[i] for i in dead],
            [finish[i] for i in dead],
        )
        self.archived_states["done"] += len(done_finish)
        self.archived_states["cancelled"] += len(dead) - len(done_finish)
        self.archived_makespan = max(
            self.archived_makespan, max(done_finish, default=0.0)
        )
        loop.compact(keep)
        tenants = self.tenants
        self.tenants = [tenants[i] for i in keep]
        self.compactions += 1
        if self.metrics is not None:
            self._m_compactions.inc()

    # ------------------------------------------------------------------
    # realized-schedule view
    # ------------------------------------------------------------------
    def cancellations(self) -> list[dict[str, Any]]:
        """The cancellation events, in the order they happened."""
        return [{"event": "cancel", "id": jid, "time": t} for jid, t in self.cancels]

    def _event_dicts(self, ran: list[tuple]) -> list[dict[str, Any]]:
        """What one verb ran as protocol dicts: a start gains the job's
        duration and demand from its row — a live one, since compaction
        runs after the reply is built."""
        loop = self.loop
        index = loop.index
        out = []
        for kind, jid, t in ran:
            if kind == "start":
                i = index[jid]
                out.append({"event": "start", "id": jid, "time": t,
                            "duration": loop.duration[i], "alloc": list(loop.demand[i])})
            else:
                out.append({"event": "finish", "id": jid, "time": t})
        return out

    def to_schedule(self) -> "Schedule":
        """The completed jobs as a :class:`~repro.sim.schedule.Schedule`.

        The backing instance contains exactly the completed jobs — active
        done rows *and* archived ones (compaction moves rows, it never
        forgets them) — each pinned to its submitted demand, with a
        tabulated time function and its release, plus the induced
        precedence edges among them: every predecessor of a completed job
        completed, so the sub-DAG is closed.  Strictly validatable; used
        by :meth:`validate`, the service trace and the conformance checks.
        """
        from repro.dag.graph import DAG
        from repro.instance.instance import Instance
        from repro.jobs.job import Job
        from repro.jobs.profiles import TabulatedTimeFunction
        from repro.resources.pool import ResourcePool
        from repro.resources.vector import ResourceVector
        from repro.sim.schedule import Schedule

        loop = self.loop
        jobs: dict[JobId, Job] = {}
        rows: list[tuple] = []
        edges: list[tuple[JobId, JobId]] = []
        for rec in self.archive.records():
            if rec["state"] != "done":
                continue
            jid = rec["id"]
            v = ResourceVector(rec["demand"])
            jobs[jid] = Job(
                id=jid,
                time_fn=TabulatedTimeFunction({v: rec["duration"]}),
                candidates=(v,),
                release=rec["release"],
            )
            edges.extend((p, jid) for p in rec["preds"])
            rows.append((jid, rec["start"], rec["duration"], v))
        for i, jid in enumerate(loop.order):
            if loop.state[i] != J_DONE:
                continue
            v = ResourceVector(loop.demand[i])
            jobs[jid] = Job(
                id=jid,
                time_fn=TabulatedTimeFunction({v: loop.duration[i]}),
                candidates=(v,),
                release=loop.release[i],
            )
            edges.extend((loop.order[p], jid) for p in loop.preds[i])
            edges.extend((p, jid) for p in loop.ext_preds[i])
            rows.append((jid, loop.start[i], loop.duration[i], v))
        pool = ResourcePool(ResourceVector(self.capacities))
        inst = Instance(jobs=jobs, dag=DAG(jobs, edges), pool=pool)
        return Schedule(inst, *zip(*rows))

    def validate(self) -> None:
        """Strictly validate the realized schedule (raises on violation)."""
        from repro.conformance.invariants import validate_schedule

        validate_schedule(self.to_schedule(), strict=True).raise_if_failed()

    def to_trace(self) -> dict:
        """The version-3 trace of the session (cancellations included)."""
        from repro.sim.trace import schedule_to_trace

        return schedule_to_trace(
            self.to_schedule(),
            cancellations=[{"id": jid, "time": t} for jid, t in self.cancels],
        )
