"""Versioned session snapshots with an exact-resume guarantee.

A checkpoint (format ``repro-session/2``) captures the *complete* state
of a :class:`~repro.service.session.SchedulingSession` in
struct-of-arrays form: one column per per-job field (demand, duration,
priority key, predecessor indices, release, tenant, state, start/finish,
readiness count), plus the resumable event heap, the ready queue's index
array *in dispatch order*, the virtual clock and event-sequence counter,
the availability vector, the compaction archive and policy, the
cancellations and the RNG state.  The guarantee — validated the same way the
instance serializer's round-trips are, by the conformance fuzz family and
the hypothesis suite — is **exact resume**:

    ``restore_session(checkpoint_session(s))`` continues event-for-event
    identically to ``s`` itself, for any interleaving of further
    ``submit`` / ``cancel`` / ``advance`` / ``drain`` calls.

Two properties make this hold: all scheduler state is plain python
scalars (floats survive JSON round-trips exactly; heap entries, keys and
ids are carried verbatim), and the ready queue is stored as its index
array rather than re-derived — restore hands the rows, their states and
the schedule state to the loop in one call
(:meth:`~repro.engine.dispatch.IncrementalPriorityLoop.load`, which
appends the rows through the loop's one append and rebuilds the sorted
``(key, index)`` list with the keys looked up, nothing sorted), so a
restore does no per-job queue rebuilding.  Every restore also
cross-checks the snapshot's redundant state — the availability vector
against the running jobs' demands, the ready array against the queued
states, the event heap against the job states, the clock and the stored
sequence counter — so a corrupted checkpoint fails loudly instead of
resuming subtly wrong.

The document's records are the protocol's shapes, not the session's
in-memory ones: the archive (columns in the session, see
:class:`~repro.service.session.Archive`) is written as one record dict
per job, and restore turns it back into columns.  The ``events`` key
holds only ``["cancel", id, t]`` rows, the session's
:attr:`~repro.service.session.SchedulingSession.cancels`: a job's start
and finish are on its row.  Each names a cancelled row, archived or live,
once, at a time in ``[0, clock]``.  A snapshot written while the session still
kept an event log (``submit``, ``start`` and ``finish`` rows beside the
cancellations) restores too: every row is checked — an unknown kind, a
malformed row or a start of a job the snapshot does not hold is refused
— and only the cancellations are kept.

``repro-session/2`` is the only format read or written: the PR-5
``repro-session/1`` (per-job record list, no archive, no stored queue) is
refused with a ``ValueError`` naming both tags.  A row, live or
archived, must pass the rules ``submit`` admits by: its demand the
layout's bounds rule (:meth:`DemandLayout.row
<repro.instance.compiled.DemandLayout.row>`), its key
:func:`~repro.instance.compiled.priority_key`, and a live row's
duration and release the session's ``_validate_numeric``.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from repro.engine.dispatch import (
    J_CANCELLED, J_DONE, J_QUEUED, J_RUNNING, J_WAITING, TIME_EPS,
)
from repro.instance.compiled import priority_key
from repro.resources.vector import whole_amounts
from repro.service.session import STATE_NAMES, SchedulingSession, duration_and_release

__all__ = [
    "SESSION_FORMAT",
    "checkpoint_session",
    "restore_session",
    "save_session",
    "load_session",
]

#: Checkpoint format tag (bump on schema change).
SESSION_FORMAT = "repro-session/2"

_STATE_INDEX = {name: i for i, name in enumerate(STATE_NAMES)}

_JOB_COLUMNS = (
    "id", "preds", "ext_preds", "demand", "duration", "key",
    "release", "tenant", "state", "remaining", "start", "finish",
)


def checkpoint_session(session: SchedulingSession) -> dict[str, Any]:
    """Snapshot the full session state as a JSON-ready dict."""
    loop = session.loop
    return {
        "format": SESSION_FORMAT,
        "capacities": list(session.capacities),
        "time_eps": loop.eps,
        "clock": loop.now,
        "seq": loop.seq,
        "compact": {
            "threshold": session.compact_threshold,
            "min_rows": session.compact_min_rows,
        },
        "compactions": session.compactions,
        "jobs": {
            "id": list(loop.order),
            "preds": [list(p) for p in loop.preds],
            "ext_preds": [list(p) for p in loop.ext_preds],
            "demand": [list(d) for d in loop.demand],
            "duration": list(loop.duration),
            "key": list(loop.key),
            "release": list(loop.release),
            "tenant": list(session.tenants),
            "state": [STATE_NAMES[s] for s in loop.state],
            "remaining": list(loop.remaining),
            "start": list(loop.start),
            "finish": list(loop.finish),
        },
        "ready": [i for _, i in loop.rq],
        "heap": [[t, s, c] for (t, s, c) in loop.heap],
        "available": list(loop.available()),
        # the archive's columns, one record dict per row
        "archive": list(session.archive.records()),
        "events": [("cancel", jid, t) for jid, t in session.cancels],
        "counters": {
            "submitted": session.counters.submitted,
            "cancelled": session.counters.cancelled,
            "completed": session.counters.completed,
        },
        # journal cursor: recovery skips journal records with seq <= this
        # (additive field — v2 snapshots without it read back as 0)
        "applied_seq": session.applied_seq,
        "rng": session.rng.bit_generator.state,
    }


def restore_session(data: "dict[str, Any] | str") -> SchedulingSession:
    """Rebuild a session from a checkpoint; exact resume (see module doc).

    Raises ``ValueError`` on an unknown format, on malformed records and
    on redundant state that disagrees with itself (stored availability
    against the running jobs' demands, the stored ready queue against the
    queued states, the event heap against the job states and the clock),
    so a corrupted snapshot never resumes silently wrong.
    """
    snap = json.loads(data) if isinstance(data, str) else data
    if not isinstance(snap, dict):
        raise ValueError(
            f"session checkpoint must be a JSON object, got {type(snap).__name__}"
        )
    fmt = snap.get("format")
    if fmt != SESSION_FORMAT:
        raise ValueError(
            f"unsupported session checkpoint format {fmt!r} "
            f"(expected {SESSION_FORMAT!r})"
        )
    try:
        return _restore_v2(snap)
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        # truncated or hand-edited snapshots must fail the documented way
        # (ValueError), not leak KeyError/TypeError to the caller
        raise ValueError(f"malformed session checkpoint: {exc!r}") from exc


def _restore_v2(snap: dict[str, Any]) -> SchedulingSession:
    if snap["time_eps"] != TIME_EPS:
        # the batch rule is the engine's constant; any other value would
        # batch events the platform cannot hold together
        raise ValueError(
            f"time_eps {snap['time_eps']!r} is not the engine's batch "
            f"tolerance {TIME_EPS!r}"
        )
    compact = snap.get("compact", {})
    thr = compact.get("threshold", 0.5)
    session = SchedulingSession(
        snap["capacities"],
        compact_threshold=None if thr is None else float(thr),
        compact_min_rows=int(compact.get("min_rows", 512)),
    )

    jobs = snap["jobs"]
    cols = {name: jobs[name] for name in _JOB_COLUMNS}
    ids = cols["id"]
    n = len(ids)
    if any(len(c) != n for c in cols.values()):
        raise ValueError("job columns have inconsistent lengths")
    if len(set(ids)) != n:
        # one id, one row: the loop's index would keep the last row of a
        # repeated id, and drain would run every one of them
        seen: set = set()
        for jid in ids:
            if jid in seen:
                raise ValueError(f"job {jid!r} appears more than once among the live rows")
            seen.add(jid)

    # the rows: every column submit lowers, lowered by submit's rules
    states = []
    for jid, name in zip(ids, cols["state"]):
        if name not in _STATE_INDEX:
            raise ValueError(f"job {jid!r}: unknown state {name!r}")
        states.append(_STATE_INDEX[name])
    demands, durations, releases = session._validate_numeric(
        ids, cols["demand"], cols["duration"], cols["release"]
    )
    keys = list(map(priority_key, ids, cols["key"]))
    preds = []
    for row, (jid, pt) in enumerate(zip(ids, cols["preds"])):
        pt = tuple(int(p) for p in pt)
        if any(not 0 <= p < row for p in pt):
            raise ValueError(f"job {jid!r}: predecessor indices {pt} out of order")
        preds.append(pt)
    start = [None if t is None else float(t) for t in cols["start"]]
    finish = [None if t is None else float(t) for t in cols["finish"]]
    for jid, s, t0, t1 in zip(ids, states, start, finish):
        if s == J_RUNNING and t0 is None:
            raise ValueError(f"job {jid!r}: running but has no start time")
        if s == J_DONE and (t0 is None or t1 is None):
            raise ValueError(f"job {jid!r}: done but missing start/finish")

    # the schedule state: heap, ready queue, counters
    heap = []
    for t, sq, c in snap["heap"]:
        c = int(c)
        if not 0 <= (~c if c < 0 else c) < n:
            raise ValueError(f"heap entry references unknown job index {c}")
        heap.append((float(t), int(sq), c))
    heap.sort()  # a valid checkpoint is already heap-ordered; sorting is a superset
    ready = [int(i) for i in snap["ready"]]
    for i in ready:
        if not 0 <= i < n:
            raise ValueError(f"ready queue references unknown job index {i}")
    expected = sorted((keys[i], i) for i, s in enumerate(states) if s == J_QUEUED)
    if [i for _, i in expected] != ready:
        raise ValueError("stored ready queue disagrees with the queued job states")
    counters = snap.get("counters", {})
    session.counters.submitted = int(counters.get("submitted", n))
    session.counters.cancelled = int(counters.get("cancelled", 0))
    session.counters.completed = int(counters.get("completed", 0))

    loop = session.loop
    loop.load(
        ids, preds, [tuple(p) for p in cols["ext_preds"]], demands, durations,
        keys, releases, states, [int(r) for r in cols["remaining"]], start, finish,
        now=float(snap["clock"]), seq=int(snap["seq"]), heap=heap, ready=ready,
        ncompleted=session.counters.completed,
    )
    session.tenants = list(cols["tenant"])
    # the stored rows, as one batch admitted at the stored clock
    session.span_bound = session._bounded_span(releases, durations)
    _check_availability(loop, snap["available"])
    # waiting jobs must still have a satisfiable readiness count
    for i, s in enumerate(states):
        if s == J_WAITING and loop.remaining[i] <= 0:
            raise ValueError(
                f"job {ids[i]!r}: waiting with no outstanding predecessors"
            )
    _load_history(session, snap)
    _check_heap(loop)
    return session


def _check_availability(loop, stored) -> None:
    """Refuse a stored availability vector that is not the capacities less
    the running jobs' demands (the vector the loop resumed with)."""
    try:
        amounts = list(whole_amounts(stored))
    except ValueError as exc:
        raise ValueError(f"availability vector: {exc}") from None
    if len(amounts) != loop.layout.d:
        raise ValueError(
            f"availability vector has dimension {len(amounts)}, "
            f"platform has {loop.layout.d}"
        )
    avail = list(loop.layout.capacities)
    for i, s in enumerate(loop.state):
        if s == J_RUNNING:
            for r, a in enumerate(loop.demand[i]):
                avail[r] -= a
    if any(a < 0 for a in avail):
        raise ValueError("running jobs overcommit the platform capacities")
    if avail != amounts:
        raise ValueError(
            f"stored availability {stored} disagrees with the "
            f"running jobs' demands (recomputed {avail})"
        )


def _load_history(session: SchedulingSession, snap: dict[str, Any]) -> None:
    """The session half of a restore — archive, cancellations, journal
    cursor and RNG — over the loaded rows."""
    loop = session.loop
    arch = session.archive
    _load_archive(arch, snap.get("archive", []), loop.layout)
    # one id, one row: a repeated or also-live id would be counted twice
    # and answer two states
    index: dict = {}
    for pos, jid in enumerate(arch.ids):
        if jid in index:
            raise ValueError(f"archived job {jid!r} appears more than once")
        if jid in loop.index:
            raise ValueError(f"job {jid!r} is both archived and a live row")
        index[jid] = pos
    session.archive_index = index
    # every finished job, archived or still a live row (see
    # SchedulingSession.done_ids), and the archive's running values
    # (SchedulingSession.archived_states)
    done_ids = {jid for jid, s in zip(arch.ids, arch.state) if s == J_DONE}
    counts = session.archived_states
    for code, name in enumerate(STATE_NAMES):
        rows = arch.state.count(code)
        if rows:
            counts[name] = counts.get(name, 0) + rows
    session.archived_makespan = max(
        (f for f, s in zip(arch.finish, arch.state) if s == J_DONE), default=0.0
    )
    done_ids.update(
        jid for jid, st in zip(loop.order, loop.state) if st == J_DONE
    )
    session.done_ids = done_ids
    session.compactions = int(snap.get("compactions", 0))

    # a snapshot of a session that kept an event log also holds submit,
    # start and finish rows: each is checked, and only cancellations kept.
    # A cancellation names a cancelled row, archived or live, once, at a
    # time the clock has reached: ``unnamed`` holds the cancelled rows no
    # cancel row has named yet
    unnamed = {jid for jid, s in zip(arch.ids, arch.state) if s == J_CANCELLED}
    unnamed.update(jid for jid, st in zip(loop.order, loop.state) if st == J_CANCELLED)
    now = loop.now
    for e in snap["events"]:
        kind = e[0]
        if kind not in ("cancel", "start", "finish", "submit"):
            raise ValueError(f"unknown event kind {kind!r}")
        jid, t = e[1], float(e[2])
        if kind == "cancel":
            if jid not in unnamed:
                if any(c == jid for c, _ in session.cancels):
                    raise ValueError(f"job {jid!r} is cancelled more than once")
                raise ValueError(f"cancel event of job {jid!r}, which is not cancelled")
            if not (math.isfinite(t) and 0.0 <= t <= now):
                raise ValueError(
                    f"cancel event of job {jid!r} at {t}, outside [0, clock {now}]"
                )
            unnamed.remove(jid)
            session.cancels.append((jid, t))
        elif kind == "start" and jid not in index and jid not in loop.index:
            raise ValueError(f"event log starts unknown job {jid!r}")
        elif kind == "submit" and len(e) < 4:
            raise ValueError(f"submit event of job {jid!r} has no tenant")
    session.applied_seq = int(snap.get("applied_seq", 0))
    if snap.get("rng") is not None:
        rng = np.random.default_rng()
        rng.bit_generator.state = snap["rng"]
        session.rng = rng


def _check_heap(loop) -> None:
    """Refuse by job an event heap the job states and the clock cannot
    have produced: each running row has exactly one completion entry, at
    ``start + duration``; a release entry belongs to a waiting row; no
    entry lies before the clock and no start after it; every entry's
    sequence number is its own and below the stored next one (``seq``).
    A heap that passes makes ``drain`` free exactly what runs, finish
    every job, never move the clock back, and pop simultaneous events in
    the order they were pushed."""
    now = loop.now
    start = loop.start
    states = loop.state
    seen: set[int] = set()
    seqs: set[int] = set()
    for t, sq, c in loop.heap:
        i = ~c if c < 0 else c
        jid = loop.order[i]
        if i in seen:
            raise ValueError(f"job {jid!r}: more than one event heap entry")
        seen.add(i)
        if not t >= now:  # NaN too
            raise ValueError(f"job {jid!r}: heap entry at {t} is before the clock {now}")
        if c < 0:
            if states[i] != J_WAITING:
                raise ValueError(
                    f"job {jid!r}: release entry but the job is {STATE_NAMES[states[i]]}"
                )
        elif states[i] != J_RUNNING:
            raise ValueError(
                f"job {jid!r}: completion entry but the job is {STATE_NAMES[states[i]]}"
            )
        elif t != start[i] + loop.duration[i]:
            raise ValueError(
                f"job {jid!r}: completion entry at {t}, not at start + duration "
                f"{start[i] + loop.duration[i]}"
            )
        if sq in seqs:
            raise ValueError(f"job {jid!r}: heap entry reuses seq {sq}")
        seqs.add(sq)
        if not sq < loop.seq:
            raise ValueError(
                f"job {jid!r}: heap entry seq {sq} is not below the stored seq {loop.seq}"
            )
    for i, s in enumerate(states):
        if s == J_RUNNING and i not in seen:
            raise ValueError(f"job {loop.order[i]!r}: running with no completion entry")
        if start[i] is not None and start[i] > now:
            raise ValueError(
                f"job {loop.order[i]!r}: start {start[i]} is after the clock {now}"
            )


def _load_archive(arch, records, layout) -> None:
    """Append the snapshot's archive records to the session's columns,
    refusing by id a record the columns cannot hold: an unknown state, a
    demand the layout's bounds rule refuses (flattened, a row of the wrong
    length would shift every later one; every archived row was admitted by
    that rule), a key ``submit`` refuses, a duration or release ``submit``'s
    numeric rule refuses (:func:`~repro.service.session.duration_and_release`:
    ``inf`` or ``-5.0`` would otherwise restore), or a done job with no
    start or finish."""
    demands, keys, durations, releases = [], [], [], []
    for rec in records:
        if rec["state"] not in _STATE_INDEX:
            raise ValueError(
                f"archived job {rec['id']!r}: unknown state {rec['state']!r}"
            )
        try:
            demands.append(layout.row(rec["id"], rec["demand"]))
            keys.append(priority_key(rec["id"], rec["key"]))
            duration, release = duration_and_release(rec["id"], rec["duration"], rec["release"])
        except ValueError as exc:
            raise ValueError(f"archived {exc}") from None
        durations.append(duration)
        releases.append(release)
        if rec["state"] == "done" and (rec["start"] is None or rec["finish"] is None):
            raise ValueError(f"archived job {rec['id']!r}: done but missing start/finish")
    arch.extend(
        [rec["id"] for rec in records],
        [_STATE_INDEX[rec["state"]] for rec in records],
        demands,
        durations,
        keys,
        [rec["preds"] for rec in records],
        releases,
        [rec["tenant"] for rec in records],
        [None if rec["start"] is None else float(rec["start"]) for rec in records],
        [None if rec["finish"] is None else float(rec["finish"]) for rec in records],
    )


def save_session(
    session: SchedulingSession,
    path: str,
    *,
    indent: int | None = 1,
    fsync: bool = True,
    before_replace=None,
) -> None:
    """Write the checkpoint to ``path`` as JSON, atomically.

    The document lands in a temp file, is fsynced and renamed over
    ``path`` — a crash mid-write leaves the previous checkpoint intact,
    never a torn file.  ``before_replace`` is the chaos harness's hook
    between "durable" and "visible" (see
    :func:`repro.util.atomic.atomic_write_text`).
    """
    from repro.util.atomic import atomic_write_text

    text = json.dumps(checkpoint_session(session), indent=indent) + "\n"
    atomic_write_text(path, text, fsync=fsync, before_replace=before_replace)


def load_session(path: str) -> SchedulingSession:
    """Load a checkpoint written by :func:`save_session`."""
    with open(path) as fh:
        return restore_session(json.load(fh))
