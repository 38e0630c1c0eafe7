"""Versioned session snapshots with an exact-resume guarantee.

A checkpoint (format ``repro-session/2``) captures the *complete* state
of a :class:`~repro.service.session.SchedulingSession` in
struct-of-arrays form: one column per per-job field (demand, duration,
priority key, predecessor indices, release, tenant, state, start/finish,
readiness count), plus the resumable event heap, the ready queue's index
array *in dispatch order*, the virtual clock and event-sequence counter,
the availability vector, the compaction archive and policy, the session
event log and the RNG state.  The guarantee — validated the same way the
instance serializer's round-trips are, by the conformance fuzz family and
the hypothesis suite — is **exact resume**:

    ``restore_session(checkpoint_session(s))`` continues event-for-event
    identically to ``s`` itself, for any interleaving of further
    ``submit`` / ``cancel`` / ``advance`` / ``drain`` calls.

Two properties make this hold: all scheduler state is plain python
scalars (floats survive JSON round-trips exactly; heap entries, keys and
ids are carried verbatim), and the ready queue is stored as its index
array rather than re-derived — restore loads it straight back into the
loop's sorted ``(key, index)`` list (the keys looked up, nothing sorted),
so a restore does no per-job queue rebuilding.  Every restore also
cross-checks the snapshot's redundant state — the availability vector
against the running jobs' demands, the ready array against the queued
states, the event heap against the job states and the clock — so a
corrupted checkpoint fails loudly instead of resuming subtly wrong.

The document's records are the protocol's shapes, not the session's
in-memory ones: the archive (columns in the session, see
:class:`~repro.service.session.Archive`) is written as one record dict
per job, and a ``("start", id, t)`` log entry as the five-field start row
with the job's duration and demand.  Restore turns both back into the
lean in-memory form.

``repro-session/2`` is the only format read or written: the PR-5
``repro-session/1`` (per-job record list, no archive, no stored queue) is
refused with a ``ValueError`` naming both tags.  A demand row, live or
archived, must pass the bounds rule ``submit`` admits by
(:meth:`DemandLayout.row <repro.instance.compiled.DemandLayout.row>`);
the availability vector is packed into the loop's image by the same
layout.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.engine.dispatch import J_DONE, J_QUEUED, J_RUNNING, J_WAITING, TIME_EPS
from repro.resources.vector import whole_amounts
from repro.service.session import STATE_NAMES, SchedulingSession

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
    gi = session.gi
    loop = session.loop
    return {
        "format": SESSION_FORMAT,
        "capacities": list(gi.layout.capacities),
        "time_eps": loop.eps,
        "clock": loop.now,
        "seq": loop.seq,
        "compact": {
            "threshold": session.compact_threshold,
            "min_rows": session.compact_min_rows,
        },
        "compactions": session.compactions,
        "jobs": {
            "id": list(gi.order),
            "preds": [list(p) for p in gi.preds],
            "ext_preds": [list(p) for p in gi.ext_preds],
            "demand": [list(d) for d in gi.demand],
            "duration": list(gi.duration),
            "key": list(gi.key),
            "release": list(gi.release),
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
        # a start row carries the job's duration and demand, which the log
        # leaves on the job's row; every other event tuple is written as it
        # is (immutable, and JSON serializes tuples as arrays)
        "events": [session.event_row(e) for e in session.events],
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


def _event_tuple(e) -> tuple:
    """Normalize one serialized event row back to its in-memory tuple (a
    start row drops the duration and demand it repeats from the job's
    row)."""
    kind = e[0]
    if kind == "start":
        return ("start", e[1], float(e[2]))
    if kind == "finish":
        return ("finish", e[1], float(e[2]))
    if kind == "submit":
        return ("submit", e[1], float(e[2]), e[3])
    if kind == "cancel":
        return ("cancel", e[1], float(e[2]))
    raise ValueError(f"unknown event kind {kind!r}")


def _load_loop_state(
    session: SchedulingSession, snap: dict[str, Any], states: list[int]
) -> None:
    """The loop and session half of a restore: clock, heap, ready,
    availability, archive, events, counters, RNG — the rows are already
    appended."""
    gi = session.gi
    layout = gi.layout
    loop = session.loop
    n = len(gi.order)

    loop.now = float(snap["clock"])
    # the stored rows, as one batch admitted at the stored clock
    session.span_bound = session._bounded_span(gi.release, gi.duration)
    loop.seq = int(snap["seq"])
    heap = []
    for t, s, c in snap["heap"]:
        c = int(c)
        i = ~c if c < 0 else c
        if not 0 <= i < n:
            raise ValueError(f"heap entry references unknown job index {c}")
        heap.append((float(t), int(s), c))
    heap.sort()  # a valid checkpoint is already heap-ordered; sorting is a superset
    loop.heap = heap

    ready_idx = [int(i) for i in snap["ready"]]
    for i in ready_idx:
        if not 0 <= i < n:
            raise ValueError(f"ready queue references unknown job index {i}")
    expected = sorted((gi.key[i], i) for i, s in enumerate(states) if s == J_QUEUED)
    if [i for _, i in expected] != ready_idx:
        raise ValueError("stored ready queue disagrees with the queued job states")
    loop.load_ready(ready_idx)

    try:
        stored_avail = list(whole_amounts(snap["available"]))
    except ValueError as exc:
        raise ValueError(f"availability vector: {exc}") from None
    if len(stored_avail) != layout.d:
        raise ValueError(
            f"availability vector has dimension {len(stored_avail)}, "
            f"platform has {layout.d}"
        )
    # recompute availability from running demands and cross-check
    avail = list(layout.capacities)
    for i, s in enumerate(states):
        if s == J_RUNNING:
            for r, a in enumerate(gi.demand[i]):
                avail[r] -= a
    if any(a < 0 for a in avail):
        raise ValueError("running jobs overcommit the platform capacities")
    if avail != stored_avail:
        raise ValueError(
            f"stored availability {snap['available']} disagrees with the "
            f"running jobs' demands (recomputed {avail})"
        )
    # waiting jobs must still have a satisfiable readiness count
    for i, s in enumerate(states):
        if s == J_WAITING and loop.remaining[i] <= 0:
            raise ValueError(
                f"job {gi.order[i]!r}: waiting with no outstanding predecessors"
            )
    # equal to the recomputed vector, so within 0..capacities
    loop.avh = layout.fit_mask + int(layout.images([stored_avail])[0])

    arch = session.archive
    _load_archive(arch, snap.get("archive", []), layout)
    # one id, one row: a repeated or also-live id would be counted twice
    # and answer two states
    index: dict = {}
    for pos, jid in enumerate(arch.ids):
        if jid in index:
            raise ValueError(f"archived job {jid!r} appears more than once")
        if jid in gi.index:
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
    order = session.gi.order
    done_ids.update(
        order[i] for i, st in enumerate(states) if st == J_DONE
    )
    session.done_ids = done_ids
    session.compactions = int(snap.get("compactions", 0))

    # rows that survived an in-memory round trip are already the exact
    # in-memory tuples — only JSON-decoded rows (lists) and start rows
    # need normalizing
    events = [
        e if type(e) is tuple and e[0] != "start" else _event_tuple(e)
        for e in snap["events"]
    ]
    for e in events:
        if e[0] == "start" and e[1] not in index and e[1] not in gi.index:
            raise ValueError(f"event log starts unknown job {e[1]!r}")
    _check_heap(session, states)
    session.events[:] = events
    counters = snap.get("counters", {})
    session.counters.submitted = int(counters.get("submitted", n))
    session.counters.cancelled = int(counters.get("cancelled", 0))
    session.counters.completed = int(counters.get("completed", 0))
    loop.ncompleted = session.counters.completed
    session.applied_seq = int(snap.get("applied_seq", 0))
    if snap.get("rng") is not None:
        rng = np.random.default_rng()
        rng.bit_generator.state = snap["rng"]
        session.rng = rng


def _check_heap(session: SchedulingSession, states: list[int]) -> None:
    """Refuse by job an event heap the job states and the clock cannot
    have produced: each running row has exactly one completion entry, at
    ``start + duration``; a release entry belongs to a waiting row; no
    entry lies before the clock and no start after it.  A heap that
    passes makes ``drain`` free exactly what runs, finish every job, and
    never move the clock back."""
    gi = session.gi
    loop = session.loop
    now = loop.now
    start = loop.start
    seen: set[int] = set()
    for t, _, c in loop.heap:
        i = ~c if c < 0 else c
        jid = gi.order[i]
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
        elif t != start[i] + gi.duration[i]:
            raise ValueError(
                f"job {jid!r}: completion entry at {t}, not at start + duration "
                f"{start[i] + gi.duration[i]}"
            )
    for i, s in enumerate(states):
        if s == J_RUNNING and i not in seen:
            raise ValueError(f"job {gi.order[i]!r}: running with no completion entry")
        if start[i] is not None and start[i] > now:
            raise ValueError(
                f"job {gi.order[i]!r}: start {start[i]} is after the clock {now}"
            )


def _load_archive(arch, records, layout) -> None:
    """Append the snapshot's archive records to the session's columns,
    refusing by id a record the columns cannot hold: an unknown state, a
    demand the layout's bounds rule refuses (flattened, a row of the wrong
    length would shift every later one; every archived row was admitted by
    that rule), or a done job with no start or finish."""
    demands = []
    for rec in records:
        if rec["state"] not in _STATE_INDEX:
            raise ValueError(
                f"archived job {rec['id']!r}: unknown state {rec['state']!r}"
            )
        try:
            dem = layout.row(rec["id"], rec["demand"])
        except ValueError as exc:
            raise ValueError(f"archived {exc}") from None
        if rec["state"] == "done" and (rec["start"] is None or rec["finish"] is None):
            raise ValueError(f"archived job {rec['id']!r}: done but missing start/finish")
        demands.append(dem)
    arch.extend(
        [rec["id"] for rec in records],
        [_STATE_INDEX[rec["state"]] for rec in records],
        demands,
        [float(rec["duration"]) for rec in records],
        [rec["key"] for rec in records],
        [rec["preds"] for rec in records],
        [float(rec["release"]) for rec in records],
        [rec["tenant"] for rec in records],
        [None if rec["start"] is None else float(rec["start"]) for rec in records],
        [None if rec["finish"] is None else float(rec["finish"]) for rec in records],
    )


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
    gi = session.gi
    loop = session.loop

    jobs = snap["jobs"]
    cols = {name: jobs[name] for name in _JOB_COLUMNS}
    k = len(cols["id"])
    if any(len(c) != k for c in cols.values()):
        raise ValueError("job columns have inconsistent lengths")

    states = []
    for jid, name in zip(cols["id"], cols["state"]):
        if name not in _STATE_INDEX:
            raise ValueError(f"job {jid!r}: unknown state {name!r}")
        states.append(_STATE_INDEX[name])
    demands = list(map(gi.layout.row, cols["id"], cols["demand"]))
    preds = []
    for row, (jid, pt) in enumerate(zip(cols["id"], cols["preds"])):
        pt = tuple(int(p) for p in pt)
        if any(not 0 <= p < row for p in pt):
            raise ValueError(f"job {jid!r}: predecessor indices {pt} out of order")
        preds.append(pt)
    durations = [float(t) for t in cols["duration"]]
    if any(not 0.0 < t < float("inf") for t in durations):
        raise ValueError("durations must be positive and finite")
    releases = [float(r) for r in cols["release"]]
    if any(not 0.0 <= r < float("inf") for r in releases):
        raise ValueError("releases must be finite and >= 0")

    gi.append_batch(
        cols["id"],
        preds,
        demands,
        durations,
        list(cols["key"]),
        releases,
        [tuple(p) for p in cols["ext_preds"]],
    )
    loop.state = states
    loop.remaining = [int(r) for r in cols["remaining"]]
    loop.start = [None if t is None else float(t) for t in cols["start"]]
    loop.finish = [None if t is None else float(t) for t in cols["finish"]]
    session.tenants = list(cols["tenant"])
    for i, s in enumerate(states):
        if s == J_RUNNING and loop.start[i] is None:
            raise ValueError(f"job {cols['id'][i]!r}: running but has no start time")
        if s == J_DONE and (loop.start[i] is None or loop.finish[i] is None):
            raise ValueError(f"job {cols['id'][i]!r}: done but missing start/finish")

    _load_loop_state(session, snap, states)
    return session


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
