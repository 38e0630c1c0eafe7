"""Versioned session snapshots with an exact-resume guarantee.

A checkpoint (format ``repro-session/3``) holds the rows of a
:class:`~repro.service.session.SchedulingSession` and nothing they imply:
the live rows as columns (id, predecessor indices, satisfied predecessor
ids, demand, duration, priority key, release, tenant, state, start,
finish), the order the running rows' completions pop in (``running``),
the clock, the compaction archive and policy, the cancellations, the
journal cursor and the RNG state.  Each row's readiness count, the ready
queue, the availability, the event heap and the counters follow from the
rows, and restore derives them by the loop's own rules
(:meth:`~repro.engine.dispatch.IncrementalPriorityLoop.load`).  The
guarantee — validated by the conformance fuzz family and the hypothesis
suite — is **exact resume**:

    ``restore_session(checkpoint_session(s))`` continues event-for-event
    identically to ``s`` itself, for any interleaving of further
    ``submit`` / ``cancel`` / ``advance`` / ``drain`` calls.

It holds because all scheduler state is plain python scalars (floats
survive JSON exactly; keys and ids are carried verbatim) and the one
order the rows cannot fix — which of two completions at exactly one time
pops, and is reported, first — is ``running``.

Restore admits a row, live or archived, by the rules ``submit`` admits by
(the layout's bounds rule :meth:`DemandLayout.row
<repro.instance.compiled.DemandLayout.row>`, the key rule
:func:`~repro.instance.compiled.priority_key` and the numeric rule
:func:`~repro.service.session.duration_and_release`), and every row by
:func:`_check_rows`, the one check of how the rows' states, times,
predecessors and demands fit together.  The scalars ``applied_seq``,
``compactions`` and ``compact.min_rows`` are refused by name unless
whole, never truncated.

The archive (columns in the session, see
:class:`~repro.service.session.Archive`) is written as one record dict per
job.  The ``events`` key holds only ``["cancel", id, t]`` rows, the
session's :attr:`~repro.service.session.SchedulingSession.cancels`: one
per cancelled row, archived or live, at a time in ``[0, clock]``.  A
snapshot written while the session still kept an event log (``submit``,
``start`` and ``finish`` rows beside the cancellations) restores too:
every row is checked and only the cancellations are kept.

A ``repro-session/2`` snapshot — the same rows plus the state they imply
(``seq``, ``ready``, ``heap``, ``available``, ``counters``, ``remaining``)
— restores through the same derivation, ``running`` read off its heap in
pop order; its stored state must equal the derived state, and its heap's
seqs be distinct and below its ``seq``.  ``repro-session/1`` is refused.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any

import numpy as np

from repro.engine.dispatch import J_CANCELLED, J_DONE, J_QUEUED, J_RUNNING, J_WAITING, TIME_EPS
from repro.instance.compiled import priority_key
from repro.service.session import STATE_NAMES, SchedulingSession, duration_and_release, real_number

__all__ = [
    "SESSION_FORMAT", "checkpoint_session", "restore_session", "save_session", "load_session",
]

#: Checkpoint format tag (bump on schema change).
SESSION_FORMAT = "repro-session/3"
#: The previous format, still read: the rows plus the loop state they imply.
_V2 = "repro-session/2"

_STATE_INDEX = {name: i for i, name in enumerate(STATE_NAMES)}

_JOB_COLUMNS = (
    "id", "preds", "ext_preds", "demand", "duration", "key",
    "release", "tenant", "state", "start", "finish",
)


def checkpoint_session(session: SchedulingSession) -> dict[str, Any]:
    """Snapshot the session's rows as a JSON-ready dict."""
    loop = session.loop
    return {
        "format": SESSION_FORMAT,
        "capacities": list(session.capacities),
        "time_eps": loop.eps,
        "clock": loop.now,
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
            "start": list(loop.start),
            "finish": list(loop.finish),
        },
        # the heap's completions in pop order: the rows fix it except
        # between completions at exactly one time
        "running": [c for _, _, c in sorted(loop.heap) if c >= 0],
        # the archive's columns, one record dict per row
        "archive": list(session.archive.records()),
        "events": [("cancel", jid, t) for jid, t in session.cancels],
        # journal cursor: recovery skips journal records with seq <= this
        "applied_seq": session.applied_seq,
        "rng": session.rng.bit_generator.state,
    }


def restore_session(data: "dict[str, Any] | str") -> SchedulingSession:
    """Rebuild a session from a checkpoint; exact resume (see module doc).

    Raises ``ValueError`` on an unknown format, on malformed records, on
    rows the loop cannot have produced and, for a ``repro-session/2``
    snapshot, on stored loop state its rows do not derive, so a corrupted
    snapshot never resumes silently wrong.
    """
    snap = json.loads(data) if isinstance(data, str) else data
    if not isinstance(snap, dict):
        raise ValueError(
            f"session checkpoint must be a JSON object, got {type(snap).__name__}"
        )
    fmt = snap.get("format")
    if fmt not in (SESSION_FORMAT, _V2):
        raise ValueError(
            f"unsupported session checkpoint format {fmt!r} "
            f"(reads {SESSION_FORMAT!r} and {_V2!r})"
        )
    try:
        return _restore(snap, v2=fmt == _V2)
    except (KeyError, TypeError, IndexError, OverflowError, AttributeError) as exc:
        # truncated or hand-edited snapshots must fail the documented way
        # (ValueError), not leak KeyError/TypeError to the caller
        raise ValueError(f"malformed session checkpoint: {exc!r}") from exc


def _whole(name: str, value, least: int = 0) -> int:
    """``value`` as an int, refused by ``name`` unless it is a whole number
    ``>= least`` — never truncated, and a boolean is not a number."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if isinstance(value, bool) or whole != value or whole < least:
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
    return whole


def _restore(snap: dict[str, Any], *, v2: bool) -> SchedulingSession:
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
        compact_threshold=None if thr is None else real_number(thr),
        compact_min_rows=_whole("compact.min_rows", compact.get("min_rows", 512), 1),
    )
    session.compactions = _whole("compactions", snap.get("compactions", 0))
    # additive field: snapshots written before the journal read back as 0
    session.applied_seq = _whole("applied_seq", snap.get("applied_seq", 0))
    now = float(snap["clock"])
    if not 0.0 <= now < math.inf:
        raise ValueError(f"clock must be finite and >= 0, got {now}")

    jobs = snap["jobs"]
    cols = {name: jobs[name] for name in _JOB_COLUMNS + (("remaining",) if v2 else ())}
    ids = cols["id"]
    n = len(ids)
    if any(len(c) != n for c in cols.values()):
        raise ValueError("job columns have inconsistent lengths")
    if len(set(ids)) != n:
        # one id, one row: the loop's index would keep the last row of a
        # repeated id, and drain would run every one of them
        jid = next(j for k, j in enumerate(ids) if j in ids[:k])
        raise ValueError(f"job {jid!r} appears more than once among the live rows")

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
        pt = tuple(pt)
        if any(type(p) is not int or not 0 <= p < row for p in pt):
            raise ValueError(f"job {jid!r}: predecessor indices {pt} out of order")
        preds.append(pt)
    start = [None if t is None else real_number(t) for t in cols["start"]]
    finish = [None if t is None else real_number(t) for t in cols["finish"]]
    if v2:  # a v2 heap's completions, in pop order, are v3's running rows
        running = [c for _, _, c in sorted(map(tuple, snap["heap"])) if c >= 0]
    else:
        running = snap["running"]
    _check_running(ids, states, running)

    loop = session.loop
    loop.load(
        ids, preds, [tuple(p) for p in cols["ext_preds"]], demands, durations,
        keys, releases, states, start, finish, now=now, running=running,
    )
    session.tenants = list(cols["tenant"])
    # the stored rows, as one batch admitted at the stored clock
    session.span_bound = session._bounded_span(releases, durations)
    _load_history(session, snap)
    _check_rows(session)
    if v2:
        _check_v2(session, snap)
    return session


def _check_running(ids, states, running) -> None:
    """Refuse by job a ``running`` list that does not name each running
    row exactly once."""
    for k, i in enumerate(running):
        if type(i) is not int or not 0 <= i < len(ids):
            raise ValueError(f"running rows reference unknown job index {i!r}")
        if states[i] != J_RUNNING or i in running[:k]:
            why = "more than once" if states[i] == J_RUNNING else f"but is {STATE_NAMES[states[i]]}"
            raise ValueError(f"job {ids[i]!r}: listed as running {why}")
    for i, s in enumerate(states):
        if s == J_RUNNING and i not in running:
            raise ValueError(f"job {ids[i]!r}: running but not listed among the running rows")


def _check_rows(session: SchedulingSession) -> None:
    """Refuse by job a row, live or archived, that the loop cannot have
    produced — the one check of the rows the loop state is derived from:

    * waiting, queued and cancelled rows have neither start nor finish; a
      running row has ``start <= clock <= start + duration`` and no
      finish; a done row has ``start <= finish <= clock`` and ``finish <=
      start + duration <= finish + TIME_EPS``;
    * a queued, running or done row's predecessors are done, and it was
      released by its start (by the clock while queued), within the batch
      tolerance; a row's satisfied predecessors (``ext_preds``) are done;
    * a waiting row waits for something — a predecessor not done, or its
      release after the clock — and for no cancelled predecessor;
    * the running rows fit the platform together.
    """
    loop = session.loop
    now = loop.now
    done = session.done_ids
    order = loop.order
    state = loop.state
    live = (
        (order[i], s, loop.start[i], loop.finish[i], loop.duration[i], loop.release[i],
         [order[p] for p in loop.preds[i]], loop.ext_preds[i])
        for i, s in enumerate(state)
    )
    archived = (
        (r["id"], _STATE_INDEX[r["state"]], r["start"], r["finish"], r["duration"],
         r["release"], r["preds"], ())
        for r in session.archive.records()
    )
    for jid, s, t0, t1, duration, release, pred_ids, ext in chain(archived, live):
        if s == J_DONE:
            # the completion popped at t1, in the batch its time fell in
            ok = t0 is not None and t1 is not None and t0 <= t1 <= now and (
                t1 <= t0 + duration <= t1 + TIME_EPS
            )
        elif s == J_RUNNING:
            ok = t0 is not None and t1 is None and t0 <= now <= t0 + duration
        else:
            ok = t0 is None and t1 is None
        if not ok:
            raise ValueError(
                f"job {jid!r}: a {STATE_NAMES[s]} row cannot have start {t0} and "
                f"finish {t1} at clock {now}"
            )
        if J_QUEUED <= s <= J_DONE:
            if not release <= (now if t0 is None else t0) + TIME_EPS:
                raise ValueError(f"job {jid!r}: {STATE_NAMES[s]} before its release {release}")
            ext = chain(pred_ids, ext)
        for p in ext:
            if p not in done:
                raise ValueError(
                    f"job {jid!r}: {STATE_NAMES[s]} but its predecessor {p!r} is not done"
                )
    for i, s in enumerate(state):
        if s == J_WAITING and not loop.remaining[i]:
            raise ValueError(f"job {order[i]!r}: waiting with no outstanding predecessors")
        if s == J_WAITING and any(state[p] == J_CANCELLED for p in loop.preds[i]):
            raise ValueError(f"job {order[i]!r}: waiting on a cancelled predecessor")
    used = [sum(a) for a in zip(*(d for d, s in zip(loop.demand, state) if s == J_RUNNING))]
    if any(u > c for u, c in zip(used, loop.layout.capacities)):
        raise ValueError("running jobs overcommit the platform capacities")


def _check_v2(session: SchedulingSession, snap: dict[str, Any]) -> None:
    """Refuse a ``repro-session/2`` snapshot whose stored loop state is not
    the state its rows derive, naming the first field that differs.  The
    heap is compared as its ``(time, code)`` entries sorted: pop order
    between a completion and a release at one time changes nothing, and
    between completions it is where ``running`` was read from."""
    loop = session.loop
    live = [s != J_CANCELLED for s in loop.state]
    remaining = [_whole("remaining", r) for r in snap["jobs"]["remaining"]]
    for name, stored, derived in (
        ("heap", sorted((t, c) for t, _, c in snap["heap"]),
         sorted((t, c) for t, _, c in loop.heap)),
        ("ready", snap["ready"], [i for _, i in loop.rq]),
        ("remaining", [r for r, k in zip(remaining, live) if k],
         [r for r, k in zip(loop.remaining, live) if k]),
        ("available", snap["available"], list(loop.available())),
        ("counters", snap["counters"], vars(session.counters)),
    ):
        if stored != derived:
            raise ValueError(
                f"stored {name} {stored!r} disagrees with the rows (derived {derived!r})"
            )
    seq = _whole("seq", snap["seq"])
    seqs = [sq for _, sq, _ in snap["heap"]]
    for sq in seqs:
        if not sq < seq:
            raise ValueError(f"heap entry seq {sq} is not below the stored seq {seq}")
    if len(set(seqs)) != len(seqs):
        raise ValueError(f"heap entry reuses seq {next(s for s in seqs if seqs.count(s) > 1)}")


def _load_history(session: SchedulingSession, snap: dict[str, Any]) -> None:
    """The session half of a restore — archive, counters, cancellations
    and RNG — over the loaded rows."""
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
    ndone = len(done_ids)
    session.archived_states.update(done=ndone, cancelled=len(arch) - ndone)
    loop.ncompleted += ndone
    counters = session.counters
    counters.submitted, counters.completed = len(session), loop.ncompleted
    counters.cancelled = loop.state.count(J_CANCELLED) + len(arch) - ndone
    session.archived_makespan = max(
        (f for f, s in zip(arch.finish, arch.state) if s == J_DONE), default=0.0
    )
    done_ids.update(jid for jid, st in zip(loop.order, loop.state) if st == J_DONE)
    session.done_ids = done_ids

    # a snapshot of a session that kept an event log also holds submit,
    # start and finish rows: each is checked, and only cancellations kept.
    # Each cancelled row, archived or live, is named by one cancel row, at
    # a time the clock has reached: ``unnamed`` holds those not named yet
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
    if unnamed:
        raise ValueError(f"job {next(iter(unnamed))!r} is cancelled but no cancel row names it")
    if snap.get("rng") is not None:
        rng = np.random.default_rng()
        rng.bit_generator.state = snap["rng"]
        session.rng = rng


def _load_archive(arch, records, layout) -> None:
    """Append the snapshot's archive records to the session's columns,
    refusing by id a record the columns cannot hold: a state other than
    done or cancelled (compaction archives no other), a demand the
    layout's bounds rule refuses (flattened, a row of the wrong length
    would shift every later one; every archived row was admitted by that
    rule), a key ``submit`` refuses, or a duration or release ``submit``'s
    numeric rule refuses (:func:`~repro.service.session.duration_and_release`:
    ``inf`` or ``-5.0`` would otherwise restore)."""
    demands, keys, durations, releases = [], [], [], []
    for rec in records:
        if rec["state"] not in ("done", "cancelled"):
            raise ValueError(
                f"archived job {rec['id']!r}: state {rec['state']!r} is neither "
                "done nor cancelled"
            )
        try:
            demands.append(layout.row(rec["id"], rec["demand"]))
            keys.append(priority_key(rec["id"], rec["key"]))
            duration, release = duration_and_release(rec["id"], rec["duration"], rec["release"])
        except ValueError as exc:
            raise ValueError(f"archived {exc}") from None
        durations.append(duration)
        releases.append(release)
    arch.extend(
        [rec["id"] for rec in records],
        [_STATE_INDEX[rec["state"]] for rec in records],
        demands,
        durations,
        keys,
        [rec["preds"] for rec in records],
        releases,
        [rec["tenant"] for rec in records],
        [None if rec["start"] is None else real_number(rec["start"]) for rec in records],
        [None if rec["finish"] is None else real_number(rec["finish"]) for rec in records],
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
