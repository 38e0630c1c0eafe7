"""Write-ahead request journal: crash recovery = snapshot + replay.

The durable service wraps its :class:`~repro.service.session.SchedulingSession`
in a :class:`JournaledSession`.  Every mutating verb (``submit`` /
``cancel`` / ``advance`` / ``drain`` / ``prune``) is applied in memory
and then appended to an on-disk journal — flushed and fsynced — *before*
the call returns, so an acknowledged operation is always recoverable:

    recovered state = latest snapshot + replay of the journal suffix.

Each record carries a monotonic sequence id (``seq``) and the session
RNG cursor after the operation; snapshots store the ``applied_seq`` they
contain, so replay skips records the snapshot already covers
(deduplication) and fails loudly on a gap.  An operation that died
before its journal append was never acknowledged; the client re-submits
and, if the record *did* land (crash between append and ack), the
duplicate-id rejection tells it the work is already admitted —
**at-least-once admission**, deduplicated by job id.

Journal format (``repro-journal/1``): JSON lines — one header
``{"format": "repro-journal/1", "base_seq": N}`` then one object per
record ``{"seq": N, "op": ..., ..., "rng": {...}}``.  A torn tail (the
final line lacking its newline — a crash mid-append) is dropped on scan
and truncated away before new appends; any other malformed line is
corruption and fails recovery loudly.  After every durable snapshot
(:meth:`JournaledSession.checkpoint`, or automatically every
``checkpoint_every`` records) the journal *rotates*: it is atomically
replaced by a fresh header, so its length is bounded by the checkpoint
interval.

Fault injection: pass a :class:`~repro.service.chaos.ChaosInjector` and
every verb runs through the ``op-begin`` / ``op-applied`` /
``op-journaled`` / ``mid-drain`` / ``checkpoint-temp`` /
``journal-torn`` crash points (see :mod:`repro.service.chaos`).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterable, Mapping, Sequence

from repro.service.checkpoint import load_session, save_session
from repro.service.chaos import ChaosInjector
from repro.service.session import JobSpec, SchedulingSession
from repro.util.atomic import atomic_write_text

__all__ = ["JOURNAL_FORMAT", "Journal", "JournaledSession", "scan_journal"]

#: Journal file format tag (bump on schema change).
JOURNAL_FORMAT = "repro-journal/1"

_COMPACT = {"separators": (",", ":")}


def scan_journal(path: str) -> tuple["dict[str, Any] | None", list[dict[str, Any]], int]:
    """Read a journal: ``(header, records, valid_bytes)``.

    ``valid_bytes`` is the length of the well-formed prefix — a torn
    final line (no trailing newline: a crash mid-append, before the
    fsync that precedes every acknowledgment) is excluded, so callers
    can truncate to it before appending.  Anything malformed *before*
    the tail is real corruption and raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header: "dict[str, Any] | None" = None
    records: list[dict[str, Any]] = []
    valid = 0
    last_seq = 0
    pos = 0
    size = len(data)
    while pos < size:
        nl = data.find(b"\n", pos)
        if nl < 0:
            break  # torn tail: written but never newline-terminated, never acked
        raw = data[pos:nl]
        line_no = len(records) + (1 if header is not None else 0) + 1
        try:
            rec = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ValueError(
                f"corrupt journal {path!r}: line {line_no} is not JSON ({exc})"
            ) from None
        if not isinstance(rec, dict):
            raise ValueError(
                f"corrupt journal {path!r}: line {line_no} is not an object"
            )
        if header is None:
            if rec.get("format") != JOURNAL_FORMAT:
                raise ValueError(
                    f"journal {path!r} has unsupported format "
                    f"{rec.get('format')!r} (expected {JOURNAL_FORMAT!r})"
                )
            header = rec
            last_seq = int(rec.get("base_seq", 0))
        else:
            seq = rec.get("seq")
            if not isinstance(seq, int) or isinstance(seq, bool):
                raise ValueError(
                    f"corrupt journal {path!r}: line {line_no} has no integer seq"
                )
            if seq <= last_seq:
                raise ValueError(
                    f"corrupt journal {path!r}: seq {seq} at line {line_no} "
                    f"does not increase (previous {last_seq})"
                )
            last_seq = seq
            records.append(rec)
        pos = nl + 1
        valid = pos
    return header, records, valid


class Journal:
    """Append-only fsynced record log with rotation (see module doc).

    ``fsync=False`` trades durability for speed — the in-process fuzz
    and hypothesis harnesses use it (what they test is replay logic,
    not the disk); the served process keeps the default.
    """

    def __init__(
        self,
        path: str,
        *,
        base_seq: int = 0,
        fsync: bool = True,
        chaos: "ChaosInjector | None" = None,
    ) -> None:
        self.path = os.fspath(path)
        self.base_seq = int(base_seq)
        self.fsync = fsync
        self.chaos = chaos
        self.appended = 0  # records since open/rotate: the auto-checkpoint counter
        self._fh = None
        self._m_appends = None  # bound instruments (None = uninstrumented)
        self._m_append_s = None
        self._m_fsync_s = None
        self._m_rotations = None

    def bind_metrics(self, registry) -> None:
        """Publish append/fsync timings and rotation counts (opt-in; the
        fuzz and hypothesis harnesses run uninstrumented)."""
        self._m_appends = registry.counter(
            "repro_journal_appends_total", "Write-ahead records appended"
        )
        self._m_append_s = registry.histogram(
            "repro_journal_append_seconds",
            "Full journal append latency (serialize + write + flush + fsync)",
        )
        self._m_fsync_s = registry.histogram(
            "repro_journal_fsync_seconds", "fsync portion of each journal append"
        )
        self._m_rotations = registry.counter(
            "repro_journal_rotations_total", "Journal rotations after durable snapshots"
        )

    # ------------------------------------------------------------------
    def _open(self):
        if self._fh is not None:
            return self._fh
        have_header = False
        if os.path.exists(self.path):
            header, _, valid = scan_journal(self.path)
            have_header = header is not None
            if valid < os.path.getsize(self.path):
                # drop the torn tail so the next append starts a clean line
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid)
        self._fh = open(self.path, "a", encoding="utf-8")
        if not have_header:
            self._write(
                json.dumps(
                    {"format": JOURNAL_FORMAT, "base_seq": self.base_seq}, **_COMPACT
                )
                + "\n"
            )
        return self._fh

    def _write(self, text: str) -> None:
        fh = self._fh
        fh.write(text)
        fh.flush()
        if self.fsync:
            if self._m_fsync_s is not None:
                t0 = time.perf_counter()
                os.fsync(fh.fileno())
                self._m_fsync_s.observe(time.perf_counter() - t0)
            else:
                os.fsync(fh.fileno())

    def append(self, record: Mapping[str, Any]) -> None:
        """Durably append one record; returns only once it would survive
        a crash (write + flush + fsync) — the acknowledgment barrier."""
        t0 = time.perf_counter() if self._m_append_s is not None else 0.0
        fh = self._open()
        line = json.dumps(record, **_COMPACT) + "\n"
        chaos = self.chaos
        if chaos is not None and chaos.fires("journal-torn"):
            # a torn append: only a byte prefix reaches the file
            fh.write(line[: max(1, len(line) // 2)])
            fh.flush()
            chaos.crash("journal-torn")
        self._write(line)
        self.appended += 1
        if self._m_append_s is not None:
            self._m_append_s.observe(time.perf_counter() - t0)
            self._m_appends.inc()

    def rotate(self, base_seq: int) -> None:
        """Atomically reset to a fresh header after a durable snapshot at
        ``base_seq`` — every dropped record has ``seq <= base_seq`` and
        would be deduplicated on replay anyway."""
        self.close()
        self.base_seq = int(base_seq)
        atomic_write_text(
            self.path,
            json.dumps({"format": JOURNAL_FORMAT, "base_seq": self.base_seq}, **_COMPACT)
            + "\n",
            fsync=self.fsync,
        )
        self.appended = 0
        if self._m_rotations is not None:
            self._m_rotations.inc()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _apply_record(session: SchedulingSession, rec: Mapping[str, Any]) -> None:
    """Replay one journal record against ``session`` (events are not
    materialized — replay is state reconstruction, not serving)."""
    op = rec.get("op")
    try:
        if op == "submit":
            session.submit([JobSpec.from_dict(r) for r in rec["jobs"]])
        elif op == "cancel":
            session.cancel(rec["id"])
        elif op == "advance":
            session.advance(float(rec["until"]), events=False)
        elif op == "drain":
            session.drain()
        elif op == "prune":
            session.prune_events()
        else:
            raise ValueError(f"unknown journal op {op!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"journal record seq {rec.get('seq')} failed to replay: {exc!r}"
        ) from exc


class JournaledSession:
    """A :class:`SchedulingSession` with write-ahead durability.

    Wraps the mutating verbs; reads go straight to :attr:`session`.
    ``checkpoint_every`` snapshots (and rotates the journal) after that
    many journaled records; :meth:`checkpoint` does it on demand.
    """

    def __init__(
        self,
        session: SchedulingSession,
        journal_path: str,
        snapshot_path: str,
        *,
        checkpoint_every: "int | None" = None,
        fsync: bool = True,
        chaos: "ChaosInjector | None" = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.session = session
        self.snapshot_path = os.fspath(snapshot_path)
        self.checkpoint_every = checkpoint_every
        self.fsync = fsync
        self.chaos = chaos
        self.journal = Journal(
            journal_path, base_seq=session.applied_seq, fsync=fsync, chaos=chaos
        )
        # recovery stats (filled by :meth:`recover`)
        self.recovered = False
        self.replayed = 0
        self.deduped = 0
        self._spans = None  # bound span log (None = untraced)
        self._span_rid = None  # callable giving the in-flight request's rid

    def bind_observability(self, registry, spans=None, rid_provider=None) -> None:
        """Wire metrics (and optionally a span log) through the durable
        layer: journal append/fsync instruments, recovery replay/dedup
        gauges, and a ``journal-commit`` span per acknowledged record
        (keyed by ``rid_provider()`` — the front-end supplies the rid of
        the request being served — falling back to the record's seq)."""
        self.journal.bind_metrics(registry)
        registry.gauge(
            "repro_journal_replayed_records",
            "Journal records replayed by the last recovery",
        ).set(self.replayed)
        registry.gauge(
            "repro_journal_deduped_records",
            "Journal records the last recovery's snapshot already covered",
        ).set(self.deduped)
        self._spans = spans
        self._span_rid = rid_provider

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        journal_path: str,
        snapshot_path: str,
        *,
        capacities: "Sequence[int] | None" = None,
        checkpoint_every: "int | None" = None,
        fsync: bool = True,
        chaos: "ChaosInjector | None" = None,
        session_kwargs: "Mapping[str, Any] | None" = None,
    ) -> "JournaledSession":
        """Restore the latest snapshot and replay the journal suffix.

        Records with ``seq <= snapshot.applied_seq`` are skipped
        (dedup); the suffix must then continue contiguously — a gap
        means the snapshot/journal pair diverged and recovery fails
        loudly rather than resuming silently wrong.  With neither file
        present a fresh session is built from ``capacities``.  Recovery
        ends with a fresh snapshot + journal rotation so repeated crashes
        never replay an ever-growing suffix.
        """
        if os.path.exists(snapshot_path):
            session = load_session(snapshot_path)
            recovered = True
        else:
            if capacities is None:
                raise ValueError(
                    "no snapshot to recover from and no capacities for a fresh session"
                )
            session = SchedulingSession(capacities, **dict(session_kwargs or {}))
            recovered = False
        replayed = deduped = 0
        if os.path.exists(journal_path):
            _, records, _ = scan_journal(journal_path)
            last = None  # the last replayed record: its rng is the cursor
            for rec in records:
                seq = rec["seq"]
                if seq <= session.applied_seq:
                    deduped += 1
                    continue
                if seq != session.applied_seq + 1:
                    raise ValueError(
                        f"journal gap: record seq {seq} cannot follow "
                        f"applied_seq {session.applied_seq} — snapshot and "
                        "journal are from different lineages"
                    )
                _apply_record(session, rec)
                session.applied_seq = seq
                last = rec
                replayed += 1
            if last is not None and last.get("rng") is not None:
                # the client's RNG cursor as of the last acknowledged op
                try:
                    session.rng.bit_generator.state = last["rng"]
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(
                        f"journal record seq {last['seq']}: malformed rng "
                        f"state ({exc!r})"
                    ) from exc
        js = cls(
            session,
            journal_path,
            snapshot_path,
            checkpoint_every=checkpoint_every,
            fsync=fsync,
            chaos=chaos,
        )
        js.recovered, js.replayed, js.deduped = recovered, replayed, deduped
        js.checkpoint()
        return js

    # ------------------------------------------------------------------
    # durability plumbing
    # ------------------------------------------------------------------
    def _point(self, point: str) -> None:
        if self.chaos is not None:
            self.chaos.maybe_crash(point)

    def _commit(self, op: str, payload: Mapping[str, Any]) -> None:
        session = self.session
        session.applied_seq += 1
        rec: dict[str, Any] = {"seq": session.applied_seq, "op": op}
        rec.update(payload)
        rec["rng"] = session.rng.bit_generator.state
        spans = self._spans
        if spans is not None:
            rid = self._span_rid() if self._span_rid is not None else None
            t0 = spans.now()
            self.journal.append(rec)
            spans.record(op, "journal-commit", t0, spans.now() - t0,
                         rid=rid if rid is not None else session.applied_seq)
        else:
            self.journal.append(rec)
        if (
            self.checkpoint_every is not None
            and self.journal.appended >= self.checkpoint_every
        ):
            self.checkpoint()

    def checkpoint(self) -> None:
        """Atomically snapshot the session and rotate the journal."""
        before = None
        if self.chaos is not None:
            chaos = self.chaos

            def before(tmp: str) -> None:
                chaos.maybe_crash("checkpoint-temp")

        save_session(
            self.session,
            self.snapshot_path,
            indent=None,
            fsync=self.fsync,
            before_replace=before,
        )
        self.journal.rotate(self.session.applied_seq)

    def adopt(self, session: SchedulingSession) -> None:
        """Adopt a replacement session (the ``restore`` op): snapshot it
        and rotate the journal so durability tracks the new lineage."""
        self.session = session
        self.checkpoint()

    def close(self) -> None:
        self.journal.close()

    # ------------------------------------------------------------------
    # the journaled verbs
    # ------------------------------------------------------------------
    def submit(self, jobs: "Iterable[JobSpec | Mapping[str, Any]]"):
        specs = [
            s if isinstance(s, JobSpec) else JobSpec.from_dict(s) for s in jobs
        ]
        self._point("op-begin")
        ids = self.session.submit(specs)
        self.record_submit(specs)
        return ids

    def record_submit(self, specs: Sequence[JobSpec]) -> None:
        """Journal an admission batch that was already applied (the
        front-end applies per-spec under fair sharing, then journals the
        successfully admitted batch once, in admission order)."""
        self._point("op-applied")
        self._commit("submit", {"jobs": [s.to_dict() for s in specs]})
        self._point("op-journaled")

    def cancel(self, job_id):
        self._point("op-begin")
        gone = self.session.cancel(job_id)
        self._point("op-applied")
        self._commit("cancel", {"id": job_id})
        self._point("op-journaled")
        return gone

    def advance(self, until: float, *, events: bool = True):
        self._point("op-begin")
        out = self.session.advance(until, events=events)
        self._point("op-applied")
        self._commit("advance", {"until": float(until)})
        self._point("op-journaled")
        return out

    def drain(self) -> None:
        self._point("op-begin")
        chaos = self.chaos
        if chaos is not None and chaos.fires("mid-drain"):
            # crash with the drain half done: some events processed in
            # memory, nothing journaled — recovery replays to the last
            # acknowledged op and the client's drain retry finishes it
            nxt = self.session.loop.next_time
            if nxt is not None:
                self.session.advance(max(nxt, self.session.now), events=False)
            chaos.crash("mid-drain")
        self.session.drain()
        self._point("op-applied")
        self._commit("drain", {})
        self._point("op-journaled")

    def prune_events(self) -> int:
        self._point("op-begin")
        dropped = self.session.prune_events()
        self._point("op-applied")
        self._commit("prune", {})
        self._point("op-journaled")
        return dropped
