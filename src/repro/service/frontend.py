"""The `repro serve` front-end: JSON-lines protocol, batching, fair shares.

One request per line, one JSON response per line — over stdin/stdout
(:func:`serve_stdio`) or a TCP socket (:func:`serve_tcp`); both run the
same loop over a transport-free :class:`ServiceFrontend` around one
:class:`SchedulingSession`, so tests and scripted clients exercise the
full protocol without a process boundary.

**Batched admission.**  Submissions are buffered, not admitted
immediately: a batch is admitted when the buffer reaches ``--batch-size``
jobs or the oldest buffered job has waited ``--batch-interval`` (wall
clock) — whichever comes first — and always before any operation whose
semantics depend on the admitted set (``advance``, ``drain``,
``checkpoint``, ``trace``, ``validate``, explicit ``flush``), so virtual
time never advances past work the client already handed over.

**The admission path** touches each job once.  A ``submit`` parses its
records (:meth:`JobSpec.from_dict` — one validating pass per record, a
bad record refuses the whole request before anything is buffered) and
hands the parsed list to the queue in one call
(:meth:`~repro.service.fairshare.FairQueue.enqueue_many`, which also
applies ``--max-pending`` and stamps the request with the wall clock —
the queue, not this module, knows how long the oldest buffered job has
waited).  A flush drains the queue and admits the whole batch with one
:meth:`SchedulingSession.submit`.

**Weighted fair sharing.**  Admission interleaves tenants by stride
scheduling (see :mod:`repro.service.fairshare`): a tenant with weight 2
gets twice the admission share — and thus dispatch preference — of a
weight-1 tenant under contention, while each tenant's own jobs stay
FIFO.

Requests (``op`` selects; everything else is the payload)::

    {"op": "submit", "jobs": [{"id": "j1", "demand": [2, 1], "duration": 3.5,
                               "preds": [], "release": 0.0, "tenant": "acme"}]}
    {"op": "flush"}                       admit everything buffered now
    {"op": "cancel", "id": "j1"}          buffered or admitted (cascades)
    {"op": "advance", "until": 12.5}      move virtual time, report events
    {"op": "drain"}                       run to quiescence
    {"op": "tenant", "name": "acme", "weight": 2.0}
    {"op": "status"} · {"op": "stats"} · {"op": "validate"} · {"op": "prune"}
    {"op": "checkpoint", "path": "s.json"} · {"op": "restore", "path": "s.json"}
    {"op": "trace", "path": "t.json"}
    {"op": "metrics"}                     Prometheus text + family dump
    {"op": "spans", "for_rid": 7}         the request-span ring (see repro.obs)
    {"op": "shutdown"}

**Observability.**  The front-end owns a
:class:`~repro.obs.MetricsRegistry` (request latency histograms per op,
admission outcomes, queue depths, journal timings, …) and a
:class:`~repro.obs.SpanLog` (``request`` / ``admit`` / ``journal-commit``
/ ``dispatch`` phases keyed by the wire ``rid``); the ``metrics`` op
returns the rendered exposition, and ``repro serve --metrics-port P``
additionally serves it over ``GET /metrics``.

Each request may be sent bare (wire v1) or wrapped in the versioned
envelope ``{"v": 2, "rid": ..., "op": ...}`` (wire v2, see
:mod:`repro.service.wire`); a v2 request is answered with ``"v"``/
``"rid"`` echoed.  Responses carry ``{"ok": true, "op": ...}`` plus
op-specific fields, or ``{"ok": false, "error": <stable code>,
"detail": <diagnostic>}`` — a malformed request never kills the service.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
import time
from typing import Any, Callable, TextIO

from repro.obs import MetricsRegistry, SpanLog, process_rss_bytes, render_dump
from repro.service.chaos import ChaosCrash
from repro.service.checkpoint import (
    checkpoint_session,
    load_session,
    restore_session,
    save_session,
)
from repro.service.fairshare import FairQueue
from repro.service.journal import JournaledSession
from repro.service.session import JobSpec, SchedulingSession, real_number
from repro.service.supervisor import RESTARTS_ENV
from repro.service.wire import (
    ADMISSION_FAILED,
    BACKPRESSURE,
    INTERNAL,
    INVALID_REQUEST,
    error_response,
    unwrap_request,
    wrap_response,
)
from repro.util.atomic import atomic_write_text

__all__ = ["ServiceFrontend", "serve_stdio", "serve_tcp", "write_trace"]

#: Default per-request size bound for both transports (chars on stdio,
#: bytes on TCP); ``repro serve --max-request-bytes`` overrides.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20


def write_trace(session: SchedulingSession, path: str) -> None:
    """Atomically write the session's v3 trace to ``path`` (the one trace
    serializer, shared by the ``trace`` op and the CLI's ``--trace``
    shutdown hook) — a crash mid-write never leaves a torn file."""
    atomic_write_text(path, json.dumps(session.to_trace(), indent=1) + "\n")


#: ops the due-batch pre-flush skips.  ``submit`` and ``flush`` admit on
#: their own terms; ``restore`` must see the buffer as it is — flushing a
#: due buffer into the session about to be replaced would silently
#: discard the client's work behind its back
_NO_PREFLUSH = ("submit", "flush", "restore")


class ServiceFrontend:
    """One ``repro-wire`` protocol endpoint around one :class:`SchedulingSession`.

    Everything the wire promises is decided here: the v1/v2 envelope, the
    exception → error-code table, size-or-interval batched admission off
    the one :class:`FairQueue`, per-tenant ``max_pending``, what an
    implicit flush reports, and the request / error / latency /
    admission-outcome / uptime / RSS metric families and request spans.
    The serving loops (:func:`serve_stdio`, :func:`serve_tcp`) need only
    :meth:`handle_request` and :attr:`closed`.

    ``clock`` injects the wall-clock source for the batch interval (tests
    pass a fake); ``batch_size=1`` admits every submission immediately.
    ``max_pending`` bounds each tenant's buffer: jobs past the bound are
    refused with an explicit ``backpressure`` response field instead of
    growing memory without limit.  ``durable`` wires a
    :class:`~repro.service.journal.JournaledSession` in: mutating verbs
    are write-ahead journaled before they are acknowledged, so a crashed
    worker recovers every acknowledged operation.  The registry and span
    log may be shared (tests, benches).
    """

    def __init__(
        self,
        session: "SchedulingSession | None" = None,
        *,
        batch_size: int = 32,
        batch_interval: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
        max_pending: "int | None" = None,
        durable: "JournaledSession | None" = None,
        metrics: "MetricsRegistry | None" = None,
        spans: "SpanLog | None" = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        if batch_interval < 0:
            raise ValueError(f"batch interval must be >= 0, got {batch_interval}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if durable is not None:
            if session is not None and session is not durable.session:
                raise ValueError("session and durable.session must be the same object")
            session = durable.session
        if session is None:
            raise ValueError("a session (or a durable wrapper) is required")
        self.session = session
        self.durable = durable
        self.batch_size = batch_size
        self.batch_interval = batch_interval
        self.max_pending = max_pending
        self.clock = clock
        self.closed = False
        self.queue = FairQueue()
        # -- observability (always on at the service tier; the *batch*
        # engine stays uninstrumented because sessions only record once
        # bound)
        self.metrics = m = metrics if metrics is not None else MetricsRegistry()
        self.spans = spans if spans is not None else SpanLog()
        self._rid: Any = None  # rid of the request being served, for spans
        self._cur_op: "str | None" = None
        # what this request's flushes admitted / refused (see _dispatch)
        self._flushed: "tuple[list[Any], list[dict[str, Any]]]" = ([], [])
        self._started = self.clock()
        self._m_requests = m.counter(
            "repro_requests_total", "Protocol requests handled", labels=("op",)
        )
        self._m_errors = m.counter(
            "repro_request_errors_total",
            "Requests answered with a stable error code",
            labels=("op", "code"),
        )
        self._m_latency = m.histogram(
            "repro_request_latency_seconds",
            "Wall-clock request handling latency",
            labels=("op",),
        )
        self._m_outcomes = m.counter(
            "repro_admission_outcomes_total",
            "Flush-time admission outcomes (admitted / admission_failed / backpressure)",
            labels=("outcome",),
        )
        self._m_uptime = m.gauge(
            "repro_uptime_seconds", "Seconds since this front-end was built"
        )
        self._m_rss = m.gauge(
            "repro_process_rss_bytes", "Resident set size of this process"
        )
        self.queue.bind_metrics(m)
        # the supervisor's lifetime restart count, seeded once from the
        # env var it exports into each child — the gauge is the source
        # the status/stats fields read from now on
        self._restarts = _env_restarts()
        m.gauge(
            "repro_restarts",
            "Supervisor restarts of this worker (boot-time seed)",
        ).set(self._restarts)
        session.bind_metrics(m)
        if durable is not None:
            durable.bind_observability(m, self.spans, rid_provider=lambda: self._rid)

    @property
    def _mut(self) -> "JournaledSession | SchedulingSession":
        """The mutation target: the journaled wrapper when durable."""
        return self.durable if self.durable is not None else self.session

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _batch_due(self) -> bool:
        if self.queue.buffered == 0:
            return False
        if self.queue.buffered >= self.batch_size:
            return True
        # the queue keeps a stamp per buffered request: cancelling the oldest
        # buffered job must not let younger jobs inherit its waiting time
        return self.clock() - self.queue.oldest_stamp() >= self.batch_interval

    def flush(self) -> tuple[list[Any], list[dict[str, Any]]]:
        """Admit everything buffered, in weighted-fair order.

        Returns ``(admitted_ids, errors)``: a job the session refuses
        produces one error record (``id``, stable ``error`` code,
        ``detail``) and does not block the rest of the batch.  Both are
        also noted for the request being served, so that no reply — a
        refusal included — can swallow what its flushes did, and counted
        into ``repro_admission_outcomes_total``.
        """
        pending = self.queue.drain_fair()
        if not pending:
            return [], []
        admitted, errors = self._admit(pending)
        self._flushed[0].extend(admitted)
        self._flushed[1].extend(errors)
        if admitted:
            self._m_outcomes.inc(len(admitted), outcome="admitted")
        for rec in errors:
            self._m_outcomes.inc(outcome=rec["error"])
        return admitted, errors

    def _admit(
        self, pending: "list[JobSpec]"
    ) -> tuple[list[Any], list[dict[str, Any]]]:
        """One :meth:`SchedulingSession.submit` for the whole batch.

        A job the session rejects (unknown predecessor, duplicate id, bad
        demand) produces one error record and does not block the rest.  A
        job whose predecessor lands *later in the same flush* (a
        cross-tenant dependency the fair-share interleaving reordered) is
        retried after the rest, so legal intra-call dependencies never
        depend on tenant names — only genuinely unsatisfiable jobs error.
        """
        errors: list[dict[str, Any]] = []
        s0 = self.spans.now()
        durable = self.durable
        if durable is not None and durable.chaos is not None:
            durable.chaos.maybe_crash("op-begin")
        admitted_specs: list[JobSpec] = []
        try:
            # fast path: the whole flush as one all-or-nothing batch —
            # identical admission order and keys to the per-spec loop,
            # and (when durable) one journal record + fsync per flush
            # instead of one per job
            self.session.submit(pending)
            admitted_specs = pending
        except (ValueError, TypeError):
            # something in the batch does not admit: fall back to per-spec
            # admission so individual bad jobs error without blocking the
            # rest (the batch attempt had no side effects)
            while pending:
                deferred: list[tuple[JobSpec, str]] = []
                progressed = False
                for spec in pending:
                    try:
                        self.session.submit([spec])
                        admitted_specs.append(spec)
                        progressed = True
                    except (ValueError, TypeError) as exc:
                        deferred.append((spec, str(exc)))
                if not progressed:  # fixpoint: what's left can never admit
                    errors.extend(
                        {"id": s.id, "error": ADMISSION_FAILED, "detail": e}
                        for s, e in deferred
                    )
                    break
                pending = [s for s, _ in deferred]
        if durable is not None and admitted_specs:
            durable.record_submit(admitted_specs)
        self.spans.record(
            self._cur_op or "flush", "admit", s0, self.spans.now() - s0,
            rid=self._rid,
        )
        return [s.id for s in admitted_specs], errors

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def handle_request(self, req: Any) -> dict[str, Any]:
        """Process one protocol request; never raises on client errors.

        Accepts both wire shapes (bare v1 and the v2 envelope, which is
        stripped here and re-applied — with the ``rid`` echoed — on the
        response).  The batch-interval clock is consulted before *every*
        op: a buffer whose oldest job has waited past the interval is
        admitted no matter which request arrives next (status, cancel,
        …), so the "size or interval, whichever first" contract does not
        depend on further submissions.  (The loop is synchronous — with
        no requests at all, admission happens at the next one.)  Jobs
        admitted this way are reported as ``admitted_by_batch``.
        """
        body, versioned, rid, err = unwrap_request(req)
        if err is not None:
            return wrap_response(err, versioned, rid)
        op = body.get("op") if isinstance(body, dict) else None
        label = op if isinstance(op, str) else "invalid"
        self._rid = rid
        self._cur_op = label
        t0 = time.perf_counter()
        s0 = self.spans.now()
        try:
            resp = self._dispatch(body)
        finally:
            self._rid = None
            self._cur_op = None
        dur = time.perf_counter() - t0
        self._m_requests.inc(op=label)
        self._m_latency.observe(dur, op=label)
        if resp.get("ok") is False:
            self._m_errors.inc(op=label, code=str(resp.get("error", "internal")))
        self.spans.record(label, "request", s0, self.spans.now() - s0, rid=rid)
        return wrap_response(resp, versioned, rid)

    def _dispatch(self, req: Any) -> dict[str, Any]:
        if not isinstance(req, dict) or "op" not in req:
            return error_response(None, INVALID_REQUEST, "request must be an object with an 'op'")
        op = req["op"]
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return error_response(op, INVALID_REQUEST, f"unknown op {op!r}")
        self._flushed = ([], [])
        by_batch: list[Any] = []
        try:
            if op not in _NO_PREFLUSH and self._batch_due():
                by_batch = self.flush()[0]
            resp = handler(req)
        except KeyError as exc:
            resp = error_response(op, INVALID_REQUEST, f"missing required field {exc}")
        except (ValueError, TypeError) as exc:
            # TypeError covers structurally malformed payloads (scalar where
            # a list is expected, non-numeric weight, ...): a bad request
            # must produce an error response, never kill the service
            resp = error_response(op, INVALID_REQUEST, str(exc))
        except OSError as exc:
            resp = error_response(op, INTERNAL, str(exc))
        # an implicit flush must never swallow what it did.  An ok reply
        # lists the due batch it admitted (what advance/drain/... flush on
        # their own is implied by their payload, and submit/flush report
        # under their own keys); a refusal implies nothing, so it lists
        # every admission.  Rejections ride along on every reply.
        admitted, errors = self._flushed
        if resp.get("ok") is False:
            by_batch = admitted
        elif op in ("submit", "flush"):
            errors = []
        if by_batch:
            resp.setdefault("admitted_by_batch", by_batch)
        if errors:
            resp.setdefault("admission_errors", []).extend(errors)
        resp.setdefault("ok", True)
        resp.setdefault("op", op)
        return resp

    # -- argument checks -------------------------------------------------
    @staticmethod
    def _path_arg(req: dict[str, Any]) -> str | None:
        """The optional ``path`` field, required to be a string — an integer
        would reach ``open()`` as a raw file descriptor (fd 1 = the response
        stream) and get written over and closed."""
        path = req.get("path")
        if path is not None and not isinstance(path, str):
            raise ValueError(f"path must be a string, got {type(path).__name__}")
        return path

    @staticmethod
    def _limit_arg(req: dict[str, Any]) -> "int | None":
        """The optional ``limit`` of the ``spans`` op."""
        limit = req.get("limit")
        if limit is not None:
            if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
                raise ValueError(f"limit must be a non-negative integer, got {limit!r}")
        return limit

    # -- observability ---------------------------------------------------
    def _metric_families(self) -> list[dict[str, Any]]:
        """The family records one scrape carries (the sampled-on-read
        uptime and RSS gauges refreshed first)."""
        self._m_uptime.set(self.clock() - self._started)
        self._m_rss.set(process_rss_bytes())
        return self.metrics.dump()

    def render_metrics(self) -> str:
        """The Prometheus text exposition — what ``GET /metrics`` and the
        ``metrics`` op both serve."""
        return render_dump(self._metric_families())

    # -- ops -----------------------------------------------------------
    def _op_submit(self, req: dict[str, Any]) -> dict[str, Any]:
        jobs = req.get("jobs")
        if not isinstance(jobs, list):
            raise ValueError("submit needs a 'jobs' list")
        # parsed whole before anything is buffered: one bad record refuses
        # the request
        specs = list(map(JobSpec.from_dict, jobs))
        refused = self.queue.enqueue_many(specs, self.clock(), self.max_pending)
        resp: dict[str, Any] = {"buffered": self.queue.buffered}
        if refused:
            resp["backpressure"] = refused
            self._m_outcomes.inc(len(refused), outcome=BACKPRESSURE)
        if self._batch_due():
            admitted, errors = self.flush()
            resp.update({"admitted": admitted, "buffered": 0})
            if errors:
                resp["errors"] = errors
        return resp

    def _op_flush(self, req: dict[str, Any]) -> dict[str, Any]:
        admitted, errors = self.flush()
        resp: dict[str, Any] = {"admitted": admitted}
        if errors:
            resp["errors"] = errors
        return resp

    def _op_metrics(self, req: dict[str, Any]) -> dict[str, Any]:
        families = self._metric_families()
        return {"text": render_dump(families), "families": families}

    def _op_cancel(self, req: dict[str, Any]) -> dict[str, Any]:
        jid = req["id"]
        was_buffered = jid in self.queue.buffered_ids()
        if was_buffered:
            cancelled: list[Any] = []
            gone = {jid}
        else:
            try:
                cancelled = list(self._mut.cancel(jid))
            except KeyError:
                # distinguish "no such job" from a missing request field
                raise ValueError(f"unknown job {jid!r}") from None
            gone = set(cancelled)
        if gone:
            # cascade through the buffers too: a dependent of a withdrawn
            # job — buffered or already admitted — could never admit
            self.queue.cascade(gone)
            cancelled.extend(self.queue.remove_ids(gone))
        return {"cancelled": cancelled, "buffered": was_buffered}

    def _op_advance(self, req: dict[str, Any]) -> dict[str, Any]:
        self.flush()
        want_events = req.get("events", True)
        s0 = self.spans.now()
        out = self._mut.advance(real_number(req["until"]), events=bool(want_events))
        self.spans.record("advance", "dispatch", s0, self.spans.now() - s0,
                          rid=self._rid)
        resp: dict[str, Any] = {"clock": self.session.now}
        if want_events:
            resp["events"] = out
        else:
            # count only: bulk drivers skip a dict allocation — and a wire
            # record — per event
            resp["event_count"] = out
        return resp

    def _op_drain(self, req: dict[str, Any]) -> dict[str, Any]:
        self.flush()
        s0 = self.spans.now()
        self._mut.drain()
        self.spans.record("drain", "dispatch", s0, self.spans.now() - s0,
                          rid=self._rid)
        return {
            "clock": self.session.now,
            "makespan": self.session.makespan(),
            "completed": self.session.counters.completed,
        }

    def _op_status(self, req: dict[str, Any]) -> dict[str, Any]:
        status = self.session.status()
        status["buffered"] = self.queue.buffered
        status["tenants"] = self.queue.describe()
        status["pid"] = os.getpid()
        # byte-compatible with the old env-var read: the gauge was seeded
        # from the same variable when this front-end was built
        status["restarts"] = self._restarts
        status["uptime_seconds"] = self.clock() - self._started
        status["rss_bytes"] = process_rss_bytes()
        if self.durable is not None:
            status["journal"] = {
                "path": self.durable.journal.path,
                "records": self.durable.journal.appended,
                "applied_seq": self.session.applied_seq,
                "replayed": self.durable.replayed,
                "deduped": self.durable.deduped,
            }
        return status

    def _op_stats(self, req: dict[str, Any]) -> dict[str, Any]:
        """Compact operational counters — the schema-stable ``stats`` map.

        Every key below is always present (``journal_records`` is 0 for a
        non-durable service), so dashboards can parse it without
        existence checks.  The key list is in the README (Service → the
        ``stats`` op).
        """
        c = self.session.counters
        return {
            "clock": self.session.now,
            "buffered": self.queue.buffered,
            "queues": self.queue.depths(),
            "admitted": c.submitted,
            "completed": c.completed,
            "cancelled": c.cancelled,
            "journal_seq": self.session.applied_seq,
            "journal_records": (
                self.durable.journal.appended if self.durable is not None else 0
            ),
            "restarts": self._restarts,
        }

    def _op_tenant(self, req: dict[str, Any]) -> dict[str, Any]:
        name = str(req["name"])
        self.queue.set_weight(name, req["weight"])  # validates the weight
        return {"name": req["name"], "weight": self.queue.weight_of(name)}

    def _op_validate(self, req: dict[str, Any]) -> dict[str, Any]:
        from repro.conformance.invariants import validate_schedule

        self.flush()
        report = validate_schedule(self.session.to_schedule(), strict=True)
        return {
            "valid": report.ok,
            "violations": [
                {"kind": v.kind, "detail": v.detail} for v in report.violations
            ],
        }

    def _op_checkpoint(self, req: dict[str, Any]) -> dict[str, Any]:
        path = self._path_arg(req)
        self.flush()
        if path is not None:
            save_session(self.session, path)
            resp = {"path": path, "clock": self.session.now}
        else:
            resp = {
                "snapshot": checkpoint_session(self.session),
                "clock": self.session.now,
            }
        if self.durable is not None:
            # an explicit checkpoint also rotates the journal: the durable
            # snapshot now covers everything the journal held
            self.durable.checkpoint()
            resp["journal_rotated"] = True
        return resp

    def _op_restore(self, req: dict[str, Any]) -> dict[str, Any]:
        if self.queue.buffered:
            raise ValueError("cannot restore with submissions still buffered")
        if "path" in req:
            session = load_session(self._path_arg(req))
        elif "snapshot" in req:
            session = restore_session(req["snapshot"])
        else:
            raise ValueError("restore needs a 'path' or an inline 'snapshot'")
        if self.durable is not None:
            # durability follows the new lineage: snapshot it, rotate
            self.durable.adopt(session)
        self.session = session
        # metrics binding is runtime wiring, never checkpointed: rebind
        # the adopted session so the same registry families keep counting
        session.bind_metrics(self.metrics)
        return {
            "clock": self.session.now,
            "jobs": len(self.session.gi.order) + len(self.session.archive),
        }

    def _op_trace(self, req: dict[str, Any]) -> dict[str, Any]:
        path = self._path_arg(req)
        self.flush()
        if path is not None:
            write_trace(self.session, path)
            return {"path": path}
        return {"trace": self.session.to_trace()}

    def _op_prune(self, req: dict[str, Any]) -> dict[str, Any]:
        return {"dropped": self._mut.prune_events(),
                "events": len(self.session.events)}

    def _op_spans(self, req: dict[str, Any]) -> dict[str, Any]:
        return {
            "spans": self.spans.snapshot(
                rid=req.get("for_rid"), limit=self._limit_arg(req)
            ),
            "count": len(self.spans),
            "recorded": self.spans.recorded,
        }

    def _op_shutdown(self, req: dict[str, Any]) -> dict[str, Any]:
        self.closed = True
        return {"clock": self.session.now}


def _env_restarts() -> int:
    """The supervisor's lifetime restart count, read once at boot from
    the env var it exports into each child (see
    :mod:`repro.service.supervisor`) and republished as the
    ``repro_restarts`` gauge."""
    try:
        return int(os.environ.get(RESTARTS_ENV, "0"))
    except ValueError:
        return 0


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
def _handle_line(endpoint: ServiceFrontend, line: str) -> dict[str, Any]:
    try:
        req = json.loads(line)
    except json.JSONDecodeError as exc:
        return error_response(None, INVALID_REQUEST, f"bad JSON: {exc}")
    try:
        return endpoint.handle_request(req)
    except ChaosCrash:
        raise  # an injected crash must kill the worker, not be swallowed
    except Exception as exc:  # the last-resort backstop: a handler bug
        # must produce an error response, never take down the serving loop
        return error_response(None, INTERNAL, f"{type(exc).__name__}: {exc}")


def _drain_oversized(readline: Callable[[int], Any], limit: int) -> None:
    """Discard the rest of an oversized line so the stream resynchronizes
    at the next newline (works on text and byte streams alike)."""
    while True:
        chunk = readline(limit)
        if not chunk or chunk[-1:] in ("\n", b"\n"):
            return


def _serve_lines(
    endpoint: ServiceFrontend,
    readline: Callable[[int], Any],
    write: Callable[[str], None],
    max_request_bytes: int,
    lock: "threading.Lock",
) -> None:
    """The serving loop of both transports: one request per line off
    ``readline`` (a text or a byte stream), one response line to
    ``write``, until EOF, a ``shutdown`` op or the reader going away.

    Blank lines are ignored.  A line longer than ``max_request_bytes`` is
    discarded up to its newline and answered with an error — adversarial
    input bounds memory instead of growing it; undecodable bytes and
    malformed JSON are answered with an error too, and the loop goes on.
    ``lock`` is held around each request: the session is single-threaded
    state, shared with the other connections and the metrics listener.
    """
    while True:
        raw = readline(max_request_bytes + 1)
        if not raw:
            return
        if len(raw) > max_request_bytes and raw[-1:] not in ("\n", b"\n"):
            _drain_oversized(readline, max_request_bytes)
            resp = error_response(
                None, INVALID_REQUEST, f"request exceeds {max_request_bytes} bytes"
            )
        else:
            try:
                line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
            except UnicodeDecodeError as exc:
                resp = error_response(None, INVALID_REQUEST, f"invalid UTF-8: {exc}")
            else:
                if not line:
                    continue
                with lock:
                    resp = _handle_line(endpoint, line)
        try:
            write(json.dumps(resp) + "\n")
        except OSError:
            return  # the reader went away: nothing left to serve it
        if endpoint.closed:
            return


def serve_stdio(
    endpoint: ServiceFrontend,
    in_stream: TextIO,
    out_stream: TextIO,
    *,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    lock: "threading.Lock | None" = None,
) -> int:
    """One request per line on ``in_stream``, one response per line out
    (see :func:`_serve_lines`).

    Returns the process exit code (0 on clean shutdown, EOF or the reader
    disappearing).  ``lock``, when given, is the one the metrics HTTP
    listener shares, so a scrape never reads the registry mid-mutation.
    """

    def write(text: str) -> None:
        out_stream.write(text)
        out_stream.flush()

    _serve_lines(endpoint, in_stream.readline, write, max_request_bytes,
                 lock if lock is not None else threading.Lock())
    return 0


class _ServiceTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


def serve_tcp(
    endpoint: ServiceFrontend,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    ready: "threading.Event | None" = None,
    on_bound: "Callable[[int], None] | None" = None,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    lock: "threading.Lock | None" = None,
) -> int:
    """Serve the line protocol on a TCP socket until a ``shutdown`` op.

    Connections are handled concurrently but requests are serialized
    through one lock — the session is single-threaded state.  Pass
    ``lock`` to share that serialization with an external reader (the
    metrics HTTP listener); by default a private one is created.
    ``on_bound`` is called with the bound port once listening (with
    ``port=0`` this is the only way anyone learns which port the OS
    picked); ``ready`` (tests) is set at the same moment, with the port
    published as ``ready.port``.  Returns 0.

    Errors are isolated per connection (see :func:`_serve_lines`): an
    oversized line or undecodable bytes are answered with an error, and
    a mid-request disconnect closes that one connection — the server and
    every other connection live on.
    """
    if lock is None:
        lock = threading.Lock()

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            def write(text: str) -> None:
                self.wfile.write(text.encode("utf-8"))
                self.wfile.flush()

            try:
                _serve_lines(endpoint, self.rfile.readline, write,
                             max_request_bytes, lock)
            except (OSError, ValueError):
                # disconnect mid-request / unusable socket: close this
                # connection only, never the server
                return
            if endpoint.closed:
                threading.Thread(target=server.shutdown, daemon=True).start()

    with _ServiceTCPServer((host, port), Handler) as server:
        bound = server.server_address[1]
        if on_bound is not None:
            on_bound(bound)
        if ready is not None:
            ready.port = bound  # type: ignore[attr-defined]
            ready.set()
        server.serve_forever(poll_interval=0.05)
    return 0
