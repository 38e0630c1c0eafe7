"""The typed Python client for the `repro serve` wire protocol.

:class:`ServiceClient` wraps the JSON-lines protocol (wire v2) behind
typed verbs — ``submit``, ``cancel``, ``advance``, ``drain``, ``stats``,
… — that **raise** on failure instead of handing callers
``{"ok": false}`` dicts to pattern-match:

* :class:`ServiceError` — the service answered with a stable error code
  (``exc.code`` ∈ :data:`repro.service.wire.ERROR_CODES`, ``exc.detail``
  carries the diagnostic, ``exc.response`` the full body);
* :class:`Backpressure` — the service is shedding load (the
  ``backpressure`` error code, or a ``submit`` whose response refused
  jobs past a bounded buffer; ``exc.refused`` lists the job ids to back
  off and resubmit);
* :class:`Disconnected` — the transport died mid-call.  With
  ``retry_deadline`` the TCP client reconnects and resends instead
  (rid correlation makes the resend safe; the server's journal dedups a
  replayed submit).

Transports: ``ServiceClient.connect(host, port)`` for TCP and
``ServiceClient.launch([...argv])`` to spawn a ``repro serve`` child on
stdio.  Both speak the same protocol, so a scripted
client works identically against a plain session or a supervised
durable worker.
"""

from __future__ import annotations

import json
import socket
import subprocess
import time
from typing import Any, Sequence

from repro.service.supervisor import reap
from repro.service.wire import BACKPRESSURE, WIRE_VERSION

__all__ = [
    "Backpressure",
    "Disconnected",
    "ServiceClient",
    "ServiceError",
    "pick_free_port",
]


#: Reconnect backoff: the first retry waits ``_RETRY_FIRST`` seconds and each
#: later one twice the last, up to ``_RETRY_CAP``.  A freshly launched
#: ``repro serve`` listens within a few hundred milliseconds; a coarse step
#: would sleep past that moment by up to the step.
_RETRY_FIRST = 0.005
_RETRY_CAP = 0.05


def pick_free_port(host: str = "127.0.0.1") -> int:
    """Reserve an ephemeral TCP port (bind-probe, then release)."""
    with socket.socket() as s:
        s.bind((host, 0))
        return s.getsockname()[1]


class ServiceError(Exception):
    """The service answered ``ok: false``; dispatch on :attr:`code`."""

    def __init__(self, response: "dict[str, Any] | None" = None, message: str = "") -> None:
        self.response = response or {}
        self.code = str(self.response.get("error", "internal"))
        self.detail = str(self.response.get("detail", message))
        self.op = self.response.get("op")
        super().__init__(message or f"{self.code}: {self.detail}")


class Backpressure(ServiceError):
    """Shed load: back off and resubmit :attr:`refused` (possibly empty)."""

    def __init__(
        self,
        response: "dict[str, Any] | None" = None,
        refused: "Sequence[Any] | None" = None,
    ) -> None:
        super().__init__(response)
        self.code = BACKPRESSURE
        self.refused = list(refused if refused is not None else self.response.get("backpressure", ()))


class Disconnected(ServiceError):
    """The transport died mid-call; nothing is known about the request."""

    def __init__(self, message: str) -> None:
        super().__init__(None, message)
        self.code = "disconnected"
        self.detail = message


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
class _StreamTransport:
    """A child's stdio pipe pair; closing it reaps the child."""

    def __init__(self, writer, reader, proc: "subprocess.Popen") -> None:
        self.writer = writer
        self.reader = reader
        self.proc = proc

    reconnectable = False

    def send_line(self, line: str) -> None:
        try:
            self.writer.write(line + "\n")
            self.writer.flush()
        except (OSError, ValueError) as exc:
            raise Disconnected(f"write failed: {exc}") from None

    def recv_line(self) -> str:
        try:
            line = self.reader.readline()
        except (OSError, ValueError) as exc:
            raise Disconnected(f"read failed: {exc}") from None
        if not line:
            raise Disconnected("service closed the stream")
        return line

    def close(self) -> None:
        for stream in (self.writer, self.reader):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        reap(self.proc)


class _TcpTransport:
    """A reconnectable TCP line connection."""

    reconnectable = True

    def __init__(self, host: str, port: int, *, io_timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.io_timeout = io_timeout
        self._sock: "socket.socket | None" = None
        self._fh = None

    def connect(self, deadline_at: float) -> None:
        self.drop()  # never leak, or read stale bytes off, a live socket
        delay = _RETRY_FIRST
        while True:
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=min(self.io_timeout, 5.0)
                )
                sock.settimeout(self.io_timeout)
                self._sock = sock
                self._fh = sock.makefile("rw", encoding="utf-8", newline="\n")
                return
            except OSError as exc:
                if time.monotonic() >= deadline_at:
                    raise Disconnected(f"connect failed: {exc}") from None
                time.sleep(min(delay, max(0.0, deadline_at - time.monotonic())))
                delay = min(delay * 2, _RETRY_CAP)

    def drop(self) -> None:
        for closer in (self._fh, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._fh = self._sock = None

    def send_line(self, line: str) -> None:
        if self._fh is None:
            raise Disconnected("not connected")
        try:
            self._fh.write(line + "\n")
            self._fh.flush()
        except (OSError, ValueError) as exc:
            self.drop()
            raise Disconnected(f"write failed: {exc}") from None

    def recv_line(self) -> str:
        if self._fh is None:
            raise Disconnected("not connected")
        try:
            line = self._fh.readline()
        except (OSError, ValueError) as exc:
            self.drop()
            raise Disconnected(f"read failed: {exc}") from None
        if not line:
            self.drop()
            raise Disconnected("service closed the connection")
        return line

    def close(self) -> None:
        self.drop()


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
class ServiceClient:
    """Typed verbs over one service connection, speaking wire v2.

    ``retry_deadline`` (seconds, TCP only) makes every call survive
    worker restarts: disconnect → reconnect → resend, correlated by rid.
    """

    def __init__(
        self,
        transport,
        *,
        retry_deadline: "float | None" = None,
    ) -> None:
        self.transport = transport
        self.retry_deadline = retry_deadline
        self._rid = 0

    # -- constructors ---------------------------------------------------
    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        *,
        connect_deadline: float = 30.0,
        io_timeout: float = 120.0,
        **kw,
    ) -> "ServiceClient":
        """Connect to a ``repro serve --tcp`` service."""
        transport = _TcpTransport(host, port, io_timeout=io_timeout)
        transport.connect(time.monotonic() + connect_deadline)
        return cls(transport, **kw)

    @classmethod
    def launch(cls, argv: "Sequence[str]", **kw) -> "ServiceClient":
        """Spawn ``argv`` (a ``repro serve`` command line) and speak over
        its stdio.  ``close()`` waits for the child to exit; the exit
        status is available as ``client.transport.proc.returncode``."""
        proc = subprocess.Popen(
            list(argv),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        return cls(_StreamTransport(proc.stdin, proc.stdout, proc=proc), **kw)

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- core request path ----------------------------------------------
    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one op; return the (envelope-stripped) response body.

        Raises :class:`ServiceError`/:class:`Backpressure` on an
        ``ok: false`` response and :class:`Disconnected` on transport
        death (unless ``retry_deadline`` absorbs it).
        """
        resp = self.exchange({"op": op, **fields})
        if not resp.get("ok", True):
            if resp.get("error") == BACKPRESSURE:
                raise Backpressure(resp)
            raise ServiceError(resp)
        return resp

    def exchange(
        self, request: dict[str, Any], *, deadline: "float | None" = None
    ) -> dict[str, Any]:
        """Send one request body, return the response body as answered —
        envelope stripped, ``ok: false`` included (:meth:`request` is this
        plus the typed errors).

        ``deadline`` (seconds) stands in for ``retry_deadline`` on this
        call: a reconnectable transport that dies (or was never
        connected) is reconnected and the request resent until it passes,
        then :class:`Disconnected` is raised.  The rid makes the resend
        safe — a stale reply from before a reconnect is skipped, while a
        rid-less reply is a v1-shaped transport error (bad JSON, oversized
        line) that answers *this* request.
        """
        if deadline is None:
            deadline = self.retry_deadline
        deadline_at = (
            time.monotonic() + deadline
            if deadline is not None and self.transport.reconnectable
            else None
        )
        self._rid += 1
        rid = self._rid
        wire = json.dumps({"v": WIRE_VERSION, "rid": rid, **request})
        while True:
            try:
                self.transport.send_line(wire)
                while True:
                    line = self.transport.recv_line()
                    try:
                        resp = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise Disconnected(f"undecodable response: {exc}") from None
                    if "rid" not in resp or resp["rid"] == rid:
                        resp.pop("v", None)
                        resp.pop("rid", None)
                        return resp
            except Disconnected:
                if deadline_at is None or time.monotonic() >= deadline_at:
                    raise
                self.transport.connect(deadline_at)

    # -- typed verbs ------------------------------------------------------
    def submit(self, jobs: "Sequence[dict[str, Any]]", **fields: Any) -> dict[str, Any]:
        """Submit job records; raises :class:`Backpressure` when any were
        refused by a bounded buffer (``exc.refused`` lists them,
        ``exc.response`` still carries what *was* buffered/admitted)."""
        resp = self.request("submit", jobs=list(jobs), **fields)
        if resp.get("backpressure"):
            raise Backpressure(resp)
        return resp

    def flush(self) -> dict[str, Any]:
        return self.request("flush")

    def cancel(self, job_id: Any) -> dict[str, Any]:
        return self.request("cancel", id=job_id)

    def advance(self, until: float, *, events: bool = True) -> dict[str, Any]:
        return self.request("advance", until=until, events=events)

    def drain(self) -> dict[str, Any]:
        return self.request("drain")

    def status(self) -> dict[str, Any]:
        return self.request("status")

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    def validate(self) -> dict[str, Any]:
        return self.request("validate")

    def tenant(self, name: str, weight: float) -> dict[str, Any]:
        return self.request("tenant", name=name, weight=weight)

    def checkpoint(self, path: "str | None" = None) -> dict[str, Any]:
        return self.request("checkpoint", **({"path": path} if path is not None else {}))

    def restore(
        self, *, path: "str | None" = None, snapshot: "dict[str, Any] | None" = None
    ) -> dict[str, Any]:
        fields: dict[str, Any] = {}
        if path is not None:
            fields["path"] = path
        if snapshot is not None:
            fields["snapshot"] = snapshot
        return self.request("restore", **fields)

    def trace(self, path: "str | None" = None) -> dict[str, Any]:
        return self.request("trace", **({"path": path} if path is not None else {}))

    def prune(self) -> dict[str, Any]:
        return self.request("prune")

    def metrics(self) -> dict[str, Any]:
        """The service's metrics: ``"text"`` is the Prometheus exposition,
        ``"families"`` the structured dump."""
        return self.request("metrics")

    def spans(
        self, *, for_rid: Any = None, limit: "int | None" = None
    ) -> dict[str, Any]:
        """The request-span ring: ``"spans"`` (oldest first), ``"count"``
        (currently retained) and ``"recorded"`` (lifetime).  ``for_rid``
        filters to the spans of one wire request; ``limit`` keeps only
        the newest N after filtering."""
        fields: dict[str, Any] = {}
        if for_rid is not None:
            fields["for_rid"] = for_rid
        if limit is not None:
            fields["limit"] = limit
        return self.request("spans", **fields)

    def dump_spans(
        self, path: str, *, for_rid: Any = None, limit: "int | None" = None
    ) -> int:
        """Write the span ring to ``path`` as JSON lines (one span per
        line); returns how many spans were written."""
        spans = self.spans(for_rid=for_rid, limit=limit)["spans"]
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        return len(spans)

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")
