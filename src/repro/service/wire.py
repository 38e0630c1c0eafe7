"""The versioned wire envelope and the stable error-code vocabulary.

The service speaks JSON-lines in two shapes:

* **v1 (legacy)** — a bare operation object ``{"op": ..., ...}`` answered
  by a bare response ``{"ok": ..., "op": ..., ...}``.  Still accepted,
  still answered in v1 shape; new clients should move to v2 (see the
  deprecation note in the README).
* **v2 (``repro-wire/2``)** — the same payload wrapped in an envelope
  ``{"v": 2, "rid": <request id>, "op": ..., ...}``.  The response echoes
  ``{"v": 2, "rid": <same id>}``, which is what lets clients resend
  safely across reconnects (a stale reply is recognised by its rid).  ``rid`` is optional and opaque (any JSON scalar); when
  omitted the response carries ``"v": 2`` only.

Error responses are ``{"ok": false, "error": <code>, "detail": <text>}``
where ``error`` is drawn from the **closed** code vocabulary below and
``detail`` is a human diagnostic with no stability guarantee.  Clients
dispatch on the code, never on the detail text.

=====================  ==================================================
code                   meaning
=====================  ==================================================
``invalid_request``    malformed JSON/envelope, unknown op, bad or
                       missing fields, an op refused in the current mode
``admission_failed``   a submitted job the session rejected (duplicate
                       id, unknown predecessor, demand exceeds capacity)
``backpressure``       the service is shedding load: a bounded buffer is
                       full — back off and retry
``internal``           a service-side failure (handler bug, I/O error);
                       nothing was necessarily applied
=====================  ==================================================
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "INVALID_REQUEST",
    "ADMISSION_FAILED",
    "BACKPRESSURE",
    "INTERNAL",
    "ERROR_CODES",
    "error_response",
    "unwrap_request",
    "wrap_response",
]

WIRE_FORMAT = "repro-wire/2"
WIRE_VERSION = 2

INVALID_REQUEST = "invalid_request"
ADMISSION_FAILED = "admission_failed"
BACKPRESSURE = "backpressure"
INTERNAL = "internal"

#: the closed set a client may dispatch on
ERROR_CODES = (INVALID_REQUEST, ADMISSION_FAILED, BACKPRESSURE, INTERNAL)


def error_response(op: Any, code: str, detail: str) -> dict[str, Any]:
    """A v1-shaped error body: ``error`` is the stable code, ``detail``
    the human diagnostic.  (The envelope, if any, is re-applied by
    :func:`wrap_response`.)"""
    resp: dict[str, Any] = {"ok": False, "error": code, "detail": detail}
    if op is not None:
        resp["op"] = op
    return resp


def unwrap_request(req: Any) -> tuple[Any, bool, Any, "dict[str, Any] | None"]:
    """Split an incoming request into ``(body, versioned, rid, err)``.

    ``body`` is the bare-op payload the handlers see (the envelope keys
    are stripped); ``versioned`` says whether the response must carry the
    v2 envelope; ``rid`` is the request id to echo (``None`` when absent).
    ``err`` is a ready error body for an unsupported version — the caller
    returns ``wrap_response(err, versioned, rid)`` without dispatching.
    """
    if not isinstance(req, dict) or "v" not in req:
        return req, False, None, None
    rid = req.get("rid")
    if req["v"] != WIRE_VERSION:
        err = error_response(
            None,
            INVALID_REQUEST,
            f"unsupported wire version {req['v']!r} (this service speaks "
            f"{WIRE_FORMAT} and the legacy bare-op v1)",
        )
        return None, True, rid, err
    body = {k: v for k, v in req.items() if k not in ("v", "rid")}
    return body, True, rid, None


def wrap_response(resp: dict[str, Any], versioned: bool, rid: Any) -> dict[str, Any]:
    """Apply the v2 envelope to a bare response when the request used it."""
    if versioned:
        resp["v"] = WIRE_VERSION
        if rid is not None:
            resp["rid"] = rid
    return resp
