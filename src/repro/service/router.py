"""The sharded routing tier: tenants partitioned across worker sessions.

``repro serve --workers N`` runs this backend instead of a single
:class:`~repro.service.frontend.ServiceFrontend`: N worker processes each
own a journaled, supervised :class:`SchedulingSession` for a disjoint
subset of tenants, and the :class:`Router` — the same
:class:`~repro.service.frontend.Endpoint` class, so the same wire
envelope, admission buffer and dispatcher, inherited — fans requests out.

**Deterministic partitioning.**  A routing policy maps a tenant name to
a shard index; ``submit``/``cancel``/``tenant`` for one tenant always
land on the same worker, so a sharded run is replayable.  Policies are
pluggable through a small registry (:func:`register_policy`, the same
idiom as the scheduler registry, :mod:`repro.registry`):

``hash``
    a *stable* hash of the tenant name (BLAKE2, never Python's seeded
    ``hash()``) mod N — deterministic across processes and runs;
``explicit``
    an operator-supplied map ``"acme=0,lab=1,*=2"`` (``*`` is the
    fallback; without it an unmapped tenant is refused) — deterministic
    by construction;
``least-loaded``
    sticky assignment of each *new* tenant to the shard with the fewest
    jobs forwarded so far.  The assignment depends on arrival order and
    load, so a re-run only reproduces it if the request stream is
    identical — use it for stateless fan-out work where replayability
    does not matter, and one of the deterministic policies otherwise.

**Fairness at the routing tier.**  The endpoint's stride-fair admission
queue runs *once, here, across all shards*: the router buffers
submissions per tenant, drains them in weighted-fair order, and forwards
each shard its slice of that order.  Workers run with
``admission="fifo"`` and ``batch_size=1`` so they preserve exactly the
order the router decided — cross-shard tenant weights therefore hold
globally.

**Fan-out and failover.**  Tenant-bound ops route to one worker;
``advance``/``drain``/``stats``/``status``/``validate``/``checkpoint``/
``trace``/``prune``/``metrics``/``spans``/``shutdown`` broadcast in
parallel and merge the responses (rid correlation on the worker wire
makes the merge safe across reconnects).  The ``metrics`` merge
re-labels each worker's families under a leading ``shard`` label and
appends the router's own ``repro_router_*`` families, so one scrape
covers the whole topology.  Each worker journals to its own ``--journal`` path,
so a SIGKILLed shard is restarted by its supervisor and recovers from
its own snapshot + journal suffix while the other shards keep serving;
while a shard is down, ops that need it fail fast with the
``backpressure`` error code (bounded by ``call_deadline``) instead of
head-of-line blocking the whole service.  Cross-shard dependencies are
refused at submit time (``admission_failed``): a dependency edge never
spans two workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.obs import MetricsRegistry, SpanLog, merge_dumps, process_rss_bytes
from repro.service.client import Disconnected, ServiceClient, _TcpTransport
from repro.service.frontend import Endpoint
from repro.service.session import JobSpec, real_number
from repro.service.wire import (
    ADMISSION_FAILED,
    BACKPRESSURE,
    INTERNAL,
    error_response,
)

__all__ = [
    "LocalWorker",
    "RemoteWorker",
    "Router",
    "ShardUnavailable",
    "pick_free_port",
    "register_policy",
    "resolve_policy",
    "stable_shard",
    "ROUTING_POLICIES",
]


# ----------------------------------------------------------------------
# routing policies
# ----------------------------------------------------------------------
ROUTING_POLICIES: dict[str, Callable[..., Any]] = {}


def register_policy(name: str) -> Callable:
    """Class decorator: make a routing policy selectable by name."""

    def deco(cls):
        ROUTING_POLICIES[name] = cls
        cls.name = name
        return cls

    return deco


def resolve_policy(name: str, nshards: int, spec: "str | None" = None):
    """Instantiate the named policy for an ``nshards``-way partition."""
    try:
        cls = ROUTING_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(ROUTING_POLICIES))
        raise ValueError(f"unknown routing policy {name!r} (available: {known})") from None
    return cls(nshards, spec)


def stable_shard(tenant: str, nshards: int) -> int:
    """A process-stable tenant → shard hash (BLAKE2b, not ``hash()``)."""
    digest = hashlib.blake2b(tenant.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % nshards


@register_policy("hash")
class HashPolicy:
    """Stable hash of the tenant name — deterministic, zero configuration."""

    deterministic = True

    def __init__(self, nshards: int, spec: "str | None" = None) -> None:
        if spec:
            raise ValueError("the 'hash' policy takes no --shard-map spec")
        self.nshards = nshards

    def shard_of(self, tenant: str, loads: "list[int]") -> int:
        return stable_shard(tenant, self.nshards)


@register_policy("explicit")
class ExplicitPolicy:
    """Operator-pinned map ``"acme=0,lab=1,*=2"`` (``*`` = fallback shard)."""

    deterministic = True

    def __init__(self, nshards: int, spec: "str | None" = None) -> None:
        if not spec:
            raise ValueError("the 'explicit' policy needs a --shard-map spec")
        self.nshards = nshards
        self.table: dict[str, int] = {}
        self.default: "int | None" = None
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            tenant, _, shard = entry.partition("=")
            if not _:
                raise ValueError(f"bad --shard-map entry {entry!r} (want tenant=shard)")
            idx = int(shard)
            if not 0 <= idx < nshards:
                raise ValueError(f"shard {idx} out of range for {nshards} workers")
            if tenant == "*":
                self.default = idx
            else:
                self.table[tenant] = idx

    def shard_of(self, tenant: str, loads: "list[int]") -> int:
        shard = self.table.get(tenant, self.default)
        if shard is None:
            raise ValueError(
                f"no shard mapping for tenant {tenant!r} (add it to --shard-map "
                "or provide a '*' fallback)"
            )
        return shard


@register_policy("least-loaded")
class LeastLoadedPolicy:
    """Sticky least-loaded assignment — NOT replay-deterministic.

    Each tenant is pinned, at first sight, to the shard with the fewest
    jobs forwarded so far (ties: lowest index) and stays there, so
    tenant affinity still holds within a run.  The pinning depends on
    arrival order, which is why this policy is only appropriate for
    stateless workloads where a re-run need not reproduce placements.
    """

    deterministic = False

    def __init__(self, nshards: int, spec: "str | None" = None) -> None:
        if spec:
            raise ValueError("the 'least-loaded' policy takes no --shard-map spec")
        self.nshards = nshards
        self.pinned: dict[str, int] = {}

    def shard_of(self, tenant: str, loads: "list[int]") -> int:
        shard = self.pinned.get(tenant)
        if shard is None:
            shard = min(range(self.nshards), key=lambda i: (loads[i], i))
            self.pinned[tenant] = shard
        return shard


# ----------------------------------------------------------------------
# worker handles
# ----------------------------------------------------------------------
class ShardUnavailable(Exception):
    """A worker could not be reached within the call deadline."""

    def __init__(self, shard: int, detail: str) -> None:
        super().__init__(f"shard {shard} unavailable: {detail}")
        self.shard = shard
        self.detail = detail


class LocalWorker:
    """An in-process worker: wraps a transport-free frontend.

    Requests and responses are JSON round-tripped so anything that would
    not survive a real wire fails here too — tests and the conformance
    fuzzer drive a full sharded topology without spawning processes.
    """

    def __init__(self, frontend) -> None:
        self.frontend = frontend

    def call(self, request: dict[str, Any], deadline: "float | None" = None) -> dict[str, Any]:
        resp = self.frontend.handle_request(json.loads(json.dumps(request)))
        return json.loads(json.dumps(resp))

    def close(self) -> None:
        pass


class RemoteWorker:
    """One worker process over TCP: a :class:`ServiceClient` whose
    transport failures surface as :class:`ShardUnavailable`.

    The client wraps every request in a ``repro-wire/2`` envelope with a
    fresh ``rid``; the echoed rid is what makes resend-after-reconnect
    safe (a stale response from a previous incarnation can never be
    attributed to the current request).  Nothing connects until the first
    :meth:`call`, so a handle can be built before its worker listens.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        shard: int = 0,
        io_timeout: float = 120.0,
    ) -> None:
        self.shard = shard
        self.client = ServiceClient(_TcpTransport(host, port, io_timeout=io_timeout))

    def close(self) -> None:
        self.client.close()

    def call(self, request: dict[str, Any], deadline: "float | None" = None) -> dict[str, Any]:
        """Send one request, return the bare (envelope-stripped) response.

        Retries through connect failures and mid-call disconnects until
        ``deadline`` seconds from now — a supervised worker that was
        SIGKILLed typically reappears within its supervisor's backoff —
        and raises :class:`ShardUnavailable` past it.  The worker's
        journal dedups a resent ``submit`` (at-least-once delivery,
        exactly-once admission), and the other verbs are idempotent or
        safely re-appliable.
        """
        try:
            return self.client.exchange(
                request, deadline=deadline if deadline is not None else 15.0
            )
        except Disconnected as exc:
            raise ShardUnavailable(self.shard, exc.detail) from None


def pick_free_port(host: str = "127.0.0.1") -> int:
    """Reserve an ephemeral TCP port (bind-probe, then release)."""
    with socket.socket() as s:
        s.bind((host, 0))
        return s.getsockname()[1]


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------
class Router(Endpoint):
    """The :class:`Endpoint` partitioning tenants across worker shards.

    Same protocol, same admission buffer and dispatcher as a
    :class:`ServiceFrontend`; the backend is N workers instead of one
    session.  ``workers`` are :class:`LocalWorker`/:class:`RemoteWorker`
    handles; replace a handle with :meth:`replace_worker` after
    recovering a shard in-process.
    """

    # every router family is ``repro_router_*`` so a merged scrape (worker
    # ``repro_*`` families re-labeled with ``shard``) can never collide
    # with the router's own
    prefix = "repro_router"
    phase = "route"
    unavailable = (ShardUnavailable,)

    def __init__(
        self,
        workers: "list[Any]",
        *,
        policy: str = "hash",
        policy_spec: "str | None" = None,
        batch_size: int = 32,
        batch_interval: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
        max_pending: "int | None" = None,
        call_deadline: float = 15.0,
        metrics: "MetricsRegistry | None" = None,
        spans: "SpanLog | None" = None,
    ) -> None:
        if not workers:
            raise ValueError("a router needs at least one worker")
        # fair mode: this queue is the global stride queue
        super().__init__(
            batch_size=batch_size, batch_interval=batch_interval, clock=clock,
            max_pending=max_pending, fifo=False, metrics=metrics, spans=spans,
        )
        self.workers = list(workers)
        self.policy = resolve_policy(policy, len(workers), policy_spec)
        self.call_deadline = call_deadline
        self._placed: dict[Any, int] = {}  # admitted job id -> shard
        self._loads = [0] * len(workers)  # jobs forwarded per shard
        self._pool = ThreadPoolExecutor(
            max_workers=len(workers), thread_name_prefix="shard-io"
        )
        m = self.metrics
        self._m_routed = m.counter(
            "repro_router_routed_jobs_total",
            "Jobs admitted and forwarded, per shard",
            labels=("shard",),
        )
        self._m_unavailable = m.counter(
            "repro_router_shard_unavailable_total",
            "Calls that failed because a shard stayed unreachable",
            labels=("shard",),
        )
        m.gauge("repro_router_workers", "Worker shards behind this router").set(
            len(workers)
        )

    # -- lifecycle -----------------------------------------------------
    def replace_worker(self, shard: int, worker: Any) -> None:
        """Swap in a recovered worker handle for one shard."""
        old = self.workers[shard]
        self.workers[shard] = worker
        if old is not worker:
            try:
                old.close()
            except OSError:
                pass

    def close(self) -> None:
        self.closed = True
        self._pool.shutdown(wait=False)
        for w in self.workers:
            try:
                w.close()
            except OSError:
                pass

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- fan-out plumbing ----------------------------------------------
    def _call(self, shard: int, request: dict[str, Any]) -> dict[str, Any]:
        return self.workers[shard].call(request, deadline=self.call_deadline)

    def _fan_out_tolerant(
        self, requests: "dict[int, dict[str, Any]]"
    ) -> "tuple[dict[int, dict[str, Any]], dict[int, ShardUnavailable]]":
        """Issue per-shard requests in parallel; collect per-shard outcomes.

        Every request is delivered (or definitively fails) exactly once:
        successful responses are never discarded because some *other*
        shard was unreachable.
        """
        if len(requests) == 1:
            ((shard, request),) = requests.items()
            try:
                return {shard: self._call(shard, request)}, {}
            except ShardUnavailable as exc:
                return {}, {shard: exc}
        futures = {
            shard: self._pool.submit(self._call, shard, request)
            for shard, request in requests.items()
        }
        out: dict[int, dict[str, Any]] = {}
        failures: dict[int, ShardUnavailable] = {}
        for shard in sorted(futures):
            try:
                out[shard] = futures[shard].result()
            except ShardUnavailable as exc:
                failures[shard] = exc
        return out, failures

    def _fan_out(self, requests: "dict[int, dict[str, Any]]") -> "dict[int, dict[str, Any]]":
        """Strict fan-out: raise the lowest-shard failure (after every
        other shard's call has completed, so a dead shard never leaves
        another worker with a half-delivered request)."""
        out, failures = self._fan_out_tolerant(requests)
        if failures:
            raise failures[min(failures)]
        return out

    def _broadcast(self, request: dict[str, Any]) -> "dict[int, dict[str, Any]]":
        return self._fan_out({i: dict(request) for i in range(len(self.workers))})

    @staticmethod
    def _first_error(responses: "dict[int, dict[str, Any]]") -> "dict[str, Any] | None":
        for shard in sorted(responses):
            resp = responses[shard]
            if not resp.get("ok", True):
                return error_response(
                    resp.get("op"),
                    resp.get("error", INTERNAL),
                    f"shard {shard}: {resp.get('detail', resp.get('error', ''))}",
                )
        return None

    # -- routing -------------------------------------------------------
    def shard_of(self, tenant: str) -> int:
        """The shard this tenant's stateful ops route to."""
        return self.policy.shard_of(tenant, self._loads)

    def _admit(
        self, pending: "list[JobSpec]"
    ) -> tuple[list[Any], list[dict[str, Any]]]:
        """Forward each shard its slice of the drained fair order.

        The weighted-fair order is computed once, across every tenant on
        every shard; each worker receives its jobs as one ``submit`` in
        that order (workers admit FIFO), so relative admission priority
        between two tenants is identical whether or not they share a
        shard.
        """
        errors: list[dict[str, Any]] = []
        order: list[tuple[int, Any]] = []  # (shard, id) in global fair order
        per_shard: dict[int, list[JobSpec]] = {}
        routed: dict[Any, int] = {}  # ids routed in *this* flush
        for spec in pending:
            try:
                shard = self.shard_of(spec.tenant)
            except ValueError as exc:
                errors.append(
                    {"id": spec.id, "error": ADMISSION_FAILED, "detail": str(exc)}
                )
                continue
            cross = [
                p
                for p in spec.preds
                if self._placed.get(p, routed.get(p, shard)) != shard
            ]
            if cross:
                errors.append(
                    {
                        "id": spec.id,
                        "error": ADMISSION_FAILED,
                        "detail": (
                            f"predecessors {cross!r} live on another shard; "
                            "a dependency edge cannot span workers"
                        ),
                    }
                )
                continue
            routed[spec.id] = shard
            order.append((shard, spec.id))
            per_shard.setdefault(shard, []).append(spec)
        if not per_shard:
            return [], errors
        requests = {
            shard: {"op": "submit", "jobs": [s.to_dict() for s in specs]}
            for shard, specs in per_shard.items()
        }
        s0 = self.spans.now()
        responses, failures = self._fan_out_tolerant(requests)
        self.spans.record(
            self._cur_op or "flush", "handoff", s0, self.spans.now() - s0,
            rid=self._rid,
        )
        for shard in failures:
            self._m_unavailable.inc(shard=str(shard))
            # the dead shard's jobs come back as explicit backpressure
            # records so the client resubmits them (the worker's journal
            # dedups any that actually landed before the crash); jobs
            # bound for reachable shards were delivered normally
            errors.extend(
                {
                    "id": s.id,
                    "error": BACKPRESSURE,
                    "detail": f"shard {shard} unavailable; resubmit",
                }
                for s in per_shard[shard]
            )
        admitted_by_shard: dict[int, set] = {}
        for shard, resp in responses.items():
            if not resp.get("ok", True):
                errors.extend(
                    {
                        "id": s.id,
                        "error": resp.get("error", INTERNAL),
                        "detail": f"shard {shard}: {resp.get('detail', '')}",
                    }
                    for s in per_shard[shard]
                )
                continue
            admitted_by_shard[shard] = set(resp.get("admitted", ()))
            for rec in resp.get("errors", ()):
                rec = dict(rec)
                rec["shard"] = shard
                errors.append(rec)
        admitted: list[Any] = []
        for shard, jid in order:
            if jid in admitted_by_shard.get(shard, ()):
                admitted.append(jid)
                self._placed[jid] = shard
                self._loads[shard] += 1
                self._m_routed.inc(shard=str(shard))
        return admitted, errors

    # -- tenant-bound ops ----------------------------------------------
    def _op_cancel(self, req: dict[str, Any]) -> dict[str, Any]:
        jid = req["id"]
        was_buffered = jid in self.queue.buffered_ids()
        cancelled: list[Any] = []
        if was_buffered:
            gone = {jid}
        else:
            shard = self._placed.get(jid)
            if shard is None and "tenant" in req:
                shard = self.shard_of(str(req["tenant"]))
            if shard is None:
                raise ValueError(
                    f"unknown job {jid!r} (not buffered and not routed by this "
                    "router; pass 'tenant' to route the cancel)"
                )
            resp = self._call(shard, {"op": "cancel", "id": jid})
            if not resp.get("ok", True):
                return error_response(
                    "cancel",
                    resp.get("error", INTERNAL),
                    f"shard {shard}: {resp.get('detail', '')}",
                )
            cancelled = list(resp.get("cancelled", ()))
            gone = set(cancelled) | {jid} if cancelled else set()
        if gone:
            self.queue.cascade(gone)
            cancelled.extend(self.queue.remove_ids(gone))
        return {"cancelled": cancelled, "buffered": was_buffered}

    def _op_tenant(self, req: dict[str, Any]) -> dict[str, Any]:
        name = str(req["name"])
        self.queue.set_weight(name, req["weight"])  # the authoritative copy
        weight = self.queue.weight_of(name)
        # mirror to the owning shard so per-worker status stays coherent
        shard = self.shard_of(name)
        resp = self._call(shard, {"op": "tenant", "name": name, "weight": weight})
        if not resp.get("ok", True):
            return error_response(
                "tenant", resp.get("error", INTERNAL),
                f"shard {shard}: {resp.get('detail', '')}",
            )
        return {"name": name, "weight": weight, "shard": shard}

    # -- fan-out ops ----------------------------------------------------
    def _op_advance(self, req: dict[str, Any]) -> dict[str, Any]:
        self.flush()
        until = real_number(req["until"])
        want_events = req.get("events", True)
        responses = self._broadcast(
            {"op": "advance", "until": until, "events": bool(want_events)}
        )
        err = self._first_error(responses)
        if err is not None:
            return err
        resp: dict[str, Any] = {
            "clock": max(r["clock"] for r in responses.values()),
        }
        if want_events:
            merged: list[dict[str, Any]] = []
            for shard in sorted(responses):
                merged.extend(responses[shard]["events"])
            # stable sort: per-shard order is preserved, ties break by shard
            merged.sort(key=lambda e: e["time"])
            resp["events"] = merged
        else:
            resp["event_count"] = sum(r["event_count"] for r in responses.values())
        return resp

    def _op_drain(self, req: dict[str, Any]) -> dict[str, Any]:
        self.flush()
        responses = self._broadcast({"op": "drain"})
        err = self._first_error(responses)
        if err is not None:
            return err
        return {
            "clock": max(r["clock"] for r in responses.values()),
            "makespan": max(r["makespan"] for r in responses.values()),
            "completed": sum(r["completed"] for r in responses.values()),
        }

    def _op_status(self, req: dict[str, Any]) -> dict[str, Any]:
        responses = self._broadcast({"op": "status"})
        err = self._first_error(responses)
        if err is not None:
            return err
        states: dict[str, int] = {}
        for r in responses.values():
            for state, n in r.get("states", {}).items():
                states[state] = states.get(state, 0) + n
        return {
            "clock": max(r["clock"] for r in responses.values()),
            "jobs": sum(r["jobs"] for r in responses.values()),
            "states": states,
            "buffered": self.queue.buffered,
            "tenants": self.queue.describe(),
            "pid": os.getpid(),
            "workers": len(self.workers),
            "policy": self.policy.name,
            "restarts": sum(r.get("restarts", 0) for r in responses.values()),
            "uptime_seconds": self.clock() - self._started,
            "rss_bytes": process_rss_bytes(),
            "shards": {str(i): responses[i] for i in sorted(responses)},
        }

    def _op_stats(self, req: dict[str, Any]) -> dict[str, Any]:
        """The sharded ``stats`` map: the single-session schema, aggregated,
        plus ``workers``/``policy`` and the per-shard nesting under
        ``shards`` (each value is one worker's schema-stable stats map)."""
        responses = self._broadcast({"op": "stats"})
        err = self._first_error(responses)
        if err is not None:
            return err
        queues = dict(self.queue.depths())
        for r in responses.values():
            for tenant, depth in r.get("queues", {}).items():
                queues[tenant] = queues.get(tenant, 0) + depth
        return {
            "clock": max(r["clock"] for r in responses.values()),
            "buffered": self.queue.buffered
            + sum(r["buffered"] for r in responses.values()),
            "queues": queues,
            "admitted": sum(r["admitted"] for r in responses.values()),
            "completed": sum(r["completed"] for r in responses.values()),
            "cancelled": sum(r["cancelled"] for r in responses.values()),
            "journal_seq": sum(r["journal_seq"] for r in responses.values()),
            "journal_records": sum(r["journal_records"] for r in responses.values()),
            "restarts": sum(r["restarts"] for r in responses.values()),
            "workers": len(self.workers),
            "policy": self.policy.name,
            "shards": {str(i): responses[i] for i in sorted(responses)},
        }

    def _op_validate(self, req: dict[str, Any]) -> dict[str, Any]:
        self.flush()
        responses = self._broadcast({"op": "validate"})
        err = self._first_error(responses)
        if err is not None:
            return err
        violations: list[dict[str, Any]] = []
        for shard in sorted(responses):
            for v in responses[shard].get("violations", ()):
                v = dict(v)
                v["shard"] = shard
                violations.append(v)
        return {
            "valid": all(r["valid"] for r in responses.values()),
            "violations": violations,
        }

    def _op_checkpoint(self, req: dict[str, Any]) -> dict[str, Any]:
        path = self._path_arg(req)
        self.flush()
        if path is not None:
            requests = {
                i: {"op": "checkpoint", "path": f"{path}.shard{i}"}
                for i in range(len(self.workers))
            }
            responses = self._fan_out(requests)
            err = self._first_error(responses)
            if err is not None:
                return err
            resp: dict[str, Any] = {
                "paths": [responses[i]["path"] for i in sorted(responses)],
            }
        else:
            responses = self._broadcast({"op": "checkpoint"})
            err = self._first_error(responses)
            if err is not None:
                return err
            resp = {"snapshots": [responses[i]["snapshot"] for i in sorted(responses)]}
        resp["clock"] = max(r["clock"] for r in responses.values())
        if all(r.get("journal_rotated") for r in responses.values()):
            resp["journal_rotated"] = True
        return resp

    def _op_restore(self, req: dict[str, Any]) -> dict[str, Any]:
        raise ValueError(
            "restore is per-shard in sharded mode: restart the workers and let "
            "each recover from its own --journal/--snapshot lineage"
        )

    def _op_trace(self, req: dict[str, Any]) -> dict[str, Any]:
        path = self._path_arg(req)
        self.flush()
        if path is not None:
            requests = {
                i: {"op": "trace", "path": f"{path}.shard{i}"}
                for i in range(len(self.workers))
            }
            responses = self._fan_out(requests)
            err = self._first_error(responses)
            if err is not None:
                return err
            return {"paths": [responses[i]["path"] for i in sorted(responses)]}
        responses = self._broadcast({"op": "trace"})
        err = self._first_error(responses)
        if err is not None:
            return err
        return {"traces": [responses[i]["trace"] for i in sorted(responses)]}

    def _metric_families(self) -> list[dict[str, Any]]:
        """One scrape for the whole topology: every reachable worker's
        families re-labeled under ``shard``, plus the router's own
        ``repro_router_*`` families.  A shard that is down is counted in
        ``repro_router_shard_unavailable_total`` and simply absent from
        the merge — a scrape never head-of-line blocks on a dead worker.
        """
        responses, failures = self._fan_out_tolerant(
            {i: {"op": "metrics"} for i in range(len(self.workers))}
        )
        for shard in failures:
            self._m_unavailable.inc(shard=str(shard))
        tagged = [
            (str(shard), responses[shard]["families"])
            for shard in sorted(responses)
            if responses[shard].get("ok", True)
        ]
        return merge_dumps(tagged, label="shard") + super()._metric_families()

    def _op_spans(self, req: dict[str, Any]) -> dict[str, Any]:
        limit = self._limit_arg(req)
        fwd: dict[str, Any] = {"op": "spans"}
        if "for_rid" in req:
            fwd["for_rid"] = req["for_rid"]
        if limit is not None:
            fwd["limit"] = limit
        responses, failures = self._fan_out_tolerant(
            {i: dict(fwd) for i in range(len(self.workers))}
        )
        for shard in failures:
            self._m_unavailable.inc(shard=str(shard))
        # the router's own spans first (tagged "router"), then each
        # shard's in shard order; clock bases differ across processes,
        # so spans are grouped by origin rather than merged by t0
        spans = [
            dict(s, shard="router")
            for s in self.spans.snapshot(rid=req.get("for_rid"), limit=limit)
        ]
        recorded = self.spans.recorded
        for shard in sorted(responses):
            resp = responses[shard]
            if not resp.get("ok", True):
                continue
            spans.extend(dict(s, shard=shard) for s in resp.get("spans", ()))
            recorded += resp.get("recorded", 0)
        return {"spans": spans, "count": len(spans), "recorded": recorded}

    def _op_prune(self, req: dict[str, Any]) -> dict[str, Any]:
        responses = self._broadcast({"op": "prune"})
        err = self._first_error(responses)
        if err is not None:
            return err
        return {
            "dropped": sum(r["dropped"] for r in responses.values()),
            "events": sum(r["events"] for r in responses.values()),
        }

    def _op_shutdown(self, req: dict[str, Any]) -> dict[str, Any]:
        try:
            self._broadcast({"op": "shutdown"})
        except ShardUnavailable:
            pass  # a dead shard cannot block the shutdown of the rest
        self.closed = True
        return {"workers": len(self.workers)}
