"""The online scheduling service: long-running sessions over the engine.

Every entry point before this package was batch — build a full
:class:`~repro.instance.instance.Instance`, run one scheduler, exit.  The
service subsystem runs *indefinitely*: a :class:`SchedulingSession` admits,
cancels and completes jobs while scheduling (the incremental form of
Algorithm 2's dispatch loop), :mod:`repro.service.checkpoint` snapshots
full session state with an exact-resume guarantee, and
:mod:`repro.service.frontend` serves a JSON-lines request protocol over
stdin/stdout or TCP (``repro serve``) with batched admission and weighted
fair sharing across tenants: one process, one session, one
:class:`ServiceFrontend`.  :mod:`repro.service.wire` defines the
versioned envelope and the stable error-code vocabulary, and
:mod:`repro.service.client` is the typed Python client.  The front-end
is instrumented through :mod:`repro.obs` (metrics registry, Prometheus
exposition, request spans): the ``metrics``/``spans`` ops expose them on
the wire and ``repro serve --metrics-port`` over HTTP.
"""

from repro.service.chaos import ChaosCrash, ChaosInjector
from repro.service.checkpoint import (
    SESSION_FORMAT,
    checkpoint_session,
    load_session,
    restore_session,
    save_session,
)
from repro.service.client import Backpressure, Disconnected, ServiceClient, ServiceError
from repro.service.fairshare import FairQueue
from repro.service.frontend import ServiceFrontend, serve_stdio, serve_tcp, write_trace
from repro.service.journal import JOURNAL_FORMAT, Journal, JournaledSession, scan_journal
from repro.service.session import JobSpec, SchedulingSession
from repro.service.supervisor import BackoffPolicy, supervise
from repro.service.wire import ERROR_CODES, WIRE_FORMAT, WIRE_VERSION

__all__ = [
    "JobSpec",
    "SchedulingSession",
    "SESSION_FORMAT",
    "JOURNAL_FORMAT",
    "WIRE_FORMAT",
    "WIRE_VERSION",
    "ERROR_CODES",
    "checkpoint_session",
    "restore_session",
    "save_session",
    "load_session",
    "Journal",
    "JournaledSession",
    "scan_journal",
    "ChaosCrash",
    "ChaosInjector",
    "ServiceFrontend",
    "FairQueue",
    "serve_stdio",
    "serve_tcp",
    "write_trace",
    "BackoffPolicy",
    "supervise",
    "ServiceClient",
    "ServiceError",
    "Backpressure",
    "Disconnected",
]
