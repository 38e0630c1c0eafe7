"""Observability: metrics registry, Prometheus exposition, span tracing.

The service stack was operationally blind — the schema-stable ``stats``
map carried totals but no latencies or rates.  This
package is the substrate that fixes it, with zero third-party
dependencies:

* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` families in a :class:`MetricsRegistry`, rendered in
  the Prometheus v0.0.4 text format with deterministic ordering and
  fixed log-scale buckets.
* :mod:`repro.obs.trace` — :class:`SpanLog`, a bounded ring of
  ``{rid, tenant, op, phase, t0, dur}`` spans following one request
  through request → admission → journal → dispatch.
* :mod:`repro.obs.httpd` — the ``GET /metrics`` stdlib HTTP listener
  behind ``repro serve --metrics-port``.

Instrumentation is opt-in at every layer: the batch engine records
nothing, and a :class:`~repro.service.session.SchedulingSession` only
counts when ``bind_metrics`` was called — the service front-end binds
its components at construction.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    process_rss_bytes,
    render_dump,
)
from repro.obs.trace import Span, SpanLog

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanLog",
    "histogram_quantile",
    "process_rss_bytes",
    "render_dump",
]
