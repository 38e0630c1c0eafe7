"""Dependency-free metrics core: counters, gauges, log-bucket histograms.

A :class:`MetricsRegistry` owns named metric *families* — each a
:class:`Counter`, :class:`Gauge` or :class:`Histogram` with a declared,
ordered tuple of label names — and renders them in the Prometheus text
exposition format v0.0.4 (``# HELP`` / ``# TYPE`` lines, escaped label
values, cumulative ``_bucket``/``_sum``/``_count`` histogram samples).

Design constraints, in order:

* **Zero dependencies, bounded overhead.**  Recording is one label key
  (labels given in the declared order cost one tuple compare and one
  ``str`` per value; any other order is checked as a set), a dict lookup
  and a float add (histograms: one :func:`bisect.bisect_left`); hot
  paths keep a bound child (:meth:`Counter.labels`) so even the key and
  the lookup amortize away.  A child joins the exposition at its first
  recording, so binding one ahead of use shows nothing until then.  The
  batch engine never touches any of this — sessions only record when
  :meth:`SchedulingSession.bind_metrics` was called.
* **Deterministic exposition.**  Families render sorted by name and
  samples sorted by label values, independent of registration or
  recording order, so two runs that record the same values emit
  byte-identical text and tests can assert exact lines.
* **Fixed histogram buckets.**  :data:`DEFAULT_BUCKETS` is a log-scale
  ladder (1 / 2.5 / 5 per decade, 1µs … 50s) shared by every latency
  histogram in the service; bucket boundaries are part of the contract,
  not a tuning knob.
* **JSON-able dumps.**  :meth:`MetricsRegistry.dump` emits the registry
  as family records (the wire shape of the ``metrics`` op) and
  :func:`render_dump` renders them.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
    "process_rss_bytes",
    "render_dump",
]

#: Fixed log-scale bucket boundaries (seconds): 1 / 2.5 / 5 per decade
#: from 1µs to 50s.  Every service latency histogram shares this ladder;
#: tests assert the exact ``le`` lines, so treat it as frozen.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    m * (10.0 ** e) for e in range(-6, 2) for m in (1.0, 2.5, 5.0)
)


def _fmt_number(v: float) -> str:
    """Render a sample value: integral floats lose the trailing ``.0``."""
    if v != v or v in (float("inf"), float("-inf")):
        return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(v, "NaN")
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_le(v: float) -> str:
    """The ``le`` label of one bucket boundary (``+Inf`` for the top)."""
    return "+Inf" if v == float("inf") else format(v, "g")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label(str(v))}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


class _Family:
    """Shared machinery of one metric family: label handling + children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._children: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        if tuple(labels) == self.label_names:  # the declared order: one compare
            return tuple(map(str, labels.values()))
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[n]) for n in self.label_names)

    def clear(self) -> None:
        self._children.clear()


class Counter(_Family):
    """A monotone sum.  ``inc(amount, **labels)``; never decreases."""

    kind = "counter"

    def labels(self, **labels: Any) -> "_BoundCounter":
        """A bound child for hot paths: one dict lookup, then plain adds."""
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _BoundCounter()
        return child

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        child = self._children.get(self._key(labels))
        return child.total if child is not None else 0.0

    def samples(self) -> list[tuple[tuple[str, ...], float]]:
        return sorted((k, c.total) for k, c in self._children.items() if c.recorded)


class _BoundCounter:
    __slots__ = ("total", "recorded")

    def __init__(self) -> None:
        self.total = 0.0
        self.recorded = False

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.total += amount
        self.recorded = True


class Gauge(_Family):
    """A settable value.  ``set(v, **labels)`` / ``inc(amount, **labels)``."""

    kind = "gauge"

    def labels(self, **labels: Any) -> "_BoundGauge":
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _BoundGauge()
        return child

    def set(self, value: float, **labels: Any) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: Any) -> float:
        child = self._children.get(self._key(labels))
        return child.current if child is not None else 0.0

    def samples(self) -> list[tuple[tuple[str, ...], float]]:
        return sorted((k, g.current) for k, g in self._children.items() if g.recorded)


class _BoundGauge:
    __slots__ = ("current", "recorded")

    def __init__(self) -> None:
        self.current = 0.0
        self.recorded = False

    def set(self, value: float) -> None:
        self.current = float(value)
        self.recorded = True

    def inc(self, amount: float = 1.0) -> None:
        self.current += amount
        self.recorded = True


class Histogram(_Family):
    """Fixed-boundary histogram with cumulative Prometheus exposition.

    ``le`` is inclusive (observation ``v`` lands in the first bucket with
    ``v <= boundary`` — :func:`bisect.bisect_left` on the boundary
    array), matching the Prometheus convention; the implicit ``+Inf``
    bucket always exists and equals ``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket boundaries must strictly increase: {bounds}")
        self.boundaries = bounds

    def labels(self, **labels: Any) -> "_BoundHistogram":
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _BoundHistogram(self.boundaries)
        return child

    def observe(self, value: float, **labels: Any) -> None:
        self.labels(**labels).observe(value)

    def samples(self) -> list[tuple[tuple[str, ...], "_BoundHistogram"]]:
        return sorted((k, h) for k, h in self._children.items() if h.count)


class _BoundHistogram:
    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: tuple[float, ...]) -> None:
        self.boundaries = boundaries
        self.counts = [0] * (len(boundaries) + 1)  # trailing slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        return histogram_quantile(self.boundaries, self.counts, q)


def histogram_quantile(
    boundaries: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """The q-quantile estimate of a bucketed histogram (Prometheus-style
    linear interpolation within the landing bucket; 0.0 when empty).
    Observations in the ``+Inf`` bucket clamp to the top finite bound."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cum = 0.0
    for i, c in enumerate(counts):
        cum += c
        if cum >= rank and c > 0:
            if i >= len(boundaries):  # the +Inf bucket: clamp
                return float(boundaries[-1])
            lo = boundaries[i - 1] if i > 0 else 0.0
            hi = boundaries[i]
            return lo + (hi - lo) * (rank - (cum - c)) / c
    return float(boundaries[-1])  # pragma: no cover - loop always lands


class MetricsRegistry:
    """A named set of metric families with deterministic exposition.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent per name: a
    second registration of the same name returns the existing family
    (mismatched kind or labels raise), so independently instrumented
    components can share one registry without coordination.
    """

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self._families: dict[str, _Family] = {}

    # -- registration --------------------------------------------------
    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if (
                existing.kind != family.kind
                or existing.label_names != family.label_names
            ):
                raise ValueError(
                    f"metric {family.name!r} is already registered as a "
                    f"{existing.kind} with labels {existing.label_names}"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help, labels))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help, labels))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, labels, buckets))  # type: ignore[return-value]

    def get(self, name: str) -> "_Family | None":
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # -- exposition ----------------------------------------------------
    def dump(self) -> list[dict[str, Any]]:
        """The registry as JSON-able family records (the wire shape of the
        ``metrics`` op)."""
        out: list[dict[str, Any]] = []
        for name in sorted(self._families):
            fam = self._families[name]
            rec: dict[str, Any] = {
                "name": fam.name,
                "kind": fam.kind,
                "help": fam.help,
                "labels": list(fam.label_names),
            }
            if isinstance(fam, Histogram):
                rec["boundaries"] = list(fam.boundaries)
                rec["samples"] = [
                    {
                        "values": list(k),
                        "buckets": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for k, h in fam.samples()
                ]
            else:
                rec["samples"] = [
                    {"values": list(k), "value": v} for k, v in fam.samples()
                ]
            out.append(rec)
        return out

    def render(self) -> str:
        """The Prometheus v0.0.4 text exposition of this registry."""
        return render_dump(self.dump())


def render_dump(families: Iterable[Mapping[str, Any]]) -> str:
    """Render family records (from :meth:`MetricsRegistry.dump`) as
    Prometheus v0.0.4 text.  Deterministic:
    families sort by name, samples by label values."""
    lines: list[str] = []
    for fam in sorted(families, key=lambda f: f["name"]):
        name = fam["name"]
        label_names = list(fam.get("labels", ()))
        lines.append(f"# HELP {name} {_escape_help(str(fam.get('help', '')))}")
        lines.append(f"# TYPE {name} {fam['kind']}")
        samples = sorted(fam.get("samples", ()), key=lambda s: list(map(str, s["values"])))
        if fam["kind"] == "histogram":
            bounds = [float(b) for b in fam["boundaries"]] + [float("inf")]
            for s in samples:
                values = [str(v) for v in s["values"]]
                cum = 0
                for b, c in zip(bounds, s["buckets"]):
                    cum += c
                    ls = _label_str(label_names + ["le"], values + [_fmt_le(b)])
                    lines.append(f"{name}_bucket{ls} {cum}")
                ls = _label_str(label_names, values)
                lines.append(f"{name}_sum{ls} {_fmt_number(float(s['sum']))}")
                lines.append(f"{name}_count{ls} {int(s['count'])}")
        else:
            for s in samples:
                ls = _label_str(label_names, [str(v) for v in s["values"]])
                lines.append(f"{name}{ls} {_fmt_number(float(s['value']))}")
    return "\n".join(lines) + "\n"


def process_rss_bytes() -> int:
    """This process's resident set size in bytes (0 when unknowable).

    Linux reads ``/proc/self/statm`` (field 2 = resident pages);
    elsewhere ``resource.getrusage`` provides the peak RSS — close
    enough for the status line this feeds.
    """
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak) * 1024  # ru_maxrss is KiB on Linux
    except Exception:  # pragma: no cover - no resource module (non-POSIX)
        return 0
