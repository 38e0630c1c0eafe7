"""What a paper benchmark returns: one table, its checks, its derived metrics.

A *benchmark* (one registered spec, see :mod:`repro.bench.registry`) is a
zero-argument function.  One call regenerates its result and returns

* its **table** — a :class:`Table` of paper-style result rows; it lands in
  the JSON document and the committed text file is rendered from it
  (:func:`repro.bench.schema.render_table`), so text and JSON can never
  disagree;
* its **checks** — the paper's qualitative claims as named pass/fail
  records (bounds hold, ours beats the fixed baselines, ...), collected by
  a :class:`Checker`;
* its **derived** metrics — the means :mod:`repro.bench.compare` gates on,
  as a ``{metric: float}`` dict.

Everything but the wall-clock ``seconds`` of the call is deterministic:
the benchmarks pin their own seeds, so a regenerated slice equals the
committed one in every other field.  Performance is measured elsewhere
(``benchmarks/stack``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = ["CheckResult", "Checker", "Gate", "Outcome", "Table"]


@dataclass(frozen=True)
class CheckResult:
    """One recorded shape assertion."""

    name: str
    ok: bool
    detail: str = ""

    def to_record(self) -> dict[str, Any]:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class Gate:
    """A derived metric :mod:`repro.bench.compare` is allowed to *fail* on.

    Only gated metrics drive the regression exit code.  Gates name
    deterministic schedule-quality numbers, never wall-clock.
    ``direction`` says which way is better; ``max_regression`` is the
    tolerated fractional move the wrong way (0.05 = fail past 5%).
    """

    metric: str
    direction: str = "higher"
    max_regression: float = 0.30

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(f"direction must be 'higher' or 'lower', got {self.direction!r}")
        if not 0.0 <= self.max_regression:
            raise ValueError("max_regression must be >= 0")

    def to_record(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "direction": self.direction,
            "max_regression": self.max_regression,
        }


@dataclass
class Table:
    """A benchmark's result table, stored in its JSON record.

    ``benchmarks/results/<benchmark>.txt`` is *rendered from this record*
    (:func:`repro.bench.schema.render_table`).  ``columns`` maps row keys
    to header labels (defaults to the keys of the first row);
    ``preamble``/``footer`` carry the prose some benchmarks wrap around
    the grid (Table 1's summary, the Theorem 6 footnote).
    """

    title: str
    rows: list[dict[str, Any]]
    columns: Sequence[tuple[str, str]] | None = None
    precision: int = 3
    preamble: str = ""
    footer: str = ""

    def to_record(self) -> dict[str, Any]:
        cols = self.columns
        if cols is None:
            cols = [(k, k) for k in (self.rows[0] if self.rows else {})]
        return {
            "title": self.title,
            "columns": [[k, label] for k, label in cols],
            "rows": [dict(r) for r in self.rows],
            "precision": self.precision,
            "preamble": self.preamble,
            "footer": self.footer,
        }


@dataclass
class Checker:
    """Collects :class:`CheckResult`s; ``check()`` is a recorded assert."""

    results: list[CheckResult] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append(CheckResult(name=name, ok=bool(ok), detail=detail))
        return bool(ok)


#: what a registered benchmark returns: ``(table, checks, derived)``
Outcome = tuple[Table, Sequence[CheckResult], Mapping[str, float]]
