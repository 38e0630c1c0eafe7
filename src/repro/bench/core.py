"""Benchmark case model: what a registered paper benchmark expands into.

A *benchmark* (one registered spec, see :mod:`repro.bench.registry`)
expands into a :class:`BenchPlan`: a list of :class:`BenchCase` bodies
plus optional cross-case hooks.  The runner calls each body once and
records:

* **rows** — a case may emit paper-style result rows (list of dicts);
  they land in the JSON document and every text table is rendered from
  them (:func:`repro.bench.schema.render_table`), so tables and JSON can
  never disagree;
* **checks** — the paper's qualitative claims as named pass/fail records
  (bounds hold, ours beats the fixed baselines, ...), with access to the
  in-memory case values;
* **derived** — benchmark-level metrics computed across cases (the mean
  ratios :mod:`repro.bench.compare` gates on).

Everything but the wall-clock ``seconds`` is deterministic: the suites
pin their own seeds, so a regenerated slice equals the committed one in
every other field.  Performance is measured elsewhere (``benchmarks/stack``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "BenchCase",
    "BenchPlan",
    "CaseResult",
    "CheckResult",
    "Checker",
    "Gate",
    "Table",
    "run_plan",
    "table_from_cases",
]


@dataclass(frozen=True)
class BenchCase:
    """One body: ``fn()`` returns a value used by rows/checks/derived."""

    name: str
    fn: Callable[[], Any]
    #: ``rows(value) -> [{...}, ...]`` — paper-style result rows
    rows: Callable[[Any], Sequence[Mapping[str, Any]]] | None = None


@dataclass
class CaseResult:
    """A run case: the serializable record plus the in-memory value."""

    name: str
    seconds: float
    rows: list[dict[str, Any]] | None
    #: the case body's return value — available to checks/derived hooks,
    #: never serialized
    value: Any = None

    def to_record(self) -> dict[str, Any]:
        """The JSON-facing view (drops ``value``).

        ``seconds_all``, ``repeats``, ``warmup`` and ``metrics`` keep the
        ``repro-bench/1`` case shape for a single call.
        """
        return {
            "name": self.name,
            "seconds": self.seconds,
            "seconds_all": [self.seconds],
            "repeats": 1,
            "warmup": 0,
            "metrics": {},
            "rows": None if self.rows is None else [dict(r) for r in self.rows],
        }


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
            "case": None,
            "direction": self.direction,
            "max_regression": self.max_regression,
        }


@dataclass
class Table:
    """One rendered result table, stored in the JSON document.

    ``benchmarks/results/<name>.txt`` is *rendered from this record*
    (:func:`repro.bench.schema.render_table`), so the text artifact and the
    JSON can never disagree.  ``columns`` maps row keys to header labels
    (defaults to the keys of the first row); ``preamble``/``footer`` carry
    the prose some benchmarks wrap around the grid (Table 1's summary,
    the Theorem 6 footnote).
    """

    name: str
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
            "name": self.name,
            "title": self.title,
            "columns": [[k, label] for k, label in cols],
            "rows": [dict(r) for r in self.rows],
            "precision": self.precision,
            "preamble": self.preamble,
            "footer": self.footer,
        }


@dataclass
class BenchPlan:
    """What a benchmark factory returns: cases plus cross-case hooks."""

    cases: list[BenchCase]
    #: ``checks(by_name) -> iterable of CheckResult`` where ``by_name`` maps
    #: case name -> CaseResult (values included)
    checks: Callable[[dict[str, CaseResult]], Iterable[CheckResult]] | None = None
    #: ``derived(by_name) -> {metric: float}`` — benchmark-level metrics
    derived: Callable[[dict[str, CaseResult]], Mapping[str, float]] | None = None
    #: ``tables(by_name) -> iterable of Table`` — the result tables this
    #: benchmark emits (see :func:`table_from_cases` for the common shape)
    tables: Callable[[dict[str, CaseResult]], Iterable[Table]] | None = None
    #: the metrics ``--compare`` may fail on (see :class:`Gate`)
    gates: Sequence[Gate] = ()


@dataclass
class Checker:
    """Collects :class:`CheckResult`s; ``check()`` is a recorded assert."""

    results: list[CheckResult] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append(CheckResult(name=name, ok=bool(ok), detail=detail))
        return bool(ok)


def table_from_cases(
    name: str,
    title: str,
    *,
    precision: int = 3,
    preamble: str = "",
    footer: str = "",
    columns: Sequence[tuple[str, str]] | None = None,
) -> Callable[[dict[str, CaseResult]], Iterable[Table]]:
    """A ``tables`` hook concatenating every case's rows into one table.

    The common single-table shape: the sweep case(s) emit paper-style rows
    and the table is just their concatenation in case order.
    """

    def tables(by_name: dict[str, CaseResult]) -> Iterable[Table]:
        rows: list[dict[str, Any]] = []
        for result in by_name.values():
            if result.rows:
                rows.extend(result.rows)
        return [
            Table(
                name=name,
                title=title,
                rows=rows,
                columns=columns,
                precision=precision,
                preamble=preamble,
                footer=footer,
            )
        ]

    return tables


def run_case(case: BenchCase) -> CaseResult:
    """Call one case body once, timing it."""
    t0 = time.perf_counter()
    value = case.fn()
    seconds = time.perf_counter() - t0
    rows = None if case.rows is None else [dict(r) for r in case.rows(value)]
    return CaseResult(name=case.name, seconds=seconds, rows=rows, value=value)


def run_plan(plan: BenchPlan) -> tuple[dict[str, CaseResult], list[CheckResult], dict[str, float]]:
    """Run every case in order, then evaluate checks and derived metrics.

    Case names must be unique within a plan.
    """
    by_name: dict[str, CaseResult] = {}
    for case in plan.cases:
        if case.name in by_name:
            raise ValueError(f"duplicate case name {case.name!r} in plan")
        by_name[case.name] = run_case(case)
    checks = list(plan.checks(by_name)) if plan.checks is not None else []
    derived = dict(plan.derived(by_name)) if plan.derived is not None else {}
    return by_name, checks, derived
