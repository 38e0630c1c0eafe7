"""Benchmark case model and the shared timing discipline.

A *benchmark* (one registered spec, see :mod:`repro.bench.registry`)
expands into a :class:`BenchPlan`: a list of :class:`BenchCase` bodies to
time plus optional cross-case hooks.  The runner owns everything the old
``benchmarks/bench_*.py`` scripts hand-rolled:

* **timing** — each case body runs ``warmup`` untimed rounds, then
  ``repeats`` timed rounds; the recorded figure is the **median** (all
  rounds are kept in the emitted JSON so the spread stays visible);
* **metrics** — a case may derive metrics (jobs/s, ratios) from its
  return value and median seconds;
* **rows** — a case may emit paper-style result rows (list of dicts);
  they land in the JSON document and every text table is rendered from
  them (:func:`repro.bench.schema.render_text`), so tables and JSON can
  never disagree;
* **checks** — the shape assertions the old scripts made are recorded as
  named pass/fail checks instead of bare ``assert``s, with access to the
  in-memory case values (for e.g. event-for-event schedule equality);
* **derived** — benchmark-level metrics computed across cases (e.g. the
  compiled-vs-reference speedup the CI gate watches).

Everything is deterministic in the configured seed except wall-clock
timings, which is exactly the split :mod:`repro.bench.compare` gates on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "BenchCase",
    "BenchConfig",
    "BenchPlan",
    "CaseResult",
    "CheckResult",
    "Checker",
    "Gate",
    "Table",
    "jobs_per_sec",
    "run_plan",
    "table_from_cases",
]


@dataclass(frozen=True)
class BenchConfig:
    """Knobs every benchmark factory receives.

    ``quick`` selects the reduced CI configuration (smaller workloads,
    throughput gates relaxed); ``seed`` offsets every workload seed so a
    sweep can be replayed on fresh instances.
    """

    quick: bool = False
    seed: int = 0


@dataclass(frozen=True)
class BenchCase:
    """One timed body: ``fn()`` returns a value used by metrics/rows/checks."""

    name: str
    fn: Callable[[], Any]
    #: timed rounds; the recorded ``seconds`` is their median
    repeats: int = 1
    #: untimed rounds before the clock starts
    warmup: int = 0
    #: ``metrics(value, median_seconds) -> {name: float}``
    metrics: Callable[[Any, float], Mapping[str, float]] | None = None
    #: ``rows(value) -> [{...}, ...]`` — paper-style result rows
    rows: Callable[[Any], Sequence[Mapping[str, Any]]] | None = None


@dataclass
class CaseResult:
    """A timed case: the serializable record plus the in-memory value."""

    name: str
    seconds: float
    seconds_all: list[float]
    repeats: int
    warmup: int
    metrics: dict[str, float]
    rows: list[dict[str, Any]] | None
    #: the case body's return value — available to checks/derived hooks,
    #: never serialized
    value: Any = None

    def to_record(self) -> dict[str, Any]:
        """The JSON-facing view (drops ``value``)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "seconds_all": list(self.seconds_all),
            "repeats": self.repeats,
            "warmup": self.warmup,
            "metrics": dict(self.metrics),
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
    """A metric :mod:`repro.bench.compare` is allowed to *fail* on.

    Only gated metrics drive the regression exit code — everything else in
    the document is compared informationally.  Gates therefore name
    machine-relative or deterministic quantities (speedup ratios, schedule
    quality), never absolute wall-clock, which would trip on any hardware
    change.  ``direction`` says which way is better; ``max_regression`` is
    the tolerated fractional move the wrong way (0.30 = fail past 30%).
    """

    metric: str
    direction: str = "higher"
    max_regression: float = 0.30
    #: ``None`` gates a benchmark-level ``derived`` metric; a case name
    #: gates that case's metric
    case: str | None = None

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ValueError(f"direction must be 'higher' or 'lower', got {self.direction!r}")
        if not 0.0 <= self.max_regression:
            raise ValueError("max_regression must be >= 0")

    @property
    def key(self) -> str:
        """Display key: ``derived:<metric>`` or ``case:<case>:<metric>``."""
        if self.case is None:
            return f"derived:{self.metric}"
        return f"case:{self.case}:{self.metric}"

    def to_record(self) -> dict[str, Any]:
        return {
            "metric": self.metric,
            "case": self.case,
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


def jobs_per_sec(n: int) -> Callable[[Any, float], Mapping[str, float]]:
    """The standard throughput metric hook for an ``n``-job workload."""

    def metrics(value: Any, seconds: float) -> Mapping[str, float]:
        return {"jobs_per_sec": n / seconds}

    return metrics


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


def time_case(case: BenchCase) -> CaseResult:
    """Run one case under the shared warmup/repeat/median discipline."""
    for _ in range(case.warmup):
        case.fn()
    times: list[float] = []
    value: Any = None
    for _ in range(max(1, case.repeats)):
        t0 = time.perf_counter()
        value = case.fn()
        times.append(time.perf_counter() - t0)
    seconds = float(median(times))
    metrics = dict(case.metrics(value, seconds)) if case.metrics is not None else {}
    rows = None
    if case.rows is not None:
        rows = [dict(r) for r in case.rows(value)]
    return CaseResult(
        name=case.name,
        seconds=seconds,
        seconds_all=[float(t) for t in times],
        repeats=max(1, case.repeats),
        warmup=case.warmup,
        metrics=metrics,
        rows=rows,
        value=value,
    )


def run_plan(plan: BenchPlan) -> tuple[dict[str, CaseResult], list[CheckResult], dict[str, float]]:
    """Time every case in order, then evaluate checks and derived metrics.

    Case names must be unique within a plan (they key the compare step).
    """
    by_name: dict[str, CaseResult] = {}
    for case in plan.cases:
        if case.name in by_name:
            raise ValueError(f"duplicate case name {case.name!r} in plan")
        by_name[case.name] = time_case(case)
    checks = list(plan.checks(by_name)) if plan.checks is not None else []
    derived = dict(plan.derived(by_name)) if plan.derived is not None else {}
    return by_name, checks, derived
