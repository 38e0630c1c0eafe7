"""Diff a run against the committed slices: the gate behind ``--compare``.

The baseline is the committed ``BENCH_<name>.json`` slices themselves,
merged into one document by :func:`merge_baseline`, which refuses a set
that is not one recording: every document must carry the same non-null
``environment.git_sha``.

Two kinds of entries come out of a comparison:

* **gated deltas** — the derived metrics a benchmark declared as
  :class:`repro.bench.core.Gate`\\ s, all deterministic schedule-quality
  ratios.  A gated metric that moves the wrong way by more than the
  gate's ``max_regression`` is a **regression** and fails the run; one
  that moves the right way by the same margin is an **improvement**;
  anything else is **ok**.
* **informational deltas** — every shared non-gated derived metric.
  Reported but never failing.  Wall-clock is not compared: a
  benchmark's ``seconds`` moves with the host and the load, not with the
  code.

Gates come from the *current* document — they are the code's contract,
so a PR that adds a gate starts enforcing it immediately and a PR that
retires one stops.  Benchmarks present on only one side are listed as
``new``/``missing``, never failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.bench.schema import validate_document

__all__ = [
    "CompareReport",
    "Delta",
    "compare_documents",
    "merge_baseline",
]

#: informational deltas smaller than this are elided from the summary
_NOISE_FLOOR = 0.02


@dataclass(frozen=True)
class Delta:
    """One compared metric."""

    benchmark: str
    key: str  #: ``derived:<metric>``
    baseline: float
    current: float
    #: "regression" | "improvement" | "ok" for gated metrics; "info" otherwise
    status: str
    direction: str = "higher"
    max_regression: float | None = None

    @property
    def change(self) -> float:
        """Signed fractional change, positive = metric went up."""
        if self.baseline == 0:
            return float("inf") if self.current > 0 else 0.0
        return self.current / self.baseline - 1.0

    def describe(self) -> str:
        arrow = "+" if self.change >= 0 else ""
        gate = (
            f" (gate: {self.direction} is better, fail past {self.max_regression:.0%})"
            if self.max_regression is not None
            else ""
        )
        return (
            f"{self.benchmark} {self.key}: {self.baseline:.6g} -> {self.current:.6g} "
            f"({arrow}{self.change:.1%}){gate}"
        )


@dataclass
class CompareReport:
    """Everything ``--compare`` found; ``ok`` drives the exit code."""

    gated: list[Delta] = field(default_factory=list)
    info: list[Delta] = field(default_factory=list)
    new_benchmarks: list[str] = field(default_factory=list)
    missing_benchmarks: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[Delta]:
        return [d for d in self.gated if d.status == "regression"]

    @property
    def improvements(self) -> list[Delta]:
        return [d for d in self.gated if d.status == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        lines = [
            f"compare: {len(self.gated)} gated metric(s), "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s)"
        ]
        for d in self.gated:
            lines.append(f"  [{d.status.upper()}] {d.describe()}")
        noisy = [d for d in self.info if abs(d.change) >= _NOISE_FLOOR]
        if noisy:
            lines.append(f"  informational (never gated, +-{_NOISE_FLOOR:.0%} floor):")
            for d in sorted(noisy, key=lambda d: -abs(d.change)):
                lines.append(f"    {d.describe()}")
        if self.new_benchmarks:
            lines.append(f"  new benchmarks (not in baseline): {', '.join(self.new_benchmarks)}")
        if self.missing_benchmarks:
            lines.append(
                f"  missing benchmarks (baseline only): {', '.join(self.missing_benchmarks)}"
            )
        return "\n".join(lines)


def merge_baseline(docs: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """One baseline document from validated slices of one recording.

    Raises ``ValueError`` unless every document carries the same non-null
    ``environment.git_sha`` — a baseline mixing recordings would gate one
    benchmark against another commit's numbers.
    """
    if not docs:
        raise ValueError("no baseline documents given")
    shas = {doc["environment"].get("git_sha") for doc in docs}
    if len(shas) != 1 or None in shas:
        raise ValueError(
            f"baseline documents carry git_sha {', '.join(sorted(s or 'null' for s in shas))}; "
            "a baseline must be one recording (regenerate every slice at one commit)"
        )
    merged = {
        "schema": docs[0]["schema"],
        "environment": dict(docs[0]["environment"]),
        "benchmarks": [record for doc in docs for record in doc["benchmarks"]],
    }
    validate_document(merged)
    return merged


def _classify(current: float, baseline: float, direction: str, tolerance: float) -> str:
    if baseline == 0:
        return "ok"
    change = current / baseline - 1.0
    worse = -change if direction == "higher" else change
    if worse > tolerance:
        return "regression"
    if -worse > tolerance:
        return "improvement"
    return "ok"


def compare_documents(
    current: Mapping[str, Any], baseline: Mapping[str, Any]
) -> CompareReport:
    """Compare ``current`` against ``baseline`` (both validated documents)."""
    report = CompareReport()
    base_by_name = {r["name"]: r for r in baseline["benchmarks"]}

    for record in current["benchmarks"]:
        name = record["name"]
        base = base_by_name.get(name)
        if base is None:
            report.new_benchmarks.append(name)
            continue

        gated = set()
        for gate in record["gates"]:
            metric = gate["metric"]
            if metric not in base["derived"]:
                # a gate the baseline predates: informational until the
                # slice is regenerated
                continue
            gated.add(metric)
            current_value = float(record["derived"][metric])
            base_value = float(base["derived"][metric])
            tolerance = float(gate["max_regression"])
            report.gated.append(
                Delta(
                    benchmark=name,
                    key=f"derived:{metric}",
                    baseline=base_value,
                    current=current_value,
                    status=_classify(current_value, base_value, gate["direction"], tolerance),
                    direction=gate["direction"],
                    max_regression=tolerance,
                )
            )

        # informational: the shared non-gated metrics
        for metric, value in record["derived"].items():
            if metric in gated or metric not in base["derived"]:
                continue
            report.info.append(
                Delta(
                    benchmark=name,
                    key=f"derived:{metric}",
                    baseline=float(base["derived"][metric]),
                    current=float(value),
                    status="info",
                )
            )

    cur_names = {r["name"] for r in current["benchmarks"]}
    report.missing_benchmarks = [n for n in base_by_name if n not in cur_names]
    return report
