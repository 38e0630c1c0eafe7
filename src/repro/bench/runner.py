"""The shared benchmark driver: expand, run, record.

One front door for the CLI, CI and the tests::

    from repro.bench.runner import run_benchmarks
    from repro.bench.schema import build_document

    records = run_benchmarks(["table1", "figure1"])
    doc = build_document(records)

:func:`run_spec` expands a registered plan, runs each case once,
evaluates its checks and derived metrics and serializes the schema
record.  :func:`run_benchmarks` runs the named benchmarks in order, in
this process.
"""

from __future__ import annotations

import time
from typing import Any

from repro.bench.core import run_plan
from repro.bench.registry import BenchmarkSpec, get_benchmark

__all__ = ["failed_checks", "run_benchmarks", "run_spec"]


def run_spec(spec: BenchmarkSpec) -> dict[str, Any]:
    """Run one benchmark end to end; returns its schema record."""
    t0 = time.perf_counter()
    plan = spec.build()
    by_name, checks, derived = run_plan(plan)
    tables = list(plan.tables(by_name)) if plan.tables is not None else []
    seconds_total = time.perf_counter() - t0
    return {
        "name": spec.name,
        "kind": spec.kind,
        "description": spec.description,
        "seconds_total": seconds_total,
        "cases": [result.to_record() for result in by_name.values()],
        "checks": [check.to_record() for check in checks],
        "derived": derived,
        "gates": [gate.to_record() for gate in plan.gates],
        "tables": [table.to_record() for table in tables],
    }


def run_benchmarks(names: list[str], *, progress=None) -> list[dict[str, Any]]:
    """Run the named benchmarks serially; returns their schema records.

    Every name is resolved before the first run, so a typo fails fast.
    ``progress(i, total, name)`` is called before each benchmark.
    """
    specs = [get_benchmark(name) for name in names]
    records = []
    for i, spec in enumerate(specs):
        if progress is not None:
            progress(i, len(specs), spec.name)
        records.append(run_spec(spec))
    return records


def failed_checks(records: list[dict[str, Any]]) -> list[tuple[str, dict[str, Any]]]:
    """Every failed check across the run, as (benchmark, check) pairs."""
    return [
        (record["name"], check)
        for record in records
        for check in record["checks"]
        if not check["ok"]
    ]
