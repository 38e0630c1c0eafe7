"""The shared benchmark driver: call, time, record.

One front door for the CLI, CI and the tests::

    from repro.bench.runner import run_benchmarks
    from repro.bench.schema import build_document

    records = run_benchmarks(["table1", "figure1"])
    doc = build_document(records)

:func:`run_spec` calls a registered benchmark once, times the call and
serializes its schema record.  :func:`run_benchmarks` runs the named
benchmarks in order, in this process.
"""

from __future__ import annotations

import time
from typing import Any

from repro.bench.registry import BenchmarkSpec, get_benchmark

__all__ = ["failed_checks", "run_benchmarks", "run_spec"]


def run_spec(spec: BenchmarkSpec) -> dict[str, Any]:
    """Run one benchmark end to end; returns its schema record."""
    t0 = time.perf_counter()
    table, checks, derived = spec.fn()
    seconds = time.perf_counter() - t0
    return {
        "name": spec.name,
        "description": spec.description,
        "seconds": seconds,
        "checks": [check.to_record() for check in checks],
        "derived": dict(derived),
        "gates": [gate.to_record() for gate in spec.gates],
        "table": table.to_record(),
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
