"""The shared benchmark driver: expand, run, record.

One front door for the CLI, CI and the tests::

    from repro.bench.runner import run_benchmarks
    from repro.bench.schema import build_document

    records = run_benchmarks(["table1", "figure1"])
    doc = build_document(records)

:func:`run_spec` expands a registered plan, runs each case once,
evaluates its checks and derived metrics and serializes the schema
record.  :func:`run_benchmarks` fans whole benchmarks out over a process
pool via :func:`repro.experiments.parallel.map_parallel` — the unit is
one registered benchmark (its checks need the in-memory case values),
order is preserved, and ``workers=1`` (the default) runs in-process.
"""

from __future__ import annotations

import time
from typing import Any

from repro.bench.core import run_plan
from repro.bench.registry import BenchmarkSpec, get_benchmark
from repro.experiments.parallel import map_parallel

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


def _run_benchmark_job(name: str) -> dict[str, Any]:
    """Module-level worker body (must be picklable for the process pool)."""
    return run_spec(get_benchmark(name))


def run_benchmarks(
    names: list[str],
    *,
    workers: int | None = 1,
    progress=None,
) -> list[dict[str, Any]]:
    """Run the named benchmarks, optionally over a process pool.

    ``workers=1`` (default) runs serially in-process and calls
    ``progress(i, total, name)`` before each benchmark; ``workers>1`` or
    ``None`` (auto) fans the benchmarks out with :func:`map_parallel`.
    """
    for name in names:
        get_benchmark(name)  # fail fast on unknown names, before any run
    if workers == 1:
        records = []
        for i, name in enumerate(names):
            if progress is not None:
                progress(i, len(names), name)
            records.append(_run_benchmark_job(name))
        return records
    return map_parallel(_run_benchmark_job, names, workers=workers)


def failed_checks(records: list[dict[str, Any]]) -> list[tuple[str, dict[str, Any]]]:
    """Every failed check across the run, as (benchmark, check) pairs."""
    return [
        (record["name"], check)
        for record in records
        for check in record["checks"]
        if not check["ok"]
    ]
