"""Registry-driven paper benchmarks: the producer of every paper artifact.

One command regenerates the committed ``BENCH_<name>.json`` slices and the
``benchmarks/results/*.txt`` tables, and diffs the run against them::

    PYTHONPATH=src python -m repro bench --emit-dir . --tables benchmarks/results
    PYTHONPATH=src python -m repro bench --compare BENCH_*.json

A benchmark is a registered factory (:func:`repro.bench.registry.
register_benchmark`) returning a :class:`repro.bench.core.BenchPlan`; the
shared runner (:mod:`repro.bench.runner`) owns check evaluation and
emission to the versioned JSON schema (:mod:`repro.bench.schema`), and
:mod:`repro.bench.compare` gates the deterministic quality ratios.
Performance is measured by ``benchmarks/stack``, not here.
"""

from repro.bench.core import (
    BenchCase,
    BenchPlan,
    CaseResult,
    CheckResult,
    Checker,
    Gate,
    Table,
)
from repro.bench.registry import (
    BenchmarkSpec,
    available_benchmarks,
    benchmark_specs,
    get_benchmark,
    register_benchmark,
)

__all__ = [
    "BenchCase",
    "BenchPlan",
    "BenchmarkSpec",
    "CaseResult",
    "CheckResult",
    "Checker",
    "Gate",
    "Table",
    "available_benchmarks",
    "benchmark_specs",
    "get_benchmark",
    "register_benchmark",
]
