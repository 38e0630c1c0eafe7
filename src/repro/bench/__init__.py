"""Registry-driven paper benchmarks: the producer of every paper artifact.

One command regenerates the committed ``BENCH_<name>.json`` slices and the
``benchmarks/results/*.txt`` tables, and diffs the run against them::

    PYTHONPATH=src python -m repro bench --emit-dir . --tables benchmarks/results
    PYTHONPATH=src python -m repro bench --compare BENCH_*.json

A benchmark is a registered zero-argument function
(:func:`repro.bench.registry.register_benchmark`, which also declares its
gates) returning its :class:`repro.bench.core.Table`, its checks and its
derived metrics; the shared runner (:mod:`repro.bench.runner`) times the
call and emits the record to the versioned JSON schema
(:mod:`repro.bench.schema`), and :mod:`repro.bench.compare` gates the
deterministic quality ratios.  Performance is measured by
``benchmarks/stack``, not here.
"""

from repro.bench.core import CheckResult, Checker, Gate, Outcome, Table
from repro.bench.registry import (
    BenchmarkSpec,
    available_benchmarks,
    benchmark_specs,
    get_benchmark,
    register_benchmark,
)

__all__ = [
    "BenchmarkSpec",
    "CheckResult",
    "Checker",
    "Gate",
    "Outcome",
    "Table",
    "available_benchmarks",
    "benchmark_specs",
    "get_benchmark",
    "register_benchmark",
]
