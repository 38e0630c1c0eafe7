"""Built-in benchmark specs: one registered benchmark per result artifact.

Importing this package registers every built-in benchmark (the registry's
:func:`repro.bench.registry._load_builtin_benchmarks` does so lazily).
Each spec owns one committed ``BENCH_<name>.json`` slice; that the two
sets agree is asserted by ``tests/test_bench_harness.py``.
"""

from repro.bench.suites import ablations, extensions, paper  # noqa: F401
