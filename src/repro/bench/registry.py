"""The named-benchmark registry: one front door for every paper benchmark.

Mirrors :mod:`repro.registry` (the scheduler registry) so the CLI, CI and
the tests all resolve benchmarks the same way — "give me benchmark *name*
and run it" — without hard-coding imports of every suite module.  A suite
module registers its benchmark, with the gates ``--compare`` enforces::

    from repro.bench.registry import register_benchmark

    @register_benchmark("sim_independent", description="Sim-B: ...",
                        gates=[Gate("ours_mean_ratio", direction="lower")])
    def sim_b_benchmark() -> Outcome:
        ...
        return table, checker.results, {"ours_mean_ratio": ...}

and callers resolve it::

    from repro.bench.registry import get_benchmark

    table, checks, derived = get_benchmark("table1").fn()

Every registered function takes no argument and returns a
:data:`repro.bench.core.Outcome`.  Registration is import-driven;
:func:`_load_builtin_benchmarks` lazily imports :mod:`repro.bench.suites`,
which defines the built-in specs (one per committed ``BENCH_<name>.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.bench.core import Gate, Outcome

__all__ = [
    "BenchmarkSpec",
    "register_benchmark",
    "get_benchmark",
    "available_benchmarks",
    "benchmark_specs",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Registry entry: the benchmark function plus what the record carries."""

    name: str
    fn: Callable[[], Outcome]
    description: str
    #: the derived metrics ``--compare`` may fail on
    gates: Sequence[Gate] = ()


_REGISTRY: dict[str, BenchmarkSpec] = {}


def register_benchmark(
    name: str,
    *,
    description: str,
    gates: Sequence[Gate] = (),
) -> Callable[[Callable[[], Outcome]], Callable[[], Outcome]]:
    """Decorator adding a benchmark function to the registry (unique name)."""

    def deco(fn: Callable[[], Outcome]) -> Callable[[], Outcome]:
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} is already registered")
        _REGISTRY[name] = BenchmarkSpec(
            name=name, fn=fn, description=description, gates=tuple(gates)
        )
        return fn

    return deco


def _load_builtin_benchmarks() -> None:
    """Import the suite package that registers the built-in benchmarks."""
    import repro.bench.suites  # noqa: F401


def get_benchmark(name: str) -> BenchmarkSpec:
    """Resolve a registered benchmark by name.

    Raises ``KeyError`` listing the registered names when unknown.
    """
    _load_builtin_benchmarks()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_benchmarks() -> list[str]:
    """Registered benchmark names, in registration order."""
    return [s.name for s in benchmark_specs()]


def benchmark_specs() -> Iterator[BenchmarkSpec]:
    """Iterate registry entries in registration order."""
    _load_builtin_benchmarks()
    return iter(list(_REGISTRY.values()))
