"""The named-benchmark registry: one front door for every paper benchmark.

Mirrors :mod:`repro.registry` (the scheduler registry) so the CLI, CI and
the tests all resolve benchmarks the same way — "give me benchmark *name*
and run it" — without hard-coding imports of every suite module.  A suite
module registers its benchmark::

    from repro.bench.registry import register_benchmark

    @register_benchmark("table1", kind="paper")
    def table1_benchmark() -> BenchPlan:
        ...

and callers resolve it::

    from repro.bench.registry import get_benchmark

    plan = get_benchmark("table1").build()

Every registered factory takes no argument and returns a
:class:`repro.bench.core.BenchPlan`.  Registration is import-driven;
:func:`_load_builtin_benchmarks` lazily imports :mod:`repro.bench.suites`,
which defines the built-in specs (one per committed ``BENCH_<name>.json``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.bench.core import BenchPlan

__all__ = [
    "BenchmarkSpec",
    "register_benchmark",
    "get_benchmark",
    "available_benchmarks",
    "benchmark_specs",
]

#: ``kind`` buckets benchmarks the way the scheduler registry buckets
#: schedulers: ``"paper"`` (regenerates a displayed result),
#: ``"ablation"`` and ``"extension"``.
_VALID_KINDS = ("paper", "ablation", "extension")


@dataclass(frozen=True)
class BenchmarkSpec:
    """Registry entry: the plan factory plus the metadata the CLI lists."""

    name: str
    factory: Callable[[], BenchPlan]
    kind: str
    description: str = ""

    def build(self) -> BenchPlan:
        """Expand the benchmark into its cases."""
        return self.factory()


_REGISTRY: dict[str, BenchmarkSpec] = {}


def register_benchmark(
    name: str,
    *,
    kind: str = "paper",
    description: str | None = None,
) -> Callable[[Callable[[], BenchPlan]], Callable[[], BenchPlan]]:
    """Decorator adding a benchmark factory to the registry.

    The name must be unique; ``description`` defaults to the factory's
    first docstring line.
    """
    if kind not in _VALID_KINDS:
        raise ValueError(f"kind must be one of {_VALID_KINDS}, got {kind!r}")

    def deco(fn: Callable[[], BenchPlan]) -> Callable[[], BenchPlan]:
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} is already registered")
        desc = description
        if desc is None:
            desc = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        _REGISTRY[name] = BenchmarkSpec(name=name, factory=fn, kind=kind, description=desc)
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


def available_benchmarks(*, kind: str | None = None) -> list[str]:
    """Registered benchmark names (registration order), optionally filtered."""
    return [s.name for s in benchmark_specs(kind=kind)]


def benchmark_specs(*, kind: str | None = None) -> Iterator[BenchmarkSpec]:
    """Iterate registry entries (registration order), optionally filtered."""
    _load_builtin_benchmarks()
    return iter([s for s in _REGISTRY.values() if kind is None or s.kind == kind])
