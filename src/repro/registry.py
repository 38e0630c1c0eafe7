"""The named-scheduler registry: one front door for every scheduler.

The CLI, the paper benchmarks and external callers all need the same
thing — "give me scheduler *name* and run it on this instance" — without
hard-coding imports of every implementation.  Modules defining a scheduler
register it::

    from repro.registry import register_scheduler

    @register_scheduler("tetris", kind="baseline")
    def tetris_scheduler(instance, strategy=None):
        ...

and callers resolve it::

    from repro.registry import get_scheduler

    result = get_scheduler("tetris").schedule(instance)

Every registered callable follows the :class:`Scheduler` protocol:
``schedule(instance, **opts)`` returns a result carrying at least
``schedule`` (the realized timeline, with ``.makespan`` and
``.validate()``), ``makespan`` and ``allocation`` —
:class:`repro.baselines.naive.BaselineResult` and
:class:`repro.core.two_phase.ScheduleResult` both qualify.

Registration is import-driven; :func:`_load_builtin_schedulers` lazily
imports the packages that define the built-ins, so ``get_scheduler`` works
without callers importing anything else first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol, runtime_checkable

__all__ = [
    "Scheduler",
    "SchedulerSpec",
    "register_scheduler",
    "get_scheduler",
    "available_schedulers",
    "scheduler_specs",
]


@runtime_checkable
class SchedulerResult(Protocol):
    """What a scheduler returns: a timeline plus its provenance."""

    @property
    def makespan(self) -> float: ...


@runtime_checkable
class Scheduler(Protocol):
    """The unified scheduler interface resolved from the registry."""

    name: str

    def schedule(self, instance: Any, **opts: Any) -> SchedulerResult: ...


@dataclass(frozen=True)
class SchedulerSpec:
    """Registry entry: the factory plus the metadata sweeps filter on.

    ``kind`` distinguishes the paper's algorithm (``"core"``) from
    comparison ``"baseline"``s and the ``"malleable"`` relaxation;
    ``graphs`` is ``"any"`` or ``"independent"`` (Sun et al.'s algorithms
    reject precedence constraints).
    """

    name: str
    factory: Callable[..., Any]
    kind: str = "baseline"
    graphs: str = "any"
    description: str = ""

    def schedule(self, instance: Any, **opts: Any) -> Any:
        """Run the scheduler on ``instance``."""
        return self.factory(instance, **opts)

    __call__ = schedule


_REGISTRY: dict[str, SchedulerSpec] = {}
_VALID_KINDS = ("core", "baseline", "malleable")
_VALID_GRAPHS = ("any", "independent")


def register_scheduler(
    name: str,
    *,
    kind: str = "baseline",
    graphs: str = "any",
    description: str | None = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Class/function decorator adding a scheduler to the registry.

    The decorated callable must accept ``(instance, **opts)`` and return a
    result object (see module docstring).  The name must be unique;
    ``description`` defaults to the first docstring line.
    """
    if kind not in _VALID_KINDS:
        raise ValueError(f"kind must be one of {_VALID_KINDS}, got {kind!r}")
    if graphs not in _VALID_GRAPHS:
        raise ValueError(f"graphs must be one of {_VALID_GRAPHS}, got {graphs!r}")

    def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY:
            raise ValueError(f"scheduler {name!r} is already registered")
        desc = description
        if desc is None:
            desc = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        _REGISTRY[name] = SchedulerSpec(
            name=name, factory=fn, kind=kind, graphs=graphs, description=desc
        )
        return fn

    return deco


def _load_builtin_schedulers() -> None:
    """Import every module that registers a built-in scheduler."""
    import repro.baselines  # noqa: F401  (registers the nine baselines)
    import repro.core.two_phase  # noqa: F401  (registers "ours")
    import repro.malleable.scheduler  # noqa: F401  (registers "malleable")


def get_scheduler(name: str) -> SchedulerSpec:
    """Resolve a registered scheduler by name.

    Raises ``KeyError`` listing the registered names when unknown.
    """
    _load_builtin_schedulers()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_schedulers(*, kind: str | None = None, graphs: str | None = None) -> list[str]:
    """Registered scheduler names (registration order), optionally filtered."""
    return [s.name for s in scheduler_specs(kind=kind, graphs=graphs)]


def scheduler_specs(
    *, kind: str | None = None, graphs: str | None = None
) -> Iterator[SchedulerSpec]:
    """Iterate registry entries (registration order), optionally filtered."""
    _load_builtin_schedulers()
    return iter(
        [
            s
            for s in _REGISTRY.values()
            if (kind is None or s.kind == kind) and (graphs is None or s.graphs == graphs)
        ]
    )
