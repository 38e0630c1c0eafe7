"""Pluggable dispatch backends for the batch event loop.

The hot loop of :class:`~repro.engine.dispatch.PriorityLoop` — heap
advance, feasibility scan and dispatch — sits behind a small registry so
alternative implementations can be swapped in without touching the
loop's state layout or its callers.  The registry mirrors
:mod:`repro.registry` (the scheduler registry): backends register under
a name via :func:`register_backend`, are looked up with
:func:`get_backend`, and the built-ins load lazily on first query.

Two built-ins ship:

* ``python`` — the numpy loop (the default): admit-then-refilter
  dispatch pass, vectorized batch application of simultaneous events,
  both demand encodings.
* ``numba`` — an ``@njit``-compiled kernel for the packed encoding
  (``d <= 4``, capacities below ``2**15``); everything else it hands to
  ``python``.  :mod:`numba` is imported lazily; when it is absent (it is
  an optional dependency, never required) the backend reports itself
  unavailable and resolution falls back to ``python`` with a warning.

Selection order is **CLI flag > ``REPRO_BACKEND`` env var > default**
(see :func:`resolve_backend`); every run records the backend that
actually executed so operators can tell a fallback from a hit.

Backend objects implement::

    name: str                  # registry name
    is_available() -> bool     # can this backend execute here?
    run(loop, until) -> bool   # execute PriorityLoop's hot loop

``run`` receives the loop object itself (all state lives on the loop, see
:class:`~repro.engine.dispatch.PriorityLoop`) with either demand
encoding, stops before the first event past ``until`` (``None``: never),
must leave the state consistent on return so a later call resumes, and
returns ``True`` once the heap drains.  A backend that does not cover a
loop (the encoding, an ``on_complete`` hook) delegates to
``get_backend("python").run``.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "BackendSpec",
    "register_backend",
    "get_backend",
    "backend_names",
    "available_backends",
    "resolve_backend",
    "DEFAULT_BACKEND",
    "BACKEND_ENV",
]

#: The backend used when neither the CLI nor the environment names one.
DEFAULT_BACKEND = "python"

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV = "REPRO_BACKEND"


@dataclass(frozen=True)
class BackendSpec:
    """Registry record for one dispatch backend."""

    name: str
    factory: Callable[[], object]
    description: str = ""


_REGISTRY: dict[str, BackendSpec] = {}
_INSTANCES: dict[str, object] = {}
_BUILTINS_LOADED = False


def register_backend(name: str, *, description: str = ""):
    """Class/function decorator registering a backend factory under ``name``.

    The factory is called once, lazily, on first :func:`get_backend`;
    the instance is cached (backends are stateless between runs apart
    from compiled-kernel caches, which is exactly what the cache is for).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")

    def deco(factory):
        if name in _REGISTRY:
            raise ValueError(f"backend {name!r} is already registered")
        _REGISTRY[name] = BackendSpec(name=name, factory=factory, description=description)
        return factory

    return deco


def _load_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.engine.backends import numba, python  # noqa: F401


def backend_names() -> list[str]:
    """All registered backend names, default first."""
    _load_builtins()
    names = sorted(_REGISTRY)
    if DEFAULT_BACKEND in names:
        names.remove(DEFAULT_BACKEND)
        names.insert(0, DEFAULT_BACKEND)
    return names


def get_backend(name: str):
    """The backend instance registered under ``name`` (KeyError if unknown)."""
    _load_builtins()
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise KeyError(f"unknown backend {name!r} (registered: {known})")
    if name not in _INSTANCES:
        _INSTANCES[name] = _REGISTRY[name].factory()
    return _INSTANCES[name]


def available_backends() -> dict[str, bool]:
    """Mapping of registered backend name to availability on this host."""
    _load_builtins()
    return {name: get_backend(name).is_available() for name in backend_names()}


def resolve_backend(name: "str | None" = None, *, warn: bool = True):
    """Resolve the backend to run with: CLI ``name`` > env > default.

    An explicitly named but *unregistered* backend is an error (a typo
    should not silently run something else).  A registered backend that
    is unavailable on this host (e.g. ``numba`` without numba installed)
    falls back to the default with a :class:`RuntimeWarning` — requested
    runs still complete, just uninlined, and the warning plus the
    recorded ``.name`` make the fallback visible.
    """
    requested = name or os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    backend = get_backend(requested)
    if backend.is_available():
        return backend
    if warn:
        warnings.warn(
            f"backend {requested!r} is not available on this host "
            f"(falling back to {DEFAULT_BACKEND!r})",
            RuntimeWarning,
            stacklevel=2,
        )
    return get_backend(DEFAULT_BACKEND)
