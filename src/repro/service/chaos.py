"""Deterministic seeded fault injection for the durable service layer.

A :class:`ChaosInjector` owns one seeded RNG and a rate per named
injection point; every point the durable session passes through asks
``fires(point)``, so a given ``(spec, seed)`` pair replays the *same*
crash sites on every run — the conformance ``scenario="crash"`` family
and the recovery tests rely on that determinism to be reproducible from
a seed alone.

Injection points (``CRASH_POINTS``):

``op-begin``
    before any effect of a journaled verb — the client re-submits and
    nothing was lost;
``op-applied``
    after the in-memory apply but before the journal append (a crash
    mid-admission): the effect dies with the process and the client's
    retry re-admits it;
``op-journaled``
    after the journal append but before the acknowledgment: recovery
    replays the record and the client's retry is deduplicated;
``mid-drain``
    inside ``drain``, after part of the event stream has been
    processed;
``checkpoint-temp``
    between "new checkpoint written durable" and "new checkpoint
    renamed visible" (a torn/aborted checkpoint write);
``journal-torn``
    the journal append writes only a byte prefix of the record before
    dying (the classic torn tail).

A crash is delivered by raising :class:`ChaosCrash` (in-process
harnesses catch it and run recovery) or by an ``on_crash`` override —
``repro serve --chaos`` installs ``os._exit(137)`` so a served process
dies exactly as SIGKILL would.  ``max_crashes`` quiets the injector
after N crashes so retry loops always terminate.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

__all__ = ["CRASH_POINTS", "ChaosCrash", "ChaosInjector"]

CRASH_POINTS = (
    "op-begin",
    "op-applied",
    "op-journaled",
    "mid-drain",
    "checkpoint-temp",
    "journal-torn",
)


class ChaosCrash(RuntimeError):
    """An injected crash: the process 'died' at ``args[0]``."""


class ChaosInjector:
    """Seeded, rate-per-point fault injector (see module docstring)."""

    def __init__(
        self,
        rates: Mapping[str, float],
        *,
        seed: int = 0,
        max_crashes: "int | None" = None,
        on_crash: "Callable[[str], Any] | None" = None,
    ) -> None:
        unknown = set(rates) - set(CRASH_POINTS)
        if unknown:
            raise ValueError(
                f"unknown chaos point(s) {sorted(unknown)}; "
                f"known: {sorted(CRASH_POINTS)}"
            )
        for point, rate in rates.items():
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(f"chaos rate for {point!r} must be in [0, 1], got {rate}")
        self.rates = {p: float(r) for p, r in rates.items()}
        self.rng = np.random.default_rng(seed)
        self.max_crashes = max_crashes
        self.on_crash = on_crash
        self.crashes = 0
        self.fired: list[str] = []  # every crash site, in order

    @classmethod
    def from_spec(
        cls,
        spec: str,
        *,
        seed: int = 0,
        max_crashes: "int | None" = None,
        on_crash: "Callable[[str], Any] | None" = None,
    ) -> "ChaosInjector":
        """Parse ``"point:rate,point:rate"`` (e.g. ``"op-applied:0.05,mid-drain:0.2"``).

        A bare ``point`` (no ``:rate``) means rate 1.0.  This is the
        ``--chaos`` / ``REPRO_CHAOS`` syntax.
        """
        rates: dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            point, _, rate = part.partition(":")
            try:
                rates[point.strip()] = float(rate) if rate else 1.0
            except ValueError:
                raise ValueError(f"malformed chaos rate in {part!r}") from None
        if not rates:
            raise ValueError(f"empty chaos spec {spec!r}")
        return cls(rates, seed=seed, max_crashes=max_crashes, on_crash=on_crash)

    # ------------------------------------------------------------------
    def fires(self, point: str) -> bool:
        """Draw the point's coin (only points with a configured rate draw,
        so enabling one point never shifts another's stream)."""
        rate = self.rates.get(point, 0.0)
        if rate <= 0.0:
            return False
        if self.max_crashes is not None and self.crashes >= self.max_crashes:
            return False
        return bool(self.rng.random() < rate)

    def crash(self, point: str) -> None:
        """Deliver a crash at ``point`` (raises :class:`ChaosCrash` unless
        ``on_crash`` overrides — e.g. ``os._exit`` under ``repro serve``)."""
        self.crashes += 1
        self.fired.append(point)
        if self.on_crash is not None:
            self.on_crash(point)
        raise ChaosCrash(point)

    def maybe_crash(self, point: str) -> None:
        if self.fires(point):
            self.crash(point)
