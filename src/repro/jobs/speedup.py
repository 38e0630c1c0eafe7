"""Analytic multi-resource execution-time models.

Assumption 3 of the paper requires, for allocations ``p ⪯ q``::

    t(q) <= t(p) <= (max_i q^(i)/p^(i)) * t(q)

i.e. more resources never hurt, and the speedup from any single resource
type is never superlinear.  A sufficient per-type condition is that the
speedup function ``s(x)`` is non-decreasing with ``s(x)/x`` non-increasing
(concave-like).  The models below all satisfy it, and combining per-type
terms with either ``max`` (bottleneck resource, the roofline view) or
``sum`` (phased execution: compute phase + memory phase + I/O phase)
preserves the property:

* ``max`` combiner: ``t(p) = max_i w_i / s_i(p^(i))``;
* ``sum`` combiner: ``t(p) = Σ_i w_i / s_i(p^(i))``.

(A *product* combiner would model combined superlinear speedups — e.g. the
cache effect — which the paper explicitly excludes; we do not provide it.)

:class:`CommunicationOverheadTime` is a classic single-type model whose time
*increases* beyond a parallelism sweet spot; it violates the first
inequality for large allocations, which the paper handles by discarding
dominated allocations (footnote 1).  It is provided for realistic workloads
and is exercised through the Eq. (2) Pareto filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.resources.vector import ResourceVector
from repro.util.rng import ensure_rng

__all__ = [
    "SpeedupModel",
    "LinearSpeedup",
    "AmdahlSpeedup",
    "PowerLawSpeedup",
    "RooflineSpeedup",
    "LogSpeedup",
    "MultiResourceTime",
    "CommunicationOverheadTime",
    "random_multi_resource_time",
]


class SpeedupModel(Protocol):
    """A per-resource-type speedup function ``s(x)`` for integral ``x >= 1``."""

    def __call__(self, x: int) -> float:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class LinearSpeedup:
    """Perfect scaling: ``s(x) = x``."""

    def __call__(self, x: int) -> float:
        return float(x)


@dataclass(frozen=True)
class AmdahlSpeedup:
    """Amdahl's law with sequential fraction ``alpha``:
    ``s(x) = x / (alpha * x + 1 - alpha)``."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    def __call__(self, x: int) -> float:
        return x / (self.alpha * x + (1.0 - self.alpha))


@dataclass(frozen=True)
class PowerLawSpeedup:
    """Sub-linear power law ``s(x) = x**beta`` with ``beta in (0, 1]``."""

    beta: float

    def __post_init__(self) -> None:
        if not 0 < self.beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")

    def __call__(self, x: int) -> float:
        return float(x) ** self.beta


@dataclass(frozen=True)
class RooflineSpeedup:
    """Linear up to a saturation point: ``s(x) = min(x, cap)`` [38, 15]."""

    cap: float

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")

    def __call__(self, x: int) -> float:
        return min(float(x), self.cap)


@dataclass(frozen=True)
class LogSpeedup:
    """Diminishing returns ``s(x) = 1 + gamma * log2(x)``.

    ``gamma`` is capped at ``ln 2 ≈ 0.693``: beyond that the model is
    superlinear near ``x = 1`` (``s(2) = 1 + γ > 2``), violating
    Assumption 3's non-superlinear speedup requirement.
    """

    gamma: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.gamma <= math.log(2.0):
            raise ValueError(
                f"gamma must lie in (0, ln 2 ≈ 0.693] to satisfy Assumption 3, got {self.gamma}"
            )

    def __call__(self, x: int) -> float:
        return 1.0 + self.gamma * math.log2(x)


@dataclass(frozen=True)
class MultiResourceTime:
    """Execution time combining one speedup term per resource type.

    Parameters
    ----------
    works:
        Per-type work ``0 <= w_i < inf``; a zero entry means the job does not use
        that resource type (the term is skipped and the allocation may be 0
        there).
    speedups:
        One :class:`SpeedupModel` per resource type.
    combiner:
        ``"max"`` (bottleneck semantics) or ``"sum"`` (phased semantics).
        Both satisfy Assumption 3 (see module docstring).
    """

    works: tuple[float, ...]
    speedups: tuple[SpeedupModel, ...]
    combiner: str = "max"

    def __post_init__(self) -> None:
        if len(self.works) != len(self.speedups):
            raise ValueError("works and speedups must have the same length")
        if not all(0 <= w < math.inf for w in self.works):  # nan fails both
            raise ValueError(f"per-type works must be finite and non-negative, got {self.works}")
        if not any(w > 0 for w in self.works):
            raise ValueError("at least one per-type work must be positive")
        if self.combiner not in ("max", "sum"):
            raise ValueError(f"combiner must be 'max' or 'sum', got {self.combiner!r}")

    @property
    def d(self) -> int:
        return len(self.works)

    def __call__(self, alloc: ResourceVector) -> float:
        if len(alloc) != len(self.works):
            raise ValueError(
                f"allocation has {len(alloc)} types, model has {len(self.works)}"
            )
        terms = []
        for w, s, x in zip(self.works, self.speedups, alloc):
            if w == 0:
                continue
            if x < 1:
                raise ValueError(
                    "allocation must provide >= 1 unit of every resource type the "
                    f"job uses (work {w} with allocation {x})"
                )
            terms.append(w / s(int(x)))
        return max(terms) if self.combiner == "max" else sum(terms)


@dataclass(frozen=True)
class CommunicationOverheadTime:
    """Single-type model ``t(x) = w/x + c*(x-1)``: parallel work plus a
    linearly growing coordination cost.  Non-monotonic past ``sqrt(w/c)``;
    the over-allocated points are dominated and removed by Eq. (2)."""

    rtype: int
    work: float
    overhead: float
    d: int

    def __post_init__(self) -> None:
        if self.work <= 0 or self.overhead < 0:
            raise ValueError("work must be positive and overhead non-negative")
        if not 0 <= self.rtype < self.d:
            raise ValueError("rtype out of range")

    def __call__(self, alloc: ResourceVector) -> float:
        x = alloc[self.rtype]
        if x < 1:
            raise ValueError("allocation must provide >= 1 unit of the used type")
        return self.work / x + self.overhead * (x - 1)


def random_multi_resource_time(
    d: int,
    seed: int | np.random.Generator | None = None,
    *,
    total_work: tuple[float, float] = (1.0, 100.0),
    model: str = "mixed",
    combiner: str = "max",
    zero_prob: float = 0.0,
) -> MultiResourceTime:
    """Sample a random :class:`MultiResourceTime` for ``d`` resource types.

    ``model`` selects the per-type speedup family: ``"amdahl"``,
    ``"power"``, ``"roofline"``, ``"log"``, ``"linear"`` or ``"mixed"``
    (uniform over the families).  ``zero_prob`` is the probability that a
    type carries no work (at least one type always does).  ``total_work``
    bounds the log-uniform per-type work draw.
    """
    rng = ensure_rng(seed)
    lo, hi = total_work
    if not 0 < lo <= hi:
        raise ValueError("total_work bounds must satisfy 0 < lo <= hi")

    def draw_speedup() -> SpeedupModel:
        kind = model
        if kind == "mixed":
            kind = str(rng.choice(["amdahl", "power", "roofline", "log", "linear"]))
        if kind == "amdahl":
            return AmdahlSpeedup(alpha=float(rng.uniform(0.0, 0.25)))
        if kind == "power":
            return PowerLawSpeedup(beta=float(rng.uniform(0.5, 1.0)))
        if kind == "roofline":
            return RooflineSpeedup(cap=float(rng.uniform(2.0, 32.0)))
        if kind == "log":
            return LogSpeedup(gamma=float(rng.uniform(0.3, math.log(2.0))))
        if kind == "linear":
            return LinearSpeedup()
        raise ValueError(f"unknown speedup model {model!r}")

    works = [
        0.0 if rng.random() < zero_prob else float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        for _ in range(d)
    ]
    if not any(w > 0 for w in works):
        works[int(rng.integers(d))] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    return MultiResourceTime(
        works=tuple(works),
        speedups=tuple(draw_speedup() for _ in range(d)),
        combiner=combiner,
    )
