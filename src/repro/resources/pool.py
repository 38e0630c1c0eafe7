"""The platform resource pool: ``d`` resource types with capacities ``P^(i)``."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.resources.vector import ResourceVector

__all__ = ["ResourcePool"]


@dataclass(frozen=True)
class ResourcePool:
    """Static description of the platform (Section 3.1).

    Parameters
    ----------
    capacities:
        Total integral amount ``P^(i)`` of each resource type.
    names:
        Optional human-readable names (``("cores", "memory", ...)``); defaults
        to ``type0, type1, ...``.  Purely cosmetic (reports, Gantt charts).
    """

    capacities: ResourceVector
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        caps = ResourceVector(self.capacities)
        object.__setattr__(self, "capacities", caps)
        if not caps:
            raise ValueError("platform capacities must be a positive vector, "
                             "got () (a platform needs at least one resource type)")
        if any(c <= 0 for c in caps):
            raise ValueError(f"all capacities must be positive, got {tuple(caps)}")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"type{i}" for i in range(len(caps))))
        elif len(self.names) != len(caps):
            raise ValueError("names must match the number of resource types")

    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, d: int, capacity: int, names: Sequence[str] | None = None) -> "ResourcePool":
        """A pool with ``d`` types of identical capacity."""
        return cls(ResourceVector((capacity,) * d), tuple(names) if names else ())

    @classmethod
    def of(cls, *capacities: int, names: Sequence[str] | None = None) -> "ResourcePool":
        """Convenience constructor: ``ResourcePool.of(32, 16, 8)``."""
        return cls(ResourceVector(capacities), tuple(names) if names else ())

    # ------------------------------------------------------------------
    @property
    def d(self) -> int:
        """Number of resource types."""
        return len(self.capacities)

    @property
    def p_min(self) -> int:
        """``P_min = min_i P^(i)`` — the theorems' capacity precondition."""
        return min(self.capacities)

    def validate_allocation(self, alloc: ResourceVector) -> None:
        """Raise unless ``0 ⪯ alloc ⪯ capacities`` with at least one positive entry."""
        if alloc.d != self.d:
            raise ValueError(f"allocation has {alloc.d} types, pool has {self.d}")
        if not alloc.dominated_by(self.capacities):
            raise ValueError(f"allocation {tuple(alloc)} exceeds capacities {tuple(self.capacities)}")
        if alloc.is_zero():
            raise ValueError("allocation must request at least one resource unit")

    def mu_caps(self, mu: float) -> ResourceVector:
        """Per-type adjustment caps ``⌈µ P^(i)⌉`` of Eq. (5)."""
        if not 0 < mu < 0.5:
            raise ValueError(f"µ must lie in (0, 0.5), got {mu}")
        return ResourceVector(math.ceil(mu * p) for p in self.capacities)

    def supports_mu(self, mu: float) -> bool:
        """Lemma 4 / Lemma 6 precondition ``P_min >= 1/µ²``."""
        return self.p_min >= 1.0 / (mu * mu)

    def iter_types(self) -> Iterable[tuple[int, str, int]]:
        """Yield ``(index, name, capacity)`` triples."""
        for i, (name, cap) in enumerate(zip(self.names, self.capacities)):
            yield i, name, cap
