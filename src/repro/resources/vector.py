"""Integral resource vectors with the paper's dominance order.

``ResourceVector`` subclasses :class:`tuple` so vectors are hashable,
immutable, cheap to create, and usable directly as dict keys in the hot
scheduling loops, while still carrying the domain operations the paper
uses (the partial order ``p ⪯ q`` of Assumption 3 and component
arithmetic).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["ResourceVector", "whole_amounts"]

#: the one amount type taken as it is, without :func:`whole_amounts`
_EXACT = frozenset((int,))


def whole_amounts(demand) -> tuple[int, ...]:
    """The one lowering of amounts to integers, wherever they enter (a
    :class:`ResourceVector`, a wire record, row validation, batch
    validation, checkpoint restore, instance and trace files).

    An amount must *equal* its integer value: ``2``, ``2.0`` and numpy
    integers are two units; ``2.7``, ``"2"``, ``nan`` and ``inf`` raise
    ``ValueError`` instead of truncating — a job never runs on less than
    it asked for.  A boolean is not an amount, although ``True == 1``.
    """
    raw = tuple(demand)
    try:
        dem = tuple(map(int, raw))
    except OverflowError as exc:  # int(inf)
        raise ValueError(str(exc)) from None
    if dem != raw or any(isinstance(a, (bool, np.bool_)) for a in raw):
        raise ValueError(f"demand amounts must be whole numbers, got {list(raw)}")
    return dem


class ResourceVector(tuple):
    """An allocation ``p = (p^(1), ..., p^(d))`` of integral resource amounts.

    Amounts are lowered by :func:`whole_amounts`: ``2.0`` and numpy integers
    are taken, ``2.7`` and ``True`` refused.

    The class is a thin :class:`tuple` subclass: equality, hashing and
    iteration behave like tuples, so vectors can index dictionaries and be
    compared structurally.  All domain operations return new vectors.
    """

    __slots__ = ()

    def __new__(cls, amounts: Iterable[int]) -> "ResourceVector":
        raw = tuple(amounts)
        # exact ints, the common case, are whole amounts already
        vec = super().__new__(cls, raw if _EXACT.issuperset(map(type, raw)) else whole_amounts(raw))
        if vec and min(vec) < 0:
            raise ValueError(f"resource amounts must be non-negative, got {tuple(vec)}")
        return vec

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, d: int) -> "ResourceVector":
        """The all-zero allocation for ``d`` resource types."""
        return cls((0,) * d)

    @classmethod
    def ones(cls, d: int) -> "ResourceVector":
        """The unit allocation (one unit of every type)."""
        return cls((1,) * d)

    @classmethod
    def unit(cls, d: int, rtype: int, amount: int = 1) -> "ResourceVector":
        """An allocation of ``amount`` units of type ``rtype`` only."""
        if not 0 <= rtype < d:
            raise ValueError(f"resource type {rtype} out of range for d={d}")
        return cls(tuple(amount if i == rtype else 0 for i in range(d)))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def d(self) -> int:
        """Number of resource types."""
        return len(self)

    def is_zero(self) -> bool:
        """True when no resource of any type is allocated."""
        return all(a == 0 for a in self)

    # ------------------------------------------------------------------
    # dominance partial order (Assumption 3): p ⪯ q  iff  p^(i) <= q^(i) ∀i
    # ------------------------------------------------------------------
    def dominated_by(self, other: "ResourceVector") -> bool:
        """``self ⪯ other`` — at most ``other`` in every resource type."""
        self._check_same_d(other)
        return all(a <= b for a, b in zip(self, other))

    def dominates(self, other: "ResourceVector") -> bool:
        """``other ⪯ self``."""
        return ResourceVector.dominated_by(other, self)

    # ------------------------------------------------------------------
    # arithmetic (used by the list scheduler's availability tracking)
    # ------------------------------------------------------------------
    def add(self, other: "ResourceVector") -> "ResourceVector":
        self._check_same_d(other)
        return ResourceVector(a + b for a, b in zip(self, other))

    def sub(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise difference; raises if any component goes negative."""
        self._check_same_d(other)
        return ResourceVector(a - b for a, b in zip(self, other))

    def cap(self, limits: "ResourceVector") -> "ResourceVector":
        """Component-wise minimum with ``limits`` (Eq. (5) adjustment)."""
        self._check_same_d(limits)
        return ResourceVector(min(a, b) for a, b in zip(self, limits))

    # ------------------------------------------------------------------
    def _check_same_d(self, other: "ResourceVector") -> None:
        if len(self) != len(other):
            raise ValueError(
                f"resource-type dimension mismatch: {len(self)} vs {len(other)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResourceVector{tuple(self)}"
