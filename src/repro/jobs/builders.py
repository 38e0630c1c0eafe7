"""Noise injection on top of an execution-time model.

Assumption 2 says execution-time functions come from "modeling, profiling,
prediction or interpolation"; :func:`perturbed_time_fn` models the error of
such a prediction — deterministic multiplicative noise on top of a model,
for the robustness studies (noise can break Assumption 3).
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from repro.resources.vector import ResourceVector

__all__ = ["perturbed_time_fn"]

TimeFunction = Callable[[ResourceVector], float]


def perturbed_time_fn(
    base: TimeFunction,
    rel_noise: float,
    seed: int = 0,
) -> TimeFunction:
    """Multiply ``base`` by a deterministic per-allocation lognormal factor.

    The factor depends only on ``(seed, allocation)`` — repeated queries are
    consistent (a requirement for the schedulers, which evaluate the same
    allocation many times).  ``rel_noise`` is the lognormal sigma; 0 returns
    ``base`` unchanged.
    """
    if rel_noise < 0:
        raise ValueError("rel_noise must be >= 0")
    if rel_noise == 0:
        return base

    def fn(alloc: ResourceVector) -> float:
        digest = hashlib.sha256(f"{seed}:{tuple(alloc)}".encode()).digest()
        sub_seed = int.from_bytes(digest[:8], "little")
        factor = float(np.exp(np.random.default_rng(sub_seed).normal(0.0, rel_noise)))
        return base(alloc) * factor

    return fn
