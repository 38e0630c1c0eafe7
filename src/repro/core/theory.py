"""Approximation-ratio theory of the paper (Theorems 1-6, Figure 1).

Everything here is closed-form or one-dimensional root finding:

* :func:`theorem1_ratio` / :func:`theorem1_mu` / :func:`theorem1_rho` —
  the ``φd + 2√(φd) + 1`` bound for general DAGs (Theorem 1);
* :func:`h_poly` — the quartic ``h_d(µ)`` whose root gives the optimal µ for
  large ``d`` (Theorem 2), :func:`mu_star` / :func:`rho_star` — the optimal
  parameters for any ``d``, :func:`theorem2_ratio_actual` /
  :func:`theorem2_ratio_estimate` — the two curves of Figure 1;
* :func:`theorem3_ratio` / :func:`theorem4_ratio` (SP graphs and trees),
  :func:`theorem5_ratio` (independent jobs);
* :func:`local_list_lower_bound` — Theorem 6's ``d``;
* :func:`table1_rows` / :func:`figure1_rows` — Table 1 and Figure 1.

The generic makespan bounds ``f_d(µ,ρ)`` and ``g_d(µ,ρ)`` from the proofs of
Theorems 1-2 are exposed because the end-to-end guarantee tests assert
``T <= f_d(µ,ρ) · L_LP`` directly on scheduled instances.
"""

from __future__ import annotations

import math

__all__ = [
    "PHI",
    "MU_A",
    "f_bound",
    "g_bound",
    "h_poly",
    "theorem1_ratio",
    "theorem1_mu",
    "theorem1_rho",
    "mu_star",
    "rho_star",
    "theorem2_ratio_actual",
    "theorem2_ratio_estimate",
    "theorem3_ratio",
    "theorem4_ratio",
    "theorem4_mu",
    "theorem5_ratio",
    "local_list_lower_bound",
    "best_parameters",
    "figure1_rows",
    "table1_rows",
]

#: The golden ratio φ = (1 + √5)/2.
PHI = (1.0 + math.sqrt(5.0)) / 2.0

#: µ_A = (3 − √5)/2 = 1 − 1/φ ≈ 0.381966 — the Theorem 1 choice of µ.
MU_A = (3.0 - math.sqrt(5.0)) / 2.0

#: µ_B = 3/8 — the analysis split point inside the proof of Theorem 2.
MU_B = 3.0 / 8.0


def _check_mu(mu: float) -> None:
    if not 0.0 < mu < 0.5:
        raise ValueError(f"µ must lie in (0, 0.5), got {mu}")


def _check_rho(rho: float) -> None:
    if not 0.0 < rho < 1.0:
        raise ValueError(f"ρ must lie in (0, 1), got {rho}")


# ----------------------------------------------------------------------
# generic bounds from the proofs
# ----------------------------------------------------------------------
def f_bound(d: int, mu: float, rho: float) -> float:
    """``f_d(µ,ρ) = 1/ρ + d / ((1−µ)(1−ρ))`` — Theorem 1's makespan factor.

    Valid (i.e. the ``T_2`` term is non-positive) when ``µ >= µ_A``.
    """
    _check_mu(mu)
    _check_rho(rho)
    return 1.0 / rho + d / ((1.0 - mu) * (1.0 - rho))


def g_bound(d: int, mu: float, rho: float) -> float:
    """``g_d(µ,ρ) = (1−2µ)/(µ(1−µ)ρ) + d/((1−µ)(1−ρ))`` — Theorem 2's factor.

    Valid (the ``T_1`` term is non-positive) when ``µ <= µ_A``.
    """
    _check_mu(mu)
    _check_rho(rho)
    return (1.0 - 2.0 * mu) / (mu * (1.0 - mu) * rho) + d / ((1.0 - mu) * (1.0 - rho))


def h_poly(d: int, mu: float) -> float:
    """``h_d(µ) = (2d+4)µ⁴ − (d+8)µ³ + 8µ² − 4µ + 1`` (proof of Theorem 2).

    Its sign is opposite to ``g_d'(µ)`` after optimizing ρ; the optimal µ for
    ``d >= 22`` is the unique root in ``(0, 3/8]``.
    """
    return (2 * d + 4) * mu**4 - (d + 8) * mu**3 + 8 * mu**2 - 4 * mu + 1


# ----------------------------------------------------------------------
# Theorem 1 (general DAGs, any d)
# ----------------------------------------------------------------------
def theorem1_mu() -> float:
    """µ* = 1 − 1/φ ≈ 0.382 (Theorem 1)."""
    return MU_A


def theorem1_rho(d: int) -> float:
    """ρ* = 1/(√(φd) + 1) (Theorem 1)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return 1.0 / (math.sqrt(PHI * d) + 1.0)


def theorem1_ratio(d: int) -> float:
    """The Theorem 1 approximation ratio ``φd + 2√(φd) + 1``."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return PHI * d + 2.0 * math.sqrt(PHI * d) + 1.0


def theorem1_pmin() -> float:
    """Capacity precondition of Theorem 1: ``P_min >= 1/µ*² ≈ 6.854``."""
    return 1.0 / MU_A**2


# ----------------------------------------------------------------------
# Theorem 2 (general DAGs, large d)
# ----------------------------------------------------------------------
def rho_star(d: int, mu: float) -> float:
    """The ρ minimizing ``g_d(µ, ·)``:
    ``ρ*(µ) = √X_µ / (√X_µ + √(dY_µ))`` with ``X_µ = (1−2µ)/(µ(1−µ))``,
    ``Y_µ = 1/(1−µ)``."""
    _check_mu(mu)
    x = (1.0 - 2.0 * mu) / (mu * (1.0 - mu))
    y = 1.0 / (1.0 - mu)
    sx, sy = math.sqrt(x), math.sqrt(d * y)
    return sx / (sx + sy)


def mu_star(d: int) -> float:
    """The optimal µ for general DAGs.

    For ``d <= 21``, ``h_d`` is positive on ``(0, µ_A]`` so the optimum is
    ``µ_A`` (Theorem 1's choice).  For ``d >= 22`` it is the unique root of
    ``h_d`` in ``(0, µ_B]`` (Theorem 2), found numerically.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d <= 21:
        return MU_A
    # h_d(0) = 1 > 0 and h_d(µ_B) < 0 for d >= 22; h_d is strictly
    # decreasing on (0, µ_B], so brentq is safe.
    lo = 1e-9
    if h_poly(d, MU_B) >= 0:  # pragma: no cover - cannot happen for d >= 22
        return MU_A
    # imported here, for d >= 22 only: no other path of the package runs
    # scipy.optimize's __init__ (core.dtct loads HiGHS's binding alone)
    from scipy.optimize import brentq

    return float(brentq(lambda m: h_poly(d, m), lo, MU_B, xtol=1e-14))


def theorem2_ratio_actual(d: int) -> float:
    """Figure 1's *actual* ratio: ``g_d(µ*, ρ*(µ*))`` with the numeric µ*."""
    mu = mu_star(d)
    if mu >= MU_A:
        return theorem1_ratio(d)
    return g_bound(d, mu, rho_star(d, mu))


def theorem2_ratio_estimate(d: int) -> float:
    """Figure 1's *estimated* ratio: ``g_d`` evaluated at ``µ = d^(−1/3)``.

    This is the closed-form estimate the paper derives for large ``d``
    (``d + 3·d^(2/3) + O(d^(1/3))``).
    """
    if d < 8:
        raise ValueError("the µ ≈ d^(-1/3) estimate needs d >= 8 so that µ < 0.5")
    mu = d ** (-1.0 / 3.0)
    mu = min(mu, MU_A)  # stay in g's validity range
    return g_bound(d, mu, rho_star(d, mu))


# ----------------------------------------------------------------------
# Theorems 3-4 (series-parallel graphs and trees)
# ----------------------------------------------------------------------
def theorem3_ratio(d: int, eps: float = 0.0) -> float:
    """SP graphs / trees, any ``d``: ``(1+ε)(φd + 1)``."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if eps < 0:
        raise ValueError("ε must be >= 0")
    return (1.0 + eps) * (PHI * d + 1.0)


def theorem4_mu(d: int) -> float:
    """µ* = 1/(√(d−1) + 1) (Theorem 4, d >= 4)."""
    if d < 4:
        raise ValueError("Theorem 4 requires d >= 4")
    return 1.0 / (math.sqrt(d - 1.0) + 1.0)


def theorem4_ratio(d: int, eps: float = 0.0) -> float:
    """SP graphs / trees, ``d >= 4``: ``(1+ε)(d + 2√(d−1))``."""
    if d < 4:
        raise ValueError("Theorem 4 requires d >= 4")
    if eps < 0:
        raise ValueError("ε must be >= 0")
    return (1.0 + eps) * (d + 2.0 * math.sqrt(d - 1.0))


# ----------------------------------------------------------------------
# Theorem 5 (independent jobs)
# ----------------------------------------------------------------------
def theorem5_ratio(d: int) -> float:
    """Independent jobs: 2d (d <= 2), 1.619d + 1 (d = 3), d + 2√(d−1) (d >= 4)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d <= 2:
        return 2.0 * d
    if d == 3:
        return PHI * d + 1.0
    return d + 2.0 * math.sqrt(d - 1.0)


# ----------------------------------------------------------------------
# Theorem 6 (lower bound)
# ----------------------------------------------------------------------
def local_list_lower_bound(d: int) -> float:
    """No local-priority list scheduler beats ``d``-approximation (Theorem 6)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return float(d)


# ----------------------------------------------------------------------
# parameter selection and Figure 1
# ----------------------------------------------------------------------
def best_parameters(d: int, graph_class: str = "general", eps: float = 0.1) -> tuple[float, float, float]:
    """Return ``(µ, ρ, proven_ratio)`` for the given graph class.

    ``graph_class`` is ``"general"`` (Theorems 1/2 — whichever wins at this
    ``d``), ``"sp"``/``"tree"`` (Theorems 3/4 — µ choice; ρ is unused by the
    FPTAS but returned as Theorem 1's for uniformity), or ``"independent"``
    (Theorem 5 — µ choice).
    """
    if graph_class == "general":
        mu = mu_star(d)
        if mu >= MU_A - 1e-12:
            return MU_A, theorem1_rho(d), theorem1_ratio(d)
        return mu, rho_star(d, mu), g_bound(d, mu, rho_star(d, mu))
    if graph_class in ("sp", "tree"):
        if d >= 4 and theorem4_ratio(d, eps) < theorem3_ratio(d, eps):
            return theorem4_mu(d), theorem1_rho(d), theorem4_ratio(d, eps)
        return MU_A, theorem1_rho(d), theorem3_ratio(d, eps)
    if graph_class == "independent":
        if d >= 4:
            return theorem4_mu(d), theorem1_rho(d), theorem5_ratio(d)
        return MU_A, theorem1_rho(d), theorem5_ratio(d)
    raise ValueError(f"unknown graph class {graph_class!r}")


def figure1_rows(d_min: int = 22, d_max: int = 50) -> list[dict[str, float]]:
    """The three series of Figure 1 for ``d_min <= d <= d_max``:
    actual Theorem 2 ratio, its closed-form estimate, and Theorem 1's ratio."""
    rows = []
    for d in range(d_min, d_max + 1):
        rows.append(
            {
                "d": d,
                "theorem2_actual": theorem2_ratio_actual(d),
                "theorem2_estimate": theorem2_ratio_estimate(d),
                "theorem1": theorem1_ratio(d),
                "mu_star": mu_star(d),
            }
        )
    return rows


def table1_rows() -> list[dict[str, object]]:
    """Table 1's proven ratio per precedence class, evaluated at
    ``d`` in {1, 2, 3, 4, 8, 22, 50}; Theorem 2 joins at ``d >= 22`` and
    Theorem 4 at ``d >= 4``."""
    rows: list[dict[str, object]] = []

    def row(precedence: str, d: int, formula: str, ratio: float) -> None:
        rows.append({"precedence": precedence, "d": d, "formula": formula, "ratio": ratio})

    for d in (1, 2, 3, 4, 8, 22, 50):
        row("general", d, "1.619d + 2.545*sqrt(d) + 1", theorem1_ratio(d))
        if d >= 22:
            row("general", d, "d + 3*d^(2/3) + O(d^(1/3))", theorem2_ratio_actual(d))
        row("sp/tree", d, "(1+eps)(1.619d + 1), eps=0", theorem3_ratio(d))
        if d >= 4:
            row("sp/tree", d, "(1+eps)(d + 2*sqrt(d-1)), eps=0", theorem4_ratio(d))
        row("independent", d, "Theorem 5 (piecewise)", theorem5_ratio(d))
    return rows
