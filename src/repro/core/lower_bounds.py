"""The makespan lower bound used as the ratio denominator.

The chain of inequalities (Lemmas 1-2 and LP relaxation)::

    L_LP  <=  L_min  <=  T_opt

:func:`lp_lower_bound` is the fractional DTCT optimum (any instance).  The
exact ``L_min`` by enumeration, the test oracle for the FPTAS and Lemma 8,
is ``tests/helpers.py::exact_lmin_bruteforce``.
"""

from __future__ import annotations

from repro.core.dtct import solve_dtct_lp
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy

__all__ = ["lp_lower_bound"]


def lp_lower_bound(instance: Instance, strategy: CandidateStrategy | None = None) -> float:
    """``L_LP`` — the fractional DTCT optimum (certified ``<= T_opt``)."""
    table = instance.candidate_table(strategy)
    return solve_dtct_lp(instance, table).lower_bound
