"""Experiment library: the workloads, the Theorem 6 instance family and the
table renderer that the registered ``repro bench`` specs
(:mod:`repro.bench.suites`) build the paper's results from.

Import the modules directly (``repro.experiments.workloads``,
``repro.experiments.lb_instance``, ``repro.experiments.report``); the
package itself loads nothing.
"""
