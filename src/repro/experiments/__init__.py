"""Experiment library: the sweeps, workloads and table builders that the
registered ``repro bench`` specs run to reproduce the paper.

Import the modules directly (``repro.experiments.sweeps``,
``repro.experiments.workloads``, ...); the package itself loads nothing.
"""
