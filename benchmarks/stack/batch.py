"""The three batch workloads: one scheduling call is one timed repeat.

Untraced, a repeat is exactly the call a user makes — ``moldable_schedule``
or ``list_schedule`` — on an ``Instance`` nobody has touched.  Traced, the
benchmark makes the same pipeline's public calls itself, one span per
layer; the two must produce the same schedule.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.conformance.invariants import validate_schedule
from repro.core import theory
from repro.core.adjustment import adjust_allocation
from repro.core.dtct import round_fractional, solve_dtct_lp
from repro.core.list_scheduler import ScheduleLog, fifo_priority, list_schedule
from repro.core.two_phase import moldable_schedule
from repro.engine.dispatch import priority_loop
from repro.instance.compiled import compile_instance

import harness
from workloads import make_inputs


def traced_list_schedule(instance, allocation, tr):
    """Phase 2 layer by layer: the calls ``list_schedule_log`` makes, then
    ``ScheduleLog.to_schedule``.  Returns ``(schedule, log)``."""
    with tr.span("instance.compiled.compile"):
        ci = compile_instance(instance)
    with tr.span("instance.validate_allocation"):
        alloc_mat = instance.validate_allocation_map(allocation)
    with tr.span("core.list_scheduler.keys"):
        durations = np.fromiter(
            (instance.time(j, allocation[j]) for j in ci.order),
            dtype=np.float64, count=ci.n,
        )
        keys = fifo_priority.as_array(instance, allocation, durations)
    with tr.span("engine.dispatch.build"):
        loop = priority_loop(
            instance, allocation, keys, durations, None, alloc_mat=alloc_mat
        )
    with tr.span("engine.dispatch.run"):
        loop.run()
    index, start = loop.start_log()
    log = ScheduleLog(
        order=ci.order, job_index=index.copy(), start=start.copy(),
        duration=durations, makespan=float(loop.now),
    )
    with tr.span("core.list_scheduler.materialize"):
        schedule = log.to_schedule(instance, allocation)
    return schedule, log


class BatchWorkload:
    """``moldable-pipeline`` and the two ``rigid-batch-*`` workloads."""

    def __init__(self, spec, seed: int, tally, host) -> None:
        self.spec = spec
        self.seed = seed
        self.tally = tally
        self.host = host
        self.inputs = None  # one per instance of a repeat
        self.results = None  # the last repeat's outcomes, for the checks
        self.shas: set[str] = set()

    @property
    def input_sha(self) -> str:
        return harness.sha_of(inp.input_sha for inp in self.inputs)

    # -- one scheduling call ------------------------------------------------
    def _call(self, inputs, instance):
        if self.spec.kind == "moldable":
            res = moldable_schedule(instance)
            return {
                "schedule": res.schedule, "lower_bound": res.lower_bound,
                "proven_ratio": res.proven_ratio, "mu": res.mu,
            }
        schedule = list_schedule(instance, inputs.allocation, fifo_priority)
        return {"schedule": schedule, "mu": None}

    def setup(self) -> None:
        """Generate the inputs and run one untimed warm-up repeat."""
        self.inputs = make_inputs(self.spec.name, self.seed)
        self.repeat()

    def repeat(self) -> dict:
        """One call per input, each on a fresh instance and each its own
        timed segment between two host-speed samples."""
        segments, cpu, results = [], 0.0, []
        for inputs in self.inputs:
            instance = inputs.fresh_instance()  # outside the timed region
            self.tally.attempted += 1
            with harness.quiet_collector():
                before = self.host.sample()
                c0 = time.process_time()
                t0 = time.perf_counter()
                out = self._call(inputs, instance)
                wall = time.perf_counter() - t0
                cpu += time.process_time() - c0
                segments.append((wall, self.host.slowdown(before, self.host.sample())))
            out["instance"], out["inputs"] = instance, inputs
            results.append(out)
        self.results = results
        self.shas.add(self._schedule_sha(r["schedule"] for r in results))
        sample = harness.timed_sample(segments, cpu, harness.peak_rss_mb([os.getpid()]))
        sample["rate"] = [self.spec.n / sample["wall_s"]]
        sample["rate_scaled"] = [self.spec.n / sample["scaled_s"]]
        # for a batch user the call that hands the work over *is* the run
        sample["submit_s"] = [s for s, _ in segments]
        sample["submit_scaled_s"] = [s / k for s, k in segments]
        return sample

    @staticmethod
    def _schedule_sha(schedules) -> str:
        return harness.sha_of(
            harness.schedule_sha(harness.events_of_schedule(s)) for s in schedules
        )

    # -- correctness --------------------------------------------------------
    def check(self) -> dict:
        """Strict validation, the proven ratio, and one schedule per run."""
        tally = self.tally
        tally.check(
            len(self.shas) == 1,
            f"repeats produced {len(self.shas)} different schedules",
        )
        ratios, validate_s = [], 0.0
        for out in self.results:
            schedule = out["schedule"]
            t0 = time.perf_counter()
            report = validate_schedule(schedule, strict=True, mu=out["mu"])
            validate_s += time.perf_counter() - t0
            tally.check(report.ok, f"strict validation: {report.violations[:3]}")
            if self.spec.kind == "moldable":
                ratio = schedule.makespan / out["lower_bound"]
                tally.check(
                    ratio <= out["proven_ratio"],
                    f"ratio {ratio} exceeds proven {out['proven_ratio']}",
                )
            else:
                bound = out["instance"].lower_bound_functional(out["inputs"].allocation)
                ratio = schedule.makespan / bound
            ratios.append(ratio)
        return {
            "makespan_ratio": sum(ratios) / len(ratios),
            "schedule_sha": next(iter(self.shas)),
            "validate_s": validate_s,
        }

    # -- per-layer ----------------------------------------------------------
    def traced(self, tr) -> dict:
        """One untraced repeat, then the same pipeline span by span; spans
        and counts add up over the repeat's instances."""
        untraced = self.repeat()
        untraced_sha = next(iter(self.shas))
        layers = dict.fromkeys(
            ("instance.candidates_kept", "core.dtct.lp_columns",
             "core.adjustment.capped_jobs"), 0
        ) if self.spec.kind == "moldable" else {}
        schedules, instants = [], 0
        traced_wall = 0.0
        for inputs in self.inputs:
            instance = inputs.fresh_instance()
            self.tally.attempted += 1
            with harness.quiet_collector(), tr.span("workload") as root:
                if self.spec.kind == "moldable":
                    mu, rho, _ = theory.best_parameters(instance.d, "general")
                    with tr.span("instance.candidate_table"):
                        table = instance.candidate_table()
                    with tr.span("core.dtct.solve_lp"):
                        solution = solve_dtct_lp(instance, table)
                    with tr.span("core.dtct.round"):
                        p_prime = round_fractional(table, solution, rho)
                    with tr.span("core.adjustment.adjust"):
                        adjusted = adjust_allocation(instance, p_prime, mu)
                    allocation = adjusted.allocation
                    kept = sum(len(entries) for entries in table.values())
                    layers["instance.candidates_kept"] += kept
                    # x_{j,k} per kept candidate, C_j per job, and L
                    layers["core.dtct.lp_columns"] += kept + instance.n + 1
                    layers["core.adjustment.capped_jobs"] += len(adjusted.adjusted_jobs)
                else:
                    allocation = inputs.allocation
                schedule, log = traced_list_schedule(instance, allocation, tr)
            traced_wall += root["end"] - root["start"]
            schedules.append(schedule)
            instants += np.unique(
                np.concatenate([log.start, log.start + log.duration[log.job_index]])
            ).size
        self.tally.check(
            self._schedule_sha(schedules) == untraced_sha,
            "traced pipeline produced a different schedule",
        )
        layers["engine.dispatch.time_points"] = instants
        layers["engine.dispatch.jobs_per_time_point"] = self.spec.n / instants
        self_s = tr.self_times()
        for name, seconds in self_s.items():
            if name != "workload":
                layers[name + "_s"] = seconds
        layers["trace.wall_s"] = traced_wall
        layers["trace.coverage_pct"] = 100.0 * (1.0 - self_s["workload"] / traced_wall)
        layers["trace.overhead_pct"] = 100.0 * (traced_wall / untraced["wall_s"] - 1.0)
        return layers
