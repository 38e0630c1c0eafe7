"""Schedule (de)serialization: JSON traces for external analysis/plotting.

The trace format is deliberately plain — one record per job with start,
duration, per-type allocation and (under online arrivals) release time,
plus the platform description — so it can be loaded by pandas / a plotting
notebook without importing this library.
"""

from __future__ import annotations

import json

from repro.instance.instance import Instance
from repro.resources.vector import ResourceVector
from repro.sim.schedule import Schedule

__all__ = [
    "schedule_to_trace",
    "trace_to_json",
    "schedule_from_trace",
]

#: Trace format version (bump on schema change).  Version 2 added the
#: per-job ``release`` field (online-arrival scenarios); version 3 added
#: the optional ``cancelled`` event list (service sessions withdraw jobs,
#: and a faithful replay must know when) — versions 1 and 2 still load
#: (they carry no releases / no cancellations).
TRACE_VERSION = 3

_KNOWN_VERSIONS = (1, 2, 3)


def schedule_to_trace(schedule: Schedule, *, cancellations=None) -> dict:
    """A JSON-ready dict describing the schedule and its platform.

    ``cancellations`` (service sessions) is a list of ``{"id", "time"}``
    records — jobs withdrawn before starting, with the virtual time of the
    withdrawal.  Cancelled ids must be disjoint from the placed jobs.
    """
    inst = schedule.instance
    jobs = []
    for p in sorted(
        schedule.placements.values(), key=lambda q: (q.start, repr(q.job_id))
    ):
        rec = {
            "id": repr(p.job_id),
            "start": p.start,
            "time": p.time,
            "alloc": list(p.alloc),
        }
        release = inst.jobs[p.job_id].release
        if release > 0.0:
            rec["release"] = release
        jobs.append(rec)
    trace = {
        "version": TRACE_VERSION,
        "platform": {
            "capacities": list(inst.pool.capacities),
            "names": list(inst.pool.names),
        },
        "makespan": schedule.makespan,
        "jobs": jobs,
        "edges": [[repr(u), repr(v)] for u, v in inst.dag.edges()],
    }
    if cancellations:
        placed = {rec["id"] for rec in jobs}
        out = []
        for c in cancellations:
            cid = repr(c["id"])  # the trace's portable key, same as placements
            if cid in placed:
                raise ValueError(
                    f"cancelled job {cid} is also placed in the schedule"
                )
            out.append({"id": cid, "time": float(c["time"])})
        trace["cancelled"] = out
    return trace


def trace_to_json(schedule: Schedule, *, indent: int | None = 2) -> str:
    """Serialize to a JSON string."""
    return json.dumps(schedule_to_trace(schedule), indent=indent)


def schedule_from_trace(instance: Instance, trace: dict | str) -> Schedule:
    """Rebuild a :class:`Schedule` for ``instance`` from a trace.

    Job ids are matched by ``repr`` (the trace's portable key); raises
    ``ValueError`` when the trace does not cover the instance's jobs or
    places one twice, a traced release disagrees with the instance's or a
    traced alloc is not whole amounts (``4.6`` is refused by job, never
    truncated to ``4``).
    Version-3 ``cancelled`` records describe jobs that never ran — they are
    not placements and the instance need not contain them, but an id both
    cancelled and placed is rejected as corrupt.
    """
    data = json.loads(trace) if isinstance(trace, str) else trace
    if data.get("version") not in _KNOWN_VERSIONS:
        raise ValueError(f"unsupported trace version {data.get('version')!r}")
    cancelled_ids = {rec["id"] for rec in data.get("cancelled", ())}
    if cancelled_ids:
        placed_ids = {rec["id"] for rec in data["jobs"]}
        both = cancelled_ids & placed_ids
        if both:
            raise ValueError(
                f"trace is corrupt: jobs both cancelled and placed: {sorted(both)[:5]}"
            )
    by_repr = {repr(j): j for j in instance.jobs}
    rows = []
    for rec in data["jobs"]:
        jid = by_repr.get(rec["id"])
        if jid is None:
            raise ValueError(f"trace job {rec['id']} not in instance")
        if data["version"] >= 2:  # version-1 traces never carried releases
            release = float(rec.get("release", 0.0))
            if release != instance.jobs[jid].release:
                raise ValueError(
                    f"trace release {release} for job {rec['id']} disagrees "
                    f"with the instance's {instance.jobs[jid].release}"
                )
        try:
            alloc = ResourceVector(rec["alloc"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"trace job {rec['id']}: alloc: {exc}") from None
        rows.append((jid, float(rec["start"]), float(rec["time"]), alloc))
    if {row[0] for row in rows} != set(instance.jobs):
        raise ValueError("trace does not cover every instance job")
    return Schedule(instance, *zip(*rows))
