"""Instance (de)serialization: portable JSON descriptions of workloads.

Enables the reproducibility workflow evaluation papers need: generate a
workload once, save it, and re-run every algorithm on the identical
instance later (or elsewhere).  Execution-time functions are serialized as
*tabulated profiles* over the candidate grid **plus the µ-cap closure**:
for the theorem-optimal µ of this ``d`` (every graph class), the
``⌈µP^(i)⌉``-capped image of each candidate is tabulated with the *true*
execution time, so the Eq. (5) adjustment evaluates exactly on the
round-tripped instance rather than through monotone completion.  (A
scheduler run with a hand-picked, non-theorem µ may still hit off-table
points; those fall back to monotone completion.)

Round-trip identity contract
----------------------------
``instance_from_json(instance_to_json(inst, strat))`` is **schedule
preserving**: every registered scheduler, run with the same candidate
strategy, produces the identical schedule (same makespan, same event
order) on the round-tripped instance as on the original.  Two properties
make this hold:

* jobs and DAG nodes are serialized — and restored — in the instance's
  **insertion order** (each record carries an explicit ``index``), so the
  topological order, and with it every priority tie-break, is identical.
  Earlier versions sorted records lexicographically by ``repr``
  (``"10" < "2"``), which silently reshuffled the tie-break order and
  changed schedules on round-trip;
* the ``pinned`` flag is honored on load: a job that pinned its own
  candidate set stays pinned to it, and an unpinned job stays unpinned
  (its candidates re-enumerate from the strategy grid, whose points the
  tabulated profile reproduces exactly).

Job ids themselves become their ``repr`` strings (portable keys); the
conformance harness compares schedules through that mapping.
"""

from __future__ import annotations

import json
from typing import Hashable

from repro.dag.graph import DAG
from repro.instance.instance import Instance
from repro.jobs.candidates import CandidateStrategy, candidates_for_job, full_grid
from repro.jobs.job import Job
from repro.jobs.profiles import TabulatedTimeFunction
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

__all__ = ["instance_to_json", "instance_from_json"]

JobId = Hashable

#: Format 2 added the explicit insertion-order ``index`` per job record
#: (restoring schedule identity) and honors ``pinned`` on load.  Version-1
#: files still load with their original semantics — records are taken in
#: file order (the order the version-1 writer produced) and every job is
#: pinned to its serialized grid, exactly as the version-1 loader did.
FORMAT_VERSION = 2

_KNOWN_VERSIONS = (1, 2)


def _whole_vector(what: str, amounts) -> ResourceVector:
    """``amounts`` as a vector: ``4.6`` is refused, naming ``what``
    (:func:`~repro.resources.vector.whole_amounts`)."""
    try:
        return ResourceVector(amounts)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def _mu_cap_vectors(pool: ResourcePool) -> list[ResourceVector]:
    """The ``⌈µP^(i)⌉`` cap vectors for the theorem-optimal µ of this ``d``
    (one per graph class; deduplicated).  These are the only off-grid
    points the default two-phase scheduler can evaluate."""
    from repro.core.theory import best_parameters

    caps: list[ResourceVector] = []
    seen: set[tuple[int, ...]] = set()
    for graph_class in ("general", "sp", "independent"):
        mu, _, _ = best_parameters(pool.d, graph_class)
        v = pool.mu_caps(mu)
        if tuple(v) not in seen:
            seen.add(tuple(v))
            caps.append(v)
    return caps


def instance_to_json(
    instance: Instance,
    strategy: CandidateStrategy | None = None,
    *,
    indent: int | None = 2,
) -> str:
    """Serialize the instance with tabulated profiles over the strategy grid.

    The grid defaults to the full grid so the round-tripped instance is
    exact for *any* downstream candidate strategy; pass the strategy you
    will actually use to keep files small.  Jobs are written in the
    instance's insertion order with an explicit ``index`` so the load side
    can restore the exact topological tie-break order, and each profile
    carries the µ-cap closure of its grid as extra tabulation points (see
    the module docstring's identity contract).
    """
    strat = strategy if strategy is not None else full_grid
    cap_vectors = _mu_cap_vectors(instance.pool)
    jobs_out = []
    for idx, (j, job) in enumerate(instance.jobs.items()):
        cands = candidates_for_job(job, instance.pool, strat)
        on_grid = {tuple(c) for c in cands}
        capped = []
        for caps in cap_vectors:
            for c in cands:
                v = c.cap(caps)
                if tuple(v) in on_grid:
                    continue
                on_grid.add(tuple(v))
                try:
                    t = job.time(v)
                except Exception:
                    # a pinned job's time function may reject off-candidate
                    # allocations (a sanctioned pattern); its capped points
                    # then fall back to monotone completion on load
                    continue
                capped.append((v, t))
        rec = {
            "id": repr(j),
            "index": idx,
            "pinned": job.candidates is not None,
            "profile": [
                {"alloc": list(c), "time": job.time(c)} for c in cands
            ],
        }
        if capped:
            rec["mu_capped"] = [
                {"alloc": list(c), "time": t} for c, t in capped
            ]
        if job.release > 0.0:
            rec["release"] = job.release
        jobs_out.append(rec)
    payload = {
        "version": FORMAT_VERSION,
        "platform": {
            "capacities": list(instance.pool.capacities),
            "names": list(instance.pool.names),
        },
        "jobs": jobs_out,
        "edges": [[repr(u), repr(v)] for u, v in instance.dag.edges()],
    }
    return json.dumps(payload, indent=indent)


def instance_from_json(text: str | dict) -> Instance:
    """Rebuild an :class:`Instance` from :func:`instance_to_json` output.

    Job ids become their ``repr`` strings (portable keys); profiles load as
    :class:`TabulatedTimeFunction` with monotone completion.  Jobs are
    restored in serialization (insertion) order — records are sorted by
    their explicit ``index`` — and a job's candidate set is pinned to the
    serialized grid only when it was pinned at serialization time
    (``pinned: true``); unpinned jobs stay unpinned, so downstream
    candidate strategies re-enumerate exactly as on the original instance.
    Capacities and profile allocs must be whole amounts: ``4.6`` is
    refused (by job, for an alloc), never truncated to ``4``.
    """
    data = json.loads(text) if isinstance(text, str) else text
    if data.get("version") not in _KNOWN_VERSIONS:
        raise ValueError(f"unsupported instance format version {data.get('version')!r}")
    pool = ResourcePool(
        _whole_vector("platform capacities", data["platform"]["capacities"]),
        tuple(data["platform"]["names"]),
    )
    version = data["version"]
    records = list(data["jobs"])
    if version >= 2:
        # the explicit index is mandatory in v2: a record missing it (or a
        # duplicated index) must error, never silently load in file order —
        # silent reordering is the exact failure mode v2 eliminates
        try:
            indices = [rec["index"] for rec in records]
        except KeyError:
            raise ValueError(
                "version-2 instance file has a job record without an 'index'"
            ) from None
        if sorted(indices) != list(range(len(records))):
            raise ValueError(
                "version-2 instance file has duplicate or gapped job indices"
            )
        records.sort(key=lambda rec: rec["index"])
    jobs: dict[JobId, Job] = {}
    for pos, rec in enumerate(records):
        jid = rec["id"]
        # a repeated id would overwrite its first job, an unhashable one
        # cannot key the instance: refuse both by record
        try:
            if jid in jobs:
                raise ValueError(f"job record {pos}: duplicate id {jid!r}")
        except TypeError:
            raise ValueError(f"job record {pos}: id {jid!r} is not hashable") from None
        what = f"job {jid!r}: profile alloc"
        grid = {
            _whole_vector(what, e["alloc"]): float(e["time"]) for e in rec["profile"]
        }
        table = dict(grid)
        for e in rec.get("mu_capped", ()):
            table[_whole_vector(what, e["alloc"])] = float(e["time"])
        fn = TabulatedTimeFunction(table, extend_monotone=True)
        # the version-1 loader pinned every job to the serialized grid
        # regardless of the flag; preserve that for v1 archives so results
        # saved under the old format reproduce unchanged
        pinned = True if version < 2 else rec.get("pinned", False)
        jobs[jid] = Job(
            id=jid,
            time_fn=fn,
            # pinned jobs pin the *grid* (the µ-cap closure entries are
            # tabulation points only, never candidates)
            candidates=tuple(grid) if pinned else None,
            release=float(rec.get("release", 0.0)),
        )
    for u, v in data["edges"]:
        if u not in jobs or v not in jobs:
            raise ValueError(f"edge ({u}, {v}) references unknown job")
    return Instance(jobs=jobs, dag=DAG(jobs, data["edges"]), pool=pool)
