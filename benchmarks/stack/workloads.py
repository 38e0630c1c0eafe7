"""Seed → inputs of the five workloads.

Everything is generated here from ``numpy.random.default_rng(seed)`` and
handed to the system through its public constructors (``DAG``,
``Instance``, ``Job``, ``ResourcePool.uniform``, the ``repro.jobs.speedup``
models, wire job records); the system never sees the seed.  The graph
family is the one the repo's own studies use — a layered random DAG with
expected in-degree 8 — but edges are drawn as whole arrays, so a
20 000-job input takes a fraction of a second to make.

Batch inputs are sized so that one scheduling call takes 0.15–0.5 s: the
host's speed wanders on the scale of a second, and only a call that short
can be paired with a host-speed sample that saw the same host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.dag.graph import DAG
from repro.instance.instance import Instance, with_release_times
from repro.jobs.job import Job
from repro.jobs.speedup import random_multi_resource_time
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

from harness import sha_of

IN_DEGREE = 8.0
#: Poisson arrivals (virtual time) run at this share of the batch service
#: rate, so the live row count stays bounded and compaction runs mid-stream.
UTILIZATION = 0.95
#: makespan ÷ L(p) of ``list_schedule`` on these rigid layered inputs, by
#: which the certified bound is scaled to estimate the batch service rate
#: without running the code under test during input generation.
PACKING = 1.15


@dataclass(frozen=True)
class Spec:
    """Shape of one workload.  ``chunk`` is jobs per ``submit``; a repeat
    of a batch workload schedules ``instances`` independent inputs, one
    call each, so that no single draw's LP pivot count sets the time."""

    name: str
    kind: str  # "moldable" | "rigid" | "stream"
    layers: int
    width: int
    d: int
    capacity: int
    why: str
    chunk: int = 0
    instances: int = 1
    status_every: int = 0  # a ``status`` read after every N-th op
    durable: bool = False
    serve_args: tuple = ()

    @property
    def n(self) -> int:
        return self.layers * self.width * self.instances


SPECS = {
    s.name: s
    for s in (
        Spec(
            "moldable-pipeline", "moldable", 10, 100, 2, 32,
            "full two-phase pipeline: candidate table, DTCT LP and rounding "
            "are nearly all of the time, dispatch almost none (ROADMAP item 3)",
            instances=3,
        ),
        Spec(
            "rigid-batch-packed", "rigid", 25, 400, 4, 24,
            "allocations fixed, d=4: Phase 1 does nothing, compile_instance "
            "and the packed dispatch loop do everything (ROADMAP item 2)",
        ),
        Spec(
            "rigid-batch-general", "rigid", 15, 400, 6, 24,
            "same call at d=6: the dispatch layer's other path "
            "(GeneralPriorityLoop), which a packed-path speed-up must not tax",
        ),
        Spec(
            "stream-bulk", "stream", 50, 400, 4, 24,
            "64 jobs per submit over TCP to one plain server: per-job session "
            "work dominates, wire and front-end are amortised 64:1",
            chunk=64, serve_args=("--batch-size", "64"),
        ),
        Spec(
            "stream-durable-small-ops", "stream", 5, 400, 4, 24,
            "2 jobs per submit with --journal and fsync on: per-op cost "
            "(fsync, round trip, front-end) dominates (ROADMAP item 4)",
            chunk=2, status_every=50, durable=True,
            serve_args=("--batch-size", "2"),
        ),
    )
}


def layered_edges(rng, layers: int, width: int, base: int = 0):
    """Edges of a ``layers × width`` layered DAG over ids ``base + layer *
    width + index``: each consecutive-layer pair is an edge with
    probability ``IN_DEGREE / width``, and every non-first-layer job gets
    at least one predecessor."""
    p = min(0.5, IN_DEGREE / width)
    src, dst = [], []
    for layer in range(layers - 1):
        hit = rng.random((width, width)) < p  # [successor, predecessor]
        lonely = np.flatnonzero(~hit.any(axis=1))
        hit[lonely, rng.integers(width, size=lonely.size)] = True
        j, i = np.nonzero(hit)
        src.append(base + layer * width + i)
        dst.append(base + (layer + 1) * width + j)
    return np.concatenate(src), np.concatenate(dst)


def _const(t: float):
    return lambda alloc: t


@dataclass
class Inputs:
    """One generated input and what the checks need."""

    spec: Spec
    src: np.ndarray
    dst: np.ndarray
    jobs: dict = field(repr=False)  # id -> Job (frozen; shared by repeats)
    allocation: "dict | None" = None  # rigid: id -> ResourceVector
    input_sha: str = ""
    # stream only
    lower_bound: float = 0.0  # L(p) of the fixed allocation
    ops: list = field(default_factory=list)  # (op, fields) in send order

    @property
    def pool(self) -> ResourcePool:
        return ResourcePool.uniform(self.spec.d, self.spec.capacity)

    def fresh_instance(self) -> Instance:
        """A new ``DAG`` and ``Instance`` — nothing memoised on either
        (topological order, compiled lowering, candidate tables) survives
        from an earlier repeat."""
        dag = DAG(self.jobs, zip(self.src.tolist(), self.dst.tolist()))
        return Instance(jobs=self.jobs, dag=dag, pool=self.pool)


def _rigid_arrays(rng, spec: Spec):
    n = spec.layers * spec.width
    demand = rng.integers(1, 9, size=(n, spec.d))
    duration = rng.uniform(0.5, 4.0, size=n)
    return demand, duration


def make_moldable(spec: Spec, rng) -> Inputs:
    n = spec.layers * spec.width
    src, dst = layered_edges(rng, spec.layers, spec.width)
    fns = [random_multi_resource_time(spec.d, rng) for _ in range(n)]
    jobs = {j: Job(id=j, time_fn=fn) for j, fn in enumerate(fns)}
    sha = sha_of([src.tobytes(), dst.tobytes(), *(repr(fn) for fn in fns)])
    return Inputs(spec, src, dst, jobs, input_sha=sha)


def make_rigid(spec: Spec, rng) -> Inputs:
    src, dst = layered_edges(rng, spec.layers, spec.width)
    demand, duration = _rigid_arrays(rng, spec)
    allocation = {j: ResourceVector(row) for j, row in enumerate(demand)}
    jobs = {
        j: Job(id=j, time_fn=_const(t), candidates=(allocation[j],))
        for j, t in enumerate(duration.tolist())
    }
    sha = sha_of([src.tobytes(), dst.tobytes(), demand.tobytes(), duration.tobytes()])
    return Inputs(spec, src, dst, jobs, allocation, sha)


def make_stream(spec: Spec, rng) -> Inputs:
    """Rigid jobs as wire records, in a submission-order-faithful stream.

    Jobs are sent in the DAG's topological order, ``chunk`` jobs per
    ``submit``; arrival (``release``) times are one Poisson process over
    that send order, and each submit is followed by an ``advance`` to its
    last arrival.  Every job is thus handed over before virtual time
    reaches its release, which is what makes the served schedule equal
    the batch one event for event.
    """
    rigid = make_rigid(spec, rng)
    n, allocation = spec.n, rigid.allocation
    dag = DAG(range(n), zip(rigid.src.tolist(), rigid.dst.tolist()))
    order = dag.topological_order()
    inst = Instance(jobs=rigid.jobs, dag=dag, pool=rigid.pool)
    bound = inst.lower_bound_functional(allocation)
    rate = UTILIZATION * n / (PACKING * bound)
    arrival = dict(zip(order, np.cumsum(rng.exponential(1.0 / rate, size=n)).tolist()))

    def record(j: int) -> dict:
        rec = {"id": j, "demand": [int(a) for a in allocation[j]],
               "duration": rigid.jobs[j].time(allocation[j]), "release": arrival[j]}
        if dag.in_degree(j):
            rec["preds"] = list(dag.predecessors(j))
        return rec

    ops: list[tuple[str, dict]] = []
    for k in range(0, n, spec.chunk):
        c = order[k:k + spec.chunk]
        ops.append(("submit", {"jobs": [record(j) for j in c]}))
        ops.append(("advance", {"until": arrival[c[-1]], "events": False}))
        sent = 2 * (k // spec.chunk + 1)
        if spec.status_every and sent % spec.status_every == 0:
            ops.append(("status", {}))
    ops.append(("drain", {}))

    jobs = with_release_times(inst, arrival).jobs
    sha = sha_of(json.dumps(op, sort_keys=True) + "\n" for op in ops)
    return Inputs(spec, rigid.src, rigid.dst, jobs, allocation, sha, bound, ops)


def make_inputs(name: str, seed: int) -> list[Inputs]:
    """The ``spec.instances`` inputs of one workload; input ``i`` is drawn
    from ``default_rng([seed, i])``."""
    spec = SPECS[name]
    make = {"moldable": make_moldable, "rigid": make_rigid, "stream": make_stream}
    return [
        make[spec.kind](spec, np.random.default_rng([seed, i]))
        for i in range(spec.instances)
    ]
