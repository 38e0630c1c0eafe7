"""The dispatch-backend registry and the backends' schedule identity.

The contract under test: *which* backend executes the batch loop, and
which demand encoding it runs on, is an execution detail — schedules are
identical event for event — and the registry's resolution order
(explicit name > ``REPRO_BACKEND`` > default) never crashes a host where
an optional backend is missing, it falls back to ``python`` with a
warning.

The jitted numba path only runs where :mod:`numba` is installed (the CI
``backend-numba`` job); everywhere else those tests skip cleanly and the
*interpreted* kernel — the same nopython-compatible function, run as
plain python via ``NumbaBackend(_jit=False)`` — pins kernel/python
identity so a kernel regression cannot hide behind a missing dependency.
"""

import numpy as np
import pytest

from helpers import tiny_instance
from repro.core.list_scheduler import (
    bottom_level_priority,
    fifo_priority,
    list_schedule,
    list_schedule_log,
    lpt_priority,
)
from repro.dag.generators import layered_random
from repro.dag.graph import DAG
from repro.engine.backends import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    _INSTANCES,
    _REGISTRY,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.engine.backends.numba import NumbaBackend
from repro.engine.backends.python import _VECTOR_BATCH
from repro.engine.dispatch import priority_loop
from repro.engine.reference import reference_pr1_list_schedule
from repro.experiments.workloads import random_instance
from repro.instance.instance import Instance, with_poisson_arrivals
from repro.jobs.candidates import geometric_grid
from repro.jobs.job import Job
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

RULES = (fifo_priority, lpt_priority, bottom_level_priority)


def _workload(family="layered", n=30, d=3, capacity=12, seed=0, poisson=False):
    pool = ResourcePool.uniform(d, capacity)
    inst = random_instance(family, n, pool, seed=seed).instance
    if poisson:
        inst = with_poisson_arrivals(inst, 2.0, seed=seed)
    table = inst.candidate_table(geometric_grid)
    alloc = {j: min(es, key=lambda e: e.time * e.area).alloc for j, es in table.items()}
    return inst, alloc


def _events(schedule):
    return {j: (p.start, p.time, tuple(p.alloc)) for j, p in schedule.placements.items()}


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
def test_builtins_registered_default_first():
    names = backend_names()
    assert names[0] == DEFAULT_BACKEND == "python"
    assert "numba" in names


def test_python_backend_always_available():
    avail = available_backends()
    assert avail["python"] is True


def test_get_backend_unknown_name_raises_keyerror():
    with pytest.raises(KeyError, match="unknown backend"):
        get_backend("fortran")


def test_get_backend_caches_instances():
    assert get_backend("python") is get_backend("python")


def test_register_rejects_duplicate_and_empty_names():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("python")(lambda: None)
    with pytest.raises(ValueError, match="non-empty string"):
        register_backend("")


# ----------------------------------------------------------------------
# resolution order: explicit > env > default
# ----------------------------------------------------------------------
def test_resolve_default_is_python(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend(None).name == "python"


def test_resolve_env_wins_over_default(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "python")
    assert resolve_backend(None).name == "python"


def test_resolve_explicit_wins_over_env(monkeypatch):
    # the env names an unregistered backend; the explicit name must win
    # without the env ever being consulted
    monkeypatch.setenv(BACKEND_ENV, "no-such-backend")
    assert resolve_backend("python").name == "python"


def test_resolve_unregistered_name_raises(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    with pytest.raises(KeyError, match="unknown backend"):
        resolve_backend("no-such-backend")
    monkeypatch.setenv(BACKEND_ENV, "no-such-backend")
    with pytest.raises(KeyError, match="unknown backend"):
        resolve_backend(None)


def test_resolve_unavailable_backend_warns_and_falls_back(monkeypatch):
    @register_backend("test-unavailable")
    class _Stub:
        name = "test-unavailable"

        @staticmethod
        def is_available():
            return False

        def run(self, loop, until=None):  # pragma: no cover
            raise AssertionError("must never execute")

    try:
        with pytest.warns(RuntimeWarning, match="not available"):
            backend = resolve_backend("test-unavailable")
        assert backend.name == "python"
        with pytest.warns(RuntimeWarning):
            monkeypatch.setenv(BACKEND_ENV, "test-unavailable")
            assert resolve_backend(None).name == "python"
    finally:
        _REGISTRY.pop("test-unavailable", None)
        _INSTANCES.pop("test-unavailable", None)


def test_numba_backend_without_numba_skips_cleanly():
    jitted = NumbaBackend()
    try:
        import numba  # noqa: F401

        assert jitted.is_available()
    except ImportError:
        assert not jitted.is_available()
        with pytest.warns(RuntimeWarning, match="not available"):
            assert resolve_backend("numba").name == "python"


# ----------------------------------------------------------------------
# schedule identity across backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", backend_names())
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.__name__)
def test_available_backend_matches_reference(name, rule):
    backend = get_backend(name)
    if not backend.is_available():
        pytest.skip(f"backend {name!r} is not available on this host")
    inst, alloc = _workload(seed=3)
    sched = list_schedule(inst, alloc, rule, backend=name)
    ref = reference_pr1_list_schedule(inst, alloc, rule)
    assert _events(sched) == _events(ref)


@pytest.mark.parametrize("poisson", (False, True), ids=("offline", "poisson"))
@pytest.mark.parametrize("d", (1, 2, 4, 6))
def test_interpreted_kernel_equals_python_backend(d, poisson):
    """The numba kernel, run uncompiled, is the python backend exactly —
    the identity the CI jitted job re-asserts with compilation on."""
    interp = NumbaBackend(_jit=False)
    for seed in (0, 1):
        inst, alloc = _workload(d=d, seed=seed, poisson=poisson)
        for rule in RULES:
            a = list_schedule(inst, alloc, rule, backend="python")
            b = list_schedule(inst, alloc, rule, backend=interp)
            assert _events(a) == _events(b)
            assert a.makespan == b.makespan


def test_interpreted_kernel_handles_cap1_and_diamond():
    interp = NumbaBackend(_jit=False)
    inst = tiny_instance(d=2, capacity=1)
    table = inst.candidate_table(geometric_grid)
    alloc = {j: min(es, key=lambda e: e.time * e.area).alloc for j, es in table.items()}
    a = list_schedule(inst, alloc, fifo_priority, backend="python")
    b = list_schedule(inst, alloc, fifo_priority, backend=interp)
    assert _events(a) == _events(b)


def test_numba_backend_falls_back_with_on_complete():
    """Completion interception stays on the python executor (the kernel
    cannot call back) — via the documented graceful fallback, with the
    event stream intact."""
    inst, alloc = _workload(seed=5)
    seen: list[tuple] = []

    def on_event(kind, job, t, duration):
        seen.append((kind, repr(job), round(t, 9)))

    a = list_schedule(inst, alloc, on_event=on_event, backend="python")
    python_events = list(seen)
    seen.clear()
    b = list_schedule(inst, alloc, on_event=on_event,
                      backend=NumbaBackend(_jit=False))
    assert _events(a) == _events(b)
    assert seen == python_events


def test_interpreted_kernel_resumable_until():
    """run(until) must leave kernel state resumable mid-schedule, exactly
    like the python backend's bounded runs."""
    inst, alloc = _workload(seed=7)
    results = {}
    for label, backend in (("python", "python"), ("interp", NumbaBackend(_jit=False))):
        starts: list[tuple] = []
        loop = priority_loop(
            inst, alloc,
            {j: i for i, j in enumerate(inst.dag.topological_order())},
            {j: inst.time(j, alloc[j]) for j in inst.jobs},
            lambda j, s, t: starts.append((repr(j), round(s, 9), round(t, 9))),
            backend=backend,
        )
        done = False
        until = 0.0
        while not done:
            done = loop.run(until=until)
            until += 0.75
        results[label] = starts
    assert results["interp"] == results["python"]
    assert len(results["python"]) == len(inst.jobs)


@pytest.mark.parametrize(
    "backend", ("python", NumbaBackend(_jit=False)), ids=("python", "interp")
)
def test_run_restores_gc_state(backend):
    """The backends pause the collector for the duration of a run (each
    allocation-triggered collection scans the whole resident instance —
    the O(n) cost that bent the scaling curve) and must restore whatever
    state the caller had, enabled or not."""
    import gc

    inst, alloc = _workload(seed=17)
    assert gc.isenabled()
    list_schedule(inst, alloc, fifo_priority, backend=backend)
    assert gc.isenabled()
    gc.disable()
    try:
        list_schedule(inst, alloc, fifo_priority, backend=backend)
        assert not gc.isenabled()
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# array start-log mode (on_start=None): the million-job measurement path
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend", ("python", NumbaBackend(_jit=False)), ids=("python", "interp")
)
@pytest.mark.parametrize("d", (2, 6), ids=("packed", "general"))
@pytest.mark.parametrize("poisson", (False, True), ids=("offline", "poisson"))
def test_schedule_log_equals_object_path(backend, d, poisson):
    """list_schedule_log is list_schedule with array output: same engine,
    same events — on the packed (d<=4) and matrix (d>4) encodings alike."""
    inst, alloc = _workload(d=d, seed=23, poisson=poisson)
    for rule in RULES:
        sched = list_schedule(inst, alloc, rule, backend=backend)
        log = list_schedule_log(inst, alloc, rule, backend=backend)
        assert log.job_index.size == len(inst.jobs)
        assert log.makespan == sched.makespan
        assert _events(log.to_schedule(inst, alloc)) == _events(sched)


@pytest.mark.parametrize(
    "backend", ("python", NumbaBackend(_jit=False)), ids=("python", "interp")
)
def test_start_log_accumulates_across_bounded_runs(backend):
    """run(until) stepping must append to the log, never overwrite it —
    the resumable-session contract in array form."""
    inst, alloc = _workload(seed=29)
    keys = {j: i for i, j in enumerate(inst.dag.topological_order())}
    times = {j: inst.time(j, alloc[j]) for j in inst.jobs}
    full = priority_loop(inst, alloc, keys, times, None, backend=backend)
    full.run()
    ref_i, ref_t = full.start_log()

    loop = priority_loop(inst, alloc, keys, times, None, backend=backend)
    done = False
    until = 0.0
    while not done:
        done = loop.run(until=until)
        until += 0.75
    out_i, out_t = loop.start_log()
    np.testing.assert_array_equal(out_i, ref_i)
    np.testing.assert_array_equal(out_t, ref_t)


def test_start_log_requires_log_mode():
    inst, alloc = _workload(seed=31)
    keys = {j: i for i, j in enumerate(inst.dag.topological_order())}
    times = {j: inst.time(j, alloc[j]) for j in inst.jobs}
    loop = priority_loop(inst, alloc, keys, times, lambda j, s, t: None)
    with pytest.raises(ValueError, match="on_start=None"):
        loop.start_log()


# ----------------------------------------------------------------------
# the matrix encoding (d > 4, or a capacity >= 2**15) on the shared body
# ----------------------------------------------------------------------
def _rigid(dag, capacities, demands, durations, releases=None):
    """``(instance, allocation)`` with everything fixed: job ``j`` asks
    for ``demands[j]`` and runs ``durations[j]`` whatever it is given."""
    jobs = {
        j: Job(id=j, time_fn=lambda alloc, t=durations[j]: t,
               release=(releases or {}).get(j, 0.0))
        for j in dag.nodes()
    }
    inst = Instance(jobs=jobs, dag=dag, pool=ResourcePool.of(*capacities))
    return inst, {j: ResourceVector(tuple(demands[j])) for j in jobs}


def _start_logs(inst, alloc):
    out = []
    for rule in RULES:
        log = list_schedule_log(inst, alloc, rule)
        assert log.job_index.size == len(inst.jobs)
        out.append((log.job_index.tolist(), log.start.tolist(), log.makespan))
    return out


@pytest.mark.parametrize("boundary", ("capacity", "fifth-type"))
def test_packing_boundary_identity(boundary):
    """The same demands either side of ``ci.packable`` give one start log:
    capacity ``2**15 - 1`` (packed) vs ``2**15`` (matrix), and ``d = 4``
    (packed) vs ``d = 5`` with a fifth type nobody asks for (matrix)."""
    rng = np.random.default_rng(41)
    dag = layered_random(6, 12, seed=41)
    nodes = list(dag.nodes())
    durations = dict(zip(nodes, rng.uniform(0.5, 2.0, len(nodes)).tolist()))
    if boundary == "capacity":
        # demands are multiples of 3 and neither 2**15 - 1 nor 2**15 is:
        # no sum of them lands on the one unit the capacities differ by
        rows = (3 * rng.integers(1, 4000, size=(len(nodes), 3))).tolist()
        packed = _rigid(dag, (2**15 - 1,) * 3, dict(zip(nodes, rows)), durations)
        matrix = _rigid(dag, (2**15,) * 3, dict(zip(nodes, rows)), durations)
    else:
        rows = rng.integers(1, 7, size=(len(nodes), 4)).tolist()
        packed = _rigid(dag, (12,) * 4, dict(zip(nodes, rows)), durations)
        matrix = _rigid(
            dag, (12,) * 5, {j: r + [0] for j, r in zip(nodes, rows)}, durations
        )
    assert packed[0].compiled().packable and not matrix[0].compiled().packable
    assert _start_logs(*packed) == _start_logs(*matrix)


@pytest.mark.parametrize(
    "backend", ("python", NumbaBackend(_jit=False)), ids=("python", "interp")
)
def test_matrix_batches_equal_per_event_reference(backend):
    """d=6: a release-only batch and a simultaneous-completion batch, both
    large enough for whole-array application, and a release-only batch
    below that size, against the per-event PR-1 loop."""
    k = _VECTOR_BATCH
    first = [("a", i) for i in range(k)]       # start at 0, all finish at 1
    late = [("r", i) for i in range(k + 2)]    # released together at 0.5
    few = [("s", i) for i in range(2)]         # released together at 0.75
    second = [("b", i) for i in range(k)]      # two parents each, shared
    edges = [(("a", i), ("b", i)) for i in range(k)]
    edges += [(("a", (i + 1) % k), ("b", i)) for i in range(k)]
    dag = DAG(nodes=first + late + few + second, edges=edges)
    demands = {j: (1,) * 6 for j in dag.nodes()}
    durations = {j: 1.0 for j in dag.nodes()}
    durations.update({j: 2.0 for j in late})
    releases = {**{j: 0.5 for j in late}, **{j: 0.75 for j in few}}
    inst, alloc = _rigid(dag, (k + 4,) * 6, demands, durations, releases)
    assert not inst.compiled().packable
    for rule in RULES:
        sched = list_schedule(inst, alloc, rule, backend=backend)
        assert _events(sched) == _events(reference_pr1_list_schedule(inst, alloc, rule))
    # the release-only batch fit-tested its own jobs: 4 of k + 2 had room
    starts = sorted(p.start for p in sched.placements.values())
    assert starts[:k + 4] == [0.0] * k + [0.5] * 4


@pytest.mark.parametrize(
    "backend", ("python", NumbaBackend(_jit=False)), ids=("python", "interp")
)
def test_matrix_stepped_retry_equals_uninterrupted(backend):
    """d=6: ``run(until)`` stepping with an ``on_complete`` hook that fails
    every third job once (re-run on the held allocation) sees the events
    of the uninterrupted run, in order."""
    inst, alloc = _workload(d=6, seed=37, poisson=True)
    keys = {j: i for i, j in enumerate(inst.dag.topological_order())}
    times = {j: inst.time(j, alloc[j]) for j in inst.jobs}

    def drive(step):
        events: list[tuple] = []
        failed: set = set()

        def on_complete(j, now):
            if keys[j] % 3 == 0 and j not in failed:
                failed.add(j)
                events.append(("retry", j, now))
                return times[j] / 2
            events.append(("finish", j, now))
            return None

        loop = priority_loop(
            inst, alloc, keys, times,
            lambda j, s, t: events.append(("start", j, s)),
            on_complete=on_complete, backend=backend,
        )
        assert not loop.packed
        until = None if step is None else 0.0
        while not loop.run(until=until):
            until += step
        assert loop.available() == tuple(inst.pool.capacities)
        return events, loop.now

    full = drive(None)
    assert sum(e[0] == "retry" for e in full[0]) == len(range(0, len(keys), 3))
    assert drive(0.4) == full


# ----------------------------------------------------------------------
# kernel layout contract (contiguity + dtypes the compiled path assumes)
# ----------------------------------------------------------------------
def test_compiled_instance_kernel_layout():
    inst, _ = _workload(seed=11)
    ci = inst.compiled()
    ip, si = ci.kernel_layout()
    for a in (ip, si):
        assert a.dtype == np.int64 and a.flags.c_contiguous
    assert ip.shape == (ci.n + 1,)
    assert si.shape == (int(ip[-1]),)
    # idempotent: the normalized arrays are cached, not rebuilt
    ip2, si2 = ci.kernel_layout()
    assert ip2 is ip and si2 is si


# ----------------------------------------------------------------------
# service integration
# ----------------------------------------------------------------------
def test_session_reports_backend_name():
    from repro.service.session import SchedulingSession

    assert SchedulingSession([8, 8]).backend_name == "python"


@pytest.mark.skipif(
    not NumbaBackend().is_available(), reason="numba not installed"
)
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.__name__)
def test_jitted_kernel_matches_python(rule):  # pragma: no cover - CI-only
    inst, alloc = _workload(n=60, seed=13)
    a = list_schedule(inst, alloc, rule, backend="python")
    b = list_schedule(inst, alloc, rule, backend="numba")
    assert _events(a) == _events(b)
