"""Measurement plumbing of the stack benchmark.

Nothing here knows a workload: sample summaries, the in-memory span
recorder, ``/proc`` accounting for processes the benchmark does not run
in, schedule/input hashing, and the launcher that owns every server
process a run starts.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
TMP_ROOT = os.path.join(HERE, ".tmp")

#: A server that does not answer one op within this many seconds is hung:
#: the op is counted as failed and the run ends instead of waiting.
OP_TIMEOUT_S = 30.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Abort(Exception):
    """An operation failed: stop measuring and report the run as incorrect."""


class Tally:
    """Operations attempted and failed — scheduling calls, wire ops and
    correctness checks alike; ``notes`` says what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)


# ----------------------------------------------------------------------
# samples
# ----------------------------------------------------------------------
def summarize(samples) -> dict:
    """Median, quartiles and count of the timed repeats of one metric."""
    xs = [float(x) for x in samples]
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = xs[0]
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of pooled latency samples."""
    xs = sorted(samples)
    return xs[min(len(xs) - 1, int(q * len(xs)))]


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
@contextmanager
def quiet_collector():
    """Timed regions run with the cyclic collector off, after one full
    collection (what ``timeit`` does): whether a generation-2 pass over
    everything earlier repeats left behind falls inside a 0.2 s call is
    chance, and moved single calls by a fifth."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class HostSpeed:
    """Two fixed kernels timed right before and after every timed segment.

    The 2-vCPU hosts this runs on change speed by a quarter to a half
    within a minute and by a tenth within a second (noisy neighbours),
    which no number of repeats inside one run averages out.  The kernels
    contain nothing of the system under test but are made of what it is
    made of, and take most of the same hit:

    * *arrays* — interpreter loop, sort, random gather, list and dict
      building; tracks the native-code work (HiGHS, numpy passes);
    * *objects* — a toy list scheduler on a fixed 6-resource DAG: heap
      pushes and pops, tiny numpy comparisons, dict and list walking;
      tracks the interpreter-bound work (compilation, dispatch, session,
      JSON).  Measured on this host, either kernel alone leaves twice
      the residual on the kind of work the other one tracks.

    A sample is the mean of the two kernels' times, each over its nominal
    time: how much slower than the nominal host this one runs right now.
    ``seconds ÷ slowdown`` is what a timed segment would have taken on
    the nominal host.  The pairing only works at close range: a segment
    is a fraction of a second long and its two samples touch it.
    End-to-end times are reported on that scale; the raw ones are
    printed beside them.
    """

    NOMINAL_ARRAYS_S = 0.0125
    NOMINAL_OBJECTS_S = 0.0125

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._values = rng.random(100_000)
        self._index = rng.integers(0, 100_000, size=100_000)
        n = 900
        self._demand = rng.integers(1, 9, size=(n, 6))
        self._duration = rng.uniform(0.5, 4.0, size=n).tolist()
        preds = [
            set(rng.integers(max(0, j - 40), j, size=min(j, 3)).tolist())
            for j in range(n)
        ]
        self._indegree = [len(p) for p in preds]
        self._succs = [[j for j in range(n) if i in preds[j]] for i in range(n)]
        self.sample()  # the first pass pays one-off allocations

    def _arrays(self) -> None:
        acc = 0
        for i in range(100_000):
            acc += i * i
        ordered = self._np.sort(self._values)
        self._values[self._index].cumsum()
        items = ordered[:30_000].tolist()
        dict(zip(items, items))
        [(a, b) for a, b in zip(items, items)]

    def _objects(self) -> None:
        demand, duration, succs = self._demand, self._duration, self._succs
        indegree = list(self._indegree)
        free = self._np.full(demand.shape[1], 24)
        ready = [j for j, k in enumerate(indegree) if k == 0]
        running: list[tuple[float, int]] = []
        now, starts = 0.0, {}
        while True:
            blocked = []
            while ready:
                j = heapq.heappop(ready)
                if (demand[j] <= free).all():
                    free = free - demand[j]
                    heapq.heappush(running, (now + duration[j], j))
                    starts[j] = now
                else:
                    blocked.append(j)
            for j in blocked:
                heapq.heappush(ready, j)
            if not running:
                break
            now, j = heapq.heappop(running)
            free = free + demand[j]
            for k in succs[j]:
                indegree[k] -= 1
                if indegree[k] == 0:
                    heapq.heappush(ready, k)
        sorted(starts.items())

    def sample(self) -> float:
        """How much slower than nominal the host runs now.  The collector
        is off meanwhile: a full collection set off by a kernel's own
        allocations would charge the host for whatever the last
        scheduling call left behind."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._arrays()
            t1 = time.perf_counter()
            self._objects()
            t2 = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        return 0.5 * ((t1 - t0) / self.NOMINAL_ARRAYS_S + (t2 - t1) / self.NOMINAL_OBJECTS_S)

    @staticmethod
    def slowdown(before: float, after: float) -> float:
        """The host's slowdown between two samples."""
        return 0.5 * (before + after)


def timed_sample(segments, cpu_s: float, rss_mb: float) -> dict:
    """One timed repeat from its ``(seconds, slowdown)`` segments: wall as
    the clock read it, wall on the nominal-host scale, and CPU seconds put
    on that scale by the repeat's overall slowdown."""
    wall = sum(s for s, _ in segments)
    scaled = sum(s / k for s, k in segments)
    return {
        "wall_s": wall, "scaled_s": scaled,
        "cpu_s": cpu_s, "cpu_scaled_s": cpu_s * scaled / wall,
        "rss_mb": rss_mb,
    }


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """Spans kept in memory: ``{name, start, end, parent, workload, repeat}``.

    ``parent`` is the index of the span that was open when this one
    started, so a layer's self time is its duration minus its direct
    children's.  The benchmark opens spans around its own calls into each
    layer; the layers themselves are not instrumented.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name, "start": 0.0, "end": 0.0,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload, "repeat": 0,  # a traced run is one repeat
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, obj, method: str, name: str) -> None:
        """Time every call of ``obj.method`` under span ``name`` — the
        timing proxy around an object handed to the next layer up."""
        inner = getattr(obj, method)

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, method, timed)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus time inside child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, inner in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - inner
        return out

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# ----------------------------------------------------------------------
# hashing
# ----------------------------------------------------------------------
def sha_of(parts) -> str:
    """sha256 over an iterable of ``bytes``/``str`` chunks."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else p.encode("utf-8"))
    return h.hexdigest()


def events_of_schedule(schedule) -> list[tuple]:
    """The canonical start log: ``(start, id, duration, alloc)`` sorted, ids
    as ``repr`` — the key the service's trace carries them under."""
    return sorted(
        (float(p.start), repr(j), float(p.time), tuple(int(a) for a in p.alloc))
        for j, p in schedule.placements.items()
    )


def events_of_trace(trace: dict) -> list[tuple]:
    """Same canonical form from a service ``trace`` document, whose ids
    already are the reprs."""
    return sorted(
        (float(r["start"]), r["id"], float(r["time"]), tuple(r["alloc"]))
        for r in trace["jobs"]
    )


def schedule_sha(events) -> str:
    return sha_of(
        f"{s.hex()} {j} {t.hex()} {a}\n" for s, j, t, a in events
    )


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat") as fh:
        # the command name may hold spaces: fields start after the last ')'
        return fh.read().rsplit(")", 1)[1].split()


def cpu_seconds(pids) -> float:
    """user+sys CPU consumed so far by those of the given processes that
    are still alive."""
    ticks = 0
    for pid in pids:
        try:
            f = _stat_fields(pid)
        except (OSError, IndexError):
            continue
        ticks += int(f[11]) + int(f[12])
    return ticks / _CLK_TCK


def peak_rss_mb(pids) -> float:
    """Peak resident set (VmHWM), summed over the given processes."""
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return kb / 1024.0


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def environment() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        have_numba = "present"
    except ImportError:
        have_numba = "absent"
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": have_numba,
        "git_sha": sha,
    }


# ----------------------------------------------------------------------
# server processes
# ----------------------------------------------------------------------
class Servers:
    """Owns the temp dir and every server process of one run.

    Each ``repro serve`` is started in its own process group, so that
    ``close`` can take down a router *and* the supervisors and workers
    under it even after the router itself was SIGKILLed, and waits until
    the whole group is gone.
    """

    def __init__(self) -> None:
        self.tmp = os.path.join(TMP_ROOT, f"run-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self._procs: list[subprocess.Popen] = []
        self._launched = 0

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def launch(self, serve_args: list[str]):
        """Start ``repro serve --tcp <free port> <serve_args>`` and connect
        the typed client; returns ``(proc, client)`` once it answers."""
        from repro.service.client import ServiceClient
        from repro.service.router import pick_free_port

        port = pick_free_port()
        self._launched += 1
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        with open(self.path(f"server-{self._launched}.log"), "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--tcp", str(port),
                 *serve_args],
                env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, start_new_session=True,
            )
        self._procs.append(proc)
        client = ServiceClient.connect(
            "127.0.0.1", port, connect_deadline=60.0, io_timeout=OP_TIMEOUT_S
        )
        client.status()  # a router answers only once every shard is up
        return proc, client

    def stop(self, proc: subprocess.Popen, client=None) -> "int | None":
        """Shut one server down (politely if ``client`` still works) and
        wait for its whole process group; returns the leader's exit code."""
        from repro.service.client import ServiceError

        if client is not None:
            try:
                if proc.poll() is None:
                    client.shutdown()
            except (ServiceError, OSError):
                pass
            client.close()
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            pass
        self._kill_group(proc)
        if proc in self._procs:
            self._procs.remove(proc)
        return proc.returncode

    @staticmethod
    def _group_running(pgid: int) -> bool:
        """Any member of the group still running (zombies don't count)."""
        for name in os.listdir("/proc"):
            if name.isdigit():
                try:
                    f = _stat_fields(int(name))
                except (OSError, IndexError):
                    continue
                if int(f[2]) == pgid and f[0] != "Z":
                    return True
        return False

    def _kill_group(self, proc: subprocess.Popen) -> None:
        pgid = proc.pid  # start_new_session made the leader's pid the pgid
        try:
            os.killpg(pgid, signal.SIGKILL)  # no-op after a clean shutdown
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 10.0
        while self._group_running(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)

    def close(self) -> None:
        for proc in list(self._procs):
            self.stop(proc)
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run's temp dir lives there


def sigterm_as_exit() -> None:
    """Let ``finally`` blocks run (children reaped, temp dir removed) when
    the benchmark itself is told to stop."""
    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)
