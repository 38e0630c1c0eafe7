"""Scheduling drivers on top of the compiled-instance lowering.

Two queue disciplines cover every event-driven moldable scheduler in the
repository, and every loop here batches events within :data:`TIME_EPS`:

* :func:`priority_loop` — Algorithm 2's discipline: allocations fixed up
  front, a ready queue kept in priority order, and every pass starting
  *every* queued job that fits (the ``for each job j ∈ Q`` loop).  Used
  by the core list scheduler.
* :func:`run_dynamic` — dispatch-time allocation: a policy callback
  inspects the ready set and the availability vector and picks ``(job,
  allocation)`` pairs to start.  Used by the Tetris and HEFT baselines;
  one plain loop over a ``(time, seq, code)`` heap and a list of
  available amounts.

Both run on the **compiled instance** (:mod:`repro.instance.compiled`):
jobs are dense topological indices, adjacency is CSR, and priority keys
are lowered once into integer *ranks* realizing the ``(key, topological
index)`` total order.

Algorithm 2's discipline has two loops, one role each, and **one demand
encoding**: every demand is a python-int image with a headroom bit per
field (the platform's :class:`~repro.instance.compiled.DemandLayout` sizes
a field and packs every image), for any ``d`` and any capacity, and
``(av - a) & H == H`` / ``av -= a`` / ``av += a`` are the only admission /
acquire / free statements.  Both keep the ready queue as a sorted python list, scanned in
order while it is short, and both cache a demand column beside the list
only while it is longer than ``_VECTOR_QUEUE``, to test the whole queue in
one vector operation.

* :class:`PriorityLoop` — the batch kernel, for a fixed job set: built,
  run once to completion, and read back as one output, the array start
  log (``start_log()``).  The queue holds integer ranks; per-event work
  is python ints over memoryviews of the compiled int64 buffers (no copy
  of the CSR adjacency or the readiness vector).  The column is
  ``uint64`` images where they fit a word (``layout.packable``: ``d * bits
  <= 64``) and ``(L, d)`` int64 rows where they do not.
* :class:`IncrementalPriorityLoop` — the resumable loop, stepped with
  ``run(until)`` as virtual time advances, behind
  :class:`~repro.service.session.SchedulingSession` (and so behind ``repro
  serve`` and ``repro schedule --follow``): runs on a
  :class:`~repro.instance.compiled.GrowableCompiledInstance`, admits jobs
  *while scheduling* (``admit_batch``), supports cancellation of
  not-yet-started jobs, and keeps the ready queue as ``(key, row index)``
  tuples — the identical total order the rank lowering realizes, so a
  session driven submission-order-faithfully reproduces the batch schedule
  event for event (the conformance service family asserts this).  Its
  column exists only where the images fit a ``uint64``
  (``layout.packable``); wider images are always scanned in order.

Both gate readiness on job release times (online arrivals) and preserve
the historical tie-breaking exactly: simultaneous completions are
processed as one batch, newly ready jobs enter the queue by ``(priority
key, topological index)``, and events pop in ``(time, submission)`` order.
The frozen predecessors (test oracles in ``tests/helpers.py``) pin that
behavior in the equivalence tests.
"""

from __future__ import annotations

import gc
import heapq
from bisect import bisect_left, insort
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.instance.compiled import compile_instance
from repro.sim.schedule import Schedule, ScheduledJob

__all__ = [
    "TIME_EPS",
    "run_dynamic",
    "priority_loop",
    "PriorityLoop",
    "IncrementalPriorityLoop",
    "J_WAITING",
    "J_QUEUED",
    "J_RUNNING",
    "J_DONE",
    "J_CANCELLED",
]

JobId = Hashable

#: Events within this tolerance of the earliest pending one are popped and
#: processed as a single batch — the tolerance every loop here has always
#: used for simultaneous completions.
TIME_EPS = 1e-12

#: Newly ready rows at least this many enter a ready queue as one block
#: (``extend`` + ``sort``, the demand column gathered again) instead of being
#: inserted one by one — the batch loop and the session loop alike.
_VECTOR_BATCH = 8

#: Ready queues longer than this carry the demand column and take the
#: whole-queue vector pass; up to it the queue is scanned in order over
#: python ints.  One constant for both loops: numpy's fixed cost per call —
#: and a shift of the column per insertion and per start while it exists —
#: only pays for itself on a long queue.  The sweeps behind the value are in
#: CHANGES.md (PR 18 for the session loop, PR 19 for both).
_VECTOR_QUEUE = 96


def priority_loop(
    instance,
    allocation: Mapping[JobId, Sequence[int]],
    keys: np.ndarray,
    durations: np.ndarray,
    on_start: None = None,
    *,
    alloc_mat: np.ndarray | None = None,
) -> "PriorityLoop":
    """Build Algorithm 2's batch loop for a fixed job set, unstarted (the
    queue discipline is :meth:`PriorityLoop.run`'s).

    ``keys`` (real numbers, a :data:`~repro.core.list_scheduler.PriorityRule`'s
    output) and ``durations`` are 1-D arrays aligned with the topological
    order; ``alloc_mat`` optionally supplies the already-lowered and validated
    ``(n, d)`` allocation matrix (the one ``validate_allocation_map``
    returns) so the allocation is neither lowered nor checked twice per
    run; without it ``validate_allocation_map`` lowers and checks it here
    (``ValueError`` naming a job whose row is not whole, lies outside
    ``0 ⪯ a ⪯ capacities`` or asks for nothing).

    The loop has one output: :meth:`PriorityLoop.run` records ``(topological
    index, start time)`` pairs into preallocated arrays, read back with
    ``start_log()`` — no python object per dispatch.  ``on_start`` is a
    leftover slot that only accepts ``None``; a caller that wants each event
    as it happens drives a :class:`~repro.service.session.SchedulingSession`.
    """
    if on_start is not None:
        raise TypeError(
            "priority_loop records an array start log and calls nothing back; "
            "drive a repro.service.SchedulingSession for per-event output"
        )
    ci = compile_instance(instance)
    if alloc_mat is None:
        # nobody has checked this allocation yet: an amount above its
        # capacity would carry into the neighbouring field of the image
        alloc_mat = instance.validate_allocation_map(allocation)
    rank_of, topo_of_rank = ci.rank_permutation(keys)
    return PriorityLoop(ci, alloc_mat, durations.tolist(), rank_of, topo_of_rank)


class PriorityLoop:
    """Algorithm 2's batch event loop: built for a fixed job set, run once.

    One flat loop owns the event heap, the readiness vector and the ready
    queue.  Heap entries are ``(time, seq, code)`` with ``code < n`` a
    completion of topological index ``code`` and ``code >= n`` the release
    of index ``code - n``; ``seq`` makes simultaneous events pop in
    submission order, exactly the order the per-event references deliver
    them in.  :meth:`run` processes the events of one time point as a
    single batch and runs the feasibility re-scan once per time point; the
    one output is the start log (:meth:`start_log`), and :attr:`now` is
    the makespan once the run is over.

    **One demand encoding**, the session loop's: every demand is a
    python-int image with a headroom bit per field (``img_topo`` by
    topological index, ``img_rank`` by rank), for any ``d`` and any
    capacity, ``av`` is the availability's image with the headroom bits
    ``H`` pre-added, and ``(av - a) & H == H`` / ``av -= a`` / ``av += a``
    are the only admission / acquire / free statements.  The per-event
    work is python ints throughout: successor readiness walks
    **memoryviews of the compiled int64 buffers** (``succ_indptr``,
    ``succ_indices``, ``remaining``, ``rank_of`` — no copy, so a million
    jobs cost no list), and the ready queue :attr:`rq` is a sorted python
    list of ranks kept in order with ``insort`` and ``del``.

    The demand column :attr:`pb` is a **cache of the list, not the
    queue**: it exists only while the queue is longer than
    ``_VECTOR_QUEUE``, and then a pass tests the whole queue in one vector
    operation instead of in order.  It holds rows of ``dem_rank`` — the
    ``uint64`` images where they fit a word (``layout.packable``), the
    ``(d,)`` int64 amounts where they do not; that is all the loop reads
    ``layout.packable`` for.  Invariant, between dispatch passes: the
    column is absent ⇔ ``len(rq) <= _VECTOR_QUEUE``; otherwise ``pb[p]`` is the
    demand of ``rq[p]`` for every position ``p`` of the queue (the buffer
    may be longer — room for insertions).  It is gathered from the list
    when the queue grows past the constant, patched at the positions the
    list is while the queue stays long, and dropped when the queue
    shrinks back.

    **The exhausted-platform cut.**  :attr:`gmin` is one more image in the
    same layout: field ``r`` holds the smallest amount of type ``r`` that
    *any job of the instance* is allocated (the column minimum of the
    allocation matrix, packed once at construction by
    :meth:`~repro.instance.compiled.DemandLayout.images`).  After every
    start the loop tests ``(av - gmin) & H != H`` — some type has less free than the
    smallest demand anybody has of it — and leaves the pass: availability
    only shrinks within a pass, so no entry further down can fit.  The
    minimum is over every job, queued or not, which is what makes the test
    valid at any moment of any pass, with releases pending, without
    upkeep as the queue changes.  A type some job asks nothing of has a
    zero field, whose headroom bit always survives: that type is simply
    never the witness (and ``gmin = 0`` never cuts at all, which is how the
    tests switch the cut off).  One integer test per *start* replaces one
    per queue entry behind it.
    """

    __slots__ = (
        "ci", "n", "ip", "si", "remaining",
        "img_topo", "img_rank", "dem_rank", "rank_a", "topo_l", "dur",
        "H", "av", "gmin", "heap", "seq", "rq", "pb",
        "now", "log_i", "log_t", "ns",
    )

    def __init__(self, ci, alloc_mat, dur, rank_of, topo_of_rank) -> None:
        self.ci = ci
        dag = ci.dag
        n = dag.n
        self.n = n
        self.ip = dag.succ_indptr
        self.si = dag.succ_indices
        self.dur = dur
        # the start log: (topological index, start time) per dispatch, ns
        # pairs recorded so far
        self.log_i = np.empty(n, dtype=np.int64)
        self.log_t = np.empty(n, dtype=np.float64)
        self.ns = 0

        self.rank_a = np.ascontiguousarray(rank_of, dtype=np.int64)
        topo_a = np.ascontiguousarray(topo_of_rank, dtype=np.int64)
        self.topo_l = topo_of_rank

        layout = ci.layout
        self.H = layout.fit_mask
        self.av = layout.packed_capacities + layout.fit_mask
        # the smallest demand any job of the instance has of each type, as
        # one image in the demands' layout (the cut, see the class
        # docstring); column by column: numpy reduces a tall matrix along
        # its long axis several times slower than it scans d strided columns
        self.gmin = int(layout.images(
            [[int(alloc_mat[:, r].min()) for r in range(layout.d)]]
        )[0]) if n else 0
        images = layout.images(alloc_mat)
        if layout.packable:
            self.img_topo = images.tolist()
            self.dem_rank = images[topo_a]
            self.img_rank = self.dem_rank.tolist()
        else:
            # wider than a word: the column holds the rows themselves
            self.img_topo = images
            self.dem_rank = alloc_mat[topo_a]
            self.img_rank = [images[i] for i in self.topo_l]

        remaining = dag.in_degrees.copy()
        heap: list[tuple[float, int, int]] = []
        seq = 0
        if ci.has_releases:
            rel = ci.release
            late = np.flatnonzero(rel > 0.0)
            remaining[late] += 1  # a release acts as one extra virtual predecessor
            for i in late.tolist():
                heap.append((float(rel[i]), seq, n + i))
                seq += 1
            heapq.heapify(heap)
        self.remaining = remaining
        self.heap = heap
        self.seq = seq

        # the ready queue, and its demand column while the queue is long
        r0 = self.rank_a[np.flatnonzero(remaining == 0)]
        r0.sort()
        self.rq: list[int] = r0.tolist()
        self.pb = self._column() if len(self.rq) > _VECTOR_QUEUE else None

        self.now = 0.0

    def _column(self) -> np.ndarray:
        """The demand column of a long queue, gathered from the list with
        as much room again for in-place insertions."""
        rq = self.rq
        dem_rank = self.dem_rank
        pb = np.empty((2 * len(rq),) + dem_rank.shape[1:], dtype=dem_rank.dtype)
        pb[:len(rq)] = dem_rank[rq]
        return pb

    def start_log(self) -> "tuple[np.ndarray, np.ndarray]":
        """The recorded ``(topological index, start time)`` arrays, in
        dispatch order (views into the loop's buffers; copy to keep)."""
        return self.log_i[: self.ns], self.log_t[: self.ns]

    def run(self) -> None:
        """Dispatch and process events until the heap drains, recording
        every start into the start log.

        The loop is structured around time-point batches: all events
        within :data:`TIME_EPS` of the first popped event form one batch,
        applied event by event over python ints, and one dispatch pass
        follows it.  A pass is the greedy scan of the ready queue in rank
        order, in the form the queue length calls for:

        * **In-order scan** while the queue is short (no column): each
          entry's image is tested against the current availability and
          started if it fits.  At a few dozen entries that is cheaper than
          the fixed cost of any numpy call.
        * **Admit-then-refilter** while the queue is long (the column
          exists).  One whole-queue comparison finds every queued job that
          fits the availability *snapshot*.  The pass admits the first hit
          (the lowest rank, valid because availability has not shrunk yet)
          and re-filters the remaining hits with one small vector
          comparison, repeating until no hit survives.  This is the same
          scan: a job outside the snapshot hit set can never fit later in
          the pass (availability only shrinks within a pass), and
          re-filtering the tail against the shrunk availability is exactly
          a scalar recheck per hit, batched.
        * **Release-only fast path.**  Availability only grows on
          completions, so after a batch containing no completion the
          standing invariant "no queued job fits" still holds for every
          *old* queue entry: only the newly released jobs need a fit
          test.  They are scanned in rank order (exactly where the full
          pass would reach them) and the full-queue pass is skipped.

        Every form leaves its scan after a start that exhausts the
        platform (``(av - gmin) & H != H``, see the class docstring): the
        entries it skips are exactly those the full scan would have tested
        and refused.  The tests a pass makes *before* its first start are
        not saved by this.

        All three are schedule-preserving: admission order within a time
        point remains the ``(key, topological index)`` total order, and
        the test suite races the result against the frozen per-event
        references event for event over every case of the quick fuzz
        matrix.

        The collector is paused for the duration of the run: the loop
        allocates only acyclic objects (event tuples, batch lists), but
        each allocation-triggered generational collection scans *every*
        live object — with a million-job instance resident that is an
        O(n) cost paid every ~10k events, and it is what used to bend the
        jobs/s curve at large n.  No cycles are created, so nothing is
        ever missed; the prior collector state is restored on exit either
        way.
        """
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self._run()
        finally:
            if was_enabled:
                gc.enable()

    def _run(self) -> None:
        # python ints straight out of the int64 buffers, no copy
        remaining = memoryview(self.remaining)
        ip = memoryview(self.ip)
        si = memoryview(self.si)
        rank = memoryview(self.rank_a)
        layout = self.ci.layout
        word = layout.packable  # the column holds uint64 images, not rows
        img_topo = self.img_topo
        img_rank = self.img_rank
        dem_rank = self.dem_rank
        topo_l = self.topo_l
        dur = self.dur
        n = self.n
        H = self.H
        gmin = self.gmin
        uint64 = np.uint64
        av = self.av  # the availability image, headroom bits pre-added
        heap = self.heap
        seq = self.seq
        rq = self.rq
        pb = self.pb
        now = self.now
        push = heapq.heappush
        pop = heapq.heappop
        log_i = memoryview(self.log_i)
        log_t = memoryview(self.log_t)
        ns = self.ns
        # Between passes the invariant "no queued job fits the current
        # availability" holds (the pass leaves only misses behind and
        # availability only grows on completions), so a batch that frees
        # no capacity cannot make an old queue entry startable.
        need_pass = True

        while True:
            # ------------------------- dispatch pass -------------------------
            if need_pass and rq:
                started = None
                if pb is None:
                    # short queue: in-order scan against the current
                    # availability — exactly the vector pass below
                    # (availability only shrinks, so snapshot hits +
                    # recheck == sequential test)
                    for p, r in enumerate(rq):
                        a = img_rank[r]
                        if (av - a) & H == H:
                            av -= a
                            i = topo_l[r]
                            push(heap, (now + dur[i], seq, i))
                            seq += 1
                            log_i[ns] = i
                            log_t[ns] = now
                            ns += 1
                            if started is None:
                                started = [p]
                            else:
                                started.append(p)
                            if (av - gmin) & H != H:
                                break  # exhausted: nothing below can fit
                else:
                    # whole-queue feasibility in one vector comparison
                    L = len(rq)
                    if word:
                        H_u = uint64(H)
                        hits = (((uint64(av) - pb[:L]) & H_u) == H_u).nonzero()[0]
                    else:
                        avv = np.array(layout.unpack(av - H), dtype=np.int64)
                        hits = (pb[:L] <= avv).all(axis=1).nonzero()[0]
                    while hits.size:
                        # the first hit is the lowest-rank fitting job and
                        # availability has not shrunk since the filter ran
                        p = int(hits[0])
                        r = rq[p]
                        av -= img_rank[r]
                        i = topo_l[r]
                        push(heap, (now + dur[i], seq, i))
                        seq += 1
                        log_i[ns] = i
                        log_t[ns] = now
                        ns += 1
                        if started is None:
                            started = [p]
                        else:
                            started.append(p)
                        hits = hits[1:]
                        if (av - gmin) & H != H:
                            break  # exhausted: no remaining hit can fit
                        if hits.size:
                            # re-filter the tail against the shrunk availability
                            if word:
                                hits = hits[((uint64(av) - pb[hits]) & H_u) == H_u]
                            else:
                                avv -= pb[p]
                                hits = hits[(pb[hits] <= avv).all(axis=1)]
                if started is not None:
                    if len(started) == len(rq):
                        rq.clear()
                        pb = None
                    elif pb is None:
                        for p in reversed(started):
                            del rq[p]
                    else:
                        L = len(rq)
                        for p in reversed(started):
                            del rq[p]
                            L -= 1
                            pb[p:L] = pb[p + 1:L + 1]
                        if L <= _VECTOR_QUEUE:
                            pb = None
            need_pass = False
            if not heap:
                break
            # -------------------------- event batch --------------------------
            t0, _, c = pop(heap)
            now = t0
            horizon = t0 + TIME_EPS
            if heap and heap[0][0] <= horizon:
                batch = [c]
                while heap and heap[0][0] <= horizon:
                    batch.append(pop(heap)[2])
            else:
                batch = (c,)
            newly = None
            freed = False
            for c in batch:
                if c >= n:  # release event: one virtual predecessor satisfied
                    i = c - n
                    m = remaining[i] - 1
                    remaining[i] = m
                    if not m:
                        if newly is None:
                            newly = [rank[i]]
                        else:
                            newly.append(rank[i])
                    continue
                i = c
                freed = True
                av += img_topo[i]
                for s in si[ip[i]:ip[i + 1]]:
                    m = remaining[s] - 1
                    remaining[s] = m
                    if not m:
                        if newly is None:
                            newly = [rank[s]]
                        else:
                            newly.append(rank[s])
            if freed:
                need_pass = True
            elif newly is not None:
                # Release-only batch: no old queue entry can have become
                # startable, so only the newly released jobs need a fit
                # test — in rank order, exactly where the full pass would
                # reach them (old entries being guaranteed misses).
                if len(newly) > 1:
                    newly.sort()
                leftovers = []
                for k, r in enumerate(newly):
                    a = img_rank[r]
                    if (av - a) & H == H:
                        av -= a
                        i = topo_l[r]
                        push(heap, (now + dur[i], seq, i))
                        seq += 1
                        log_i[ns] = i
                        log_t[ns] = now
                        ns += 1
                        if (av - gmin) & H != H:
                            # exhausted: the rest only join the queue
                            leftovers += newly[k + 1:]
                            break
                    else:
                        leftovers.append(r)
                newly = leftovers or None
            if newly is not None:
                k = len(newly)
                if pb is not None and k < _VECTOR_BATCH and len(rq) + k <= len(pb):
                    # long queue, a few rows: the column is patched at the
                    # positions the list is
                    for r in newly:
                        p = bisect_left(rq, r)
                        L = len(rq)
                        rq.insert(p, r)
                        pb[p + 1:L + 1] = pb[p:L]
                        pb[p] = dem_rank[r]
                else:
                    if k < _VECTOR_BATCH:
                        for r in newly:
                            insort(rq, r)
                    else:
                        # a block: Timsort merges the two runs
                        rq.extend(newly)
                        rq.sort()
                    pb = self._column() if len(rq) > _VECTOR_QUEUE else None

        self.now = now  # the makespan
        self.ns = ns


# ----------------------------------------------------------------------
# the growable (online-session) loop
# ----------------------------------------------------------------------

#: Job states inside :class:`IncrementalPriorityLoop`.
J_WAITING, J_QUEUED, J_RUNNING, J_DONE, J_CANCELLED = range(5)


class IncrementalPriorityLoop:
    """Algorithm 2's discipline over a growing job set, resumable.

    The online form of :class:`PriorityLoop`: jobs are admitted with
    :meth:`admit_batch` *at any point* — including between :meth:`run`
    calls with the clock mid-schedule — and not-yet-started jobs can be
    cancelled.  The ready queue :attr:`rq` is the sorted list of ``(key,
    index)`` tuples itself, kept in order with ``bisect.insort`` and
    ``del`` — *exactly* the ``(key, index)`` total order the batch rank
    lowering realizes (keys are validated to be exactly
    float64-representable at submission, which the rank lowering and the
    checkpoint rely on; python compares ints and floats exactly).  A pass
    scans it in order against the one python int ``avh`` (the
    availability vector's image, headroom bits pre-added) — at the queue
    lengths a service sees, a few dozen, that is cheaper than any numpy
    call.  Event batching anchors on the first popped event with the same
    :data:`TIME_EPS` horizon.  A session driven submission-order-faithfully
    therefore reproduces the batch schedule event for event (the
    conformance service family asserts this at every step, including
    through :meth:`compact`).

    The ``uint64`` demand column :attr:`rp` is a **cache of the list, not
    the queue**: it exists only while the queue is long and the images fit
    a ``uint64``, and then the whole queue is tested in one vector
    operation (a bag-of-tasks submit leaves thousands of rows queued, and
    scanning those per completion costs ten times the vector pass).
    Invariant, after every method: ``rp is None`` ⇔ ``not
    gi.layout.packable or len(rq) <= _VECTOR_QUEUE``; otherwise ``rp[p] == gi.packed[rq[p][1]]``
    for every position ``p`` of the queue (the buffer may be longer — room
    for insertions).  It is gathered from the list when the queue grows
    past the constant, patched at the positions the list is while the
    queue stays long, and dropped when the queue shrinks back.

    Instead of per-event callbacks, the loop appends event tuples to
    :attr:`log` (shared with the owning session): ``("start", id, t)`` and
    ``("finish", id, t)`` — ids, not row indices, so records stay valid
    across compactions.  A start carries neither duration nor demand: both
    are fixed at admission and stay on the job's row (live, or archived by
    the session), which is where readers look them up, so the log pins no
    per-job tuple for the life of the session.

    Heap codes: ``code >= 0`` is the completion of job index ``code``;
    ``code < 0`` is the release of index ``~code`` (the bitwise-complement
    encoding keeps codes valid as the job set grows — a ``code >= n``
    convention would not survive appends).
    """

    __slots__ = (
        "gi", "now", "eps", "heap", "seq", "state", "remaining",
        "start", "finish", "avh", "log", "ncompleted", "rq", "rp",
    )

    def __init__(self, gi, *, log: list | None = None) -> None:
        self.gi = gi
        self.now = 0.0
        self.eps = TIME_EPS
        self.heap: list[tuple[float, int, int]] = []
        self.seq = 0
        self.state: list[int] = []
        self.remaining: list[int] = []
        self.start: list[float | None] = []
        self.finish: list[float | None] = []
        # availability image with the headroom bits pre-added
        self.avh = gi.layout.packed_capacities + gi.layout.fit_mask
        self.log: list[tuple] = log if log is not None else []
        self.ncompleted = 0  # lifetime completions (survives compaction)
        # the ready queue, and its demand column while the queue is long
        self.rq: list[tuple[object, int]] = []
        self.rp: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def next_time(self) -> float | None:
        return self.heap[0][0] if self.heap else None

    @property
    def pending(self) -> int:
        return len(self.heap)

    @property
    def L(self) -> int:
        """Length of the ready queue."""
        return len(self.rq)

    def available(self) -> tuple[int, ...]:
        """The per-type availability vector at the current clock."""
        layout = self.gi.layout
        return layout.unpack(self.avh - layout.fit_mask)

    # ------------------------------------------------------------------
    # ready-queue maintenance
    # ------------------------------------------------------------------
    def _gather_column(self) -> None:
        """Make the demand column what the list says after a bulk change:
        gathered anew (with as much room again for in-place insertions)
        iff the queue is long and the images fit a ``uint64``."""
        rq = self.rq
        if not self.gi.layout.packable or len(rq) <= _VECTOR_QUEUE:
            self.rp = None
            return
        packed = self.gi.packed
        rp = np.empty(2 * len(rq), dtype=np.uint64)
        rp[:len(rq)] = np.array([packed[i] for _, i in rq], dtype=np.uint64)
        self.rp = rp

    def _enqueue(self, rows: list[int]) -> None:
        """Insert newly queued rows into the ready queue (in place: ``run``
        holds the list in a local).

        A few rows are ``insort``-ed one by one — and, while the queue is
        long, patched into the column at the same positions; a large block
        extends and sorts (Timsort merges the two runs) and the column is
        gathered again, as it is when the queue first grows past
        :data:`_VECTOR_QUEUE` or outgrows the column's room.
        """
        gi = self.gi
        key = gi.key
        rq = self.rq
        rp = self.rp
        if len(rows) >= _VECTOR_BATCH:
            rq.extend([(key[i], i) for i in rows])
            rq.sort()
        elif rp is not None and len(rq) + len(rows) <= rp.shape[0]:
            packed = gi.packed
            for i in rows:
                item = (key[i], i)
                p = bisect_left(rq, item)
                L = len(rq)
                rq.insert(p, item)
                rp[p + 1:L + 1] = rp[p:L]
                rp[p] = packed[i]
            return
        else:
            for i in rows:
                insort(rq, (key[i], i))
        self._gather_column()

    def _pop_ready(self, i: int) -> None:
        """Remove row ``i`` from the ready queue (cancellation path)."""
        rq = self.rq
        p = bisect_left(rq, (self.gi.key[i], i))
        if not (p < len(rq) and rq[p][1] == i):  # pragma: no cover - defensive
            raise RuntimeError(f"ready queue lost row {i}")
        del rq[p]
        rp = self.rp
        if rp is not None:
            L = len(rq)
            if L <= _VECTOR_QUEUE:
                self.rp = None
            else:
                rp[p:L] = rp[p + 1:L + 1]

    def load_ready(self, items: Sequence[int]) -> None:
        """Restore the ready queue from stored row indices (already in
        dispatch order) — the checkpoint restore path: no rebuild from
        per-job states, no sort, just the keys looked up."""
        key = self.gi.key
        self.rq[:] = [(key[i], i) for i in items]
        self._gather_column()

    # ------------------------------------------------------------------
    def admit_batch(self, lo: int, rem_counts: Sequence[int]) -> None:
        """Register every appended row from ``lo`` to the end of the
        instance (once, in row order) — readiness is set per row, but all
        newly queued rows enter the ready queue through one
        :meth:`_enqueue` call.

        ``rem_counts[i - lo]`` is row ``i``'s count of predecessors not yet
        completed (the session's ``submit`` walks every predecessor to
        resolve ids and rejects cancelled ones, so it already has the
        counts).  A release in the future adds one virtual release
        predecessor, whose event is only pushed on the heap when it is the
        *last* outstanding predecessor (here, or later when the final real
        predecessor completes): a release that fires while real
        predecessors are still pending could neither queue the job nor
        free capacity, so deferring it keeps those no-op events (and their
        dispatch passes) off the heap entirely.
        """
        gi = self.gi
        state = self.state
        remaining = self.remaining
        n = len(gi.order)
        if lo != len(state):
            raise ValueError(
                f"admit out of order: row {lo}, expected {len(state)}"
            )
        now = self.now
        heap = self.heap
        seq = self.seq
        push = heapq.heappush
        newly: list[int] = []
        release = gi.release
        self.start.extend([None] * (n - lo))
        self.finish.extend([None] * (n - lo))
        for i in range(lo, n):
            rem = rem_counts[i - lo]
            if rem == 0:
                if release[i] > now:
                    # the release is the one outstanding virtual predecessor
                    push(heap, (release[i], seq, ~i))
                    seq += 1
                    remaining.append(1)
                    state.append(J_WAITING)
                else:
                    remaining.append(0)
                    state.append(J_QUEUED)
                    newly.append(i)
            else:
                # future release deferred: the last completing predecessor
                # pushes the release event if it is still in the future then
                remaining.append(rem)
                state.append(J_WAITING)
        self.seq = seq
        if newly:
            self._enqueue(newly)

    def cancel(self, i: int) -> bool:
        """Cancel job index ``i`` if it has not started; returns success.

        Callers must cancel a job's pending descendants too (their
        precedence constraint becomes unsatisfiable); the session layer
        owns that cascade.
        """
        st = self.state[i]
        if st in (J_RUNNING, J_DONE):
            return False
        if st == J_CANCELLED:
            return True
        if st == J_QUEUED:
            self._pop_ready(i)
        elif self.gi.release[i] > self.now:
            # purge the pending release event: a leftover entry would drag
            # the clock out to the cancelled job's release on drain
            code = ~i
            kept = [e for e in self.heap if e[2] != code]
            if len(kept) != len(self.heap):
                self.heap = kept
                heapq.heapify(kept)
        self.state[i] = J_CANCELLED
        return True

    def compact(self, keep: Sequence[int], old2new: np.ndarray) -> None:
        """Remap the loop's parallel state after the instance compacted.

        ``keep``/``old2new`` come from
        :meth:`~repro.instance.compiled.GrowableCompiledInstance.compact`.
        Every heap code and ready entry references a live (kept) row —
        completions point at running jobs, releases at waiting ones, the
        ready queue at queued ones — and ``old2new`` is increasing on
        survivors, so remapping indices preserves both the heap order
        (codes don't participate in it) and the ready queue's
        ``(key, index)`` order; the demand column holds demands in queue
        order, which a renumbering does not change.
        """
        state = self.state
        self.state = [state[i] for i in keep]
        remaining = self.remaining
        self.remaining = [remaining[i] for i in keep]
        start = self.start
        self.start = [start[i] for i in keep]
        finish = self.finish
        self.finish = [finish[i] for i in keep]
        o2n = old2new.tolist()
        self.rq = [(k, o2n[i]) for k, i in self.rq]
        self.heap = [
            (t, s, o2n[c] if c >= 0 else ~o2n[~c]) for (t, s, c) in self.heap
        ]

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> bool:
        """Dispatch and process events up to ``until`` (see the batch loop).

        A dispatch pass is one of two forms of the same greedy scan in
        ``(key, index)`` order, chosen by whether the demand column exists
        (``self.rp``, i.e. by the queue length observed): the in-order scan
        of :attr:`rq` over python ints, or the batch loop's whole-queue
        admit-then-refilter over the ``uint64`` column.  A batch with no
        completion takes the release-only scan of the newly released rows.

        Returns ``True`` when the event heap is empty after the final
        dispatch pass — queued jobs may remain only if the platform can
        never fit them concurrently with nothing running, which
        admission's bounds validation rules out, so an empty heap means
        every admitted, uncancelled job has completed.
        """
        # load the loop state into locals, as the batch loop does: the
        # per-event path below is the hot loop the service benchmark times
        gi = self.gi
        heap = self.heap
        state = self.state
        remaining = self.remaining
        start_l = self.start
        finish_l = self.finish
        packed = gi.packed
        dur = gi.duration
        order = gi.order
        key = gi.key
        succ = gi.succ
        release_a = gi.release
        append_log = self.log.append
        ncompleted = self.ncompleted
        H = gi.layout.fit_mask
        uint64 = np.uint64
        avh = self.avh
        eps = self.eps
        now = self.now
        seq = self.seq
        # the queue is held here, so nothing run() calls may rebind it;
        # the column comes and goes with the queue's length and is read
        # from self at each pass
        rq = self.rq
        pop = heapq.heappop
        push = heapq.heappush
        done = False
        # The pass below leaves only non-fitting jobs in the ready queue,
        # and availability only grows on completions — so between passes
        # the invariant "no queued job fits the current availability"
        # holds, and an event batch with no completion cannot make an
        # *old* queued job startable.  need_pass tracks exactly that.
        need_pass = True

        while True:
            # ------------------------- dispatch pass -------------------------
            if need_pass and rq:
                started: list[int] | None = None
                rp = self.rp
                if rp is None:
                    # no column — a queue of at most _VECTOR_QUEUE entries
                    # (the steady-state service regime), or images too
                    # wide for a uint64: an in-order scan against the
                    # current availability.  On such queues it beats the
                    # fixed cost of the numpy machinery below, and it is
                    # exactly the vector pass (availability only shrinks,
                    # so snapshot-hits + recheck == sequential test)
                    for pos, (_, i) in enumerate(rq):
                        a = packed[i]
                        if (avh - a) & H == H:
                            avh -= a
                            state[i] = J_RUNNING
                            start_l[i] = now
                            t = dur[i]
                            push(heap, (now + t, seq, i))
                            seq += 1
                            append_log(("start", order[i], now))
                            if started is None:
                                started = [pos]
                            else:
                                started.append(pos)
                else:
                    # whole-queue feasibility: one SWAR comparison over
                    # uint64s, then admit-then-refilter — each admission
                    # shrinks availability, so the hit tail is re-filtered
                    # with one small vector comparison instead of a
                    # scalar recheck per snapshot hit
                    H_u = uint64(H)
                    hits = (
                        ((uint64(avh) - rp[:len(rq)]) & H_u) == H_u
                    ).nonzero()[0]
                    while hits.size:
                        pos = int(hits[0])
                        i = rq[pos][1]
                        avh -= packed[i]
                        state[i] = J_RUNNING
                        start_l[i] = now
                        t = dur[i]
                        push(heap, (now + t, seq, i))
                        seq += 1
                        append_log(("start", order[i], now))
                        if started is None:
                            started = [pos]
                        else:
                            started.append(pos)
                        hits = hits[1:]
                        if hits.size:
                            hits = hits[
                                ((uint64(avh) - rp[hits]) & H_u) == H_u
                            ]
                if started is not None:
                    if len(started) == len(rq):
                        rq.clear()
                        self.rp = None
                    elif rp is None:
                        for p in reversed(started):
                            del rq[p]
                    else:
                        L = len(rq)
                        for p in reversed(started):
                            del rq[p]
                            L -= 1
                            rp[p:L] = rp[p + 1:L + 1]
                        if L <= _VECTOR_QUEUE:
                            self.rp = None
            need_pass = False
            if not heap:
                done = True
                break
            if until is not None and heap[0][0] > until:
                break
            # -------------------------- event batch --------------------------
            t0, _, c = pop(heap)
            now = t0
            horizon = t0 + eps
            batch = [c]
            while heap and heap[0][0] <= horizon:
                batch.append(pop(heap)[2])
            newly: list[int] | None = None
            freed = False
            for c in batch:
                if c < 0:  # release event: one virtual predecessor satisfied
                    i = ~c
                    if state[i] == J_CANCELLED:
                        continue
                    m = remaining[i] - 1
                    remaining[i] = m
                    if not m and state[i] == J_WAITING:
                        state[i] = J_QUEUED
                        if newly is None:
                            newly = [i]
                        else:
                            newly.append(i)
                    continue
                i = c
                freed = True
                state[i] = J_DONE
                finish_l[i] = now
                ncompleted += 1
                avh += packed[i]
                append_log(("finish", order[i], now))
                for s in succ[i]:
                    if state[s] != J_WAITING:
                        continue
                    m = remaining[s] - 1
                    if m:
                        remaining[s] = m
                        continue
                    r = release_a[s]
                    if r > now:
                        # deferred release: now that the last real
                        # predecessor finished, it becomes the one
                        # outstanding virtual predecessor
                        remaining[s] = 1
                        push(heap, (r, seq, ~s))
                        seq += 1
                        continue
                    remaining[s] = 0
                    state[s] = J_QUEUED
                    if newly is None:
                        newly = [s]
                    else:
                        newly.append(s)
            if freed:
                need_pass = True
            elif newly is not None:
                # Release-only batch: no capacity was freed, so by the
                # invariant no *old* queued job became startable — only
                # the newly released jobs need a fit test.  Scan them in
                # (key, index) order (the order the full pass would reach
                # them in, old jobs being guaranteed misses) and start
                # the fits in place; only the leftovers touch the queue.
                if len(newly) > 1:
                    newly.sort(key=lambda s, _k=key: (_k[s], s))
                leftovers: list[int] | None = None
                for i in newly:
                    a = packed[i]
                    if (avh - a) & H == H:
                        avh -= a
                        state[i] = J_RUNNING
                        start_l[i] = now
                        t = dur[i]
                        push(heap, (now + t, seq, i))
                        seq += 1
                        append_log(("start", order[i], now))
                    elif leftovers is None:
                        leftovers = [i]
                    else:
                        leftovers.append(i)
                newly = leftovers
            if newly is not None:
                self._enqueue(newly)

        # store the loop state back
        self.avh = avh
        self.seq = seq
        self.now = now
        self.ncompleted = ncompleted
        return done

    def advance_clock(self, until: float) -> None:
        """Move the clock forward to ``until`` with no events in between
        (the session's ``advance`` contract: time has progressed even when
        nothing happened)."""
        if until > self.now:
            if self.heap and self.heap[0][0] <= until:
                raise RuntimeError("advance_clock would skip pending events")
            self.now = until


#: Policy: (instance, ready job ids, available amounts) -> jobs to start now,
#: each with its chosen allocation.  Called repeatedly until it returns [].
DispatchPolicy = Callable[[object, Sequence[JobId], Sequence[int]], list[tuple[JobId, object]]]


def run_dynamic(instance, policy: DispatchPolicy) -> Schedule:
    """Run the dispatch-time-allocation discipline: ``policy`` decides.

    ``policy(instance, ready, available)`` sees the ready job ids (in the
    order they became ready) and the available amounts, and must return
    only ready jobs with allocations that fit (checked here); returning
    ``[]`` yields until the next event batch.  Events pop from one
    ``(time, seq, code)`` heap — ``code < n`` completes topological index
    ``code``, ``code >= n`` releases index ``code - n`` — in batches of
    :data:`TIME_EPS`, and readiness is an in-degree count over the
    DAG's successor lists.
    """
    ci = compile_instance(instance)
    dag = ci.dag
    order = dag.order
    index = dag.index
    succ = dag.succ_lists()
    n = len(order)
    remaining = dag.in_degrees.tolist()
    heap: list[tuple[float, int, int]] = []
    if ci.has_releases:
        rel = ci.release
        for i in np.flatnonzero(rel > 0.0).tolist():
            remaining[i] += 1  # a release acts as one extra virtual predecessor
            heap.append((float(rel[i]), len(heap), n + i))
        heapq.heapify(heap)
    seq = len(heap)

    ready: list[JobId] = [j for j in dag.sources() if remaining[index[j]] == 0]
    avail = list(instance.pool.capacities)
    held: dict[int, tuple[int, ...]] = {}
    placements: dict[JobId, ScheduledJob] = {}
    now = 0.0
    while True:
        while starts := policy(instance, list(ready), tuple(avail)):
            for j, alloc in starts:
                if j not in ready:
                    raise RuntimeError(f"policy started non-ready job {j!r}")
                instance.pool.validate_allocation(alloc)
                a = tuple(alloc)
                if any(x > y for x, y in zip(a, avail)):
                    raise RuntimeError(
                        f"policy overcommitted: {a} vs available {tuple(avail)}"
                    )
                avail = [y - x for x, y in zip(a, avail)]
                t = instance.time(j, alloc)
                i = index[j]
                heapq.heappush(heap, (now + t, seq, i))
                seq += 1
                held[i] = a
                placements[j] = ScheduledJob(job_id=j, start=now, time=t, alloc=alloc)
                ready.remove(j)
        if not heap:
            break
        now, _, c = heapq.heappop(heap)
        batch = [c]
        horizon = now + TIME_EPS
        while heap and heap[0][0] <= horizon:
            batch.append(heapq.heappop(heap)[2])
        for c in batch:
            if c >= n:
                c -= n
                remaining[c] -= 1
                if not remaining[c]:
                    ready.append(order[c])
                continue
            avail = [x + y for x, y in zip(held.pop(c), avail)]
            for s in succ[c]:
                remaining[s] -= 1
                if not remaining[s]:
                    ready.append(order[s])

    if len(placements) != n:
        raise RuntimeError("policy stalled with ready jobs and an idle platform")
    return Schedule(instance=instance, placements=placements)
