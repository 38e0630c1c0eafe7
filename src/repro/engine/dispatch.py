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
  is python ints: three per-job columns (readiness counts, successor
  offsets, ranks) become python lists for the run, and the O(E)
  successor indices are read in place (a memoryview, never copied).  The
  column is
  ``uint64`` images where they fit a word (``layout.packable``: ``d * bits
  <= 64``) and ``(L, d)`` int64 rows where they do not.
* :class:`IncrementalPriorityLoop` — the resumable loop, stepped with
  ``run(until)`` as virtual time advances, behind
  :class:`~repro.service.session.SchedulingSession` (and so behind ``repro
  serve`` and ``repro schedule --follow``).  It owns every row of a live
  session — one append-only list per column, from the job's id and
  predecessors to its state and start — admits jobs *while scheduling*
  (``admit``), supports cancellation of not-yet-started jobs, drops dead
  rows (``compact``), and keeps the ready queue as ``(key, row index)``
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

from repro.instance.compiled import DemandLayout, compile_instance
from repro.resources.vector import whole_amounts
from repro.sim.schedule import Schedule

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
    order; ``alloc_mat`` is the allocation's accepted ``(n, d)`` matrix (an
    :class:`~repro.instance.compiled.Allocation`'s), or ``None`` to have
    ``allocation`` lowered and checked here (``ValueError`` naming a job).

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
    work is python ints throughout.  Successor readiness reads three
    per-job columns as **python lists built once per run** — ``remaining``
    (in-degree counts, small cached ints: 8 B a job), ``succ_indptr`` and
    ``rank_of`` (a pointer and an int object: 40 B a job each) — where a
    list item costs a fraction of a memoryview item; the O(E)
    ``succ_indices`` stay a **memoryview of the compiled int64 buffer**,
    never copied.  :attr:`remaining` is the int64 array again when the run
    returns (all zero).  The ready queue :attr:`rq` is a sorted python
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
        # the per-job columns the event batch reads, as python lists for
        # the run (see the class docstring); the O(E) successor indices
        # are read in place
        remaining = self.remaining.tolist()
        ip = self.ip.tolist()
        si = memoryview(self.si)
        rank = self.rank_a.tolist()
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
        self.remaining[:] = remaining


# ----------------------------------------------------------------------
# the online-session loop: the one owner of a live session's rows
# ----------------------------------------------------------------------

#: Job states inside :class:`IncrementalPriorityLoop`.
J_WAITING, J_QUEUED, J_RUNNING, J_DONE, J_CANCELLED = range(5)


class IncrementalPriorityLoop:
    """Algorithm 2's discipline over a growing job set, resumable — and the
    one owner of a live session's rows.

    The online form of :class:`PriorityLoop`: jobs are admitted with
    :meth:`admit` *at any point* — including between :meth:`run` calls
    with the clock mid-schedule — and not-yet-started jobs can be
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

    **The rows.**  Every admitted job is one row, and every column of it
    is an append-only python list indexed by row: ``order`` (the ids),
    ``index`` (id → row), ``succ`` and ``preds`` (row indices), ``ext_preds``
    (satisfied predecessors by id), ``demand``, ``packed``, ``duration``,
    ``key`` and ``release``, fixed at admission, and ``state``,
    ``remaining``, ``start`` and ``finish``, which the loop moves.  Rows are
    appended in a topological order — every predecessor of a row has a
    lower index — so tie-breaks key on positions in ``order`` exactly as
    they do in the batch lowering.  There are three ways in:
    :meth:`admit` appends a batch at the clock, :meth:`load` appends a
    checkpoint's rows with their stored states, and :meth:`compact` drops
    the dead rows; nothing else appends or removes one.  A row must pass
    the layout's bounds rule before it is appended (the session's
    ``_validate_numeric``, on submit and restore alike), so the admission
    test never sees an infeasible row and no field of an image carries
    into its neighbour.

    **One demand encoding.**  ``packed[i]`` is a python-int image of the
    demand row in the platform's :class:`~repro.instance.compiled.DemandLayout`
    (:attr:`layout`, the batch lowering's) on *every* platform, so the
    admission test is always ``(avh - a) & fit_mask == fit_mask`` — python
    ints do not overflow, whatever ``d * bits`` comes to.  ``layout.packable``
    says one thing only: the images may also be held in a ``uint64`` array.

    The ``uint64`` demand column :attr:`rp` is a **cache of the list, not
    the queue**: it exists only while the queue is long and the images fit
    a ``uint64``, and then the whole queue is tested in one vector
    operation (a bag-of-tasks submit leaves thousands of rows queued, and
    scanning those per completion costs ten times the vector pass).
    Invariant, after every method: ``rp is None`` ⇔ ``not
    layout.packable or len(rq) <= _VECTOR_QUEUE``; otherwise ``rp[p] ==
    packed[rq[p][1]]`` for every position ``p`` of the queue (the buffer
    may be longer — room for insertions).  It is gathered from the list
    when the queue grows past the constant, patched at the positions the
    list is while the queue stays long, and dropped when the queue shrinks
    back.

    Instead of per-event callbacks, the loop appends event tuples to
    :attr:`log`: ``("start", id, t)`` and ``("finish", id, t)``.  The
    owning session reads them after each run (for its reply, its counters
    and its finished ids) and empties the list.  A start carries neither
    duration nor demand: both are fixed at admission and stay on the job's
    row, which is where the session looks them up.

    Heap codes: ``code >= 0`` is the completion of job index ``code``;
    ``code < 0`` is the release of index ``~code`` (the bitwise-complement
    encoding keeps codes valid as the job set grows — a ``code >= n``
    convention would not survive appends).
    """

    __slots__ = (
        "layout", "order", "index", "succ", "preds", "ext_preds", "demand",
        "packed", "duration", "key", "release", "state", "remaining",
        "start", "finish",
        "now", "eps", "heap", "seq", "avh", "log", "ncompleted", "rq", "rp",
    )

    #: the columns :meth:`compact` gathers row by row as they are
    _PLAIN_COLUMNS = (
        "demand", "packed", "duration", "key", "release", "state", "remaining",
        "start", "finish",
    )

    def __init__(self, capacities: Sequence[int]) -> None:
        try:
            caps = whole_amounts(capacities)
        except (TypeError, ValueError):
            caps = ()
        if not caps or any(c <= 0 for c in caps):
            raise ValueError(
                f"capacities must be a positive vector of whole amounts, "
                f"got {capacities!r}"
            )
        self.layout = layout = DemandLayout(caps)
        self.order: list[JobId] = []          # job ids, append (topological) order
        self.index: dict[JobId, int] = {}     # id -> row
        self.succ: list[list[int]] = []       # successor rows
        self.preds: list[tuple[int, ...]] = []  # predecessor rows
        self.ext_preds: list[tuple[JobId, ...]] = []  # satisfied preds, by id
        self.demand: list[tuple[int, ...]] = []
        self.packed: list[int] = []           # demand image, see layout.images
        self.duration: list[float] = []
        self.key: list[object] = []           # priority key; order is (key, index)
        self.release: list[float] = []
        self.state: list[int] = []
        self.remaining: list[int] = []        # outstanding (virtual) predecessors
        self.start: list[float | None] = []
        self.finish: list[float | None] = []
        self.now = 0.0
        self.eps = TIME_EPS
        self.heap: list[tuple[float, int, int]] = []
        self.seq = 0
        # availability image with the headroom bits pre-added
        self.avh = layout.packed_capacities + layout.fit_mask
        self.log: list[tuple] = []
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
        layout = self.layout
        return layout.unpack(self.avh - layout.fit_mask)

    # ------------------------------------------------------------------
    # ready-queue maintenance
    # ------------------------------------------------------------------
    def _gather_column(self) -> None:
        """Make the demand column what the list says after a bulk change:
        gathered anew (with as much room again for in-place insertions)
        iff the queue is long and the images fit a ``uint64``."""
        rq = self.rq
        if not self.layout.packable or len(rq) <= _VECTOR_QUEUE:
            self.rp = None
            return
        packed = self.packed
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
        key = self.key
        rq = self.rq
        rp = self.rp
        if len(rows) >= _VECTOR_BATCH:
            rq.extend([(key[i], i) for i in rows])
            rq.sort()
        elif rp is not None and len(rq) + len(rows) <= rp.shape[0]:
            packed = self.packed
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
        p = bisect_left(rq, (self.key[i], i))
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

    # ------------------------------------------------------------------
    # the rows: append, admit, load, cancel, compact
    # ------------------------------------------------------------------
    def _append(
        self,
        ids: Sequence[JobId],
        preds: Sequence[tuple[int, ...]],
        ext_preds: Sequence[tuple[JobId, ...]],
        demands: Sequence[tuple[int, ...]],
        durations: Sequence[float],
        keys: Sequence[object],
        releases: Sequence[float],
    ) -> int:
        """Append validated rows' fixed columns in one shot (the demand
        images packed by one :meth:`DemandLayout.images` call); returns the
        first new row.  ``preds`` rows are absolute and may reference
        earlier rows of the same batch; they double as the successor
        wiring source, so a dependency already satisfied is passed by id
        in ``ext_preds`` instead."""
        base = len(self.order)
        self.order.extend(ids)
        index = self.index
        for off, jid in enumerate(ids):
            index[jid] = base + off
        succ = self.succ
        succ.extend([] for _ in ids)
        self.preds.extend(preds)
        self.ext_preds.extend(ext_preds)
        self.demand.extend(demands)
        images = self.layout.images(demands)
        self.packed.extend(images.tolist() if self.layout.packable else images)
        self.duration.extend(durations)
        self.key.extend(keys)
        self.release.extend(releases)
        for off, pt in enumerate(preds):
            if pt:
                i = base + off
                for p in pt:
                    succ[p].append(i)
        return base

    def admit(
        self,
        ids: Sequence[JobId],
        preds: Sequence[tuple[int, ...]],
        ext_preds: Sequence[tuple[JobId, ...]],
        demands: Sequence[tuple[int, ...]],
        durations: Sequence[float],
        keys: Sequence[object],
        releases: Sequence[float],
        outstanding: Sequence[int],
    ) -> None:
        """Append a validated batch at the clock and register its
        readiness — per row, with every newly queued row entering the
        ready queue through one :meth:`_enqueue` call.

        ``outstanding[k]`` is the ``k``-th row's count of predecessors not
        yet completed (the session's ``submit`` walks every predecessor to
        resolve ids and rejects cancelled ones, so it already has the
        counts).  A release in the future adds one virtual release
        predecessor, whose event is only pushed on the heap when it is the
        *last* outstanding predecessor (here, or later when the final real
        predecessor completes): a release that fires while real
        predecessors are still pending could neither queue the job nor
        free capacity, so deferring it keeps those no-op events (and their
        dispatch passes) off the heap entirely.
        """
        lo = self._append(ids, preds, ext_preds, demands, durations, keys, releases)
        state = self.state
        remaining = self.remaining
        now = self.now
        heap = self.heap
        seq = self.seq
        push = heapq.heappush
        newly: list[int] = []
        self.start.extend([None] * len(ids))
        self.finish.extend([None] * len(ids))
        for i, rem, rel in zip(range(lo, lo + len(ids)), outstanding, releases):
            if rem == 0:
                if rel > now:
                    # the release is the one outstanding virtual predecessor
                    push(heap, (rel, seq, ~i))
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

    def load(
        self,
        ids: Sequence[JobId],
        preds: Sequence[tuple[int, ...]],
        ext_preds: Sequence[tuple[JobId, ...]],
        demands: Sequence[tuple[int, ...]],
        durations: Sequence[float],
        keys: Sequence[object],
        releases: Sequence[float],
        state: Sequence[int],
        start: Sequence["float | None"],
        finish: Sequence["float | None"],
        *,
        now: float,
        running: Sequence[int],
    ) -> None:
        """Resume a checkpoint into this (empty) loop: the rows appended
        by the one append, with their stored states, start and finish, at
        clock ``now``; the rest of the loop state is derived from them by
        the rules :meth:`admit` and :meth:`run` keep:

        * a waiting row's ``remaining`` is its count of predecessors not
          done or, when that count is 0 and its release is after the
          clock, 1 (the release); every other row's is 0;
        * the availability is the capacities less the running rows' images;
        * the ready queue is the queued rows in ``(key, index)`` order;
        * the heap holds each running row's completion at ``start +
          duration``, pushed in ``running`` order, then the release of
          each waiting row that waits for nothing else; ``seq`` is the
          number of entries;
        * ``ncompleted`` is the number of done rows (the caller adds the
          ones it archived).

        ``running`` lists the running rows in the order their completions
        pop: exact ties between completions are the one thing the rows
        cannot fix.  The caller
        (:func:`~repro.service.checkpoint.restore_session`) checks that the
        rows are ones this loop can have produced."""
        self._append(ids, preds, ext_preds, demands, durations, keys, releases)
        self.state = state = list(state)
        self.start = start = list(start)
        self.finish = list(finish)
        self.now = now
        dur, release = self.duration, self.release
        self.heap = heap = [(start[i] + dur[i], seq, i) for seq, i in enumerate(running)]
        self.remaining = remaining = [0] * len(state)
        for i, pt in enumerate(self.preds):
            if state[i] == J_WAITING:
                remaining[i] = sum(state[p] != J_DONE for p in pt)
                if not remaining[i] and release[i] > now:
                    remaining[i] = 1
                    heap.append((release[i], len(heap), ~i))
        heap.sort()  # a sorted list is a heap
        self.seq = len(heap)
        self.ncompleted = state.count(J_DONE)
        self.avh -= sum(self.packed[i] for i, s in enumerate(state) if s == J_RUNNING)
        self.rq[:] = sorted((self.key[i], i) for i, s in enumerate(state) if s == J_QUEUED)
        self._gather_column()

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
        elif self.release[i] > self.now:
            # purge the pending release event: a leftover entry would drag
            # the clock out to the cancelled job's release on drain
            code = ~i
            kept = [e for e in self.heap if e[2] != code]
            if len(kept) != len(self.heap):
                self.heap = kept
                heapq.heapify(kept)
        self.state[i] = J_CANCELLED
        return True

    def compact(self, keep: Sequence[int]) -> None:
        """Drop every row not in ``keep`` and renumber the survivors.

        ``keep`` must be strictly increasing: relative order — and with it
        the ``(key, index)`` total order over survivors — is preserved.  A
        dropped predecessor of a surviving row moves into its
        :attr:`ext_preds` by id (it was satisfied before it was dropped,
        so the row owes it no readiness bookkeeping, only provenance); a
        dropped successor simply disappears.  Every heap code and ready
        entry references a kept row — completions point at running jobs,
        releases at waiting ones, the ready queue at queued ones — and the
        renumbering is increasing, so it preserves both the heap order
        (codes don't participate in it) and the ready queue's ``(key,
        index)`` order; the demand column holds demands in queue order,
        which a renumbering does not change.
        """
        o2n = [-1] * len(self.order)
        for new, old in enumerate(keep):
            o2n[old] = new
        order = self.order
        preds = self.preds
        ext = self.ext_preds
        self.order = [order[i] for i in keep]
        self.index = {j: k for k, j in enumerate(self.order)}
        self.preds = [tuple(o2n[p] for p in preds[i] if o2n[p] >= 0) for i in keep]
        self.ext_preds = [
            ext[i] + tuple(order[p] for p in preds[i] if o2n[p] < 0) for i in keep
        ]
        succ: list[list[int]] = [[] for _ in keep]
        for i, pt in enumerate(self.preds):
            for p in pt:
                succ[p].append(i)
        self.succ = succ
        for name in self._PLAIN_COLUMNS:
            col = getattr(self, name)
            setattr(self, name, [col[i] for i in keep])
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
        heap = self.heap
        state = self.state
        remaining = self.remaining
        start_l = self.start
        finish_l = self.finish
        packed = self.packed
        dur = self.duration
        order = self.order
        key = self.key
        succ = self.succ
        release_a = self.release
        append_log = self.log.append
        ncompleted = self.ncompleted
        H = self.layout.fit_mask
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
    placed: list[tuple] = []  # the schedule's rows
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
                placed.append((j, now, t, a))
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

    if len(placed) != n:
        raise RuntimeError("policy stalled with ready jobs and an idle platform")
    return Schedule(instance, *zip(*placed))
