"""The default (pure numpy) dispatch backend.

The body of :class:`~repro.engine.dispatch.PriorityLoop`, for both demand
encodings, structured around time-point batches:

* **Admit-then-refilter dispatch pass.**  One whole-queue comparison
  finds every queued job that fits the availability *snapshot*.  The
  pass admits the first hit (the lowest rank, valid because availability
  has not shrunk yet) and re-filters the remaining hits with one small
  vector comparison, repeating until no hit survives.  This is the
  greedy scan in rank order: a job outside the snapshot hit set can
  never fit later in the pass (availability only shrinks within a
  pass), and re-filtering the tail against the shrunk availability is
  exactly a scalar recheck per hit, batched.

* **Vectorized batch application.**  All events within ``time_eps`` of
  the first popped event form one batch; batches of at least
  ``_VECTOR_BATCH`` simultaneous completions/releases apply as
  whole-array updates — one demand sum for the freed capacity, one
  ragged CSR gather + ``subtract.at`` for the successor in-degrees —
  instead of a python loop per event.

* **Release-only fast path.**  Availability only grows on completions,
  so after a batch containing no completion the standing invariant "no
  queued job fits" still holds for every *old* queue entry: only the
  newly released jobs need a fit test.  They are scanned in rank order
  (exactly where the full pass would reach them) and the full-queue
  pass is skipped.

All three are schedule-preserving: admission order within a time point
remains the ``(key, topological index)`` total order, and the
conformance fuzz matrix races the result against the frozen per-event
references event for event.

The demand encoding (``loop.packed``, see the loop's class docs) is read
in five operations only — whole-queue fit, tail re-filter, scalar fit,
acquire, free; each is one ``if packed`` below.  Queue maintenance is
written once: slicing and scattering along the first axis is the same
statement for ``(n,)`` and ``(n, d)`` buffers.
"""

from __future__ import annotations

import gc
import heapq

import numpy as np

from repro.engine.backends import register_backend

__all__ = ["PythonBackend"]

#: Batches at least this large take the whole-array application path.
_VECTOR_BATCH = 8


@register_backend("python", description="pure numpy fused loop (default)")
class PythonBackend:
    """The numpy implementation of the batch loop (always available)."""

    name = "python"

    @staticmethod
    def is_available() -> bool:
        return True

    def run(self, loop, until: "float | None" = None) -> bool:
        """Execute :class:`PriorityLoop`'s hot loop (see class docs).

        The collector is paused for the duration of the run: the loop
        allocates only acyclic objects (event tuples, the caller's
        placement records), but each allocation-triggered generational
        collection scans *every* live object — with a million-job
        instance resident that is an O(n) cost paid every ~10k events,
        and it is what used to bend the jobs/s curve at large n.  No
        cycles are created, so nothing is ever missed; the prior
        collector state is restored on exit either way.
        """
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return self._run(loop, until)
        finally:
            if was_enabled:
                gc.enable()

    def _run(self, loop, until: "float | None" = None) -> bool:
        remaining = loop.remaining
        ip = loop.ip
        si = loop.si
        packed = loop.packed
        dem_rank = loop.dem_rank
        dem_rank_l = loop.dem_rank_l
        dem_topo = loop.dem_topo
        dem_topo_l = loop.dem_topo_l
        rank_a = loop.rank_a
        topo_l = loop.topo_l
        dur = loop.dur
        order = loop.order
        on_start = loop.on_start
        on_complete = loop.on_complete
        n = loop.n
        H = loop.H
        H_u = loop.H_u
        uint64 = np.uint64
        av = loop.av  # packed: python int incl. headroom; matrix: int64 (d,), in place
        heap = loop.heap
        seq = loop.seq
        qb = loop.qb
        pb = loop.pb
        sq = loop.sq
        sp = loop.sp
        L = loop.L
        now = loop.now
        eps = loop.eps
        push = heapq.heappush
        pop = heapq.heappop
        done = False
        log = on_start is None
        if log:
            # array start-log mode: record (topo index, start time) pairs
            # instead of calling back per dispatch (see priority_loop)
            _, _, log_i, log_t = loop.kernel_scratch()
            ns = loop.ns
        # Between passes the invariant "no queued job fits the current
        # availability" holds (the pass leaves only misses behind and
        # availability only grows on completions), so a batch that frees
        # no capacity cannot make an old queue entry startable.
        need_pass = True

        while True:
            # ------------------------- dispatch pass -------------------------
            if need_pass and L:
                # whole-queue feasibility in one vector comparison
                if packed:
                    hits = ((((uint64(av) - pb[:L]) & H_u) == H_u).nonzero())[0]
                else:
                    hits = (pb[:L] <= av).all(axis=1).nonzero()[0]
                if hits.size:
                    started = None
                    while True:
                        # the first hit is the lowest-rank fitting job and
                        # availability has not shrunk since the filter ran
                        kpos = hits[0]
                        r = int(qb[kpos])
                        if packed:
                            av -= dem_rank_l[r]
                        else:
                            av -= dem_rank[r]
                        i = topo_l[r]
                        t = dur[i]
                        push(heap, (now + t, seq, i))
                        seq += 1
                        if log:
                            log_i[ns] = i
                            log_t[ns] = now
                            ns += 1
                        else:
                            on_start(order[i], now, t)
                        if started is None:
                            started = [kpos]
                        else:
                            started.append(kpos)
                        hits = hits[1:]
                        if not hits.size:
                            break
                        # re-filter the tail against the shrunk availability
                        if packed:
                            hits = hits[(((uint64(av) - pb[hits]) & H_u) == H_u)]
                        else:
                            hits = hits[(pb[hits] <= av).all(axis=1)]
                        if not hits.size:
                            break
                    if len(started) == L:
                        L = 0
                    else:
                        for p in reversed(started):
                            qb[p:L - 1] = qb[p + 1:L]
                            pb[p:L - 1] = pb[p + 1:L]
                            L -= 1
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
            if heap and heap[0][0] <= horizon:
                batch = [c]
                while heap and heap[0][0] <= horizon:
                    batch.append(pop(heap)[2])
            else:
                batch = (c,)
            newly = None
            freed = False
            if on_complete is None and len(batch) >= _VECTOR_BATCH:
                # whole-array application of one simultaneous batch
                codes = np.fromiter(batch, count=len(batch), dtype=np.int64)
                iscomp = codes < n
                rel = codes[~iscomp] - n
                comp = codes[iscomp]
                if rel.size:
                    remaining[rel] -= 1  # one release event per job: unique rows
                    z = rel[remaining[rel] == 0]
                    if z.size:
                        newly = rank_a[z].tolist()
                if comp.size:
                    freed = True
                    if packed:
                        av += int(dem_topo[comp].sum(dtype=np.uint64))
                    else:
                        av += dem_topo[comp].sum(axis=0)
                    lo = ip[comp]
                    cnt = ip[comp + 1] - lo
                    total = int(cnt.sum())
                    if total:
                        # ragged CSR gather of every successor row
                        cum = np.cumsum(cnt)
                        cat = si[np.repeat(lo - (cum - cnt), cnt) + np.arange(total)]
                        np.subtract.at(remaining, cat, 1)  # parents may share children
                        cand = np.unique(cat)
                        z = cand[remaining[cand] == 0]
                        if z.size:
                            zr = rank_a[z].tolist()
                            if newly is None:
                                newly = zr
                            else:
                                newly.extend(zr)
            else:
                for c in batch:
                    if c >= n:  # release event: one virtual predecessor satisfied
                        i = c - n
                        m = remaining[i] - 1
                        remaining[i] = m
                        if not m:
                            if newly is None:
                                newly = [int(rank_a[i])]
                            else:
                                newly.append(int(rank_a[i]))
                        continue
                    i = c
                    if on_complete is not None:
                        retry = on_complete(order[i], now)
                        if retry is not None:
                            # re-run on the held allocation; nothing is released
                            push(heap, (now + retry, seq, i))
                            seq += 1
                            continue
                    freed = True
                    if packed:
                        av += dem_topo_l[i]
                    else:
                        av += dem_topo[i]
                    lo = ip[i]
                    hi = ip[i + 1]
                    if hi > lo:
                        tgt = si[lo:hi]
                        rem = remaining[tgt] - 1
                        remaining[tgt] = rem  # successors of one job are unique
                        z = tgt[rem == 0]
                        if z.size:
                            zr = rank_a[z].tolist()
                            if newly is None:
                                newly = zr
                            else:
                                newly.extend(zr)
            if freed:
                need_pass = True
            elif newly is not None:
                # Release-only batch: no old queue entry can have become
                # startable, so only the newly released jobs need a fit
                # test — in rank order, exactly where the full pass would
                # reach them (old entries being guaranteed misses).
                if len(newly) > 1:
                    newly.sort()
                leftovers = None
                for r in newly:
                    if packed:
                        a = dem_rank_l[r]
                        fits = (av - a) & H == H
                    else:
                        a = dem_rank[r]
                        fits = (a <= av).all()
                    if fits:
                        av -= a
                        i = topo_l[r]
                        t = dur[i]
                        push(heap, (now + t, seq, i))
                        seq += 1
                        if log:
                            log_i[ns] = i
                            log_t[ns] = now
                            ns += 1
                        else:
                            on_start(order[i], now, t)
                    elif leftovers is None:
                        leftovers = [r]
                    else:
                        leftovers.append(r)
                newly = leftovers
            if newly is not None:
                k = len(newly)
                if k == 1:
                    r = newly[0]
                    p = qb[:L].searchsorted(r)
                    qb[p + 1:L + 1] = qb[p:L]
                    qb[p] = r
                    pb[p + 1:L + 1] = pb[p:L]
                    pb[p] = dem_rank[r]
                    L += 1
                else:
                    nr = np.array(newly, dtype=np.int64)
                    nr.sort()
                    idx = qb[:L].searchsorted(nr) + np.arange(k)
                    mask = np.ones(L + k, dtype=bool)
                    mask[idx] = False
                    oq = sq[:L + k]
                    op = sp[:L + k]
                    oq[idx] = nr
                    op[idx] = dem_rank[nr]
                    oq[mask] = qb[:L]
                    op[mask] = pb[:L]
                    qb, sq = sq, qb
                    pb, sp = sp, pb
                    L += k

        # store the loop state back
        loop.av = av
        loop.seq = seq
        loop.qb = qb
        loop.pb = pb
        loop.sq = sq
        loop.sp = sp
        loop.L = L
        loop.now = now
        loop.done = done
        if log:
            loop.ns = ns
        return done
