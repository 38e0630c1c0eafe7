"""The ``numba`` dispatch backend: an njit-compiled packed kernel.

:func:`_packed_loop_kernel` is the whole hot loop of
:class:`~repro.engine.dispatch.PriorityLoop` under the packed demand
encoding — heap advance, SWAR feasibility scan, dispatch, time-point
batch application — written against plain arrays in nopython-compatible
python.  When :mod:`numba` is importable the function is
``@njit``-compiled on first use; when it is not, the backend reports
itself unavailable and
:func:`~repro.engine.backends.resolve_backend` falls back to the
``python`` backend (numba is an optional dependency, never required —
see the CI ``backend-numba`` job for the installed-path coverage).

Scope: the compiled path covers the **packed encoding** (``d <= 4``,
capacities below ``2**15``) without completion interception — exactly
the regime the large-n benchmarks measure.  Runs that need
``on_complete`` callbacks (fault re-execution, ``--follow`` streaming)
and loops on the matrix encoding delegate to the python backend through
the same ``run``; the schedules are identical either way, only the
executor differs.

The kernel is schedule-preserving by construction: the dispatch pass is
a single in-order compaction scan over the rank-sorted queue (admit
what fits as availability shrinks — the same greedy the vectorized
admit-then-refilter realizes), the event heap is a binary heap over
``(time, seq)`` (``seq`` is unique, so the third tuple field never
participates in ordering and the python ``heapq`` list can be copied in
verbatim), and batch application follows pop order.  ``on_start``
callbacks are replayed after the kernel returns, from the recorded
start log, in dispatch order — the loop never reads anything the
callbacks write, so replay is observationally identical.
"""

from __future__ import annotations

import gc

import numpy as np

from repro.engine.backends import get_backend, register_backend

__all__ = ["NumbaBackend"]

_numba_checked = False
_numba_available = False


def _check_numba() -> bool:
    global _numba_checked, _numba_available
    if not _numba_checked:
        _numba_checked = True
        try:  # pragma: no cover - exercised only where numba is installed
            import numba  # noqa: F401

            _numba_available = True
        except Exception:
            _numba_available = False
    return _numba_available


def _packed_loop_kernel(
    ht, hs, hc, hlen,          # heap: times f8, seqs i8, codes i8, live length
    seq, avh, H,               # event sequence i8, availability+headroom u8, mask u8
    qb, pb, L,                 # ready queue: ranks i8, packed demands u8, live length
    remaining,                 # i8[n] outstanding predecessor counts
    ip, si,                    # CSR successors i8
    dur, pk_topo, pk_rank,     # f8[n] by topo, u8[n] by topo, u8[n] by rank
    rank_a, topo_a,            # i8[n] topo->rank, i8[n] rank->topo
    now, eps, until, bounded,  # clock f8, batch horizon f8, stop bound f8 + flag
    out_i, out_t,              # start log: topo index i8[n], start time f8[n]
    nbuf,                      # i8[n] scratch for newly ready ranks
    ns0,                       # i8 start-log write offset (log mode resumes here)
):
    n = remaining.shape[0]
    ns = ns0
    done = False
    while True:
        # ---------------------- dispatch pass ----------------------
        # one compaction scan in rank order: admit what fits as
        # availability shrinks, keep the misses packed to the left
        if L > 0:
            w = 0
            for k in range(L):
                a = pb[k]
                if (avh - a) & H == H:
                    avh = avh - a
                    r = qb[k]
                    i = topo_a[r]
                    ft = now + dur[i]
                    # heap push (ft, seq, i): sift up on (time, seq)
                    hp = hlen
                    hlen += 1
                    while hp > 0:
                        par = (hp - 1) >> 1
                        if ht[par] < ft or (ht[par] == ft and hs[par] < seq):
                            break
                        ht[hp] = ht[par]
                        hs[hp] = hs[par]
                        hc[hp] = hc[par]
                        hp = par
                    ht[hp] = ft
                    hs[hp] = seq
                    hc[hp] = i
                    seq += 1
                    out_i[ns] = i
                    out_t[ns] = now
                    ns += 1
                else:
                    if w != k:
                        qb[w] = qb[k]
                        pb[w] = pb[k]
                    w += 1
            L = w
        if hlen == 0:
            done = True
            break
        if bounded and ht[0] > until:
            break
        # ----------------------- event batch -----------------------
        t0 = ht[0]
        now = t0
        horizon = t0 + eps
        nnew = 0
        while hlen > 0 and ht[0] <= horizon:
            c = hc[0]
            # heap pop: move the last entry down from the root
            hlen -= 1
            lt = ht[hlen]
            ls = hs[hlen]
            lc = hc[hlen]
            if hlen > 0:
                hp = 0
                while True:
                    ch = 2 * hp + 1
                    if ch >= hlen:
                        break
                    rc = ch + 1
                    if rc < hlen and (
                        ht[rc] < ht[ch] or (ht[rc] == ht[ch] and hs[rc] < hs[ch])
                    ):
                        ch = rc
                    if ht[ch] < lt or (ht[ch] == lt and hs[ch] < ls):
                        ht[hp] = ht[ch]
                        hs[hp] = hs[ch]
                        hc[hp] = hc[ch]
                        hp = ch
                    else:
                        break
                ht[hp] = lt
                hs[hp] = ls
                hc[hp] = lc
            if c >= n:  # release: one virtual predecessor satisfied
                i = c - n
                remaining[i] -= 1
                if remaining[i] == 0:
                    nbuf[nnew] = rank_a[i]
                    nnew += 1
            else:  # completion: free capacity, ripen successors
                i = c
                avh = avh + pk_topo[i]
                for e in range(ip[i], ip[i + 1]):
                    s = si[e]
                    remaining[s] -= 1
                    if remaining[s] == 0:
                        nbuf[nnew] = rank_a[s]
                        nnew += 1
        # merge the newly ready ranks into the sorted queue, from the back
        if nnew > 0:
            seg = nbuf[:nnew]
            seg.sort()
            src = L - 1
            dst = L + nnew - 1
            jj = nnew - 1
            while jj >= 0:
                r = seg[jj]
                while src >= 0 and qb[src] > r:
                    qb[dst] = qb[src]
                    pb[dst] = pb[src]
                    src -= 1
                    dst -= 1
                qb[dst] = r
                pb[dst] = pk_rank[r]
                dst -= 1
                jj -= 1
            L += nnew
    return ns, seq, avh, L, hlen, now, done


@register_backend("numba", description="njit-compiled packed kernel (d <= 4)")
class NumbaBackend:
    """Compiled executor for the packed encoding; python elsewhere.

    ``_jit=False`` runs the kernel uncompiled — slow, but it lets the
    test suite pin kernel/python identity on hosts without numba.
    """

    name = "numba"

    def __init__(self, *, _jit: bool = True) -> None:
        self._use_jit = _jit
        self._kernel = None

    def is_available(self) -> bool:
        return _check_numba() if self._use_jit else True

    def _compiled_kernel(self):
        if self._kernel is None:
            if self._use_jit:  # pragma: no cover - needs numba installed
                from numba import njit

                self._kernel = njit(cache=True, fastmath=False)(_packed_loop_kernel)
            else:
                self._kernel = _packed_loop_kernel
        return self._kernel

    def run(self, loop, until: "float | None" = None) -> bool:
        if (
            not loop.packed
            or loop.on_complete is not None
            or loop.n == 0
            or not self.is_available()
        ):
            # graceful fallback: the matrix encoding, interception hooks
            # (and trivial instances) stay on the python executor;
            # schedules are identical
            return get_backend("python").run(loop, until)
        # pause the collector like the python backend does: the start-log
        # replay allocates one placement record per started job, and each
        # allocation-triggered collection scans every live object of the
        # (possibly million-job) resident instance
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return self._run_kernel(loop, until)
        finally:
            if was_enabled:
                gc.enable()

    def _run_kernel(self, loop, until: "float | None" = None) -> bool:
        n = loop.n
        # the heap holds at most one completion per running job plus one
        # release per not-yet-released job
        cap = 2 * n + 4
        ht = np.empty(cap, dtype=np.float64)
        hs = np.empty(cap, dtype=np.int64)
        hc = np.empty(cap, dtype=np.int64)
        hlen = len(loop.heap)
        for k, (t, s, c) in enumerate(loop.heap):
            ht[k] = t
            hs[k] = s
            hc[k] = c
        dur_a, nbuf, out_i, out_t = loop.kernel_scratch()
        on_start = loop.on_start
        log = on_start is None  # array start-log mode: the kernel's native output
        ns, seq, avh, L, hlen, now, done = self._compiled_kernel()(
            ht, hs, hc, hlen,
            loop.seq, np.uint64(loop.av), loop.H_u,
            loop.qb, loop.pb, loop.L,
            loop.remaining, loop.ip, loop.si,
            dur_a, loop.dem_topo, loop.dem_rank,
            loop.rank_a, loop.topo_a,
            loop.now, loop.eps,
            0.0 if until is None else until, until is not None,
            out_i, out_t, nbuf,
            loop.ns if log else 0,
        )
        if log:
            loop.ns = int(ns)
        else:
            # replay the start log in dispatch order (the loop reads nothing
            # the callback writes, so post-hoc replay is observationally
            # identical to the inline call)
            order = loop.order
            dur = loop.dur
            for k in range(ns):
                i = int(out_i[k])
                on_start(order[i], float(out_t[k]), dur[i])
        loop.heap = [(float(ht[k]), int(hs[k]), int(hc[k])) for k in range(hlen)]
        loop.seq = int(seq)
        loop.av = int(avh)
        loop.L = int(L)
        loop.now = float(now)
        loop.done = bool(done)
        return loop.done
