"""The compiled-instance layer: the array-native lowering of an instance.

The precedence structure already is arrays — a
:class:`~repro.dag.graph.DAG` is built once into its topological order, an
id → position index and CSR adjacency — so what is lowered here is per job
and per platform, over the DAG's positions:

* :class:`DemandLayout` — one platform's demand images (the one packer
  and its inverse) and the one bounds rule on demand rows, held by both
  lowerings below.
* :class:`CompiledInstance` — the instance's DAG plus the per-job release
  vector, the platform's layout and the integer *rank* permutation that
  turns real-number priority keys into dense ints (heap/array queues then
  compare machine integers, not python floats).  Cached on the
  :class:`~repro.instance.instance.Instance`.
* :class:`GrowableCompiledInstance` — the same lowering kept in
  append-only lists for an online session whose job set grows.

Everything here is exact: the topological order, tie-breaking and float
arithmetic reproduce the dict-based code paths bit for bit (the engine
equivalence tests hold the lowering to that).
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Sequence

import numpy as np

from repro.resources.vector import ResourceVector, whole_amounts

__all__ = [
    "CompiledInstance",
    "DemandLayout",
    "GrowableCompiledInstance",
    "compile_instance",
    "priority_key",
]

JobId = Hashable

#: no int64 amount exceeds it: a capacity clipped to it compares the same
_INT64_MAX = np.iinfo(np.int64).max
#: the amount types the whole-matrix form lowers (to numpy a bool is an int)
_INT64_TYPES = frozenset((int, np.int64))


# ----------------------------------------------------------------------
# the two inputs of Phase 2: priority keys and demand rows
# ----------------------------------------------------------------------


def priority_key(job_id: JobId, key):
    """The one rule for a priority key (a submitted job's ``key``,
    :func:`~repro.core.list_scheduler.explicit_priority`'s): an ``int`` or
    ``float``, not a ``bool``, not NaN (it breaks the ``(key, index)``
    total order) and exactly a float64.  Returns ``key`` as given;
    ``ValueError`` names the job otherwise."""
    if isinstance(key, bool) or not isinstance(key, (int, float)) or key != key:
        raise ValueError(f"job {job_id!r}: priority key must be numeric")
    try:
        exact = float(key) == key
    except OverflowError:  # an int past the float64 range
        exact = False
    if not exact:
        raise ValueError(
            f"job {job_id!r}: priority key {key!r} is not exactly "
            "representable as float64 (the checkpoint and ready-queue "
            "image type)"
        )
    return key


class DemandLayout:
    """One platform's demand images, and the bounds rule on demand rows.

    **Images.**  A whole demand vector is one integer: field ``r`` occupies
    bits ``[bits * r, bits * (r + 1))`` with the top bit of each field kept
    clear.  A field is as wide as the platform needs: ``bits`` is the widest
    capacity's bit length plus that headroom bit.  The dominance test
    ``a ⪯ av`` then becomes the classic borrow-free SWAR comparison::

        ((av + fit_mask) - a) & fit_mask == fit_mask

    where ``fit_mask`` carries the headroom bit of every field: field
    arithmetic cannot borrow across fields (``2**(bits-1) + av_r - a_r > 0``
    always), so each field's headroom bit survives the subtraction iff
    ``a_r <= av_r``.  One integer op replaces a ``d``-wide vector comparison
    on every platform.  ``packable`` says the ``d`` fields together fit a
    ``uint64`` (``d * bits <= 64``: four types below ``2**15``, six at
    capacity 24, twelve at capacity 12); then :meth:`images` packs into a
    ``uint64`` array, so a long ready queue is tested by a single 1-D vector
    op.  A wider image only python ints can carry.  The batch and the
    session loop read one layout, so their admission tests agree bit for
    bit.

    **Bounds.**  A demand row is ``d`` whole amounts (:func:`whole_amounts`),
    each within ``0..P`` of its type, at least one unit in all — the rule
    batch validation, session admission and checkpoint restore share, for
    live and archived rows alike.  An amount above its capacity would carry
    into the neighbouring field of the image, a negative one borrow from
    it, so images are packed only from rows the rule accepted.  It has two
    forms: :meth:`matrix`, which lowers a whole batch of int rows at once
    or declines it, and :meth:`row`, which lowers one row or refuses it by
    job.
    """

    __slots__ = (
        "d", "capacities", "_cap_array", "bits", "packable", "fit_mask",
        "packed_capacities", "_shifts",
    )

    def __init__(self, capacities: Sequence[int]) -> None:
        caps = tuple(int(c) for c in capacities)
        d = len(caps)
        bits = max(caps, default=0).bit_length() + 1
        self.d = d
        self.capacities = caps
        self._cap_array = np.array([min(c, _INT64_MAX) for c in caps], dtype=np.int64)
        self.bits = bits
        self.packable = d >= 1 and d * bits <= 64
        self.fit_mask = sum(1 << (bits * r + bits - 1) for r in range(d))
        self.packed_capacities = sum(c << (bits * r) for r, c in enumerate(caps))
        self._shifts = np.arange(d, dtype=np.uint64) * np.uint64(bits)

    def images(self, rows) -> "np.ndarray | list[int]":
        """The image of every row of ``rows`` — a ``(k, d)`` matrix or ``k``
        sequences of ``d`` amounts, each accepted by the bounds rule: a
        ``uint64`` array where :attr:`packable`, python ints otherwise."""
        if self.packable:
            m = np.asarray(rows, dtype=np.uint64).reshape(-1, self.d)
            return (m << self._shifts).sum(axis=1, dtype=np.uint64)
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        shifts = range(0, self.d * self.bits, self.bits)
        return [sum(a << s for a, s in zip(row, shifts)) for row in rows]

    def unpack(self, image: int) -> tuple[int, ...]:
        """The ``d`` amounts of one image (a python int)."""
        field = (1 << self.bits) - 1
        return tuple((image >> (self.bits * r)) & field for r in range(self.d))

    def matrix(self, rows: Sequence) -> "np.ndarray | None":
        """The bounds rule over ``k`` rows at once: their ``(k, d)`` int64
        matrix when every row is ``d`` python or numpy int64 amounts within
        ``0..P`` of its type asking for at least one unit, ``None``
        otherwise — then :meth:`row`, which also lowers other whole amounts
        (``2.0``), accepts the rows or names the first job that breaks the
        rule."""
        k, d = len(rows), self.d
        try:
            if not {d}.issuperset(map(len, rows)) or not (
                {ResourceVector}.issuperset(map(type, rows))  # ints by construction
                or _INT64_TYPES.issuperset(map(type, chain.from_iterable(rows)))
            ):
                return None
            m = np.fromiter(chain.from_iterable(rows), np.int64, k * d).reshape(k, d)
        except (TypeError, OverflowError):  # a row with no len; past int64
            return None
        if ((0 <= m) & (m <= self._cap_array)).all() and m.any(axis=1).all():
            return m
        return None

    def row(self, job_id: JobId, amounts) -> tuple[int, ...]:
        """The bounds rule on one row: ``amounts`` lowered by
        :func:`whole_amounts` and returned, or a ``ValueError`` naming the
        job and the clause the row breaks."""
        try:
            dem = whole_amounts(amounts)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"job {job_id!r}: demand {amounts!r}: {exc}") from None
        if len(dem) != self.d:
            problem = f"has {len(dem)} amounts for {self.d} resource types"
        elif any(a < 0 for a in dem):
            problem = "has a negative amount (amounts must be non-negative)"
        elif any(a > c for a, c in zip(dem, self.capacities)):
            problem = f"exceeds capacities {self.capacities}"
        elif not any(dem):
            problem = "must request at least one unit"
        else:
            return dem
        raise ValueError(f"job {job_id!r}: demand {dem} {problem}")


# ----------------------------------------------------------------------
# instance-level lowering
# ----------------------------------------------------------------------


class CompiledInstance:
    """Array form of an :class:`~repro.instance.instance.Instance`.

    Reads the structure from the instance's ``dag`` and owns the per-job
    release vector and the platform's :class:`DemandLayout`; provides the
    integer rank permutation the dispatch drivers consume for priority
    keys.  The allocation matrix is
    :meth:`~repro.instance.instance.Instance.validate_allocation_map`'s.
    """

    __slots__ = ("dag", "layout", "release", "has_releases")

    def __init__(self, instance) -> None:
        self.dag = instance.dag
        self.layout = DemandLayout(instance.pool.capacities)
        self.release = np.array(
            [instance.jobs[j].release for j in self.dag.order], dtype=np.float64
        )
        self.has_releases = bool((self.release > 0.0).any())

    # convenience pass-throughs -----------------------------------------
    @property
    def n(self) -> int:
        return self.dag.n

    @property
    def order(self) -> list[JobId]:
        return self.dag.order

    @property
    def index(self) -> dict[JobId, int]:
        return self.dag.index

    # per-run builders ---------------------------------------------------
    def rank_permutation(self, keys: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Dense integer ranks realizing the ``(key, topological index)`` order.

        ``keys`` is a 1-D array of real-number keys aligned with the
        topological order (a :data:`~repro.core.list_scheduler.PriorityRule`'s
        output).  Returns ``(rank_of, topo_of_rank)``: ``rank_of[i]`` is the
        rank of topological index ``i`` and ``topo_of_rank[r]`` its inverse.
        Ranks are a *total* order — ties in ``keys`` resolve by topological
        index (the argsort is stable) — so priority queues can carry bare
        ints.
        """
        n = self.dag.n
        keys = np.asarray(keys)
        if keys.shape != (n,):
            raise ValueError(f"key array must have shape ({n},), got {keys.shape}")
        topo_arr = np.argsort(keys, kind="stable")
        rank_of = np.empty(n, dtype=np.int64)
        rank_of[topo_arr] = np.arange(n, dtype=np.int64)
        return rank_of, topo_arr.tolist()


def compile_instance(instance) -> CompiledInstance:
    """Lower ``instance`` once; cached on the instance."""
    ci = instance._compiled
    if ci is None:
        ci = instance._compiled = CompiledInstance(instance)
    return ci


# ----------------------------------------------------------------------
# growable lowering (online sessions)
# ----------------------------------------------------------------------


class GrowableCompiledInstance:
    """Append-only array form of an instance that grows while scheduling.

    :class:`CompiledInstance` lowers a *frozen* job set once; an online
    session admits jobs continuously, so recompiling per submission would
    be O(n) per job.  This class keeps the same lowering — topological
    order, successor adjacency, per-job demand / duration / release rows —
    in append-only python lists: :meth:`append_batch` is O(1 + in-degree)
    per row and never touches existing rows.

    **One demand encoding.**  ``packed[i]`` is a python-int image of the
    demand row on *every* platform, in the platform's :class:`DemandLayout`
    (:attr:`layout`, the batch lowering's), so the loop's admission test is
    always the borrow-free comparison ``(avh - a) & fit_mask == fit_mask``
    — python ints do not overflow, whatever ``d * bits`` comes to.
    ``layout.packable`` (``d * bits <= 64``) therefore says one thing only:
    the images may also be held in a ``uint64`` array (the loop's
    ready-queue column and its whole-queue vector pass).

    Invariants the session relies on:

    * jobs are appended in a valid topological order — every predecessor
      of a job must already have an index when the job is appended, so
      ``order`` *is* a topological order of the growing DAG and downstream
      tie-breaks key on positions in it, exactly like the batch lowering;
    * priority ``key`` values are totally ordered by ``(key, index)``;
      keys must be mutually comparable (the service protocol uses floats);
    * demand rows pass the layout's bounds rule before they are appended
      (:meth:`validate_row`, the session's whole-batch form of it, or
      checkpoint restore), so the dispatch loop's admission test never
      sees an infeasible row and no field of an image can carry into its
      neighbour.

    **Compaction.**  Long-lived sessions accumulate rows for jobs that are
    finished or cancelled; :meth:`compact` rebuilds the contiguous layout
    over a surviving subset, preserving relative order (so the ``(key,
    index)`` total order over survivors is unchanged) and returning the
    old→new index mapping for the owner to remap its own structures.
    Predecessors that were dropped are recorded by *id* in
    :attr:`ext_preds` — they were satisfied before being dropped, so the
    surviving row owes them no readiness bookkeeping, only provenance.
    """

    __slots__ = (
        "layout", "order", "index", "succ", "preds", "ext_preds", "demand",
        "packed", "duration", "key", "release",
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
        self.layout = DemandLayout(caps)
        self.order: list[JobId] = []          # job ids, append (topological) order
        self.index: dict[JobId, int] = {}     # id -> topological index
        self.succ: list[list[int]] = []       # successor indices per job
        self.preds: list[tuple[int, ...]] = []  # predecessor indices per job
        self.ext_preds: list[tuple[JobId, ...]] = []  # satisfied preds dropped by compact()
        self.demand: list[tuple[int, ...]] = []
        self.packed: list[int] = []           # demand image, see layout.images
        self.duration: list[float] = []
        self.key: list[object] = []           # priority key; order is (key, index)
        self.release: list[float] = []

    @property
    def n(self) -> int:
        return len(self.order)

    def validate_row(
        self,
        job_id: JobId,
        demand: Sequence[int],
        duration: float,
        release: float = 0.0,
    ) -> tuple[int, ...]:
        """Check one prospective row without appending it; returns the
        normalized demand tuple.  Lets callers validate a whole batch
        before admitting any of it (all-or-nothing submission)."""
        if job_id in self.index:
            raise ValueError(f"job {job_id!r} was already submitted")
        dem = self.layout.row(job_id, demand)
        duration = float(duration)
        if not duration > 0.0 or duration != duration or duration == float("inf"):
            raise ValueError(
                f"job {job_id!r}: duration must be positive and finite, got {duration}"
            )
        release = float(release)
        if not 0.0 <= release < float("inf"):
            raise ValueError(
                f"job {job_id!r}: release must be finite and >= 0, got {release}"
            )
        return dem

    def append_batch(
        self,
        ids: Sequence[JobId],
        preds_idx: Sequence[tuple[int, ...]],
        demands: Sequence[tuple[int, ...]],
        durations: Sequence[float],
        keys: Sequence[object],
        releases: Sequence[float],
        ext_preds: "Sequence[tuple[JobId, ...]] | None" = None,
    ) -> int:
        """Append a pre-validated batch of rows in one shot; returns the
        first new index.

        The batch-lowering fast path: the caller (the session's ``submit``
        or the checkpoint restorer) has already validated every row — this
        method only extends the column lists in bulk and packs the demand
        rows with one :meth:`DemandLayout.images` call (one vectorized
        shift-and-sum where the images fit a ``uint64``).  ``preds_idx`` rows
        may reference earlier rows of the same batch (indices are
        absolute), and double as the successor wiring source — callers
        that already know a dependency is satisfied pass it through
        ``ext_preds`` by id instead, keeping the wiring loop proportional
        to the dependencies that can still fire.
        """
        k = len(ids)
        if k == 0:
            return len(self.order)
        base = len(self.order)
        self.order.extend(ids)
        index = self.index
        for off, jid in enumerate(ids):
            index[jid] = base + off
        succ = self.succ
        succ.extend([] for _ in range(k))
        self.preds.extend(preds_idx)
        self.ext_preds.extend(
            ext_preds if ext_preds is not None else ((),) * k
        )
        self.demand.extend(demands)
        images = self.layout.images(demands)
        self.packed.extend(images.tolist() if self.layout.packable else images)
        self.duration.extend(durations)
        self.key.extend(keys)
        self.release.extend(releases)
        for off, pt in enumerate(preds_idx):
            if pt:
                i = base + off
                for p in pt:
                    succ[p].append(i)
        return base

    def compact(self, keep: Sequence[int]) -> np.ndarray:
        """Rebuild the contiguous layout over the surviving rows ``keep``.

        ``keep`` must be strictly increasing (relative order — and with it
        the ``(key, index)`` total order over survivors — is preserved).
        Dropped predecessors of a surviving row move into its
        :attr:`ext_preds` by id; dropped successors simply disappear.
        Returns the old→new index map as an int64 array with ``-1`` for
        dropped rows, so owners (the incremental loop, the session) can
        remap their parallel state.
        """
        n = len(self.order)
        old2new = np.full(n, -1, dtype=np.int64)
        old2new[np.asarray(keep, dtype=np.int64)] = np.arange(len(keep))
        o2n = old2new.tolist()
        old_order = self.order
        self.order = [old_order[i] for i in keep]
        self.index = {j: k for k, j in enumerate(self.order)}
        new_preds: list[tuple[int, ...]] = []
        new_ext: list[tuple[JobId, ...]] = []
        for i in keep:
            surv = tuple(o2n[p] for p in self.preds[i] if o2n[p] >= 0)
            dropped = tuple(old_order[p] for p in self.preds[i] if o2n[p] < 0)
            new_preds.append(surv)
            new_ext.append(self.ext_preds[i] + dropped)
        self.preds = new_preds
        self.ext_preds = new_ext
        succ: list[list[int]] = [[] for _ in range(len(keep))]
        for i, pt in enumerate(new_preds):
            for p in pt:
                succ[p].append(i)
        self.succ = succ
        self.demand = [self.demand[i] for i in keep]
        self.packed = [self.packed[i] for i in keep]
        self.duration = [self.duration[i] for i in keep]
        self.key = [self.key[i] for i in keep]
        self.release = [self.release[i] for i in keep]
        return old2new
