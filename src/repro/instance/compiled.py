"""The compiled-instance layer: the array-native lowering of an instance.

The precedence structure already is arrays — a
:class:`~repro.dag.graph.DAG` is built once into its topological order, an
id → position index and CSR adjacency — so what is lowered here is per job
and per platform, over the DAG's positions:

* :class:`CompiledInstance` — the instance's DAG plus the per-job release
  vector, the allocation-matrix builder, the integer *rank* permutation
  that turns arbitrary priority keys into dense ints (heap/array queues
  then compare machine integers, not python tuples) and the packed demand
  images.  Cached on the :class:`~repro.instance.instance.Instance`.
* :class:`GrowableCompiledInstance` — the same lowering kept in
  append-only lists for an online session whose job set grows.

Everything here is exact: the topological order, tie-breaking and float
arithmetic reproduce the dict-based code paths bit for bit (the engine
equivalence tests hold the lowering to that).
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.resources.vector import ResourceVector

__all__ = [
    "CompiledInstance",
    "GrowableCompiledInstance",
    "compile_instance",
    "pack_layout",
    "whole_amounts",
]

JobId = Hashable


# ----------------------------------------------------------------------
# instance-level lowering
# ----------------------------------------------------------------------


def whole_amounts(demand) -> tuple[int, ...]:
    """The one lowering of a demand to integer amounts, wherever one enters
    (wire record, row validation, batch validation).

    An amount must *equal* its integer value: ``2``, ``2.0`` and numpy
    integers are two units; ``2.7``, ``"2"``, ``nan`` and ``inf`` raise
    ``ValueError`` instead of truncating — a job never runs on less than
    it asked for.  A boolean is not an amount, although ``True == 1``.
    """
    raw = tuple(demand)
    try:
        dem = tuple(map(int, raw))
    except OverflowError as exc:  # int(inf)
        raise ValueError(str(exc)) from None
    if dem != raw or any(isinstance(a, (bool, np.bool_)) for a in raw):
        raise ValueError(f"demand amounts must be whole numbers, got {list(raw)}")
    return dem


def _whole_row(job_id: JobId, row) -> tuple[int, ...]:
    try:
        return whole_amounts(row)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"job {job_id!r}: allocation {row!r}: {exc}") from None


def pack_layout(capacities) -> tuple[bool, int, int, int]:
    """``(packable, bits, fit_mask, packed_capacities)`` for a capacity vector.

    The single source of truth for the SWAR lowering shared by the batch
    (:class:`CompiledInstance`) and online (:class:`GrowableCompiledInstance`)
    engines — the two admission tests must agree bit for bit.  A field is
    as wide as the platform needs: ``bits`` is the widest capacity's bit
    length plus the headroom bit, on every platform.  ``packable`` says the
    ``d`` fields together fit a ``uint64`` (``d * bits <= 64``: four types
    below ``2**15``, six at capacity 24, twelve at capacity 12); a wider
    image only python ints can carry.
    """
    caps = [int(c) for c in capacities]
    d = len(caps)
    bits = max(caps, default=0).bit_length() + 1
    packable = d >= 1 and d * bits <= 64
    fit_mask = sum(1 << (bits * r + bits - 1) for r in range(d))
    packed = sum(c << (bits * r) for r, c in enumerate(caps))
    return packable, bits, fit_mask, packed


class CompiledInstance:
    """Array form of an :class:`~repro.instance.instance.Instance`.

    Reads the structure from the instance's ``dag`` and owns the per-job release
    vector; provides the per-run builders the dispatch drivers consume —
    allocation matrices, duration vectors, the integer rank permutation
    for priority keys and (when ``packable``) the ``uint64`` demand lowering.

    **Demand images.**  A whole demand vector is one integer: field ``r``
    occupies bits ``[bits * r, bits * (r + 1))`` with the top bit of each
    field kept clear, ``bits`` sized by the platform (:func:`pack_layout`).
    The dominance test ``a ⪯ av`` then becomes the classic borrow-free
    SWAR comparison::

        ((av + fit_mask) - a) & fit_mask == fit_mask

    where ``fit_mask`` carries the headroom bit of every field: field
    arithmetic cannot borrow across fields (``2**(bits-1) + av_r - a_r > 0``
    always), so each field's headroom bit survives the subtraction iff
    ``a_r <= av_r``.  One integer op replaces a ``d``-wide vector
    comparison on every platform; where ``packable`` (``d * bits <= 64``)
    the images also fit a ``uint64`` array, so a long ready queue is
    tested by a single 1-D vector op (:meth:`pack_demands`).
    """

    __slots__ = (
        "dag", "d", "capacities", "release", "has_releases",
        "packable", "bits", "fit_mask", "packed_capacities",
    )

    def __init__(self, instance) -> None:
        self.dag = instance.dag
        self.d = instance.d
        self.capacities = np.asarray(tuple(instance.pool.capacities), dtype=np.int64)
        self.release = np.array(
            [instance.jobs[j].release for j in self.dag.order], dtype=np.float64
        )
        self.has_releases = bool((self.release > 0.0).any())
        self.packable, self.bits, self.fit_mask, self.packed_capacities = (
            pack_layout(self.capacities)
        )

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
    def alloc_matrix(self, allocation: Mapping[JobId, Sequence[int]]) -> np.ndarray:
        """``(n, d)`` int64 allocation matrix in topological order.

        ``ValueError`` names the first job whose row is not ``d`` whole
        amounts: flattened, a short row would shift every later row, and
        the int64 lowering would truncate ``2.7`` to two units.  A
        :class:`~repro.resources.vector.ResourceVector` is whole by
        construction; any other row goes through :func:`whole_amounts`.
        """
        n, d = self.dag.n, self.d
        order = self.dag.order
        rows = list(map(allocation.__getitem__, order))
        if not {ResourceVector}.issuperset(map(type, rows)):
            rows = list(map(_whole_row, order, rows))
        if not {d}.issuperset(map(len, rows)):
            i = next(i for i, row in enumerate(rows) if len(row) != d)
            raise ValueError(
                f"job {order[i]!r}: allocation {tuple(rows[i])} has "
                f"{len(rows[i])} amounts for {d} resource types"
            )
        return np.fromiter(chain.from_iterable(rows), np.int64, n * d).reshape(n, d)

    def pack_demands(self, alloc_mat: np.ndarray) -> np.ndarray:
        """The demand image of every job as one ``uint64`` array (see
        class docstring).

        ``alloc_mat`` is the ``(n, d)`` matrix from :meth:`alloc_matrix`,
        already validated against the capacities (an amount above its
        capacity would carry into the neighbouring field); only valid when
        :attr:`packable`.
        """
        if not self.packable:
            raise ValueError(
                f"instance is not packable (d={self.d}, "
                f"max capacity {int(self.capacities.max(initial=0))})"
            )
        shifts = np.arange(self.d, dtype=np.uint64) * np.uint64(self.bits)
        return (alloc_mat.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)

    def rank_permutation(
        self, keys: "Mapping[JobId, object] | np.ndarray"
    ) -> tuple[np.ndarray, list[int]]:
        """Dense integer ranks realizing the ``(key, topological index)`` order.

        Returns ``(rank_of, topo_of_rank)``: ``rank_of[i]`` is the rank of
        topological index ``i`` and ``topo_of_rank[r]`` its inverse.  Ranks
        are a *total* order — ties in ``keys`` resolve by topological index
        (the sort is stable), exactly the historical ``insort`` key
        ``(keys[j], index[j])`` — so priority queues can carry bare ints.

        ``keys`` may be a mapping over job ids or a 1-D array aligned with
        the topological order (the fast path used by the vectorized
        priority rules; a stable argsort realizes the identical order).
        """
        n = self.dag.n
        if isinstance(keys, np.ndarray):
            if keys.shape != (n,):
                raise ValueError(
                    f"key array must have shape ({n},), got {keys.shape}"
                )
            topo_arr = np.argsort(keys, kind="stable")
            rank_of = np.empty(n, dtype=np.int64)
            rank_of[topo_arr] = np.arange(n, dtype=np.int64)
            return rank_of, topo_arr.tolist()
        order = self.dag.order
        topo_of_rank = sorted(range(n), key=lambda i: keys[order[i]])
        rank_of = np.empty(n, dtype=np.int64)
        rank_of[topo_of_rank] = np.arange(n, dtype=np.int64)
        return rank_of, topo_of_rank


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
    demand row on *every* platform, field ``r`` at bit ``bits * r`` with the
    field's top (headroom) bit clear, so the loop's admission test is
    always :class:`CompiledInstance`'s borrow-free comparison
    ``(avh - a) & fit_mask == fit_mask``.  ``bits`` is the widest
    capacity's bit length plus one (:func:`pack_layout`) — python ints do
    not overflow, whatever ``d * bits`` comes to.  ``packable``
    (``d * bits <= 64``) therefore says one thing only: the images may also
    be held in a ``uint64`` array (the loop's ready-queue column and its
    whole-queue vector pass).

    Invariants the session relies on:

    * jobs are appended in a valid topological order — every predecessor
      of a job must already have an index when the job is appended, so
      ``order`` *is* a topological order of the growing DAG and downstream
      tie-breaks key on positions in it, exactly like the batch lowering;
    * priority ``key`` values are totally ordered by ``(key, index)``;
      keys must be mutually comparable (the service protocol uses floats);
    * demand rows are validated against the capacities before they are
      appended (:meth:`validate_row`, or the session's whole-batch form of
      it), so the dispatch loop's admission test never sees an infeasible
      row and no field of an image can carry into its neighbour.

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
        "d", "capacities", "packable", "bits", "fit_mask", "packed_capacities",
        "order", "index", "succ", "preds", "ext_preds", "demand", "packed",
        "duration", "key", "release",
    )

    def __init__(self, capacities: Sequence[int]) -> None:
        caps = tuple(int(c) for c in capacities)
        if not caps or any(c <= 0 for c in caps):
            raise ValueError(f"capacities must be a positive vector, got {capacities!r}")
        self.d = len(caps)
        self.capacities = caps
        self.packable, self.bits, self.fit_mask, self.packed_capacities = (
            pack_layout(caps)
        )
        self.order: list[JobId] = []          # job ids, append (topological) order
        self.index: dict[JobId, int] = {}     # id -> topological index
        self.succ: list[list[int]] = []       # successor indices per job
        self.preds: list[tuple[int, ...]] = []  # predecessor indices per job
        self.ext_preds: list[tuple[JobId, ...]] = []  # satisfied preds dropped by compact()
        self.demand: list[tuple[int, ...]] = []
        self.packed: list[int] = []           # demand image, see pack()
        self.duration: list[float] = []
        self.key: list[object] = []           # priority key; order is (key, index)
        self.release: list[float] = []

    @property
    def n(self) -> int:
        return len(self.order)

    def pack(self, demand: Sequence[int]) -> int:
        """The python-int image of one per-type vector (class docstring)."""
        return sum(int(a) << (self.bits * r) for r, a in enumerate(demand))

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
        try:
            dem = whole_amounts(demand)
        except ValueError as exc:
            raise ValueError(f"job {job_id!r}: {exc}") from None
        if len(dem) != self.d:
            raise ValueError(
                f"job {job_id!r}: demand {dem} has dimension {len(dem)}, "
                f"platform has {self.d}"
            )
        if any(a < 0 for a in dem) or sum(dem) <= 0:
            raise ValueError(
                f"job {job_id!r}: demand {dem} must request at least one "
                "unit and no negative amounts"
            )
        if any(a > c for a, c in zip(dem, self.capacities)):
            raise ValueError(
                f"job {job_id!r}: demand {dem} exceeds capacities {self.capacities}"
            )
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
        method only extends the column lists in bulk and, where the images
        fit a ``uint64``, packs the demand matrix with one vectorized
        shift-and-sum instead of ``k`` python packs.  ``preds_idx`` rows
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
        if self.packable:
            dm = np.asarray(demands, dtype=np.uint64).reshape(k, self.d)
            shifts = np.arange(self.d, dtype=np.uint64) * np.uint64(self.bits)
            self.packed.extend((dm << shifts).sum(axis=1, dtype=np.uint64).tolist())
        else:
            self.packed.extend(map(self.pack, demands))
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
