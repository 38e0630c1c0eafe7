"""The compiled-instance layer: array-native lowering of DAGs and instances.

The schedulers' hot loops — readiness bookkeeping, feasibility tests,
priority queues, level sweeps — are pure structure: they never need the
hashable job ids, only *which* jobs relate to which.  This module lowers
that structure once into dense numpy arrays and caches the result, so every
run over the same instance reuses it:

* :class:`CompiledDAG` — topological order, id ↔ index maps, CSR successor
  and predecessor adjacency, in/out-degree vectors and (lazily) the
  longest-path level decomposition.  Cached on the :class:`~repro.dag.graph.DAG`
  itself and invalidated on mutation.
* :class:`CompiledInstance` — a :class:`CompiledDAG` plus the per-job release
  vector, allocation-matrix / duration-vector builders and the integer
  *rank* permutation that turns arbitrary priority keys into dense ints
  (heap/array queues then compare machine integers, not python tuples).
  Cached on the :class:`~repro.instance.instance.Instance`.
* level-batched array sweeps for the classic DAG quantities —
  :func:`node_levels_array`, :func:`bottom_levels_array`,
  :func:`top_levels_array` — each a single pass over the CSR arrays
  grouped by level (every edge crosses strictly downward in the level
  decomposition, so one vectorized segmented reduction per level suffices).

Everything here is exact: the topological order, tie-breaking and float
arithmetic reproduce the dict-based code paths bit for bit (the engine
equivalence tests hold the lowering to that).
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Mapping, Sequence

import numpy as np

__all__ = [
    "CompiledDAG",
    "CompiledInstance",
    "GrowableCompiledInstance",
    "compile_dag",
    "compile_instance",
    "node_levels_array",
    "bottom_levels_array",
    "top_levels_array",
    "critical_path_length_array",
    "pack_layout",
    "whole_amounts",
]

JobId = Hashable


class CompiledDAG:
    """Array-native form of a precedence DAG.

    Attributes
    ----------
    n:
        Number of nodes.
    order:
        The job ids in the graph's canonical topological order (exactly
        ``dag.topological_order()`` — all tie-breaking downstream keys on
        positions in this order).
    index:
        Mapping job id → position in ``order``.
    succ_indptr / succ_indices:
        CSR successor adjacency over topological indices: the successors of
        node ``i`` are ``succ_indices[succ_indptr[i]:succ_indptr[i+1]]``,
        listed in the same order as ``dag.successors(order[i])``.
    pred_indptr / pred_indices:
        The transposed (predecessor) adjacency, **built on first use**: the
        dispatch loops and the bottom-level sweep never read it, only the
        forward level sweeps do.  It is the stable sort of the successor
        CSR's edges by target — nothing here reads the ``DAG`` again, which
        may have mutated since — so the predecessors of a node are listed
        by *ascending topological index*, not in ``dag.predecessors``
        order; its readers (``np.maximum.reduceat`` sweeps) see a set.
    in_degree / out_degree:
        Per-node degree vectors (int64), both counted off the successor CSR.
    """

    __slots__ = (
        "n", "order", "index",
        "succ_indptr", "succ_indices", "_pred_csr",
        "in_degree", "out_degree",
        "_levels", "_level_groups", "_succ_lists",
        "_succ_gathers", "_pred_gathers",
    )

    def __init__(self, dag) -> None:
        order = dag.topological_order()
        n = len(order)
        index = {j: i for i, j in enumerate(order)}
        self.n = n
        self.order = order
        self.index = index

        self.succ_indptr, self.succ_indices = _csr(
            list(map(dag.successors, order)), index
        )
        self.in_degree = np.bincount(self.succ_indices, minlength=n)
        self.out_degree = np.diff(self.succ_indptr)
        self._pred_csr: tuple[np.ndarray, np.ndarray] | None = None
        self._levels: np.ndarray | None = None
        self._level_groups: list[np.ndarray] | None = None
        self._succ_lists: list[list[int]] | None = None
        self._succ_gathers: list[tuple] | None = None
        self._pred_gathers: list[tuple] | None = None

    # ------------------------------------------------------------------
    def _predecessors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(pred_indptr, pred_indices)``, transposed from the successor
        CSR the first time anyone asks (see the class docstring)."""
        if self._pred_csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(self.in_degree, out=indptr[1:])
            sources = np.repeat(np.arange(self.n, dtype=np.int64), self.out_degree)
            by_target = np.argsort(self.succ_indices, kind="stable")
            self._pred_csr = indptr, sources[by_target]
        return self._pred_csr

    @property
    def pred_indptr(self) -> np.ndarray:
        return self._predecessors()[0]

    @property
    def pred_indices(self) -> np.ndarray:
        return self._predecessors()[1]

    def successors_of(self, i: int) -> np.ndarray:
        """CSR slice of the successors of topological index ``i`` (a view)."""
        return self.succ_indices[self.succ_indptr[i]:self.succ_indptr[i + 1]]

    def predecessors_of(self, i: int) -> np.ndarray:
        """CSR slice of the predecessors of topological index ``i`` (a view)."""
        return self.pred_indices[self.pred_indptr[i]:self.pred_indptr[i + 1]]

    def succ_lists(self) -> list[list[int]]:
        """Successor adjacency as plain python int lists, one per node.

        The event loops decrement a handful of successor in-degrees per
        completion; for the typical fan-outs (tens of edges) a C-backed
        python loop over ints beats the fixed dispatch cost of the numpy
        CSR slice.  Built once per DAG, shared across runs.
        """
        if self._succ_lists is None:
            indptr = self.succ_indptr.tolist()
            flat = self.succ_indices.tolist()
            self._succ_lists = [
                flat[indptr[i]:indptr[i + 1]] for i in range(self.n)
            ]
        return self._succ_lists

    @property
    def levels(self) -> np.ndarray:
        """Longest-path level of every node (0 for sources); lazy, cached."""
        if self._levels is None:
            self._levels = node_levels_array(self)
        return self._levels

    def level_groups(self) -> list[np.ndarray]:
        """Topological indices grouped by level, ``groups[l]`` sorted ascending."""
        if self._level_groups is None:
            lv = self.levels
            if self.n == 0:
                self._level_groups = []
            else:
                srt = np.argsort(lv, kind="stable")
                bounds = np.searchsorted(lv[srt], np.arange(int(lv.max()) + 2))
                self._level_groups = [
                    srt[bounds[l]:bounds[l + 1]] for l in range(len(bounds) - 1)
                ]
        return self._level_groups

    def level_succ_gathers(self) -> list[tuple]:
        """Per-level ``(targets, seg_starts, sources)`` successor gathers.

        ``sources`` are the level's nodes with at least one successor and
        ``targets``/``seg_starts`` their concatenated adjacency ready for
        ``np.ufunc.reduceat`` — the structure-constant part of every
        level-batched sweep, built once per DAG.
        """
        if self._succ_gathers is None:
            self._succ_gathers = [
                self._gather(self.succ_indptr, self.succ_indices, nodes)
                for nodes in self.level_groups()
            ]
        return self._succ_gathers

    def level_pred_gathers(self) -> list[tuple]:
        """Per-level predecessor gathers (see :meth:`level_succ_gathers`)."""
        if self._pred_gathers is None:
            self._pred_gathers = [
                self._gather(self.pred_indptr, self.pred_indices, nodes)
                for nodes in self.level_groups()
            ]
        return self._pred_gathers

    @staticmethod
    def _gather(indptr, indices, nodes) -> tuple:
        targets, seg_starts, nz = _ragged_gather(indptr, indices, nodes)
        return targets, seg_starts, nodes[nz]


def _csr(adjacency: list, index: Mapping) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of per-node neighbour lists, ids mapped
    through ``index`` — lowered by whole-array calls, not a store per edge."""
    n = len(adjacency)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adjacency), np.int64, n), out=indptr[1:])
    indices = np.fromiter(
        map(index.__getitem__, chain.from_iterable(adjacency)),
        np.int64,
        int(indptr[-1]),
    )
    return indptr, indices


def compile_dag(dag) -> CompiledDAG:
    """Lower ``dag`` to its array form, cached on the DAG until it mutates."""
    cd = getattr(dag, "_compiled", None)
    if cd is None:
        cd = CompiledDAG(dag)
        dag._compiled = cd
    return cd


# ----------------------------------------------------------------------
# ragged adjacency gather: the workhorse of the level-batched sweeps
# ----------------------------------------------------------------------
def _ragged_gather(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated adjacency of ``nodes``.

    Returns ``(targets, seg_starts, nz)`` where ``nz`` masks the nodes with
    at least one neighbor, ``targets`` is their concatenated neighbor list
    and ``seg_starts`` the start offset of each nonempty segment inside it
    (ready for ``np.ufunc.reduceat``).
    """
    starts = indptr[nodes]
    lens = indptr[nodes + 1] - starts
    nz = lens > 0
    ln = lens[nz]
    if ln.size == 0:
        return np.empty(0, dtype=indices.dtype), np.empty(0, dtype=np.int64), nz
    seg_ends = np.cumsum(ln)
    seg_starts = seg_ends - ln
    total = int(seg_ends[-1])
    rep = np.repeat(np.arange(ln.size), ln)
    pos = np.arange(total) - seg_starts[rep]
    targets = indices[starts[nz][rep] + pos]
    return targets, seg_starts, nz


def node_levels_array(cdag: CompiledDAG) -> np.ndarray:
    """Longest-path level per node: 0 for sources, else 1 + max over preds.

    Computed by synchronous Kahn peeling: the round in which a node's
    in-degree reaches zero *is* its longest-path level.
    """
    n = cdag.n
    level = np.zeros(n, dtype=np.int64)
    if n == 0:
        return level
    cnt = cdag.in_degree.copy()
    frontier = np.flatnonzero(cnt == 0)
    seen = 0
    l = 0
    while frontier.size:
        level[frontier] = l
        seen += frontier.size
        targets, _, _ = _ragged_gather(cdag.succ_indptr, cdag.succ_indices, frontier)
        if targets.size == 0:
            break
        np.subtract.at(cnt, targets, 1)
        frontier = np.unique(targets[cnt[targets] == 0])
        l += 1
    if seen < n:  # pragma: no cover - compile_dag already validated acyclicity
        raise ValueError("precedence graph contains a cycle")
    return level


def bottom_levels_array(cdag: CompiledDAG, times: np.ndarray) -> np.ndarray:
    """``b(j) = t_j + max_{s ∈ succ(j)} b(s)`` for every node, one sweep.

    Every edge goes to a strictly deeper level, so sweeping levels deepest
    first makes each level a single segmented ``maximum.reduceat``.
    """
    b = np.asarray(times, dtype=np.float64).copy()
    for targets, seg_starts, src in reversed(cdag.level_succ_gathers()):
        if targets.size:
            seg_max = np.maximum.reduceat(b[targets], seg_starts)
            b[src] = times[src] + seg_max
    return b


def top_levels_array(cdag: CompiledDAG, times: np.ndarray) -> np.ndarray:
    """``top(j) = max_{p ∈ pred(j)} (top(p) + t_p)``, one forward sweep."""
    t = np.asarray(times, dtype=np.float64)
    tl = np.zeros(cdag.n, dtype=np.float64)
    for targets, seg_starts, src in cdag.level_pred_gathers()[1:]:
        if targets.size:
            seg_max = np.maximum.reduceat(tl[targets] + t[targets], seg_starts)
            tl[src] = seg_max
    return tl


def critical_path_length_array(cdag: CompiledDAG, times: np.ndarray) -> float:
    """``C(p)`` — the maximum bottom level (0.0 for an empty graph)."""
    if cdag.n == 0:
        return 0.0
    return float(bottom_levels_array(cdag, times).max())


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

    Owns the structural arrays (via ``cdag``) and the per-job release
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
        "cdag", "d", "capacities", "release", "has_releases",
        "packable", "bits", "fit_mask", "packed_capacities",
    )

    def __init__(self, instance) -> None:
        self.cdag = compile_dag(instance.dag)
        self.d = instance.d
        self.capacities = np.asarray(tuple(instance.pool.capacities), dtype=np.int64)
        self.release = np.array(
            [instance.jobs[j].release for j in self.cdag.order], dtype=np.float64
        )
        self.has_releases = bool((self.release > 0.0).any())
        self.packable, self.bits, self.fit_mask, self.packed_capacities = (
            pack_layout(self.capacities)
        )

    # convenience pass-throughs -----------------------------------------
    @property
    def n(self) -> int:
        return self.cdag.n

    @property
    def order(self) -> list[JobId]:
        return self.cdag.order

    @property
    def index(self) -> dict[JobId, int]:
        return self.cdag.index

    # per-run builders ---------------------------------------------------
    def alloc_matrix(self, allocation: Mapping[JobId, Sequence[int]]) -> np.ndarray:
        """``(n, d)`` int64 allocation matrix in topological order.

        ``ValueError`` names the first job whose row does not hold ``d``
        amounts: flattened, a short row would shift every later row.
        """
        n, d = self.cdag.n, self.d
        order = self.cdag.order
        lens = np.fromiter((len(allocation[j]) for j in order), dtype=np.int64, count=n)
        bad = np.flatnonzero(lens != d)
        if bad.size:
            j = order[int(bad[0])]
            raise ValueError(
                f"job {j!r}: allocation {tuple(allocation[j])} has "
                f"{len(allocation[j])} amounts for {d} resource types"
            )
        return np.fromiter(
            (a for j in order for a in allocation[j]),
            dtype=np.int64,
            count=n * d,
        ).reshape(n, d)

    def duration_vector(self, durations: Mapping[JobId, float]) -> np.ndarray:
        """Per-job durations as float64, topological order."""
        return np.fromiter(
            (durations[j] for j in self.cdag.order),
            dtype=np.float64,
            count=self.cdag.n,
        )

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
        n = self.cdag.n
        if isinstance(keys, np.ndarray):
            if keys.shape != (n,):
                raise ValueError(
                    f"key array must have shape ({n},), got {keys.shape}"
                )
            topo_arr = np.argsort(keys, kind="stable")
            rank_of = np.empty(n, dtype=np.int64)
            rank_of[topo_arr] = np.arange(n, dtype=np.int64)
            return rank_of, topo_arr.tolist()
        order = self.cdag.order
        topo_of_rank = sorted(range(n), key=lambda i: keys[order[i]])
        rank_of = np.empty(n, dtype=np.int64)
        rank_of[topo_of_rank] = np.arange(n, dtype=np.int64)
        return rank_of, topo_of_rank


def compile_instance(instance) -> CompiledInstance:
    """Lower ``instance`` once; cached on the instance (and its DAG)."""
    ci = instance._compiled
    # the DAG cache is authoritative: if the DAG mutated, recompile
    if ci is None or ci.cdag is not getattr(instance.dag, "_compiled", None):
        ci = CompiledInstance(instance)
        instance._compiled = ci
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
