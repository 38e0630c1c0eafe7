"""The compiled-instance layer: the array-native lowering of an instance.

The precedence structure already is arrays — a
:class:`~repro.dag.graph.DAG` is built once into its topological order, an
id → position index and CSR adjacency — so what is lowered here is per job
and per platform, over the DAG's positions:

* :class:`DemandLayout` — one platform's demand images (the one packer
  and its inverse) and the one bounds rule on demand rows, held by both
  lowerings below.
* :class:`Allocation` — one allocation decision of one instance, the
  value Algorithm 1 hands Algorithm 2: matrix, durations and mapping view.
* :class:`CompiledInstance` — the instance's DAG plus the per-job release
  vector, the platform's layout and the integer *rank* permutation that
  turns real-number priority keys into dense ints (heap/array queues then
  compare machine integers, not python floats).  Cached on the
  :class:`~repro.instance.instance.Instance`.

An online session's job set grows, so it is not lowered here: its rows —
the same per-job columns, appended as jobs are admitted — belong to the
loop that schedules them,
:class:`~repro.engine.dispatch.IncrementalPriorityLoop`, which packs their
demands with the same :class:`DemandLayout`.

Everything here is exact: the topological order, tie-breaking and float
arithmetic reproduce the dict-based code paths bit for bit (the engine
equivalence tests hold the lowering to that).
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.jobs.job import Job
from repro.jobs.vectorized import _TimeFunctions, exact_times
from repro.resources.vector import ResourceVector, whole_amounts

__all__ = [
    "Allocation",
    "CompiledInstance",
    "DemandLayout",
    "compile_instance",
    "priority_key",
]

JobId = Hashable

#: no int64 amount exceeds it: a capacity clipped to it compares the same
_INT64_MAX = np.iinfo(np.int64).max
#: the amount types the whole-matrix form lowers (to numpy a bool is an int)
_INT64_TYPES = frozenset((int, np.int64))
_trusted_vector = partial(tuple.__new__, ResourceVector)
_TIME_FN = attrgetter("time_fn")
_RELEASE = attrgetter("release")


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
        return m if self.accepts(m) else None

    def accepts(self, m: np.ndarray) -> bool:
        """The bounds rule over a ``(k, d)`` int64 matrix: every amount
        within ``0..P`` of its type, every row asking for at least one
        unit."""
        return bool(((0 <= m) & (m <= self._cap_array)).all() and m.any(axis=1).all())

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


class Allocation(MappingABC):
    """One allocation decision ``p`` of one instance: ``matrix``, its
    ``(n, d)`` int64 rows in topological order, accepted by the layout's
    bounds rule, and ``durations``, ``instance.time`` of each row, bit for
    bit, computed once, on first use, in one of two batches.  On an instance
    with a candidate table, every job whose time function has an exact array
    form goes through :func:`~repro.jobs.vectorized.exact_times` (the
    table's own kernel, over the time functions the table lowered).  On an
    instance with no table (opaque callables: the rigid case), every job's
    ``time_fn`` is called on its row in one C-level pass, once each —
    ``Job.time``'s arithmetic without its per-job call.  Every value a batch
    finds non-positive or non-finite (NaN), and every job the table cannot
    evaluate, is asked of ``instance.time``, which raises its refusal
    naming the job.  An instance or a job class that overrides ``time``,
    and a pass in which a call raises, go job by job through
    ``instance.time``, so the first refusal in topological order is the one
    raised.  To everything else it is the read-only
    ``Mapping[JobId, ResourceVector]`` it stands for, in topological order;
    its vectors are built on the first mapping read.  :meth:`lower` is the
    one way a mapping becomes one; there is no public constructor
    (``Allocation(...)`` is a ``TypeError``), so every value's matrix passed
    the bounds rule."""

    __slots__ = ("instance", "matrix", "_vectors", "_durations")

    @classmethod
    def _of(cls, instance, matrix: np.ndarray, vectors: "list | None" = None) -> "Allocation":
        """The value over ``matrix``, unchecked: only for a matrix the bounds
        rule accepted (:meth:`lower`, :func:`repro.core.dtct.dtct_allocate`)
        or an elementwise cap of one
        (:func:`repro.core.adjustment.adjust_allocation`)."""
        self = object.__new__(cls)
        self.instance = instance
        self.matrix = matrix
        matrix.flags.writeable = False  # the vectors and durations are its
        self._vectors = vectors
        self._durations = None
        return self

    @classmethod
    def lower(cls, instance, allocation: Mapping) -> "Allocation":
        """``allocation`` itself if it is a value of ``instance``, else
        lowered once (a value of another instance too: the durations are
        this instance's).  The bounds rule's whole-matrix form goes first;
        if it declines, the per-row form lowers other whole amounts or
        raises a ``ValueError`` naming the first job it refuses."""
        if isinstance(allocation, Allocation) and allocation.instance is instance:
            return allocation
        ci = instance.compiled()
        layout, order = ci.layout, ci.order
        try:
            rows = list(map(allocation.__getitem__, order))
        except KeyError as exc:
            raise ValueError(f"allocation missing job {exc.args[0]!r}") from None
        m = layout.matrix(rows)
        if m is None:
            m = layout.matrix(list(map(layout.row, order, rows)))
        return cls._of(instance, m, rows if {ResourceVector}.issuperset(map(type, rows)) else None)

    def _rows(self) -> list:
        """The vectors, by topological index; built on first use."""
        if self._vectors is None:
            # the rows are whole and non-negative: the vectors are built unchecked
            self._vectors = list(map(_trusted_vector, self.matrix.tolist()))
        return self._vectors

    @property
    def durations(self) -> np.ndarray:
        """``t_j(p_j)`` by topological index (read-only float64)."""
        if self._durations is None:
            instance = self.instance
            order, fns = instance.dag.order, _lowered_time_functions(instance)
            if fns is None:
                times = _one_pass_times(instance, order, self._rows())
            else:
                times = exact_times(fns, self.matrix)
            if times is None:
                times = np.fromiter(map(instance.time, order, self._rows()), np.float64, len(order))
            else:
                redo = np.flatnonzero(~((times > 0.0) & (times < np.inf))).tolist()
                if redo:
                    rows = self._rows()
                    times[redo] = [instance.time(order[k], rows[k]) for k in redo]
            times.flags.writeable = False
            self._durations = times
        return self._durations

    def __getitem__(self, job) -> ResourceVector:
        return self._rows()[self.instance.dag.index[job]]

    def __iter__(self) -> Iterator[JobId]:
        return iter(self.instance.dag.order)

    def __len__(self) -> int:
        return len(self.matrix)

    def __repr__(self) -> str:
        return f"Allocation({dict(self)!r})"


def _apply(fn, row):
    return fn(row)


def _one_pass_times(instance, order: list, rows: list) -> "np.ndarray | None":
    """Every job's ``float(time_fn(row))`` in one C-level pass, unchecked
    (the caller asks ``instance.time`` for every value that is not
    positive and finite, which refuses by name).  ``None`` — ask
    ``instance.time`` job by job — when the instance or a job's class
    overrides ``time``, or when a call raises: the per-job path then
    raises the first refusal in topological order, a bad value before a
    later job's exception."""
    from repro.instance.instance import Instance  # which imports this module

    jobs = list(map(instance.jobs.__getitem__, order))
    if type(instance).time is not Instance.time or any(
        getattr(cls, "time", None) is not Job.time for cls in set(map(type, jobs))
    ):
        return None
    try:
        return np.fromiter(
            map(float, map(_apply, map(_TIME_FN, jobs), rows)), np.float64, len(jobs)
        )
    except Exception:
        return None


def _lowered_time_functions(instance) -> "_TimeFunctions | None":
    """The time functions of ``instance``'s jobs as one of its cached
    candidate tables lowered them, permuted to topological order; ``None``
    if no table of it has been built (then there is nothing to reuse)."""
    for table in instance._candidate_cache.values():
        if table.time_functions is not None:
            return table.time_functions.take(table.positions(instance.dag.order))
    return None


# ----------------------------------------------------------------------
# instance-level lowering
# ----------------------------------------------------------------------


class CompiledInstance:
    """Array form of an :class:`~repro.instance.instance.Instance`.

    Reads the structure from the instance's ``dag`` and owns the per-job
    release vector and the platform's :class:`DemandLayout`; provides the
    integer rank permutation the dispatch drivers consume for priority
    keys.  The allocation matrix is :class:`Allocation`'s.
    """

    __slots__ = ("dag", "layout", "release", "has_releases")

    def __init__(self, instance) -> None:
        self.dag = instance.dag
        self.layout = DemandLayout(instance.pool.capacities)
        self.release = np.fromiter(
            map(_RELEASE, map(instance.jobs.__getitem__, self.dag.order)),
            np.float64, self.dag.n,
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
