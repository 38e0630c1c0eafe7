"""Unit tests for the array-native lowering (:mod:`repro.instance.compiled`).

The dispatch engine trusts this layer completely — release vectors, the
allocation matrix, rank stability, the packed-demand SWAR encoding and
the bounds rule on demand rows are each pinned here against the plain
python they lower (the DAG's own CSR layout is pinned in
``test_dag_graph.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.generators import erdos_renyi_dag, layered_random
from repro.instance.compiled import DemandLayout, compile_instance
from repro.instance.instance import make_instance, with_release_times
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector


def build(dag, d=2, capacity=8):
    pool = ResourcePool.uniform(d, capacity)
    return make_instance(dag, pool, lambda j: (lambda a: 1.0 + sum(a)))


@pytest.fixture(params=[0, 1, 2])
def dag(request):
    return erdos_renyi_dag(20, 0.25, seed=request.param)


class TestCompiledInstance:
    def test_release_vector(self, dag):
        inst = build(dag)
        releases = {j: float(i % 3) for i, j in enumerate(dag.topological_order())}
        online = with_release_times(inst, releases)
        ci = compile_instance(online)
        assert ci.has_releases
        for i, j in enumerate(ci.order):
            assert ci.release[i] == releases[j]
        assert not compile_instance(inst).has_releases

    def test_lowering_is_cached_and_reads_the_dag_in_place(self, dag):
        inst = build(dag)
        ci = compile_instance(inst)
        assert compile_instance(inst) is ci
        assert ci.dag is inst.dag is dag
        assert ci.order is dag.order and ci.index is dag.index and ci.n == len(dag)

    def test_alloc_matrix(self, dag):
        inst = build(dag, d=2)
        alloc = {j: ResourceVector((1 + i % 3, 2)) for i, j in enumerate(inst.jobs)}
        ci = compile_instance(inst)
        m = inst.validate_allocation_map(alloc)
        for i, j in enumerate(ci.order):
            assert tuple(m[i]) == tuple(alloc[j])


class TestRankPermutation:
    def test_ranks_are_the_key_then_index_sort(self, dag):
        """The stable argsort realizes ``sorted`` by ``(key, topological
        index)``, ties and all."""
        ci = compile_instance(build(dag))
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 4, size=ci.n).astype(np.float64)  # many ties
        rank_of, topo_of_rank = ci.rank_permutation(vals)
        assert topo_of_rank == sorted(range(ci.n), key=lambda i: (vals[i], i))
        assert np.array_equal(rank_of[topo_of_rank], np.arange(ci.n))

    def test_ties_break_by_topological_index(self, dag):
        ci = compile_instance(build(dag))
        rank_of, topo_of_rank = ci.rank_permutation(np.zeros(ci.n))
        assert topo_of_rank == list(range(ci.n))  # all-tie: pure topo order
        assert np.array_equal(rank_of, np.arange(ci.n))

    def test_rank_is_a_permutation(self, dag):
        ci = compile_instance(build(dag))
        rng = np.random.default_rng(3)
        rank_of, topo_of_rank = ci.rank_permutation(rng.random(ci.n))
        assert sorted(topo_of_rank) == list(range(ci.n))
        assert sorted(rank_of.tolist()) == list(range(ci.n))
        for i in range(ci.n):
            assert rank_of[topo_of_rank[i]] == i

    def test_array_shape_validated(self, dag):
        ci = compile_instance(build(dag))
        with pytest.raises(ValueError):
            ci.rank_permutation(np.zeros(ci.n + 1))
        with pytest.raises(ValueError):  # a mapping is not a key array
            ci.rank_permutation(dict(zip(ci.order, range(ci.n))))


#: ``(capacities, packable)`` either side of ``d * bits = 64``: four types
#: at 16-bit fields (one word) and at 17-bit ones (68 bits); twelve and
#: thirteen types at 5-bit fields (60 and 65 bits)
_SIDES = (
    ((2**15 - 1,) * 4, True),
    ((2**15,) * 4, False),
    ((12,) * 12, True),
    ((12,) * 13, False),
)


def _amount(cap):
    """An amount the bounds rule must judge: in range, ``0``, ``P``,
    ``P + 1``, negative, fractional or boolean."""
    return st.one_of(
        st.integers(0, cap),
        st.sampled_from((0, cap, cap + 1, -1, 0.5, cap - 0.5, True, False)),
    )


class TestDemandLayout:
    def test_packable_predicate(self):
        """``packable`` ⇔ ``d * bits <= 64``, a field being the widest
        capacity's bit length plus its headroom bit."""
        dag = layered_random(3, 4, p=0.5, seed=0)
        for d, capacity, bits in (
            (4, 2**15 - 1, 16),  # exactly one word
            (4, 2**15, 17),      # 68 bits
            (2, 2**15, 17),
            (5, 8, 5),
            (6, 24, 6),
            (12, 12, 5),         # 60 bits
            (13, 12, 5),         # 65 bits
            (1, 2**62, 64),
        ):
            layout = compile_instance(build(dag, d=d, capacity=capacity)).layout
            assert layout.bits == bits
            assert layout.packable == (d * bits <= 64)

    @settings(max_examples=60, deadline=None)
    @given(side=st.sampled_from(_SIDES), data=st.data())
    def test_images_are_the_shift_sum_and_unpack_inverts_them(self, side, data):
        """The one packer is the per-row shift-sum, from rows and from their
        int64 matrix alike — a ``uint64`` array on the word side, python ints
        on the wide side — and :meth:`unpack` gives every row back."""
        caps, packable = side
        layout = DemandLayout(caps)
        assert layout.packable == packable
        rows = data.draw(
            st.lists(st.tuples(*(st.integers(0, c) for c in caps)), max_size=6)
        )
        want = [sum(a << (layout.bits * r) for r, a in enumerate(row)) for row in rows]
        for given_rows in (rows, np.array(rows, dtype=np.int64).reshape(-1, len(caps))):
            images = layout.images(given_rows)
            if packable:
                assert isinstance(images, np.ndarray) and images.dtype == np.uint64
                images = images.tolist()
            assert images == want
        assert [layout.unpack(image) for image in want] == rows

    @settings(max_examples=100, deadline=None)
    @given(side=st.sampled_from(_SIDES), data=st.data())
    def test_matrix_form_agrees_with_the_row_form(self, side, data):
        """The whole-matrix form lowers a batch exactly when the per-row
        form accepts every row of it, to the same amounts: on ``0``, ``P``,
        ``P + 1``, negative, all-zero, fractional and boolean amounts."""
        caps, _ = side
        layout = DemandLayout(caps)
        row = st.one_of(
            st.tuples(*(_amount(c) for c in caps)), st.just((0,) * len(caps))
        )
        rows = data.draw(st.lists(row, min_size=1, max_size=5))
        lowered = []
        for j, r in enumerate(rows):
            try:
                lowered.append(list(layout.row(j, r)))
            except ValueError as exc:
                assert str(exc).startswith(f"job {j!r}: ")
                lowered = None
                break
        m = layout.matrix(rows)
        if lowered is None:
            assert m is None
        else:
            assert m is not None and m.dtype == np.int64 and m.tolist() == lowered

    def test_swar_test_equals_vector_dominance(self):
        layout = DemandLayout((24,) * 4)
        rng = np.random.default_rng(11)
        H = layout.fit_mask
        for _ in range(200):
            a = rng.integers(0, 25, size=4)
            av = rng.integers(0, 25, size=4)
            pa, pav = layout.images([a, av]).tolist()
            swar = ((pav + H) - pa) & H == H
            assert swar == bool((a <= av).all())
