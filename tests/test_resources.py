"""Tests for the resource model: vectors, dominance, pools."""

import math

import pytest
from hypothesis import given, strategies as st

from helpers import _max_ratio_over, _strictly_dominated_by, iter_allocation_grid
from repro.resources.pool import ResourcePool
from repro.resources.vector import ResourceVector

vectors = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=5)


class TestResourceVector:
    def test_is_tuple(self):
        v = ResourceVector((1, 2, 3))
        assert isinstance(v, tuple)
        assert v == (1, 2, 3)
        assert hash(v) == hash((1, 2, 3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceVector((1, -1))

    def test_coerces_to_int(self):
        assert ResourceVector((1.0, 2.0)) == (1, 2)

    def test_zeros_ones_unit(self):
        assert ResourceVector.zeros(3) == (0, 0, 0)
        assert ResourceVector.ones(3) == (1, 1, 1)
        assert ResourceVector.unit(3, 1, amount=5) == (0, 5, 0)

    def test_unit_out_of_range(self):
        with pytest.raises(ValueError):
            ResourceVector.unit(2, 2)

    def test_d_and_is_zero(self):
        assert ResourceVector((0, 0)).is_zero()
        assert not ResourceVector((0, 1)).is_zero()
        assert ResourceVector((1, 2, 3)).d == 3

    def test_dominance(self):
        a = ResourceVector((1, 2))
        b = ResourceVector((2, 2))
        assert a.dominated_by(b)
        assert b.dominates(a)
        assert not b.dominated_by(a)
        assert _strictly_dominated_by(a, b)
        assert not _strictly_dominated_by(a, a)
        assert a.dominated_by(a)

    def test_dominance_incomparable(self):
        a = ResourceVector((1, 3))
        b = ResourceVector((3, 1))
        assert not a.dominated_by(b)
        assert not b.dominated_by(a)

    def test_add_sub(self):
        a = ResourceVector((3, 4))
        b = ResourceVector((1, 2))
        assert a.add(b) == (4, 6)
        assert a.sub(b) == (2, 2)
        with pytest.raises(ValueError):
            b.sub(a)

    def test_cap(self):
        assert ResourceVector((5, 1)).cap(ResourceVector((3, 3))) == (3, 1)

    def test_max_ratio_over(self):
        q = ResourceVector((4, 2))
        p = ResourceVector((2, 2))
        assert _max_ratio_over(q, p) == pytest.approx(2.0)
        assert _max_ratio_over(ResourceVector((0, 2)), ResourceVector((0, 1))) == pytest.approx(2.0)
        assert _max_ratio_over(ResourceVector((1, 0)), ResourceVector((0, 1))) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ResourceVector((1,)).add(ResourceVector((1, 2)))

    @given(vectors)
    def test_dominance_reflexive(self, amounts):
        v = ResourceVector(amounts)
        assert v.dominated_by(v)

    @given(vectors, st.data())
    def test_dominance_antisymmetric(self, amounts, data):
        a = ResourceVector(amounts)
        b = ResourceVector(data.draw(st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=len(amounts), max_size=len(amounts))))
        if a.dominated_by(b) and b.dominated_by(a):
            assert a == b

    @given(vectors)
    def test_add_sub_roundtrip(self, amounts):
        a = ResourceVector(amounts)
        b = ResourceVector([x + 1 for x in amounts])
        assert b.sub(a).add(a) == b

    def test_iter_allocation_grid(self):
        grid = list(iter_allocation_grid(ResourceVector((2, 3))))
        assert len(grid) == 6
        assert ResourceVector((1, 1)) in grid
        assert ResourceVector((2, 3)) in grid
        assert len(set(grid)) == 6


class TestResourcePool:
    def test_basic(self):
        pool = ResourcePool.of(4, 8, names=("cores", "mem"))
        assert pool.d == 2
        assert pool.p_min == 4
        assert pool.names == ("cores", "mem")

    def test_default_names(self):
        assert ResourcePool.uniform(3, 5).names == ("type0", "type1", "type2")

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ResourcePool.of(4, 0)

    @pytest.mark.parametrize("build", [
        lambda: ResourcePool.uniform(0, 16),
        lambda: ResourcePool.of(),
        lambda: ResourcePool(ResourceVector(())),
    ], ids=["uniform", "of", "constructor"])
    def test_rejects_zero_resource_types(self, build):
        """A d = 0 platform would otherwise build and fail much later,
        inside numpy (``high <= 0``)."""
        with pytest.raises(ValueError, match="platform capacities must be a positive vector"):
            build()

    def test_rejects_name_mismatch(self):
        with pytest.raises(ValueError):
            ResourcePool.of(4, 8, names=("one",))

    def test_fits(self):
        pool = ResourcePool.of(4, 4)
        assert pool.fits(ResourceVector((2, 2)), ResourceVector((2, 2)))
        assert not pool.fits(ResourceVector((3, 2)), ResourceVector((2, 2)))

    def test_validate_allocation(self):
        pool = ResourcePool.of(4, 4)
        pool.validate_allocation(ResourceVector((1, 0)))
        with pytest.raises(ValueError):
            pool.validate_allocation(ResourceVector((5, 0)))
        with pytest.raises(ValueError):
            pool.validate_allocation(ResourceVector((0, 0)))
        with pytest.raises(ValueError):
            pool.validate_allocation(ResourceVector((1,)))

    def test_mu_caps(self):
        pool = ResourcePool.of(10, 7)
        assert pool.mu_caps(0.382) == (math.ceil(3.82), math.ceil(0.382 * 7))
        with pytest.raises(ValueError):
            pool.mu_caps(0.6)

    def test_supports_mu(self):
        pool = ResourcePool.of(7, 9)
        assert pool.supports_mu(0.382)  # 1/0.382^2 ~ 6.85 <= 7
        assert not pool.supports_mu(0.1)  # needs P >= 100

    def test_iter_types(self):
        pool = ResourcePool.of(2, 3, names=("a", "b"))
        assert list(pool.iter_types()) == [(0, "a", 2), (1, "b", 3)]
