"""VertexSet behaves like a frozenset of small non-negative ints."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmckit import VertexSet, canonical_sets
from pmckit.bitset import bit_list
from reference import vset

idx_sets = st.frozensets(st.integers(0, 40), max_size=12)


def test_basics():
    s = vset(5, 0, 2)
    assert s.to_list() == [0, 2, 5]
    assert 2 in s and 3 not in s
    assert len(s) == 3
    assert list(s) == [0, 2, 5]
    assert repr(s) == "VertexSet([0, 2, 5])"
    assert not VertexSet()
    with pytest.raises(ValueError):
        VertexSet(-1)


@given(idx_sets, idx_sets)
def test_protocol_matches_frozenset(a, b):
    va, vb = vset(*a), vset(*b)
    assert set(va) == a and len(va) == len(a)
    assert all(i in va for i in a) and not any(i in va for i in b - a)
    assert (va == vb) == (a == b)
    assert len({va, vb}) == len({a, b})


@given(idx_sets)
def test_roundtrip_and_iteration_order(a):
    v = vset(*a)
    assert v.to_list() == list(v) == sorted(a)
    assert bit_list(v.mask) == sorted(a)


def test_canonical_sets_orders_lexicographically():
    out = canonical_sets([0b100001, 0b110, 0b110, 0b1])
    assert [v.to_list() for v in out] == [[0], [0, 5], [1, 2]]
