"""Dense vertex sets backed by arbitrary-precision integer bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


class VertexSet:
    """Immutable set of vertex indices.

    A wrapper around an integer bitmask, built with ``VertexSet(mask)``: the
    routes work on masks and wrap only the sets they return. Membership is a
    shift and a test, and sets over 128+ vertices simply grow with Python's
    integers. The canonical form of a set is its ascending list of indices;
    that list is what gets serialized and what defines the deterministic
    ordering of every list of sets this package emits.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        if mask < 0:
            raise ValueError("bitmask must be non-negative")
        self.mask = mask

    def to_list(self) -> list[int]:
        return bit_list(self.mask)

    def __contains__(self, v: int) -> bool:
        return v >= 0 and (self.mask >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"VertexSet({self.to_list()})"


def canonical_sets(masks: Iterable[int]) -> list[VertexSet]:
    """Deduplicate masks and wrap them as VertexSets in canonical order."""
    return [VertexSet(m) for m in sorted(set(masks), key=bit_list)]
