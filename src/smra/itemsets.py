"""Bitmask helpers for sets of items.

Items are integers 0..m-1. A set of items is an int whose bit j is set
iff item j belongs to the set, so subset tests, unions and set
differences are single machine operations. Helpers here convert between
masks and sorted item lists and enumerate subsets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .errors import UniverseMismatch, require_int


def full_mask(m: int) -> int:
    """Mask containing every item of a universe of size m."""
    return (1 << m) - 1


def mask_size(mask: int) -> int:
    """Number of items in the set (popcount)."""
    return mask.bit_count()


def iter_items(mask: int) -> Iterator[int]:
    """Yield the items of the set in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def items_of(mask: int) -> tuple[int, ...]:
    """The set as a sorted tuple of item indices."""
    return tuple(iter_items(mask))


def mask_of(items: Iterable[int], m: int | None = None) -> int:
    """Build a mask from item indices, validating against a universe size.

    Raises TypeError on an item that is not an int (a bool included, so
    JSON true/false never pass as items 1 and 0), UniverseMismatch on an
    item outside the universe, and ValueError, naming the list and the
    item, on an item the list names twice."""
    mask = 0
    for item in items:
        require_int("item", item, error=TypeError)
        if item < 0 or (m is not None and item >= m):
            raise UniverseMismatch(f"item {item} outside universe of size {m}")
        if (mask >> item) & 1:
            raise ValueError(f"item list {items!r} names item {item} twice")
        mask |= 1 << item
    return mask


def submasks(mask: int) -> Iterator[int]:
    """All subsets of the set, descending from the set itself to empty."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@lru_cache(maxsize=None)
def popcount_table(m: int) -> tuple[int, ...]:
    """Popcount of every mask below 2**m, as a flat lookup tuple.

    Built once per universe size and shared by every caller, hence
    immutable; sizes are bounded by the table limit, so is the cache.
    """
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        table[mask] = table[mask & (mask - 1)] + 1
    return tuple(table)
