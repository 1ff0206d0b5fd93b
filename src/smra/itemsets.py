"""Bitmask helpers for sets of items.

Items are integers 0..m-1. A set of items is an int whose bit j is set
iff item j belongs to the set, so subset tests, unions and set
differences are single machine operations. Helpers here convert between
masks and sorted item lists, enumerate subsets and build per-bundle
sum tables.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import UniverseMismatch, require_int


def full_mask(m: int) -> int:
    """Mask containing every item of a universe of size m."""
    return (1 << m) - 1


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
    JSON true/false never pass as items 1 and 0), UniverseMismatch on a
    negative item or one outside the universe, and ValueError, naming the
    list and the item, on an item the list names twice."""
    mask = 0
    for item in items:
        require_int("item", item, error=TypeError)
        if item < 0:
            raise UniverseMismatch(f"item {item} is negative")
        if m is not None and item >= m:
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


def subset_sums(weights: Sequence[int]) -> list[int]:
    """sums[mask] = total weight of mask's items, for every mask below
    2**len(weights): the one builder of per-bundle sum tables (posted
    prices, popcounts, additive parts). Item j appends the masks of items
    0..j-1 with bit j set, so the table fills in mask order."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


@lru_cache(maxsize=None)
def popcount_table(m: int) -> tuple[int, ...]:
    """Popcount of every mask below 2**m, as a flat lookup tuple: the
    subset sums of m unit weights.

    Built once per universe size and shared by every caller, hence
    immutable; sizes are bounded by the table limit, so is the cache.
    """
    return tuple(subset_sums((1,) * m))
