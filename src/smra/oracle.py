"""Exact benchmarks for auction outcomes.

optimal_welfare solves the winner-determination problem exactly by
dynamic programming over item subsets; welfare scores an allocation;
RationalityScan follows an auction round by round, and
measure_rationality a recorded trace, for the worst price-to-value ratio
any bidder was ever exposed to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from math import inf
from typing import Optional, Sequence

from .errors import InvalidAllocation, OracleTooLarge, UniverseMismatch, require_int
from .itemsets import items_of
from .mechanism import AuctionOutcome
from .valuations import Valuation, common_universe, ratio_text

# The assignment DP touches n * 3**m (bidder, bundle-in-context) pairs.
OPS_LIMIT = 50_000_000


@dataclass(frozen=True)
class OptimalAllocation:
    """Welfare-maximizing assignment of items to bidders (free disposal:
    items may stay unassigned)."""

    welfare: int
    assignment: tuple[int, ...]


def optimal_welfare(valuations: Sequence[Valuation]) -> OptimalAllocation:
    """Exact optimal welfare over all disjoint assignments.

    DP over (first i bidders, item subset). The forward pass keeps only
    the row of best splits, and each bidder's layer max-plus merges her
    table into it. Until some layer gains, the row is all zero, and
    merging a table that is monotone with value(empty) == 0, as
    value_table() guarantees, into it gives the table itself, so the first
    gaining layer is a copy of the table. Every later layer scans each
    mask's submasks.

    A layer that raises no subset's best split is idle, and so is every
    later layer with an equal value table: merging is commutative and
    associative, so a table that adds nothing to the row now adds nothing
    to any later row either. Copies of one valuation thus cost at most one
    idle layer once further copies stop raising any split. Copies match by
    identity first, then by value: a table object is hashed once, when
    first seen, and numbered by its value, so a later bidder holding the
    same object reuses its number unhashed while an equal table from
    another object still gets the same number. Every numbered table is
    held until the call returns, so no id is recycled within a call.

    A copy of a table whose layer gained costs no layer at all while the
    row is supermodular. Every layer keeps the bidder's whole-mask bundle
    as a candidate, so the row is at least that table on every nonempty
    mask, and best[0] stays 0, so a supermodular row is superadditive:
    table[A] + best[C] <= best[A] + best[C] <= best[A | C] for disjoint A
    and C, and the copy is idle. The test (_supermodular) runs at most
    once per row, only when a copy needs it: copies of a supermodular
    valuation, as in truthful_tight, cost one packing of the row and one
    test of m(m-1)/2 lane-wise checks.

    Each gaining layer keeps its table and the row before it. From the
    last bidder down, the backtrack rescans that layer's submasks of the
    items still free in descending order; a bundle replaces the earlier
    bidders' split only if strictly better, so ties go to earlier bidders.
    The budget n * 3**m is checked before the DP and is still an upper
    bound on its work; raises OracleTooLarge beyond it, even where copies
    would make the DP cheap (truthful_tight with L = 30 at k >= 14).
    """
    n, m = len(valuations), common_universe(valuations)
    if n * 3**m > OPS_LIMIT:
        raise OracleTooLarge(
            f"assignment DP needs {n} * 3**{m} bundle evaluations; "
            f"limit is n * 3**m <= {OPS_LIMIT}"
        )

    size = 1 << m
    zero = best = [0] * size
    layers: list[Optional[tuple[tuple[int, ...], list[int]]]] = []
    numbered: dict[int, tuple] = {}  # id(table) -> (table, number)
    numbers: dict[tuple[int, ...], int] = {}  # table value -> number
    idle: set[int] = set()  # numbers whose layer left best as is
    merged: set[int] = set()  # numbers whose layer raised best
    supermodular = None  # of best, tested on the first copy that needs it
    for v in valuations:
        table = v.value_table()
        known = numbered.get(id(table))
        if known is None:  # a new object: hash it once
            known = numbered[id(table)] = (
                table, numbers.setdefault(table, len(numbers)))
        number = known[1]
        if number in idle:
            layers.append(None)
            continue
        if number in merged:
            if supermodular is None:
                supermodular = _supermodular(best, m)
            if supermodular:
                idle.add(number)
                layers.append(None)
                continue
        if best is zero:
            cur = list(table)
        else:
            cur = [0] * size
            for mask in range(size):
                top = best[mask]  # bidder takes nothing
                sub = mask
                while sub:
                    cand = table[sub] + best[mask ^ sub]
                    if cand > top:
                        top = cand
                    sub = (sub - 1) & mask
                cur[mask] = top
        if cur == best:
            idle.add(number)
            layers.append(None)
        else:
            layers.append((table, best))
            merged.add(number)
            best = cur
            supermodular = None

    assignment = [0] * n
    mask = size - 1
    for i in range(n - 1, -1, -1):
        if layers[i] is None:
            continue
        table, prev = layers[i]
        top = prev[mask]
        pick = 0
        sub = mask
        while sub:
            cand = table[sub] + prev[mask ^ sub]
            if cand > top:
                top = cand
                pick = sub
            sub = (sub - 1) & mask
        assignment[i] = pick
        mask ^= pick
    return OptimalAllocation(welfare=best[size - 1], assignment=tuple(assignment))


def _pack(row: Sequence[int]) -> tuple[int, int]:
    """(packed, width): row packed into one int, one lane of w = 8 * width
    bits per mask, lane s (bits w * s to w * s + w - 1) holding
    row[s] - min(row); int.from_bytes over the entries' little-endian
    to_bytes, so lane 0 is least significant.

    Lane width rule: the fewest whole bytes that leave 2 spare bits above
    the largest lane M, so M < 2**(w - 2) = HALF and TOP = 2 * HALF is
    the lane's top bit. _supermodular adds and subtracts whole packed
    ints; each step is exact lane by lane, with no borrow or carry from
    one lane into the next, as long as every lane of every result lies in
    [0, 2**w), which the ranges it states show.
    """
    low = min(row)
    width = ((max(row) - low).bit_length() + 9) // 8
    entries = [v - low for v in row] if low else row
    packed = int.from_bytes(b"".join(map(
        int.to_bytes, entries, repeat(width), repeat("little"))), "little")
    return packed, width


def _lane_bits(unit: bytes, size: int, bit: int) -> int:
    """unit, one lane's little-endian bytes, in every lane s < size with
    s & bit == 0, and zero in the others: one repeated bytes pattern,
    built per call and never kept, since at m = 16 one mask may be
    hundreds of KB."""
    return int.from_bytes((unit * bit + bytes(len(unit) * bit))
                          * (size // (2 * bit)), "little")


def _supermodular(row: Sequence[int], m: int) -> bool:
    """Whether row[S|i|j] - row[S|i] - row[S|j] + row[S] >= 0 for all items
    i < j outside S: item i's marginal d_i[S] = row[S|i] - row[S] never
    falls as a later item j joins S.

    Packs the row (_pack) and tests every mask at once. For each i, lane s
    of D = (P >> w * 2**i) + (HALF - P) is HALF + d_i[s] and lane s of
    F = (P + HALF) - (P >> w * 2**i) is TOP - (HALF + d_i[s]), both in
    [HALF - M, HALF + M], inside [1, TOP); a lane whose mask holds i meets
    a later entry, or 0 past the end, in the same range. For each j > i,
    each lane of (D >> w * 2**j) + F is a lane of D, or 0 past the end,
    plus one of F, so inside [1, 2**w). For s holding neither i nor j, the
    only lanes read, it is TOP + d_i[s | j] - d_i[s], whose top bit is set
    exactly when d_i[s | j] >= d_i[s].
    """
    packed, width = _pack(row)
    size, w = len(row), 8 * width
    top = bytes(width - 1) + b"\x80"  # one lane holding TOP
    tops = [_lane_bits(top, size, 1 << i) for i in range(m)]
    halves = int.from_bytes((bytes(width - 1) + b"\x40") * size, "little")
    up, down = packed + halves, halves - packed
    for i in range(m - 1):
        shifted = packed >> (w << i)
        d, f = shifted + down, up - shifted
        for j in range(i + 1, m):
            mask = tops[i] & tops[j]
            if ((d >> (w << j)) + f) & mask != mask:
                return False
    return True


def welfare(allocation: Sequence[int], valuations: Sequence[Valuation]) -> int:
    """Total value of a disjoint assignment, summed over held bundles."""
    if len(allocation) != len(valuations):
        raise InvalidAllocation(
            f"{len(allocation)} bundles for {len(valuations)} bidders"
        )
    seen = 0
    total = 0
    for i in compress(range(len(allocation)), allocation):
        mask = allocation[i]
        if mask & seen:
            raise InvalidAllocation(
                f"item(s) {list(items_of(mask & seen))} assigned twice"
            )
        seen |= mask
        total += valuations[i].value(mask)
    return total


@dataclass(frozen=True)
class RationalityReport:
    """Worst price-to-value exposure across a recorded auction.

    lam       -- max over every round's post-state, every bidder, and every
                 positively-priced subset of her holdings, of
                 posted price(subset) / value(subset); +inf when a worthless
                 subset carried positive price; 1 when no positively-priced
                 subset ever existed. A bidder never pays more than lam
                 times value for any part of what she holds.
    lam_full  -- same, restricted to each bidder's full holding.
    witness / witness_full -- (round, bidder, items) achieving the max.
    """

    lam: Fraction | float
    lam_full: Fraction | float
    witness: Optional[tuple[int, int, tuple[int, ...]]]
    witness_full: Optional[tuple[int, int, tuple[int, ...]]]

    def to_dict(self) -> dict:
        def wit(w):
            if w is None:
                return None
            t, bidder, items = w
            return {"round": t, "bidder": bidder, "items": list(items)}

        return {
            "lambda": ratio_text(self.lam),
            "lambda_full": ratio_text(self.lam_full),
            "witness": wit(self.witness),
            "witness_full": wit(self.witness_full),
        }


def _ratio(num: int, den: int, witness) -> tuple:
    """A running max as (lam, decoded witness); den == 0 means +inf."""
    if den == 0:
        lam = inf
    elif num == 0:
        return Fraction(1), None
    else:
        lam = Fraction(num, den)
    t, bidder, mask = witness
    return lam, (t, bidder, items_of(mask))


class RationalityScan:
    """Degree of individual rationality of one auction, round by round.

    Feed update() every round's post-state in order, as run_auction's
    observer or from recorded rounds, then read report(). Every subset of
    every holding with positive posted price offers price/value; a ratio
    strictly above the running max replaces it, so ties keep the first
    witness, and a zero value means +inf. Holdings of more than
    subset_cap items offer only the full set and singletons; under
    TABLE_LIMIT = 20 the default cap of 20 never triggers.

    Every update prices every nonempty holding, each through one DP over
    its items, so any records are measured exactly, overlapping holdings
    included. Witnesses stay (round, bidder, mask) until report() decodes
    them. Value tables are `tables` if given, else the valuations' own.
    A subset_cap that is not an int >= 0 (a bool included) raises
    ValueError, and so does an update whose holdings are not one per
    table.
    """

    __slots__ = ("_tables", "_subset_cap", "_num", "_den", "_witness",
                 "_full_num", "_full_den", "_full_witness")

    def __init__(self, valuations: Sequence[Valuation], subset_cap: int = 20,
                 tables: Optional[Sequence[Sequence[int]]] = None):
        self._subset_cap = require_int("subset_cap", subset_cap, 0)
        self._tables = tables or [v.value_table() for v in valuations]
        self._num, self._den, self._witness = 0, 1, None
        self._full_num, self._full_den, self._full_witness = 0, 1, None

    def update(
        self, t: int, prices_after: Sequence[int], provisional: Sequence[int]
    ) -> None:
        """Examine one round's post-state (prices and holdings)."""
        tables = self._tables
        if len(provisional) != len(tables):
            raise ValueError(f"{len(provisional)} holdings for a scan of "
                             f"{len(tables)} bidders")
        for i in compress(range(len(provisional)), provisional):
            self._examine(t, i, provisional[i], tables[i], prices_after)

    def _examine(
        self, t: int, i: int, held: int, table: Sequence[int],
        prices: Sequence[int],
    ) -> None:
        """One nonempty holding. A den of 0 (+inf) is final: no later
        price * 0 exceeds num * value."""
        if held.bit_count() > self._subset_cap:
            items = items_of(held)
            sums = [prices[j] for j in items]
            subs = [1 << j for j in items]
            sums.insert(0, sum(sums))
            subs.insert(0, held)
        else:
            # adding the held items lowest first, sums[r] is the posted
            # price of subs[r], every submask in descending order
            low = held & -held
            rest = held ^ low
            sums = [prices[low.bit_length() - 1], 0]
            subs = [low, 0]
            while rest:
                low = rest & -rest
                rest ^= low
                price = prices[low.bit_length() - 1]
                sums = [s + price for s in sums] + sums
                subs = [s | low for s in subs] + subs
        p_full = sums[0]
        if p_full and p_full * self._full_den > self._full_num * table[held]:
            self._full_num, self._full_den = p_full, table[held]
            self._full_witness = (t, i, held)
        num, den = self._num, self._den
        if den:
            for p, sub in zip(sums, subs):
                if p and p * den > num * table[sub]:
                    num, den = p, table[sub]
                    self._witness = (t, i, sub)
            self._num, self._den = num, den

    def report(self) -> RationalityReport:
        lam, witness = _ratio(self._num, self._den, self._witness)
        lam_full, witness_full = _ratio(
            self._full_num, self._full_den, self._full_witness
        )
        return RationalityReport(
            lam=lam, lam_full=lam_full, witness=witness, witness_full=witness_full
        )


def measure_rationality(
    outcome: AuctionOutcome,
    valuations: Sequence[Valuation],
    subset_cap: int = 20,
) -> RationalityReport:
    """Worst posted-price/value ratio over the whole recorded auction.

    Feeds the recorded rounds to a RationalityScan: after every round,
    every bidder's holding and each of its subsets with positive posted
    price (a zero value there means unbounded exposure). Holdings larger
    than subset_cap items are checked at the full set and singletons
    only; under TABLE_LIMIT = 20 the default cap of 20 never triggers.
    A bidder count other than the trace's raises ValueError, and a
    universe size other than the trace's raises UniverseMismatch.
    """
    if outcome.records is None:
        raise ValueError("outcome carries no trace; run with record_trace=True")
    n, m = len(outcome.allocation), len(outcome.prices)
    if len(valuations) != n:
        raise ValueError(f"{len(valuations)} valuations for a trace of {n} bidders")
    if common_universe(valuations) != m:
        raise UniverseMismatch(
            f"valuations have m={valuations[0].universe_size}, the trace has m={m}"
        )
    scan = RationalityScan(valuations, subset_cap)
    for record in outcome.records:
        scan.update(record.t, record.prices_after, record.provisional)
    return scan.report()
