"""Exact benchmarks for auction outcomes.

optimal_welfare solves the winner-determination problem exactly by
dynamic programming over item subsets; welfare_ratio compares a realized
outcome against it in exact rational arithmetic; RationalityScan follows
an auction round by round, and measure_rationality a recorded trace, for
the worst price-to-value ratio any bidder was ever exposed to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import inf
from operator import le, sub
from typing import Optional, Sequence, Union

from .errors import InvalidAllocation, OracleTooLarge, require_int
from .itemsets import items_of
from .mechanism import AuctionOutcome
from .valuations import Valuation, common_universe

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
    table into it. Until some layer gains, the row is all zero, so the
    merge is the subset-max closure max(0, table[s] for nonempty s inside
    the mask): m sweeps of the row instead of a 3**m submask scan, exact
    for any table. Every later layer scans each mask's submasks.

    A layer that raises no subset's best split is idle, and so is every
    later layer with an equal value table: merging is commutative and
    associative, so a table that adds nothing to the row now adds nothing
    to any later row either. Copies of one valuation thus cost at most one
    idle layer once further copies stop raising any split.

    A copy of a table whose layer gained costs no layer at all while the
    row is supermodular. Every layer keeps the bidder's whole-mask bundle
    as a candidate, so the row is at least that table on every nonempty
    mask, and best[0] stays 0, so a supermodular row is superadditive:
    table[A] + best[C] <= best[A] + best[C] <= best[A | C] for disjoint A
    and C, and the copy is idle. This holds for any table, monotone or
    not. The test runs at most once per row, so copies of a supermodular
    valuation, as in truthful_tight, cost the closure and one test.

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
    idle: set[tuple[int, ...]] = set()  # tables whose layer left best as is
    merged: set[tuple[int, ...]] = set()  # tables whose layer raised best
    supermodular = None  # of best, tested on the first copy that needs it
    for v in valuations:
        table = v.value_table()
        if table in idle:
            layers.append(None)
            continue
        if table in merged:
            if supermodular is None:
                supermodular = _supermodular(best, m)
            if supermodular:
                idle.add(table)
                layers.append(None)
                continue
        if best is zero:
            cur = list(table)
            cur[0] = 0
            bit = 1
            while bit < size:  # each mask holding bit also sees mask ^ bit
                for lo in range(bit, size, 2 * bit):
                    for mask in range(lo, lo + bit):
                        if cur[mask - bit] > cur[mask]:
                            cur[mask] = cur[mask - bit]
                bit <<= 1
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
            idle.add(table)
            layers.append(None)
        else:
            layers.append((table, best))
            merged.add(table)
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


def _slice_pairs(seq: Sequence[int], bit: int) -> list[tuple]:
    """(low, high) slices of seq that pair every index s without bit with
    s | bit: one stride slice pair per value of the bits below bit, or
    one block pair per run of 2 * bit indices, whichever are fewer."""
    step = 2 * bit
    if bit < len(seq) // step:
        return [(seq[r::step], seq[r + bit::step]) for r in range(bit)]
    return [(seq[lo:lo + bit], seq[lo + bit:lo + step])
            for lo in range(0, len(seq), step)]


def _supermodular(row: Sequence[int], m: int) -> bool:
    """Whether row[S|i|j] - row[S|i] - row[S|j] + row[S] >= 0 for all items
    i < j outside S: item i's marginal d_i[S] = row[S|i] - row[S] never
    falls as a later item j joins S.

    d_i lists the marginals in slice order, which permutes the mask's
    bits: strides put the items above i at d_i's low bits, blocks keep
    them at bits i and up.
    """
    size = len(row)
    for i in range(m):
        bit = 1 << i
        d: list[int] = []
        for low, high in _slice_pairs(row, bit):
            d += map(sub, high, low)
        strided = bit < size // (2 * bit)  # as _slice_pairs chooses
        later = range(m - 1 - i) if strided else range(i, m - 1)
        for b in later:
            if not all(all(map(le, low, high))
                       for low, high in _slice_pairs(d, 1 << b)):
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


def welfare_ratio(
    achieved: Union[int, AuctionOutcome],
    optimal: Union[int, OptimalAllocation],
    valuations: Optional[Sequence[Valuation]] = None,
) -> Fraction:
    """Achieved / optimal welfare, exactly; 1 when the optimum is zero."""
    if isinstance(achieved, AuctionOutcome):
        if valuations is None:
            raise ValueError("valuations are needed to score an outcome")
        achieved = welfare(achieved.allocation, valuations)
    if isinstance(optimal, OptimalAllocation):
        optimal = optimal.welfare
    if optimal == 0:
        return Fraction(1)
    return Fraction(achieved, optimal)


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

    lam: Union[Fraction, float]
    lam_full: Union[Fraction, float]
    witness: Optional[tuple[int, int, tuple[int, ...]]]
    witness_full: Optional[tuple[int, int, tuple[int, ...]]]

    def to_dict(self) -> dict:
        def enc(x):
            return "inf" if x == inf else str(x)

        def wit(w):
            if w is None:
                return None
            t, bidder, items = w
            return {"round": t, "bidder": bidder, "items": list(items)}

        return {
            "lambda": enc(self.lam),
            "lambda_full": enc(self.lam_full),
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
    ValueError.
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
    """
    if outcome.records is None:
        raise ValueError("outcome carries no trace; run with record_trace=True")
    scan = RationalityScan(valuations, subset_cap)
    for record in outcome.records:
        scan.update(record.t, record.prices_after, record.provisional)
    return scan.report()
