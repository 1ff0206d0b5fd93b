"""Exact benchmarks for auction outcomes.

optimal_welfare solves the winner-determination problem exactly by
dynamic programming over item subsets; welfare_ratio compares a realized
outcome against it in exact rational arithmetic; measure_rationality
scans a recorded trace for the worst price-to-value ratio any bidder was
ever exposed to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Optional, Sequence, Union

from .errors import InvalidAllocation, OracleTooLarge, UniverseMismatch
from .itemsets import items_of, iter_items, mask_size, submasks
from .mechanism import AuctionOutcome
from .valuations import Valuation

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

    DP over (first i bidders, item subset): each bidder takes the bundle
    maximizing her value plus the best split of the rest among earlier
    bidders; a bundle replaces the earlier split only if strictly better,
    so ties go to earlier bidders.

    A layer that raises no subset's best split leaves every choice at the
    empty bundle. Such a table stays idle for the rest of the DP: each
    layer max-plus merges a bidder's table into the row of best splits,
    and merging is commutative and associative, so a table that adds
    nothing to the row now adds nothing to any later row either. Later
    bidders with an equal value table skip their layer, so copies of one
    valuation cost at most one idle layer once further copies stop
    raising any split. The budget n * 3**m is checked before the DP and
    is still an upper bound on its work; raises OracleTooLarge beyond it.
    """
    n = len(valuations)
    if n == 0:
        raise ValueError("need at least one bidder")
    m = valuations[0].universe_size
    for v in valuations[1:]:
        if v.universe_size != m:
            raise UniverseMismatch(
                f"valuations disagree on universe size: {m} vs {v.universe_size}"
            )
    if n * 3**m > OPS_LIMIT:
        raise OracleTooLarge(
            f"assignment DP needs {n} * 3**{m} bundle evaluations; "
            f"limit is n * 3**m <= {OPS_LIMIT}"
        )

    size = 1 << m
    best = [0] * size
    choices: list[list[int]] = []
    no_pick = [0] * size  # the choice row of every idle layer, shared
    idle: set[tuple[int, ...]] = set()  # tables whose layer left best as is
    for v in valuations:
        table = v.value_table()
        if table in idle:
            choices.append(no_pick)
            continue
        cur = [0] * size
        choice = [0] * size
        for mask in range(size):
            top = best[mask]  # bidder takes nothing
            pick = 0
            sub = mask
            while sub:
                cand = table[sub] + best[mask ^ sub]
                if cand > top:
                    top = cand
                    pick = sub
                sub = (sub - 1) & mask
            cur[mask] = top
            choice[mask] = pick
        if cur == best:  # no strict gain anywhere, so choice is all zero
            idle.add(table)
            choices.append(no_pick)
        else:
            best = cur
            choices.append(choice)

    assignment = [0] * n
    mask = size - 1
    for i in range(n - 1, -1, -1):
        sub = choices[i][mask]
        assignment[i] = sub
        mask ^= sub
    return OptimalAllocation(welfare=best[size - 1], assignment=tuple(assignment))


def welfare(allocation: Sequence[int], valuations: Sequence[Valuation]) -> int:
    """Total value of a disjoint assignment (items may be unassigned)."""
    if len(allocation) != len(valuations):
        raise InvalidAllocation(
            f"{len(allocation)} bundles for {len(valuations)} bidders"
        )
    seen = 0
    total = 0
    for mask, v in zip(allocation, valuations):
        if mask & seen:
            raise InvalidAllocation(
                f"item(s) {list(items_of(mask & seen))} assigned twice"
            )
        seen |= mask
        total += v.value(mask)
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


class _RatioMax:
    """Running max of price/value ratios in exact integer arithmetic."""

    __slots__ = ("num", "den", "witness")

    def __init__(self):
        self.num = 0
        self.den = 1  # (0, 1) = nothing seen; den == 0 = +inf
        self.witness = None

    def update(self, price: int, value: int, witness) -> None:
        if self.den == 0:
            return
        if value == 0:
            self.num, self.den, self.witness = 1, 0, witness
        elif price * self.den > self.num * value:
            self.num, self.den, self.witness = price, value, witness

    def result(self) -> tuple[Union[Fraction, float], Optional[tuple]]:
        if self.den == 0:
            return inf, self.witness
        if self.num == 0:
            return Fraction(1), None
        return Fraction(self.num, self.den), self.witness


def measure_rationality(
    outcome: AuctionOutcome,
    valuations: Sequence[Valuation],
    subset_cap: int = 20,
) -> RationalityReport:
    """Worst posted-price/value ratio over the whole recorded auction.

    Examines, after every round, every bidder's provisional holding and
    its subsets (only subsets with positive posted price count; a zero
    value there means unbounded exposure). Holdings larger than
    subset_cap items are checked at the full set and singletons only.
    """
    if outcome.records is None:
        raise ValueError("outcome carries no trace; run with record_trace=True")
    tables = [v.value_table() for v in valuations]
    overall = _RatioMax()
    full_only = _RatioMax()
    for record in outcome.records:
        prices = record.prices_after
        for i, held in enumerate(record.provisional):
            if not held:
                continue
            table = tables[i]
            p_full = sum(prices[j] for j in iter_items(held))
            if p_full > 0:
                full_only.update(p_full, table[held], (record.t, i, items_of(held)))
            if mask_size(held) <= subset_cap:
                examined = submasks(held)
            else:
                examined = (held, *(1 << j for j in iter_items(held)))
            for sub in examined:
                p = sum(prices[j] for j in iter_items(sub))
                if p > 0:
                    overall.update(p, table[sub], (record.t, i, items_of(sub)))

    lam, witness = overall.result()
    lam_full, witness_full = full_only.result()
    return RationalityReport(
        lam=lam, lam_full=lam_full, witness=witness, witness_full=witness_full
    )
