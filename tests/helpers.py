"""Shared test helpers: independent brute-force oracles, context builders
and the random instances of the criteria 2/4/6 bound suites.

The oracles here are deliberately naive re-implementations (triple
enumeration, full assignment enumeration, every bid of every bidding rule
scored with valuation.value() and item-by-item price sums, and the
auction itself, round by round) so the package's optimized algorithms are
checked against code with no shared logic.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import inf
from typing import Optional, Sequence

from smra import (
    AuctionOutcome, BidContext, Draw, InvalidBid, RationalityReport,
    RoundRecord, Valuation, derive_seed, random_near_submodular,
)
from smra.itemsets import (
    items_of, iter_items, popcount_table, submasks, subset_sums,
)


def random_instance(master_seed, index, max_m=6, max_n=4):
    """One random α-near-submodular instance: (alpha, valuations)."""
    rng = random.Random(derive_seed(master_seed, index))
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    alpha = rng.choice([1, 2, 3])
    cap = rng.randint(10, 40)
    valuations = tuple(
        random_near_submodular(m, alpha, cap, rng.randrange(2**32))
        for _ in range(n)
    )
    return alpha, valuations


def naive_degree(valuation: Valuation):
    """Minimum marginal ratio by direct enumeration of every
    (item x, A strict subset of B, x outside B) triple."""
    m = valuation.universe_size
    table = valuation.value_table()
    best = None
    for x in range(m):
        xbit = 1 << x
        for b in range(1 << m):
            if b & xbit or b == 0:  # the empty set has no strict subset
                continue
            den = table[b | xbit] - table[b]
            if den <= 0:
                continue
            a = b
            while True:
                a = (a - 1) & b
                num = table[a | xbit] - table[a]
                ratio = Fraction(num, den)
                if best is None or ratio < best:
                    best = ratio
                if a == 0:
                    break
    return inf if best is None else best


def supermodular_negatives(row: Sequence[int], m: int) -> list[tuple]:
    """Every (S, i, j), i < j outside S, whose term row[S|i|j] - row[S|i]
    - row[S|j] + row[S] is negative: none exactly when row is
    supermodular."""
    return [
        (s, i, j)
        for s in range(1 << m)
        for i in range(m)
        for j in range(i + 1, m)
        if not s >> i & 1 and not s >> j & 1
        and row[s | 1 << i | 1 << j] - row[s | 1 << i] - row[s | 1 << j]
        + row[s] < 0
    ]


def supermodular_values(
    m: int, weights: Sequence[tuple[int, int]],
    modular: Sequence[int] = (), constant: int = 0,
) -> tuple[int, ...]:
    """constant, plus modular[i] for each item i of S, plus w for each
    (T, w) in weights with T inside S: supermodular when every w >= 0,
    and monotone when the modular terms are >= 0 too."""
    return tuple(
        constant
        + sum(c for i, c in enumerate(modular) if s >> i & 1)
        + sum(w for t, w in weights if t & s == t)
        for s in range(1 << m)
    )


def naive_optimal(valuations: Sequence[Valuation]) -> int:
    """Best welfare over all (n+1)^m assignments of items to a bidder or
    to nobody."""
    n = len(valuations)
    m = valuations[0].universe_size
    best = 0
    for owners in itertools.product(range(n + 1), repeat=m):
        bundles = [0] * n
        for item, owner in enumerate(owners):
            if owner:
                bundles[owner - 1] |= 1 << item
        total = sum(v.value(s) for v, s in zip(valuations, bundles))
        if total > best:
            best = total
    return best


def reference_optimal_welfare(
    valuations: Sequence[Valuation],
) -> tuple[int, tuple[int, ...]]:
    """(welfare, assignment) from the plain assignment DP: every bidder
    runs a full layer over every (subset, sub-bundle) pair, and a bundle
    replaces the earlier split only when strictly better."""
    size = 1 << valuations[0].universe_size
    best = [0] * size
    choices = []
    for v in valuations:
        table = v.value_table()
        cur = [0] * size
        choice = [0] * size
        for mask in range(size):
            top = best[mask]
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
        best = cur
        choices.append(choice)
    assignment = [0] * len(valuations)
    mask = size - 1
    for i in range(len(valuations) - 1, -1, -1):
        assignment[i] = choices[i][mask]
        mask ^= assignment[i]
    return best[size - 1], tuple(assignment)


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

    def result(self):
        if self.den == 0:
            return inf, self.witness
        if self.num == 0:
            return Fraction(1), None
        return Fraction(self.num, self.den), self.witness


def reference_measure_rationality(
    outcome: AuctionOutcome,
    valuations: Sequence[Valuation],
    subset_cap: int = 20,
) -> RationalityReport:
    """The plain rationality scan: after every recorded round, every
    bidder's holding and every subset of it (the full set and singletons
    only above subset_cap items), each priced item by item, the running
    max replaced only on a strictly larger ratio."""
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
            if held.bit_count() <= subset_cap:
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


def naive_price(prices: Sequence[int], bundle: int, own: int = 0,
                increment: bool = False) -> int:
    """Posted price of a bundle, plus one increment per item outside
    `own` when `increment` is set, summed item by item."""
    total = 0
    for j, price in enumerate(prices):
        if (bundle >> j) & 1:
            total += price
            if increment and not (own >> j) & 1:
                total += 1
    return total


def _size(mask: int) -> int:
    return bin(mask).count("1")


def _bids(m: int, own: int) -> list[int]:
    """Every bid: every bundle of the universe that avoids the holdings."""
    return [bid for bid in range(1 << m) if not bid & own]


def naive_utility(valuation: Valuation, prices: Sequence[int], own: int,
                  bid: int) -> int:
    """v(own + bid) minus what winning the whole bid costs."""
    return valuation.value(own | bid) - naive_price(prices, bid, 0, True)


def naive_truthful(valuation: Valuation, prices: Sequence[int],
                   own: int = 0) -> int:
    """Best bid by utility; ties go to fewer items, then the smaller mask."""
    return min(
        _bids(valuation.universe_size, own),
        key=lambda bid: (-naive_utility(valuation, prices, own, bid),
                         _size(bid), bid),
    )


def naive_moves(m: int, own: int, bid: int) -> list[tuple[tuple, int]]:
    """(rank, neighbor) for every single delete, add and swap of a bid;
    ranks order deletes before adds before swaps, then by item."""
    inside = [j for j in range(m) if (bid >> j) & 1]
    outside = [j for j in range(m) if not ((bid | own) >> j) & 1]
    moves = [((0, j), bid ^ (1 << j)) for j in inside]
    moves += [((1, j), bid | (1 << j)) for j in outside]
    moves += [((2, out, inn), (bid ^ (1 << out)) | (1 << inn))
              for out in inside for inn in outside]
    return moves


def naive_is_locally_optimal(valuation: Valuation, prices: Sequence[int],
                             own: int, bid: int) -> bool:
    """Whether the bid avoids the holdings and no single move beats it."""
    m = valuation.universe_size
    if bid & own or bid >> m:
        return False
    u = naive_utility(valuation, prices, own, bid)
    return all(naive_utility(valuation, prices, own, cand) <= u
               for _, cand in naive_moves(m, own, bid))


def naive_locally_optimal(valuation: Valuation, prices: Sequence[int],
                          own: int = 0, prev_bid: Optional[int] = None,
                          start: str = "previous") -> int:
    """The hill-climbing rule, move by move: take the best strictly
    improving move (ties by rank) until none is left, starting from the
    previous bid (minus holdings) or the empty bid; redo the climb from
    empty when it ends on a non-empty bid without positive surplus."""
    m = valuation.universe_size

    def util(bid):
        return naive_utility(valuation, prices, own, bid)

    def climb(bid):
        while True:
            scored = [(util(cand) - util(bid), rank, cand)
                      for rank, cand in naive_moves(m, own, bid)]
            best = min(scored, key=lambda s: (-s[0], s[1]), default=None)
            if best is None or best[0] <= 0:
                return bid
            bid = best[2]

    first = 0
    if start == "previous" and prev_bid is not None:
        first = prev_bid & ~own
    bid = climb(first)
    if bid and util(bid) <= valuation.value(own):
        bid = climb(0)
    return bid


def naive_is_secure(valuation: Valuation, prices: Sequence[int], own: int,
                    bid: int, variant: str = "incremented") -> bool:
    """Whether every subset of holdings plus bid is worth its personalized
    price (newly bid items carry the increment unless `variant` is
    "posted")."""
    reach = own | bid
    return all(
        valuation.value(sub)
        >= naive_price(prices, sub, own, variant == "incremented")
        for sub in range(reach + 1) if not sub & ~reach
    )


def naive_profit_max_secure(valuation: Valuation, prices: Sequence[int],
                            own: int = 0, variant: str = "incremented"):
    """Best secure bid by utility; ties go to bidding over quitting, then
    fewer items, then the smaller mask. Returns ("insecure", witness) when
    the holdings already contain an overpriced subset, the witness being
    the largest such subset mask."""
    overpriced = [sub for sub in range(own, -1, -1)
                  if not sub & ~own
                  and valuation.value(sub) < naive_price(prices, sub)]
    if overpriced:
        return ("insecure", overpriced[0])
    secure = [bid for bid in _bids(valuation.universe_size, own)
              if naive_is_secure(valuation, prices, own, bid, variant)]
    return min(
        secure,
        key=lambda bid: (-naive_utility(valuation, prices, own, bid),
                         bid == 0, _size(bid), bid),
    )


def make_ctx(
    valuation: Valuation,
    prices: Sequence[int],
    own: int = 0,
    t: int = 0,
    prev_bid: Optional[int] = None,
    bidder: int = 0,
) -> BidContext:
    """A self-consistent BidContext for strategy-level tests.

    Histories are padded with the current prices/holdings; prev_bid
    seeds the bid history (t entries).
    """
    m = valuation.universe_size
    prices = tuple(prices)
    price_history = [prices] * (t + 1)
    own_set_history = [own] * (t + 1)
    own_bid_history = [prev_bid if prev_bid is not None else 0] * t
    return BidContext(
        bidder=bidder,
        valuation=valuation,
        t=t,
        prices=prices,
        price_history=price_history,
        own_set=own,
        own_set_history=own_set_history,
        own_bid_history=own_bid_history,
        m=m,
        value_table=valuation.value_table(),
        price_sums=subset_sums(prices),
        popcounts=popcount_table(m),
    )


def reference_auction(
    valuations: Sequence[Valuation], strategies: Sequence, seed: int,
    max_rounds: int,
) -> tuple[AuctionOutcome, list[tuple]]:
    """The auction as the mechanism module docstring states it, with no
    memo and no store: every round each bidder gets a fresh BidContext of
    list histories and naive tables, the bids are checked in bidder order,
    and every demanded item, in ascending order, rises one step and goes
    to its sole demander or to random.Random(seed).choice of its
    demanders. Returns (outcome, observer calls); the outcome is the
    partial one, flagged diverged, when round max_rounds or later still
    demands something. Raises InvalidBid for the first bad bid, and
    whatever a rule raises."""
    n, m = len(valuations), valuations[0].universe_size
    choose = random.Random(seed).choice
    tables = [[v.value(s) for s in range(1 << m)] for v in valuations]
    sizes = [s.bit_count() for s in range(1 << m)]
    prices, held = (0,) * m, (0,) * n
    price_history, held_history, bid_history = [prices], [held], []
    records, calls = [], []
    for t in itertools.count():
        sums = [naive_price(prices, s) for s in range(1 << m)]
        bids = tuple(strategies[i].propose(BidContext(
            bidder=i, valuation=valuations[i], t=t, prices=prices,
            price_history=list(price_history), own_set=held[i],
            own_set_history=[row[i] for row in held_history],
            own_bid_history=[row[i] for row in bid_history], m=m,
            value_table=tables[i], price_sums=sums, popcounts=sizes,
        )) for i in range(n))
        for i, bid in enumerate(bids):
            if bid and (bid < 0 or bid >> m or bid & held[i]):
                raise InvalidBid(i, bid, "not a set of free items")
        demanded = 0
        for bid in bids:
            demanded |= bid
        if demanded and t >= max_rounds:
            return AuctionOutcome(held, prices, t, tuple(records), True), calls
        after, held_after, draws = list(prices), list(held), []
        for j in range(m):
            cands = tuple(i for i in range(n) if bids[i] >> j & 1)
            if cands:
                winner = choose(cands) if len(cands) > 1 else cands[0]
                draws.append(Draw(j, cands, winner))
                after[j] += 1
                held_after = [h & ~(1 << j) for h in held_after]
                held_after[winner] |= 1 << j
        after, held_after = tuple(after), tuple(held_after)
        records.append(RoundRecord(t, prices, bids, demanded, tuple(draws),
                                   after, held_after))
        if not demanded:
            return AuctionOutcome(held, prices, t, tuple(records)), calls
        calls.append((t, after, held_after))
        price_history.append(after)
        held_history.append(held_after)
        bid_history.append(bids)
        prices, held = after, held_after


# One well-formed two-item, two-bidder trace line, and lines that
# read_trace_jsonl must refuse with TraceMismatch.
GOOD_LINE = {
    "t": 0, "prices_before": [0, 0], "bids": [[0, 1], [1]], "excess": [0, 1],
    "draws": [
        {"item": 0, "candidates": [0], "chosen": 0},
        {"item": 1, "candidates": [0, 1], "chosen": 1},
    ],
    "prices_after": [1, 1], "provisional": [[0], [1]],
}
MALFORMED_LINES = [
    "not json",
    '{"t": 0}',  # missing keys
    "5",  # not an object
    json.dumps({**GOOD_LINE, "bids": [0, [1]]}),  # a bid that is not a list
    json.dumps({**GOOD_LINE, "draws": [{"item": 0, "chosen": 0}]}),
    json.dumps({**GOOD_LINE, "excess": [0, 2]}),  # item outside the universe
    json.dumps({**GOOD_LINE, "prices_before": 0}),
    json.dumps({**GOOD_LINE, "bids": [[0, True], [1]]}),  # a bool as an item
    json.dumps({"t": 0, "prices_before": [], "bids": [[]], "excess": [],
                "draws": [], "prices_after": [], "provisional": [[]]}),  # m = 0
    json.dumps({**GOOD_LINE, "bids": [], "excess": [], "draws": [],  # n = 0
                "prices_after": [0, 0], "provisional": []}),
    # scalars that are not JSON integers, or are JSON bools
    json.dumps({**GOOD_LINE, "t": False}),
    json.dumps({**GOOD_LINE, "t": 0.0}),
    json.dumps({**GOOD_LINE, "prices_before": [False, False]}),
    json.dumps({**GOOD_LINE, "prices_before": [0.0, 0.0]}),
    json.dumps({**GOOD_LINE, "prices_after": [1, True]}),
    json.dumps({**GOOD_LINE, "prices_after": [1, "1"]}),
    json.dumps({**GOOD_LINE, "draws": [
        {"item": False, "candidates": [0], "chosen": 0}, GOOD_LINE["draws"][1]]}),
    json.dumps({**GOOD_LINE, "draws": [
        GOOD_LINE["draws"][0], {"item": 1, "candidates": [0, True], "chosen": 1}]}),
    json.dumps({**GOOD_LINE, "draws": [
        GOOD_LINE["draws"][0], {"item": 1, "candidates": [0, 1], "chosen": True}]}),
    json.dumps({**GOOD_LINE, "draws": [
        GOOD_LINE["draws"][0], {"item": 1, "candidates": "01", "chosen": 1}]}),
    json.dumps({**GOOD_LINE, "draws": [
        GOOD_LINE["draws"][0], {"item": 1, "candidates": [0, 1], "chosen": 1.0}]}),
    # an item list naming an item twice, and keys outside the trace schema
    json.dumps({**GOOD_LINE, "bids": [[0, 1, 0], [1]]}),
    json.dumps({**GOOD_LINE, "excess": [0, 1, 1]}),
    json.dumps({**GOOD_LINE, "provisional": [[0, 0], [1]]}),
    json.dumps({**GOOD_LINE, "extra": 1}),
    json.dumps({**GOOD_LINE, "draws": [
        GOOD_LINE["draws"][0],
        {"item": 1, "candidates": [0, 1], "chosen": 1, "extra": 1}]}),
]


# Scenario JSON documents of the wrong shape, each of which `smra run
# --scenario` must refuse with exit code 2.
_GOOD_BIDDER = {
    "valuation": {"form": "additive", "weights": [1, 1]},
    "strategy": {"kind": "truthful"},
}
MALFORMED_SCENARIOS = [
    5,  # not an object
    {"name": ["x"], "m": 2, "bidders": [_GOOD_BIDDER]},  # name not a string
    {"name": "x", "m": True, "bidders": [  # m not an integer
        {**_GOOD_BIDDER, "valuation": {"form": "additive", "weights": [1]}}]},
    {"name": "x", "m": 2, "bidders": 5},  # bidders not a list
    {"name": "x", "m": 2, "bidders": [3]},  # a bidder that is not an object
    {"name": "x", "m": 2, "bidders": ["valuation strategy"]},
    {"name": "x", "m": 2, "bidders": [
        {**_GOOD_BIDDER, "strategy": {"kind": "scripted", "script": [5]}}]},
    {"name": "x", "m": 2, "bidders": [
        {**_GOOD_BIDDER, "valuation": {"form": "additive", "weights": 5}}]},
    {"name": "x", "m": 2, "bidders": [  # a JSON bool as an item
        {**_GOOD_BIDDER, "strategy": {"kind": "scripted", "script": [[True]]}}]},
    {"name": "x", "m": 2, "bidders": [  # a float universe size
        {**_GOOD_BIDDER, "valuation": {"form": "symmetric_step", "m": 2.0,
                                       "alpha_num": 1}}]},
    {"name": "x", "m": 1, "bidders": [  # JSON bools as integer fields
        {**_GOOD_BIDDER, "valuation": {"form": "symmetric_step", "m": True,
                                       "alpha_num": True}}]},
    {"name": "x", "m": 1, "bidders": [  # a JSON bool as universe_size
        {**_GOOD_BIDDER, "valuation": {"form": "additive", "weights": [1],
                                       "universe_size": True}}]},
    {"name": "x", "m": 1, "bidders": [  # a float universe_size
        {**_GOOD_BIDDER, "valuation": {"form": "additive", "weights": [1],
                                       "universe_size": 1.0}}]},
    {"name": "x", "m": 2, "bidders": [  # a script step naming an item twice
        {**_GOOD_BIDDER, "strategy": {"kind": "scripted", "script": [[0, 0]]}}]},
]
