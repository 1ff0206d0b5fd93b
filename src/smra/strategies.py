"""Bidding strategies: per-round maps from observations to conditional bids.

Every round each bidder sees a BidContext -- current prices, her own
provisional holdings, and the full public history -- and proposes a bid: a
set of items disjoint from her holdings, to be paid at current price plus
one increment each. The rules here differ in how much they reason about
the risk of winning (the exposure problem):

  truthful            maximize conditional surplus outright,
  locally_optimal     hill-climb from the previous bid by single
                      add/delete/swap moves,
  secure_profit_max   maximize surplus among bids that can never leave the
                      bidder paying more than her value, whatever subset
                      she ends up winning,
  scripted            replay a fixed list of bids (for worked examples).

Custom rules plug in through the same Strategy interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InsecureProvisionalState
from .itemsets import full_mask, items_of, iter_items, mask_of, submasks
from .valuations import Valuation

SECURE_VARIANTS = ("incremented", "posted")
LOCAL_STARTS = ("previous", "empty")


def _require_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """Raise ValueError naming the option unless value is one of choices."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(slots=True)
class BidContext:
    """What one bidder observes when asked for a bid.

    price_history[t] is the price vector entering round t; own_set_history
    and own_bid_history are this bidder's holdings entering each round and
    the bids she made. value_table, price_sums and popcounts are
    mask-indexed lookup tables (worth of every bundle; posted price of
    every bundle, itemsets.subset_sums(prices); bundle sizes,
    itemsets.popcount_table(m)). The runner always supplies them, and
    every rule prices bundles through them alone. The history sequences
    are live: they grow as rounds settle. price_history is the runner's
    list and must not be mutated; the two own histories are read-only
    views of this bidder's column of the runner's per-round holding and
    bid rows (len, int and slice indexing, iteration; a slice is a list).

    The runner builds a bidder's context on its first propose, with full
    histories whatever the round, and refreshes it on each later propose.
    The built-in truthful, secure and locally optimal rules are memoised
    in the run's PreparedBidders, per valuation object and equal rule,
    keyed by (own set, prices) -- plus last round's bid minus the own set
    for local search from the previous bid -- so on a repeated key they
    are not asked and their context is left as it was. Custom rules
    (CallableStrategy, wrappers, subclasses overriding propose) and
    scripted bids are asked every round, each time with their bidder's one
    context refreshed.
    """

    bidder: int
    valuation: Valuation
    t: int
    prices: tuple[int, ...]
    price_history: Sequence[tuple[int, ...]]
    own_set: int
    own_set_history: Sequence[int]
    own_bid_history: Sequence[int]
    m: int
    value_table: Sequence[int]
    price_sums: Sequence[int]
    popcounts: Sequence[int]


# ---------------------------------------------------------------------------
# Truthful bidding


def truthful_bid(ctx: BidContext) -> int:
    """Surplus-maximizing bid, ignoring exposure risk.

    Maximizes v(own + T) - incremented price of T over all bids T. Ties
    break toward fewer items, then the smallest bitmask, so at zero
    marginal surplus the bidder drops out (the empty bid wins its ties).
    """
    own = ctx.own_set
    comp = full_mask(ctx.m) & ~own
    table = ctx.value_table
    sums = ctx.price_sums
    pc = ctx.popcounts
    best_u = table[own]
    best_card = 0
    best_mask = 0
    sub = comp
    while sub:
        u = table[own | sub] - sums[sub] - pc[sub]
        if u > best_u:
            best_u, best_card, best_mask = u, pc[sub], sub
        elif u == best_u:
            card = pc[sub]
            if card < best_card or (card == best_card and sub < best_mask):
                best_card, best_mask = card, sub
        sub = (sub - 1) & comp
    return best_mask


# ---------------------------------------------------------------------------
# Local search


def _climb(ctx: BidContext, start: int, comp: int, own: int) -> tuple[int, int]:
    """Best-improvement hill climb over single add/delete/swap moves.

    Returns (bid, its conditional value v(own+bid) - cost(bid)). Moves are
    tried deletes, then adds, then swaps, each by ascending item (by
    (out, in) for swaps), and only a strictly larger gain replaces the
    best, so ties go to the first move in that order.
    """
    table = ctx.value_table
    sums = ctx.price_sums
    pc = ctx.popcounts

    def util(mask: int) -> int:
        return table[own | mask] - sums[mask] - pc[mask]

    current = start
    u = util(current)
    while True:
        best_gain = 0
        best_mask = current
        for j in iter_items(current):  # deletes
            cand = current ^ (1 << j)
            gain = util(cand) - u
            if gain > best_gain:
                best_gain, best_mask = gain, cand
        outside = comp & ~current
        for j in iter_items(outside):  # adds
            cand = current | (1 << j)
            gain = util(cand) - u
            if gain > best_gain:
                best_gain, best_mask = gain, cand
        for out in iter_items(current):  # swaps
            base = current ^ (1 << out)
            for inn in iter_items(outside):
                cand = base | (1 << inn)
                gain = util(cand) - u
                if gain > best_gain:
                    best_gain, best_mask = gain, cand
        if best_gain == 0:
            return current, u
        current = best_mask
        u += best_gain


def locally_optimal_bid(ctx: BidContext, start: str = "previous") -> int:
    """Hill-climbing bid: refine the previous bid by single-item moves.

    Starts from last round's bid minus anything won since (or from the
    empty bid, per `start`), and repeatedly applies the best strictly
    improving add/delete/swap. If the climb settles on a bid whose
    conditional surplus is not strictly positive, the climb is redone from
    the empty bid, so the returned bid is either empty or strictly
    profitable; either way no single-item move can improve it.
    """
    _require_choice("start", start, LOCAL_STARTS)
    own = ctx.own_set
    comp = full_mask(ctx.m) & ~own
    if start == "previous" and ctx.own_bid_history:
        first = ctx.own_bid_history[-1] & comp
    else:
        first = 0
    bid, u = _climb(ctx, first, comp, own)
    if bid and u <= ctx.value_table[own]:
        bid, _ = _climb(ctx, 0, comp, own)
    return bid


def is_locally_optimal(ctx: BidContext, bid: int) -> bool:
    """Whether no single add, delete, or swap strictly improves the bid.

    The climb only takes strictly improving moves, so it stays put exactly
    when the bid it starts from has no improving neighbor.
    """
    own = ctx.own_set
    comp = full_mask(ctx.m) & ~own
    if bid & ~comp:
        return False
    return _climb(ctx, bid, comp, own)[0] == bid


# ---------------------------------------------------------------------------
# Secure bidding


def is_secure(ctx: BidContext, bid: int, variant: str = "incremented") -> bool:
    """Whether the bid can never leave the bidder overpaying.

    A bid T is secure if every subset of holdings-plus-bid is worth at
    least its personalized price: held items count at the posted price,
    newly bid items at posted price plus one increment (the price the
    bidder has offered to pay). The "posted" variant drops the increment.
    """
    _require_choice("variant", variant, SECURE_VARIANTS)
    increment = variant == "incremented"
    own = ctx.own_set
    reach = own | bid
    table = ctx.value_table
    sums = ctx.price_sums
    pc = ctx.popcounts
    for sub in submasks(reach):
        personalized = sums[sub] + (pc[sub & ~own] if increment else 0)
        if table[sub] < personalized:
            return False
    return True


def profit_max_secure_bid(ctx: BidContext, variant: str = "incremented") -> int:
    """Most profitable secure bid.

    Maximizes conditional surplus over secure bids only. Ties break toward
    bidding rather than quitting (a nonempty secure bid beats the empty bid
    at equal surplus), then toward fewer items, then the smallest bitmask.
    Raises InsecureProvisionalState when even the empty bid is insecure,
    i.e. the holdings already contain a subset priced above its worth.
    """
    _require_choice("variant", variant, SECURE_VARIANTS)
    own = ctx.own_set
    m = ctx.m
    comp = full_mask(m) & ~own
    table = ctx.value_table
    sums = ctx.price_sums
    pc = ctx.popcounts
    increment = variant == "incremented"
    size = 1 << m
    # contaminated[X]: some subset of X is priced above its worth, so no
    # bid whose reach includes X can be secure.
    contaminated = bytearray(size)
    for x in range(size):
        personalized = sums[x] + (pc[x & ~own] if increment else 0)
        if table[x] < personalized:
            contaminated[x] = 1
            continue
        rest = x
        while rest:
            low = rest & -rest
            rest ^= low
            if contaminated[x ^ low]:
                contaminated[x] = 1
                break
    if contaminated[own]:
        witness = next(sub for sub in submasks(own) if table[sub] < sums[sub])
        raise InsecureProvisionalState(ctx.bidder, witness)
    best_u = table[own]
    best_mask = 0
    best_card = 0
    sub = comp
    while sub:
        if not contaminated[own | sub]:
            u = table[own | sub] - sums[sub] - pc[sub]
            if u > best_u:
                best_u, best_card, best_mask = u, pc[sub], sub
            elif u == best_u:
                card = pc[sub]
                if best_mask == 0 or card < best_card or (
                    card == best_card and sub < best_mask
                ):
                    best_card, best_mask = card, sub
        sub = (sub - 1) & comp
    return best_mask


# ---------------------------------------------------------------------------
# Scripted bidding


def scripted_bid(ctx: BidContext, script: Sequence[int]) -> int:
    """Round t plays script[t] (empty once the script runs out), minus any
    items already held so the bid stays valid."""
    raw = script[ctx.t] if ctx.t < len(script) else 0
    return raw & full_mask(ctx.m) & ~ctx.own_set


# ---------------------------------------------------------------------------
# Strategy objects


class Strategy(ABC):
    """A bidding rule. propose() must return a mask disjoint from the
    bidder's provisional holdings.

    `depends_on` declares what a built-in rule's bid is a function of,
    besides the bidder's valuation, so that run_auction can memoise it in
    a PreparedBidders: "state" is the own provisional set and the prices;
    "last_bid" adds last round's bid minus the own set (0 in round 0). The
    engine reuses a remembered bid only for the truthful, secure and
    locally optimal rules' own propose. Every other rule -- scripted,
    CallableStrategy, wrappers, and any subclass that overrides propose --
    is asked every round with a freshly refreshed BidContext.
    """

    kind: str = "abstract"
    depends_on: str | None = None

    @abstractmethod
    def propose(self, ctx: BidContext) -> int:
        """The bid for this round."""

    def spec_dict(self) -> dict:
        """JSON-ready description; inverse of strategy_from_spec."""
        return {"kind": self.kind}


@dataclass(frozen=True)
class TruthfulStrategy(Strategy):
    kind = "truthful"
    depends_on = "state"

    def propose(self, ctx: BidContext) -> int:
        return truthful_bid(ctx)


@dataclass(frozen=True)
class LocallyOptimalStrategy(Strategy):
    start: str = "previous"
    kind = "locally_optimal"

    def __post_init__(self):
        _require_choice("start", self.start, LOCAL_STARTS)

    @property
    def depends_on(self) -> str:
        return "last_bid" if self.start == "previous" else "state"

    def propose(self, ctx: BidContext) -> int:
        return locally_optimal_bid(ctx, self.start)

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "local_start": self.start}


@dataclass(frozen=True)
class SecureProfitMaxStrategy(Strategy):
    variant: str = "incremented"
    kind = "secure_profit_max"
    depends_on = "state"

    def __post_init__(self):
        _require_choice("variant", self.variant, SECURE_VARIANTS)

    def propose(self, ctx: BidContext) -> int:
        return profit_max_secure_bid(ctx, self.variant)

    def spec_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.variant != "incremented":
            d["secure_variant"] = self.variant
        return d


@dataclass(frozen=True)
class ScriptedStrategy(Strategy):
    script: tuple[int, ...]
    kind = "scripted"

    def __post_init__(self):
        object.__setattr__(self, "script", tuple(self.script))

    def propose(self, ctx: BidContext) -> int:
        return scripted_bid(ctx, self.script)

    def spec_dict(self) -> dict:
        return {
            "kind": self.kind,
            "script": [list(items_of(mask)) for mask in self.script],
        }


@dataclass(frozen=True)
class CallableStrategy(Strategy):
    """Adapter for ad-hoc rules: any callable BidContext -> mask."""

    fn: Callable[[BidContext], int]
    kind = "custom"

    def propose(self, ctx: BidContext) -> int:
        return self.fn(ctx)

    def spec_dict(self) -> dict:
        raise ValueError("custom strategies have no JSON form")


# The rules whose bids the engine may memoise: their propose reads nothing
# but what `depends_on` declares.
MEMOISABLE_PROPOSE = frozenset(
    (TruthfulStrategy.propose, LocallyOptimalStrategy.propose,
     SecureProfitMaxStrategy.propose)
)


def strategy_from_spec(spec: dict, m: int) -> Strategy:
    """Build a strategy from its JSON description (inverse of spec_dict)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"strategy spec must be a dict with a 'kind': {spec!r}")
    kind = spec["kind"]
    if kind == "truthful":
        return TruthfulStrategy()
    if kind == "locally_optimal":
        return LocallyOptimalStrategy(spec.get("local_start", "previous"))
    if kind == "secure_profit_max":
        return SecureProfitMaxStrategy(spec.get("secure_variant", "incremented"))
    if kind == "scripted":
        if "script" not in spec:
            raise ValueError("scripted strategy needs a 'script' list")
        try:
            script = tuple(mask_of(step, m) for step in spec["script"])
        except TypeError as exc:
            raise ValueError(f"malformed scripted strategy spec: {exc}") from None
        return ScriptedStrategy(script)
    raise ValueError(f"unknown strategy kind {kind!r}")
