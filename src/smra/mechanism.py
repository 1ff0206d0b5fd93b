"""Simultaneous ascending-price auction engine.

All items are sold in parallel over discrete rounds. Prices are integers
counted in steps of one price increment; they start at zero, and nobody
holds anything. Each round, every bidder submits a conditional bid: a set
of items disjoint from her current provisional holdings, to be paid for at
current price plus one increment. Every item demanded by at least one
bidder has its price raised by one step and is handed to a provisional
owner drawn uniformly among the bidders who demanded it (the displaced
owner was forbidden from demanding it, so ownership always moves). The
auction ends on the first round in which nobody demands anything; the
provisional assignment and prices become final.

Determinism: all randomness flows through one seeded generator, and the
generator is consulted only when an item has two or more demanders -- a
sole demander wins outright without advancing the random stream. Items
are settled in ascending index order. Identical seeds therefore give
identical auctions, bit for bit, on every platform.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from typing import Callable, IO, Optional, Sequence

from .errors import (Divergence, InvalidBid, TraceMismatch, UniverseMismatch,
                     require_int)
from .itemsets import items_of, mask_of, popcount_table, subset_sums
from .strategies import MEMOISABLE_PROPOSE, BidContext, Strategy
from .valuations import Valuation, common_universe

# Entries a PreparedBidders keeps per decision memo and in its sightings
# set, and rounds its segments span (rows and tail); a full store is
# emptied, so memory stays bounded.
DECISION_CACHE_LIMIT = 1 << 14


@dataclass(frozen=True)
class Draw:
    """One ownership draw: who contested an item and who won it."""

    item: int
    candidates: tuple[int, ...]
    chosen: int


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one round, masks in bitmask form."""

    t: int
    prices_before: tuple[int, ...]
    bids: tuple[int, ...]
    excess: int
    draws: tuple[Draw, ...]
    prices_after: tuple[int, ...]
    provisional: tuple[int, ...]


@dataclass(frozen=True)
class AuctionOutcome:
    """Final (or, when diverged, partial) result of an auction run."""

    allocation: tuple[int, ...]
    prices: tuple[int, ...]
    rounds: int
    records: Optional[tuple[RoundRecord, ...]]
    diverged: bool = False


def _plan_round(
    bids: Sequence[int], provisional: Sequence[int], m: int
) -> tuple[int, tuple[tuple, ...]]:
    """Check the bids and return (demanded mask, settlement steps).

    A non-empty bid must stay inside the universe and off its bidder's
    provisional set; the first offender raises InvalidBid. There is one
    step per demanded item, in ascending order: (item, bit, demanders,
    holder at round start or -1). An item changes hands only at its own
    step, so the plan is a function of (bids, provisional) alone.
    """
    demanded = 0
    for i, bid in enumerate(bids):
        if bid:
            if bid < 0 or bid >> m:
                raise InvalidBid(i, bid, f"items outside universe of size {m}")
            if bid & provisional[i]:
                raise InvalidBid(
                    i, bid,
                    f"bid overlaps own provisional set {provisional[i]:#x}",
                )
            demanded |= bid
    steps = []
    rest = demanded
    while rest:
        low = rest & -rest
        rest ^= low
        holder = next((i for i, held in enumerate(provisional) if held & low), -1)
        cands = tuple(i for i, bid in enumerate(bids) if bid & low)
        steps.append((low.bit_length() - 1, low, cands, holder))
    return demanded, tuple(steps)


def _settle(
    prices: list[int],
    provisional: list[int],
    steps: Sequence[tuple],
    choose: Callable[[tuple[int, ...]], int],
) -> bool:
    """Apply a plan's steps: raise each item's price one step and move it,
    in place. A sole demander wins outright; `choose(cands)` picks the
    winner only when two or more bidders contest an item. Returns whether
    `choose` was called, that is whether the round drew.
    """
    drew = False
    for j, low, cands, holder in steps:
        prices[j] += 1
        if len(cands) == 1:
            winner = cands[0]
        else:
            winner = choose(cands)
            drew = True
        if holder >= 0:
            provisional[holder] ^= low
        provisional[winner] |= low
    return drew


def _record(t: int, prices_before: tuple[int, ...], bids: tuple[int, ...],
            plan: tuple[int, tuple[tuple, ...]], prices_after: tuple[int, ...],
            held: tuple[int, ...]) -> RoundRecord:
    """Round t's record, built from its plan and the holdings after it:
    each step's winner is the demander that holds the item after the
    round (an item changes hands only at its own step)."""
    demanded, steps = plan
    draws = []
    for j, low, cands, _ in steps:
        for winner in cands:
            if held[winner] & low:
                break
        draws.append(Draw(j, cands, winner))
    return RoundRecord(t, prices_before, bids, demanded, tuple(draws),
                       prices_after, held)


def default_max_rounds(valuations: Sequence[Valuation]) -> int:
    """Generous round budget: enough for every price to climb past every
    value with slack, which bounds any surplus-respecting strategy mix."""
    m = valuations[0].universe_size
    top = max(v.value_table()[-1] for v in valuations)
    return len(valuations) * m * (top + 2)


class _Column(Sequence):
    """Bidder i's column of a list of per-round rows: a live, read-only
    history view, O(1) to build."""

    __slots__ = ("_rows", "_i")

    def __init__(self, rows: list[tuple[int, ...]], i: int):
        self._rows, self._i = rows, i

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, t):
        if type(t) is slice:
            return [row[self._i] for row in self._rows[t]]
        return self._rows[t][self._i]

    def __iter__(self):
        i = self._i
        return (row[i] for row in self._rows)


class PreparedBidders:
    """run_auction's setup of one bidder list and the owner of its caches,
    shared by its auctions in one process (a Scenario keeps one for its
    lifetime); its segments serve only untraced runs, and one that
    run_auction builds for a single call keeps none. Per bidder: value
    table, decision memo, the last-bid bits a memo key keeps, and
    propose; max_rounds is the default round budget. Raises as
    common_universe and value_table do. A memo maps (own set, prices,
    last bid minus own set or 0) to the rule's bid; it is None for a rule
    that is not memoised (see Strategy.depends_on), and one dict serves
    all bidders with one valuation object and equal rules.

    segments is the transition store, None when some rule is not
    memoised. Then each bid is a function of (own set, prices, last bid
    minus own set), and a plan of (bids, holdings), so a round is a
    function of its start state: (holdings, prices, last round's bids or
    None when no rule reads a last bid). segments maps a head state (see
    run_auction) to the stretch a run played from there: (price rows,
    holding rows, bid rows, (tail bids, tail plan)). The rows, k >= 0 of
    each, are the last k of that run's three histories, rounds that each
    demand something and draw nothing. The tail is the round that ends
    the stretch, drawing or demanding nothing. A head is admitted on its
    second sighting, tracked in the sightings set of state hashes: no
    state recurs within one auction (every round but the last raises a
    price), and many heads never recur at all. segment_rounds counts k + 1
    per segment and stays within DECISION_CACHE_LIMIT: a segment that
    would pass it empties segments first, and one longer than the limit
    is not stored. The sightings set is emptied at the same limit."""

    def __init__(self, valuations: Sequence[Valuation],
                 strategies: Sequence[Strategy]):
        n, m = len(valuations), common_universe(valuations)
        if len(strategies) != n:
            raise ValueError(f"{n} valuations but {len(strategies)} strategies")
        self.valuations, self.strategies, self.n, self.m = (
            valuations, strategies, n, m)
        shared: dict = {}
        self.memos = [shared.setdefault((id(v), s), {})
                      if type(s).propose in MEMOISABLE_PROPOSE else None
                      for v, s in zip(valuations, strategies)]
        self.value_tables = [v.value_table() for v in valuations]
        self.last_bid_bits = [
            -1 if s.depends_on == "last_bid" else 0 for s in strategies]
        self.proposers = [s.propose for s in strategies]
        self.max_rounds = default_max_rounds(valuations)
        self.reads_last_bid = any(self.last_bid_bits)
        self.sightings: set[int] = set()
        self.segments: dict | None = {} if None not in self.memos else None
        self.segment_rounds = 0


def run_auction(
    valuations: Sequence[Valuation],
    strategies: Sequence[Strategy],
    seed: int = 0,
    *,
    max_rounds: int | None = None,
    record_trace: bool = True,
    observer: (Callable[[int, tuple[int, ...], tuple[int, ...]], None]
               | None) = None,
    prepared: PreparedBidders | None = None,
) -> AuctionOutcome:
    """Run a full auction to termination.

    Bidder setup and caches are `prepared` if built from these very
    valuations and strategies (run_trials passes Scenario.prepared), else
    a new one, so a call without it reuses nothing from earlier calls and
    keeps no store: no head recurs within one auction. A traced run keeps
    no store either, so every record comes from a round it played. Each
    round every strategy sees a BidContext (current prices, own holdings,
    full histories) and proposes a bid mask. A memoised rule
    (see PreparedBidders) that has met its key before gets its remembered
    bid instead, without a propose call. A bidder's context is built on
    its first propose and refreshed on each later one; the price table is
    built once per round, on the first bidder that misses. The bids then
    go through _plan_round (the bid check), _settle and, when traced,
    _record, which replay_trace re-runs to check a trace. The histories
    are three lists of one row per settled round: prices, holdings
    entering it and bids. A context's own histories are its bidder's
    columns of the last two, as views.

    The first all-empty round settles nothing, is recorded like any other,
    and ends the auction. The observer, if given, is called after every
    settled round with (t, prices_after, holdings), the holdings a tuple
    of masks. run_trials measures λ this way, with
    oracle.RationalityScan.update as the observer.

    An untraced run of memoised rules with a store jumps over
    deterministic stretches. A head is round 0 or the round after one that
    drew. At a head the run looks its start state up in the prepared
    segments (see PreparedBidders). If a segment is there and its k rows
    fit (t + k <= max_rounds), the run extends the three histories by the
    rows, observes each jumped round from them as running it would, moves
    to round t + k, and settles the tail's plan with its own draws: no
    propose or memo lookup, and the contexts are left as they were. The
    tail draws or ends the auction, so the next round is a head again.
    Jumped rounds make no draw, so every outcome is that of running them;
    a segment that does not fit runs round by round and diverges at the
    cold round. A head not found is sighted, or marked on its second
    sighting; when the tail of a marked stretch settles, the run stores
    its segment from its own histories. A run that diverges or raises
    inside a stretch stores nothing.

    Raises as PreparedBidders does, ValueError for a seed that is not an
    int (None would seed from OS entropy) or a max_rounds that is not an
    int >= 0, InvalidBid for a bid outside the universe or overlapping the
    bidder's own holdings, and Divergence (carrying the partial outcome)
    if a round at or past max_rounds still demands something.
    """
    fresh = (prepared is None or prepared.valuations is not valuations
             or prepared.strategies is not strategies)
    if fresh:
        prepared = PreparedBidders(valuations, strategies)
    # the store serves untraced runs of a prepared, fully memoised list
    segments = None if fresh or record_trace else prepared.segments
    max_rounds = (prepared.max_rounds if max_rounds is None
                  else require_int("max_rounds", max_rounds, 0))
    n, m = prepared.n, prepared.m
    popcounts = popcount_table(m)

    prices = [0] * m
    provisional = [0] * n
    held = (0,) * n
    price_history: list[tuple[int, ...]] = [(0,) * m]
    held_history: list[tuple[int, ...]] = [held]
    bid_history: list[tuple[int, ...]] = []
    contexts: list[BidContext | None] = [None] * n
    proposers = prepared.proposers
    memos = prepared.memos
    last_bid_bits = prepared.last_bid_bits
    sightings = prepared.sightings
    reads_last_bid = prepared.reads_last_bid
    choose = random.Random(require_int("seed", seed)).choice
    records: list[RoundRecord] | None = [] if record_trace else None
    bidders = range(n)
    bids = (0,) * n
    jumps = head = segments is not None
    mark = None

    t = 0
    while True:
        current_prices = price_history[-1]
        last_bids = bids
        plan = None
        if head:
            head = False
            state = (held, current_prices, last_bids if reads_last_bid else None)
            segment = segments.get(state)
            if segment is None:
                sighting = hash(state)
                if sighting in sightings:
                    mark, marked_at = state, t
                else:
                    if len(sightings) >= DECISION_CACHE_LIMIT:
                        sightings.clear()
                    sightings.add(sighting)
            elif t + len(segment[0]) <= max_rounds:
                price_rows, held_rows, bid_rows, (bids, plan) = segment
                price_history.extend(price_rows)
                held_history.extend(held_rows)
                bid_history.extend(bid_rows)
                if observer is not None:
                    for u, row in enumerate(zip(price_rows, held_rows), t):
                        observer(u, *row)
                current_prices, held = price_history[-1], held_history[-1]
                prices[:], provisional[:] = current_prices, held
                t += len(price_rows)
        if plan is None:
            price_sums = None
            proposed = []
            for i in bidders:
                own = provisional[i]
                memo = memos[i]
                if memo is not None:
                    key = (own, current_prices,
                           last_bids[i] & last_bid_bits[i] & ~own)
                    bid = memo.get(key)
                    if bid is not None:
                        proposed.append(bid)
                        continue
                if price_sums is None:
                    price_sums = subset_sums(prices)
                ctx = contexts[i]
                if ctx is None:
                    ctx = contexts[i] = BidContext(
                        bidder=i, valuation=valuations[i], t=t,
                        prices=current_prices, price_history=price_history,
                        own_set=own, own_set_history=_Column(held_history, i),
                        own_bid_history=_Column(bid_history, i), m=m,
                        value_table=prepared.value_tables[i],
                        price_sums=price_sums, popcounts=popcounts,
                    )
                else:
                    ctx.t = t
                    ctx.prices = current_prices
                    ctx.own_set = own
                    ctx.price_sums = price_sums
                bid = proposers[i](ctx)
                if memo is not None:
                    if len(memo) >= DECISION_CACHE_LIMIT:
                        memo.clear()
                    memo[key] = bid
                proposed.append(bid)
            bids = tuple(proposed)
            plan = _plan_round(bids, held, m)
        demanded, steps = plan
        if demanded and t >= max_rounds:
            raise Divergence(max_rounds, AuctionOutcome(
                allocation=held, prices=current_prices, rounds=t,
                records=tuple(records) if records is not None else None,
                diverged=True))

        drew = _settle(prices, provisional, steps, choose)
        if mark is not None and (drew or not demanded):
            spanned = t - marked_at + 1
            if spanned <= DECISION_CACHE_LIMIT:
                if prepared.segment_rounds + spanned > DECISION_CACHE_LIMIT:
                    segments.clear()
                    prepared.segment_rounds = 0
                segments[mark] = (
                    tuple(price_history[marked_at + 1:]),
                    tuple(held_history[marked_at + 1:]),
                    tuple(bid_history[marked_at:]), (bids, plan))
                prepared.segment_rounds += spanned
            mark = None
        head = jumps and drew
        new_prices = tuple(prices)
        held = tuple(provisional)
        if records is not None:
            records.append(
                _record(t, current_prices, bids, plan, new_prices, held))
        if not demanded:
            return AuctionOutcome(
                allocation=held, prices=current_prices, rounds=t,
                records=tuple(records) if records is not None else None,
            )

        price_history.append(new_prices)
        held_history.append(held)
        bid_history.append(bids)
        if observer is not None:
            observer(t, new_prices, held)
        t += 1


# ---------------------------------------------------------------------------
# Traces: JSONL serialization and verifying replay

_TRACE_KEYS = {field.name for field in fields(RoundRecord)}
_DRAW_KEYS = {field.name for field in fields(Draw)}


def _record_to_json(record: RoundRecord) -> dict:
    return {
        "t": record.t,
        "prices_before": list(record.prices_before),
        "bids": [list(items_of(b)) for b in record.bids],
        "excess": list(items_of(record.excess)),
        "draws": [
            {"item": d.item, "candidates": list(d.candidates), "chosen": d.chosen}
            for d in record.draws
        ],
        "prices_after": list(record.prices_after),
        "provisional": [list(items_of(s)) for s in record.provisional],
    }


def write_trace_jsonl(records: Sequence[RoundRecord], file: IO[str] | str) -> None:
    """One JSON object per line, one line per round."""
    if isinstance(file, str):
        with open(file, "w", encoding="utf-8") as handle:
            write_trace_jsonl(records, handle)
        return
    for record in records:
        file.write(json.dumps(_record_to_json(record), separators=(",", ":")))
        file.write("\n")


def _int(x) -> int:
    return require_int("trace entry", x, error=TypeError)


def _draw(d) -> Draw:
    if set(d) != _DRAW_KEYS:
        raise ValueError(f"draw {d!r} does not have exactly the keys "
                         f"{sorted(_DRAW_KEYS)}")
    return Draw(_int(d["item"]), tuple(map(_int, d["candidates"])),
                _int(d["chosen"]))


def _numbered_lines(file: IO[str]):
    try:
        yield from enumerate(file)
    except UnicodeDecodeError as exc:
        raise TraceMismatch(f"trace is not UTF-8 ({exc})") from None


def read_trace_jsonl(file: IO[str] | str) -> list[RoundRecord]:
    """Parse a trace written by write_trace_jsonl back into records. A
    malformed line raises TraceMismatch, as does a key outside the trace
    schema (in a round or a draw), an item list naming an item twice, or
    a round number, price or draw entry that is not an int (a bool
    included). So do a trace that is not UTF-8 and JSON nested too deeply
    to parse."""
    if isinstance(file, str):
        with open(file, "r", encoding="utf-8") as handle:
            return read_trace_jsonl(handle)
    records = []
    for line_no, line in _numbered_lines(file):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TraceMismatch(f"trace line {line_no}: bad JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise TraceMismatch(f"trace line {line_no}: not a JSON object")
        if obj.keys() != _TRACE_KEYS:
            raise TraceMismatch(
                f"trace line {line_no}: missing keys "
                f"{sorted(_TRACE_KEYS - obj.keys())}, unknown keys "
                f"{sorted(obj.keys() - _TRACE_KEYS)}"
            )
        try:
            m = len(obj["prices_before"])
            record = RoundRecord(
                t=_int(obj["t"]),
                prices_before=tuple(map(_int, obj["prices_before"])),
                bids=tuple(mask_of(b, m) for b in obj["bids"]),
                excess=mask_of(obj["excess"], m),
                draws=tuple(_draw(d) for d in obj["draws"]),
                prices_after=tuple(map(_int, obj["prices_after"])),
                provisional=tuple(mask_of(s, m) for s in obj["provisional"]),
            )
        except (TypeError, ValueError, UniverseMismatch) as exc:
            raise TraceMismatch(
                f"trace line {line_no}: malformed record ({exc!r})"
            ) from None
        if not (record.prices_before and record.bids):
            raise TraceMismatch(
                f"trace line {line_no}: a round needs at least one item "
                "and one bidder"
            )
        records.append(record)
    return records


@dataclass(frozen=True)
class ReplayResult:
    prices: tuple[int, ...]
    provisional: tuple[int, ...]
    rounds: int
    terminal: bool


def replay_trace(records: Sequence[RoundRecord]) -> ReplayResult:
    """Re-run a complete trace from the empty start, verifying every step.

    Every round goes through the same plan, settlement and record as
    run_auction, with each contested item handed to its recorded winner
    (who must be among the recomputed candidates). The rebuilt record must
    equal the recorded one: round number, prices, demanded set, every draw
    and the provisional sets. Any discrepancy raises TraceMismatch. Returns
    the final state and whether the trace ends with the terminal all-empty
    round.
    """
    if not records:
        raise TraceMismatch("empty trace")
    m = len(records[0].prices_before)
    n = len(records[0].bids)
    prices = [0] * m
    provisional = [0] * n
    terminal = False
    rounds = 0
    for expect_t, record in enumerate(records):
        if terminal:
            raise TraceMismatch("rounds continue after the terminal round")
        if len(record.bids) != n:
            raise TraceMismatch(f"round {expect_t}: bidder count changed")
        try:
            plan = _plan_round(record.bids, provisional, m)
        except InvalidBid as exc:
            raise TraceMismatch(f"round {expect_t}: {exc}") from None
        contested = iter([d for d in record.draws if len(d.candidates) > 1])

        def choose(cands: tuple[int, ...]) -> int:
            draw = next(contested, None)
            if draw is None or tuple(draw.candidates) != cands:
                raise TraceMismatch(
                    f"round {expect_t}: next recorded contested draw {draw} "
                    f"does not match candidates {cands}"
                )
            if draw.chosen not in cands:
                raise TraceMismatch(
                    f"round {expect_t}, item {draw.item}: chosen bidder "
                    f"{draw.chosen} never bid on it"
                )
            return draw.chosen

        prices_before = tuple(prices)
        _settle(prices, provisional, plan[1], choose)
        replayed = _record(expect_t, prices_before, tuple(record.bids), plan,
                           tuple(prices), tuple(provisional))
        for field in fields(RoundRecord):
            recorded = getattr(record, field.name)
            if recorded != getattr(replayed, field.name):
                raise TraceMismatch(
                    f"round {expect_t}: recorded {field.name} {recorded} != "
                    f"replayed {getattr(replayed, field.name)}"
                )
        terminal = not replayed.excess
        rounds += not terminal
    return ReplayResult(prices=tuple(prices), provisional=tuple(provisional),
                        rounds=rounds, terminal=terminal)
