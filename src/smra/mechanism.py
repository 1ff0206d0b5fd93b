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
from .itemsets import items_of, mask_of, popcount_table
from .strategies import MEMOISABLE_PROPOSE, BidContext, Strategy
from .valuations import Valuation, common_universe

# Entries a PreparedBidders keeps per decision memo, round cache and
# sightings set, and rounds it keeps in segments; a full cache is emptied,
# so memory stays bounded.
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
    draws: list[Draw] | None,
) -> bool:
    """Apply a plan's steps: raise each item's price one step and move it,
    in place. A sole demander wins outright; `choose(cands)` picks the
    winner only when two or more bidders contest an item. Draws are
    appended to `draws` when it is a list. Returns whether `choose` was
    called, that is whether the round drew.
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
        if draws is not None:
            draws.append(Draw(j, cands, winner))
    return drew


def default_max_rounds(valuations: Sequence[Valuation]) -> int:
    """Generous round budget: enough for every price to climb past every
    value with slack, which bounds any surplus-respecting strategy mix."""
    m = valuations[0].universe_size
    top = max(v.value_table()[-1] for v in valuations)
    return len(valuations) * m * (top + 2)


def masked_price_sums(prices: Sequence[int], m: int) -> list[int]:
    """sums[mask] = total posted price of the bundle, for every mask."""
    sums = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        sums[mask] = sums[mask & (mask - 1)] + prices[low.bit_length() - 1]
    return sums


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
    lifetime). Per bidder: value table, decision memo, the last-bid bits
    a memo key keeps, and propose; max_rounds is the default round
    budget. Raises as common_universe and value_table do. A memo maps
    (own set, prices, last bid minus own set or 0) to the rule's bid; it
    is None for a rule that is not memoised (see Strategy.depends_on),
    and one dict serves all bidders with one valuation object and equal
    rules.

    rounds is the round cache: it maps a round-start state (holdings,
    prices, last round's bids or None when no rule reads a last bid) to
    that round's (bids, plan). It exists only when every rule is memoised.
    Then each bid is a function of (own set, prices, last bid minus own
    set), all read off the state, and the plan is a function of (bids,
    holdings), so one lookup stands for the whole round's proposing and
    planning. A state is admitted on its second sighting, tracked in the
    sightings set of state hashes: no state recurs within one auction
    (every round but the last raises a price), and many never recur at
    all. A list with a scripted, callable or wrapped rule has rounds =
    None. Each cache is emptied at DECISION_CACHE_LIMIT entries.

    segments maps a head state (see run_auction) to the deterministic
    stretch a run played from there: at least 2 rounds, each demanding
    something and drawing nothing. A segment is (k, price rows, holding
    rows, bid rows): the last k rows of that run's three histories, so
    its last holding and bid rows are where a jump lands. segment_rounds
    counts the rounds segments span and stays within DECISION_CACHE_LIMIT: a
    segment that would pass it empties segments first, and a stretch
    longer than the limit is not stored."""

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
        self.rounds: dict | None = {} if None not in self.memos else None
        self.sightings: set[int] = set()
        self.segments: dict = {}
        self.segment_rounds = 0


def run_auction(
    valuations: Sequence[Valuation],
    strategies: Sequence[Strategy],
    seed: int = 0,
    *,
    max_rounds: int | None = None,
    record_trace: bool = True,
    observer: Callable[[int, tuple[int, ...], list[int]], None] | None = None,
    prepared: PreparedBidders | None = None,
) -> AuctionOutcome:
    """Run a full auction to termination.

    Bidder setup and caches are `prepared` if built from these very
    valuations and strategies (run_trials passes Scenario.prepared), else
    a new one, so a call without it reuses nothing from earlier calls.
    Each round every strategy sees a BidContext (current prices, own
    holdings, full histories) and proposes a bid mask. A memoised rule
    (see PreparedBidders) that has met its key before gets its remembered
    bid instead, without a propose call. A bidder's context is built on
    its first propose and refreshed on each later one; the price table is
    built once per round, on the first bidder that misses. The bids then
    go through _plan_round (the bid check) and _settle, which replay_trace
    re-runs to check a trace. The histories are three lists of one row per
    settled round: prices, holdings entering it and bids. A context's own
    histories are its bidder's columns of the last two, as views.

    When every rule is memoised, a round whose start state is in the
    prepared round cache (see PreparedBidders) takes its bids and plan
    from there, with no propose, memo lookup or bid check, and leaves the
    contexts as they are. The draws, the max_rounds check, the record,
    the histories and the observer are the same on every round, cached or
    not. Exceptions are never remembered, so a round whose bids or plan
    raise is never cached.
    The first all-empty round settles nothing, is recorded like any other,
    and ends the auction. The observer, if given, is called after every
    settled round with (t, prices_after, provisional_masks); the masks
    list is live and must not be mutated. run_trials measures λ this way,
    with oracle.RationalityScan.update as the observer.

    A run with no observer and no trace jumps over deterministic stretches.
    A head is round 0 or the state after a round that drew. At a head the
    run looks the state up in the prepared segments (see PreparedBidders).
    If a segment is there and its k rounds fit (t + k <= max_rounds), it
    sets prices, holdings and last bids to the segment's last rows,
    extends the three histories by its rows, adds k to t and leaves the
    contexts as a cached round does. Those rounds make no draw, so every
    outcome and byte is that of running them; a segment that does not fit
    runs round by round and diverges at the cold round. If none is there,
    the run marks the head. When the stretch from a marked head ends at a
    round that draws or demands nothing, after k >= 2 rounds, the run
    stores the head's segment, the last k rows of its own histories. A
    run that diverges or raises inside a stretch stores nothing.

    Raises as PreparedBidders does, ValueError for a seed that is not an
    int (None would seed from OS entropy) or a max_rounds that is not an
    int >= 0, InvalidBid for a bid outside the universe or overlapping the
    bidder's own holdings, and Divergence (carrying the partial outcome)
    if a round at or past max_rounds still demands something.
    """
    if (prepared is None or prepared.valuations is not valuations
            or prepared.strategies is not strategies):
        prepared = PreparedBidders(valuations, strategies)
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
    rounds = prepared.rounds
    sightings = prepared.sightings
    segments = prepared.segments
    reads_last_bid = prepared.reads_last_bid
    choose = random.Random(require_int("seed", seed)).choice
    records: list[RoundRecord] | None = [] if record_trace else None
    bidders = range(n)
    bids = (0,) * n
    jumps = head = rounds is not None and observer is None and records is None
    mark = None

    t = 0
    while True:
        current_prices = price_history[-1]
        last_bids = bids
        if rounds is not None:
            state = (held, current_prices, last_bids if reads_last_bid else None)
            if head:
                head = False
                segment = segments.get(state)
                if segment is None:
                    mark, marked_at = state, t
                elif t + segment[0] <= max_rounds:
                    k, price_rows, held_rows, bid_rows = segment
                    prices[:] = price_rows[-1]
                    held, bids = held_rows[-1], bid_rows[-1]
                    provisional[:] = held
                    price_history.extend(price_rows)
                    held_history.extend(held_rows)
                    bid_history.extend(bid_rows)
                    t += k
                    continue
            cached = rounds.get(state)
        else:
            state = cached = None
        if cached is not None:
            bids, plan = cached
        else:
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
                    price_sums = masked_price_sums(prices, m)
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
            if state is not None:
                sighting = hash(state)
                if sighting in sightings:
                    if len(rounds) >= DECISION_CACHE_LIMIT:
                        rounds.clear()
                    rounds[state] = bids, plan
                else:
                    if len(sightings) >= DECISION_CACHE_LIMIT:
                        sightings.clear()
                    sightings.add(sighting)
        demanded, steps = plan
        if demanded and t >= max_rounds:
            partial = AuctionOutcome(
                allocation=held, prices=current_prices, rounds=t,
                records=tuple(records) if records is not None else None,
                diverged=True,
            )
            raise Divergence(max_rounds, partial)

        draws: list[Draw] | None = [] if records is not None else None
        drew = _settle(prices, provisional, steps, choose, draws)
        if mark is not None and (drew or not demanded):
            k = t - marked_at
            if 2 <= k <= DECISION_CACHE_LIMIT:
                if prepared.segment_rounds + k > DECISION_CACHE_LIMIT:
                    segments.clear()
                    prepared.segment_rounds = 0
                segments[mark] = (
                    k, tuple(price_history[-k:]), tuple(held_history[-k:]),
                    tuple(bid_history[-k:]))
                prepared.segment_rounds += k
            mark = None
        head = jumps and drew
        new_prices = tuple(prices)
        held = tuple(provisional)
        if records is not None:
            records.append(
                RoundRecord(
                    t=t,
                    prices_before=current_prices,
                    bids=bids,
                    excess=demanded,
                    draws=tuple(draws),
                    prices_after=new_prices,
                    provisional=held,
                )
            )
        if not demanded:
            return AuctionOutcome(
                allocation=held, prices=current_prices, rounds=t,
                records=tuple(records) if records is not None else None,
            )

        price_history.append(new_prices)
        held_history.append(held)
        bid_history.append(bids)
        if observer is not None:
            observer(t, new_prices, provisional)
        t += 1


# ---------------------------------------------------------------------------
# Traces: JSONL serialization and verifying replay

_TRACE_KEYS = {
    "t", "prices_before", "bids", "excess", "draws", "prices_after",
    "provisional",
}
_DRAW_KEYS = {"item", "candidates", "chosen"}


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


def _items(items, m: int) -> int:
    mask = mask_of(items, m)
    if mask.bit_count() != len(items):
        raise ValueError(f"item list {items!r} names an item twice")
    return mask


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
    schema (in a round or a draw), an item list naming an item twice, or a round number, price
    or draw entry that is not an int (a bool included). So do a trace
    that is not UTF-8 and JSON nested too deeply to parse."""
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
                bids=tuple(_items(b, m) for b in obj["bids"]),
                excess=_items(obj["excess"], m),
                draws=tuple(_draw(d) for d in obj["draws"]),
                prices_after=tuple(map(_int, obj["prices_after"])),
                provisional=tuple(_items(s, m) for s in obj["provisional"]),
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
            demanded, steps = _plan_round(record.bids, provisional, m)
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
        draws: list[Draw] = []
        _settle(prices, provisional, steps, choose, draws)
        replayed = RoundRecord(
            t=expect_t,
            prices_before=prices_before,
            bids=tuple(record.bids),
            excess=demanded,
            draws=tuple(draws),
            prices_after=tuple(prices),
            provisional=tuple(provisional),
        )
        for field in fields(RoundRecord):
            recorded = getattr(record, field.name)
            if recorded != getattr(replayed, field.name):
                raise TraceMismatch(
                    f"round {expect_t}: recorded {field.name} {recorded} != "
                    f"replayed {getattr(replayed, field.name)}"
                )
        terminal = not demanded
        rounds += not terminal
    return ReplayResult(
        prices=tuple(prices),
        provisional=tuple(provisional),
        rounds=rounds,
        terminal=terminal,
    )
