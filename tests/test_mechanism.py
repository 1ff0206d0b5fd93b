"""Auction engine: rounds, settlement, termination, traces, and replay."""

import dataclasses
import io
import json
import pickle
import random

import pytest

from helpers import GOOD_LINE, MALFORMED_LINES
from smra import (
    AdditiveValuation,
    CallableStrategy,
    Divergence,
    InsecureProvisionalState,
    InvalidBid,
    LocallyOptimalStrategy,
    OracleTooLarge,
    PairBonusValuation,
    ScriptedStrategy,
    SecureProfitMaxStrategy,
    TableValuation,
    TraceMismatch,
    TruthfulStrategy,
    UniverseMismatch,
    masked_price_sums,
    random_near_submodular,
    read_trace_jsonl,
    replay_trace,
    run_auction,
    run_trials,
    truthful_bid,
    welfare,
    write_trace_jsonl,
)
from smra import mechanism, strategies
from smra.itemsets import mask_of, popcount_table
from smra.mechanism import PreparedBidders, default_max_rounds
from smra.scenarios import build_bad_pair, build_local_tight, build_truthful_tight


def _bad_pair_outcome(seed, M=10, record=True):
    sc = build_bad_pair(M)
    return run_auction(
        sc.valuations, sc.strategies, seed=seed, record_trace=record
    ), sc


def _scripted_outcome(scripts, m, seed=0):
    return run_auction(
        tuple(AdditiveValuation((1,) * m) for _ in scripts),
        tuple(ScriptedStrategy(script) for script in scripts),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# The empty start and single rounds


def test_auctions_start_at_zero_prices_with_nothing_held():
    for m, n in ((2, 2), (1, 1)):
        seen = []

        def abstain(ctx):
            seen.append((ctx.t, ctx.prices, ctx.own_set))
            return 0

        outcome = run_auction(
            (TableValuation((0,) * (1 << m)),) * n,
            (CallableStrategy(abstain),) * n,
        )
        assert seen == [(0, (0,) * m, 0)] * n
        (record,) = outcome.records
        assert record.prices_before == (0,) * m
        assert record.provisional == (0,) * n


def test_empty_dimensions_are_refused():
    with pytest.raises(ValueError):
        TableValuation((0,))  # m = 0
    with pytest.raises(ValueError):
        AdditiveValuation(())
    with pytest.raises(ValueError):
        run_auction((), ())  # n = 0


def test_all_empty_round_is_terminal_and_recorded():
    outcome = _scripted_outcome(((), ()), 2)
    assert outcome.rounds == 0
    assert outcome.prices == (0, 0)
    assert outcome.allocation == (0, 0)
    (record,) = outcome.records
    assert record.t == 0
    assert record.bids == (0, 0)
    assert record.excess == 0
    assert record.draws == ()
    assert record.prices_after == record.prices_before == (0, 0)
    assert record.provisional == (0, 0)


def test_sole_demander_wins_without_consuming_randomness():
    # item 0 goes to its sole demander before item 1 is contested, so the
    # contested draw is the stream's first
    for seed in range(20):
        outcome = _scripted_outcome(((0b11,), (0b10,)), 2, seed=seed)
        sole, contested = outcome.records[0].draws
        assert (sole.candidates, sole.chosen) == ((0,), 0)
        assert contested.candidates == (0, 1)
        assert contested.chosen == random.Random(seed).choice((0, 1))


def test_contested_items_raise_prices_and_draw_owners():
    outcome = _scripted_outcome(((0b11,), (0b11,)), 2, seed=3)
    record = outcome.records[0]
    assert record.prices_after == (1, 1)
    assert record.excess == 0b11
    assert [d.item for d in record.draws] == [0, 1]
    rng = random.Random(3)
    for draw in record.draws:
        assert draw.candidates == (0, 1)
        assert draw.chosen == rng.choice(draw.candidates)
    held = record.provisional
    assert held[0] & held[1] == 0
    assert held[0] | held[1] == 0b11


def test_displaced_owner_is_never_a_candidate():
    outcome = _scripted_outcome(((0b1, 0), (0, 0b1)), 1)
    first, second = outcome.records[:2]
    assert first.provisional == (0b1, 0)
    assert second.draws[0].candidates == (1,)
    assert second.provisional == (0, 0b1)
    assert outcome.prices == (2,)


# ---------------------------------------------------------------------------
# Full runs


def test_single_bidder_wins_at_one_increment():
    outcome = run_auction((AdditiveValuation((5,)),), (TruthfulStrategy(),))
    assert outcome.rounds == 1
    assert outcome.prices == (1,)
    assert outcome.allocation == (0b1,)
    assert not outcome.diverged
    # trace: one bidding round plus the recorded terminal round
    assert len(outcome.records) == 2
    assert outcome.records[0].bids == (0b1,)
    assert outcome.records[1].bids == (0,)
    assert outcome.records[1].draws == ()


def test_worthless_items_mean_immediate_termination():
    outcome = run_auction(
        (TableValuation((0, 0)),), (TruthfulStrategy(),)
    )
    assert outcome.rounds == 0
    assert outcome.prices == (0,)
    assert outcome.allocation == (0,)
    assert len(outcome.records) == 1


def test_contested_pair_welfare_is_split_or_sweep():
    for seed in range(20):
        outcome, sc = _bad_pair_outcome(seed)
        assert welfare(outcome.allocation, sc.valuations) in (2, 10)


def test_positive_price_iff_allocated():
    for seed in range(10):
        outcome, _ = _bad_pair_outcome(seed)
        held = 0
        for mask in outcome.allocation:
            assert held & mask == 0
            held |= mask
        for j, price in enumerate(outcome.prices):
            assert (price > 0) == bool((held >> j) & 1)


def test_round_records_are_internally_consistent():
    outcome, _ = _bad_pair_outcome(5)
    for t, record in enumerate(outcome.records):
        assert record.t == t
        for j, (before, after) in enumerate(
            zip(record.prices_before, record.prices_after)
        ):
            demanded = (record.excess >> j) & 1
            assert after - before == demanded
        for draw in record.draws:
            assert draw.chosen in draw.candidates


def test_same_seed_reproduces_the_run_exactly():
    a, sc = _bad_pair_outcome(9)
    b, _ = _bad_pair_outcome(9)
    assert a == b
    lean, _ = _bad_pair_outcome(9, record=False)
    assert lean.records is None
    assert (lean.allocation, lean.prices, lean.rounds) == (
        a.allocation, a.prices, a.rounds
    )


def test_recorded_bids_replay_to_the_same_end_state():
    outcome, sc = _bad_pair_outcome(7)
    scripts = zip(*(record.bids for record in outcome.records))
    rerun = run_auction(
        sc.valuations, tuple(ScriptedStrategy(s) for s in scripts), seed=7
    )
    assert rerun.records == outcome.records
    result = replay_trace(outcome.records)
    assert (result.prices, result.provisional) == (
        outcome.prices, outcome.allocation
    )


def test_default_round_budget():
    sc = build_bad_pair(10)
    assert default_max_rounds(sc.valuations) == 2 * 2 * 12


def test_masked_price_sums():
    assert masked_price_sums((3, 5), 2) == [0, 3, 5, 8]
    assert masked_price_sums((0,), 1) == [0, 0]


def test_popcount_table_is_built_once_per_size():
    table = popcount_table(5)
    assert table is popcount_table(5)  # shared, so it must be immutable
    assert table == tuple(bin(mask).count("1") for mask in range(32))


def test_mask_of_takes_only_integer_items():
    assert mask_of([0, 2], 3) == 0b101
    for bad in (True, False, 1.0, "1", None):
        with pytest.raises(TypeError):
            mask_of([bad], 3)
    with pytest.raises(UniverseMismatch):
        mask_of([3], 3)


def test_divergence_carries_partial_outcome():
    # two bidders endlessly stealing one item from each other
    grabby = CallableStrategy(lambda ctx: 0b1 & ~ctx.own_set)
    vals = (AdditiveValuation((1,)), AdditiveValuation((1,)))
    with pytest.raises(Divergence) as exc_info:
        run_auction(vals, (grabby, grabby), seed=1, max_rounds=7)
    exc = exc_info.value
    assert exc.max_rounds == 7
    partial = exc.outcome
    assert partial.diverged
    assert partial.rounds == 7
    assert partial.prices == (7,)
    assert len(partial.records) == 7
    assert sum(partial.allocation) == 0b1


def test_run_auction_rejects_bad_configurations():
    with pytest.raises(ValueError):
        run_auction((), ())
    with pytest.raises(ValueError):
        run_auction((AdditiveValuation((1,)),), ())
    with pytest.raises(ValueError):  # wrong strategy count
        PreparedBidders((AdditiveValuation((1,)),) * 2, (TruthfulStrategy(),) * 3)
    with pytest.raises(UniverseMismatch):
        run_auction(
            (AdditiveValuation((1,)), AdditiveValuation((1, 2))),
            (TruthfulStrategy(), TruthfulStrategy()),
        )
    # 21 items is past TABLE_LIMIT: refused before any bidder is asked
    calls = []
    recorder = CallableStrategy(lambda ctx: calls.append(ctx.t) or 0)
    with pytest.raises(OracleTooLarge):
        run_auction((AdditiveValuation((1,) * 21),), (recorder,))
    assert calls == []


def test_round_budgets_must_be_non_negative_integers():
    sc = build_bad_pair(10)
    for bad in (-1, -5, True, False, 2.5, "7"):
        with pytest.raises(ValueError):
            run_auction(sc.valuations, sc.strategies, max_rounds=bad)
        with pytest.raises(ValueError):
            run_trials(sc, 3, max_rounds=bad, collect_lambda=False)
    # zero is a budget: round 0 still demands something, so it diverges
    with pytest.raises(Divergence) as exc_info:
        run_auction(sc.valuations, sc.strategies, max_rounds=0)
    assert exc_info.value.outcome.rounds == 0


def test_seeds_must_be_integers():
    # None would seed from OS entropy and give a different auction per call
    sc = build_bad_pair(100)
    for bad in [None] * 20 + [1.5, "abc", True, False]:
        with pytest.raises(ValueError, match="seed must be an int"):
            run_auction(sc.valuations, sc.strategies, bad)
    assert run_auction(sc.valuations, sc.strategies, -3).rounds > 0


def test_run_auction_polices_strategy_output():
    own_rebidder = CallableStrategy(lambda ctx: ctx.own_set or 0b1)
    with pytest.raises(InvalidBid):
        run_auction((AdditiveValuation((9,)),), (own_rebidder,), seed=0)
    outside = CallableStrategy(lambda ctx: 0b10)
    with pytest.raises(InvalidBid):
        run_auction((AdditiveValuation((9,)),), (outside,), seed=0)
    negative = CallableStrategy(lambda ctx: -1)
    with pytest.raises(InvalidBid):
        run_auction((AdditiveValuation((9,)),), (negative,), seed=0)
    # bidder 1 asks for item 2 of a two-item universe and is blamed for it
    scripted = (CallableStrategy(lambda ctx: 0b01),
                CallableStrategy(lambda ctx: 0b110))
    with pytest.raises(InvalidBid) as exc_info:
        run_auction((AdditiveValuation((9, 9)),) * 2, scripted, seed=0)
    assert (exc_info.value.bidder, exc_info.value.mask) == (1, 0b110)


def test_run_round_rejects_invalid_bids():
    # Two bidders over two items; each list gives a bidder's bid per round.
    def run(*per_round):
        rules = tuple(
            CallableStrategy(lambda ctx, bids=bids: bids[ctx.t])
            for bids in per_round
        )
        return run_auction((AdditiveValuation((9, 9)),) * 2, rules, seed=0)

    with pytest.raises(InvalidBid) as exc_info:
        run((0b01,), (0b100,))  # outside the universe
    assert (exc_info.value.bidder, exc_info.value.mask) == (1, 0b100)
    with pytest.raises(InvalidBid) as exc_info:
        run((0b01, 0b01), (0, 0))  # round 1 overlaps bidder 0's holding
    assert (exc_info.value.bidder, exc_info.value.mask) == (0, 0b01)
    with pytest.raises(InvalidBid) as exc_info:
        run((-1,), (0,))
    assert (exc_info.value.bidder, exc_info.value.mask) == (0, -1)
    with pytest.raises(ValueError):  # wrong bidder count
        run_auction(
            (AdditiveValuation((9, 9)),) * 2, (TruthfulStrategy(),) * 3
        )


def test_an_invalid_bid_raises_every_time_its_key_recurs():
    # Round 1 repeats round 0's bids while bidder 0 holds item 0: a plan is
    # keyed by the holdings too, and a plan that raises is never cached.
    asked = []

    def rebid(ctx):
        asked.append(ctx.t)
        return 0b1

    rules = (CallableStrategy(rebid), CallableStrategy(lambda ctx: 0))
    for _ in range(3):
        with pytest.raises(InvalidBid) as exc_info:
            run_auction((AdditiveValuation((9,)),) * 2, rules, seed=0)
        assert (exc_info.value.bidder, exc_info.value.mask) == (0, 0b1)
    assert asked == [0, 1] * 3


def test_observer_sees_every_settled_round():
    seen = []
    outcome, _ = _bad_pair_outcome(3)
    run_auction(
        build_bad_pair(10).valuations,
        build_bad_pair(10).strategies,
        seed=3,
        observer=lambda t, prices, held: seen.append((t, prices, tuple(held))),
    )
    assert len(seen) == outcome.rounds
    assert seen[-1][1] == outcome.prices
    assert seen[-1][2] == outcome.allocation


def test_strategies_see_consistent_histories():
    def checked(ctx):
        assert len(ctx.price_history) == ctx.t + 1
        assert len(ctx.own_set_history) == ctx.t + 1
        assert len(ctx.own_bid_history) == ctx.t
        assert ctx.prices == ctx.price_history[-1]
        assert ctx.own_set == ctx.own_set_history[-1]
        return truthful_bid(ctx)

    sc = build_bad_pair(10)
    outcome = run_auction(
        sc.valuations,
        (CallableStrategy(checked), CallableStrategy(checked)),
        seed=4,
    )
    reference, _ = _bad_pair_outcome(4)
    assert outcome == reference


def test_contexts_built_after_round_0_see_full_histories(monkeypatch):
    # bad_pair's bidders share one valuation, so bidder 1 meets bidder 0's
    # round-0 key in the memo and is first asked, and given a context, later
    views = []

    def viewed(ctx):
        views.append((
            ctx.bidder, ctx.t, tuple(ctx.price_history),
            tuple(ctx.own_set_history), tuple(ctx.own_bid_history),
            ctx.prices, ctx.own_set,
        ))
        return truthful_bid(ctx)

    monkeypatch.setattr(strategies, "truthful_bid", viewed)
    outcome, _ = _bad_pair_outcome(5)
    first_asked = {}
    for view in views:
        first_asked.setdefault(view[0], view[1])
    assert first_asked[1] > 0
    for i, t, prices, own_sets, own_bids, current, own in views:
        done = outcome.records[:t]
        assert prices == ((0,) * len(current),) + tuple(
            r.prices_after for r in done
        )
        assert own_sets == (0,) + tuple(r.provisional[i] for r in done)
        assert own_bids == tuple(r.bids[i] for r in done)
        assert (current, own) == (prices[-1], own_sets[-1])


def _view_reads(view):
    size = len(view)
    return (size, view[-1] if size else None,
            [view[t] for t in range(-size, size)],
            [view[1:], view[:-1], view[::2], view[-2:], view[:]], list(view))


def test_history_views_read_the_rows_off_the_records():
    # custom rules are asked every round, so every context is checked
    asked = []

    def viewing(rule):
        def propose(ctx):
            views = ctx.own_set_history, ctx.own_bid_history
            asked.append((ctx.bidder, ctx.t, views,
                          [_view_reads(v) for v in views]))
            return rule.propose(ctx)
        return CallableStrategy(propose)

    rules = (TruthfulStrategy(), LocallyOptimalStrategy("previous")) * 2
    bidders = tuple(viewing(rule) for rule in rules)
    for seed in range(8):
        valuations = tuple(random_near_submodular(3, 2, 12, seed * 4 + i)
                           for i in range(4))
        del asked[:]
        outcome = run_auction(valuations, bidders, seed)
        records = outcome.records
        assert max(t for _, t, _, _ in asked) == outcome.rounds >= 2
        for i, t, views, reads in asked:
            own_sets = [0] + [r.provisional[i] for r in records[:t]]
            own_bids = [r.bids[i] for r in records[:t]]
            assert reads == [_view_reads(own_sets), _view_reads(own_bids)]
            # live: a view from any round reads every settled round now
            assert [len(v) for v in views] == [outcome.rounds + 1,
                                               outcome.rounds]
            for view in views:
                assert not hasattr(view, "append")
                assert not hasattr(view, "__setitem__")
                with pytest.raises(TypeError):
                    view[0] = 1


# ---------------------------------------------------------------------------
# Memoised decisions


@pytest.fixture
def truthful_calls(monkeypatch):
    """Counts the truthful rule's real evaluations (memo misses)."""
    calls = []

    def counted(ctx):
        calls.append(ctx.bidder)
        return truthful_bid(ctx)

    monkeypatch.setattr(strategies, "truthful_bid", counted)
    return calls


def test_memo_serves_repeated_states_and_keeps_the_outcome(truthful_calls):
    sc = build_bad_pair(10)
    args = sc.valuations, sc.strategies
    cold = run_auction(*args, seed=5, prepared=sc.prepared)
    misses = len(truthful_calls)
    assert 0 < misses < 2 * (cold.rounds + 1)  # the two bidders share it
    warm = run_auction(*args, seed=5, prepared=sc.prepared)
    assert warm == cold
    assert len(truthful_calls) == misses
    # without `prepared` a call builds its own caches and reuses nothing
    assert run_auction(*args, seed=5) == cold
    assert len(truthful_calls) == 2 * misses


def test_insecure_holdings_raise_on_every_run():
    # the posted variant wins both items at one increment over the price
    # it checked, after which the singletons (worth 0) are overpriced
    valuations = (TableValuation((0, 0, 0, 2)),)
    strategies = (SecureProfitMaxStrategy("posted"),)
    prepared = PreparedBidders(valuations, strategies)
    for _ in range(2):
        with pytest.raises(InsecureProvisionalState) as exc_info:
            run_auction(valuations, strategies, seed=0, prepared=prepared)
        assert exc_info.value.bidder == 0
        assert exc_info.value.witness_mask in (0b01, 0b10)
    assert list(prepared.memos[0].values()) == [0b11]


def test_overridden_propose_is_never_served_from_the_memo():
    calls = []

    @dataclasses.dataclass(frozen=True)
    class Abstainer(TruthfulStrategy):
        def propose(self, ctx):
            calls.append(ctx.t)
            return 0

    valuation = PairBonusValuation(2, 1, 10)
    valuations = (valuation, valuation)
    strategies = (TruthfulStrategy(), Abstainer())
    prepared = PreparedBidders(valuations, strategies)
    assert prepared.memos[0] == {} and prepared.memos[1] is None
    rounds = []
    for _ in range(2):
        outcome = run_auction(valuations, strategies, seed=0, prepared=prepared)
        assert outcome.allocation == (0b11, 0)
        rounds += range(outcome.rounds + 1)
    assert prepared.memos[0]
    assert calls == rounds  # asked every round of both runs


def test_distinct_valuation_objects_never_share_entries(truthful_calls):
    first, second = PairBonusValuation(2, 1, 10), PairBonusValuation(2, 1, 10)
    assert first == second and first is not second
    strategy = TruthfulStrategy()
    shared = PreparedBidders((first, first), (strategy, TruthfulStrategy()))
    apart = PreparedBidders((first, second), (strategy, strategy))
    assert shared.memos[0] is shared.memos[1]
    assert apart.memos[0] is not apart.memos[1]
    outcome = run_auction(shared.valuations, shared.strategies, seed=0,
                          prepared=shared)
    misses = len(truthful_calls)
    assert run_auction(apart.valuations, apart.strategies, seed=0,
                       prepared=apart) == outcome
    assert len(truthful_calls) - misses > misses


def test_memo_never_exceeds_its_cap(monkeypatch):
    monkeypatch.setattr(mechanism, "DECISION_CACHE_LIMIT", 3)
    sc = build_bad_pair(40)
    memo = sc.prepared.memos[0]
    sizes = []
    outcome = run_auction(
        sc.valuations, sc.strategies, seed=2, prepared=sc.prepared,
        observer=lambda t, prices, held: sizes.append(len(memo)),
    )
    assert outcome.rounds > 3
    assert 0 < max(sizes) <= 3
    uncached = tuple(CallableStrategy(s.propose) for s in sc.strategies)
    assert run_auction(sc.valuations, uncached, seed=2) == outcome


def test_prepared_bidders_share_one_memo_per_valuation_and_rule():
    sc = build_truthful_tight(4, 3, 6)
    prepared = PreparedBidders(sc.valuations, sc.strategies)
    assert (prepared.n, prepared.m) == (6, 4)
    memo = prepared.memos[0]
    assert memo == {}  # one valuation object, equal rules
    assert all(m is memo for m in prepared.memos)
    assert prepared.value_tables == [sc.valuations[0].value_table()] * 6
    assert prepared.last_bid_bits == [0] * 6
    assert prepared.max_rounds == default_max_rounds(sc.valuations)

    v, w = AdditiveValuation((1, 2)), AdditiveValuation((1, 2))
    rule = CallableStrategy(lambda ctx: 0)
    local = LocallyOptimalStrategy("previous")
    prepared = PreparedBidders(
        (v, v, v, w, v, v, v),
        (rule, rule, TruthfulStrategy(), TruthfulStrategy(), local,
         LocallyOptimalStrategy("previous"), LocallyOptimalStrategy("empty")),
    )
    memos = prepared.memos
    assert memos[:2] == [None] * 2
    # one dict per (valuation object, equal rule): bidders 4 and 5 share
    assert memos[4] is memos[5]
    assert len({id(m) for m in memos[2:]}) == 4
    assert prepared.last_bid_bits == [0, 0, 0, 0, -1, -1, 0]


def test_a_prepared_object_of_other_bidders_is_not_used():
    sc, other = build_bad_pair(10), build_bad_pair(40)
    stale = PreparedBidders(other.valuations, other.strategies)
    for seed in range(5):
        assert run_auction(
            sc.valuations, sc.strategies, seed, prepared=stale
        ) == run_auction(sc.valuations, sc.strategies, seed)


def _count_setups(monkeypatch):
    """Counts PreparedBidders constructions (one default_max_rounds each)."""
    calls = []
    real = mechanism.default_max_rounds
    monkeypatch.setattr(mechanism, "default_max_rounds",
                        lambda vs: calls.append(vs) or real(vs))
    return calls


def test_bidder_setup_happens_once_per_chunk(monkeypatch):
    setups = _count_setups(monkeypatch)
    for trials in (5, 50):
        setups.clear()
        sc = build_truthful_tight(4, 3, 60)
        run_trials(sc, trials, seed=31, jobs=1)
        assert setups == [sc.valuations]
        assert len({id(memo) for memo in sc.prepared.memos}) == 1


def test_memo_stays_out_of_the_pickled_scenario():
    sc = build_bad_pair(10)
    for valuation in sc.valuations:
        valuation.value_table()
    before = pickle.dumps(sc)
    run_trials(sc, 20, seed=1, collect_lambda=False)
    assert sc.prepared.memos[0]
    assert pickle.dumps(sc) == before
    assert "prepared" not in vars(pickle.loads(before))


def test_a_scenario_reads_one_bidder_list_and_one_prepared_object():
    sc = build_truthful_tight(4, 3, 60)
    assert sc.valuations is sc.valuations
    assert sc.strategies is sc.strategies
    assert sc.prepared is sc.prepared
    assert (sc.prepared.valuations, sc.prepared.strategies) == (
        sc.valuations, sc.strategies)
    for seed in range(5):
        run_auction(sc.valuations, sc.strategies, seed, prepared=sc.prepared)
    assert sc.prepared.sightings


def test_valuations_carry_no_engine_state():
    for sc in (build_bad_pair(10), build_truthful_tight(4, 3, 6),
               build_local_tight(L=2)):
        run_trials(sc, 10, seed=4)
        for v in sc.valuations:
            own = {f.name for f in dataclasses.fields(v)}
            assert set(vars(v)) - own <= {"_table"}


def test_run_trials_calls_on_one_scenario_share_their_caches(
        monkeypatch, truthful_calls):
    setups = _count_setups(monkeypatch)
    sc = build_truthful_tight(5, 3, 8)
    first = run_trials(sc, 30, seed=9, collect_lambda=False)
    misses = len(truthful_calls)
    second = run_trials(sc, 30, seed=9, collect_lambda=False)
    assert second.rows == first.rows
    assert len(setups) == 1
    assert len(truthful_calls) - misses < misses


def test_a_pool_run_after_a_serial_one_sends_no_caches():
    sc = build_bad_pair(10)
    for valuation in sc.valuations:
        valuation.value_table()
    before = pickle.dumps(sc)
    serial = run_trials(sc, 40, seed=6, jobs=1)
    assert sc.prepared.rounds
    pooled = run_trials(sc, 40, seed=6, jobs=2)
    assert pooled.rows == serial.rows
    assert pickle.dumps(sc) == before


# ---------------------------------------------------------------------------
# Traces: serialization and verifying replay


def test_trace_round_trips_through_jsonl():
    outcome, sc = _bad_pair_outcome(7)
    buf = io.StringIO()
    write_trace_jsonl(outcome.records, buf)
    buf.seek(0)
    records = read_trace_jsonl(buf)
    assert tuple(records) == outcome.records
    result = replay_trace(records)
    assert result.prices == outcome.prices
    assert result.provisional == outcome.allocation
    assert result.rounds == outcome.rounds
    assert result.terminal


def test_trace_files_round_trip(tmp_path):
    outcome, _ = _bad_pair_outcome(2)
    path = str(tmp_path / "trace.jsonl")
    write_trace_jsonl(outcome.records, path)
    assert tuple(read_trace_jsonl(path)) == outcome.records


def test_trace_lines_use_the_fixed_schema():
    outcome, _ = _bad_pair_outcome(7)
    buf = io.StringIO()
    write_trace_jsonl(outcome.records, buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    keys = {
        "t", "prices_before", "bids", "excess", "draws", "prices_after",
        "provisional",
    }
    for line in lines:
        assert set(line) == keys
        for bid in line["bids"]:
            assert bid == sorted(bid)


def _tampered(records, index, **changes):
    out = list(records)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


def test_replay_rejects_tampering():
    outcome, _ = _bad_pair_outcome(7)
    records = outcome.records
    assert len(records) >= 3  # at least two bidding rounds plus terminal

    with pytest.raises(TraceMismatch):
        replay_trace(_tampered(records, 1, t=5))
    with pytest.raises(TraceMismatch):
        replay_trace(
            _tampered(records, 0, prices_after=(9, 9))
        )
    with pytest.raises(TraceMismatch):
        replay_trace(_tampered(records, 0, excess=0))
    with pytest.raises(TraceMismatch):
        replay_trace(_tampered(records, 0, draws=records[0].draws[:-1]))
    with pytest.raises(TraceMismatch):
        replay_trace(
            _tampered(records, 0, draws=records[0].draws + records[0].draws[-1:])
        )
    bad_draw = dataclasses.replace(records[0].draws[0], chosen=99)
    with pytest.raises(TraceMismatch):
        replay_trace(
            _tampered(records, 0, draws=(bad_draw,) + records[0].draws[1:])
        )
    wrong_cands = dataclasses.replace(records[0].draws[0], candidates=(0,))
    with pytest.raises(TraceMismatch):
        replay_trace(
            _tampered(records, 0, draws=(wrong_cands,) + records[0].draws[1:])
        )
    with pytest.raises(TraceMismatch):
        replay_trace(_tampered(records, 0, provisional=(0b11, 0b11)))
    with pytest.raises(TraceMismatch):
        replay_trace(list(records) + [records[-1]])  # rounds after terminal
    with pytest.raises(TraceMismatch):
        replay_trace([])


def test_replay_rejects_overlapping_recorded_bids():
    outcome, _ = _bad_pair_outcome(7)
    records = outcome.records
    # round 1 re-bidding what the bidder already provisionally holds
    holder = next(i for i, s in enumerate(records[0].provisional) if s)
    bids = list(records[1].bids)
    bids[holder] |= records[0].provisional[holder]
    with pytest.raises(TraceMismatch):
        replay_trace(_tampered(records, 1, bids=tuple(bids)))


def test_read_trace_rejects_malformed_lines():
    assert len(read_trace_jsonl(io.StringIO(json.dumps(GOOD_LINE)))) == 1
    for bad in MALFORMED_LINES:
        lines = io.StringIO(json.dumps(GOOD_LINE) + "\n" + bad + "\n")
        with pytest.raises(TraceMismatch, match="trace line 1"):
            read_trace_jsonl(lines)


def test_read_trace_rejects_text_that_is_not_utf8():
    raw = (json.dumps(GOOD_LINE) + "\n").encode() + b'{"t": "\xff"}\n'
    with pytest.raises(TraceMismatch, match="not UTF-8"):
        read_trace_jsonl(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))


def test_incomplete_trace_is_not_terminal():
    outcome, _ = _bad_pair_outcome(7)
    result = replay_trace(outcome.records[:-1])
    assert not result.terminal
    assert result.rounds == outcome.rounds
