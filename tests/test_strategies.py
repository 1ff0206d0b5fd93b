"""Bidding rules: truthful, hill-climbing, secure, scripted, and adapters.

The *_table_and_generic_paths_agree tests check each rule, which prices
bundles from the context's tables, against the brute-force reference in
helpers, which evaluates valuation.value() and sums prices item by item.
"""

import pytest

from helpers import (
    make_ctx,
    naive_is_secure,
    naive_locally_optimal,
    naive_price,
    naive_profit_max_secure,
    naive_truthful,
)
from smra import (
    AdditiveValuation,
    CallableStrategy,
    InsecureProvisionalState,
    LocallyOptimalStrategy,
    PairBonusValuation,
    ScriptedStrategy,
    SecureProfitMaxStrategy,
    TableValuation,
    TruthfulStrategy,
    UnitDemandValuation,
    is_locally_optimal,
    is_secure,
    locally_optimal_bid,
    profit_max_secure_bid,
    scripted_bid,
    strategy_from_spec,
    truthful_bid,
)

PAIR = PairBonusValuation(2, 1, 10)  # singletons worth 1, the pair worth 10
CLUSTER = TableValuation((0, 2, 2, 6))  # complementary pair: 2/2/6


BAD_START = "start must be one of ('previous', 'empty'), got 'last'"
BAD_VARIANT = "variant must be one of ('incremented', 'posted'), got 'loose'"


@pytest.mark.parametrize("call, message", [
    (lambda ctx: locally_optimal_bid(ctx, "last"), BAD_START),
    (lambda ctx: LocallyOptimalStrategy("last"), BAD_START),
    (lambda ctx: is_secure(ctx, 0, "loose"), BAD_VARIANT),
    (lambda ctx: profit_max_secure_bid(ctx, "loose"), BAD_VARIANT),
    (lambda ctx: SecureProfitMaxStrategy("loose"), BAD_VARIANT),
], ids=["locally_optimal_bid", "LocallyOptimalStrategy", "is_secure",
        "profit_max_secure_bid", "SecureProfitMaxStrategy"])
def test_rule_options_are_checked(call, message):
    with pytest.raises(ValueError) as exc_info:
        call(make_ctx(PAIR, (0, 0)))
    assert str(exc_info.value) == message


# ---------------------------------------------------------------------------
# BidContext arithmetic


def test_context_price_and_surplus_arithmetic():
    ctx = make_ctx(PAIR, (3, 5), own=0b01)
    values, sums, sizes = ctx.value_table, ctx.price_sums, ctx.popcounts
    assert sums[0b11] == 8
    assert sums[0b11] + sizes[0b11] == 10  # the incremented price
    assert sums[0b10] + sizes[0b10] == 6
    # surplus of adding item 1 on top of holding item 0
    assert values[0b11] - (sums[0b10] + sizes[0b10]) - values[0b01] == 10 - 6 - 1


def test_context_tables_match_direct_evaluation():
    for valuation, prices in ((PAIR, (3, 5)),
                              (AdditiveValuation((4, 0, 7, 1, 2)), (2, 9, 0, 5, 3))):
        ctx = make_ctx(valuation, prices, own=0b01)
        for mask in range(1 << len(prices)):
            assert ctx.value_table[mask] == valuation.value(mask)
            assert ctx.price_sums[mask] == naive_price(prices, mask)
            assert ctx.price_sums[mask] + ctx.popcounts[mask] == naive_price(
                prices, mask, increment=True
            )


# ---------------------------------------------------------------------------
# Truthful bidding


def test_truthful_goes_for_the_pair_at_zero_prices():
    assert truthful_bid(make_ctx(PAIR, (0, 0))) == 0b11


def test_truthful_completes_a_held_pair_when_still_profitable():
    # holding item 0, item 1 costs 6+1 but lifts value from 1 to 10
    assert truthful_bid(make_ctx(PAIR, (6, 6), own=0b01)) == 0b10


def test_truthful_drops_out_at_zero_surplus():
    v = AdditiveValuation((5,))
    assert truthful_bid(make_ctx(v, (4,))) == 0
    assert truthful_bid(make_ctx(v, (3,))) == 0b1


def test_truthful_ties_break_toward_the_smallest_mask():
    ctx = make_ctx(UnitDemandValuation((2, 2)), (0, 0))
    assert truthful_bid(ctx) == 0b01


@pytest.mark.parametrize(
    "valuation,prices,own",
    [
        (PAIR, (0, 0), 0),
        (PAIR, (6, 6), 0b01),
        (UnitDemandValuation((2, 2)), (0, 0), 0),
        (AdditiveValuation((1, 4, 2)), (2, 2, 2), 0b010),
        (TableValuation((0, 3, 5, 9)), (1, 2), 0),
    ],
)
def test_truthful_table_and_generic_paths_agree(valuation, prices, own):
    fast = truthful_bid(make_ctx(valuation, prices, own=own))
    assert fast == naive_truthful(valuation, prices, own)


# ---------------------------------------------------------------------------
# Local search


def test_climb_abandons_an_unprofitable_previous_bid():
    # pair now costs 8 against value 6: keep-climbing would stall at a loss,
    # so the rule re-climbs from scratch and quits
    ctx = make_ctx(CLUSTER, (3, 3), t=1, prev_bid=0b11)
    assert locally_optimal_bid(ctx) == 0


def test_climb_keeps_a_profitable_previous_bid():
    ctx = make_ctx(CLUSTER, (1, 1), t=1, prev_bid=0b11)
    assert locally_optimal_bid(ctx) == 0b11


def test_empty_start_cannot_assemble_a_complementary_pair():
    # from the empty bid every single add has zero gain, so the climb never
    # reaches the profitable pair the previous-bid start keeps
    ctx = make_ctx(CLUSTER, (1, 1), t=1, prev_bid=0b11)
    assert locally_optimal_bid(ctx, start="empty") == 0


def test_climb_swaps_to_the_better_item():
    ctx = make_ctx(UnitDemandValuation((5, 7)), (4, 4), t=1, prev_bid=0b01)
    assert locally_optimal_bid(ctx) == 0b10


def test_first_round_starts_from_empty_by_default():
    ctx = make_ctx(CLUSTER, (1, 1))  # t=0: no bid history yet
    assert locally_optimal_bid(ctx) == 0


@pytest.mark.parametrize("start", ["previous", "empty"])
def test_local_table_and_generic_paths_agree(start):
    for prices, own, prev in [((1, 1), 0, 0b11), ((3, 3), 0, 0b11),
                              ((0, 2), 0b01, 0b10)]:
        fast = locally_optimal_bid(
            make_ctx(CLUSTER, prices, own=own, t=1, prev_bid=prev), start
        )
        assert fast == naive_locally_optimal(CLUSTER, prices, own, prev, start)


def test_is_locally_optimal():
    ctx = make_ctx(CLUSTER, (1, 1))
    assert is_locally_optimal(ctx, 0b11)  # surplus 2, no better neighbor
    assert not is_locally_optimal(ctx, 0b01)  # adding item 1 gains 2
    assert is_locally_optimal(ctx, 0)  # a plateau still counts
    assert not is_locally_optimal(make_ctx(CLUSTER, (1, 1), own=0b01), 0b01)


def test_truthful_bids_are_locally_optimal():
    for valuation, prices in [
        (PAIR, (0, 0)),
        (CLUSTER, (2, 2)),
        (UnitDemandValuation((3, 1)), (1, 1)),
    ]:
        ctx = make_ctx(valuation, prices)
        assert is_locally_optimal(ctx, truthful_bid(ctx))


def test_local_start_is_validated():
    ctx = make_ctx(PAIR, (0, 0))
    with pytest.raises(ValueError):
        locally_optimal_bid(ctx, start="bogus")
    with pytest.raises(ValueError):
        LocallyOptimalStrategy("bogus")


# ---------------------------------------------------------------------------
# Secure bidding


def test_exposed_pair_bid_is_insecure_once_prices_rise():
    # at prices (1,1) winning a lone item costs 2 against value 1
    assert is_secure(make_ctx(PAIR, (0, 0)), 0b11)
    assert not is_secure(make_ctx(PAIR, (1, 1)), 0b11)


def test_empty_bid_is_secure_with_clean_holdings():
    assert is_secure(make_ctx(PAIR, (9, 9)), 0)


def test_additive_bidder_is_secure_up_to_value():
    v = AdditiveValuation((5, 5))
    assert is_secure(make_ctx(v, (4, 4)), 0b11)
    assert not is_secure(make_ctx(v, (5, 4)), 0b11)


def test_posted_variant_drops_the_increment():
    v = TableValuation((0, 3, 5, 9))
    ctx = make_ctx(v, (3, 5), own=0b01)
    assert not is_secure(ctx, 0b10, "incremented")  # item 1: 5 < 5+1
    assert is_secure(ctx, 0b10, "posted")  # item 1: 5 >= 5


def test_secure_checks_every_subset_not_just_the_whole():
    # the full reach is worth its price but the lone second item is not
    v = TableValuation((0, 1, 0, 9))
    ctx = make_ctx(v, (0, 0))
    assert not is_secure(ctx, 0b11)
    assert is_secure(ctx, 0b01)


@pytest.mark.parametrize("variant", ["incremented", "posted"])
def test_secure_table_and_generic_paths_agree(variant):
    cases = [
        (PAIR, (0, 0), 0, 0b11),
        (PAIR, (1, 1), 0, 0b11),
        (TableValuation((0, 3, 5, 9)), (3, 5), 0b01, 0b10),
        (AdditiveValuation((5, 5)), (4, 4), 0, 0b11),
    ]
    for valuation, prices, own, bid in cases:
        fast = is_secure(make_ctx(valuation, prices, own=own), bid, variant)
        assert fast == naive_is_secure(valuation, prices, own, bid, variant)


def test_profit_max_takes_the_pair_then_retreats():
    assert profit_max_secure_bid(make_ctx(PAIR, (0, 0))) == 0b11
    assert profit_max_secure_bid(make_ctx(PAIR, (1, 1))) == 0


def test_profit_max_avoids_contaminated_items():
    v = AdditiveValuation((0, 0, 10))
    assert profit_max_secure_bid(make_ctx(v, (0, 0, 0))) == 0b100


def test_profit_max_prefers_bidding_at_zero_surplus():
    # truthful quits at zero marginal surplus; the secure rule keeps bidding
    v = AdditiveValuation((1,))
    ctx = make_ctx(v, (0,))
    assert truthful_bid(ctx) == 0
    assert profit_max_secure_bid(ctx) == 0b1


def test_profit_max_matches_truthful_when_everything_is_safe():
    ctx = make_ctx(AdditiveValuation((5, 5)), (0, 0))
    assert profit_max_secure_bid(ctx) == truthful_bid(ctx) == 0b11


def test_overpriced_holdings_raise_with_a_witness():
    v = AdditiveValuation((1, 5))
    ctx = make_ctx(v, (2, 0), own=0b01)
    with pytest.raises(InsecureProvisionalState) as exc_info:
        profit_max_secure_bid(ctx)
    assert exc_info.value.bidder == 0
    assert exc_info.value.witness_mask == 0b01
    assert naive_profit_max_secure(v, (2, 0), 0b01) == ("insecure", 0b01)


@pytest.mark.parametrize("variant", ["incremented", "posted"])
def test_profit_max_table_and_generic_paths_agree(variant):
    cases = [
        (PAIR, (0, 0), 0),
        (PAIR, (1, 1), 0),
        (AdditiveValuation((0, 0, 10)), (0, 0, 0), 0),
        (TableValuation((0, 3, 5, 9)), (1, 2), 0b01),
        (UnitDemandValuation((2, 2)), (0, 1), 0),
    ]
    for valuation, prices, own in cases:
        fast = profit_max_secure_bid(
            make_ctx(valuation, prices, own=own), variant
        )
        assert fast == naive_profit_max_secure(valuation, prices, own, variant)


def test_secure_variant_is_validated():
    ctx = make_ctx(PAIR, (0, 0))
    with pytest.raises(ValueError):
        is_secure(ctx, 0, "bogus")
    with pytest.raises(ValueError):
        profit_max_secure_bid(ctx, "bogus")
    with pytest.raises(ValueError):
        SecureProfitMaxStrategy("bogus")


# ---------------------------------------------------------------------------
# Scripted bidding


def test_scripted_replays_and_clips():
    script = (0b11, 0b01)
    assert scripted_bid(make_ctx(PAIR, (0, 0)), script) == 0b11
    # items already held are clipped out of the scripted bid
    assert scripted_bid(make_ctx(PAIR, (1, 1), own=0b01, t=1), script) == 0
    # past the end of the script the bidder stays quiet
    assert scripted_bid(make_ctx(PAIR, (1, 1), t=5), script) == 0
    # masks outside the universe are clipped too
    assert scripted_bid(make_ctx(PAIR, (0, 0)), (0b111,)) == 0b11


# ---------------------------------------------------------------------------
# Strategy objects and their JSON forms


def test_strategy_objects_delegate_to_their_rules():
    ctx = make_ctx(PAIR, (0, 0))
    assert TruthfulStrategy().propose(ctx) == truthful_bid(ctx)
    assert SecureProfitMaxStrategy().propose(ctx) == profit_max_secure_bid(ctx)
    assert ScriptedStrategy((0b10,)).propose(ctx) == 0b10
    assert CallableStrategy(lambda c: 0b01).propose(ctx) == 0b01
    climb_ctx = make_ctx(CLUSTER, (1, 1), t=1, prev_bid=0b11)
    assert LocallyOptimalStrategy().propose(climb_ctx) == 0b11
    assert LocallyOptimalStrategy("empty").propose(climb_ctx) == 0


@pytest.mark.parametrize(
    "strategy,expected",
    [
        (TruthfulStrategy(), {"kind": "truthful"}),
        (
            LocallyOptimalStrategy("empty"),
            {"kind": "locally_optimal", "local_start": "empty"},
        ),
        (SecureProfitMaxStrategy(), {"kind": "secure_profit_max"}),
        (
            SecureProfitMaxStrategy("posted"),
            {"kind": "secure_profit_max", "secure_variant": "posted"},
        ),
        (
            ScriptedStrategy((0b11, 0b01)),
            {"kind": "scripted", "script": [[0, 1], [0]]},
        ),
    ],
)
def test_spec_dicts_round_trip(strategy, expected):
    spec = strategy.spec_dict()
    assert spec == expected
    rebuilt = strategy_from_spec(spec, 2)
    assert rebuilt == strategy


def test_custom_strategies_have_no_json_form():
    with pytest.raises(ValueError):
        CallableStrategy(lambda c: 0).spec_dict()


def test_strategy_from_spec_rejects_malformed_specs():
    with pytest.raises(ValueError):
        strategy_from_spec({"kind": "nope"}, 2)
    with pytest.raises(ValueError):
        strategy_from_spec({}, 2)
    with pytest.raises(ValueError):
        strategy_from_spec("truthful", 2)
    with pytest.raises(ValueError):
        strategy_from_spec({"kind": "scripted"}, 2)
    with pytest.raises(ValueError):
        strategy_from_spec({"kind": "scripted", "script": [5]}, 2)
    with pytest.raises(ValueError, match="names item 0 twice"):
        strategy_from_spec({"kind": "scripted", "script": [[0, 0], [1]]}, 2)
