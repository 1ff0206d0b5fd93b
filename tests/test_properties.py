"""Property-based invariants: engine rules, analysis oracles, path equality."""

import io
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    make_ctx,
    naive_degree,
    naive_is_locally_optimal,
    naive_is_secure,
    naive_locally_optimal,
    naive_profit_max_secure,
    naive_truthful,
    reference_auction,
    reference_measure_rationality,
    reference_optimal_welfare,
    supermodular_negatives,
    supermodular_values,
)
from smra import (
    AdditiveValuation,
    CallableStrategy,
    Divergence,
    InsecureProvisionalState,
    InvalidBid,
    LocallyOptimalStrategy,
    RationalityScan,
    ScriptedStrategy,
    SecureProfitMaxStrategy,
    SymmetricStepValuation,
    TableValuation,
    TruthfulStrategy,
    UnitDemandValuation,
    degree_of_submodularity,
    is_alpha_near_submodular,
    is_locally_optimal,
    is_secure,
    locally_optimal_bid,
    measure_rationality,
    optimal_welfare,
    profit_max_secure_bid,
    random_near_submodular,
    replay_trace,
    run_auction,
    run_trials,
    truthful_bid,
    write_trace_jsonl,
)
from smra import mechanism
from smra.mechanism import (AuctionOutcome, PreparedBidders, RoundRecord,
                            default_max_rounds)
from smra.oracle import _supermodular
from smra.scenarios import (
    TrialRow, build_bad_pair, build_local_tight, build_nonsecure_punishment,
    build_scripted_partition, build_superadditive, build_truthful_tight,
    derive_seed,
)


@st.composite
def monotone_tables(draw, max_m=4, max_step=4, min_m=1):
    m = draw(st.integers(min_m, max_m))
    size = 1 << m
    deltas = draw(
        st.lists(st.integers(0, max_step), min_size=size, max_size=size)
    )
    table = [0] * size
    for mask in range(1, size):
        floor = max(
            table[mask & ~(1 << j)] for j in range(m) if (mask >> j) & 1
        )
        table[mask] = floor + deltas[mask]
    return TableValuation(tuple(table))


# ---------------------------------------------------------------------------
# Degree of submodularity


@settings(max_examples=60, deadline=None)
@given(monotone_tables())
def test_degree_matches_the_naive_oracle(valuation):
    report = degree_of_submodularity(valuation)
    assert report.degree == naive_degree(valuation)


@settings(max_examples=60, deadline=None)
@given(monotone_tables())
def test_degree_witness_reproduces_the_ratio(valuation):
    report = degree_of_submodularity(valuation)
    if report.witness is None:
        assert report.degree == float("inf")
        return
    x, small, large = report.witness
    bit = 1 << x
    assert small & large == small and small != large  # strictly nested
    assert large & bit == 0
    num = valuation.value(small | bit) - valuation.value(small)
    den = valuation.value(large | bit) - valuation.value(large)
    assert den > 0
    assert Fraction(num, den) == report.degree


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 10),
    alpha=st.sampled_from([1, Fraction(3, 2), 2, Fraction(5, 2), 3,
                           Fraction(7, 3)]),
    value_cap=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_generator_output_is_certified_and_deterministic(m, alpha, value_cap, seed):
    # the generator does not score its tables: this exact check is their
    # certificate
    v1 = random_near_submodular(m, alpha, value_cap, seed)
    v2 = random_near_submodular(m, alpha, value_cap, seed)
    assert v1.value_table() == v2.value_table()
    assert is_alpha_near_submodular(v1, alpha)
    assert 0 < v1.value_table()[-1] <= value_cap


# ---------------------------------------------------------------------------
# Engine invariants under arbitrary scripted play


@st.composite
def scripted_auctions(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    rounds = draw(st.integers(1, 4))
    top = (1 << m) - 1
    scripts = tuple(
        tuple(draw(st.integers(0, top)) for _ in range(rounds))
        for _ in range(n)
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return m, scripts, seed


# Rounds 1 and 3 share one plan key -- bids (1, 1, 0) while bidder 2 holds
# the item -- and seed 4 hands the contested item to bidder 0, then 1.
REPEATED_CONTEST = (1, ((0, 1, 0, 1), (0, 1, 0, 1), (1, 0, 1, 0)), 4)


@settings(max_examples=40, deadline=None)
@given(scripted_auctions())
@example(REPEATED_CONTEST)
def test_engine_invariants_hold_for_any_scripts(instance):
    m, scripts, seed = instance
    valuations = tuple(AdditiveValuation((1,) * m) for _ in scripts)
    strategies = tuple(ScriptedStrategy(s) for s in scripts)
    outcome = run_auction(valuations, strategies, seed=seed)

    prev_provisional = (0,) * len(scripts)
    for record in outcome.records:
        union = 0
        for i, bid in enumerate(record.bids):
            assert bid & prev_provisional[i] == 0  # never re-bid held items
            union |= bid
        assert record.excess == union
        # every demanded item's price rose by exactly one, others unchanged
        for j in range(m):
            step = record.prices_after[j] - record.prices_before[j]
            assert step == (union >> j) & 1
        # one draw per demanded item, in ascending item order
        assert [d.item for d in record.draws] == sorted(
            j for j in range(m) if (union >> j) & 1
        )
        for draw_ in record.draws:
            assert draw_.chosen in draw_.candidates
            assert (record.bids[draw_.chosen] >> draw_.item) & 1
        held = 0
        for mask in record.provisional:
            assert held & mask == 0
            held |= mask
        # positive price exactly on the items somebody holds
        for j in range(m):
            assert (record.prices_after[j] > 0) == bool((held >> j) & 1)
        prev_provisional = record.provisional

    # the trace ends with the all-empty terminal round
    assert outcome.records[-1].bids == (0,) * len(scripts)
    assert outcome.rounds == len(outcome.records) - 1
    assert not outcome.diverged

    # a verifying replay reaches the same end state
    result = replay_trace(outcome.records)
    assert result.terminal
    assert result.prices == outcome.prices
    assert result.provisional == outcome.allocation

    # contested items, in record order, take the seeded stream's draws
    rng = random.Random(seed)
    for record in outcome.records:
        for draw_ in record.draws:
            if len(draw_.candidates) > 1:
                assert draw_.chosen == rng.choice(draw_.candidates)


def test_a_recurring_plan_key_still_draws_afresh():
    m, scripts, seed = REPEATED_CONTEST
    outcome = run_auction(
        tuple(AdditiveValuation((1,) * m) for _ in scripts),
        tuple(ScriptedStrategy(s) for s in scripts),
        seed=seed,
    )
    first, again = outcome.records[1], outcome.records[3]
    assert first.bids == again.bids
    assert outcome.records[0].provisional == outcome.records[2].provisional
    assert [d.chosen for d in first.draws + again.draws] == [0, 1]


# ---------------------------------------------------------------------------
# Strategy-level properties


@st.composite
def bid_contexts(draw):
    valuation = draw(monotone_tables(max_m=3, max_step=3))
    m = valuation.universe_size
    prices = tuple(draw(st.integers(0, 5)) for _ in range(m))
    own = draw(st.integers(0, (1 << m) - 1))
    prev = draw(st.integers(0, (1 << m) - 1)) & ~own
    return valuation, prices, own, prev


@settings(max_examples=60, deadline=None)
@given(bid_contexts())
def test_truthful_bids_are_always_locally_optimal(case):
    valuation, prices, own, prev = case
    ctx = make_ctx(valuation, prices, own=own, t=1, prev_bid=prev)
    assert is_locally_optimal(ctx, truthful_bid(ctx))


@settings(max_examples=60, deadline=None)
@given(bid_contexts(), st.sampled_from(["incremented", "posted"]))
def test_table_and_generic_paths_always_agree(case, variant):
    # the generic side is the brute-force reference in helpers
    valuation, prices, own, prev = case
    ctx = make_ctx(valuation, prices, own=own, t=1, prev_bid=prev)
    assert truthful_bid(ctx) == naive_truthful(valuation, prices, own)
    for start in ("previous", "empty"):
        assert locally_optimal_bid(ctx, start) == naive_locally_optimal(
            valuation, prices, own, prev, start
        )
    for bid in range(1 << valuation.universe_size):
        assert is_locally_optimal(ctx, bid) == naive_is_locally_optimal(
            valuation, prices, own, bid
        )
        if not bid & own:
            assert is_secure(ctx, bid, variant) == naive_is_secure(
                valuation, prices, own, bid, variant
            )
    try:
        fast = profit_max_secure_bid(ctx, variant)
    except InsecureProvisionalState as exc:
        fast = ("insecure", exc.witness_mask)
    assert fast == naive_profit_max_secure(valuation, prices, own, variant)


# ---------------------------------------------------------------------------
# Security end to end: all-secure auctions never overpay, never trip


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 3),
    alpha=st.sampled_from([1, 2, 3]),
    gen_seed=st.integers(0, 2**16),
    run_seed=st.integers(0, 2**32 - 1),
)
def test_all_secure_runs_stay_within_value(m, n, alpha, gen_seed, run_seed):
    valuations = tuple(
        random_near_submodular(m, alpha, 30, gen_seed + i) for i in range(n)
    )
    strategies = tuple(SecureProfitMaxStrategy() for _ in range(n))
    # never raises InsecureProvisionalState: held prices cannot rise
    outcome = run_auction(valuations, strategies, seed=run_seed)
    report = measure_rationality(outcome, valuations)
    assert report.lam <= 1
    for i, held in enumerate(outcome.allocation):
        paid = sum(
            outcome.prices[j] for j in range(m) if (held >> j) & 1
        )
        assert valuations[i].value(held) >= paid


# ---------------------------------------------------------------------------
# Every engine path equals the reference auction

BUILTIN_RULES = (
    TruthfulStrategy(),
    LocallyOptimalStrategy("previous"),
    LocallyOptimalStrategy("empty"),
    SecureProfitMaxStrategy("incremented"),
    SecureProfitMaxStrategy("posted"),
)


@st.composite
def memoised_auctions(draw):
    """(valuations, strategies, seeds, caps, store limit): built-in rules
    only, so the list has a store, over shared valuation objects, mostly
    truthful and local search from the previous bid."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4))
    rules = draw(st.sampled_from([BUILTIN_RULES[:2], BUILTIN_RULES]))
    pool = []
    valuations = []
    for _ in range(n):
        # bidders may share one valuation object, and so its memo
        pick = draw(st.integers(0, len(pool)))
        if pick == len(pool):
            pool.append(draw(monotone_tables(min_m=m, max_m=m)))
        valuations.append(pool[pick])
    strategies = tuple(draw(st.sampled_from(rules)) for _ in range(n))
    seeds = draw(st.lists(st.integers(0, 23), min_size=2, max_size=2))
    # None: the default round budget
    caps = draw(st.lists(st.sampled_from((0, 1, 3, 8, None)), min_size=1,
                         max_size=2))
    limit = draw(st.sampled_from([None, None, 2, 5]))
    return tuple(valuations), strategies, seeds, caps, limit


def _reference(valuations, strategies, seed, cap):
    """The reference's (outcome, observer calls), or (error type, bidder)."""
    try:
        return reference_auction(valuations, strategies, seed, cap)
    except (InvalidBid, InsecureProvisionalState) as exc:
        return type(exc), exc.bidder


def _engine(valuations, strategies, seed, cap, trace, observe, prepared):
    """run_auction's (outcome or partial outcome, observer calls), or
    (error type, bidder)."""
    calls = []
    try:
        outcome = run_auction(
            valuations, strategies, seed, max_rounds=cap, record_trace=trace,
            observer=(lambda *call: calls.append(call)) if observe else None,
            prepared=prepared)
    except Divergence as exc:
        outcome = exc.outcome
    except (InvalidBid, InsecureProvisionalState) as exc:
        return type(exc), exc.bidder
    return outcome, calls


def _trace_text(records):
    buffer = io.StringIO()
    write_trace_jsonl(records, buffer)
    return buffer.getvalue()


def _shown(result, trace):
    """A run's result, and its trace bytes when it is a traced outcome."""
    if trace and type(result[0]) is AuctionOutcome:
        return result + (_trace_text(result[0].records),)
    return result


# (record_trace, observed, on the warm PreparedBidders): the cold run is
# traced and observed at once
PATHS = ((True, True, False), (True, False, True), (False, False, True),
         (False, True, True), (True, True, True))


def engine_mismatches(valuations, strategies, seeds, caps, warm_seeds=16):
    """Every (seed, cap, path) whose run differs from the reference in its
    outcome, records, trace bytes, observer calls or error. The warm
    PreparedBidders first plays seeds 0 .. warm_seeds - 1 quietly, each
    once capped (cycling through caps) and once uncapped: capped runs meet
    heads first, and the store holds whole stretches for the checked caps
    to cut."""
    top = default_max_rounds(valuations)
    caps = [top if cap is None else cap for cap in caps]
    warm = PreparedBidders(valuations, strategies)
    for seed in range(warm_seeds):
        for cap in (caps[seed % len(caps)], top):
            _engine(valuations, strategies, seed, cap, False, False, warm)
    mismatches = []
    for seed in seeds:
        for cap in caps:
            expected = _reference(valuations, strategies, seed, cap)
            for trace, observe, use_warm in PATHS:
                got = _engine(valuations, strategies, seed, cap, trace,
                              observe, warm if use_warm else None)
                want = expected
                if type(expected[0]) is AuctionOutcome:
                    outcome, calls = expected
                    want = (outcome if trace else replace(outcome, records=None),
                            calls if observe else [])
                if _shown(got, trace) != _shown(want, trace):
                    mismatches.append((seed, cap, trace, observe, use_warm))
    return mismatches


def _bidders(scenario):
    return scenario.valuations, scenario.strategies


def _previous_bid_bidders():
    # three bidders who start from last round's bid: some round-start
    # (holdings, prices) recur with different last bids and different bids
    valuations = tuple(random_near_submodular(2, 2, 8, random.Random(40 + i)
                                              .randrange(2**32))
                       for i in range(3))
    return valuations, (LocallyOptimalStrategy("previous"),) * 3


def _random_mixed_bidders():
    rng = random.Random(41)
    shared, own, third = (
        random_near_submodular(3, 2, 12, rng.randrange(2**32)) for _ in range(3)
    )
    valuations = (shared, shared, shared, own, third)
    strategies = (LocallyOptimalStrategy("previous"),) * 3 + (
        LocallyOptimalStrategy("empty"), SecureProfitMaxStrategy())
    return valuations, strategies


def _complement_pair():
    # items 0 and 1 are worth 10 together and item 2 is worth 5 with
    # either: a split swaps 0 and 1 until both bidders turn to item 2 in
    # the same round, and a sweep passes the pair back and forth until
    # nobody bids
    valuation = TableValuation((0, 1, 1, 10, 1, 5, 5, 10))
    return (valuation,) * 2, (TruthfulStrategy(),) * 2


_SHARED = TableValuation((0, 0, 0, 3, 2, 2, 5, 5))
_PAIR_10 = build_bad_pair(10).valuations
# seed 0: the posted-variant secure bidder wins items 0 and 2 at price 2
# in round 1; item 2 alone is worth 1 to it, so round 2 raises
_INSECURE = ((TableValuation((0, 1, 1, 2, 1, 4, 1, 4)),
              TableValuation((0, 2, 3, 3, 2, 4, 3, 6))),
             (SecureProfitMaxStrategy("posted"), TruthfulStrategy()))
_BAD_BIDS = (CallableStrategy(lambda ctx: ctx.own_set or 1),
             CallableStrategy(lambda ctx: 1 << ctx.m))
# a rule that reads its own bid history: truthful until it has bid twice
_TWO_BIDS = CallableStrategy(
    lambda ctx: truthful_bid(ctx) if sum(map(bool, ctx.own_bid_history)) < 2
    else 0)


@settings(max_examples=40, deadline=None)
@given(memoised_auctions())
# 48- and 97-round stretches cut by every third cap
@example((*_bidders(build_bad_pair(100)), (20, 21, 22), range(0, 100, 3), None))
@example((*_bidders(build_bad_pair(100)), (20, 21), (10, 60, None), 60))
@example((*_previous_bid_bidders(), range(16, 30), (None, 5), None))
@example((*_previous_bid_bidders(), range(16, 30), (None,), 6))
@example((*_complement_pair(), range(8), (2, None), None))
@example((*_random_mixed_bidders(), range(12, 20), (3, None), 3))
@example((*_bidders(build_bad_pair(10)), (3, 20), (1, None), 3))
@example((*_bidders(build_truthful_tight(4, 3, 6)), (3, 20), (1, None), None))
@example((*_bidders(build_local_tight(L=2)), (3, 20), (1, None), 3))
@example((*_bidders(build_superadditive(5)), (3, 20), (1, None), None))
@example((*_bidders(build_nonsecure_punishment()), (3, 20), (1, None), None))
@example((*_bidders(build_scripted_partition([[0], [1, 2]])), (3, 20),
          (1, None), None))
# seed 4 reaches a state of seed 2's with another last bid for local search
@example(((_SHARED,) * 3, BUILTIN_RULES[:2] + BUILTIN_RULES[:1], (2, 4),
          (None,), None))
@example((*_INSECURE, (0, 1), (None,), None))
# lists with a rule that is not memoised keep no store
@example((_PAIR_10, (TruthfulStrategy(), ScriptedStrategy((1, 2, 1))),
          range(8), (2, None), None))
@example(((TableValuation((0, 4)),) * 3, (_TWO_BIDS,) + BUILTIN_RULES[:1] * 2,
          range(8), (None,), None))
# a bid on an item the bidder holds, and one outside the universe
@example((_PAIR_10, (TruthfulStrategy(), _BAD_BIDS[0]), (0, 1), (None,), None))
@example((_PAIR_10, (_BAD_BIDS[1], TruthfulStrategy()), (0,), (None,), None))
def test_every_engine_path_equals_the_reference(instance):
    valuations, strategies, seeds, caps, limit = instance
    with pytest.MonkeyPatch.context() as patch:
        if limit is not None:
            patch.setattr(mechanism, "DECISION_CACHE_LIMIT", limit)
        assert engine_mismatches(valuations, strategies, seeds, caps) == []


def _reference_rows(scenario, trials, seed, collect_lambda):
    """run_trials' rows, built from reference outcomes."""
    valuations = scenario.valuations
    optimal = reference_optimal_welfare(valuations)[0]
    rows = []
    for trial in range(trials):
        trial_seed = derive_seed(seed, trial)
        outcome, _ = reference_auction(valuations, scenario.strategies,
                                       trial_seed,
                                       default_max_rounds(valuations))
        achieved = sum(v.value(held)
                       for v, held in zip(valuations, outcome.allocation))
        rows.append(TrialRow(
            trial, trial_seed, outcome.rounds, achieved,
            Fraction(achieved, optimal) if optimal else Fraction(1),
            reference_measure_rationality(outcome, valuations).lam
            if collect_lambda else None,
            outcome.diverged,
            tuple(bool(ev.check(outcome, achieved)) for ev in scenario.events)))
    return rows


@pytest.mark.parametrize("build", [
    lambda: build_bad_pair(100), lambda: build_truthful_tight(4, 3, 6),
    lambda: build_local_tight(L=3),
], ids=["bad_pair_100", "truthful_tight", "local_tight"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_run_trials_rows_equal_the_reference_rows(build, jobs):
    # the first call warms the scenario's store for the serial second one;
    # pooled chunks start cold in their own processes
    scenario = build()
    for collect_lambda in (False, True):
        run_trials(scenario, 60, 1, collect_lambda=collect_lambda)
        assert list(run_trials(scenario, 60, 2, jobs=jobs,
                               collect_lambda=collect_lambda).rows) == (
            _reference_rows(scenario, 60, 2, collect_lambda))


# ---------------------------------------------------------------------------
# Winner determination: skipped idle layers change neither the optimum nor
# which copy of a valuation wins it

COPY_KINDS = ("reused", "equal", "interleaved", "many")


def supermodular_weights(m):
    """Up to 2m (item set, weight >= 0) terms for supermodular_values."""
    return st.lists(st.tuples(st.integers(1, (1 << m) - 1), st.integers(0, 4)),
                    max_size=2 * m)


def base_valuations(m):
    """Any monotone table, or one of the supermodular kinds: additive,
    symmetric step with num >= den, a drawn supermodular table."""
    return st.one_of(
        monotone_tables(min_m=m, max_m=m),
        st.lists(st.integers(0, 4), min_size=m, max_size=m).map(
            lambda weights: AdditiveValuation(tuple(weights))),
        st.tuples(st.integers(1, 3), st.integers(0, 3)).map(
            lambda dn: SymmetricStepValuation(m, dn[0] + dn[1], dn[0])),
        supermodular_weights(m).map(
            lambda weights: TableValuation(supermodular_values(m, weights))),
    )


@st.composite
def repeated_valuations(draw):
    m = draw(st.integers(1, 5))
    base = draw(base_valuations(m))
    kind = draw(st.sampled_from(COPY_KINDS))
    if kind == "reused":  # one object, several bidders
        return (base,) * draw(st.integers(2, m + 2))
    if kind == "equal":  # equal tables held by distinct objects
        count = draw(st.integers(2, m + 2))
        return tuple(TableValuation(base.value_table()) for _ in range(count))
    others = draw(st.lists(monotone_tables(min_m=m, max_m=m),
                           min_size=1, max_size=2))
    equal = TableValuation(base.value_table())
    if kind == "interleaved":  # copies of base around other tables
        pool = [base, equal, *others]
        return tuple(draw(st.lists(st.sampled_from(pool),
                                   min_size=3, max_size=8)))
    # more copies than items, reused and equal, with one other table
    copies = [draw(st.sampled_from([base, equal]))
              for _ in range(draw(st.integers(m + 1, m + 3)))]
    copies.insert(draw(st.integers(0, len(copies))), others[0])
    return tuple(copies)


@st.composite
def zero_led_valuations(draw):
    """Idle all-zero tables first, so the first gaining layer comes late,
    then draws from a few tables, repeats included."""
    m = draw(st.integers(1, 5))
    pool = draw(st.lists(base_valuations(m), min_size=1, max_size=3))
    zeros = (TableValuation((0,) * (1 << m)),) * draw(st.integers(0, 3))
    return zeros + tuple(draw(st.lists(st.sampled_from(pool),
                                       min_size=1, max_size=5)))


_COPIED = (0, 2, 0, 3, 2, 2, 4, 5)  # m = 3; a second copy still gains


@settings(max_examples=200, deadline=None)
@given(st.one_of(repeated_valuations(), zero_led_valuations()))
# layers: copy 1 and 2 gain, copy 3 is idle, the interleaved table gains,
# copy 4 stays idle; skipping every repeat of a table loses welfare 1
@example((TableValuation(_COPIED),) * 3
         + (TableValuation((0, 1, 2, 3, 0, 1, 3, 3)), TableValuation(_COPIED)))
# the first row is the additive table, so supermodular: its equal table
# is idle without a scan; the first _COPIED layer leaves a row that is
# not, so the second must be scanned, and it gains
@example((AdditiveValuation((0, 0, 1)),
          TableValuation((0, 0, 0, 0, 1, 1, 1, 1)),
          TableValuation(_COPIED), TableValuation(_COPIED)))
# after an idle zero table, a copy gains on the unit-demand row; the
# descending rescan meets {1} before {0} at 4, so the backtrack must
# keep {1} for the copy and leave {0} to the first
@example((TableValuation((0, 0, 0, 0)), UnitDemandValuation((2, 2)),
          UnitDemandValuation((2, 2))))
def test_optimal_welfare_equals_the_plain_dp(valuations):
    result = optimal_welfare(valuations)
    assert (result.welfare, result.assignment) == reference_optimal_welfare(
        valuations
    )


@st.composite
def wide_rows(draw):
    """(row, m): a row over m <= 10 items whose span max - min is 2**t or
    2**t - 1 for t <= 70, at an offset that keeps every entry in
    +-2**70, so the packed checks meet lanes filled to the last bit below
    their spare bits and just past it. Kinds: raw entries (both extremes
    present), modular rows (every supermodularity term exactly 0) and
    modular rows with one inner entry moved by 1 (some term -1)."""
    m = draw(st.integers(1, 10))
    size = 1 << m
    t = draw(st.integers(0, 70))
    span = (1 << t) - draw(st.integers(0, 1))
    low = draw(st.integers(-(1 << 70), (1 << 70) - span))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.sampled_from(("raw", "modular"))) == "raw":
        row = [rng.randint(0, span) for _ in range(size)]
        ends = rng.sample(range(size), 2)
        row[ends[0]], row[ends[1]] = 0, span
    else:
        cuts = sorted(rng.randint(0, span) for _ in range(m - 1))
        coefs = [(b - a) * rng.choice((-1, 1))
                 for a, b in zip([0, *cuts], [*cuts, span])]
        floor = sum(c for c in coefs if c < 0)
        row = [sum(c for i, c in enumerate(coefs) if s >> i & 1) - floor
               for s in range(size)]
        inner = [s for s in range(size) if 0 < row[s] < span]
        if inner and draw(st.booleans()):
            row[rng.choice(inner)] += rng.choice((-1, 1))
    return [low + v for v in row], m


@settings(max_examples=60, deadline=None)
@given(wide_rows())
# spans of 63 fill a byte lane up to its 2 spare bits: a modular row, and
# a second difference of 2 * 63, the widest a byte lane holds
@example(([0, 63, 0, 63, 0, 63, 0, 63], 3))
@example(([63, 0, 0, 63], 2))
# spans of 7 bits, which 1 spare bit would squeeze into byte lanes
@example(([38, 42, 80, 84, 0, 4, 42, 46], 3))
@example(([0, 111, 84, 6], 2))
@example(([-64, -65], 1))
@example(([5 - (1 << 70)] * 3 + [1 << 70], 2))
def test_the_packed_verdicts_equal_the_definitions_on_wide_rows(case):
    row, m = case
    assert _supermodular(row, m) == (not supermodular_negatives(row, m))


def test_the_packed_verdicts_are_exact_on_every_small_row():
    # every row over m <= 2 items with entries in {-1, 0, 1}
    for m in range(3):
        for row in itertools.product((-1, 0, 1), repeat=1 << m):
            assert _supermodular(row, m) == (not supermodular_negatives(row, m))


# ---------------------------------------------------------------------------
# Rationality: the streamed scan equals the plain item-by-item scan


@st.composite
def rationality_auctions(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    top = (1 << m) - 1
    valuations = tuple(
        draw(monotone_tables(min_m=m, max_m=m)) for _ in range(n)
    )
    scripts = st.lists(st.integers(0, top), max_size=4).map(ScriptedStrategy)
    strategies = tuple(
        draw(st.one_of(st.sampled_from(BUILTIN_RULES), scripts))
        for _ in range(n)
    )
    seed = draw(st.integers(0, 2**32 - 1))
    subset_cap = draw(st.sampled_from([0, 1, 2, 20]))
    max_rounds = draw(st.sampled_from([4, 60]))  # 4 often diverges
    return valuations, strategies, seed, subset_cap, max_rounds


def _scripted(values, *scripts):
    return (tuple(TableValuation(v) for v in values),
            tuple(ScriptedStrategy(s) for s in scripts))


# Bidder 0 keeps item 0 (ratio 1 from round 0) while bidder 1 wins item 1
# at the same ratio in round 1: the first witness stays.
_KEPT = _scripted([(0, 1, 1, 2)] * 2, (0b01,), (0, 0b10))
# Bidder 0 holds {0}, then {1}, then {0} again at higher prices.
_ABA = _scripted([(0, 2, 3, 5)] * 2, (0b01, 0b10, 0b01), (0, 0b01, 0b10))
# Ratio 1 on item 0 in round 0, then worthless item 1 is priced: +inf.
_WORTHLESS = _scripted([(0, 1, 0, 1)], (0b01, 0b10))


@settings(max_examples=80, deadline=None)
@given(rationality_auctions())
@example((*_KEPT, 0, 20, 60))
@example((*_ABA, 0, 20, 60))
@example((*_WORTHLESS, 0, 20, 60))
@example((*_WORTHLESS, 0, 1, 60))
def test_rationality_scan_equals_the_reference(instance):
    valuations, strategies, seed, subset_cap, max_rounds = instance
    scan = RationalityScan(valuations, subset_cap)
    try:
        outcome = run_auction(valuations, strategies, seed=seed,
                              max_rounds=max_rounds, observer=scan.update)
    except Divergence as exc:  # its records are the rounds observed
        outcome = exc.outcome
    except InsecureProvisionalState:
        assume(False)
    reference = reference_measure_rationality(outcome, valuations, subset_cap)
    assert measure_rationality(outcome, valuations, subset_cap) == reference
    assert scan.report() == reference


@st.composite
def recorded_rounds(draw):
    """Records no engine need produce: each round, every bidder keeps its
    holding or takes any mask, so holdings may overlap, and every item
    takes any price."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    valuations = tuple(
        draw(monotone_tables(min_m=m, max_m=m)) for _ in range(n)
    )
    masks = st.integers(0, (1 << m) - 1)
    records = []
    provisional = (0,) * n
    for t in range(draw(st.integers(1, 5))):
        provisional = tuple(
            held if t and draw(st.booleans()) else draw(masks)
            for held in provisional
        )
        prices = tuple(draw(st.lists(st.integers(0, 4), min_size=m,
                                     max_size=m)))
        records.append(_record(t, prices, provisional))
    return _outcome(records), valuations, draw(st.sampled_from([0, 1, 2, 20]))


def _record(t, prices, provisional):
    return RoundRecord(t=t, prices_before=prices, bids=(0,) * len(provisional),
                       excess=0, draws=(), prices_after=prices,
                       provisional=provisional)


def _outcome(records):
    return AuctionOutcome(allocation=records[-1].provisional,
                          prices=records[-1].prices_after,
                          rounds=len(records), records=tuple(records))


# Bidder 1 keeps item 2 while its price moves from 0 to 1; bidder 0 takes
# items {0, 1, 2} at the same time, so item 2 has two holders. Item 2 is
# worthless to bidder 1, so its full holding carries +inf.
_OVERLAP = (
    _outcome([_record(0, (0, 0, 0), (0, 0, 0)),
              _record(1, (0, 0, 0), (0, 0b100, 0)),
              _record(2, (0, 0, 1), (0b111, 0b100, 0))]),
    (TableValuation((0, 0, 0, 0, 0, 0, 0, 1)),
     TableValuation((0,) * 8), TableValuation((0,) * 8)),
    20,
)


@settings(max_examples=150, deadline=None)
@given(recorded_rounds())
@example(_OVERLAP)
def test_measure_rationality_equals_the_reference_on_any_records(instance):
    outcome, valuations, subset_cap = instance
    assert measure_rationality(outcome, valuations, subset_cap) == (
        reference_measure_rationality(outcome, valuations, subset_cap)
    )


# ---------------------------------------------------------------------------
# The transition store: what it costs and what bounds it


def _quiet_result(valuations, strategies, seed, cap, **options):
    """The outcome, or the partial one, of an untraced, unobserved run."""
    try:
        return run_auction(valuations, strategies, seed, max_rounds=cap,
                           record_trace=False, **options)
    except Divergence as exc:
        return "diverged", exc.outcome


def _stored_rounds(prepared):
    """The rounds the segments span: each segment's rows, and its tail."""
    return sum(len(segment[0]) + 1 for segment in prepared.segments.values())


def _counting(monkeypatch, name):
    calls = []
    real = getattr(mechanism, name)
    monkeypatch.setattr(mechanism, name,
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_the_store_admits_only_heads_seen_twice():
    # truthful_tight's round-1 heads record which bidders won, and never
    # recur: only round 0's head is admitted, as a round that draws
    scenario = build_truthful_tight(4, 3, 60)
    valuations, strategies = scenario.valuations, scenario.strategies
    prepared = PreparedBidders(valuations, strategies)
    run_auction(valuations, strategies, 0, record_trace=False,
                prepared=prepared)
    assert not prepared.segments and prepared.sightings
    for seed in range(1, 50):
        run_auction(valuations, strategies, seed, record_trace=False,
                    prepared=prepared)
    assert len(prepared.segments) == _stored_rounds(prepared) == 1
    assert prepared.segment_rounds == 1


def test_run_trials_plans_few_of_the_rounds_it_settles(monkeypatch):
    # 590 plans for 14,410 rounds; a plan cache per run_auction call made
    # 800 (four per auction), and no cache makes one per round
    plans = _counting(monkeypatch, "_plan_round")
    stats = run_trials(build_bad_pair(100), 200, 7)
    assert len(plans) * 20 < sum(row.rounds + 1 for row in stats.rows)


def test_run_trials_settles_few_of_the_rounds_it_runs(monkeypatch):
    # a 10k-trial pass settles 20,580 of its 747,744 rounds, λ on or off;
    # without segments it settles every round
    settles = _counting(monkeypatch, "_settle")
    for collect_lambda in (False, True):
        del settles[:]
        stats = run_trials(build_bad_pair(100), 2000, 123,
                           collect_lambda=collect_lambda)
        assert len(settles) * 10 < sum(row.rounds + 1 for row in stats.rows)


def test_warm_runs_settle_only_their_tails(monkeypatch):
    # capped runs come first and cut bad_pair's 48- and 97-round stretches,
    # which later runs store whole; once both round-1 heads are stored, a
    # quiet and an observed run each settle two tails: round 0's draw and
    # the last, empty round
    scenario = build_bad_pair(100)
    valuations, strategies = scenario.valuations, scenario.strategies
    warm = PreparedBidders(valuations, strategies)
    for seed, cap in [(seed, seed) for seed in range(100)] + [
            (seed, None) for seed in range(40)]:
        _quiet_result(valuations, strategies, seed, cap, prepared=warm)
    settles = _counting(monkeypatch, "_settle")
    for seed in range(100, 110):
        for options in ({"record_trace": False},
                        {"record_trace": False, "observer": lambda *call: 0}):
            del settles[:]
            outcome = run_auction(valuations, strategies, seed,
                                  prepared=warm, **options)
            assert len(settles) == 2 < outcome.rounds


def test_a_memo_miss_after_a_jump_sees_the_cold_histories():
    valuations, strategies = _previous_bid_bidders()
    warm = PreparedBidders(valuations, strategies)
    for seed in range(40):
        _quiet_result(valuations, strategies, seed, None, prepared=warm)
    # forget every decision and every stretch but those from round 0 and
    # round 1 (prices (0, 0) and (1, 1)), so a run that jumps both asks the
    # rules at the head that follows
    for memo in warm.memos:
        memo.clear()
    for head in [head for head in warm.segments if sum(head[1]) > 2]:
        del warm.segments[head]
    assert warm.segments
    seen = []

    def spy(i, propose):
        def asked(ctx):
            seen.append((ctx.t, i, tuple(ctx.own_set_history),
                         tuple(ctx.own_bid_history)))
            return propose(ctx)
        return asked

    warm.proposers = [spy(i, p) for i, p in enumerate(warm.proposers)]
    jumped = 0
    for seed in range(40, 80):
        del seen[:]
        _quiet_result(valuations, strategies, seed, None, prepared=warm)
        cold = run_auction(*_previous_bid_bidders(), seed).records
        for t, i, own_sets, own_bids in seen:
            assert own_sets == (0,) + tuple(
                record.provisional[i] for record in cold[:t])
            assert own_bids == tuple(record.bids[i] for record in cold[:t])
        jumped += bool(seen) and seen[0][0] > 1
    assert jumped


@pytest.mark.parametrize("bidders, cap", [
    (_previous_bid_bidders, 6), (_previous_bid_bidders, 16),
    (lambda: _bidders(build_bad_pair(100)), 60),
], ids=["previous_6", "previous_16", "bad_pair_60"])
def test_segments_stay_within_the_cache_limit(
        monkeypatch, bidders, cap):
    # bad_pair's 97-round stretches are longer than the limit of 60
    monkeypatch.setattr(mechanism, "DECISION_CACHE_LIMIT", cap)
    valuations, strategies = bidders()
    prepared = PreparedBidders(valuations, strategies)
    built = evictions = 0
    for seed in range(300):
        heads = set(prepared.segments)
        _quiet_result(valuations, strategies, seed, None, prepared=prepared)
        evictions += not heads <= prepared.segments.keys()
        assert _stored_rounds(prepared) == prepared.segment_rounds <= cap
        assert len(prepared.sightings) <= cap
        assert all(len(memo) <= cap for memo in prepared.memos)
        built += bool(prepared.segments)
    assert built and evictions


def test_a_one_off_call_keeps_no_store(monkeypatch):
    # no head recurs within one auction, so a store that lives for one
    # call would be written and never read
    built = []

    class Recorded(PreparedBidders):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(mechanism, "PreparedBidders", Recorded)
    scenario = build_bad_pair(100)
    for seed in range(3):
        run_auction(scenario.valuations, scenario.strategies, seed,
                    record_trace=False)
    assert len(built) == 3
    for prepared in built:
        assert prepared.segments == {} and not prepared.sightings
        assert prepared.memos[0]


# ---------------------------------------------------------------------------
# Memoised rules and shared setups: runs equal fresh and uncached ones


@st.composite
def builtin_auctions(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    pool = []
    valuations = []
    for _ in range(n):
        # bidders may share one valuation object
        pick = draw(st.integers(0, len(pool)))
        if pick == len(pool):
            pool.append(draw(monotone_tables(min_m=m, max_m=m)))
        valuations.append(pool[pick])
    strategies = tuple(draw(st.sampled_from(BUILTIN_RULES)) for _ in range(n))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
    return tuple(valuations), strategies, seeds


def _outcome_or_error(valuations, strategies, seed):
    try:
        return run_auction(valuations, strategies, seed=seed)
    except Divergence as exc:
        return ("diverged", exc.outcome)
    except InsecureProvisionalState as exc:
        return ("insecure", exc.bidder, exc.witness_mask)


@settings(max_examples=80, deadline=None)
@given(builtin_auctions())
# seed 4 reaches a state of seed 2's with another last bid for local search
@example(((_SHARED,) * 3, BUILTIN_RULES[:2] + BUILTIN_RULES[:1], [2, 4]))
def test_memoised_runs_equal_uncached_runs(instance):
    valuations, strategies, seeds = instance
    uncached = tuple(CallableStrategy(s.propose) for s in strategies)
    # each seed runs twice in a row: a call without prepared builds its own
    # PreparedBidders, so neither run may depend on the runs before it
    for seed in seeds:
        reference = _outcome_or_error(valuations, uncached, seed)
        for _ in range(2):
            assert _outcome_or_error(valuations, strategies, seed) == reference


SETUP_CASES = {
    "truthful_tight": lambda: _bidders(build_truthful_tight(4, 3, 6)),
    "bad_pair": lambda: _bidders(build_bad_pair(10)),
    "local_tight": lambda: _bidders(build_local_tight(L=2)),
    "mixed": _random_mixed_bidders,
}


def _auction_result(valuations, strategies, seed, **options):
    try:
        return run_auction(valuations, strategies, seed, max_rounds=60, **options)
    except Divergence as exc:
        return "diverged", exc.outcome
    except InsecureProvisionalState as exc:
        return "insecure", exc.bidder, exc.witness_mask


@pytest.mark.parametrize("cap", [None, 3])
@pytest.mark.parametrize("case", sorted(SETUP_CASES))
def test_a_shared_prepared_object_gives_the_fresh_outcomes(monkeypatch, case, cap):
    if cap is not None:
        monkeypatch.setattr(mechanism, "DECISION_CACHE_LIMIT", cap)
    valuations, strategies = SETUP_CASES[case]()
    prepared = PreparedBidders(valuations, strategies)
    for seed in range(10):
        # fresh objects: a new setup and empty caches every time; traced
        # and quiet runs alike fill the memos, and only quiet runs the
        # segments
        for record_trace in (True, False):
            fresh = _auction_result(*SETUP_CASES[case](), seed,
                                    record_trace=record_trace)
            assert _auction_result(valuations, strategies, seed,
                                   record_trace=record_trace,
                                   prepared=prepared) == fresh
        if cap is not None:
            assert all(len(memo) <= cap for memo in prepared.memos if memo)
            assert prepared.segment_rounds <= cap
            assert len(prepared.sightings) <= cap


# ---------------------------------------------------------------------------
# A warm store runs every round as a cold run


def _observed_run(valuations, strategies, seed, **options):
    """(outcome or ("diverged", partial), observer calls, λ report)."""
    calls = []
    scan = RationalityScan(valuations)

    def observer(t, prices, provisional):
        calls.append((t, prices, tuple(provisional)))
        scan.update(t, prices, provisional)

    try:
        outcome = run_auction(valuations, strategies, seed, observer=observer,
                              **options)
    except Divergence as exc:
        outcome = "diverged", exc.outcome
    return outcome, calls, scan.report()


def _warm(build, seeds=range(20)):
    """A scenario's bidders and a PreparedBidders whose segments hold what
    untraced runs of `seeds` stored."""
    valuations, strategies = _bidders(build())
    prepared = PreparedBidders(valuations, strategies)
    for seed in seeds:
        run_auction(valuations, strategies, seed, record_trace=False,
                    prepared=prepared)
    assert prepared.segments
    return valuations, strategies, prepared


@pytest.mark.parametrize("build", [
    lambda: build_bad_pair(100), lambda: build_truthful_tight(4, 3, 6),
], ids=["bad_pair", "truthful_tight"])
def test_a_warm_store_gives_the_cold_observations(monkeypatch, build):
    # a warm observed run takes the bids and plans of its head rounds from
    # the segments' tails
    valuations, strategies, warm = _warm(build)
    # cold: fresh valuations, so empty decision memos and no segments
    expected = [_observed_run(*_bidders(build()), seed, record_trace=False)
                for seed in range(20, 40)]
    plans = _counting(monkeypatch, "_plan_round")
    got = [_observed_run(valuations, strategies, seed, record_trace=False,
                         prepared=warm)
           for seed in range(20, 40)]
    assert got == expected
    assert len(plans) < sum(outcome.rounds + 1 for outcome, _, _ in got)


@pytest.mark.parametrize("other", [
    ScriptedStrategy((0b01, 0b10, 0b01)), CallableStrategy(truthful_bid),
], ids=["scripted", "callable"])
def test_a_list_with_an_unmemoised_rule_has_no_store(other):
    valuations = build_bad_pair(10).valuations
    strategies = (TruthfulStrategy(), other)
    prepared = PreparedBidders(valuations, strategies)
    assert prepared.segments is None
    for seed in range(10):
        fresh = build_bad_pair(10).valuations
        assert _auction_result(valuations, strategies, seed,
                               record_trace=False, prepared=prepared) == (
            _auction_result(fresh, strategies, seed, record_trace=False))
    assert prepared.segments is None and not prepared.sightings
    if isinstance(other, CallableStrategy):
        # a wrapped truthful rule bids as the stored truthful one
        warm_valuations, truthful, warm = _warm(lambda: build_bad_pair(10))
        assert truthful == (TruthfulStrategy(),) * 2
        for seed in range(10):
            assert _auction_result(valuations, strategies, seed,
                                   record_trace=False) == (
                _auction_result(warm_valuations, truthful, seed,
                                record_trace=False, prepared=warm))


class _Unkept(dict):
    """A segment store that keeps nothing, so a run never jumps."""

    def __setitem__(self, head, segment):
        pass


WARM_BUILDS = {
    "bad_pair_100": lambda: build_bad_pair(100),
    "bad_pair_10": lambda: build_bad_pair(10),
    "truthful_tight": lambda: build_truthful_tight(4, 3, 6),
    "local_tight": lambda: build_local_tight(L=3),
}


@pytest.mark.parametrize("build, collect_lambda", [
    pytest.param(build, collect_lambda,
                 id=name + ("-lambda" if collect_lambda else ""))
    for name, build in WARM_BUILDS.items() for collect_lambda in (False, True)
])
def test_a_warm_segment_cache_gives_the_cold_rows(
        monkeypatch, build, collect_lambda):
    warm = build()
    run_trials(warm, 300, 1, collect_lambda=collect_lambda)
    got = run_trials(warm, 300, 2, collect_lambda=collect_lambda)
    assert warm.prepared.segments
    # cold: a fresh scenario that never jumps
    cold = build()
    monkeypatch.setattr(cold.prepared, "segments", _Unkept())
    assert got == run_trials(cold, 300, 2, collect_lambda=collect_lambda)
    assert not cold.prepared.segments


def test_a_cap_inside_a_segment_diverges_at_the_cold_round():
    valuations, strategies = _bidders(build_bad_pair(100))
    warm = PreparedBidders(valuations, strategies)
    for seed in range(40):  # enough to cache every stretch in full
        _quiet_result(valuations, strategies, seed, None, prepared=warm)
    assert max(len(segment[0]) for segment in warm.segments.values()) > 40
    heads = set(warm.segments)
    for seed in range(40, 45):
        for cap in range(0, 100, 3):
            assert _quiet_result(valuations, strategies, seed, cap,
                                 prepared=warm) == (
                _quiet_result(*_bidders(build_bad_pair(100)), seed, cap))
    # the rounds of a segment that does not fit start no segments
    assert set(warm.segments) == heads


def test_a_stretch_cut_by_a_cap_is_stored_whole_by_a_later_run():
    # capped runs stop inside the stretch from head (2, 1) and store none
    # of it; later uncapped runs must store it whole, as long as its
    # mirror (1, 2)
    valuations, strategies = _bidders(build_bad_pair(100))
    warm = PreparedBidders(valuations, strategies)
    runs = ([(seed, None) for seed in range(20)]
            + [(20 + cap, cap) for cap in range(100)]
            + [(seed, None) for seed in range(200, 250)])
    for seed, cap in runs:
        assert _quiet_result(valuations, strategies, seed, cap,
                             prepared=warm) == (
            _quiet_result(*_bidders(build_bad_pair(100)), seed, cap))
        assert warm.segment_rounds == _stored_rounds(warm)
    lengths = {head[0]: len(segment[0])
               for head, segment in warm.segments.items()}
    assert lengths[(2, 1)] == lengths[(1, 2)] == 97


@pytest.mark.parametrize("name", ["bad_pair_100", "truthful_tight",
                                  "local_tight"])
def test_a_warm_traced_run_plays_every_round(monkeypatch, name):
    # 40 seeds see every round-1 head of bad_pair at least twice; a traced
    # run on that warm store neither jumps, sights nor stores, so every
    # record comes from a round it played
    build = WARM_BUILDS[name]
    valuations, strategies, warm = _warm(build, range(40))
    store = (dict(warm.segments), warm.segment_rounds, set(warm.sightings))
    settles = _counting(monkeypatch, "_settle")
    for seed in range(40, 60):
        # cold: one run on a fresh PreparedBidders, which stores nothing
        expected = run_auction(*_bidders(build()), seed)
        del settles[:]
        got = run_auction(valuations, strategies, seed, prepared=warm)
        assert len(settles) == got.rounds + 1
        # the same records, so the same trace bytes, and a trace that
        # replays
        assert got == expected
        assert _trace_text(got.records) == _trace_text(expected.records)
        assert replay_trace(got.records).rounds == got.rounds
    assert (warm.segments, warm.segment_rounds, warm.sightings) == store


def test_a_warm_observed_run_jumps_with_the_cold_observations(monkeypatch):
    # 40 seeds see both round-1 heads at least twice
    valuations, strategies, warm = _warm(lambda: build_bad_pair(100),
                                         range(40))
    settles = _counting(monkeypatch, "_settle")
    for seed in range(20, 30):
        # cold: one run on a fresh PreparedBidders, which stores nothing
        expected = _observed_run(*_bidders(build_bad_pair(100)), seed,
                                 record_trace=False)
        del settles[:]
        got = _observed_run(valuations, strategies, seed, record_trace=False,
                            prepared=warm)
        # the same observer calls, one per round, and the same λ witnesses
        assert got == expected
        assert [call[0] for call in got[1]] == list(range(got[0].rounds))
        # two tails settle: round 0's draw and the last, empty round
        assert len(settles) == 2


# ---------------------------------------------------------------------------
# What a run stores: each stretch it plays, whole, within the limit


def _traced_stretches(records, reads_last_bid):
    """(end round, head state, segment) for every stretch in a trace: the
    k >= 0 rounds from a head (round 0 or the round after a draw) that
    draw nothing, then the tail, the first round that draws or demands
    nothing, which ends it."""
    n, m = len(records[0].bids), len(records[0].prices_before)
    nobody = (0,) * n
    stretches, head = [], 0
    for end, record in enumerate(records):
        if record.excess and all(len(d.candidates) == 1
                                 for d in record.draws):
            continue
        played = records[head:end]
        before = records[head - 1] if head else None
        state = (before.provisional if before else nobody,
                 records[head].prices_before,
                 (before.bids if before else nobody)
                 if reads_last_bid else None)
        held = records[end - 1].provisional if end else nobody
        stretches.append((end, state, (
            tuple(r.prices_after for r in played),
            tuple(r.provisional for r in played),
            tuple(r.bids for r in played),
            (record.bids, mechanism._plan_round(record.bids, held, m)))))
        head = end + 1
    return stretches


def _stored_by_a_fresh_run(valuations, strategies, seed, cap=None):
    """The segments a fresh PreparedBidders holds after the same quiet run
    twice: the first sights every head it meets, the second stores."""
    fresh = PreparedBidders(valuations, strategies)
    _quiet_result(valuations, strategies, seed, cap, prepared=fresh)
    assert not fresh.segments and fresh.sightings
    _quiet_result(valuations, strategies, seed, cap, prepared=fresh)
    assert fresh.segment_rounds == _stored_rounds(fresh)
    return fresh.segments


@pytest.mark.parametrize("bidders", [
    _complement_pair, _previous_bid_bidders,
    lambda: _bidders(build_bad_pair(10)),
], ids=["complement_pair", "previous", "bad_pair_10"])
def test_a_run_stores_each_stretch_it_plays_up_to_a_draw_or_the_end(bidders):
    valuations, strategies = bidders()
    reads_last_bid = PreparedBidders(valuations, strategies).reads_last_bid
    ends = set()
    for seed in range(20):
        records = run_auction(valuations, strategies, seed).records
        expected = {}
        for end, head, segment in _traced_stretches(records, reads_last_bid):
            expected[head] = segment
            ends.add("empty" if not records[end].excess else "draw")
        assert _stored_by_a_fresh_run(valuations, strategies, seed) == expected
    if bidders is _complement_pair:
        assert ends == {"draw", "empty"}


@pytest.mark.parametrize("bidders", [
    _complement_pair, lambda: _bidders(build_bad_pair(100)),
], ids=["complement_pair", "bad_pair_100"])
def test_a_run_capped_inside_a_stretch_stores_nothing_of_it(bidders):
    valuations, strategies = bidders()
    for seed in range(4):
        records = run_auction(valuations, strategies, seed).records
        stretches = _traced_stretches(records, False)
        for cap in range(len(records) + 1):
            # a stretch is stored once the round that ends it settles
            expected = {
                head: segment for end, head, segment in stretches
                if end < cap or (end == cap and not records[end].excess)}
            assert _stored_by_a_fresh_run(
                valuations, strategies, seed, cap) == expected


@pytest.mark.parametrize("limit", [47, 48, 49, 96, 97, 98])
def test_a_stretch_longer_than_the_cache_limit_is_not_stored(
        monkeypatch, limit):
    monkeypatch.setattr(mechanism, "DECISION_CACHE_LIMIT", limit)
    valuations, strategies = _bidders(build_bad_pair(100))
    lengths = set()
    for seed in range(10):
        records = run_auction(valuations, strategies, seed).records
        expected = {head: segment for _, head, segment
                    in _traced_stretches(records, False)}
        stored = _stored_by_a_fresh_run(valuations, strategies, seed)
        # the long stretch may empty the store of the round-0 segment
        assert stored.items() <= expected.items()
        assert {len(rows) for rows, *_ in stored.values() if rows} == {
            len(rows) for rows, *_ in expected.values()
            if rows and len(rows) + 1 <= limit}
        lengths.update(len(segment[0]) for segment in stored.values())
    # round 0 draws; then one stretch an auction, split (97 rounds and a
    # tail) or sweep (48 rounds and a tail)
    assert lengths - {0} == {k for k in (48, 97) if k + 1 <= limit}
