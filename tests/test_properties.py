"""Property-based invariants: engine rules, analysis oracles, path equality."""

import random
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
    reference_measure_rationality,
    reference_optimal_welfare,
    supermodular_values,
)
from smra import (
    AdditiveValuation,
    CallableStrategy,
    Divergence,
    InsecureProvisionalState,
    LocallyOptimalStrategy,
    RationalityScan,
    ScriptedStrategy,
    SecureProfitMaxStrategy,
    SymmetricStepValuation,
    TableValuation,
    TruthfulStrategy,
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
)
from smra import mechanism
from smra.mechanism import AuctionOutcome, PreparedBidders, RoundRecord
from smra.scenarios import build_bad_pair, build_local_tight, build_truthful_tight
from smra.valuations import Valuation


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


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 6),
    alpha=st.sampled_from([1, 2, 3]),
    value_cap=st.integers(10, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_generator_output_is_certified_and_deterministic(m, alpha, value_cap, seed):
    v1 = random_near_submodular(m, alpha, value_cap, seed)
    v2 = random_near_submodular(m, alpha, value_cap, seed)
    assert v1.value_table() == v2.value_table()
    assert is_alpha_near_submodular(v1, alpha)
    assert 0 < v1.max_value() <= value_cap


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
# Memoised decisions: a run with the built-in rules equals an uncached one

BUILTIN_RULES = (
    TruthfulStrategy(),
    LocallyOptimalStrategy("previous"),
    LocallyOptimalStrategy("empty"),
    SecureProfitMaxStrategy("incremented"),
    SecureProfitMaxStrategy("posted"),
)


@st.composite
def builtin_auctions(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    pool = []
    valuations = []
    for _ in range(n):
        # bidders may share one valuation object, and so its memo
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


_SHARED = TableValuation((0, 0, 0, 3, 2, 2, 5, 5))


@settings(max_examples=80, deadline=None)
@given(builtin_auctions())
# seed 4 reaches a state of seed 2's with another last bid for local search
@example(((_SHARED,) * 3, BUILTIN_RULES[:2] + BUILTIN_RULES[:1], [2, 4]))
def test_memoised_runs_equal_uncached_runs(instance):
    valuations, strategies, seeds = instance
    uncached = tuple(CallableStrategy(s.propose) for s in strategies)
    # each seed runs twice in a row, so the second run is served from the
    # memo; the second seed meets states the first seed's runs remembered
    for seed in seeds:
        reference = _outcome_or_error(valuations, uncached, seed)
        for _ in range(2):
            assert _outcome_or_error(valuations, strategies, seed) == reference


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


_COPIED = (0, 2, 0, 3, 2, 2, 4, 5)  # m = 3; a second copy still gains


@settings(max_examples=120, deadline=None)
@given(repeated_valuations())
# layers: copy 1 and 2 gain, copy 3 is idle, the interleaved table gains,
# copy 4 stays idle; skipping every repeat of a table loses welfare 1
@example((TableValuation(_COPIED),) * 3
         + (TableValuation((0, 1, 2, 3, 0, 1, 3, 3)), TableValuation(_COPIED)))
# the closure row is the additive table, so supermodular: its equal table
# is idle without a scan; the first _COPIED layer leaves a row that is
# not, so the second must be scanned, and it gains
@example((AdditiveValuation((0, 0, 1)),
          TableValuation((0, 0, 0, 0, 1, 1, 1, 1)),
          TableValuation(_COPIED), TableValuation(_COPIED)))
def test_optimal_welfare_equals_the_plain_dp(valuations):
    result = optimal_welfare(valuations)
    assert (result.welfare, result.assignment) == reference_optimal_welfare(
        valuations
    )


class _RawTable(Valuation):
    """Any integer table, for the oracle only: not monotone, and the empty
    bundle may be worth more than zero."""

    def __init__(self, values):
        self.values = tuple(values)

    @property
    def universe_size(self) -> int:
        return len(self.values).bit_length() - 1

    def value(self, mask: int) -> int:
        return self.values[mask]

    def spec_dict(self) -> dict:
        return {"form": "raw", "values": list(self.values)}


@st.composite
def raw_valuations(draw):
    """Idle all-zero tables first, so the subset-max closure runs late,
    then draws from a few raw tables, repeats included. A raw table is
    any table of small values, or a supermodular one whose modular terms
    and empty-bundle value may be negative."""
    m = draw(st.integers(1, 5))
    size = 1 << m
    tables = st.lists(st.integers(0, 6), min_size=size, max_size=size)
    supermodular = st.builds(
        supermodular_values, st.just(m), supermodular_weights(m),
        st.lists(st.integers(-4, 4), min_size=m, max_size=m),
        st.integers(-3, 3))
    pool = draw(st.lists(st.one_of(tables, supermodular).map(_RawTable),
                         min_size=1, max_size=3))
    zeros = (_RawTable((0,) * size),) * draw(st.integers(0, 3))
    return zeros + tuple(draw(st.lists(st.sampled_from(pool),
                                       min_size=1, max_size=5)))


@settings(max_examples=150, deadline=None)
@given(raw_valuations())
# the first gaining table is worth 2 at {0} and at {1}, 1 at {0, 1}: the
# descending rescan meets {1} before {0}, so the backtrack must keep {1}
@example((_RawTable((0, 0, 0, 0)), _RawTable((0, 2, 2, 1))))
# the closure row (0, 2, 0, 2) is supermodular though the table is not
# monotone and its empty bundle is worth 3: the copy is idle without a scan
@example((_RawTable((3, 2, 0, 1)),) * 2)
def test_optimal_welfare_equals_the_plain_dp_on_raw_tables(valuations):
    result = optimal_welfare(valuations)
    assert (result.welfare, result.assignment) == reference_optimal_welfare(
        valuations
    )


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
# Bidder setup: one shared PreparedBidders runs every auction as a fresh call


def _random_mixed_bidders():
    rng = random.Random(41)
    shared, own, third = (
        random_near_submodular(3, 2, 12, rng.randrange(2**32)) for _ in range(3)
    )
    valuations = (shared, shared, shared, own, third)
    strategies = (LocallyOptimalStrategy("previous"),) * 3 + (
        LocallyOptimalStrategy("empty"), SecureProfitMaxStrategy())
    return valuations, strategies


def _scenario_bidders(build):
    return lambda: (build().valuations, build().strategies)


SETUP_CASES = {
    "truthful_tight": _scenario_bidders(lambda: build_truthful_tight(4, 3, 6)),
    "bad_pair": _scenario_bidders(lambda: build_bad_pair(10)),
    "local_tight": _scenario_bidders(lambda: build_local_tight(L=2)),
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
        # fresh objects: a new setup and empty decision memos every time
        fresh = _auction_result(*SETUP_CASES[case](), seed)
        assert _auction_result(
            valuations, strategies, seed, prepared=prepared) == fresh
        if cap is not None:
            assert all(len(memo) <= cap for memo in prepared.memos if memo)
            assert len(prepared.rounds) <= cap
            assert len(prepared.sightings) <= cap


# ---------------------------------------------------------------------------
# The round cache: a warm PreparedBidders runs every round as a cold one


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
    """A scenario's bidders and a PreparedBidders that has run `seeds`."""
    scenario = build()
    valuations, strategies = scenario.valuations, scenario.strategies
    prepared = PreparedBidders(valuations, strategies)
    for seed in seeds:
        run_auction(valuations, strategies, seed, prepared=prepared)
    assert prepared.rounds
    return valuations, strategies, prepared


def _counting_plans(monkeypatch):
    plans = []
    real = mechanism._plan_round
    monkeypatch.setattr(mechanism, "_plan_round",
                        lambda *args: plans.append(args) or real(*args))
    return plans


@pytest.mark.parametrize("build", [
    lambda: build_bad_pair(100), lambda: build_truthful_tight(4, 3, 6),
], ids=["bad_pair", "truthful_tight"])
def test_a_warm_round_cache_gives_the_cold_observations(monkeypatch, build):
    valuations, strategies, warm = _warm(build)
    # cold: fresh valuations, so empty decision memos and no round cache
    expected = [_observed_run(build().valuations, build().strategies, seed)
                for seed in range(20, 40)]
    plans = _counting_plans(monkeypatch)
    got = [_observed_run(valuations, strategies, seed, prepared=warm)
           for seed in range(20, 40)]
    assert got == expected
    assert len(plans) < sum(outcome.rounds + 1 for outcome, _, _ in got)


def _previous_bid_bidders():
    # three bidders who start from last round's bid: some round-start
    # (holdings, prices) recur with different last bids and different bids
    valuations = tuple(random_near_submodular(2, 2, 8, random.Random(40 + i)
                                              .randrange(2**32))
                       for i in range(3))
    return valuations, (LocallyOptimalStrategy("previous"),) * 3


def test_the_round_cache_keys_on_last_bids_where_a_rule_reads_them():
    valuations, strategies = _previous_bid_bidders()
    warm = PreparedBidders(valuations, strategies)
    for seed in range(30):
        assert _auction_result(valuations, strategies, seed,
                               prepared=warm) == (
            _auction_result(*_previous_bid_bidders(), seed))
    assert warm.rounds


def test_a_warm_round_cache_diverges_at_the_cold_round():
    valuations, strategies, warm = _warm(lambda: build_bad_pair(100))
    for seed in range(20, 30):
        cold = build_bad_pair(100)
        expected = _observed_run(cold.valuations, cold.strategies, seed,
                                 max_rounds=10)
        got = _observed_run(valuations, strategies, seed, max_rounds=10,
                            prepared=warm)
        assert got == expected
        assert got[0][0] == "diverged" and got[0][1].rounds == 10


@pytest.mark.parametrize("other", [
    ScriptedStrategy((0b01, 0b10, 0b01)), CallableStrategy(truthful_bid),
], ids=["scripted", "callable"])
def test_a_list_with_an_unmemoised_rule_has_no_round_cache(other):
    valuations = build_bad_pair(10).valuations
    strategies = (TruthfulStrategy(), other)
    prepared = PreparedBidders(valuations, strategies)
    assert prepared.rounds is None
    for seed in range(10):
        fresh = build_bad_pair(10).valuations
        assert _auction_result(valuations, strategies, seed,
                               prepared=prepared) == (
            _auction_result(fresh, strategies, seed))
    assert prepared.rounds is None and not prepared.sightings
    if isinstance(other, CallableStrategy):
        # a wrapped truthful rule bids as the cached truthful one
        warm_valuations, truthful, warm = _warm(lambda: build_bad_pair(10))
        assert truthful == (TruthfulStrategy(),) * 2
        for seed in range(10):
            assert _auction_result(valuations, strategies, seed) == (
                _auction_result(warm_valuations, truthful, seed,
                                prepared=warm))


def test_the_round_cache_admits_only_states_seen_twice():
    # truthful_tight's round-1 states record which bidders won, and never
    # recur: only the round-0 state is admitted
    scenario = build_truthful_tight(4, 3, 60)
    valuations, strategies = scenario.valuations, scenario.strategies
    prepared = PreparedBidders(valuations, strategies)
    for seed in range(50):
        run_auction(valuations, strategies, seed, record_trace=False,
                    prepared=prepared)
    assert 1 <= len(prepared.rounds) <= 3


def test_run_trials_plans_few_of_the_rounds_it_settles(monkeypatch):
    # 590 plans for 14,410 rounds; a plan cache per run_auction call made
    # 800 (four per auction), and no cache makes one per round
    plans = _counting_plans(monkeypatch)
    stats = run_trials(build_bad_pair(100), 200, 7)
    assert len(plans) * 20 < sum(row.rounds + 1 for row in stats.rows)


def _counting_settles(monkeypatch):
    settles = []
    real = mechanism._settle
    monkeypatch.setattr(mechanism, "_settle",
                        lambda *args: settles.append(args) or real(*args))
    return settles


def test_run_trials_settles_few_of_the_rounds_it_runs(monkeypatch):
    # a 10k-trial pass settles 20,290 of its 747,744 rounds; without
    # segments it settles every round
    settles = _counting_settles(monkeypatch)
    stats = run_trials(build_bad_pair(100), 2000, 123, collect_lambda=False)
    assert len(settles) * 10 < sum(row.rounds + 1 for row in stats.rows)


# ---------------------------------------------------------------------------
# Segments: a jump over a deterministic stretch lands where the rounds would


class _Unkept(dict):
    """A segment store that keeps nothing, so a run never jumps."""

    def __setitem__(self, head, segment):
        pass


def _quiet_result(valuations, strategies, seed, cap, **options):
    """The outcome, or the partial one, of an untraced, unobserved run."""
    try:
        return run_auction(valuations, strategies, seed, max_rounds=cap,
                           record_trace=False, **options)
    except Divergence as exc:
        return "diverged", exc.outcome


@pytest.mark.parametrize("build", [
    lambda: build_bad_pair(100), lambda: build_bad_pair(10),
    lambda: build_truthful_tight(4, 3, 6), lambda: build_local_tight(L=3),
], ids=["bad_pair_100", "bad_pair_10", "truthful_tight", "local_tight"])
def test_a_warm_segment_cache_gives_the_cold_rows(monkeypatch, build):
    warm = build()
    run_trials(warm, 300, 1, collect_lambda=False)
    got = run_trials(warm, 300, 2, collect_lambda=False)
    if warm.name == "bad_pair":
        assert warm.prepared.segments
    # cold: a fresh scenario that never jumps
    cold = build()
    monkeypatch.setattr(cold.prepared, "segments", _Unkept())
    assert got == run_trials(cold, 300, 2, collect_lambda=False)
    assert not cold.prepared.segments


def test_a_cap_inside_a_segment_diverges_at_the_cold_round():
    scenario = build_bad_pair(100)
    valuations, strategies = scenario.valuations, scenario.strategies
    warm = PreparedBidders(valuations, strategies)
    for seed in range(40):  # enough to cache every stretch in full
        _quiet_result(valuations, strategies, seed, None, prepared=warm)
    assert max(segment[0] for segment in warm.segments.values()) > 40
    heads = set(warm.segments)
    for seed in range(40, 45):
        for cap in range(0, 100, 3):
            cold = build_bad_pair(100)
            assert _quiet_result(valuations, strategies, seed, cap,
                                 prepared=warm) == (
                _quiet_result(cold.valuations, cold.strategies, seed, cap))
    # the rounds of a segment that does not fit start no segments
    assert set(warm.segments) == heads


def _stored_rounds(prepared):
    return sum(segment[0] for segment in prepared.segments.values())


def test_a_stretch_cut_by_a_cap_is_stored_whole_by_a_later_run():
    # capped runs stop inside the stretch from head (2, 1) and store none
    # of it; later uncapped runs must store it whole, as long as its
    # mirror (1, 2)
    scenario = build_bad_pair(100)
    valuations, strategies = scenario.valuations, scenario.strategies
    warm = PreparedBidders(valuations, strategies)
    runs = ([(seed, None) for seed in range(20)]
            + [(20 + cap, cap) for cap in range(100)]
            + [(seed, None) for seed in range(200, 250)])
    for seed, cap in runs:
        cold = build_bad_pair(100)
        assert _quiet_result(valuations, strategies, seed, cap,
                             prepared=warm) == (
            _quiet_result(cold.valuations, cold.strategies, seed, cap))
        assert warm.segment_rounds == _stored_rounds(warm)
    lengths = {head[0]: segment[0] for head, segment in warm.segments.items()}
    assert lengths[(2, 1)] == lengths[(1, 2)] == 97


def _complement_pair():
    # items 0 and 1 are worth 10 together and item 2 is worth 5 with
    # either: a split swaps 0 and 1 until both bidders turn to item 2 in
    # the same round, and a sweep passes the pair back and forth until
    # nobody bids
    valuation = TableValuation((0, 1, 1, 10, 1, 5, 5, 10))
    return (valuation,) * 2, (TruthfulStrategy(),) * 2


def _traced_stretches(records, reads_last_bid):
    """(end round, head state, segment) for every stretch of at least 2
    rounds in a trace: the rounds from a head (round 0 or the round after
    a draw) up to the first round that draws or demands nothing, which
    ends it."""
    n = len(records[0].bids)
    stretches, head = [], 0
    for end, record in enumerate(records):
        if record.excess and all(len(d.candidates) == 1
                                 for d in record.draws):
            continue
        played = records[head:end]
        if len(played) >= 2:
            before = records[head - 1] if head else None
            state = (before.provisional if before else (0,) * n,
                     played[0].prices_before,
                     (before.bids if before else (0,) * n)
                     if reads_last_bid else None)
            stretches.append((end, state, (
                len(played), tuple(r.prices_after for r in played),
                tuple(r.provisional for r in played),
                tuple(r.bids for r in played))))
        head = end + 1
    return stretches


def _stored_by_a_fresh_run(valuations, strategies, seed, cap=None):
    """The segments a fresh PreparedBidders holds after one quiet run."""
    fresh = PreparedBidders(valuations, strategies)
    _quiet_result(valuations, strategies, seed, cap, prepared=fresh)
    assert fresh.segment_rounds == _stored_rounds(fresh)
    return fresh.segments


@pytest.mark.parametrize("bidders", [
    _complement_pair, _previous_bid_bidders,
    _scenario_bidders(lambda: build_bad_pair(10)),
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
    _complement_pair, _scenario_bidders(lambda: build_bad_pair(100)),
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


@pytest.mark.parametrize("limit", [47, 48, 96, 97])
def test_a_stretch_longer_than_the_cache_limit_is_not_stored(
        monkeypatch, limit):
    monkeypatch.setattr(mechanism, "DECISION_CACHE_LIMIT", limit)
    scenario = build_bad_pair(100)
    valuations, strategies = scenario.valuations, scenario.strategies
    lengths = set()
    for seed in range(10):
        records = run_auction(valuations, strategies, seed).records
        expected = {head: segment for _, head, segment
                    in _traced_stretches(records, False)
                    if segment[0] <= limit}
        stored = _stored_by_a_fresh_run(valuations, strategies, seed)
        assert stored == expected
        lengths.update(segment[0] for segment in stored.values())
    # one stretch an auction, split (97 rounds) or sweep (48 rounds)
    assert lengths == {k for k in (48, 97) if k <= limit}


def test_a_memo_miss_after_a_jump_sees_the_cold_histories():
    valuations, strategies = _previous_bid_bidders()
    warm = PreparedBidders(valuations, strategies)
    for seed in range(40):
        _quiet_result(valuations, strategies, seed, None, prepared=warm)
    segments = list(warm.segments.values())
    assert segments
    # forget every decision and the round after each segment, so the
    # round a jump lands on asks the rules again
    for memo in warm.memos:
        memo.clear()
    for _, price_rows, held_rows, bid_rows in segments:
        warm.rounds.pop((held_rows[-1], price_rows[-1], bid_rows[-1]), None)
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
    (_scenario_bidders(lambda: build_bad_pair(100)), 60),
], ids=["previous_6", "previous_16", "bad_pair_60"])
def test_segments_stay_within_the_cache_limit(
        monkeypatch, bidders, cap):
    monkeypatch.setattr(mechanism, "DECISION_CACHE_LIMIT", cap)
    valuations, strategies = bidders()
    prepared = PreparedBidders(valuations, strategies)
    built = evictions = 0
    for seed in range(300):
        heads = set(prepared.segments)
        _quiet_result(valuations, strategies, seed, None, prepared=prepared)
        evictions += not heads <= prepared.segments.keys()
        assert _stored_rounds(prepared) == prepared.segment_rounds <= cap
        built += bool(prepared.segments)
    assert built and evictions


@pytest.mark.parametrize("observed", [False, True],
                         ids=["traced", "observed"])
def test_a_traced_or_observed_run_never_jumps(monkeypatch, observed):
    scenario = build_bad_pair(100)
    valuations, strategies = scenario.valuations, scenario.strategies
    warm = PreparedBidders(valuations, strategies)
    for seed in range(20):
        _quiet_result(valuations, strategies, seed, None, prepared=warm)
    segments = dict(warm.segments)
    assert segments
    settles = _counting_settles(monkeypatch)
    for seed in range(20, 30):
        cold = build_bad_pair(100)
        fresh = PreparedBidders(cold.valuations, cold.strategies)
        # an observed run is untraced; either way no round may be skipped
        run = _observed_run if observed else run_auction
        options = {"record_trace": False} if observed else {}
        expected = run(cold.valuations, cold.strategies, seed,
                       prepared=fresh, **options)
        del settles[:]
        got = run(valuations, strategies, seed, prepared=warm, **options)
        assert got == expected
        outcome = got[0] if observed else got
        assert len(settles) == outcome.rounds + 1
    assert warm.segments == segments
