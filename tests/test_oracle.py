"""Welfare oracle and price-to-value rationality measurement."""

import random
from fractions import Fraction
from math import inf

import pytest

from helpers import (
    naive_optimal,
    reference_measure_rationality,
    reference_optimal_welfare,
    supermodular_negatives,
    supermodular_values,
)
from smra import (
    AdditiveValuation,
    InvalidAllocation,
    OracleTooLarge,
    RationalityReport,
    RationalityScan,
    ScriptedStrategy,
    SymmetricStepValuation,
    TableValuation,
    TruthfulStrategy,
    UniverseMismatch,
    measure_rationality,
    optimal_welfare,
    run_auction,
    welfare,
)
from smra import oracle
from smra.mechanism import AuctionOutcome, RoundRecord
from smra.oracle import _supermodular
from smra.scenarios import (
    build_bad_pair,
    build_local_tight,
    build_nonsecure_punishment,
    build_scripted_partition,
    build_superadditive,
    build_truthful_tight,
)
from smra.valuations import Valuation

CORPUS = [
    (build_bad_pair(10), 10),
    (build_superadditive(50), 100),
    (build_local_tight(1, 1, 2, 3, 1), 5),
    (build_truthful_tight(2, 2, 3), 3),
    (build_scripted_partition([{0}, {1, 2}]), 3),
    (build_nonsecure_punishment(), 11),
]


# ---------------------------------------------------------------------------
# Optimal welfare


@pytest.mark.parametrize("scenario,expected", CORPUS, ids=lambda c: getattr(c, "name", c))
def test_optimal_welfare_matches_exhaustive_search(scenario, expected):
    vals = scenario.valuations
    result = optimal_welfare(vals)
    assert result.welfare == expected == naive_optimal(vals)
    # the returned assignment is disjoint and actually achieves the optimum
    held = 0
    for mask in result.assignment:
        assert held & mask == 0
        held |= mask
    assert welfare(result.assignment, vals) == result.welfare


def test_optimal_welfare_on_random_tables():
    rng = random.Random(2024)
    for _ in range(15):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        vals = []
        for _ in range(n):
            table = [0] * (1 << m)
            for mask in range(1, 1 << m):
                floor = max(table[mask & ~(1 << j)] for j in range(m)
                            if mask >> j & 1)
                table[mask] = floor + rng.randint(0, 4)
            vals.append(TableValuation(table))
        assert optimal_welfare(vals).welfare == naive_optimal(vals)


def test_optimal_welfare_of_the_wide_truthful_tight_instance(monkeypatch):
    # 30 copies of one supermodular valuation on 12 items: the optimum
    # gives every item to the first copy, and one test of the row after
    # the first copy stands in for every later copy's layer
    tested = []
    monkeypatch.setattr(
        oracle, "_supermodular",
        lambda row, m: tested.append(m) or _supermodular(row, m))
    result = optimal_welfare(build_truthful_tight(12, 3, 30).valuations)
    assert result.welfare == 34
    assert result.assignment == (0xFFF,) + (0,) * 29
    assert tested == [12]


class _CountingTable(tuple):
    """A value table that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        type(self).hashes += 1
        return super().__hash__()


class _Copied(Valuation):
    """Serves its table object itself or, given a list, a new tuple of it
    on every call, unchecked, so its tables must be monotone."""

    def __init__(self, table):
        self.table = table

    @property
    def universe_size(self) -> int:
        return len(self.table).bit_length() - 1

    def value(self, mask: int) -> int:
        return self.table[mask]

    def value_table(self):
        return tuple(self.table) if type(self.table) is list else self.table


def test_copies_of_one_table_object_hash_it_once(monkeypatch):
    table = _CountingTable(
        build_truthful_tight(6, 3, 30).valuations[0].value_table())
    monkeypatch.setattr(_CountingTable, "hashes", 0)
    result = optimal_welfare((_Copied(table),) * 30)
    assert (result.welfare, result.assignment) == (16, (63,) + (0,) * 29)
    assert _CountingTable.hashes == 1
    # distinct objects with one value still match by value, one hash each
    monkeypatch.setattr(_CountingTable, "hashes", 0)
    copies = [_Copied(_CountingTable(table)) for _ in range(3)]
    assert optimal_welfare(copies * 10) == result
    assert _CountingTable.hashes == 3


def test_fresh_tables_never_share_a_verdict_by_id():
    # each call builds a new tuple, so the second zero table, once
    # dropped, could hand its id to a later table of the same size
    zero = _Copied([0] * 8)
    gains = [_Copied([0, 7, 6, 7, 5, 7, 7, 7]), _Copied([0, 1, 1, 2, 1, 2, 2, 3])]
    for valuations in ([zero, zero, *gains], [zero, *gains] * 3):
        result = optimal_welfare(valuations)
        assert ((result.welfare, result.assignment)
                == reference_optimal_welfare(valuations))


def test_the_supermodularity_check_equals_the_pairwise_definition():
    rng = random.Random(18)
    for m in range(1, 9):
        size = 1 << m
        for _ in range(20):
            row = [rng.randint(-4, 4) for _ in range(size)]
            assert _supermodular(row, m) == (
                not supermodular_negatives(row, m))
            # modular terms of any sign, so often not monotone
            weights = [(rng.randrange(size), rng.randint(0, 3))
                       for _ in range(2 * m)]
            modular = [rng.randint(-5, 5) for _ in range(m)]
            row = supermodular_values(m, weights, modular, rng.randint(-3, 3))
            assert _supermodular(row, m)
            assert not supermodular_negatives(row, m)
        # one negative term planted at each pair (i, j): every pair but
        # (i, j) weighs 100, so lowering one S|i|j by 2 breaks only (S, i, j)
        for j in range(m):
            for i in range(j):
                pairs = [(1 << a | 1 << b, 1 if (a, b) == (i, j) else 100)
                         for b in range(m) for a in range(b)]
                modular = [rng.randint(-5, 5) for _ in range(m)]
                row = list(supermodular_values(m, pairs, modular))
                s = rng.randrange(size) & ~(1 << i | 1 << j)
                row[s | 1 << i | 1 << j] -= 2
                assert supermodular_negatives(row, m) == [(s, i, j)]
                assert not _supermodular(row, m)


def test_optimal_welfare_at_the_edge_of_its_budget():
    # 3**16 and 2 * 3**15 are inside the n * 3**m budget: a first layer
    # of 65,536 entries, and one of 32,768 entries whose copy one
    # supermodularity test of the packed row stands in for
    result = optimal_welfare((AdditiveValuation((1,) * 16),))
    assert (result.welfare, result.assignment) == (16, (0xFFFF,))
    result = optimal_welfare((SymmetricStepValuation(15, 3, 1),) * 2)
    assert (result.welfare, result.assignment) == (43, (0x7FFF, 0))


def test_oracle_rejects_oversized_instances():
    with pytest.raises(OracleTooLarge):
        optimal_welfare((AdditiveValuation((1,) * 17),))
    # within the item bound but over the operations budget
    big = AdditiveValuation((1,) * 16)
    with pytest.raises(OracleTooLarge):
        optimal_welfare((big, big))


def test_optimal_welfare_validates_input():
    with pytest.raises(ValueError):
        optimal_welfare(())
    with pytest.raises(UniverseMismatch):
        optimal_welfare((AdditiveValuation((1,)), AdditiveValuation((1, 2))))


# ---------------------------------------------------------------------------
# Achieved welfare and ratios


def test_welfare_of_assignments():
    sc = build_bad_pair(10)
    vals = sc.valuations
    assert welfare((0, 0), vals) == 0
    assert welfare((0b01, 0b10), vals) == 2  # one item each: no pair bonus
    assert welfare((0b11, 0), vals) == 10
    with pytest.raises(InvalidAllocation):
        welfare((0b01, 0b01), vals)  # both claim the same item
    with pytest.raises(InvalidAllocation):
        welfare((0b01,), vals)


def test_welfare_checks_held_bundles_among_empty_ones():
    # only the held bundles are priced, and they are still checked
    vals = build_truthful_tight(4, 3, 6).valuations
    assert welfare((0,) * 6, vals) == 0
    assert welfare((0, 0b0011, 0, 0, 0b1100, 0), vals) == 2 * vals[0].value(0b0011)
    with pytest.raises(InvalidAllocation):
        welfare((0,) * 5, vals)  # bundle count mismatch
    with pytest.raises(InvalidAllocation):
        welfare((0, 0b0100, 0, 0, 0b0110, 0), vals)  # item 2 twice
    with pytest.raises(UniverseMismatch):
        welfare((0, 0, 0b10000, 0, 0, 0), vals)  # item 4 outside m = 4


# ---------------------------------------------------------------------------
# Rationality measurement


def _fabricated_outcome():
    # one bidder ends up holding all three items at prices (3, 3, 0);
    # the {0,1} pair is priced at 6 but worth only 4
    record = RoundRecord(
        t=0,
        prices_before=(0, 0, 0),
        bids=(0b111,),
        excess=0b111,
        draws=(),
        prices_after=(3, 3, 0),
        provisional=(0b111,),
    )
    valuation = TableValuation((0, 3, 3, 4, 0, 3, 3, 20))
    outcome = AuctionOutcome(
        allocation=(0b111,), prices=(3, 3, 0), rounds=1, records=(record,)
    )
    return outcome, (valuation,)


def test_rationality_scans_all_subsets_within_the_cap():
    outcome, vals = _fabricated_outcome()
    report = measure_rationality(outcome, vals)
    assert report.lam == Fraction(3, 2)
    assert report.witness == (0, 0, (0, 1))
    # the full bundle is cheap relative to its value
    assert report.lam_full == Fraction(6, 20)
    assert report.witness_full == (0, 0, (0, 1, 2))


def test_rationality_subset_cap_falls_back_to_full_and_singletons():
    outcome, vals = _fabricated_outcome()
    report = measure_rationality(outcome, vals, subset_cap=2)
    assert report.lam == Fraction(1)  # the bad pair is no longer examined
    assert report.lam_full == Fraction(6, 20)


def test_rationality_scan_refuses_a_subset_cap_that_is_not_an_int_ge_0():
    outcome, vals = _fabricated_outcome()
    for bad in (True, False, -1, 2.5, "3", None):
        with pytest.raises(ValueError, match="subset_cap"):
            RationalityScan(vals, bad)
        with pytest.raises(ValueError, match="subset_cap"):
            measure_rationality(outcome, vals, subset_cap=bad)
    assert measure_rationality(outcome, vals, subset_cap=0).lam_full == (
        Fraction(6, 20))


def test_rationality_rescans_a_kept_holding_whose_prices_moved():
    # the bidder keeps item 0 through both records, but its price rises
    # from 1 to 3 in between: the second record carries the worse ratio
    records = tuple(
        RoundRecord(
            t=t,
            prices_before=(0, 0),
            bids=(0b01,),
            excess=0b01,
            draws=(),
            prices_after=(price, 0),
            provisional=(0b01,),
        )
        for t, price in ((0, 1), (1, 3))
    )
    vals = (TableValuation((0, 2, 0, 2)),)
    outcome = AuctionOutcome(
        allocation=(0b01,), prices=(3, 0), rounds=2, records=records
    )
    report = measure_rationality(outcome, vals)
    assert report == reference_measure_rationality(outcome, vals)
    assert report.lam == Fraction(3, 2)
    assert report.witness == (1, 0, (0,))


def test_rationality_is_infinite_on_worthless_wins():
    vals = (TableValuation((0, 0)),)
    strategies = (ScriptedStrategy((0b1,)),)
    outcome = run_auction(vals, strategies, seed=0)
    assert outcome.allocation == (0b1,)
    report = measure_rationality(outcome, vals)
    assert report.lam == inf
    assert report.lam_full == inf
    assert report.to_dict()["lambda"] == "inf"


def test_rationality_of_a_symmetric_truthful_run():
    sc = build_truthful_tight(4, 3, 60)
    outcome = run_auction(sc.valuations, sc.strategies, seed=11)
    assert outcome.prices == (2, 2, 2, 2)
    report = measure_rationality(outcome, sc.valuations)
    assert report.lam == Fraction(2)
    assert report.lam_full == Fraction(2)
    assert report.lam <= 3  # never beyond the near-submodularity factor


def test_rationality_of_secure_runs_never_exceeds_one():
    sc = build_superadditive(50)
    for seed in range(5):
        outcome = run_auction(sc.valuations, sc.strategies, seed=seed)
        report = measure_rationality(outcome, sc.valuations)
        assert report.lam <= 1


def test_rationality_trivial_when_nothing_is_ever_held():
    vals = (TableValuation((0, 0)),)
    outcome = run_auction(vals, (TruthfulStrategy(),))
    report = measure_rationality(outcome, vals)
    assert report.lam == Fraction(1)
    assert report.witness is None
    assert report.to_dict() == {
        "lambda": "1",
        "lambda_full": "1",
        "witness": None,
        "witness_full": None,
    }


def test_rationality_requires_a_trace():
    sc = build_bad_pair(10)
    outcome = run_auction(
        sc.valuations, sc.strategies, seed=0, record_trace=False
    )
    with pytest.raises(ValueError):
        measure_rationality(outcome, sc.valuations)


def test_rationality_refuses_a_bidder_list_that_does_not_match_the_trace():
    sc = build_bad_pair(10)
    outcome = run_auction(sc.valuations, sc.strategies, seed=1)
    # bidder i of the trace is scored by valuations[i]: a list of another
    # length or over another universe cannot be matched to the records
    with pytest.raises(ValueError, match="^1 valuations for a trace of 2 bidders$"):
        measure_rationality(outcome, sc.valuations[:1])
    with pytest.raises(ValueError, match="^4 valuations for a trace of 2 bidders$"):
        measure_rationality(outcome, sc.valuations * 2)
    with pytest.raises(UniverseMismatch,
                       match="^valuations have m=3, the trace has m=2$"):
        measure_rationality(outcome, (AdditiveValuation((1, 1, 1)),) * 2)
    assert measure_rationality(outcome, sc.valuations).lam >= 1


def test_a_scan_refuses_holdings_that_do_not_match_its_tables():
    valuations = build_bad_pair(10).valuations
    # both bidders hold an item: a scan of one bidder raised IndexError,
    # and a scan of four reported
    for scanned in (valuations[:1], valuations * 2):
        with pytest.raises(ValueError, match=f"^2 holdings for a scan of "
                                             f"{len(scanned)} bidders$"):
            RationalityScan(scanned).update(0, (1, 1), (0b01, 0b10))
    scan = RationalityScan(valuations)
    scan.update(0, (1, 1), (0b01, 0b10))
    assert scan.report().witness == (0, 0, (0,))


def test_rationality_report_dict_encoding():
    report = RationalityReport(
        lam=Fraction(3, 2),
        lam_full=Fraction(1),
        witness=(4, 1, (0, 2)),
        witness_full=None,
    )
    assert report.to_dict() == {
        "lambda": "3/2",
        "lambda_full": "1",
        "witness": {"round": 4, "bidder": 1, "items": [0, 2]},
        "witness_full": None,
    }
