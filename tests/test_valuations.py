"""Valuation families, exact near-submodularity analysis, and generation."""

import inspect
import json
import re
from fractions import Fraction
from math import inf

import pytest

from smra import (
    AdditiveValuation,
    GenerationFailed,
    NotMonotone,
    OracleTooLarge,
    PairBonusValuation,
    SymmetricStepValuation,
    TableValuation,
    TargetPairValuation,
    TruthfulStrategy,
    UnitDemandValuation,
    UniverseMismatch,
    Valuation,
    degree_of_submodularity,
    is_alpha_near_submodular,
    optimal_welfare,
    random_near_submodular,
    run_auction,
    valuation_from_spec,
)
from smra import valuations

from helpers import naive_degree, random_instance


# ---------------------------------------------------------------------------
# Evaluation


def test_additive_eval():
    v = AdditiveValuation((1, 2, 3))
    assert v.value(0b101) == 4
    assert v.value(0) == 0
    assert v.value(0b111) == 6
    assert v.value_table()[-1] == 6
    assert v.universe_size == 3


def test_symmetric_step_eval():
    v = SymmetricStepValuation(m=4, num=3)
    assert v.value(0b1111) == 10  # 3 extra items at 3 each on a base of 1
    assert v.value(0b0001) == 1
    assert v.value(0b0110) == 4
    assert v.value(0) == 0


def test_symmetric_step_rational_ratio():
    v = SymmetricStepValuation(m=3, num=3, den=2)
    assert [v.value(s) for s in (0, 0b1, 0b11, 0b111)] == [0, 2, 5, 8]
    report = degree_of_submodularity(v)
    assert report.degree == Fraction(2, 3)
    assert report.alpha == Fraction(3, 2)


def test_unit_demand_eval():
    v = UnitDemandValuation((2, 0))
    assert v.value(0b01) == 2
    assert v.value(0b10) == 0
    assert v.value(0b11) == 2


def test_pair_bonus_eval():
    v = PairBonusValuation(m=2, unit=1, pair=10)
    assert v.value(0b01) == 1
    assert v.value(0b10) == 1
    assert v.value(0b11) == 10


def test_target_pair_eval():
    v = TargetPairValuation(
        m=5, target=1, special=4, unit=1, special_value=3, bonus=2
    )
    assert v.value(0b00010) == 1
    assert v.value(0b10000) == 3
    assert v.value(0b10010) == 5
    assert v.value(0b00001) == 0
    assert v.value(0b00011) == 1
    assert v.value(0b10110) == 5


def test_empty_set_is_worth_zero_everywhere():
    for v in (
        AdditiveValuation((4, 1)),
        UnitDemandValuation((4, 1)),
        SymmetricStepValuation(3, 2),
        PairBonusValuation(2, 1, 7),
        TargetPairValuation(3, 0, 2, 1, 5, 2),
        TableValuation((0, 1, 1, 2)),
    ):
        assert v.value(0) == 0


def test_out_of_universe_mask_rejected():
    v = AdditiveValuation((1, 2, 3))
    with pytest.raises(UniverseMismatch):
        v.value(0b1000)
    with pytest.raises(UniverseMismatch):
        v.value(-1)


def test_value_table_matches_pointwise_eval():
    for v in (
        AdditiveValuation((1, 2, 3)),
        UnitDemandValuation((3, 1, 2)),
        SymmetricStepValuation(4, 3),
        PairBonusValuation(3, 1, 10),
        TargetPairValuation(4, 0, 3, 1, 4, 2),
    ):
        table = v.value_table()
        assert list(table) == [v.value(s) for s in range(1 << v.universe_size)]


def test_value_table_budget():
    v = AdditiveValuation((1,) * 21)
    with pytest.raises(OracleTooLarge):
        v.value_table()
    # a table is held to the same bound when built, before any of its
    # 2**21 entries is looked at (so these need not be valid values)
    with pytest.raises(OracleTooLarge):
        TableValuation(("x",) * (1 << 21))


class _Listed(Valuation):
    """A custom valuation reading a list, held to the contract only by
    value_table()."""

    def __init__(self, values):
        self.values = values

    @property
    def universe_size(self) -> int:
        return len(self.values).bit_length() - 1

    def value(self, mask: int) -> int:
        return self.values[mask]


@pytest.mark.parametrize("values,witness", [
    ((0, 2, 2, 1), "not monotone: v(0x3) = 1 < v(0x2) = 2"),
    ((3, 3, 3, 3), "value of the empty bundle must be 0, got 3"),
], ids=["dips", "empty_worth_3"])
def test_every_reader_refuses_a_table_outside_the_contract(values, witness):
    v = _Listed(values)
    refused = re.escape(witness)
    for _ in range(2):  # nothing cached, so the second call checks again
        with pytest.raises(NotMonotone, match=refused):
            v.value_table()
    assert "_table" not in vars(v)
    with pytest.raises(NotMonotone, match=refused):
        optimal_welfare([v, v])
    with pytest.raises(NotMonotone, match=refused):
        run_auction([v], [TruthfulStrategy()], seed=0)
    with pytest.raises(NotMonotone, match=refused):
        degree_of_submodularity(v)


# ---------------------------------------------------------------------------
# Construction validation


def test_table_valuation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        TableValuation((0, 1, 2))  # not a power of two
    with pytest.raises(ValueError):
        TableValuation((0,))  # no items
    with pytest.raises(NotMonotone):
        TableValuation((1, 2))  # empty set not worth 0
    with pytest.raises(NotMonotone):
        TableValuation((0, 2, 1, 1))  # v({0,1}) < v({0})
    with pytest.raises(NotMonotone):
        TableValuation((0, -1))
    with pytest.raises(NotMonotone):
        TableValuation((0, True))  # bools are not values


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        AdditiveValuation(())
    with pytest.raises(NotMonotone):
        AdditiveValuation((1, -2))
    with pytest.raises(ValueError):
        SymmetricStepValuation(0, 1)
    with pytest.raises(NotMonotone):
        SymmetricStepValuation(2, -1)
    with pytest.raises(NotMonotone):
        SymmetricStepValuation(2, 1, 0)
    with pytest.raises(ValueError):
        PairBonusValuation(1, 1, 2)
    with pytest.raises(NotMonotone):
        PairBonusValuation(2, 3, 1)  # pair below single
    with pytest.raises(ValueError):
        TargetPairValuation(2, 0, 0, 1, 3, 1)  # target == special
    with pytest.raises(UniverseMismatch):
        TargetPairValuation(2, 0, 5, 1, 3, 1)
    with pytest.raises(NotMonotone):
        TargetPairValuation(2, 0, 1, 5, 3, 1)  # pair worth less than target
    for bad in (lambda: SymmetricStepValuation(2.0, 1),
                lambda: SymmetricStepValuation(True, True),
                lambda: SymmetricStepValuation(2, 1, 1.0),
                lambda: PairBonusValuation(2.5, 1, 3),
                lambda: TargetPairValuation(3, 0.0, 2, 1, 5, 2),
                lambda: TargetPairValuation(3, 0, True, 1, 5, 2)):
        with pytest.raises(TypeError):  # non-int fields, as in mask_of
            bad()


# ---------------------------------------------------------------------------
# Degree of submodularity


def test_degree_additive_is_one():
    report = degree_of_submodularity(AdditiveValuation((1, 2, 3)))
    assert report.degree == Fraction(1)
    assert report.alpha == Fraction(1)


def test_degree_symmetric_step():
    report = degree_of_submodularity(SymmetricStepValuation(4, 3))
    assert report.degree == Fraction(1, 3)
    assert report.alpha == Fraction(3)


def test_degree_pair_bonus():
    report = degree_of_submodularity(PairBonusValuation(2, 1, 10))
    assert report.degree == Fraction(1, 9)
    assert report.alpha == Fraction(9)
    # three items: the same minimizing pair still dominates
    report3 = degree_of_submodularity(PairBonusValuation(3, 1, 10))
    assert report3.degree == Fraction(1, 9)


def test_degree_degenerate_pair_bonus_is_additive():
    report = degree_of_submodularity(PairBonusValuation(2, 1, 2))
    assert report.degree == Fraction(1)
    assert report.alpha == Fraction(1)


def test_degree_single_item_has_no_comparable_pair():
    report = degree_of_submodularity(AdditiveValuation((5,)))
    assert report.degree == inf
    assert report.alpha == Fraction(1)
    assert report.witness is None


def test_degree_all_zero_valuation():
    report = degree_of_submodularity(TableValuation((0, 0, 0, 0)))
    assert report.degree == inf
    assert report.alpha == Fraction(1)


def test_degree_can_exceed_one():
    # second item adds less than the first: the min ratio is above 1,
    # and alpha is clamped at 1
    report = degree_of_submodularity(UnitDemandValuation((3, 2)))
    assert report.degree == Fraction(3)
    assert report.alpha == Fraction(1)


def test_degree_flat_step_is_vacuous():
    # one item carries all value; larger contexts have zero marginals,
    # which never form a valid comparison
    report = degree_of_submodularity(SymmetricStepValuation(3, 0, 4))
    assert report.degree == inf
    assert report.alpha == Fraction(1)


def test_degree_target_pair():
    v = TargetPairValuation(3, 0, 2, 1, 5, 4)
    report = degree_of_submodularity(v)
    assert report.degree == Fraction(1, 4)
    assert report.alpha == Fraction(4)


def _witness_ratio(valuation, witness):
    x, small, large = witness
    xbit = 1 << x
    num = valuation.value(small | xbit) - valuation.value(small)
    den = valuation.value(large | xbit) - valuation.value(large)
    return Fraction(num, den)


def test_witness_reproduces_degree():
    for v in (
        SymmetricStepValuation(4, 3),
        PairBonusValuation(3, 1, 10),
        TargetPairValuation(4, 1, 3, 1, 4, 2),
        TableValuation((0, 2, 3, 4, 1, 5, 6, 9)),
    ):
        report = degree_of_submodularity(v)
        assert report.witness is not None
        x, small, large = report.witness
        assert small | large == large and small != large  # strict nesting
        assert not (large >> x) & 1 and not (small >> x) & 1
        assert _witness_ratio(v, report.witness) == report.degree


def test_degree_matches_naive_enumeration():
    cases = (
        AdditiveValuation((1, 2, 3)),
        UnitDemandValuation((3, 1, 2, 2)),
        SymmetricStepValuation(4, 3),
        SymmetricStepValuation(3, 3, 2),
        PairBonusValuation(3, 2, 9),
        TargetPairValuation(4, 0, 3, 1, 4, 2),
        TableValuation((0, 2, 3, 4, 1, 5, 6, 9)),
        TableValuation((0, 0, 1, 3, 2, 2, 3, 7)),
    )
    for v in cases:
        assert degree_of_submodularity(v).degree == naive_degree(v)


def test_degree_rejects_non_monotone_table():
    class Broken(AdditiveValuation):
        def value(self, mask):
            return (0, 2, 1, 1)[mask]

    with pytest.raises(NotMonotone):
        degree_of_submodularity(Broken((1, 1)))


# ---------------------------------------------------------------------------
# alpha acceptance


def test_is_alpha_near_submodular():
    assert is_alpha_near_submodular(AdditiveValuation((1, 2, 3)), 1)
    assert not is_alpha_near_submodular(PairBonusValuation(2, 1, 10), 5)
    assert is_alpha_near_submodular(PairBonusValuation(2, 1, 10), 9)
    assert not is_alpha_near_submodular(
        PairBonusValuation(2, 1, 10), Fraction(17, 2)
    )
    assert is_alpha_near_submodular(SymmetricStepValuation(4, 3), 3)
    assert not is_alpha_near_submodular(SymmetricStepValuation(4, 3), 2)
    assert is_alpha_near_submodular(AdditiveValuation((5,)), 1)  # vacuous


def test_is_alpha_rejects_small_alpha():
    with pytest.raises(ValueError):
        is_alpha_near_submodular(AdditiveValuation((1,)), Fraction(1, 2))


ALPHA_USERS = {
    "is_alpha_near_submodular":
        lambda alpha: is_alpha_near_submodular(AdditiveValuation((1, 2)), alpha),
    "random_near_submodular":
        lambda alpha: random_near_submodular(3, alpha, 20, seed=0),
}


@pytest.mark.parametrize("user", sorted(ALPHA_USERS))
@pytest.mark.parametrize("alpha", [
    float("inf"), float("-inf"), float("nan"), None, True, False, "x",
    Fraction(1, 2), 0.5, 0, -3,
])
def test_a_bad_alpha_is_refused_by_name(user, alpha):
    # Fraction() alone raises OverflowError for inf and TypeError for None,
    # and takes True as 1
    with pytest.raises(ValueError, match="alpha must be"):
        ALPHA_USERS[user](alpha)


@pytest.mark.parametrize("alpha, exact", [
    (1, 1), (3, 3), (Fraction(3, 2), Fraction(3, 2)), (2.5, Fraction(5, 2)),
    ("7/3", Fraction(7, 3)),
])
def test_every_accepted_alpha_keeps_its_fraction(alpha, exact):
    assert (random_near_submodular(5, alpha, 60, seed=3)
            == random_near_submodular(5, exact, 60, seed=3))
    assert (is_alpha_near_submodular(SymmetricStepValuation(3, 7, 3), alpha)
            == (exact >= Fraction(7, 3)))


def test_a_float_alpha_is_read_as_its_decimal():
    # taken exactly, 2.1 is p/q with q near 2.25e15: every step gadget is
    # worth at least q, never fits the cap, and no table is complementary
    for seed in range(50):
        assert (random_near_submodular(5, 2.1, 40, seed)
                == random_near_submodular(5, Fraction(21, 10), 40, seed))


# ---------------------------------------------------------------------------
# Random generation


def test_generated_valuation_meets_requested_alpha():
    v = random_near_submodular(3, 1, 10, seed=7)
    assert degree_of_submodularity(v).degree >= 1
    v2 = random_near_submodular(3, 2, 10, seed=7)
    assert is_alpha_near_submodular(v2, 2)


def test_generated_single_item_is_vacuously_submodular():
    v = random_near_submodular(1, 5, 5, seed=0)
    assert v.universe_size == 1
    assert degree_of_submodularity(v).degree == inf


def test_generation_is_deterministic_per_seed():
    a = random_near_submodular(4, 3, 25, seed=11)
    b = random_near_submodular(4, 3, 25, seed=11)
    assert a.values == b.values
    c = random_near_submodular(4, 3, 25, seed=12)
    assert isinstance(c, TableValuation)


def test_generation_respects_value_cap():
    for seed in range(12):
        for alpha in (1, 2, 3):
            v = random_near_submodular(4, alpha, 20, seed=seed)
            assert 0 < v.value_table()[-1] <= 20
            assert v.value(0) == 0
            assert is_alpha_near_submodular(v, alpha)


def test_generation_checks_each_table_once(monkeypatch):
    # TableValuation checks a candidate's monotonicity once; the generator
    # returns that object without reading it again, so it scores nothing
    checks, tables, reads = [], [], []
    real_check = valuations._check_table_monotone
    monkeypatch.setattr(valuations, "_check_table_monotone",
                        lambda *args: checks.append(1) or real_check(*args))

    class Watched(TableValuation):
        def __getattribute__(self, name):
            reads.append(name)
            return super().__getattribute__(name)

    def built(values):
        table = Watched(values)
        tables.append(table)
        del reads[:]
        return table

    monkeypatch.setattr(valuations, "TableValuation", built)
    for seed in range(12):
        for alpha in (1, 2, 3):
            del checks[:], tables[:]
            v = random_near_submodular(4, alpha, 20, seed=seed)
            assert tables == [v] and checks == [1]
            assert reads == []


def test_generation_budget_exhausts():
    with pytest.raises(GenerationFailed, match=r"^no valuation with total "
                       r"value in \(0, 0\] found in 200 attempts$"):
        random_near_submodular(3, 1, 0, seed=0)


def test_every_bound_suite_table_is_alpha_near_submodular():
    # the generator certifies its tables by construction; this scores every
    # table of the criteria 2, 4 and 6 suites (master seeds 2001, 2004 and
    # 2006) exactly
    tables = 0
    for master_seed in (2001, 2004, 2006):
        for index in range(500):
            alpha, suite_valuations = random_instance(master_seed, index)
            for v in suite_valuations:
                assert is_alpha_near_submodular(v, alpha), (master_seed, index)
                tables += 1
    assert tables == 3690


def test_generation_parameter_validation():
    with pytest.raises(ValueError):
        random_near_submodular(0, 1, 10, seed=0)
    with pytest.raises(ValueError):
        random_near_submodular(11, 1, 10, seed=0)
    with pytest.raises(ValueError):
        random_near_submodular(3, Fraction(1, 2), 10, seed=0)
    with pytest.raises(ValueError):
        random_near_submodular(3, 1, -1, seed=0)
    # m, value_cap and seed are ints; a bool, a float or None is refused
    for m, value_cap, seed in ((True, 10, 0), (2.0, 10, 0), (3, True, 0),
                               (3, 10.5, 0), (3, 10, None), (3, 10, 1.5)):
        with pytest.raises(ValueError, match="must be an int"):
            random_near_submodular(m, 1, value_cap, seed=seed)


# ---------------------------------------------------------------------------
# JSON spec round-trips


def test_spec_round_trips():
    # Each form's spec is pinned exactly: its JSON keys, their order and
    # the list form of tuples are the scenario file format.
    cases = (
        (TableValuation((0, 1, 1, 3)), {"form": "table", "values": [0, 1, 1, 3]}),
        (AdditiveValuation((1, 2, 3)), {"form": "additive", "weights": [1, 2, 3]}),
        (UnitDemandValuation((4, 0, 2)),
         {"form": "unit_demand", "weights": [4, 0, 2]}),
        (SymmetricStepValuation(4, 3),
         {"form": "symmetric_step", "m": 4, "alpha_num": 3, "alpha_den": 1}),
        (SymmetricStepValuation(3, 3, 2),
         {"form": "symmetric_step", "m": 3, "alpha_num": 3, "alpha_den": 2}),
        (PairBonusValuation(2, 1, 10),
         {"form": "pair_bonus", "m": 2, "unit": 1, "pair": 10}),
        (TargetPairValuation(5, 1, 4, 1, 3, 2),
         {"form": "type2_pair", "m": 5, "target": 1, "special": 4, "unit": 1,
          "special_value": 3, "bonus": 2}),
    )
    for v, spec in cases:
        assert json.dumps(v.spec_dict()) == json.dumps(spec)
        again = valuation_from_spec(spec)
        assert type(again) is type(v)
        assert again.value_table() == v.value_table()
        assert again.spec_dict() == v.spec_dict()
    # an absent key takes the class default; a key naming no field is ignored
    assert valuation_from_spec({"form": "symmetric_step", "m": 3,
                                "alpha_num": 2, "note": "x"}).den == 1


def test_every_valuation_class_has_a_json_form():
    concrete = {
        cls for cls in vars(valuations).values()
        if isinstance(cls, type) and issubclass(cls, Valuation)
        and not inspect.isabstract(cls)
    }
    assert concrete == set(valuations._FORMS.values())


def test_spec_declared_universe_size_checked():
    spec = AdditiveValuation((1, 2)).spec_dict()
    spec["universe_size"] = 2
    assert valuation_from_spec(spec).universe_size == 2
    spec["universe_size"] = 3
    with pytest.raises(UniverseMismatch):
        valuation_from_spec(spec)


def test_spec_errors():
    with pytest.raises(ValueError):
        valuation_from_spec({"weights": [1]})  # no form
    with pytest.raises(ValueError):
        valuation_from_spec({"form": "mystery"})
    with pytest.raises(ValueError):
        valuation_from_spec({"form": "additive"})  # missing weights
    with pytest.raises(ValueError):
        valuation_from_spec("additive")  # not a dict
    with pytest.raises(NotMonotone):
        valuation_from_spec({"form": "table", "values": [0, 2, 1, 1]})
    for form in (["additive"], {"form": 1}, 3):  # not a string: unknown
        with pytest.raises(ValueError, match="unknown valuation form"):
            valuation_from_spec({"form": form, "weights": [1]})
    with pytest.raises(ValueError, match=(
            "valuation spec for 'symmetric_step' is missing 'alpha_num'")):
        valuation_from_spec({"form": "symmetric_step", "m": 2, "num": 1})
    with pytest.raises(ValueError, match="malformed 'table' valuation spec"):
        valuation_from_spec({"form": "table", "values": 5})

