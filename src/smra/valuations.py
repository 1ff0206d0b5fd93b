"""Valuations over item bundles and exact near-submodularity analysis.

A valuation assigns a non-negative integer worth (in price-step units) to
every bundle of items, is monotone under inclusion, and values the empty
bundle at zero. Bundles are bitmasks (see itemsets).

The analysis half measures how far a valuation deviates from submodular
(diminishing-returns) behavior. The degree of submodularity is the
minimum, over all items x and nested contexts A strictly inside B with x
outside B, of marg(x, A) / marg(x, B), where marg(x, S) = v(S | {x}) - v(S).
Ratios with zero denominator are skipped (0/0 carries no information and
k/0 is +inf, never a minimizer); if no comparable pair remains, the
valuation is vacuously submodular and the degree is +inf. The reciprocal
of the degree, clamped below at 1, is the smallest alpha >= 1 such that an
item added to a smaller context is always worth at least 1/alpha of what it
adds to any larger context.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from math import inf
from typing import Sequence, Union

from .errors import (GenerationFailed, NotMonotone, OracleTooLarge,
                     UniverseMismatch, require_alpha, require_int)
from .itemsets import items_of, iter_items, subset_sums

RationalLike = Union[int, Fraction]

# The one bound on 2**m bundle tables. value_table() refuses larger
# universes, and the engine, the strategies and the rationality scan all
# price bundles from these tables, so none of them runs beyond it.
TABLE_LIMIT = 20


class Valuation(ABC):
    """A monotone integer set function with value(empty) == 0.

    value_table() is the one gate for that contract: it checks the table
    once, when it fills its cache, and raises NotMonotone with a witness
    instead of caching a table that breaks it. Everything downstream (the
    engine, the oracle, the analysis) reads tables only through it, so a
    subclass overrides value, never value_table.
    """

    form: str = "abstract"
    # JSON key of each dataclass field whose key is not the field's name
    _json_names: dict[str, str] = {}

    @property
    @abstractmethod
    def universe_size(self) -> int:
        """Number of items m; valid bundles are masks below 2**m."""

    @abstractmethod
    def value(self, mask: int) -> int:
        """Worth of the bundle, in price-step units."""

    def check_mask(self, mask: int) -> None:
        if mask < 0 or mask >> self.universe_size:
            raise UniverseMismatch(
                f"mask {mask:#x} outside universe of size {self.universe_size}"
            )

    def value_table(self) -> tuple[int, ...]:
        """All 2**m bundle values, indexed by bitmask. Cached per instance
        once checked monotone with value(empty) == 0; a table that is not
        raises NotMonotone and is not cached."""
        table = getattr(self, "_table", None)
        if table is None:
            m = self.universe_size
            if m > TABLE_LIMIT:
                raise OracleTooLarge(
                    f"value table for m={m} would need 2**{m} entries"
                )
            table = tuple(self.value(mask) for mask in range(1 << m))
            _check_table_monotone(table, m)
            object.__setattr__(self, "_table", table)
        return table

    def spec_dict(self) -> dict:
        """JSON-ready description; inverse of valuation_from_spec. The
        form, then every dataclass field in field order under its JSON
        name, with tuples written as lists. A valuation that is not a
        dataclass writes its own."""
        spec = {"form": self.form}
        for field in fields(self):
            value = getattr(self, field.name)
            key = self._json_names.get(field.name, field.name)
            spec[key] = list(value) if isinstance(value, tuple) else value
        return spec


def common_universe(valuations: Sequence[Valuation]) -> int:
    """The universe size m of a bidder list. Raises ValueError when it is
    empty and UniverseMismatch when two valuations disagree on m."""
    if not valuations:
        raise ValueError("need at least one bidder")
    sizes = {v.universe_size for v in valuations}
    if len(sizes) > 1:
        raise UniverseMismatch(f"valuations disagree on universe size: {sorted(sizes)}")
    return sizes.pop()


def _require_int_fields(valuation, *names: str) -> None:
    """Raise TypeError on a named field that is not an int."""
    for name in names:
        require_int(f"{valuation.form} {name}", getattr(valuation, name),
                    error=TypeError)


def _require_nonneg_ints(values, what: str) -> tuple[int, ...]:
    return tuple([require_int(what, x, 0, NotMonotone) for x in values])


@dataclass(frozen=True)
class TableValuation(Valuation):
    """Explicit table of all 2**m bundle values, indexed by bitmask."""

    values: tuple[int, ...]
    form = "table"

    def __post_init__(self):
        n = len(self.values)
        if n > 1 << TABLE_LIMIT:
            raise OracleTooLarge(f"{n} table values are past 2**{TABLE_LIMIT}")
        vals = _require_nonneg_ints(self.values, "table value")
        object.__setattr__(self, "values", vals)
        if n < 2 or n & (n - 1):
            raise ValueError(f"table length must be 2**m with m >= 1, got {n}")
        _check_table_monotone(vals, n.bit_length() - 1)
        object.__setattr__(self, "_table", vals)  # value_table()'s checked cache

    @property
    def universe_size(self) -> int:
        return len(self.values).bit_length() - 1

    def value(self, mask: int) -> int:
        self.check_mask(mask)
        return self.values[mask]


@dataclass(frozen=True)
class _WeightedValuation(Valuation):
    """A worth per item; the subclasses, dataclasses by inheritance, say
    how a bundle combines them."""

    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "weights", _require_nonneg_ints(self.weights, "weight")
        )
        if not self.weights:
            raise ValueError("need at least one item")

    @property
    def universe_size(self) -> int:
        return len(self.weights)


class AdditiveValuation(_WeightedValuation):
    """Each item has a fixed worth; a bundle is worth the sum."""

    form = "additive"

    def value(self, mask: int) -> int:
        self.check_mask(mask)
        w = self.weights
        return sum(w[j] for j in iter_items(mask))


class UnitDemandValuation(_WeightedValuation):
    """A bundle is worth its single best item."""

    form = "unit_demand"

    def value(self, mask: int) -> int:
        self.check_mask(mask)
        w = self.weights
        return max((w[j] for j in iter_items(mask)), default=0)


@dataclass(frozen=True)
class SymmetricStepValuation(Valuation):
    """Symmetric valuation: the first item is worth `den`, every further
    item adds `num`, so a bundle of s >= 1 items is worth (s-1)*num + den.

    With ratio num/den = a >= 1 the first item is underweighted by exactly
    a relative to later ones, which makes the degree of submodularity
    den/num = 1/a.
    """

    m: int
    num: int
    den: int = 1
    form = "symmetric_step"
    _json_names = {"num": "alpha_num", "den": "alpha_den"}

    def __post_init__(self):
        _require_int_fields(self, "m", "num", "den")
        if self.m < 1:
            raise ValueError("need at least one item")
        if self.num < 0 or self.den < 1:
            raise NotMonotone("need num >= 0 and den >= 1")

    @property
    def universe_size(self) -> int:
        return self.m

    def value(self, mask: int) -> int:
        self.check_mask(mask)
        s = mask.bit_count()
        if s == 0:
            return 0
        return (s - 1) * self.num + self.den


@dataclass(frozen=True)
class PairBonusValuation(Valuation):
    """Any single item is worth `unit`; two or more items are worth `pair`.

    With pair much larger than unit the second item carries almost all the
    value, a strongly complementary shape: the degree of submodularity is
    unit / (pair - unit).
    """

    m: int
    unit: int
    pair: int
    form = "pair_bonus"

    def __post_init__(self):
        _require_int_fields(self, "m")
        if self.m < 2:
            raise ValueError("pair_bonus needs at least two items")
        _require_nonneg_ints((self.unit, self.pair), "pair_bonus value")
        if self.pair < self.unit:
            raise NotMonotone("pair value below unit value is not monotone")

    @property
    def universe_size(self) -> int:
        return self.m

    def value(self, mask: int) -> int:
        self.check_mask(mask)
        s = mask.bit_count()
        if s == 0:
            return 0
        if s == 1:
            return self.unit
        return self.pair


@dataclass(frozen=True)
class TargetPairValuation(Valuation):
    """Interest in one target item and one special item only.

    The target alone is worth `unit`, the special item alone
    `special_value`, and the two together `special_value + bonus`; other
    items add nothing. With bonus > unit the target is worth more next to
    the special item than alone, so the shape is complementary with degree
    unit / bonus.
    """

    m: int
    target: int
    special: int
    unit: int
    special_value: int
    bonus: int
    form = "type2_pair"

    def __post_init__(self):
        _require_int_fields(self, "m", "target", "special")
        if self.m < 2:
            raise ValueError("type2_pair needs at least two items")
        for idx in (self.target, self.special):
            if not 0 <= idx < self.m:
                raise UniverseMismatch(f"item {idx} outside universe of size {self.m}")
        if self.target == self.special:
            raise ValueError("target and special item must differ")
        _require_nonneg_ints(
            (self.unit, self.special_value, self.bonus), "type2_pair value"
        )
        if self.special_value + self.bonus < self.unit:
            raise NotMonotone("pair worth less than the target alone is not monotone")

    @property
    def universe_size(self) -> int:
        return self.m

    def value(self, mask: int) -> int:
        self.check_mask(mask)
        has_target = (mask >> self.target) & 1
        has_special = (mask >> self.special) & 1
        if has_special:
            return self.special_value + (self.bonus if has_target else 0)
        return self.unit if has_target else 0


# The JSON form of each valuation class, keyed by its `form` name.
_FORMS = {cls.form: cls for cls in (
    TableValuation, AdditiveValuation, UnitDemandValuation,
    SymmetricStepValuation, PairBonusValuation, TargetPairValuation)}


def valuation_from_spec(spec: dict) -> Valuation:
    """Build a valuation from its JSON description (inverse of spec_dict).
    Each dataclass field is read from its JSON key; an absent key takes
    the field's default, and keys that name no field are ignored."""
    if not isinstance(spec, dict) or "form" not in spec:
        raise ValueError(f"valuation spec must be a dict with a 'form': {spec!r}")
    form = spec["form"]
    cls = _FORMS.get(form) if isinstance(form, str) else None
    if cls is None:
        raise ValueError(f"unknown valuation form {form!r}")
    args = {}
    for field in fields(cls):
        key = cls._json_names.get(field.name, field.name)
        if key in spec:
            args[field.name] = spec[key]
        elif field.default is MISSING:
            raise ValueError(f"valuation spec for {form!r} is missing {key!r}")
    try:
        v = cls(**args)
    except TypeError as exc:
        raise ValueError(f"malformed {form!r} valuation spec: {exc}") from None
    declared = spec.get("universe_size")
    if (declared is not None
            and require_int("universe_size", declared) != v.universe_size):
        raise UniverseMismatch(
            f"spec declares universe_size {declared} but the {form} form has "
            f"{v.universe_size} items"
        )
    return v


# ---------------------------------------------------------------------------
# Degree of submodularity


def ratio_text(x: Fraction | float) -> str:
    """The JSON text of an exact ratio: "inf", or else str(x), as "3/2"."""
    return "inf" if x == inf else str(x)


@dataclass(frozen=True)
class SubmodularityReport:
    """Exact analysis of a valuation's deviation from submodularity.

    degree  -- min over (item x, A strictly inside B, x outside B) of
               marg(x, A) / marg(x, B); +inf when no comparable pair exists.
    alpha   -- smallest a >= 1 with degree >= 1/a: max(1, 1/degree),
               +inf when degree == 0, 1 when degree == +inf.
    witness -- (x, small_mask, large_mask) achieving the degree, or None.
    """

    degree: Fraction | float
    alpha: Fraction | float
    witness: tuple[int, int, int] | None

    def to_dict(self) -> dict:
        d: dict = {"degree": ratio_text(self.degree),
                   "alpha": ratio_text(self.alpha)}
        if self.witness is None:
            d["witness"] = None
        else:
            x, small, large = self.witness
            d["witness"] = {
                "item": x,
                "small": list(items_of(small)),
                "large": list(items_of(large)),
            }
        return d


def _check_table_monotone(table, m: int) -> None:
    if table[0] != 0:
        raise NotMonotone(f"value of the empty bundle must be 0, got {table[0]}")
    for mask in range(1, 1 << m):
        v = table[mask]
        if v < 0:
            raise NotMonotone(f"negative value {v} at mask {mask:#x}")
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if v < table[mask ^ low]:
                raise NotMonotone(
                    f"not monotone: v({mask:#x}) = {v} < "
                    f"v({mask ^ low:#x}) = {table[mask ^ low]}"
                )


def degree_of_submodularity(valuation: Valuation) -> SubmodularityReport:
    """Exact degree of submodularity, with a minimizing witness.

    Reads the table through value_table(), which refuses a non-monotone
    one with NotMonotone, then runs in O(m^2 * 2^m): for each item x a
    lattice sweep computes, for every context B avoiding x, the smallest
    marginal of x over all subsets of B, so each (x, B) pair is charged
    the best strict sub-context without enumerating pairs of sets.
    """
    m = valuation.universe_size
    table = valuation.value_table()
    best_num = best_den = 0  # ratio best_num / best_den; den == 0 <=> unset
    best_witness = None
    size = 1 << m
    for x in range(m):
        xbit = 1 << x
        # g[B] = min marginal of x over all subsets of B; gw[B] = a minimizer.
        g = [0] * size
        gw = [0] * size
        for b in range(size):
            if b & xbit:
                continue
            marg_b = table[b | xbit] - table[b]
            best = marg_b
            bw = b
            strict = None
            strict_w = 0
            rest = b
            while rest:
                low = rest & -rest
                rest ^= low
                c = g[b ^ low]
                if strict is None or c < strict:
                    strict = c
                    strict_w = gw[b ^ low]
                if c < best:
                    best = c
                    bw = gw[b ^ low]
            g[b] = best
            gw[b] = bw
            if strict is None or marg_b <= 0:
                continue  # no strict sub-context, or ratio is not finite
            # candidate ratio strict / marg_b; keep the minimum
            if best_den == 0 or strict * best_den < best_num * marg_b:
                best_num, best_den = strict, marg_b
                best_witness = (x, strict_w, b)

    if best_den == 0:
        return SubmodularityReport(degree=inf, alpha=Fraction(1), witness=None)
    degree = Fraction(best_num, best_den)
    alpha = inf if degree == 0 else max(Fraction(1), 1 / degree)
    return SubmodularityReport(degree=degree, alpha=alpha, witness=best_witness)


def is_alpha_near_submodular(valuation: Valuation, alpha: RationalLike) -> bool:
    """Whether every small-context marginal is at least 1/alpha of every
    larger-context marginal, i.e. degree >= 1/alpha."""
    floor = 1 / require_alpha(alpha)
    degree = degree_of_submodularity(valuation).degree
    return degree == inf or degree >= floor


# ---------------------------------------------------------------------------
# Random generation

_GENERATION_ATTEMPTS = 200


def random_near_submodular(
    m: int, alpha: RationalLike, value_cap: int, seed: int
) -> TableValuation:
    """Random monotone valuation, alpha-near-submodular by construction.

    Each attempt sums an additive part and, for m >= 2, one or two gadgets
    on a random item set xmask: a "step" (s >= 1 items of xmask are worth
    ((s-1)*p + q) * scale, where alpha = p/q in lowest terms) or a "cap"
    (any overlap is worth scale). The first table with total value in
    (0, value_cap] is returned, so a seed fixes the result; when no attempt
    fits (e.g. value_cap == 0), raises GenerationFailed.

    Lemma: for A strictly inside B and x outside B, let a_i and b_i be x's
    marginals in part i at A and at B. The additive part has a_i = b_i, the
    cap gadget is submodular, and the step gadget's marginal for an item of
    xmask is q*scale into an empty overlap and p*scale after it (0 for other
    items). So each part has a_i >= b_i * q/p, the sum has sum(a_i) >=
    (q/p) * sum(b_i), and that is degree >= 1/alpha.

    m <= 10, well below TABLE_LIMIT, keeps a call's up to 200 tables of
    2**m entries cheap and every returned one exactly scorable by tests.
    """
    if require_int("m", m, 1) > 10:
        raise ValueError(f"m must be in 1..10, got {m}")
    alpha = require_alpha(alpha)
    require_int("value_cap", value_cap, 0)
    p, q = alpha.numerator, alpha.denominator

    rng = random.Random(require_int("seed", seed))
    size = 1 << m
    for attempt in range(_GENERATION_ATTEMPTS):
        shrink = attempt // 25  # progressively smaller values on retries
        w_hi = max(0, 2 - shrink)
        weights = [rng.randint(0, w_hi) for _ in range(m)]
        table = subset_sums(weights)

        if m >= 2:
            lo = 0 if shrink >= 3 else 1
            for _ in range(rng.randint(lo, max(1, 2 - shrink))):
                gadget_size = rng.randint(2, m)
                xmask = 0
                for item in rng.sample(range(m), gadget_size):
                    xmask |= 1 << item
                scale = rng.randint(1, max(1, 2 - shrink))
                kind = rng.choice(("step", "step", "cap"))
                for mask in range(1, size):
                    s = (mask & xmask).bit_count()
                    if s == 0:
                        continue
                    if kind == "step":
                        table[mask] += ((s - 1) * p + q) * scale
                    else:  # capped: any overlap is worth the same
                        table[mask] += scale

        if 0 < table[size - 1] <= value_cap:
            return TableValuation(tuple(table))
    raise GenerationFailed(
        f"no valuation with total value in (0, {value_cap}] found in "
        f"{_GENERATION_ATTEMPTS} attempts"
    )
