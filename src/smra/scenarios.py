"""Named auction scenarios and the Monte Carlo trial harness.

A Scenario bundles a universe size, the bidders' valuations and
strategies as two parallel tuples, and optional named per-trial events
(predicates evaluated on each outcome, surfaced as CSV flag columns and
summary frequencies). Builders
construct the classic instability instances: the exposure coin-flip, the
price-war crowds that pin the welfare bounds, the superadditive bidder
frozen out by security, one-shot scripted partitions, and the overbidding
punishment example.

run_trials executes many independent auctions with per-trial seeds derived
deterministically from (master seed, trial index), so serial and parallel
execution produce identical rows.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property, partial
from inspect import signature
from math import inf
from typing import Callable, IO, Optional, Sequence, Union

from .errors import Divergence, InvalidPartition, UniverseMismatch, require_int
from .itemsets import full_mask, items_of, mask_of
from .mechanism import PreparedBidders, run_auction, write_trace_jsonl
from .oracle import RationalityScan, optimal_welfare, welfare
from .strategies import (
    LocallyOptimalStrategy,
    ScriptedStrategy,
    SecureProfitMaxStrategy,
    Strategy,
    TruthfulStrategy,
    strategy_from_spec,
)
from .valuations import (
    TABLE_LIMIT,
    AdditiveValuation,
    PairBonusValuation,
    SymmetricStepValuation,
    TableValuation,
    TargetPairValuation,
    UnitDemandValuation,
    Valuation,
    common_universe,
    ratio_text,
    valuation_from_spec,
)


@dataclass(frozen=True)
class TrialEvent:
    """Named per-trial predicate: check(outcome, welfare_value) -> bool."""

    name: str
    check: Callable[..., bool]


@dataclass(frozen=True)
class Scenario:
    """A bidder list and its events: bidder i has valuations[i] and bids
    by strategies[i]. Both are stored as tuples, which must be of one
    length. prepared (their PreparedBidders: memos and segments) is built
    on first use and lasts as long as the scenario. A pickle keeps only
    the fields, so each pool worker builds its own."""

    name: str
    m: int
    valuations: tuple[Valuation, ...]
    strategies: tuple[Strategy, ...]
    events: tuple[TrialEvent, ...] = ()

    def __post_init__(self):
        for name in ("valuations", "strategies", "events"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.valuations) != len(self.strategies):
            raise ValueError(f"{len(self.valuations)} valuations but "
                             f"{len(self.strategies)} strategies")
        names = [e.name for e in self.events]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"scenario names event {name!r} twice")
        m = common_universe(self.valuations)
        if m != self.m:
            raise UniverseMismatch(f"bidders have m={m}, scenario has m={self.m}")
        require_int("m", self.m)  # equal to m, yet maybe True for 1

    @cached_property
    def prepared(self) -> PreparedBidders:
        return PreparedBidders(self.valuations, self.strategies)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def spec_dict(self) -> dict:
        return {
            "name": self.name,
            "m": self.m,
            "bidders": [
                {"valuation": v.spec_dict(), "strategy": s.spec_dict()}
                for v, s in zip(self.valuations, self.strategies)
            ],
        }

    def with_strategy_options(
        self,
        local_start: Optional[str] = None,
        secure_variant: Optional[str] = None,
    ) -> "Scenario":
        """Copy of the scenario with options applied to matching strategies."""
        if local_start is None and secure_variant is None:
            return self
        strategies = []
        for strategy in self.strategies:
            if local_start is not None and isinstance(strategy, LocallyOptimalStrategy):
                strategy = LocallyOptimalStrategy(local_start)
            if secure_variant is not None and isinstance(
                strategy, SecureProfitMaxStrategy
            ):
                strategy = SecureProfitMaxStrategy(secure_variant)
            strategies.append(strategy)
        return replace(self, strategies=strategies)


def scenario_from_spec(spec: dict) -> Scenario:
    """Build a scenario from its JSON description (no events attach)."""
    if not isinstance(spec, dict):
        raise ValueError(f"scenario JSON must be an object, got {spec!r}")
    for key in ("name", "m", "bidders"):
        if key not in spec:
            raise ValueError(f"scenario JSON is missing {key!r}")
    if not isinstance(spec["name"], str):
        raise ValueError(f"name must be a string, got {spec['name']!r}")
    m = require_int("m", spec["m"], 1)
    if not isinstance(spec["bidders"], list):
        raise ValueError(f"bidders must be a list, got {spec['bidders']!r}")
    valuations, strategies = [], []
    for i, b in enumerate(spec["bidders"]):
        if not isinstance(b, dict) or "valuation" not in b or "strategy" not in b:
            raise ValueError(f"bidder {i} needs 'valuation' and 'strategy'")
        valuations.append(valuation_from_spec(b["valuation"]))
        strategies.append(strategy_from_spec(b["strategy"], m))
    return Scenario(spec["name"], m, valuations, strategies)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            spec = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    return scenario_from_spec(spec)


# ---------------------------------------------------------------------------
# Event predicates (top-level functions so scenarios stay picklable)


def _ev_welfare_equals(target: int, outcome, welfare_value: int) -> bool:
    return welfare_value == target


def _ev_distinct_winners(outcome, welfare_value: int) -> bool:
    held, m = outcome.allocation, len(outcome.prices)
    return (len(held) - held.count(0) == m
            and sum(map(int.bit_count, held)) == m)


def _ev_first_n_empty(n: int, outcome, welfare_value: int) -> bool:
    return all(outcome.allocation[i] == 0 for i in range(n))


def _ev_sweep_by_rest(n: int, outcome, welfare_value: int) -> bool:
    if not _ev_first_n_empty(n, outcome, welfare_value):
        return False
    held = 0
    for mask in outcome.allocation:
        held |= mask
    return held == full_mask(len(outcome.prices))


def _ev_bidder_empty(idx: int, outcome, welfare_value: int) -> bool:
    return outcome.allocation[idx] == 0


def _ev_matches_allocation(parts: tuple, outcome, welfare_value: int) -> bool:
    return outcome.allocation == parts


def _ev_bidder_overpays(idx: int, valuation: Valuation, outcome, welfare_value) -> bool:
    held = outcome.allocation[idx]
    paid = sum(outcome.prices[j] for j in items_of(held))
    return valuation.value(held) - paid < 0


def _ev_none_overpay(
    indices: tuple, valuations: tuple, outcome, welfare_value
) -> bool:
    for idx, valuation in zip(indices, valuations):
        if _ev_bidder_overpays(idx, valuation, outcome, welfare_value):
            return False
    return True


# ---------------------------------------------------------------------------
# Scenario builders


def build_bad_pair(M: int = 100) -> Scenario:
    """Two bidders, two items, singles worth 1 and the pair worth M, both
    bidding truthfully: a coin flip between a welfare-2 split and a
    welfare-M sweep."""
    require_int("M", M, 2)
    return Scenario(
        name="bad_pair",
        m=2,
        valuations=(PairBonusValuation(m=2, unit=1, pair=M),) * 2,
        strategies=(TruthfulStrategy(),) * 2,
        events=(TrialEvent("welfare_2", partial(_ev_welfare_equals, 2)),),
    )


def build_truthful_tight(k: int = 4, alpha: int = 3, L: int = 60) -> Scenario:
    """k items, L identical bidders whose first item is underweighted by
    alpha, all truthful: the crowd splits the items one each, while the
    optimum hands everything to one bidder."""
    for name, val, least in (("k", k, 2), ("alpha", alpha, 1), ("L", L, 1)):
        require_int(name, val, least)
    if L <= k:
        raise ValueError(f"need more bidders than items (L > k), got L={L}, k={k}")
    return Scenario(
        name="truthful_tight",
        m=k,
        valuations=(SymmetricStepValuation(m=k, num=alpha, den=1),) * L,
        strategies=(TruthfulStrategy(),) * L,
        events=(TrialEvent("distinct_winners", partial(_ev_distinct_winners)),),
    )


def _cluster_table(m: int, block: int, alpha: int) -> TableValuation:
    """Value (s-1)*alpha**2 + alpha for s > 0 items held inside the block,
    0 outside it."""
    values = []
    for mask in range(1 << m):
        s = (mask & block).bit_count()
        values.append(0 if s == 0 else (s - 1) * alpha * alpha + alpha)
    return TableValuation(tuple(values))


def build_local_tight(
    k: int = 2, n: int = 2, alpha: int = 2, H: int = 3, L: int = 5
) -> Scenario:
    """k*n+1 items; n cluster bidders each wanting a private block of k
    items with sharply complementary values, and L price-war copies per
    block item wanting that item plus the shared last item z. Everyone
    bids by local search."""
    for name, val in (("k", k), ("n", n), ("alpha", alpha), ("H", H), ("L", L)):
        require_int(name, val, 1)
    if H <= alpha:
        raise ValueError(f"need H > alpha, got H={H}, alpha={alpha}")
    m = k * n + 1
    if m > TABLE_LIMIT:
        raise ValueError(
            f"k*n+1 = {m} items is beyond the bundle-table limit ({TABLE_LIMIT})"
        )
    z = m - 1
    valuations = []
    for i in range(n):
        block = 0
        for j in range(i * k, (i + 1) * k):
            block |= 1 << j
        valuations.append(_cluster_table(m, block, alpha))
    for x in range(k * n):
        pair = TargetPairValuation(
            m=m, target=x, special=z, unit=1, special_value=H, bonus=alpha
        )
        valuations += [pair] * L
    return Scenario(
        name="local_tight",
        m=m,
        valuations=valuations,
        strategies=(LocallyOptimalStrategy(),) * len(valuations),
        events=(
            TrialEvent("clusters_empty", partial(_ev_first_n_empty, n)),
            TrialEvent("pairs_sweep", partial(_ev_sweep_by_rest, n)),
        ),
    )


def build_superadditive(M: int = 50) -> Scenario:
    """Two items; two unit-demand bidders valuing one item each at 2, and
    one bidder valuing the pair at 2M but singles at only 1. Everyone bids
    securely, so the pair bidder goes home empty no matter how large M is."""
    require_int("M", M, 2)
    return Scenario(
        name="superadditive",
        m=2,
        valuations=(UnitDemandValuation((2, 0)), UnitDemandValuation((0, 2)),
                    PairBonusValuation(m=2, unit=1, pair=2 * M)),
        strategies=(SecureProfitMaxStrategy(),) * 3,
        events=(
            TrialEvent("bundler_empty", partial(_ev_bidder_empty, 2)),
            TrialEvent("welfare_4", partial(_ev_welfare_equals, 4)),
        ),
    )


def build_scripted_partition(partition: Sequence) -> Scenario:
    """One bidder per part, each scripted to bid exactly her part in round
    0: the auction ends after one bidding round with the partition as the
    allocation, every item at price 1."""
    parts = []
    for part in partition:
        try:
            mask = part if isinstance(part, int) else mask_of(part)
        except (TypeError, UniverseMismatch, ValueError) as exc:
            raise InvalidPartition(str(exc)) from exc
        parts.append(require_int("part mask", mask, 1, InvalidPartition))
    if not parts:
        raise InvalidPartition("need at least one part")
    seen = 0
    for i, mask in enumerate(parts):
        if mask & seen:
            clash = list(items_of(mask & seen))
            raise InvalidPartition(f"part {i} reuses item(s) {clash}")
        seen |= mask
    m = seen.bit_length()
    parts = tuple(parts)
    return Scenario(
        name="scripted_partition",
        m=m,
        valuations=[AdditiveValuation(tuple((mask >> j) & 1 for j in range(m)))
                    for mask in parts],
        strategies=[ScriptedStrategy((mask,)) for mask in parts],
        events=(
            TrialEvent("matches_partition", partial(_ev_matches_allocation, parts)),
        ),
    )


def build_nonsecure_punishment() -> Scenario:
    """Three items. Bidder 0 is scripted to open with an insecure bid on
    the first two items (worth 1 together to her) and wins them both at a
    total price of 2, locking in a loss. Six additive copy-bidders value
    only the third item and bid securely, running its price up to their
    common value without ever overpaying."""
    overbidder = TableValuation(tuple(
        1 if mask & 0b011 else 0 for mask in range(8)
    ))
    copy_valuation = AdditiveValuation((0, 0, 10))
    return Scenario(
        name="punishment",
        m=3,
        valuations=(overbidder,) + (copy_valuation,) * 6,
        strategies=(ScriptedStrategy((0b011,)),) + (SecureProfitMaxStrategy(),) * 6,
        events=(
            TrialEvent(
                "scripted_overpays", partial(_ev_bidder_overpays, 0, overbidder)
            ),
            TrialEvent(
                "copies_no_loss",
                partial(_ev_none_overpay, tuple(range(1, 7)), (copy_valuation,) * 6),
            ),
        ),
    )


# A builtin's parameters and their defaults are its builder's signature.
BUILTIN_SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "bad_pair": build_bad_pair,
    "truthful_tight": build_truthful_tight,
    "local_tight": build_local_tight,
    "superadditive": build_superadditive,
    "lemma4": build_superadditive,
    "punishment": build_nonsecure_punishment,
}


def build_builtin(name: str, **params) -> Scenario:
    """Look up a named builtin and build it with overridable defaults."""
    if name not in BUILTIN_SCENARIOS:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(f"unknown builtin scenario {name!r} (known: {known})")
    builder = BUILTIN_SCENARIOS[name]
    unknown = set(params) - set(signature(builder).parameters)
    if unknown:
        raise ValueError(
            f"builtin {name!r} does not take parameter(s) {sorted(unknown)}"
        )
    return builder(**params)


# ---------------------------------------------------------------------------
# Trial harness

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_seed(master: int, index: int) -> int:
    """Per-trial seed: the index-th output of a splitmix64 stream whose
    state starts at the master seed. Stable across platforms and processes."""
    z = ((master & _MASK64) + _GOLDEN * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class TrialRow:
    """One auction's results: exact integers and fractions only."""

    trial: int
    seed: int
    rounds: int
    welfare: int
    ratio: Fraction
    lam: Union[Fraction, float, None]
    diverged: bool
    events: tuple[bool, ...]


def _run_chunk(
    scenario: Scenario,
    master_seed: int,
    optimal_value: int,
    max_rounds: Optional[int],
    collect_lambda: bool,
    subset_cap: int,
    trace_path: Optional[str],
    trials: range,
) -> list[TrialRow]:
    """The rows of the given trial indices: the one trial loop behind the
    serial, pooled and traced runs. Every trial's auction and λ scan
    reads scenario.prepared, built once per scenario in the process that
    runs the chunk, so its caches carry over between chunks and
    run_trials calls. λ is measured as the auction streams, by a
    RationalityScan observing every settled round (the terminal round
    moves nothing, and a diverged trial's partial trace holds exactly the
    rounds observed). A trace is recorded only for trace_path (single-trial
    runs only), which receives the trial's JSONL trace."""
    prepared = scenario.prepared
    valuations, strategies = prepared.valuations, prepared.strategies
    rows = []
    for trial in trials:
        seed = derive_seed(master_seed, trial)
        scan = (RationalityScan(valuations, subset_cap, prepared.value_tables)
                if collect_lambda else None)
        try:
            outcome = run_auction(
                valuations, strategies, seed,
                max_rounds=max_rounds, record_trace=trace_path is not None,
                observer=scan.update if scan else None, prepared=prepared,
            )
        except Divergence as exc:
            outcome = exc.outcome
        w = welfare(outcome.allocation, valuations)
        lam = scan.report().lam if scan else None
        rows.append(TrialRow(
            trial=trial,
            seed=seed,
            rounds=outcome.rounds,
            welfare=w,
            ratio=Fraction(w, optimal_value) if optimal_value else Fraction(1),
            lam=lam,
            diverged=outcome.diverged,
            events=tuple(bool(ev.check(outcome, w)) for ev in scenario.events),
        ))
        if trace_path is not None:
            write_trace_jsonl(outcome.records, trace_path)
    return rows


_CSV_PREFIX = ("trial", "seed", "rounds", "welfare", "optimal", "ratio_num",
               "ratio_den", "lambda_num", "lambda_den", "diverged")


@dataclass(frozen=True)
class TrialStats:
    """All rows of a Monte Carlo run plus the scenario-level constants."""

    scenario_name: str
    m: int
    master_seed: int
    optimal: int
    event_names: tuple[str, ...]
    rows: tuple[TrialRow, ...]

    def aggregates(self) -> dict:
        return aggregate_rows(self.rows, self.event_names)

    def summary_dict(self) -> dict:
        summary = {
            "scenario": self.scenario_name,
            "m": self.m,
            "seed": self.master_seed,
            "optimal": self.optimal,
        }
        summary.update(self.aggregates())
        return summary

    def to_csv(self, file: Union[IO[str], str]) -> None:
        if isinstance(file, str):
            with open(file, "w", encoding="utf-8", newline="") as handle:
                self.to_csv(handle)
            return
        writer = csv.writer(file)
        writer.writerow(
            list(_CSV_PREFIX) + [f"event_{name}" for name in self.event_names]
        )
        for row in self.rows:
            if row.lam is None:
                lam_num, lam_den = "", ""
            elif row.lam == inf:
                lam_num, lam_den = "inf", "1"
            else:
                lam_num, lam_den = row.lam.numerator, row.lam.denominator
            writer.writerow(
                [row.trial, row.seed, row.rounds, row.welfare, self.optimal,
                 row.ratio.numerator, row.ratio.denominator, lam_num, lam_den,
                 int(row.diverged)]
                + [int(flag) for flag in row.events]
            )


def aggregate_rows(
    rows: Sequence[TrialRow], event_names: Sequence[str]
) -> dict:
    """Aggregates recomputable from the rows alone (and hence from a CSV)."""
    n = len(rows)
    welfare_sum = sum(r.welfare for r in rows)
    rounds_total = sum(r.rounds for r in rows)
    ratio_sum = sum((r.ratio for r in rows), Fraction(0))
    lam_values = [r.lam for r in rows if r.lam is not None]
    max_lambda: Union[Fraction, float, None] = max(lam_values, default=None)
    out = {
        "trials": n,
        "welfare_sum": welfare_sum,
        "welfare_mean": welfare_sum / n if n else 0.0,
        "rounds_total": rounds_total,
        "rounds_mean": rounds_total / n if n else 0.0,
        "ratio_mean": float(ratio_sum / n) if n else 0.0,
        "max_lambda": None if max_lambda is None else ratio_text(max_lambda),
        "diverged": sum(1 for r in rows if r.diverged),
        "events": {},
    }
    for idx, name in enumerate(event_names):
        count = sum(1 for r in rows if r.events[idx])
        out["events"][name] = count
        out[f"freq_{name}"] = count / n if n else 0.0
    return out


def _cell_int(cell: str) -> int:
    """An integer cell as to_csv writes it: ASCII digits, with no sign,
    since every integer column is >= 0 (int() alone also takes "0_0",
    " 3", "+3", "-0" and non-ASCII digits)."""
    if not (cell.isascii() and cell.isdigit()):
        raise ValueError(f"CSV cell {cell!r} is not an integer >= 0")
    return int(cell)


def _denominator(cell: str) -> int:
    value = _cell_int(cell)
    if value <= 0:
        raise ValueError(f"CSV denominator {cell!r} is not positive")
    return value


def _flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"CSV flag {cell!r} is not 0 or 1")
    return cell == "1"


def read_rows_csv(file: Union[IO[str], str]) -> tuple[tuple[str, ...], list[TrialRow]]:
    """Parse a CSV written by TrialStats.to_csv back into rows. A foreign
    header (other fixed columns, or a later column not named
    `event_<name>`), a row whose cell count differs from the header's, an
    integer cell that is not ASCII digits alone (every integer column is
    >= 0; the λ cells may also be both empty, or inf over 1), a ratio or λ
    denominator that is not positive, or a flag (diverged or event) other
    than 0 or 1 raises ValueError."""
    if isinstance(file, str):
        with open(file, "r", encoding="utf-8", newline="") as handle:
            return read_rows_csv(handle)
    reader = csv.reader(file)
    header = next(reader, [])  # an empty file has no header
    width = len(_CSV_PREFIX)
    if (tuple(header[:width]) != _CSV_PREFIX
            or not all(name.startswith("event_") for name in header[width:])):
        raise ValueError(f"unexpected CSV header {header!r}")
    event_names = tuple(name[len("event_"):] for name in header[width:])
    rows = []
    for rec in reader:
        if len(rec) != len(header):
            raise ValueError(f"CSV row {rec!r} is not {len(header)} cells")
        trial, seed, rounds, w, _optimal, rnum = map(_cell_int, rec[:6])
        rden = _denominator(rec[6])
        lnum, lden, diverged = rec[7:width]
        if lnum == lden == "":
            lam: Union[Fraction, float, None] = None
        elif (lnum, lden) == ("inf", "1"):
            lam = inf
        else:
            lam = Fraction(_cell_int(lnum), _denominator(lden))
        rows.append(
            TrialRow(
                trial=trial,
                seed=seed,
                rounds=rounds,
                welfare=w,
                ratio=Fraction(rnum, rden),
                lam=lam,
                diverged=_flag(diverged),
                events=tuple(map(_flag, rec[width:])),
            )
        )
    return event_names, rows


def run_trials(
    scenario: Scenario,
    trials: int,
    seed: int = 0,
    *,
    jobs: int = 1,
    max_rounds: Optional[int] = None,
    collect_lambda: bool = True,
    subset_cap: int = 20,
    trace_path: Optional[str] = None,
) -> TrialStats:
    """Run `trials` independent auctions of the scenario.

    Per-trial seeds come from derive_seed(seed, trial), so results do not
    depend on `jobs`. The exact welfare oracle runs once. A diverged trial
    (round budget exhausted) is recorded with its partial outcome and
    flagged, not fatal. trace_path writes the (single) trial's JSONL
    trace and therefore requires trials == 1. Before the oracle runs, a
    trials or jobs that is not an int >= 1, a subset_cap or a max_rounds
    other than None that is not an int >= 0, or a seed that is not an int
    (a bool is neither) raises ValueError.
    """
    for name, count, least in (("trials", trials, 1), ("jobs", jobs, 1),
                               ("subset_cap", subset_cap, 0), ("seed", seed, None)):
        require_int(name, count, least)
    if max_rounds is not None:
        require_int("max_rounds", max_rounds, 0)
    if trace_path is not None and trials != 1:
        raise ValueError("a trace can only be written for a single trial")

    optimal = optimal_welfare(scenario.valuations)
    chunk = partial(_run_chunk, scenario, seed, optimal.welfare, max_rounds,
                    collect_lambda, subset_cap, trace_path)
    jobs = min(jobs, trials)
    if jobs == 1:
        rows = chunk(range(trials))
    else:
        # imported here so that `import smra` loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        size = -(-trials // jobs)
        parts = [range(trials)[start:start + size]
                 for start in range(0, trials, size)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = [row for part in pool.map(chunk, parts) for row in part]

    return TrialStats(
        scenario_name=scenario.name,
        m=scenario.m,
        master_seed=seed,
        optimal=optimal.welfare,
        event_names=tuple(ev.name for ev in scenario.events),
        rows=tuple(rows),
    )
