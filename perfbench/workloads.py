"""The four benchmark workloads: inputs, harness calls and output checks.

Each workload is driven from a master seed. Pass `index` of a run with
master seed `master` uses `pass_seed(base, master, index)`, which is the
workload's canonical seed (the one the acceptance criteria pin) for pass 0
of master seed 0 and a splitmix64 draw otherwise.

The harness call of a trials workload is `run_trials` itself; the harness
call of `random_suites` is the criteria 2/4/6 suite loop. Both produce a
CSV, and the checks read the rows back from that CSV, so what is checked
is what a user of `smra run` would receive.

`replay` runs a pass through a tracer (tracing.Tracer, or NULL_TRACER,
which calls straight through): for a trials workload it calls the public
functions in the order `run_trials` does, in one process.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

from smra import (
    Divergence,
    LocallyOptimalStrategy,
    SecureProfitMaxStrategy,
    TruthfulStrategy,
    derive_seed,
    measure_rationality,
    optimal_welfare,
    random_near_submodular,
    read_rows_csv,
    run_auction,
    run_trials,
    welfare,
)
from smra.scenarios import (
    Scenario,
    TrialRow,
    TrialStats,
    build_bad_pair,
    build_truthful_tight,
)

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
SUBSET_CAP = 20  # run_trials' default rationality subset cap


def pass_seed(base: int, master: int, index: int) -> int:
    """Seed of pass `index` of a run with master seed `master`."""
    if master == 0 and index == 0:
        return base
    return derive_seed(derive_seed(master, base), index) & 0xFFFFFFFF


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class NullTracer:
    """The untraced stand-in for tracing.Tracer: calls straight through."""

    def begin(self, trial: int) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, strategy):
        return strategy

    def scanned(self, outcome, subset_cap: int) -> None:
        pass


NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Row checks: each returns the set of failing trial indices.


def _check_coinflip(rows) -> set[int]:
    failed = {r.trial for r in rows if r.welfare not in (2, 100) or r.diverged}
    freq = Fraction(sum(1 for r in rows if r.welfare == 2), len(rows))
    if not Fraction(48, 100) <= freq <= Fraction(52, 100):
        failed = {r.trial for r in rows}
    return failed


def _check_crowd(rows) -> set[int]:
    # event 0 is distinct_winners: each of the 4 items went to its own bidder
    return {
        r.trial for r in rows
        if r.diverged or (r.events[0] and not (
            r.welfare == 4 and r.ratio == Fraction(2, 5)
            and r.lam is not None and r.lam <= 3
        ))
    }


def _crowd_outcome_ok(row, outcome, report) -> bool:
    """Criterion 3 on one distinct-winner hit: lambda_full equals the price."""
    return not row.events[0] or report.lam_full == Fraction(outcome.prices[0], 1)


def _check_wide(rows) -> set[int]:
    return {r.trial for r in rows if r.diverged or r.ratio > 1}


def _events(scenario: Scenario, outcome, w: int) -> tuple[bool, ...]:
    return tuple(bool(ev.check(outcome, w)) for ev in scenario.events)


@dataclass(frozen=True)
class TrialsWorkload:
    """A scenario run through `run_trials`, `trials` auctions per pass."""

    name: str
    build: Callable[[], Scenario]
    base_seed: int
    trials: int
    jobs: int
    collect_lambda: bool
    check_rows: Callable[[list], set]
    # Check that needs the full outcome, not just the row; None if there is none.
    outcome_ok: Optional[Callable] = None

    @property
    def auctions(self) -> int:
        return self.trials

    def setup(self, tracer=NULL_TRACER) -> Scenario:
        """Everything before the harness call: build the scenario and fill
        the value table of each distinct valuation."""
        scenario = tracer.call("scenarios.build", self.build)
        for valuation in {id(v): v for v in scenario.valuations}.values():
            tracer.call("valuations.value_table", valuation.value_table)
        return scenario

    def harness(self, scenario: Scenario, seed: int,
                jobs: Optional[int] = None) -> TrialStats:
        return run_trials(
            scenario, self.trials, seed, jobs=jobs or self.jobs,
            collect_lambda=self.collect_lambda, subset_cap=SUBSET_CAP,
        )

    def replay(self, scenario: Scenario, seed: int, tracer=NULL_TRACER):
        """The harness call with jobs=1, function by function.

        Returns (stats, trials failing the outcome check)."""
        valuations = scenario.valuations
        strategies = tuple(tracer.wrap(s) for s in scenario.strategies)
        optimal = tracer.call("oracle.optimal_welfare", optimal_welfare,
                              valuations).welfare
        rows, failed = [], set()
        for trial in range(self.trials):
            tracer.begin(trial)
            trial_seed = derive_seed(seed, trial)
            try:
                outcome = tracer.call("mechanism.run_auction", run_auction,
                                      valuations, strategies, trial_seed,
                                      record_trace=self.collect_lambda)
            except Divergence as exc:
                outcome = exc.outcome
            w = tracer.call("oracle.welfare", welfare, outcome.allocation,
                            valuations)
            report = None
            if self.collect_lambda and outcome.records is not None:
                report = tracer.call("oracle.measure_rationality",
                                     measure_rationality, outcome, valuations,
                                     SUBSET_CAP)
                tracer.scanned(outcome, SUBSET_CAP)
            events = tracer.call("scenarios.events", _events, scenario,
                                 outcome, w)
            row = TrialRow(
                trial=trial, seed=trial_seed, rounds=outcome.rounds, welfare=w,
                ratio=Fraction(w, optimal) if optimal else Fraction(1),
                lam=report.lam if report else None, diverged=outcome.diverged,
                events=events,
            )
            rows.append(row)
            if self.outcome_ok and report and not self.outcome_ok(
                    row, outcome, report):
                failed.add(trial)
        stats = TrialStats(
            scenario_name=scenario.name, m=scenario.m, master_seed=seed,
            optimal=optimal, event_names=tuple(e.name for e in scenario.events),
            rows=tuple(rows),
        )
        return stats, failed

    @staticmethod
    def rows(stats: TrialStats) -> list:
        return list(stats.rows)

    @staticmethod
    def counts(scenario: Scenario, stats: TrialStats) -> dict:
        return {
            "mechanism.rounds": sum(r.rounds for r in stats.rows),
            "oracle.dp_ops": len(scenario.valuations) * 3 ** scenario.m,
        }

    @staticmethod
    def to_csv(stats: TrialStats) -> str:
        out = io.StringIO(newline="")
        stats.to_csv(out)
        return out.getvalue()

    @staticmethod
    def summary_json(stats: TrialStats) -> str:
        return json.dumps(stats.summary_dict(), sort_keys=True)

    def check(self, csv_text: str) -> set[int]:
        try:
            _, rows = read_rows_csv(io.StringIO(csv_text, newline=""))
        except (ValueError, StopIteration):  # malformed or truncated CSV
            return set(range(self.trials))
        if [r.trial for r in rows] != list(range(self.trials)):
            return set(range(self.trials))
        return self.check_rows(rows)


# ---------------------------------------------------------------------------
# The criteria 2/4/6 bound suites


@dataclass(frozen=True)
class Suite:
    criterion: int
    base_seed: int
    strategy: Callable
    bound: Callable[[int, int, int], int]  # (alpha, welfare, m) -> ceiling
    lam_cap: Callable[[int], int]


SUITES = (
    Suite(2, 2001, TruthfulStrategy,
          lambda a, w, m: (1 + a) * w + m, lambda a: a),
    Suite(4, 2004, LocallyOptimalStrategy,
          lambda a, w, m: (1 + a * a) * w + a * m, lambda a: a),
    Suite(6, 2006, SecureProfitMaxStrategy,
          lambda a, w, m: (1 + a) * w, lambda a: 1),
)


class SuiteRow(NamedTuple):
    criterion: int
    instance: int
    seed: int
    m: int
    n: int
    alpha: int
    rounds: int
    welfare: int
    optimal: int
    lam: Union[Fraction, float]
    diverged: bool


SUITE_HEADER = list(SuiteRow._fields[:9]) + ["lambda_num", "lambda_den",
                                             "diverged"]


def random_instance(master_seed: int, index: int, tracer=NULL_TRACER,
                    max_m: int = 6, max_n: int = 4):
    """One random alpha-near-submodular instance: (alpha, valuations).
    The same draws as the acceptance suite's generator."""
    rng = random.Random(derive_seed(master_seed, index))
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    alpha = rng.choice([1, 2, 3])
    cap = rng.randint(10, 40)
    valuations = tuple(
        tracer.call("valuations.random_near_submodular", random_near_submodular,
                    m, alpha, cap, rng.randrange(2**32))
        for _ in range(n)
    )
    return alpha, valuations


@dataclass(frozen=True)
class SuitesWorkload:
    """The three bound suites, `trials` random instances each per pass."""

    name: str
    trials: int
    jobs = 1  # the suite loop runs in-process
    outcome_ok = None  # every check reads the CSV

    @property
    def auctions(self) -> int:
        return self.trials * len(SUITES)

    @property
    def base_seed(self) -> int:
        return SUITES[0].base_seed

    def setup(self, tracer=NULL_TRACER) -> None:
        return None

    def harness(self, state, seed: int, jobs: Optional[int] = None):
        return self.replay(state, seed)[0]

    def replay(self, state, seed: int, tracer=NULL_TRACER):
        """One auction, optimum and lambda scan per instance, per suite.
        Each suite draws from `seed` shifted by its base seed's offset from
        2001, so seed 2001 gives the acceptance suites' 2001, 2004 and 2006.

        Returns (rows, no failed outcome checks)."""
        rows = []
        for suite in SUITES:
            master = seed + suite.base_seed - SUITES[0].base_seed
            for i in range(self.trials):
                tracer.begin(len(rows))
                alpha, valuations = random_instance(master, i, tracer)
                for v in valuations:
                    tracer.call("valuations.value_table", v.value_table)
                strategies = tuple(
                    tracer.wrap(suite.strategy()) for _ in valuations
                )
                auction_seed = derive_seed(master + 1, i)
                outcome = tracer.call("mechanism.run_auction", run_auction,
                                      valuations, strategies, auction_seed)
                achieved = tracer.call("oracle.welfare", welfare,
                                       outcome.allocation, valuations)
                optimal = tracer.call("oracle.optimal_welfare",
                                      optimal_welfare, valuations).welfare
                lam = tracer.call("oracle.measure_rationality",
                                  measure_rationality, outcome, valuations,
                                  SUBSET_CAP).lam
                tracer.scanned(outcome, SUBSET_CAP)
                rows.append(SuiteRow(
                    suite.criterion, i, auction_seed,
                    valuations[0].universe_size, len(valuations), alpha,
                    outcome.rounds, achieved, optimal, lam, outcome.diverged,
                ))
        return rows, set()

    @staticmethod
    def rows(rows: list) -> list:
        return rows

    @staticmethod
    def counts(state, rows: list) -> dict:
        return {
            "mechanism.rounds": sum(r.rounds for r in rows),
            "oracle.dp_ops": sum(r.n * 3 ** r.m for r in rows),
        }

    @staticmethod
    def to_csv(rows: list) -> str:
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(SUITE_HEADER)
        for r in rows:
            if r.lam == inf:
                lam_num, lam_den = "inf", "1"
            else:
                lam_num, lam_den = r.lam.numerator, r.lam.denominator
            writer.writerow(list(r[:9]) + [lam_num, lam_den, int(r.diverged)])
        return out.getvalue()

    @staticmethod
    def summary_json(rows: list) -> str:
        return json.dumps({
            "instances": len(rows),
            "welfare_sum": sum(r.welfare for r in rows),
            "optimal_sum": sum(r.optimal for r in rows),
        }, sort_keys=True)

    def check(self, csv_text: str) -> set[int]:
        """The exact bounds of criteria 2, 4 and 6, instance by instance."""
        suites = {s.criterion: s for s in SUITES}
        reader = csv.reader(io.StringIO(csv_text, newline=""))
        if next(reader, None) != SUITE_HEADER:
            return set(range(self.auctions))
        records = list(reader)
        if len(records) != self.auctions:
            return set(range(self.auctions))
        failed = set()
        for index, rec in enumerate(records):
            try:
                crit, _, _, m, _, alpha, _, w, opt, lnum, lden, div = rec
                suite = suites[int(crit)]
                alpha, m, w, opt = int(alpha), int(m), int(w), int(opt)
                lam = inf if lnum == "inf" else Fraction(int(lnum), int(lden))
                ok = (opt <= suite.bound(alpha, w, m)
                      and lam <= suite.lam_cap(alpha) and div == "0")
            except (ValueError, KeyError):
                ok = False
            if not ok:
                failed.add(index)
        return failed


WORKLOADS = {
    # Criterion 1 exactly: 2 truthful bidders, 2 items, ~74 rounds an
    # auction; the mechanism round loop and truthful propose dominate.
    "coinflip": TrialsWorkload(
        name="coinflip", build=lambda: build_bad_pair(M=100), base_seed=123,
        trials=10_000, jobs=1, collect_lambda=False,
        check_rows=_check_coinflip,
    ),
    # 60 truthful bidders, 2 settled rounds, lambda on, two worker
    # processes: trace recording, the lambda scan and the pool all work.
    "crowd": TrialsWorkload(
        name="crowd", build=lambda: build_truthful_tight(k=4, alpha=3, L=60),
        base_seed=31, trials=2_000, jobs=2, collect_lambda=True,
        check_rows=_check_crowd, outcome_ok=_crowd_outcome_ok,
    ),
    # Fresh random instances every auction: no decision repeats.
    "random_suites": SuitesWorkload(name="random_suites", trials=500),
    # m = 12: 2**12-entry tables per round and a 30 * 3**12 oracle DP.
    "wide_m": TrialsWorkload(
        name="wide_m", build=lambda: build_truthful_tight(k=12, alpha=3, L=30),
        base_seed=5, trials=20, jobs=1, collect_lambda=True,
        check_rows=_check_wide,
    ),
}
