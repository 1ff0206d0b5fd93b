"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints `criterion N: PASS/FAIL — detail` on the terminal (bypassing
capture) and then asserts, so a plain `pytest -v` run shows the scoreboard.
Criteria 2, 4, and 6 draw fresh random near-submodular instances from fixed
master seeds; everything else is fully pinned. All value/bound checks use
exact integer or rational arithmetic; only event frequencies are floats.
"""

import random
import time
from fractions import Fraction

from helpers import naive_optimal, random_instance
from smra import (
    LocallyOptimalStrategy,
    SecureProfitMaxStrategy,
    TruthfulStrategy,
    derive_seed,
    measure_rationality,
    optimal_welfare,
    random_near_submodular,
    run_auction,
    run_trials,
    welfare,
)
from smra.cli import main as cli_main
from smra.scenarios import (
    build_bad_pair,
    build_local_tight,
    build_scripted_partition,
    build_superadditive,
    build_truthful_tight,
)


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def bound_suite(master_seed, strategy_factory, bound, lam_cap, instances=500):
    """Check welfare and rationality bounds over random instances.

    bound(alpha, achieved, m) gives the allowed ceiling for the optimum;
    lam_cap(alpha) the per-round λ ceiling. Returns (ok, detail)."""
    worst = None
    for i in range(instances):
        alpha, valuations = random_instance(master_seed, i)
        m = valuations[0].universe_size
        strategies = tuple(strategy_factory() for _ in valuations)
        outcome = run_auction(
            valuations, strategies, seed=derive_seed(master_seed + 1, i)
        )
        achieved = welfare(outcome.allocation, valuations)
        optimal = optimal_welfare(valuations).welfare
        ceiling = bound(alpha, achieved, m)
        if optimal > ceiling:
            return False, (
                f"instance {i}: optimal {optimal} > bound {ceiling} "
                f"(alpha={alpha}, welfare={achieved}, m={m})"
            )
        lam = measure_rationality(outcome, valuations).lam
        if lam > lam_cap(alpha):
            return False, f"instance {i}: lambda {lam} > {lam_cap(alpha)}"
        gap = Fraction(optimal, ceiling) if ceiling else Fraction(0)
        if worst is None or gap > worst:
            worst = gap
    return True, f"{instances} instances, tightest optimal/bound = {float(worst):.3f}"


def test_criterion_01_exposure_coin_flip(capsys):
    t0 = time.perf_counter()
    stats = run_trials(
        build_bad_pair(100), 10_000, seed=123, collect_lambda=False
    )
    elapsed = time.perf_counter() - t0
    freq = stats.aggregates()["freq_welfare_2"]
    others_ok = all(r.welfare == 100 for r in stats.rows if r.welfare != 2)
    ok = 0.48 <= freq <= 0.52 and others_ok and elapsed < 5.0
    report(
        capsys, 1, ok,
        f"P(welfare=2)={freq:.4f} in [0.48,0.52], "
        f"others all 100: {others_ok}, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_02_truthful_welfare_bound(capsys):
    t0 = time.perf_counter()
    ok, detail = bound_suite(
        2001,
        TruthfulStrategy,
        bound=lambda alpha, w, m: (1 + alpha) * w + m,
        lam_cap=lambda alpha: alpha,
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(
        capsys, 2, ok,
        f"optimal <= (1+a)*welfare + m and lambda <= a: {detail}, "
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_03_truthful_tightness(capsys):
    t0 = time.perf_counter()
    sc = build_truthful_tight(4, 3, 60)
    valuations, strategies = sc.valuations, sc.strategies
    trials = 2000
    distinct = 0
    failures = []
    for i in range(trials):
        outcome = run_auction(
            valuations, strategies, seed=derive_seed(31, i)
        )
        sizes = [a.bit_count() for a in outcome.allocation]
        if max(sizes) > 1 or sum(sizes) != 4:
            continue
        distinct += 1
        achieved = welfare(outcome.allocation, valuations)
        rationality = measure_rationality(outcome, valuations)
        per_item_price = outcome.prices[0]
        if not (
            achieved == 4
            and Fraction(achieved, 10) == Fraction(2, 5)
            and rationality.lam_full == Fraction(per_item_price, 1)
            and rationality.lam <= 3
        ):
            failures.append(i)
    elapsed = time.perf_counter() - t0
    freq = Fraction(distinct, trials)
    floor = Fraction(56, 59) ** 4 - Fraction(3, 100)
    ok = freq >= floor and not failures and elapsed < 30.0
    report(
        capsys, 3, ok,
        f"distinct-winner freq {float(freq):.4f} >= {float(floor):.4f}, "
        f"conditional welfare 4 (ratio 2/5) with lambda_full = price/1 "
        f"on all {distinct} hits ({len(failures)} violations), "
        f"runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_04_local_search_welfare_bound(capsys):
    ok, detail = bound_suite(
        2004,
        LocallyOptimalStrategy,
        bound=lambda alpha, w, m: (1 + alpha * alpha) * w + alpha * m,
        lam_cap=lambda alpha: alpha,
    )
    report(
        capsys, 4, ok,
        f"optimal <= (1+a^2)*welfare + a*m and lambda <= a: {detail}",
    )


def test_criterion_05_local_search_tightness(capsys):
    stats = run_trials(
        build_local_tight(2, 2, 2, 3, 5), 500, seed=55, collect_lambda=False
    )
    agg = stats.aggregates()
    clusters_always_empty = agg["freq_clusters_empty"] == 1.0
    sweep_freq = agg["freq_pairs_sweep"]
    ok = clusters_always_empty and sweep_freq >= 0.9
    report(
        capsys, 5, ok,
        f"cluster bidders empty in all trials: {clusters_always_empty} "
        f"(freq {agg['freq_clusters_empty']:.3f}), "
        f"pair-bidder sweep freq {sweep_freq:.3f} (need >= 0.9)",
    )


def test_criterion_06_secure_welfare_bound(capsys):
    ok, detail = bound_suite(
        2006,
        SecureProfitMaxStrategy,
        bound=lambda alpha, w, m: (1 + alpha) * w,
        lam_cap=lambda alpha: 1,
    )
    report(
        capsys, 6, ok,
        f"optimal <= (1+a)*welfare exactly and lambda <= 1: {detail}",
    )


def test_criterion_07_frozen_out_bundler(capsys):
    ratios = {}
    problems = []
    for M, trials in ((50, 100), (500, 20)):
        stats = run_trials(build_superadditive(M), trials, seed=77)
        for r in stats.rows:
            if r.welfare != 4 or r.ratio != Fraction(4, 2 * M):
                problems.append((M, r.trial))
        agg = stats.aggregates()
        if agg["freq_bundler_empty"] != 1.0:
            problems.append((M, "bundler held items"))
        ratios[M] = Fraction(4, 2 * M)
    linear = ratios[50] / ratios[500] == Fraction(500, 50)
    ok = not problems and ratios[50] == Fraction(1, 25) and linear
    report(
        capsys, 7, ok,
        f"bundler always empty, welfare 4, ratio {ratios[50]} at M=50 and "
        f"{ratios[500]} at M=500 (linear in M): {not problems}",
    )


def test_criterion_08_scripted_partitions(capsys):
    rng = random.Random(88)
    problems = []
    for case in range(50):
        m = rng.randint(1, 8)
        parts_count = rng.randint(1, min(4, m))
        owners = [item + 1 for item in range(parts_count)]  # parts nonempty
        owners += [rng.randrange(parts_count + 1) for _ in range(parts_count, m)]
        parts = [0] * parts_count
        for item, owner in enumerate(owners):
            if owner:
                parts[owner - 1] |= 1 << item
        sc = build_scripted_partition(parts)
        outcome = run_auction(sc.valuations, sc.strategies, seed=case)
        assigned = 0
        for mask in parts:
            assigned |= mask
        want_prices = tuple(
            1 if (assigned >> j) & 1 else 0 for j in range(sc.m)
        )
        if not (
            outcome.allocation == tuple(parts)
            and outcome.rounds == 1
            and outcome.prices == want_prices
            and sc.events[0].check(outcome, 0)
        ):
            problems.append(case)
    ok = not problems
    report(
        capsys, 8, ok,
        f"50 random partitions reproduced in one round at price 1 per "
        f"assigned item ({len(problems)} violations)",
    )


def test_criterion_09_oracle_equivalence(capsys):
    corpus = [
        build_bad_pair(10).valuations,
        build_superadditive(50).valuations,
        build_local_tight(1, 1, 2, 3, 1).valuations,
        build_truthful_tight(2, 2, 3).valuations,
        build_scripted_partition([{0}, {1, 2}]).valuations,
    ]
    for i in range(20):
        rng = random.Random(derive_seed(99, i))
        m = rng.randint(1, 4)
        n = rng.randint(1, 3)
        alpha = rng.choice([1, 2, 3])
        corpus.append(
            tuple(
                random_near_submodular(m, alpha, rng.randint(5, 30),
                                       rng.randrange(2**32))
                for _ in range(n)
            )
        )
    mismatches = [
        i for i, vals in enumerate(corpus)
        if optimal_welfare(vals).welfare != naive_optimal(vals)
    ]
    ok = not mismatches
    report(
        capsys, 9, ok,
        f"exact DP equals naive enumeration on all {len(corpus)} instances "
        f"(m <= 4, n <= 3); mismatches: {mismatches}",
    )


def test_criterion_10_byte_identical_csv(capsys, tmp_path):
    runs = {
        "bad_pair": ["run", "--builtin", "bad_pair", "--M", "10",
                     "--trials", "200", "--seed", "42"],
        "superadditive": ["run", "--builtin", "superadditive",
                          "--trials", "50", "--seed", "7"],
    }
    ok = True
    notes = []
    for name, args in runs.items():
        out_a = tmp_path / f"{name}_a.csv"
        out_b = tmp_path / f"{name}_b.csv"
        out_j = tmp_path / f"{name}_jobs.csv"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        assert cli_main(args + ["--jobs", "2", "--out", str(out_j)]) == 0
        same = out_a.read_bytes() == out_b.read_bytes()
        same_jobs = out_a.read_bytes() == out_j.read_bytes()
        ok = ok and same and same_jobs
        notes.append(f"{name}: repeat {same}, jobs=2 {same_jobs}")
    capsys.readouterr()  # swallow the CLI summaries
    report(capsys, 10, ok, "; ".join(notes))
