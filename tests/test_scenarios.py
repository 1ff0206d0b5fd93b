"""Scenario builders and the Monte Carlo trial harness."""

import dataclasses
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest

from helpers import reference_measure_rationality
from smra import (
    AdditiveValuation,
    Divergence,
    InvalidPartition,
    LocallyOptimalStrategy,
    Scenario,
    ScriptedStrategy,
    SecureProfitMaxStrategy,
    TableValuation,
    TargetPairValuation,
    TrialEvent,
    UniverseMismatch,
    aggregate_rows,
    build_builtin,
    degree_of_submodularity,
    derive_seed,
    is_alpha_near_submodular,
    load_scenario,
    read_rows_csv,
    read_trace_jsonl,
    replay_trace,
    run_auction,
    run_trials,
    scenario_from_spec,
    welfare,
)
from smra import scenarios
from smra.scenarios import (
    BUILTIN_SCENARIOS,
    build_bad_pair,
    build_local_tight,
    build_nonsecure_punishment,
    build_scripted_partition,
    build_superadditive,
    build_truthful_tight,
)


# ---------------------------------------------------------------------------
# Builders: shapes, frozen structure, validation


def test_bad_pair_shape():
    sc = build_bad_pair(100)
    assert (sc.name, sc.m, len(sc.valuations)) == ("bad_pair", 2, 2)
    assert [ev.name for ev in sc.events] == ["welfare_2"]
    assert sc.valuations[0].pair == 100
    # the exposure gap: singles worth 1, the pair worth M
    assert degree_of_submodularity(sc.valuations[0]).degree == Fraction(1, 99)
    assert degree_of_submodularity(build_bad_pair(2).valuations[0]).degree == 1


def test_truthful_tight_shape():
    sc = build_truthful_tight(4, 3, 60)
    assert (sc.name, sc.m, len(sc.valuations)) == ("truthful_tight", 4, 60)
    assert [ev.name for ev in sc.events] == ["distinct_winners"]
    v = sc.valuations[0]
    assert [v.value((1 << s) - 1) for s in range(5)] == [0, 1, 4, 7, 10]
    report = degree_of_submodularity(v)
    assert report.degree == Fraction(1, 3)
    assert report.alpha == Fraction(3)


def test_local_tight_shape():
    sc = build_local_tight(2, 2, 2, 3, 5)
    assert (sc.name, sc.m) == ("local_tight", 5)
    assert len(sc.valuations) == 2 + 4 * 5  # n clusters + L copies per block item
    assert [ev.name for ev in sc.events] == ["clusters_empty", "pairs_sweep"]
    cluster = sc.valuations[0]
    assert isinstance(cluster, TableValuation)
    assert cluster.value(0b00001) == 2  # alpha
    assert cluster.value(0b00011) == 6  # alpha^2 + alpha
    assert cluster.value(0b00100) == 0  # outside its block
    assert degree_of_submodularity(cluster).alpha == Fraction(2)
    pair = sc.valuations[2]
    assert isinstance(pair, TargetPairValuation)
    assert pair.value(1 << 0) == 1  # its block item
    assert pair.value(1 << 4) == 3  # the shared last item
    assert pair.value(0b10001) == 5
    assert degree_of_submodularity(pair).alpha == Fraction(2)


def test_local_tight_builds_fifteen_items():
    sc = build_local_tight(k=7, n=2)
    assert sc.m == 15
    assert len(sc.valuations[0].value_table()) == 1 << 15


def test_superadditive_shape():
    sc = build_superadditive(50)
    assert (sc.name, sc.m, len(sc.valuations)) == ("superadditive", 2, 3)
    assert [ev.name for ev in sc.events] == ["bundler_empty", "welfare_4"]
    bundler = sc.valuations[2]
    assert not is_alpha_near_submodular(bundler, 98)  # needs 2M - 1
    assert is_alpha_near_submodular(bundler, 99)


def test_scripted_partition_shape():
    sc = build_scripted_partition([{0}, {1, 2}])
    assert (sc.name, sc.m, len(sc.valuations)) == ("scripted_partition", 3, 2)
    assert sc.strategies[0] == ScriptedStrategy((0b001,))
    assert sc.valuations[1].value(0b110) == 2
    assert sc.valuations[1].value(0b001) == 0
    # raw masks work too, and unassigned low items just widen the universe
    gappy = build_scripted_partition([0b100])
    assert gappy.m == 3
    assert [s.script for s in gappy.strategies] == [(0b100,)]


def test_punishment_shape():
    sc = build_nonsecure_punishment()
    assert (sc.name, sc.m, len(sc.valuations)) == ("punishment", 3, 7)
    assert [ev.name for ev in sc.events] == ["scripted_overpays", "copies_no_loss"]
    assert sc.valuations[0].value(0b011) == 1
    assert sc.valuations[1].value(0b100) == 10


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_bad_pair(1),
        lambda: build_superadditive(1),
        lambda: build_truthful_tight(k=1),
        lambda: build_truthful_tight(4, 3, L=4),  # need L > k
        lambda: build_truthful_tight(4, 0, 60),
        lambda: build_truthful_tight(4, "3", 60),
        lambda: build_local_tight(alpha=2, H=2),  # need H > alpha
        lambda: build_local_tight(k=0),
        lambda: build_local_tight(k=10, n=2),  # 21 items: beyond TABLE_LIMIT
        # a bool is not taken for an integer
        lambda: build_truthful_tight(4, True, 60),
        lambda: build_local_tight(L=True),
        lambda: build_local_tight(k=True),
    ],
)
def test_builder_parameter_validation(build):
    with pytest.raises(ValueError):
        build()


def test_partition_validation():
    with pytest.raises(InvalidPartition):
        build_scripted_partition([{0}, {0, 1}])
    with pytest.raises(InvalidPartition):
        build_scripted_partition([set()])
    with pytest.raises(InvalidPartition):
        build_scripted_partition([])
    with pytest.raises(InvalidPartition):  # a bool is not the mask 0b1
        build_scripted_partition([True])
    with pytest.raises(InvalidPartition, match="names item 0 twice"):
        build_scripted_partition([[0, 0], [1]])
    with pytest.raises(InvalidPartition, match="item -1 is negative"):
        build_scripted_partition([[-1]])
    with pytest.raises(InvalidPartition, match="item must be an int, got 'x'"):
        build_scripted_partition([[0, "x"]])


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="empty", m=1, valuations=(), strategies=())
    one_item = (AdditiveValuation((1,)),)
    with pytest.raises(ValueError, match="m must be an int"):
        Scenario("bool", True, one_item, (ScriptedStrategy(()),))
    with pytest.raises(UniverseMismatch):
        Scenario("mixed", 2, one_item, (ScriptedStrategy(()),))


def test_scenario_fields_are_the_two_bidder_tuples():
    assert [f.name for f in dataclasses.fields(Scenario)] == [
        "name", "m", "valuations", "strategies", "events",
    ]
    sc = Scenario("lists", 1, [AdditiveValuation((1,))], [ScriptedStrategy(())])
    assert isinstance(sc.valuations, tuple) and isinstance(sc.strategies, tuple)
    with pytest.raises(ValueError, match="2 valuations but 1 strategies"):
        Scenario("short", 1, (AdditiveValuation((1,)),) * 2, (ScriptedStrategy(()),))
    with pytest.raises(ValueError, match="1 valuations but 3 strategies"):
        dataclasses.replace(sc, strategies=(ScriptedStrategy(()),) * 3)


def test_scenario_refuses_duplicate_event_names():
    # two events named "a" used to give CSV columns event_a,event_a and
    # one count in the summary
    events = (TrialEvent("a", lambda outcome, w: True),
              TrialEvent("a", lambda outcome, w: False))
    with pytest.raises(ValueError, match="scenario names event 'a' twice"):
        dataclasses.replace(build_bad_pair(10), events=events)


def test_builtin_lookup():
    assert set(BUILTIN_SCENARIOS) == {
        "bad_pair", "truthful_tight", "local_tight", "superadditive",
        "lemma4", "punishment",
    }
    assert build_builtin("bad_pair").valuations[0].pair == 100
    assert build_builtin("bad_pair", M=7).valuations[0].pair == 7
    # the lemma4 alias is the frozen-out-bundler instance under another name
    alias = build_builtin("lemma4", M=10)
    assert alias.name == "superadditive"
    assert alias.spec_dict() == build_builtin("superadditive", M=10).spec_dict()
    with pytest.raises(ValueError):
        build_builtin("nope")
    with pytest.raises(ValueError):
        build_builtin("bad_pair", Q=3)
    with pytest.raises(ValueError):
        build_builtin("punishment", M=3)


# ---------------------------------------------------------------------------
# Scenario JSON forms


def test_scenario_spec_round_trip():
    cases = [
        (build_superadditive(50), {}),
        (build_local_tight(1, 1, 2, 3, 1), {}),
        # older scenario files carry an epsilon_label, which is ignored
        (build_superadditive(50), {"epsilon_label": "1"}),
    ]
    for sc, legacy in cases:
        spec = {**sc.spec_dict(), **legacy}
        rebuilt = scenario_from_spec(json.loads(json.dumps(spec)))
        assert rebuilt.name == sc.name
        assert rebuilt.m == sc.m
        assert rebuilt.valuations == sc.valuations
        assert rebuilt.strategies == sc.strategies
        assert rebuilt.events == ()  # events never travel through JSON


# builtin -> sha256 of json.dumps of its default build's spec_dict(); the
# exact bytes a scenario file saved from it carries
BUILTIN_SPEC_DIGESTS = {
    "bad_pair": "794d2154be56535fb49023e64c2db21043799327e5ba61cc922e7528b341a0e6",
    "truthful_tight":
        "5f6c6b7219bc4ec80341f6501602ff5580a0c869f8dc2484b453fe197d39c421",
    "local_tight":
        "49b47ff5f7cbcad69e5c151da2c09d054990506b862f36387177971ebe8b6533",
    "superadditive":
        "89d5c7c5adc36e6f9c14046a7504d27392f4b5d041c08393403d1065d34d1a71",
    "lemma4": "89d5c7c5adc36e6f9c14046a7504d27392f4b5d041c08393403d1065d34d1a71",
    "punishment":
        "512f9541973f8d02d39641424e42ffa06f727094ba31536bade52455a2841ad0",
}


def test_builtin_scenario_specs_are_pinned():
    assert set(BUILTIN_SPEC_DIGESTS) == set(BUILTIN_SCENARIOS)
    for name, digest in BUILTIN_SPEC_DIGESTS.items():
        text = json.dumps(build_builtin(name).spec_dict())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name


def test_scenario_from_spec_validation():
    with pytest.raises(ValueError):
        scenario_from_spec({"name": "x", "m": 1})
    with pytest.raises(ValueError):
        scenario_from_spec({"name": "x", "m": 0, "bidders": []})
    with pytest.raises(ValueError):
        scenario_from_spec(
            {"name": "x", "m": 1, "bidders": [{"valuation": {"form": "additive", "weights": [1]}}]}
        )


def test_load_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(build_bad_pair(10).spec_dict()))
    sc = load_scenario(str(path))
    assert sc.name == "bad_pair"
    assert sc.valuations == build_bad_pair(10).valuations


def test_with_strategy_options():
    sc = build_local_tight(1, 1, 2, 3, 1)
    assert sc.with_strategy_options() is sc
    swapped = sc.with_strategy_options(local_start="empty")
    assert swapped.strategies == (LocallyOptimalStrategy("empty"),) * 2
    assert swapped.valuations is sc.valuations
    assert swapped.events is sc.events
    secure = build_superadditive(10).with_strategy_options(secure_variant="posted")
    assert secure.strategies == (SecureProfitMaxStrategy("posted"),) * 3
    # options only touch strategies of the matching kind
    untouched = build_bad_pair(10).with_strategy_options(local_start="empty")
    assert untouched.strategies == build_bad_pair(10).strategies


# ---------------------------------------------------------------------------
# Per-trial seeds


def test_derive_seed_is_frozen():
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(123, 5) == 12305648938738823696


def test_derive_seed_spreads():
    seeds = {derive_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(1, 0) != derive_seed(0, 0)


# ---------------------------------------------------------------------------
# The trial harness


def test_bad_pair_is_a_fair_coin():
    stats = run_trials(build_bad_pair(10), 10_000, seed=1, collect_lambda=False)
    agg = stats.aggregates()
    assert stats.optimal == 10
    assert sorted({r.welfare for r in stats.rows}) == [2, 10]
    assert agg["freq_welfare_2"] == pytest.approx(0.5005)
    assert 0.48 <= agg["freq_welfare_2"] <= 0.52
    assert all(r.lam is None for r in stats.rows)
    assert agg["max_lambda"] is None


def test_punishment_always_burns_the_overbidder():
    stats = run_trials(build_nonsecure_punishment(), 30, seed=0)
    agg = stats.aggregates()
    assert stats.optimal == 11
    assert {r.welfare for r in stats.rows} == {11}
    assert {r.rounds for r in stats.rows} == {10}
    assert agg["freq_scripted_overpays"] == 1.0
    assert agg["freq_copies_no_loss"] == 1.0
    assert agg["max_lambda"] == "2"  # the scripted bidder pays 2 for value 1
    assert agg["diverged"] == 0


def test_secured_overbidder_never_overpays():
    base = build_nonsecure_punishment()
    sc = dataclasses.replace(
        base, strategies=(SecureProfitMaxStrategy(),) + base.strategies[1:]
    )
    stats = run_trials(sc, 5, seed=0)
    assert stats.aggregates()["freq_scripted_overpays"] == 0.0
    assert stats.aggregates()["max_lambda"] == "1"


def test_scripted_partition_has_zero_variance():
    sc = build_scripted_partition([{0}, {1, 2}])
    stats = run_trials(sc, 50, seed=9)
    assert stats.optimal == 3
    distinct = {
        (r.rounds, r.welfare, r.ratio, r.lam, r.diverged, r.events)
        for r in stats.rows
    }
    assert distinct == {(1, 3, Fraction(1), Fraction(1), False, (True,))}
    assert stats.aggregates()["freq_matches_partition"] == 1.0


def test_local_tight_optimal_is_frozen():
    stats = run_trials(build_local_tight(), 3, seed=0)
    assert stats.optimal == 15


def test_rows_do_not_depend_on_jobs():
    sc = build_bad_pair(10)
    # an even split, an uneven split and more jobs than trials
    for trials, jobs in ((40, 2), (10, 3), (3, 8)):
        serial = run_trials(sc, trials, seed=3)
        parallel = run_trials(sc, trials, seed=3, jobs=jobs)
        assert serial.rows == parallel.rows
        assert [r.trial for r in serial.rows] == list(range(trials))
        assert [r.seed for r in serial.rows] == [
            derive_seed(3, i) for i in range(trials)
        ]


def test_importing_smra_loads_no_process_pool():
    # only a run with jobs > 1 imports the pool
    src = str(Path(scenarios.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import smra; "
             "print(sorted({'concurrent.futures', 'multiprocessing'}"
             " & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", probe, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_trial_traces_replay(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    stats = run_trials(build_bad_pair(10), 1, seed=7, trace_path=path)
    row = stats.rows[0]
    result = replay_trace(read_trace_jsonl(path))
    assert result.terminal
    assert result.rounds == row.rounds
    assert welfare(result.provisional, build_bad_pair(10).valuations) == row.welfare
    # the trace bytes depend neither on jobs nor on the lambda scan
    data = (tmp_path / "trace.jsonl").read_bytes()
    for name, options in (("jobs.jsonl", {"jobs": 2}),
                          ("plain.jsonl", {"collect_lambda": False})):
        other = tmp_path / name
        run_trials(build_bad_pair(10), 1, seed=7, trace_path=str(other), **options)
        assert other.read_bytes() == data


def test_diverged_rows_carry_the_lambda_of_their_partial_trace():
    sc = build_bad_pair(10)
    stats = run_trials(sc, 20, seed=3, max_rounds=5, collect_lambda=True)
    assert 0 < sum(row.diverged for row in stats.rows) < len(stats.rows)
    for row in stats.rows:
        try:
            outcome = run_auction(sc.valuations, sc.strategies, row.seed,
                                  max_rounds=5, record_trace=True)
        except Divergence as exc:
            outcome = exc.outcome
        assert outcome.diverged == row.diverged
        assert row.lam == reference_measure_rationality(
            outcome, sc.valuations).lam


def test_lambda_streams_without_recording_a_trace(monkeypatch, tmp_path):
    record_trace = []

    def recording(*args, **kwargs):
        record_trace.append(kwargs["record_trace"])
        return run_auction(*args, **kwargs)

    monkeypatch.setattr(scenarios, "run_auction", recording)
    stats = run_trials(build_bad_pair(10), 5, seed=3, collect_lambda=True)
    assert record_trace == [False] * 5
    assert all(row.lam is not None for row in stats.rows)
    run_trials(build_bad_pair(10), 1, seed=3,
               trace_path=str(tmp_path / "trace.jsonl"))
    assert record_trace[5:] == [True]


def test_run_trials_validates_arguments():
    sc = build_bad_pair(10)
    with pytest.raises(ValueError):
        run_trials(sc, 0)
    with pytest.raises(ValueError):
        run_trials(sc, 5, jobs=0)
    with pytest.raises(ValueError):
        run_trials(sc, 5, trace_path="anywhere.jsonl")


def test_run_trials_refuses_non_integer_counts_before_the_oracle(monkeypatch):
    oracle_calls = []
    monkeypatch.setattr(scenarios, "optimal_welfare",
                        lambda valuations: oracle_calls.append(valuations))
    sc = build_bad_pair(10)
    for bad in (True, False, 2.5, "3", 0, -1):
        with pytest.raises(ValueError):
            run_trials(sc, bad)
        with pytest.raises(ValueError):
            run_trials(sc, 3, jobs=bad)
    assert oracle_calls == []


def test_run_trials_refuses_a_bad_subset_cap_or_seed_before_the_oracle(
        monkeypatch):
    sc = build_bad_pair(10)
    # the edges that stay legal: a cap of 0 and a negative seed
    assert len(run_trials(sc, 2, seed=-5, subset_cap=0).rows) == 2
    oracle_calls = []
    monkeypatch.setattr(scenarios, "optimal_welfare",
                        lambda valuations: oracle_calls.append(valuations))
    for bad in (True, False, -1, 2.5, "3", None):
        with pytest.raises(ValueError, match="subset_cap"):
            run_trials(sc, 3, subset_cap=bad)
    for bad in (True, False, 2.5, "3", None):
        with pytest.raises(ValueError, match="seed"):
            run_trials(sc, 3, seed=bad)
    assert oracle_calls == []


def test_run_trials_refuses_a_bad_max_rounds_before_the_oracle(monkeypatch):
    sc = build_bad_pair(10)
    # a budget of 0 stays legal: every trial diverges at round 0
    assert all(row.diverged for row in run_trials(sc, 2, max_rounds=0).rows)
    oracle_calls = []
    monkeypatch.setattr(scenarios, "optimal_welfare",
                        lambda valuations: oracle_calls.append(valuations))
    for bad in (True, False, -1, 2.5, "3"):
        with pytest.raises(ValueError, match="max_rounds"):
            run_trials(sc, 3, max_rounds=bad)
    assert oracle_calls == []


def test_summary_dict_shape():
    stats = run_trials(build_bad_pair(10), 20, seed=2)
    summary = stats.summary_dict()
    assert summary["scenario"] == "bad_pair"
    assert summary["m"] == 2
    assert summary["seed"] == 2
    assert summary["optimal"] == 10
    assert summary["trials"] == 20
    assert summary["welfare_sum"] == sum(r.welfare for r in stats.rows)
    assert summary["events"]["welfare_2"] == sum(r.events[0] for r in stats.rows)
    assert 0.0 <= summary["freq_welfare_2"] <= 1.0
    assert json.dumps(summary)  # JSON-serializable as printed by the CLI


# ---------------------------------------------------------------------------
# CSV round trips


def _worthless_scenario():
    # a bidder scripted to win an item she values at zero: lambda blows up
    return Scenario(
        name="worthless",
        m=1,
        valuations=(TableValuation((0, 0)),),
        strategies=(ScriptedStrategy((0b1,)),),
    )


def test_csv_round_trip_is_exact():
    stats = run_trials(build_nonsecure_punishment(), 10, seed=4)
    buf = io.StringIO()
    stats.to_csv(buf)
    buf.seek(0)
    event_names, rows = read_rows_csv(buf)
    assert event_names == stats.event_names
    assert tuple(rows) == stats.rows
    assert aggregate_rows(rows, event_names) == stats.aggregates()


def test_csv_encodes_infinite_lambda():
    stats = run_trials(_worthless_scenario(), 3, seed=5)
    assert all(r.lam == inf for r in stats.rows)
    assert all(r.ratio == Fraction(1) for r in stats.rows)  # optimum is zero
    assert stats.aggregates()["max_lambda"] == "inf"
    buf = io.StringIO()
    stats.to_csv(buf)
    assert ",inf,1," in buf.getvalue()
    buf.seek(0)
    _, rows = read_rows_csv(buf)
    assert tuple(rows) == stats.rows


def test_csv_encodes_missing_lambda():
    stats = run_trials(build_bad_pair(10), 5, seed=6, collect_lambda=False)
    buf = io.StringIO()
    stats.to_csv(buf)
    buf.seek(0)
    _, rows = read_rows_csv(buf)
    assert tuple(rows) == stats.rows
    assert all(r.lam is None for r in rows)


def test_csv_file_round_trip(tmp_path):
    stats = run_trials(build_bad_pair(10), 5, seed=6)
    path = str(tmp_path / "rows.csv")
    stats.to_csv(path)
    event_names, rows = read_rows_csv(path)
    assert tuple(rows) == stats.rows
    assert event_names == ("welfare_2",)


def _with_cell(row: str, index: int, edit) -> str:
    cells = row.split(",")
    cells[index] = edit(cells[index])
    return ",".join(cells)


@pytest.mark.parametrize("edit", [
    lambda row: row[:-2],  # one event flag short
    lambda row: row + ",0",  # one event flag too many
    lambda row: row[:-3] + "7" + row[-2:],  # diverged is not a flag
    lambda row: row[:-1] + "2",  # an event flag that is not 0 or 1
    lambda row: row[:-1],  # an empty event flag
    # integer cells take only what to_csv writes, not all that int() takes
    lambda row: _with_cell(row, 0, lambda c: "0_0"),
    lambda row: _with_cell(row, 1, lambda c: c[0] + "_" + c[1:]),
    lambda row: _with_cell(row, 2, lambda c: " " + c),
    lambda row: _with_cell(row, 3, lambda c: "+" + c),
    lambda row: _with_cell(row, 4, lambda c: "١٠"),  # Arabic 10
    lambda row: _with_cell(row, 7, lambda c: c + " "),
    lambda row: _with_cell(_with_cell(row, 7, lambda c: "inf"), 8, lambda c: "2"),
    lambda row: _with_cell(row, 7, lambda c: ""),
    # every integer column is >= 0, so to_csv never writes a sign
    lambda row: _with_cell(row, 2, lambda c: "-5"),
    lambda row: _with_cell(row, 0, lambda c: "-0"),
    lambda row: _with_cell(row, 7, lambda c: "-" + c),
    # to_csv writes every denominator positive
    lambda row: _with_cell(row, 6, lambda c: "0"),
    lambda row: _with_cell(row, 6, lambda c: "-" + c),
    lambda row: _with_cell(row, 8, lambda c: "0"),
    lambda row: _with_cell(row, 8, lambda c: "-" + c),
], ids=["short", "wide", "diverged_7", "event_2", "event_empty",
        "trial_0_0", "seed_underscore", "rounds_space", "welfare_plus",
        "optimal_arabic", "lambda_num_space",
        "lambda_inf_over_2", "lambda_num_empty",
        "rounds_negative", "trial_minus_zero", "lambda_num_negative",
        "ratio_den_0", "ratio_den_negative", "lambda_den_0",
        "lambda_den_negative"])
def test_read_rows_rejects_malformed_rows(edit):
    buf = io.StringIO(newline="")
    run_trials(build_bad_pair(10), 3, seed=6).to_csv(buf)
    header, first, *rest = buf.getvalue().splitlines()
    assert first.endswith(",0,1") or first.endswith(",0,0")
    text = "\n".join([header, edit(first), *rest]) + "\n"
    with pytest.raises(ValueError):
        read_rows_csv(io.StringIO(text, newline=""))


def test_read_rows_rejects_foreign_headers():
    with pytest.raises(ValueError):
        read_rows_csv(io.StringIO("a,b,c\n1,2,3\n"))
    with pytest.raises(ValueError):
        read_rows_csv(io.StringIO(""))
    # a trailing column must be an event column: `bogus` is not `event_`
    buf = io.StringIO(newline="")
    run_trials(build_bad_pair(10), 3, seed=6).to_csv(buf)
    text = buf.getvalue()
    assert read_rows_csv(io.StringIO(text, newline=""))[0] == ("welfare_2",)
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_rows_csv(io.StringIO(text.replace("event_welfare_2", "bogus"),
                                  newline=""))
