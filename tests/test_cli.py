"""Command-line interface: commands, determinism, and exit codes."""

import json
from fractions import Fraction

import pytest

from helpers import MALFORMED_LINES, MALFORMED_SCENARIOS
from smra import read_rows_csv, aggregate_rows
from smra.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# run


def test_run_summary(capsys):
    summary = run_json(
        capsys, "run", "--builtin", "bad_pair", "--M", "10",
        "--trials", "2000", "--seed", "1",
    )
    assert summary["scenario"] == "bad_pair"
    assert summary["optimal"] == 10
    assert summary["trials"] == 2000
    assert 0.45 <= summary["freq_welfare_2"] <= 0.55
    assert summary["max_lambda"] is not None


def test_run_csv_is_reproducible(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ("run", "--builtin", "bad_pair", "--M", "10",
            "--trials", "50", "--seed", "3", "--out")
    summary_a = run_json(capsys, *args, str(first))
    summary_b = run_json(capsys, *args, str(second))
    assert summary_a == summary_b
    assert first.read_bytes() == second.read_bytes()
    # the CSV carries everything the printed aggregates claim
    event_names, rows = read_rows_csv(str(first))
    recomputed = aggregate_rows(rows, event_names)
    for key, value in recomputed.items():
        assert summary_a[key] == value


def test_run_jobs_do_not_change_output(capsys, tmp_path):
    base = ("run", "--builtin", "punishment", "--trials", "8", "--seed", "2")
    code, serial, _ = run_cli(capsys, *base, "--jobs", "1")
    assert code == 0
    code, parallel, _ = run_cli(capsys, *base, "--jobs", "2")
    assert code == 0
    assert serial == parallel


def test_run_builtin_alias_with_params(capsys, tmp_path):
    out = tmp_path / "alias.csv"
    summary = run_json(
        capsys, "run", "--builtin", "lemma4", "--trials", "20",
        "--seed", "0", "--out", str(out),
    )
    assert summary["scenario"] == "superadditive"
    assert summary["freq_bundler_empty"] == 1.0
    assert summary["freq_welfare_4"] == 1.0
    _, rows = read_rows_csv(str(out))
    assert all(r.ratio == Fraction(1, 25) for r in rows)
    assert all(r.lam <= 1 for r in rows)


def test_run_writes_a_verifiable_trace(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    run_json(
        capsys, "run", "--builtin", "bad_pair", "--trials", "1",
        "--seed", "5", "--trace", str(trace),
    )
    replayed = run_json(capsys, "replay", str(trace))
    assert replayed["terminal"] is True
    assert replayed["rounds"] >= 1
    assert len(replayed["prices"]) == 2


def test_run_strategy_option_flags(capsys):
    summary = run_json(
        capsys, "run", "--builtin", "local_tight", "--trials", "2",
        "--local-start", "empty",
    )
    assert summary["trials"] == 2
    summary = run_json(
        capsys, "run", "--builtin", "punishment", "--trials", "2",
        "--secure-variant", "posted",
    )
    assert summary["trials"] == 2


def test_posted_variant_exposes_the_pair_bidder(capsys):
    # without the one-increment safety margin the pair bidder overshoots
    # into a provably insecure holding, which is a runtime invariant trip
    code, _, err = run_cli(
        capsys, "run", "--builtin", "superadditive", "--trials", "1",
        "--seed", "1", "--secure-variant", "posted",
    )
    assert code == 4
    assert "insecure" in err


def test_run_scenario_file(capsys, tmp_path):
    from smra.scenarios import build_bad_pair

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(build_bad_pair(10).spec_dict()))
    summary = run_json(
        capsys, "run", "--scenario", str(path), "--trials", "10", "--seed", "1"
    )
    assert summary["scenario"] == "bad_pair"
    assert summary["optimal"] == 10
    # builder parameters make no sense for a file-defined scenario
    code, _, err = run_cli(
        capsys, "run", "--scenario", str(path), "--M", "5"
    )
    assert code == 2
    assert "--M" in err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_output(capsys):
    result = run_json(capsys, "oracle", "--builtin", "truthful_tight")
    assert result["scenario"] == "truthful_tight"
    assert result["welfare"] == 10
    winners = [items for items in result["assignment"] if items]
    assert winners == [[0, 1, 2, 3]]
    result = run_json(capsys, "oracle", "--builtin", "bad_pair", "--M", "10")
    assert result["welfare"] == 10


def test_oracle_budget_exit_code(capsys, tmp_path):
    spec = {
        "name": "big",
        "m": 17,
        "bidders": [
            {
                "valuation": {"form": "additive", "weights": [1] * 17},
                "strategy": {"kind": "truthful"},
            }
        ],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "oracle", "--scenario", str(path))
    assert code == 3
    assert "error" in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_inline_json(capsys):
    report = run_json(
        capsys, "analyze", "--json",
        '{"form": "symmetric_step", "m": 4, "alpha_num": 3, "alpha_den": 1}',
    )
    assert report == {
        "universe_size": 4,
        "degree": "1/3",
        "alpha": "3",
        "witness": {"item": 0, "small": [], "large": [1]},
    }
    report = run_json(
        capsys, "analyze", "--json",
        '{"form": "pair_bonus", "m": 2, "unit": 1, "pair": 100}',
    )
    assert report["degree"] == "1/99"
    assert report["alpha"] == "99"
    report = run_json(
        capsys, "analyze", "--json", '{"form": "additive", "weights": [1, 2]}'
    )
    assert report["degree"] == "1"
    assert report["alpha"] == "1"
    assert report["witness"] is not None


def test_analyze_file(capsys, tmp_path):
    path = tmp_path / "valuation.json"
    path.write_text('{"form": "table", "values": [0, 1, 1, 10]}')
    report = run_json(capsys, "analyze", str(path))
    assert report["universe_size"] == 2
    assert report["degree"] == "1/9"


def test_analyze_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2
    path = tmp_path / "valuation.json"
    path.write_text('{"form": "additive", "weights": [1]}')
    code, _, _ = run_cli(
        capsys, "analyze", str(path), "--json", '{"form": "additive", "weights": [1]}'
    )
    assert code == 2


def test_analyze_rejects_bad_valuations(capsys):
    # non-monotone table: dropping from 2 to 1 when an item is added
    code, _, err = run_cli(
        capsys, "analyze", "--json", '{"form": "table", "values": [0, 2, 1, 1]}'
    )
    assert code == 2
    # unknown form
    code, _, _ = run_cli(capsys, "analyze", "--json", '{"form": "wat"}')
    assert code == 2
    # malformed JSON text
    code, _, _ = run_cli(capsys, "analyze", "--json", "{nope")
    assert code == 2
    # weights that are not a list
    code, _, _ = run_cli(
        capsys, "analyze", "--json", '{"form": "additive", "weights": 5}'
    )
    assert code == 2
    # a universe size that is not an integer
    code, _, _ = run_cli(
        capsys, "analyze", "--json",
        '{"form": "pair_bonus", "m": 2.5, "unit": 1, "pair": 3}',
    )
    assert code == 2


# ---------------------------------------------------------------------------
# replay


def test_replay_rejects_tampering(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    run_json(
        capsys, "run", "--builtin", "bad_pair", "--trials", "1",
        "--seed", "5", "--trace", str(trace),
    )
    lines = trace.read_text().splitlines()
    record = json.loads(lines[0])
    record["prices_after"] = [99, 99]
    lines[0] = json.dumps(record)
    trace.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "replay", str(trace))
    assert code == 4
    assert "error" in err


@pytest.mark.parametrize(
    "line", MALFORMED_LINES, ids=range(len(MALFORMED_LINES))
)
def test_replay_rejects_malformed_trace_lines(capsys, tmp_path, line):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(line + "\n")
    code, _, err = run_cli(capsys, "replay", str(trace))
    assert code == 4
    assert "trace line 0" in err


def test_replay_rejects_a_trace_that_is_not_utf8(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    trace.write_bytes(b'{"t": 0, "bids": ["\xff"]}\n')
    code, _, err = run_cli(capsys, "replay", str(trace))
    assert code == 4
    assert "not UTF-8" in err


# deeper than the JSON parser's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command, code", [
    ("replay", 4), ("run", 2), ("analyze", 2), ("analyze --json", 2),
])
def test_deeply_nested_json_exits_with_a_documented_code(
        capsys, tmp_path, command, code):
    path = tmp_path / "input.json"
    path.write_text(DEEP_JSON + "\n")
    argv = {
        "replay": ["replay", str(path)],
        "run": ["run", "--scenario", str(path)],
        "analyze": ["analyze", str(path)],
        "analyze --json": ["analyze", "--json", DEEP_JSON],
    }[command]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert "nested too deeply" in err or "recursion depth" in err


def test_replay_missing_file(capsys):
    code, _, _ = run_cli(capsys, "replay", "/nonexistent/trace.jsonl")
    assert code == 2


# ---------------------------------------------------------------------------
# Exit codes and argument validation


def test_unknown_builder_parameter_is_rejected(capsys):
    code, _, err = run_cli(
        capsys, "run", "--builtin", "punishment", "--M", "3", "--trials", "1"
    )
    assert code == 2
    assert "error" in err


def test_trace_requires_a_single_trial(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--builtin", "bad_pair", "--trials", "3",
        "--trace", str(tmp_path / "t.jsonl"),
    )
    assert code == 2


def test_negative_round_budget_is_rejected(capsys):
    code, out, err = run_cli(
        capsys, "run", "--builtin", "bad_pair", "--trials", "3",
        "--max-rounds", "-5",
    )
    assert code == 2
    assert out == "" and "max_rounds" in err


def test_a_bad_round_budget_is_refused_before_the_oracle_budget(capsys):
    # local_tight at n = 6 is over the oracle budget (exit 3), and the
    # round budget is checked first
    code, out, err = run_cli(
        capsys, "run", "--builtin", "local_tight", "--n", "6",
        "--max-rounds", "-1",
    )
    assert code == 2
    assert out == "" and "max_rounds" in err


def test_missing_scenario_file(capsys):
    code, _, _ = run_cli(capsys, "run", "--scenario", "/nonexistent.json")
    assert code == 2


@pytest.mark.parametrize(
    "spec", MALFORMED_SCENARIOS, ids=range(len(MALFORMED_SCENARIOS))
)
def test_run_rejects_malformed_scenario_files(capsys, tmp_path, spec):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(capsys, "run", "--scenario", str(path))
    assert code == 2
    assert "error" in err


def test_unknown_builtin_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--builtin", "nope"])
    assert exc_info.value.code == 2


def test_scenario_source_is_required(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--trials", "1"])
    assert exc_info.value.code == 2
