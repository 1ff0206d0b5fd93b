"""Tests of the benchmark itself, on tiny workload sizes.

    python3 -m pytest perfbench/tests -q

They are outside the package's test suite (`tests/`), so they do not add
to its run time.
"""

import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "coinflip": 2_000,
    "crowd": 40,
    "random_suites": 4,
    "wide_m": 2,
}


def tiny(name: str):
    return dataclasses.replace(workloads.WORKLOADS[name], trials=TINY[name])


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", {n: tiny(n) for n in TINY})
    monkeypatch.setattr(workloads, "recorded_digests", lambda: {})


def contract():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_its_unit(tiny_workloads, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = contract()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in lines)


def test_end_to_end_metrics_are_never_zero(tiny_workloads, capsys):
    run.main(["--workload", "crowd", "--seed", "4", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_scaled_to_the_reference_speed(tiny_workloads, capsys):
    run.main(["--workload", "wide_m", "--seed", "2", "--seconds", "0"])
    lines = capsys.readouterr().out.splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    for p in detail["passes"]:
        assert p["ref_s"] > 0
    p = detail["passes"][0]
    assert run.at_reference_speed(p["wall_s"], p["ref_s"]) == pytest.approx(
        p["wall_s"] * run.REF_SECONDS / p["ref_s"])
    scaled = sorted(run.at_reference_speed(p["wall_s"], p["ref_s"])
                    for p in detail["passes"])
    trials = tiny("wide_m").auctions
    assert result["metrics"]["trials_per_ref_s"]["value"] == pytest.approx(
        trials / scaled[len(scaled) // 2])
    assert detail["metrics"]["trials_per_s"] > 0


def test_speed_sampler_times_the_loop_inside_a_pass_and_restores_sigalrm():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        end = perf_counter() + 3 * run.SAMPLE_INTERVAL
        while perf_counter() < end:
            pass
    assert len(sampler.ref_s) >= 2
    assert all(r > 0 for r in sampler.ref_s)
    assert 0 < sampler.wall_s < 3 * run.SAMPLE_INTERVAL
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_in_process_passes_are_sampled_and_pooled_ones_are_not(
        tiny_workloads, capsys):
    for name, sampled in (("coinflip", True), ("crowd", False)):
        run.main(["--workload", name, "--seed", "5", "--seconds", "0"])
        detail = json.loads(capsys.readouterr().out.splitlines()[-2])
        for p in detail["passes"]:
            assert (p["ref_samples"] > 2) == sampled
            assert (p["sampler_s"] > 0) == sampled


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_replay_reproduces_the_harness_rows(name):
    workload = tiny(name)
    state = workload.setup()
    expected = workload.harness(state, 17)
    tracer, _, out, failed, _, _ = run.traced_pass(workload, 17)
    assert not failed
    assert workload.rows(out) == workload.rows(expected)
    assert workload.to_csv(out) == workload.to_csv(expected)

    spans = list(tracer.spans())
    names = {span: name_ for _, span, _, name_, _, _ in spans}
    for _trial, _span, parent, name_, _start, _end in spans:
        if name_.startswith(tracing.PROPOSE):
            assert names[parent] == "mechanism.run_auction"
    layers = tracing.layer_metrics(tracer, 1.0)
    assert layers["mechanism.auctions"] == workload.auctions
    assert 0 <= layers["strategies.repeat_ratio"] < 1


def test_repeat_ratio_counts_distinct_decisions():
    # bad_pair: both bidders share one valuation, so decisions repeat
    tracer, *_ = run.traced_pass(tiny("coinflip"), 123)
    assert tracer.decisions and len(tracer.decisions) < 400
    # fresh random valuations every instance: nothing repeats
    tracer, *_ = run.traced_pass(tiny("random_suites"), 2001)
    calls = tracing.layer_metrics(tracer, 1.0)["strategies.propose_calls"]
    assert len(tracer.decisions) == calls


def _corrupt(csv_text: str, row: int, column: str, value: str) -> str:
    lines = csv_text.splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    cells = lines[row + 1].rstrip("\r\n").split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells) + "\r\n"
    return "".join(lines)


@pytest.mark.parametrize("name, column, value", [
    ("coinflip", "welfare", "3"),
    ("crowd", "welfare", "5"),
    ("random_suites", "optimal", "100000"),
    ("wide_m", "diverged", "1"),
])
def test_a_corrupted_csv_is_caught(name, column, value):
    # coinflip's [0.48, 0.52] window is meant for its full 10,000 trials
    workload = workloads.WORKLOADS[name] if name == "coinflip" else tiny(name)
    csv_text = workload.to_csv(workload.harness(workload.setup(), 123))
    assert workload.check(csv_text) == set()
    row = 0
    if name == "crowd":  # a distinct-winner hit, where welfare must be 4
        _, rows = workloads.read_rows_csv(io.StringIO(csv_text, newline=""))
        row = next(r.trial for r in rows if r.events[0])
    assert workload.check(_corrupt(csv_text, row, column, value))
    assert workload.check(csv_text[:-40])


def test_a_wrong_digest_fails_the_whole_pass():
    workload = tiny("wide_m")
    state = workload.setup()
    good = workloads.sha256(workload.to_csv(workload.harness(state, 9)))
    ok = run.measure_pass(workload, state, 9, recheck=True, digest=good)
    assert ok["failed"] == 0
    bad = run.measure_pass(workload, state, 9, recheck=False, digest="0" * 64)
    assert bad["failed"] == workload.auctions


def test_crowd_outcome_recheck_flags_a_bad_price():
    workload = tiny("crowd")
    state = workload.setup()
    assert workload.replay(state, 31)[1] == set()
    broken = dataclasses.replace(workload, outcome_ok=lambda *_: False)
    assert broken.replay(state, 31)[1]
    ok = run.measure_pass(broken, state, 31, recheck=False, digest=None)
    assert ok["failed"] == 0
    bad = run.measure_pass(broken, state, 31, recheck=True, digest=None)
    assert bad["failed"] > 0


def test_recorded_digests_cover_every_workload():
    digests = workloads.recorded_digests()
    assert set(digests) == set(workloads.WORKLOADS)
    assert all(len(d) == 64 for d in digests.values())


def test_pass_seeds():
    assert workloads.pass_seed(123, 0, 0) == 123
    seeds = {workloads.pass_seed(123, master, i)
             for master in range(3) for i in range(3)}
    assert len(seeds) == 9
    assert workloads.pass_seed(5, 7, 2) == workloads.pass_seed(5, 7, 2)


def test_without_the_package_the_run_fails_quietly(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "coinflip", "--seed", "0"]) != 0
    assert capsys.readouterr().out == ""
