"""Golden outputs: sha256 digests of CSV, JSONL and oracle JSON bytes.

A change to how bids are priced, settled, drawn or written that moves a
single byte of these outputs fails here. The 15-item auction prices its
bids from 2**15-entry bundle tables, above every builtin's universe. The
`smra oracle` output carries the optimal assignment, so a change to the
winner-determination DP that picks a different (equally good) assignment
fails here too.
"""

import hashlib
import io

import pytest

from smra import build_truthful_tight, run_auction, write_trace_jsonl
from smra.cli import main

# name -> (extra `smra run` arguments, sha256 of the --out CSV)
CSV_RUNS = {
    "bad_pair": (
        ("--builtin", "bad_pair", "--trials", "100", "--seed", "11"),
        "9935ba0df6f7dce6eaa4d0ef6914c07257b44f95f53c3ba9c1361d126627fc42",
    ),
    "truthful_tight": (
        ("--builtin", "truthful_tight", "--trials", "100", "--seed", "12"),
        "d4675b8fbc597870b40da0500acedd0427cfd7f3fef3273419cdb8bea3790f2e",
    ),
    "local_tight": (
        ("--builtin", "local_tight", "--trials", "100", "--seed", "13"),
        "46b2cef657745f1dd1e96a4bb7ca2219dad679bf2b7a7b78a9a133bfacce81f7",
    ),
    "superadditive": (
        ("--builtin", "superadditive", "--trials", "100", "--seed", "14"),
        "db863d4c4a1b21cfe2141c52459ddfab086619e7a3463f003d3d85df6b0adaf5",
    ),
    "punishment": (
        ("--builtin", "punishment", "--trials", "100", "--seed", "15"),
        "f7351422b20e01810406ea2315953b1b214f514066eab3d004247040e2ad3aa6",
    ),
    "local_tight_empty_start": (
        ("--builtin", "local_tight", "--trials", "100", "--seed", "16",
         "--local-start", "empty"),
        "8dcab09086683bd38445da7193cd5b04dbedf0d46481ff4de983c0cf065f4bd6",
    ),
    "punishment_posted_variant": (
        ("--builtin", "punishment", "--trials", "100", "--seed", "17",
         "--secure-variant", "posted"),
        "5e961ca7f5cdde8609887d89ccb32827533d57aeab337ea5a6f806c7589c0bcd",
    ),
}

# builtin -> (seed, sha256 of the single-trial --trace JSONL)
TRACE_RUNS = {
    "bad_pair": (
        21, "37134a072dd3bbb7a96f1f9ea01d907ca982f2d6b08335efd86329071400e8e0",
    ),
    "truthful_tight": (
        22, "8a912ca2b4ffed32f67545a4fa443ea6ad7ac04d49567b5b7dc6c7bbff21feb6",
    ),
    "local_tight": (
        23, "2b7b4aeb19a900e5b163fbad674cea8f3c8054f67d46f4c2959a00a69e37faa8",
    ),
    "superadditive": (
        24, "9f73f612357b7cda9bdb0fc3fb6bf42fccefd2b38cc76b453f34a0257978267c",
    ),
    "punishment": (
        25, "50bafac3789419af527afa12e3100076dd1a870ee115e7a231b64fe22c407358",
    ),
}

# name -> (extra `smra oracle` arguments, sha256 of its stdout)
ORACLE_RUNS = {
    "bad_pair": (
        ("--builtin", "bad_pair"),
        "4eacb7a069dfd40187558744fe0fd53bcf5eeaf59cb15518bbea9968cccfd2a9",
    ),
    "lemma4": (
        ("--builtin", "lemma4"),
        "de96f738ff084bafad5f6d0c212f3bda0322d01f509ead788ae40bb4ae18db88",
    ),
    "local_tight": (
        ("--builtin", "local_tight"),
        "ec78375613a7018b87b5818ff01685bd26b7644085932e52d9c0c3f78f6d9247",
    ),
    "punishment": (
        ("--builtin", "punishment"),
        "f2874250f6cd0413368e031373ea5d0f26d0a8d8be6a938fe50ff984d78aeb14",
    ),
    "superadditive": (
        ("--builtin", "superadditive"),
        "de96f738ff084bafad5f6d0c212f3bda0322d01f509ead788ae40bb4ae18db88",
    ),
    "truthful_tight": (
        ("--builtin", "truthful_tight"),
        "3a1f55100671622288bcc7c58a9fae33e1c65f75019a0db7c5d7affed434903b",
    ),
    "truthful_tight_k12_L30": (
        ("--builtin", "truthful_tight", "--k", "12", "--L", "30"),
        "b968e6701c510e42fbb6aab26bda6df493bccef3d99f634f410591ae65b83419",
    ),
    "local_tight_n3": (
        ("--builtin", "local_tight", "--n", "3"),
        "d87c29b7611a2b2f9de043e2377db7a25c6576a17f9af41a5e9dbd5bfb3ef3ae",
    ),
}

# run_auction on build_truthful_tight(k=15, alpha=3, L=16) at seed 5
WIDE_TRACE = "8f4ac2591704eb5f8bfe918f786759596461f422d8cf932e6cf2b72a03ec9af1"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CSV_RUNS))
def test_run_csv_digest(name, tmp_path, capsys):
    argv, digest = CSV_RUNS[name]
    out = tmp_path / "rows.csv"
    assert main(["run", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == digest


@pytest.mark.parametrize("builtin", sorted(TRACE_RUNS))
def test_run_trace_digest(builtin, tmp_path, capsys):
    seed, digest = TRACE_RUNS[builtin]
    trace = tmp_path / "trace.jsonl"
    argv = ["run", "--builtin", builtin, "--trials", "1", "--seed", str(seed),
            "--trace", str(trace)]
    assert main(argv) == 0
    capsys.readouterr()
    assert _sha256(trace.read_bytes()) == digest


@pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
def test_oracle_output_digest(name, capsys):
    argv, digest = ORACLE_RUNS[name]
    assert main(["oracle", *argv]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == digest


def test_fifteen_item_auction_trace_digest():
    scenario = build_truthful_tight(k=15, alpha=3, L=16)
    outcome = run_auction(scenario.valuations, scenario.strategies, seed=5)
    buffer = io.StringIO()
    write_trace_jsonl(outcome.records, buffer)
    assert _sha256(buffer.getvalue().encode("utf-8")) == WIDE_TRACE
