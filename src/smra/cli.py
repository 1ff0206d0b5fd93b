"""Command-line interface: run scenarios, query the exact oracle, analyze
valuations, and verify recorded traces.

All randomness flows from --seed; identical invocations produce identical
CSV, JSON, and trace bytes. Exit codes: 0 success, 2 invalid
configuration or input data, 3 oracle work budget exceeded, 4 violated
runtime invariant (bad trace, invalid bid, insecure state).
"""

from __future__ import annotations

import argparse
import json
import sys
from inspect import signature
from typing import Optional, Sequence

from .errors import (
    Divergence,
    InsecureProvisionalState,
    InvalidAllocation,
    InvalidBid,
    OracleTooLarge,
    SmraError,
    TraceMismatch,
)
from .itemsets import items_of
from .mechanism import read_trace_jsonl, replay_trace
from .oracle import optimal_welfare
from .scenarios import BUILTIN_SCENARIOS, build_builtin, load_scenario, run_trials
from .strategies import LOCAL_STARTS, SECURE_VARIANTS
from .valuations import degree_of_submodularity, valuation_from_spec

# Every parameter some builtin takes, in the order the builtins declare them.
_BUILDER_PARAMS = tuple(dict.fromkeys(
    name for builder in BUILTIN_SCENARIOS.values()
    for name in signature(builder).parameters))


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--builtin",
        choices=sorted(BUILTIN_SCENARIOS),
        help="named built-in scenario",
    )
    source.add_argument(
        "--scenario", metavar="FILE", help="scenario JSON file"
    )
    for name in _BUILDER_PARAMS:
        parser.add_argument(
            f"--{name}", type=int, default=None,
            help=f"builtin parameter {name} (builtins only)",
        )
    parser.add_argument(
        "--local-start", choices=LOCAL_STARTS, default=None,
        help="start point for locally optimal bidders",
    )
    parser.add_argument(
        "--secure-variant", choices=SECURE_VARIANTS, default=None,
        help="price basis of the security check",
    )


def _build_scenario(args: argparse.Namespace):
    params = {
        name: getattr(args, name)
        for name in _BUILDER_PARAMS
        if getattr(args, name) is not None
    }
    if args.builtin:
        scenario = build_builtin(args.builtin, **params)
    else:
        if params:
            flags = ", ".join(f"--{p}" for p in sorted(params))
            raise ValueError(f"{flags} only apply to --builtin scenarios")
        scenario = load_scenario(args.scenario)
    return scenario.with_strategy_options(args.local_start, args.secure_variant)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    stats = run_trials(
        scenario,
        args.trials,
        args.seed,
        jobs=args.jobs,
        max_rounds=args.max_rounds,
        trace_path=args.trace,
    )
    if args.out:
        stats.to_csv(args.out)
    print(json.dumps(stats.summary_dict(), indent=2))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args)
    optimal = optimal_welfare(scenario.valuations)
    print(
        json.dumps(
            {
                "scenario": scenario.name,
                "welfare": optimal.welfare,
                "assignment": [list(items_of(mask)) for mask in optimal.assignment],
            },
            indent=2,
        )
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if (args.valuation is None) == (args.json is None):
        raise ValueError("provide exactly one of: a valuation JSON file, --json")
    try:
        if args.json is not None:
            spec = json.loads(args.json)
        else:
            with open(args.valuation, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
    except RecursionError:
        raise ValueError("valuation JSON nested too deeply") from None
    valuation = valuation_from_spec(spec)
    report = degree_of_submodularity(valuation)
    out = {"universe_size": valuation.universe_size}
    out.update(report.to_dict())
    print(json.dumps(out, indent=2))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    records = read_trace_jsonl(args.trace)
    result = replay_trace(records)
    print(
        json.dumps(
            {
                "rounds": result.rounds,
                "terminal": result.terminal,
                "prices": list(result.prices),
                "provisional": [list(items_of(mask)) for mask in result.provisional],
            },
            indent=2,
        )
    )
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smra",
        description="Deterministic simultaneous ascending-price auction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run auction trials")
    _add_scenario_args(p_run)
    p_run.add_argument("--trials", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--max-rounds", type=int, default=None)
    p_run.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write the trial's JSONL trace (requires --trials 1)",
    )
    p_run.add_argument(
        "--out", metavar="FILE", default=None, help="write per-trial CSV"
    )
    p_run.set_defaults(fn=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="exact optimal welfare")
    _add_scenario_args(p_oracle)
    p_oracle.set_defaults(fn=_cmd_oracle)

    p_analyze = sub.add_parser("analyze", help="near-submodularity report")
    p_analyze.add_argument(
        "valuation", nargs="?", default=None,
        help="valuation JSON file",
    )
    p_analyze.add_argument(
        "--json", default=None, help="inline valuation JSON"
    )
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_replay = sub.add_parser("replay", help="verify a JSONL trace")
    p_replay.add_argument("trace", help="trace file to verify")
    p_replay.set_defaults(fn=_cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except OracleTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TraceMismatch, InvalidBid, InvalidAllocation,
            InsecureProvisionalState, Divergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (SmraError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
