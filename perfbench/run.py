"""smra benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload coinflip --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
A run repeats passes of the workload until `--seconds` is spent (at least
MIN_PASSES of them), checks every pass's output, and prints a table, a
detail line (JSON: machine, code, per-pass figures) and, last, the result
line (JSON). With `--trace 0` the result holds the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics from a traced
replay. The trace's spans go to `.bench_out/trace-<workload>.csv.gz`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_PROBES = 7
# The reference loop: REF_ITERATIONS of a fixed pure-Python loop that does
# not touch smra, timed just before and just after every timed pass. Its
# time tracks how fast this machine runs Python at that moment; REF_SECONDS
# is its time on an undisturbed core of a 2-vCPU Xeon VM, the speed that
# the `*_ref_*` metrics are scaled to. See perfbench/README.md.
REF_ITERATIONS = 400_000
REF_SECONDS = 0.045
# Inside a pass that runs in this process the loop is also timed, in runs of
# SAMPLE_ITERATIONS, every SAMPLE_INTERVAL seconds of wall time.
SAMPLE_ITERATIONS = 40_000
SAMPLE_INTERVAL = 0.2
# Printed under the gated metrics of a `--trace 0` run, not gated themselves:
# the wall and CPU figures as measured, and the reference loop's time.
AS_MEASURED = (("trials_per_s", "1/s"), ("cpu_s_per_ktrial", "s"),
               ("setup_wall_s", "s"), ("ref_s", "s"), ("failed_frac", "ratio"))


def _cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _keep_going(start: float, done: int, minimum: int, seconds: float) -> bool:
    """Whether another pass of the average length still fits in `seconds`."""
    elapsed = perf_counter() - start
    return done < minimum or elapsed * (done + 1) / done <= seconds


class _Line:
    """The reference loop's object: a method call on slots is the kind of
    step the auction loop is made of."""

    __slots__ = ("slope", "offset")

    def __init__(self, slope: int, offset: int) -> None:
        self.slope = slope
        self.offset = offset

    def at(self, x: int) -> int:
        return self.slope * x + self.offset if x & 1 else self.offset - x


def reference_seconds(iterations: int = REF_ITERATIONS) -> float:
    """Wall time of the reference loop."""
    line, total = _Line(3, 5), 0
    start = perf_counter()
    for i in range(iterations):
        total += line.at(i) & 1023
    return perf_counter() - start


class SpeedSampler:
    """Times the reference loop from a SIGALRM handler every
    SAMPLE_INTERVAL seconds while it is entered, so that a pass's reference
    speed follows the machine's speed through the pass. `ref_s` holds the
    timings scaled to REF_ITERATIONS; `wall_s` and `cpu_s` are what the
    handler took, to be taken off the pass's times."""

    def __init__(self) -> None:
        self.ref_s: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        wall0, cpu0 = perf_counter(), process_time()
        self.ref_s.append(reference_seconds(SAMPLE_ITERATIONS)
                          * REF_ITERATIONS / SAMPLE_ITERATIONS)
        self.wall_s += perf_counter() - wall0
        self.cpu_s += process_time() - cpu0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """`seconds` measured while the reference loop took `ref_s`, scaled to
    the time they would take where it takes REF_SECONDS."""
    return seconds * REF_SECONDS / ref_s


def _mismatch(workload, reason: str) -> set[int]:
    print(f"{workload.name}: {reason}", file=sys.stderr)
    return set(range(workload.auctions))


def measure_pass(workload, state, seed: int, *, recheck: bool,
                 digest: str | None) -> dict:
    """One timed harness call plus its (untimed) output checks. The
    reference loop is timed before and after the call and, if the call runs
    in this process, every SAMPLE_INTERVAL seconds during it: with a pool
    the sampler would compete with the workers for the cores."""
    from workloads import sha256

    sampler = SpeedSampler()
    refs = [reference_seconds()]
    cpu0 = _cpu_seconds()
    start = perf_counter()
    try:
        with sampler if workload.jobs == 1 else nullcontext():
            out = workload.harness(state, seed)
    except Exception:
        traceback.print_exc()
        return {"seed": seed, "auctions": workload.auctions,
                "failed": workload.auctions, "wall_s": None, "cpu_s": None,
                "ref_s": None}
    wall = perf_counter() - start - sampler.wall_s
    cpu = _cpu_seconds() - cpu0 - sampler.cpu_s
    refs += sampler.ref_s + [reference_seconds()]

    csv_text = workload.to_csv(out)
    failed = workload.check(csv_text)
    if recheck and workload.outcome_ok:
        replayed, bad = workload.replay(state, seed)
        failed |= bad
        if workload.rows(replayed) != workload.rows(out):
            failed |= _mismatch(workload, "replayed rows differ from the harness")
    if digest is not None:
        if sha256(csv_text) != digest:
            failed |= _mismatch(workload, f"CSV sha256 differs at seed {seed}")
        if workload.jobs > 1:
            serial = workload.to_csv(workload.harness(state, seed, jobs=1))
            if serial != csv_text:
                failed |= _mismatch(
                    workload, f"jobs={workload.jobs} CSV differs from jobs=1")
    return {"seed": seed, "auctions": workload.auctions, "failed": len(failed),
            "wall_s": wall, "cpu_s": cpu, "ref_s": statistics.mean(refs),
            "ref_samples": len(refs), "sampler_s": sampler.wall_s}


def setup_seconds(workload) -> list[dict]:
    """Wall time of fresh interpreters that only set the workload up, each
    with the reference loop's time around it."""
    probes = []
    for _ in range(SETUP_PROBES):
        ref_before = reference_seconds()
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-I", str(HERE / "setup_probe.py"), workload.name],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )  # no timeout: Popen polls with sleeps under one, quantising the time
        wall = perf_counter() - start
        probes.append({"wall_s": wall,
                       "ref_s": (ref_before + reference_seconds()) / 2})
    return probes


def untraced_run(workload, master: int, seconds: float, digests: dict) -> dict:
    from workloads import pass_seed

    state = workload.setup()
    passes = []
    start = perf_counter()
    while _keep_going(start, len(passes), MIN_PASSES, seconds):
        index = len(passes)
        canonical = master == 0 and index == 0
        passes.append(measure_pass(
            workload, state, pass_seed(workload.base_seed, master, index),
            recheck=index == 0,
            digest=digests.get(workload.name) if canonical else None,
        ))
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    timed = [p for p in passes if p["wall_s"] is not None]
    if not timed:
        raise RuntimeError(f"no pass of {workload.name} completed")
    setups = setup_seconds(workload)
    attempted = sum(p["auctions"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "trials_per_ref_s": statistics.median(
                p["auctions"] / at_reference_speed(p["wall_s"], p["ref_s"])
                for p in timed),
            "cpu_ref_s_per_ktrial": statistics.median(
                1000 * at_reference_speed(p["cpu_s"], p["ref_s"])
                / p["auctions"] for p in timed),
            "trials_per_s": statistics.median(
                p["auctions"] / p["wall_s"] for p in timed),
            "cpu_s_per_ktrial": statistics.median(
                1000 * p["cpu_s"] / p["auctions"] for p in timed),
            "ref_s": statistics.median(p["ref_s"] for p in timed),
            "setup_s": statistics.median(
                at_reference_speed(p["wall_s"], p["ref_s"]) for p in setups),
            "setup_wall_s": statistics.median(p["wall_s"] for p in setups),
            "peak_rss_mb": kb / 1024,
            "failed_frac": failed / attempted,
        },
        "detail": {"passes": passes, "setup_s": setups},
    }


def traced_pass(workload, seed: int) -> tuple:
    """Set up afresh and replay one pass inside spans. Returns the tracer,
    the fresh set-up, the output, the trials failing the outcome check, and
    the wall times of set-up plus replay and of the replay alone."""
    from tracing import Tracer

    tracer = Tracer()
    start = perf_counter()
    state = workload.setup(tracer)
    replay_start = perf_counter()
    out, failed = workload.replay(state, seed, tracer)
    end = perf_counter()
    return tracer, state, out, failed, end - start, end - replay_start


def traced_run(workload, master: int, seconds: float) -> dict:
    """Cycles of (untraced pass, traced replay) on one seed, until
    `seconds` is spent; per-layer figures are medians over the cycles."""
    from tracing import layer_metrics, write_spans
    from workloads import pass_seed

    seed = pass_seed(workload.base_seed, master, 0)
    state = workload.setup()
    pooled = workload.jobs > 1
    cycles, first_tracer, failed = [], None, 0
    start = perf_counter()
    while _keep_going(start, len(cycles), 1, seconds):
        t0 = perf_counter()
        ref = workload.harness(state, seed)
        untraced = perf_counter() - t0
        if pooled:
            t0 = perf_counter()
            workload.harness(state, seed, jobs=1)
            serial = perf_counter() - t0
        else:
            serial = untraced
        tracer, fresh, out, bad, wall, replay = traced_pass(workload, seed)

        t0 = perf_counter()
        csv_text = workload.to_csv(out)
        summary = workload.summary_json(out)
        csv_write = perf_counter() - t0

        bad |= workload.check(csv_text)
        if workload.rows(out) != workload.rows(ref):
            bad |= _mismatch(workload, "traced rows differ from the harness")
        failed += len(bad)
        layers = layer_metrics(tracer, wall)
        layers.update(workload.counts(fresh, out))
        layers["scenarios.csv_write_s"] = csv_write
        layers["scenarios.csv_bytes"] = len(csv_text.encode()) + len(summary)
        layers["bench.trace_overhead"] = replay / serial
        if pooled:
            layers["scenarios.pool_speedup"] = serial / untraced
        cycles.append(layers)
        if first_tracer is None:
            first_tracer = tracer

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    write_spans(out_dir / f"trace-{workload.name}.csv.gz", first_tracer)
    attempted = workload.auctions * len(cycles)
    metrics = {
        name: statistics.median_low(c[name] for c in cycles)
        for name in cycles[0]
    }
    metrics["failed_frac"] = failed / attempted
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"cycles": len(cycles), "seed": seed}}


def code_identity() -> dict:
    """The code measured: git SHA when the checkout is a repository, and
    the package's line count and content digest."""
    files = sorted((SRC / "smra").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_smra_lines": lines,
            "src_smra_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "smra" / "__init__.py").is_file():
        print(f"no smra package under {SRC}: run from a checkout with src/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, recorded_digests

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)

    if args.trace:
        result = traced_run(workload, args.seed, args.seconds)
        wanted = contract["per_layer"]
    else:
        result = untraced_run(workload, args.seed, args.seconds,
                              recorded_digests())
        wanted = contract["end_to_end"]

    measured = result["metrics"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for metric in wanted:
        print(f"  {metric['name']:<34} {measured[metric['name']]:>14.6g} "
              f"{metric['unit']}")
    if not args.trace:
        print("  as measured, not gated:")
        for name, unit in AS_MEASURED:
            print(f"  {name:<34} {measured[name]:>14.6g} {unit}")
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        **code_identity(), "metrics": measured, **result["detail"],
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
