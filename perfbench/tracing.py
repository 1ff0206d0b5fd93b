"""Spans recorded from the benchmark's own code around calls into smra.

A span is (trial, span id, parent span id, name, start ns, end ns); the
spans of one auction share its trial index (-1 before the first trial),
and parent 0 marks a span opened by the harness itself. Span names are
`<module>.<function>`, with propose spans named
`strategies.propose.<kind>`. Spans stay in memory, six 64-bit integers
each, until the run ends: a coinflip pass records 1.5M of them.

A workload's `replay` calls the public functions through `Tracer.call`,
with every strategy wrapped in a delegating `TracedStrategy`;
`layer_metrics` turns one pass's spans into the per-layer numbers.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from time import perf_counter_ns

from smra import (
    LocallyOptimalStrategy,
    SecureProfitMaxStrategy,
    Strategy,
    TruthfulStrategy,
)

PROPOSE = "strategies.propose."


class Tracer:
    def __init__(self):
        self.data = array("q")  # trial, span, parent, name id, start, end
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.decisions: set = set()
        # Keys name valuations by id(); holding them keeps the ids unique.
        self._valuations: dict[int, object] = {}
        self.trace_records = 0
        self.rationality_subsets = 0
        self.trial = -1
        self._parent = 0
        self._next_id = 1

    def begin(self, trial: int) -> None:
        self.trial = trial

    def call(self, name: str, fn, *args, **kwargs):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span_id = self._next_id
        self._next_id += 1
        parent = self._parent
        self._parent = span_id
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._parent = parent
            self.data.extend((self.trial, span_id, parent, name_id, start, end))

    def spans(self):
        """The spans as (trial, span, parent, name, start ns, end ns)."""
        data, names = self.data, self.names
        for i in range(0, len(data), 6):
            yield (data[i], data[i + 1], data[i + 2], names[data[i + 3]],
                   data[i + 4], data[i + 5])

    def wrap(self, strategy: Strategy) -> "TracedStrategy":
        return TracedStrategy(strategy, self)

    def decided(self, strategy: Strategy, ctx) -> None:
        self._valuations[id(ctx.valuation)] = ctx.valuation
        self.decisions.add(decision_key(strategy, ctx))

    def scanned(self, outcome, subset_cap: int) -> None:
        """Count the trace records and subsets a lambda scan examined."""
        self.trace_records += len(outcome.records)
        self.rationality_subsets += scanned_subsets(outcome.records, subset_cap)


def decision_key(strategy: Strategy, ctx):
    """Everything a built-in rule's bid depends on. Truthful and secure bids
    depend on (valuation, own set, prices); a locally optimal bid also on
    its starting bid. Keys of other rules never repeat."""
    if isinstance(strategy, (TruthfulStrategy, SecureProfitMaxStrategy)):
        return (strategy, id(ctx.valuation), ctx.own_set, ctx.prices)
    if isinstance(strategy, LocallyOptimalStrategy):
        history = ctx.own_bid_history
        first = history[-1] & ~ctx.own_set if (
            strategy.start == "previous" and history) else 0
        return (strategy, id(ctx.valuation), ctx.own_set, ctx.prices, first)
    return object()


class TracedStrategy(Strategy):
    """Delegates to `inner`, recording a span and a decision key per propose."""

    def __init__(self, inner: Strategy, tracer: Tracer):
        self.inner = inner
        self.kind = inner.kind
        self.tracer = tracer
        self._span_name = PROPOSE + inner.kind

    def propose(self, ctx) -> int:
        self.tracer.decided(self.inner, ctx)
        return self.tracer.call(self._span_name, self.inner.propose, ctx)

    def spec_dict(self) -> dict:
        return self.inner.spec_dict()


def scanned_subsets(records, subset_cap: int) -> int:
    """Computed count of the holdings subsets measure_rationality examines:
    every nonempty subset of a holding up to subset_cap items, else the
    full holding and its singletons."""
    total = 0
    for record in records:
        for held in record.provisional:
            if held:
                size = bin(held).count("1")
                total += (1 << size) - 1 if size <= subset_cap else size + 1
    return total


def _pct(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer totals of one traced pass that took `wall_s` seconds.
    Times are in seconds unless the name says otherwise."""
    total: dict[str, int] = {}
    count: dict[str, int] = {}
    propose_ns, auction_ns = array("q"), array("q")
    top_level_ns = 0
    for _trial, _sid, parent, name, start, end in tracer.spans():
        d = end - start
        total[name] = total.get(name, 0) + d
        count[name] = count.get(name, 0) + 1
        if name.startswith(PROPOSE):
            propose_ns.append(d)
        elif name == "mechanism.run_auction":
            auction_ns.append(d)
        if parent == 0:
            top_level_ns += d

    def secs(name: str) -> float:
        return total.get(name, 0) / 1e9

    calls = len(propose_ns)
    out = {
        "strategies.propose_calls": calls,
        "strategies.propose_us_p50": _pct(propose_ns, 50) / 1e3,
        "strategies.propose_us_p99": _pct(propose_ns, 99) / 1e3,
        "strategies.repeat_ratio":
            1 - len(tracer.decisions) / calls if calls else 0.0,
        "mechanism.auctions": len(auction_ns),
        "mechanism.self_s": (sum(auction_ns) - sum(propose_ns)) / 1e9,
        "mechanism.auction_ms_p50": _pct(auction_ns, 50) / 1e6,
        "mechanism.auction_ms_p99": _pct(auction_ns, 99) / 1e6,
        "mechanism.trace_records": tracer.trace_records,
        "oracle.rationality_subsets": tracer.rationality_subsets,
        "oracle.optimal_welfare_s": secs("oracle.optimal_welfare"),
        "oracle.rationality_s": secs("oracle.measure_rationality"),
        "valuations.generate_s": secs("valuations.random_near_submodular"),
        "valuations.generate_calls": count.get(
            "valuations.random_near_submodular", 0),
        "valuations.value_table_s": secs("valuations.value_table"),
        "scenarios.harness_self_s": wall_s - top_level_ns / 1e9,
    }
    for kind in ("truthful", "locally_optimal", "secure_profit_max"):
        out[f"strategies.propose_s.{kind}"] = secs(PROPOSE + kind)
    return out


def write_spans(path, tracer: Tracer) -> None:
    """Spans as gzipped CSV: trial,span,parent,name,start_ns,end_ns."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("trial,span,parent,name,start_ns,end_ns\n")
        for span in tracer.spans():
            out.write("%d,%d,%d,%s,%d,%d\n" % span)
