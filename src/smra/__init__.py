"""Deterministic simulator for simultaneous ascending-price auctions,
with pluggable bidding strategies, exact valuation analysis, an exact
welfare oracle, named scenarios, and a Monte Carlo trial harness."""

from .errors import (
    Divergence,
    GenerationFailed,
    InsecureProvisionalState,
    InvalidAllocation,
    InvalidBid,
    InvalidPartition,
    NotMonotone,
    OracleTooLarge,
    SmraError,
    TraceMismatch,
    UniverseMismatch,
)
from .itemsets import (
    full_mask,
    items_of,
    iter_items,
    mask_of,
    submasks,
)
from .valuations import (
    AdditiveValuation,
    PairBonusValuation,
    SubmodularityReport,
    SymmetricStepValuation,
    TableValuation,
    TargetPairValuation,
    UnitDemandValuation,
    Valuation,
    degree_of_submodularity,
    is_alpha_near_submodular,
    random_near_submodular,
    valuation_from_spec,
)
from .mechanism import (
    AuctionOutcome,
    Draw,
    ReplayResult,
    RoundRecord,
    read_trace_jsonl,
    replay_trace,
    run_auction,
    write_trace_jsonl,
)
from .strategies import (
    BidContext,
    CallableStrategy,
    LocallyOptimalStrategy,
    ScriptedStrategy,
    SecureProfitMaxStrategy,
    Strategy,
    TruthfulStrategy,
    is_locally_optimal,
    is_secure,
    locally_optimal_bid,
    profit_max_secure_bid,
    scripted_bid,
    strategy_from_spec,
    truthful_bid,
)
from .oracle import (
    OptimalAllocation,
    RationalityReport,
    RationalityScan,
    measure_rationality,
    optimal_welfare,
    welfare,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    Scenario,
    TrialEvent,
    TrialRow,
    TrialStats,
    aggregate_rows,
    build_bad_pair,
    build_builtin,
    build_local_tight,
    build_nonsecure_punishment,
    build_scripted_partition,
    build_superadditive,
    build_truthful_tight,
    derive_seed,
    load_scenario,
    read_rows_csv,
    run_trials,
    scenario_from_spec,
)

__version__ = "0.1.0"
