"""Hierarchical multi-timeframe RL trading research engine.

Three PPO agents trade buy/sell/hold at 1-minute, 10-minute and 1-hour bars;
a meta-agent (the allocator) picks which agent is active next and is paid the
log-return of portfolio value over each decision span. The package covers the
whole experiment loop: data ingestion/synthesis, feature computation,
training, backtesting, and evaluation reports.

Importing the package caps BLAS at one thread unless the environment says
otherwise: the PPO update already runs its two nets on two threads, and at
these matrix sizes more BLAS threads only add start-up and contention. The
cap has no effect when numpy was imported before this package.
"""

import os as _os

for _name in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    _os.environ.setdefault(_name, "1")
del _name

from .allocator import (
    AgentRegistry,
    AllocationDecision,
    AllocatorConfig,
    AllocatorError,
    HierarchyEnv,
    HierarchyReport,
    RegisteredAgent,
    allocator_reward,
    run_hierarchy,
)
from .config import ConfigError, RunConfig, default_config, load_config
from .envs import (
    Action,
    AgentRun,
    EnvConfig,
    EnvError,
    StepResult,
    TradingEnv,
    agent_reward,
    run_agent,
)
from .evaluation import (
    EquityCurve,
    EvaluationError,
    MetricsReport,
    QuartileAllocationReport,
    buy_and_hold,
    compute_metrics,
    cumulative_return,
    max_drawdown,
    quartile_allocation,
    return_volatility_pct,
    sharpe,
)
from .indicators import FEATURE_WARMUP
from .market_data import (
    Bar,
    EmptyDataError,
    MarketDataError,
    RegimeParams,
    Session,
    SynthConfig,
    TIMEFRAME_ORDER,
    Timeframe,
    TradingCalendar,
    ingest_csv,
    resample,
    resample_bars,
    synthesize,
)
from .portfolio import (
    PortfolioError,
    PortfolioFeatures,
    PortfolioState,
    SaleRecord,
    TradeLogEntry,
    buy_all,
    mark,
    sell_all,
)
from .ppo import (
    AdamState,
    Checkpoint,
    CheckpointError,
    NetworkSpec,
    NonFiniteLossError,
    PolicyParameters,
    PpoError,
    PpoHyperparams,
    forward,
    gae,
    greedy_action,
    load_checkpoint,
    ppo_update,
    sample_action,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
