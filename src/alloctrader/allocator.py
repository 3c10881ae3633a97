"""Hierarchical execution layer: a meta-environment whose action picks which
timeframe agent trades next.

Control flow per decision: the cursor rests on the last completed base bar.
The chosen agent (forced to the 1-minute agent for a session's first
decision) acts greedily at that bar's close on its `envs.build_observation`,
as in training; the market then advances one bar of the agent's timeframe
(truncated at the session's final bar), and the allocator is paid the
log-return of portfolio value over the span. The trade,
the marks at every base bar and the session-close liquidation happen in
`envs.BaseBarEnv._span`, which `TradingEnv` also runs. Spans tile each
session exactly, and the rewards telescope to ln(V_final / V_initial).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

import numpy as np

from . import AlloctraderError
from .atomic import write_csv
from .envs import (
    BaseBarEnv,
    EnvConfig,
    StepResult,
    build_observation,
    min_agent_cursor,
    normalize_market_window,
)
from .evaluation import trailing_volatility_pct
from .indicators import FEATURE_WARMUP
from .market_data import Session, TIMEFRAME_ORDER, Timeframe, _as_utc
from .ppo import PolicyParameters, greedy_action


class AllocatorError(AlloctraderError, RuntimeError):
    """Hierarchy misuse: incomplete registry, bad choice, missing warmup."""


@dataclass(frozen=True)
class AllocatorConfig:
    """Meta-environment parameters."""

    market_window: int = 60
    vol_window: int = 30
    initial_cash: float = 10_000.0
    fee_per_sell_share: float = 0.0

    def __post_init__(self) -> None:
        if self.market_window < 1:
            raise AllocatorError(f"market_window must be >= 1, got {self.market_window}")
        if self.vol_window < 2:
            raise AllocatorError(f"vol_window must be >= 2, got {self.vol_window}")
        if not self.initial_cash > 0:
            raise AllocatorError(f"initial_cash must be positive, got {self.initial_cash}")
        if self.fee_per_sell_share < 0:
            raise AllocatorError(f"fee_per_sell_share must be >= 0, got {self.fee_per_sell_share}")


def observation_size(config: AllocatorConfig) -> int:
    """Allocator input width: market window (5 per bar) + 3 portfolio values
    + rolling volatility + 3 last agent rewards + 3-way active-agent one-hot."""
    return config.market_window * 5 + 10


@dataclass(frozen=True)
class RegisteredAgent:
    """A frozen agent and its environment settings; the CLI loads only its policy net."""

    params: PolicyParameters
    config: EnvConfig


class AgentRegistry:
    """Exactly one frozen pre-trained agent per timeframe."""

    def __init__(self, agents: dict[Timeframe, RegisteredAgent]):
        missing = [tf.label for tf in TIMEFRAME_ORDER if tf not in agents]
        if missing:
            raise AllocatorError(f"registry missing agents for: {', '.join(missing)}")
        extra = [tf for tf in agents if tf not in TIMEFRAME_ORDER]
        if extra:
            raise AllocatorError(f"registry has unknown timeframes: {extra}")
        for tf, agent in agents.items():
            if agent.config.timeframe is not tf:
                raise AllocatorError(
                    f"agent registered under {tf.label} is configured for "
                    f"{agent.config.timeframe.label}"
                )
            expected = agent.config.observation_size
            if agent.params.spec.input_dim != expected:
                raise AllocatorError(
                    f"{tf.label} agent network expects input {agent.params.spec.input_dim}, "
                    f"but window {agent.config.window_size} produces {expected}"
                )
        self._agents = {tf: agents[tf] for tf in TIMEFRAME_ORDER}

    def __getitem__(self, tf: Timeframe) -> RegisteredAgent:
        return self._agents[tf]

    def items(self):
        return self._agents.items()


def allocator_reward(v_current: float, v_previous: float) -> float:
    """Log-return of portfolio value over one decision span: ln(Vc / Vp)."""
    if not (v_current > 0 and v_previous > 0):
        raise AllocatorError(
            f"portfolio values must be positive, got {v_current} / {v_previous}"
        )
    return float(np.log(v_current / v_previous))


@dataclass(frozen=True)
class DecisionRecord:
    """One allocator decision, as kept, logged and read back.

    The timestamp is the span's first bar (the bar the decision takes effect
    on), so calendar grouping attributes each decision to the session it
    traded in. `timeframe` is the agent actually activated; `forced` is set
    when the span opens a session, so the 1-minute agent overrode the choice.
    """

    timestamp: datetime
    timeframe: Timeframe
    forced: bool
    span_bars: int
    log_return: float


_DECISION_LOG_FIELDS = (
    "timestamp", "chosen_timeframe", "forced_flag", "span_bars", "span_log_return"
)


def write_decision_log(decisions: Sequence[DecisionRecord], path: str) -> None:
    write_csv(path, _DECISION_LOG_FIELDS,
              ((d.timestamp.isoformat(), d.timeframe.label, int(d.forced), d.span_bars,
                d.log_return) for d in decisions))


def read_decision_log(path: str) -> tuple[DecisionRecord, ...]:
    """Read a decision log written by write_decision_log. A timestamp without
    an offset is taken as UTC, as market data timestamps are. Anything that
    is not a well-formed row (a bad field, a forced_flag other than 0 or 1,
    span_bars below 1, a non-finite span_log_return, undecodable text)
    raises AllocatorError naming the file and the row."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) is None:
                raise AllocatorError(f"{path}: empty decision log")
            for row in reader:
                records.append(_decision_record(row, f"{path}: row {reader.line_num}"))
        except csv.Error as exc:
            raise AllocatorError(f"{path}: row {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # decoded by chunks, so no row to name
            raise AllocatorError(f"{path}: not UTF-8 text: {exc}") from exc
    return tuple(records)


def _decision_record(row: list[str], where: str) -> DecisionRecord:
    if len(row) != len(_DECISION_LOG_FIELDS):
        raise AllocatorError(f"{where} has {len(row)} fields, "
                             f"expected {len(_DECISION_LOG_FIELDS)}")
    try:
        record = DecisionRecord(
            timestamp=_as_utc(datetime.fromisoformat(row[0])),
            timeframe=Timeframe.from_label(row[1]),
            forced=bool(int(row[2])),
            span_bars=int(row[3]),
            log_return=float(row[4]),
        )
    except (ValueError, OverflowError) as exc:
        raise AllocatorError(f"{where}: {exc}") from exc
    if row[2] not in ("0", "1"):
        raise AllocatorError(f"{where}: forced_flag must be 0 or 1, got {row[2]!r}")
    if record.span_bars < 1:
        raise AllocatorError(f"{where}: span_bars must be >= 1, got {record.span_bars}")
    if not math.isfinite(record.log_return):
        raise AllocatorError(f"{where}: span_log_return must be finite, got {row[4]!r}")
    return record


class HierarchyEnv(BaseBarEnv):
    """Meta-environment over the base-bar account; see the module docstring."""

    def __init__(
        self,
        sessions: Sequence[Session],
        registry: AgentRegistry,
        config: AllocatorConfig = AllocatorConfig(),
        start_day=None,
    ):
        if not sessions:
            raise AllocatorError("no sessions provided")
        super().__init__(sessions, TIMEFRAME_ORDER)
        self.registry = registry
        self.config = config
        self._start_cursor = self._find_start_cursor(sessions, start_day)
        self._volatility = trailing_volatility_pct(self.closes, config.vol_window)
        self.decisions: list[DecisionRecord] = []

    def _find_start_cursor(self, sessions, start_day) -> int:
        min_cursor = max(
            FEATURE_WARMUP + self.config.market_window - 1,
            self.config.vol_window,
            *(min_agent_cursor(agent.config.window_size, tf.minutes)
              for tf, agent in self.registry.items()),
        )
        opens = np.flatnonzero(self.session_first)
        for i, session in zip(opens[1:], sessions[1:]):
            if start_day is not None and session.day < start_day:
                continue
            if i - 1 >= min_cursor:
                return int(i - 1)
            if start_day is not None:
                raise AllocatorError(
                    f"session {session.day} starts at bar {i} but warmup needs "
                    f"{min_cursor + 1} bars of history"
                )
        raise AllocatorError(
            f"no session start has the required {min_cursor + 1} bars of warmup history"
        )

    @property
    def equity(self) -> list[tuple[datetime, float]]:
        """(timestamp, portfolio value) at the start cursor and at every base
        bar marked since; [] before the first reset."""
        bars = slice(self._start_cursor, self.cursor + 1)
        return list(zip(self.timestamps[bars], self.values[bars].tolist()))

    # -- observations ----------------------------------------------------------

    @property
    def observation_size(self) -> int:
        return observation_size(self.config)

    def _agent_observation(self, tf: Timeframe, cursor: int) -> np.ndarray:
        return build_observation(self.tables[tf], self._pf_rows, cursor,
                                 self.registry[tf].config.window_size, tf.minutes)

    def _allocator_observation(self) -> np.ndarray:
        b = self.cursor
        market = normalize_market_window(
            self.tables[Timeframe.ONE_MINUTE][b - self.config.market_window + 1:b + 1])
        last_rewards = [self._last_rewards[tf] for tf in TIMEFRAME_ORDER]
        onehot = [1.0 if self._last_active is tf else 0.0 for tf in TIMEFRAME_ORDER]
        return np.concatenate(
            [
                market.reshape(-1),
                self._pf_rows[b],
                [self._volatility[b]],
                last_rewards,
                onehot,
            ]
        )

    # -- episode control ---------------------------------------------------------

    def reset(self) -> np.ndarray:
        """Rewind to the first session boundary with full warmup history."""
        self._open(self._start_cursor, self.config.initial_cash, self.config.fee_per_sell_share)
        self._last_rewards = {tf: 0.0 for tf in TIMEFRAME_ORDER}
        self._last_active: Timeframe | None = None
        self.decisions = []
        return self._allocator_observation()

    def step(self, choice: Timeframe | int) -> StepResult:
        """Run one decision span; see the module docstring for the protocol."""
        if self.done:
            raise AllocatorError("step() called on a finished episode; call reset()")
        if isinstance(choice, Timeframe):
            requested = choice
        else:
            idx = int(choice)
            if not 0 <= idx < len(TIMEFRAME_ORDER):
                raise AllocatorError(f"choice {choice} is not a registered timeframe")
            requested = TIMEFRAME_ORDER[idx]
        b = self.cursor
        forced = bool(self.session_first[b + 1])
        executed = Timeframe.ONE_MINUTE if forced else requested
        agent = self.registry[executed]

        act = greedy_action(agent.params, self._agent_observation(executed, b))
        span_reward = self._span(act, executed.minutes)
        reward = allocator_reward(self.value, float(self.values[b]))
        decision = DecisionRecord(
            timestamp=self.timestamps[b + 1],
            timeframe=executed,
            forced=forced,
            span_bars=self.cursor - b,
            log_return=reward,
        )
        self.decisions.append(decision)
        self._last_rewards[executed] = span_reward
        self._last_active = executed
        return StepResult(self._allocator_observation(), reward, self.done,
                          {"decision": decision})


def run_hierarchy(
    sessions: Sequence[Session],
    registry: AgentRegistry,
    allocator_params: PolicyParameters,
    config: AllocatorConfig = AllocatorConfig(),
    start_day=None,
) -> HierarchyEnv:
    """Deterministic greedy evaluation episode over the full data span; the
    finished environment holds its equity, trades and decisions."""
    env = HierarchyEnv(sessions, registry, config, start_day=start_day)
    expected = env.observation_size
    if allocator_params.spec.input_dim != expected:
        raise AllocatorError(
            f"allocator network expects input {allocator_params.spec.input_dim}, "
            f"environment produces {expected}"
        )
    obs = env.reset()
    while not env.done:
        result = env.step(greedy_action(allocator_params, obs))
        obs = result.observation
    return env
