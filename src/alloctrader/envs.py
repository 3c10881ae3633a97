"""Per-timeframe trading environment and the base-bar account both
environments trade.

`BaseBarEnv` lays sessions end to end as base (1-minute) bars and holds the
one account traded over them. An agent observes trailing windows of its own
timeframe that end at the decision bar (`build_observation`), so it sees data
up to the decision instant wherever that falls in a session, in training and
in the hierarchy alike.

`BaseBarEnv._span` is the one place that trades, marks and liquidates: it
trades at the decision bar's close, marks each bar of the span that follows
into the episode's `values` record (which equity curves read), and
force-liquidates if the span ends its session. It never buys at a session's
final bar, so positions never survive overnight. `TradingEnv` runs it over
spans of one bar of its timeframe, `allocator.HierarchyEnv` over spans of the
chosen agent's timeframe; both truncate a span at its session's final bar.
Cash carries across sessions. `run_agent` is the greedy single-agent episode
that backtests run.

Rewards: a realized sale pays tanh(5 * (sell - avg_cost) / avg_cost); buys
and holds pay 0. A step's reward therefore always lies in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import AlloctraderError
from .indicators import FEATURE_WARMUP, feature_table
from .market_data import MarketDataError, Session, Timeframe, resample
from .portfolio import (
    PortfolioError, SaleRecord, TradeLogEntry, buy_all, features, mark, sell_all,
)
from .ppo import PolicyParameters, SplitGreedyPolicy, greedy_action

#: Scale applied to the fractional sale profit before the tanh squash.
REWARD_SCALE = 5.0

#: Divisors mapping indicator ranges onto roughly [-1, 1] in observations.
RSI_DIVISOR = 100.0
CCI_DIVISOR = 200.0

#: Observation features per bar: five market columns plus three portfolio
#: columns (cash ratio, stock ratio, clamped unrealized profit ratio).
FEATURES_PER_BAR = 8
MARKET_FEATURES = 5

#: Portfolio row of a flat account: all cash, no stock, no unrealized profit.
FLAT_ROW = (1.0, 0.0, 0.0)

#: Decisions per block in `run_agent`: their observations are multiplied by
#: the first layer in one GEMM (about 1.5 MB at window 240).
AGENT_BLOCK = 96


class EnvError(AlloctraderError, RuntimeError):
    """Environment misuse: bad cursor, stepping a finished episode, bad data."""


class Action(Enum):
    BUY = 0
    SELL = 1
    HOLD = 2


@dataclass(frozen=True)
class EnvConfig:
    """Static environment parameters for one timeframe agent."""

    timeframe: Timeframe
    window_size: int
    initial_cash: float = 10_000.0
    fee_per_sell_share: float = 0.0

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise EnvError(f"window_size must be >= 1, got {self.window_size}")
        if not self.initial_cash > 0:
            raise EnvError(f"initial_cash must be positive, got {self.initial_cash}")
        if self.fee_per_sell_share < 0:
            raise EnvError(f"fee_per_sell_share must be >= 0, got {self.fee_per_sell_share}")

    @property
    def observation_size(self) -> int:
        """Agent input width: FEATURES_PER_BAR values per bar of the window."""
        return self.window_size * FEATURES_PER_BAR


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    done: bool
    info: dict


def agent_reward(sell_price: float, avg_buy_price: float) -> float:
    """Reward realized by selling at `sell_price` a position entered at
    `avg_buy_price`: tanh(5 * fractional profit), bounded in (-1, 1)."""
    if not avg_buy_price > 0:
        raise EnvError(f"avg_buy_price must be positive, got {avg_buy_price}")
    return float(np.tanh(REWARD_SCALE * (sell_price - avg_buy_price) / avg_buy_price))


def normalize_market_window(rows: np.ndarray) -> np.ndarray:
    """Observation columns of a (window, 5) block of a BaseBarEnv table, whose
    rows are already scaled (RSI / 100, MACD histogram / the bar's close,
    CCI / 200, %B): those four as they are, and the volume z-scored within
    the window (0 when constant). `rows` may also be a stack
    (..., window, 5) of windows; each comes out with the same bytes as when
    normalized alone.
    """
    out = np.empty(rows.shape)
    out[..., :4] = rows[..., :4]
    _zscore_volume(rows[..., 4], out[..., 4])
    return out


def _zscore_volume(vol: np.ndarray, out: np.ndarray) -> None:
    """Write the z-score of each window (last axis) of `vol` into `out`, 0
    where a window is constant."""
    # Contiguous rows, so each window's sums run in the same pairwise order.
    # The mean and the population std are those of np.mean and np.std, step
    # for step.
    vol = np.ascontiguousarray(vol)
    n = vol.shape[-1]
    centered = vol - np.add.reduce(vol, axis=-1, keepdims=True) / n
    sd = np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / n)
    varies = sd > 0
    if varies.all():  # the common case, and a faster loop than a masked one
        np.divide(centered, sd, out=out)
    else:
        out[...] = 0.0
        np.divide(centered, sd, out=out, where=varies)


def trailing_table(highs: np.ndarray, lows: np.ndarray, closes: np.ndarray,
                   volumes: np.ndarray, length: int) -> np.ndarray:
    """(n, 5) feature table of the trailing `length`-bar series.

    Every base bar ends one aggregate bar: its market_data.resample high,
    low and volume, and its own close. The aggregates whose ends share a
    residue p mod `length` form one series; its feature_table fills rows
    p::length. At length 1 this is the feature_table of the base bars.
    """
    if length == 1:
        return feature_table(highs, lows, closes, volumes)
    t_high, t_low, t_vol = resample(highs, lows, volumes, length)
    table = np.empty((closes.size, MARKET_FEATURES))
    for p in range(length):
        idx = np.arange(p, closes.size, length)
        table[idx] = feature_table(t_high[idx], t_low[idx], closes[idx], t_vol[idx])
    return table


def min_agent_cursor(window: int, length: int) -> int:
    """First base bar with `window` warmed-up rows of a trailing table."""
    return (FEATURE_WARMUP + window - 1) * length


def build_observation(table: np.ndarray, pf_rows: np.ndarray, cursor: int,
                      window: int, length: int) -> np.ndarray:
    """Flattened (window * 8) observation at base bar `cursor` of an agent of
    timeframe `length`: its last `window` trailing bars, every `length`-th
    base bar back from `cursor`. Each bar holds the five market columns of
    `table` (a BaseBarEnv table, see normalize_market_window) and the three
    observation-ready portfolio columns of `pf_rows` (see BaseBarEnv._span)."""
    s = slice(cursor - (window - 1) * length, cursor + 1, length)
    out = np.empty((window, FEATURES_PER_BAR))
    out[:, :MARKET_FEATURES] = normalize_market_window(table[s])
    out[:, MARKET_FEATURES:] = pf_rows[s]
    return out.reshape(-1)


class BaseBarEnv:
    """Sessions laid end to end as base bars, and the one account traded over
    them.

    `session_close[i]` is the index of bar i's session close, and `tables`
    maps each of `timeframes` to its trailing_table, scaled once per bar as
    observations read it: RSI / 100, MACD histogram / close, CCI / 200, %B,
    raw volume (see normalize_market_window). The account is `cash`,
    `shares`, `cost_basis` and the sale `fee`; `value` is its value at the
    cursor's close, `values[i]` at bar i (0 where the episode has not been).
    `_span` is the one place that trades, marks and liquidates.
    """

    def __init__(self, sessions: Sequence[Session], timeframes: Sequence[Timeframe]):
        for session in sessions:
            if not len(session):
                raise MarketDataError(f"session {session.day} is empty")
        highs, lows, closes, volumes = (
            np.concatenate([getattr(s, name) for s in sessions], dtype=np.float64)
            for name in ("high", "low", "close", "volume")
        )
        sizes = np.array([len(s) for s in sessions])
        ends = np.cumsum(sizes) - 1
        self.closes = closes
        self.timestamps = tuple(chain.from_iterable(s.timestamps for s in sessions))
        self.n_bars = closes.size
        self.session_last = np.zeros(self.n_bars, dtype=bool)
        self.session_last[ends] = True
        # The final bar closes a session, so the roll also opens one at bar 0.
        self.session_first = np.roll(self.session_last, 1)
        self.session_close = np.repeat(ends, sizes)
        self.tables = {}
        for tf in timeframes:
            table = trailing_table(highs, lows, closes, volumes, tf.minutes)
            table[:, 0] /= RSI_DIVISOR
            table[:, 1] /= closes
            table[:, 2] /= CCI_DIVISOR
            self.tables[tf] = table
        self.cursor = -1
        self.done = True
        self.cash = self.cost_basis = self.fee = self.value = 0.0
        self.shares, self.values = 0, np.zeros(0)
        self.trades: list[TradeLogEntry] = []

    def _span_end(self, cursor: int, length: int) -> int:
        """Last bar of a `length`-bar span decided at `cursor`, cut at its
        session's final bar."""
        return min(cursor + length, int(self.session_close[cursor + 1]))

    def _open(self, cursor: int, cash: float, fee: float) -> None:
        """Start an episode at `cursor` with a flat account of `cash`."""
        self.cursor = cursor
        self.done = False
        self.cash, self.shares, self.cost_basis, self.fee = cash, 0, 0.0, fee
        self.value = cash
        self.values = np.zeros(self.n_bars)
        self.values[cursor] = cash
        self.trades = []
        self._new_rows()

    def _new_rows(self) -> None:
        """Give the episode its own portfolio rows, flat at every bar, so the
        rows an earlier episode wrote stay as they were."""
        self._pf_rows = np.empty((self.n_bars, 3))
        self._pf_rows[:] = FLAT_ROW

    def _span(self, action: Action | int, length: int) -> float:
        """Trade `action` at the cursor's close, then mark each bar of the
        span (see _span_end) into `values` and the portfolio rows, as (cash,
        stock, unrealized) ratios, the last clamped to [-1, 1] as
        observations read it (portfolio.features); return the agent reward
        realized. A span never crosses a session close before its end, so
        cash and shares are fixed over it and the marks are one vector; one
        bar that sells nothing is marked on floats, with the same bytes. If
        the span ends its session the position is sold there, and that bar's
        row and value are the ones after the sale. A BUY at a session's final
        bar acts as HOLD, since it would be held overnight.
        """
        action = Action(action)
        decision, end = self.cursor, self._span_end(self.cursor, length)
        closes, timestamps = self.closes, self.timestamps
        price = float(closes[decision])
        reward = 0.0
        if action is Action.BUY and not self.session_last[decision]:
            cost, bought = buy_all(self.cash, price)
            if bought:
                self.cash -= cost
                self.shares += bought
                self.cost_basis += cost
                self.trades.append(TradeLogEntry(timestamps[decision], "buy", bought, price, 0.0))
        elif action is Action.SELL:
            sale = self._sell_all(price)
            if sale is not None:
                reward += agent_reward(sale.sell_price, sale.avg_cost)
                self.trades.append(
                    TradeLogEntry(timestamps[decision], "sell", sale.shares, price, reward))
        span = slice(decision + 1, end + 1)
        pf_rows, values = self._pf_rows, self.values
        sells = self.session_last[end] and self.shares > 0
        one_bar = end == decision + 1 and not sells
        values[span], *ratios = mark(self.cash, self.shares, self.cost_basis,
                                     float(closes[end]) if one_bar else closes[span])
        pf_rows[span, 0], pf_rows[span, 1], pf_rows[span, 2] = ratios
        if sells:
            end_price = float(closes[end])
            sale = self._sell_all(end_price)
            sale_reward = agent_reward(sale.sell_price, sale.avg_cost)
            reward += sale_reward
            self.trades.append(
                TradeLogEntry(timestamps[end], "sell", sale.shares, end_price, sale_reward))
            values[end], pf_rows[end, 0], pf_rows[end, 1], pf_rows[end, 2] = mark(
                self.cash, self.shares, self.cost_basis, end_price)
        features(pf_rows[span])
        self.value = float(values[end])
        self.cursor = end
        self.done = end == self.n_bars - 1
        return reward

    def _sell_all(self, price: float) -> SaleRecord | None:
        """Sell the whole position at `price` (see portfolio.sell_all). A sale
        whose fees leave no cash raises PortfolioError."""
        proceeds, sale = sell_all(self.shares, self.cost_basis, price, self.fee)
        if sale is not None:
            cash = self.cash + proceeds
            if not cash > 0:
                raise PortfolioError(f"portfolio value must stay positive, got {cash}")
            self.cash, self.shares, self.cost_basis = cash, 0, 0.0
        return sale


class TradingEnv(BaseBarEnv):
    """Episode over base bars with an all-in/all-out single position. Each
    step spans one bar of the agent's timeframe, truncated at its session's
    final bar."""

    def __init__(self, sessions: Sequence[Session], config: EnvConfig):
        if not sessions:
            raise EnvError("no sessions provided")
        super().__init__(sessions, (config.timeframe,))
        self.config = config
        self.length = config.timeframe.minutes
        self.table = self.tables[config.timeframe]
        self.min_cursor = min_agent_cursor(config.window_size, self.length)

    @property
    def observation_size(self) -> int:
        return self.config.observation_size

    def _new_rows(self) -> None:
        """Give the episode its own (n_bars, 8) rows, laid out as observations
        read them: the five market columns of the table, then the three
        portfolio columns, flat at every bar. `table` and `_pf_rows` are views
        of them."""
        rows = np.empty((self.n_bars, FEATURES_PER_BAR))
        rows[:, :MARKET_FEATURES] = self.tables[self.config.timeframe]
        rows[:, MARKET_FEATURES:] = FLAT_ROW
        self._rows, self.table, self._pf_rows = (
            rows, rows[:, :MARKET_FEATURES], rows[:, MARKET_FEATURES:])

    def rollout_store(self, n: int) -> "RolloutStore":
        """A store for `n` steps of this environment's observations that keeps
        keys, not copies (see RolloutStore and ppo.train)."""
        return RolloutStore(self, n)

    def reset(self, cursor: int | None = None) -> np.ndarray:
        """Start an episode with the cursor on a fully-warmed-up base bar.

        The default cursor is the earliest valid one. Raises when fewer than
        min_cursor + 1 bars of history precede the requested cursor, or when
        no bars remain to step through.
        """
        if cursor is None:
            cursor = self.min_cursor
        if cursor < self.min_cursor:
            raise EnvError(
                f"cursor {cursor} too early: need {self.min_cursor + 1} base bars of history "
                f"({self.config.window_size} {self.config.timeframe.label} bars after warmup)"
            )
        if cursor >= self.n_bars - 1:
            raise EnvError(
                f"cursor {cursor} leaves no bars to step through ({self.n_bars} bars total)"
            )
        self._open(cursor, self.config.initial_cash, self.config.fee_per_sell_share)
        return self._observation()

    def step(self, action: Action | int) -> StepResult:
        """Trade at the current bar close, advance one span, settle rewards."""
        if self.done:
            raise EnvError("step() called on a finished episode; call reset()")
        reward = self._span(action, self.length)
        return StepResult(self._observation(), reward, self.done, {})

    def _observation(self) -> np.ndarray:
        return build_observation(self.table, self._pf_rows, self.cursor,
                                 self.config.window_size, self.length)


class RolloutStore:
    """A rollout's observations of one TradingEnv, kept as keys: each step's
    decision cursor and the episode rows its observation was built from.

    Indexing rebuilds them with the bytes build_observation gave. Inside an
    episode that is exact: an observation reads only rows at or before its
    cursor, and `_span` writes only rows after it; each episode has rows of
    its own (`_new_rows`). A window of rows is gathered in one piece, and its
    volume column, the same in every episode, z-scored from a contiguous
    copy as normalize_market_window does.
    """

    def __init__(self, env: TradingEnv, n: int):
        self._env = env
        self._cursors = np.empty(n, dtype=np.intp)
        self._episodes = np.empty(n, dtype=np.intp)
        self._windows_of: list[np.ndarray] = []
        self._last_rows = None
        self._reach = (env.config.window_size - 1) * env.length
        volume = np.ascontiguousarray(env.tables[env.config.timeframe][:, 4])
        self._volumes = self._windows(volume)

    def _windows(self, rows: np.ndarray) -> np.ndarray:
        """View of every observation window of `rows`, by its first bar."""
        every = sliding_window_view(rows, self._reach + 1, axis=0)[..., ::self._env.length]
        return every if rows.ndim == 1 else every.transpose(0, 2, 1)

    def __setitem__(self, t: int, observation: np.ndarray) -> None:
        """Keep step t's observation, which must be the environment's latest.
        Setting step 0 starts a new rollout, so earlier episodes are let go."""
        env = self._env
        if t == 0:
            self._windows_of, self._last_rows = [], None
        if env._rows is not self._last_rows:
            self._last_rows = env._rows
            self._windows_of.append(self._windows(env._rows))
        self._cursors[t] = env.cursor
        self._episodes[t] = len(self._windows_of) - 1

    def __getitem__(self, index: np.ndarray) -> np.ndarray:
        """The observations of steps `index`: a C-contiguous float64
        (len(index), window * 8) array."""
        starts, episodes = self._cursors[index] - self._reach, self._episodes[index]
        first = episodes[0]
        if (episodes == first).all():
            return self._gather(self._windows_of[first], starts)
        out = np.empty((len(starts), self._env.observation_size))
        for e in np.unique(episodes):
            sel = episodes == e
            out[sel] = self._gather(self._windows_of[e], starts[sel])
        return out

    def _gather(self, windows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        x = windows[starts]
        _zscore_volume(self._volumes[starts], x[..., 4])
        return x.reshape(len(starts), -1)


class AgentRun(NamedTuple):
    """A greedy episode: (timestamp, portfolio value) at the start cursor and
    after every step, and how many steps asked greedy_action (see run_agent)."""

    equity: list
    fallbacks: int


def run_agent(env: TradingEnv, params: PolicyParameters, cursor: int) -> AgentRun:
    """Greedy episode of `params` over `env` from `cursor` to the last bar.

    It takes the same actions, and so leaves the same trades and equity, as
    stepping `env` with greedy_action on each observation. For a block of
    AGENT_BLOCK decisions, the observations are multiplied by the policy's
    whole first layer in one GEMM, with zeros for the portfolio rows the
    block itself will write; each step then adds those rows of its window
    times their rows of w1 (SplitGreedyPolicy). A step whose top two logits
    are too close for the rounding bound builds the full observation and
    asks greedy_action; `fallbacks` counts those.
    """
    if params.spec.input_dim != env.observation_size:
        raise EnvError(
            f"agent network expects input {params.spec.input_dim}, "
            f"environment produces {env.observation_size}"
        )
    env.reset(cursor)
    w, length = env.config.window_size, env.length
    w1 = params.arrays["policy_w1"]
    portfolio_inputs = np.arange(env.observation_size) % FEATURES_PER_BAR >= MARKET_FEATURES
    policy = SplitGreedyPolicy(params, portfolio_inputs)
    fallbacks = 0
    # Span ends do not depend on actions, so every decision cursor is known
    # now. A run of cursors one timeframe bar apart shares a phase, and its
    # windows are consecutive windows of that phase's rows; the decision at
    # phase row s writes the portfolio row s + 1.
    cursors = [cursor]
    while (end := env._span_end(cursors[-1], length)) < env.n_bars - 1:
        cursors.append(end)
    cursors = np.array(cursors)
    for run in np.split(cursors, np.flatnonzero(np.diff(cursors) != length) + 1):
        phase = slice(run[0] % length, None, length)
        table, pf = env.table[phase], env._pf_rows[phase]
        first = run[0] // length
        for lo in range(0, run.size, AGENT_BLOCK):
            b, s0 = min(AGENT_BLOCK, run.size - lo), first + lo
            rows = slice(s0 - w + 1, s0 + b)
            x = np.empty((b, w, FEATURES_PER_BAR))
            x[..., :MARKET_FEATURES] = normalize_market_window(
                sliding_window_view(table[rows], w, axis=0).transpose(0, 2, 1))
            # Rows up to s0 are final when the block starts; later ones are
            # added per step.
            known = np.zeros((w + b - 1, 3))
            known[:w] = pf[s0 - w + 1:s0 + 1]
            x[..., MARKET_FEATURES:] = sliding_window_view(known, w, axis=0).transpose(0, 2, 1)
            x = x.reshape(b, -1)
            z, norms = x @ w1, np.abs(x).sum(axis=1).tolist()
            for i in range(b):
                late = pf[s0 + 1 + max(i - w, 0):s0 + i + 1]
                action = policy.action(z[i], norms[i], late.reshape(-1))
                if action is None:
                    action = greedy_action(params, env._observation())
                    fallbacks += 1
                env._span(action, length)
    points = np.append(cursors, env.cursor)
    equity = list(zip(map(env.timestamps.__getitem__, points), map(float, env.values[points])))
    return AgentRun(equity, fallbacks)
