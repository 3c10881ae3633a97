"""Reference observation builders: the per-call path that the environments
replaced with columns computed once.

Here every observation scales the raw indicator rows again (RSI / 100,
MACD / close, CCI / 200), clamps a copy of the portfolio rows on read and
recomputes the allocator's realized volatility from its window of closes.
The environments now hold scaled tables, write clamped portfolio rows when
they mark the account and look the volatility up per bar; the tests check
that every observation keeps its bytes.
"""

from __future__ import annotations

import numpy as np

from alloctrader.envs import (
    CCI_DIVISOR, FEATURES_PER_BAR, MARKET_FEATURES, RSI_DIVISOR, trailing_table,
)
from alloctrader.market_data import TIMEFRAME_ORDER


def raw_table(sessions, length: int) -> np.ndarray:
    """The unscaled trailing_table of `sessions` laid end to end."""
    return trailing_table(*(np.concatenate([getattr(s, k) for s in sessions], dtype=np.float64)
                            for k in ("high", "low", "close", "volume")), length)


def scaled_rows(rows: np.ndarray, closes: np.ndarray) -> np.ndarray:
    """Raw feature rows with the per-bar scaling of normalize_market_window."""
    out = rows.copy()
    out[:, 0] = rows[:, 0] / RSI_DIVISOR
    out[:, 1] = rows[:, 1] / closes
    out[:, 2] = rows[:, 2] / CCI_DIVISOR
    return out


def normalize_market_window(feature_rows: np.ndarray, closes: np.ndarray) -> np.ndarray:
    """Normalize a (window, 5) block of raw feature rows: RSI / 100, MACD
    histogram / the bar's own close, CCI / 200, %B as-is, volume z-scored
    within the window (0 when constant)."""
    out = np.empty(feature_rows.shape)
    out[..., 0] = feature_rows[..., 0] / RSI_DIVISOR
    out[..., 1] = feature_rows[..., 1] / closes
    out[..., 2] = feature_rows[..., 2] / CCI_DIVISOR
    out[..., 3] = feature_rows[..., 3]
    vol = np.ascontiguousarray(feature_rows[..., 4])
    n = vol.shape[-1]
    centered = vol - np.add.reduce(vol, axis=-1, keepdims=True) / n
    sd = np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / n)
    out[..., 4] = 0.0
    np.divide(centered, sd, out=out[..., 4], where=sd > 0)
    return out


def features(rows: np.ndarray) -> np.ndarray:
    """A copy of (n, 3) portfolio rows with the profit ratio clamped to [-1, 1]."""
    out = rows.copy()
    np.clip(out[:, 2], -1.0, 1.0, out=out[:, 2])
    return out


def return_volatility_pct(closes: np.ndarray) -> float:
    """Sample standard deviation of simple per-bar returns, times 100."""
    closes = np.asarray(closes, dtype=np.float64)
    returns = np.diff(closes) / closes[:-1]
    return float(returns.std(ddof=1) * 100.0)


def build_observation(table: np.ndarray, closes: np.ndarray, pf_rows: np.ndarray,
                      cursor: int, window: int, length: int) -> np.ndarray:
    """Agent observation at base bar `cursor` from a raw trailing table."""
    s = slice(cursor - (window - 1) * length, cursor + 1, length)
    out = np.empty((window, FEATURES_PER_BAR))
    out[:, :MARKET_FEATURES] = normalize_market_window(table[s], closes[s])
    out[:, MARKET_FEATURES:] = features(pf_rows[s])
    return out.reshape(-1)


def allocator_observation(env, table_1m: np.ndarray) -> np.ndarray:
    """A HierarchyEnv's allocator observation at its cursor, from the raw 1m
    trailing table `table_1m`."""
    b = env.cursor
    window = slice(b - env.config.market_window + 1, b + 1)
    market = normalize_market_window(table_1m[window], env.closes[window])
    realized_vol = return_volatility_pct(env.closes[b - env.config.vol_window: b + 1])
    last_rewards = [env._last_rewards[tf] for tf in TIMEFRAME_ORDER]
    onehot = [1.0 if env._last_active is tf else 0.0 for tf in TIMEFRAME_ORDER]
    return np.concatenate([market.reshape(-1), features(env._pf_rows[b:b + 1])[0],
                           [realized_vol], last_rewards, onehot])

