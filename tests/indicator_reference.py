"""Reference indicators: the per-indicator loops that the one-pass RSI/MACD
replaced, and the brute-force oracles both are checked against.

`rolling_rsi`, `rolling_macd_histogram` and `_ema` are the numpy-scalar
loops that `alloctrader.indicators` ran before RSI and MACD shared one pass
over Python floats; the one-pass form must reproduce them bit for bit.
`reference_feature_table` assembles them with the production CCI and %B,
which did not change. The `oracle_*` functions are independent list-based
reimplementations, compared with a tolerance.
"""

from __future__ import annotations

import numpy as np

from alloctrader.indicators import FEATURE_COLUMNS, rolling_cci, rolling_pband


def _rsi_from_averages(avg_gain: float, avg_loss: float) -> float:
    # Degenerate cases exactly: no losses with gains -> 100, fully flat -> 50.
    if avg_loss == 0.0:
        return 100.0 if avg_gain > 0.0 else 50.0
    rs = avg_gain / avg_loss
    return 100.0 - 100.0 / (1.0 + rs)


def rolling_rsi(closes: np.ndarray, period: int = 14) -> np.ndarray:
    """Wilder-smoothed RSI per bar; NaN before index `period`."""
    closes = np.asarray(closes, dtype=np.float64)
    n = closes.size
    out = np.full(n, np.nan)
    if n < period + 1:
        return out
    deltas = np.diff(closes)
    gains = np.where(deltas > 0, deltas, 0.0)
    losses = np.where(deltas < 0, -deltas, 0.0)
    avg_gain = float(gains[:period].mean())
    avg_loss = float(losses[:period].mean())
    out[period] = _rsi_from_averages(avg_gain, avg_loss)
    for i in range(period, n - 1):
        avg_gain = (avg_gain * (period - 1) + gains[i]) / period
        avg_loss = (avg_loss * (period - 1) + losses[i]) / period
        out[i + 1] = _rsi_from_averages(avg_gain, avg_loss)
    return out


def _ema(values: np.ndarray, period: int) -> np.ndarray:
    # Seeded with the first value; incremental form keeps constant series exact.
    alpha = 2.0 / (period + 1.0)
    out = np.empty(values.size)
    acc = float(values[0])
    out[0] = acc
    for i in range(1, values.size):
        acc += alpha * (float(values[i]) - acc)
        out[i] = acc
    return out


def rolling_macd_histogram(
    closes: np.ndarray, fast: int = 12, slow: int = 26, signal: int = 9
) -> np.ndarray:
    """MACD histogram (MACD line minus signal line) per bar.

    EMAs are seeded with the first close. Values before index
    slow + signal - 1 are NaN: the signal line has not seen a full window.
    """
    closes = np.asarray(closes, dtype=np.float64)
    n = closes.size
    if n == 0:
        return np.empty(0)
    macd = _ema(closes, fast) - _ema(closes, slow)
    hist = macd - _ema(macd, signal)
    hist[: min(n, slow + signal - 1)] = np.nan
    return hist


def reference_feature_table(highs, lows, closes, volumes) -> np.ndarray:
    """feature_table built from the reference RSI and MACD loops."""
    if not len(closes):
        return np.empty((0, len(FEATURE_COLUMNS)))
    return np.column_stack([
        rolling_rsi(closes),
        rolling_macd_histogram(closes),
        rolling_cci(highs, lows, closes),
        rolling_pband(closes),
        np.asarray(volumes, dtype=np.float64),
    ])


def oracle_rsi(closes, period=14):
    """Wilder smoothing written out step by step, at the last bar."""
    deltas = [closes[i + 1] - closes[i] for i in range(len(closes) - 1)]
    gains = [max(d, 0.0) for d in deltas]
    losses = [max(-d, 0.0) for d in deltas]
    avg_gain = sum(gains[:period]) / period
    avg_loss = sum(losses[:period]) / period
    for gain, loss in zip(gains[period:], losses[period:]):
        avg_gain = (avg_gain * (period - 1) + gain) / period
        avg_loss = (avg_loss * (period - 1) + loss) / period
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


def oracle_ema(values, period):
    """EMA of a list, seeded with its first value."""
    alpha = 2.0 / (period + 1)
    out = [values[0]]
    for v in values[1:]:
        out.append(out[-1] + alpha * (v - out[-1]))
    return out


def oracle_macd_hist(closes, fast=12, slow=26, signal=9):
    """MACD histogram at the last bar."""
    macd = [f - s for f, s in zip(oracle_ema(closes, fast), oracle_ema(closes, slow))]
    return macd[-1] - oracle_ema(macd, signal)[-1]
