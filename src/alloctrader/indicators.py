"""Technical feature computation over bar series.

Five market features feed every agent observation, in fixed column order:
RSI(14), MACD histogram(12/26/9), CCI(20), Bollinger %B(20, 2 sigma), volume.

Degenerate-input conventions are part of the contract and hold exactly:
constant closes give RSI 50, MACD histogram 0, CCI 0 and %B 0.5.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: First zero-based bar index at which all five features are defined:
#: the MACD signal line needs slow (26) plus signal (9) bars, minus one.
FEATURE_WARMUP = 34

FEATURE_COLUMNS = ("rsi", "macd_histogram", "cci", "pband", "volume")


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


def rolling_cci(
    highs: np.ndarray, lows: np.ndarray, closes: np.ndarray, period: int = 20
) -> np.ndarray:
    """Commodity Channel Index per bar; NaN before index period - 1.

    A window with zero mean absolute deviation (all typical prices equal)
    yields 0.0 rather than a division error.
    """
    tp = (np.asarray(highs, dtype=np.float64)
          + np.asarray(lows, dtype=np.float64)
          + np.asarray(closes, dtype=np.float64)) / 3.0
    n = tp.size
    out = np.full(n, np.nan)
    if n < period:
        return out
    w = sliding_window_view(tp, period)
    sma = w.mean(axis=1)
    dev = w - sma[:, None]
    md = np.abs(dev, out=dev).mean(axis=1)
    flat = (w.max(axis=1) == w.min(axis=1)) | (md == 0.0)
    vals = np.zeros(sma.size)
    ok = ~flat
    vals[ok] = (tp[period - 1:][ok] - sma[ok]) / (0.015 * md[ok])
    out[period - 1:] = vals
    return out


def rolling_pband(closes: np.ndarray, period: int = 20, width: float = 2.0) -> np.ndarray:
    """Bollinger %B per bar (SMA +/- width population sigmas); NaN before
    index period - 1. Zero band width yields the midline value 0.5."""
    closes = np.asarray(closes, dtype=np.float64)
    n = closes.size
    out = np.full(n, np.nan)
    if n < period:
        return out
    w = sliding_window_view(closes, period)
    sma = w.mean(axis=1)
    sd = w.std(axis=1)
    flat = (w.max(axis=1) == w.min(axis=1)) | (sd == 0.0)
    last = closes[period - 1:]
    lower = sma - width * sd
    upper = sma + width * sd
    vals = np.full(sma.size, 0.5)
    ok = ~flat
    vals[ok] = (last[ok] - lower[ok]) / (upper[ok] - lower[ok])
    out[period - 1:] = vals
    return out


def feature_table(
    highs: np.ndarray, lows: np.ndarray, closes: np.ndarray, volumes: np.ndarray
) -> np.ndarray:
    """Per-bar feature matrix (N, 5) in FEATURE_COLUMNS order.

    Rows before FEATURE_WARMUP contain NaN in at least one indicator column
    and must not be consumed.
    """
    n = len(closes)
    matrix = np.column_stack(
        [
            rolling_rsi(closes),
            rolling_macd_histogram(closes),
            rolling_cci(highs, lows, closes),
            rolling_pband(closes),
            np.asarray(volumes, dtype=np.float64),
        ]
    ) if n else np.empty((0, len(FEATURE_COLUMNS)))
    return matrix
