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


def _rsi_and_macd(
    closes: np.ndarray, period: int = 14, fast: int = 12, slow: int = 26, signal: int = 9
) -> tuple[np.ndarray, np.ndarray]:
    """Wilder RSI(period) and MACD histogram(fast/slow/signal) in one pass.

    The loop reads and writes the arrays through memoryviews, which hand out
    and take Python floats. Python float arithmetic rounds exactly as numpy
    float64 scalar arithmetic does, so every value takes the same binary64
    operations, in the same order, as separate per-indicator loops over
    numpy scalars, at a fraction of their cost per bar. The Wilder averages
    are seeded with the mean of the first `period` gains and losses. The
    EMAs are seeded with the first close; their incremental form keeps
    constant series exact. RSI is NaN before index `period`, and the
    histogram before index slow + signal - 1.
    """
    closes = np.asarray(closes, dtype=np.float64)
    n = closes.size
    rsi = np.full(n, np.nan)
    hist = np.empty(n)
    if n == 0:
        return rsi, hist
    if n > period:
        deltas = np.diff(closes[: period + 1])
        avg_gain = float(np.where(deltas > 0, deltas, 0.0).mean())
        avg_loss = float(np.where(deltas < 0, -deltas, 0.0).mean())
    keep = period - 1
    a_fast = 2.0 / (fast + 1.0)
    a_slow = 2.0 / (slow + 1.0)
    a_signal = 2.0 / (signal + 1.0)
    values, rsi_out, hist_out = memoryview(closes), memoryview(rsi), memoryview(hist)
    prev = ema_fast = ema_slow = values[0]
    ema_signal = macd = ema_fast - ema_slow
    hist_out[0] = macd - ema_signal
    for i in range(1, n):
        close = values[i]
        ema_fast += a_fast * (close - ema_fast)
        ema_slow += a_slow * (close - ema_slow)
        macd = ema_fast - ema_slow
        ema_signal += a_signal * (macd - ema_signal)
        hist_out[i] = macd - ema_signal
        delta = close - prev
        prev = close
        if i < period:
            continue
        if i > period:
            avg_gain = (avg_gain * keep + (delta if delta > 0 else 0.0)) / period
            avg_loss = (avg_loss * keep + (-delta if delta < 0 else 0.0)) / period
        # Degenerate cases exactly: no losses with gains -> 100, fully flat -> 50.
        if avg_loss == 0.0:
            rsi_out[i] = 100.0 if avg_gain > 0.0 else 50.0
        else:
            rsi_out[i] = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    # The signal line has not seen a full window before slow + signal - 1.
    hist[: slow + signal - 1] = np.nan
    return rsi, hist


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
    if not len(closes):
        return np.empty((0, len(FEATURE_COLUMNS)))
    rsi, macd_histogram = _rsi_and_macd(closes)
    return np.column_stack(
        [
            rsi,
            macd_histogram,
            rolling_cci(highs, lows, closes),
            rolling_pband(closes),
            np.asarray(volumes, dtype=np.float64),
        ]
    )
