"""Performance metrics, benchmark strategies, and the volatility-quartile
allocation analysis.

Sharpe convention: simple period returns at the granularity of the input
curve, sample standard deviation, a zero risk-free rate, annualized by
sqrt(periods_per_year). Zero-variance return series have no defined Sharpe
and yield None.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from datetime import datetime
from itertools import chain
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import AlloctraderError
from .atomic import atomic_write, write_csv, write_json
from .market_data import Session, TIMEFRAME_ORDER

logger = logging.getLogger(__name__)

GRANULARITIES = ("monthly", "daily", "hourly")


class EvaluationError(AlloctraderError, ValueError):
    """Bad metric input: too few points, unknown granularity, bad values."""


@dataclass(frozen=True)
class EquityCurve:
    """Portfolio value sampled over time; values positive, times increasing."""

    timestamps: tuple[datetime, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if len(self.timestamps) != self.values.size:
            raise EvaluationError("timestamps and values differ in length")
        if self.values.size and not (self.values > 0).all():
            raise EvaluationError("equity values must be positive")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if b <= a:
                raise EvaluationError(f"timestamps not strictly increasing at {b}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[datetime, float]]) -> "EquityCurve":
        pairs = list(pairs)
        return cls(tuple(p[0] for p in pairs), np.array([p[1] for p in pairs]))

    def __len__(self) -> int:
        return self.values.size


def cumulative_return(curve: EquityCurve) -> float:
    """Total gain over the curve as a percentage of the starting value."""
    values = curve.values
    if values.size < 2:
        raise EvaluationError(f"cumulative_return needs >= 2 points, got {values.size}")
    return float((values[-1] - values[0]) / values[0] * 100.0)


def sharpe(curve: EquityCurve, periods_per_year: float) -> float | None:
    """Annualized Sharpe ratio of the curve's period returns, or None when
    the returns have zero variance (no defined signal)."""
    values = curve.values
    if values.size < 3:
        raise EvaluationError(f"sharpe needs >= 3 points, got {values.size}")
    if not periods_per_year > 0:
        raise EvaluationError(f"periods_per_year must be positive, got {periods_per_year}")
    returns = np.diff(values) / values[:-1]
    std = float(returns.std(ddof=1))
    if std == 0.0:
        return None
    return float(returns.mean() / std * np.sqrt(periods_per_year))


def max_drawdown(curve: EquityCurve) -> float:
    """Largest peak-to-trough decline, as a non-positive percentage."""
    values = curve.values
    if values.size < 2:
        raise EvaluationError(f"max_drawdown needs >= 2 points, got {values.size}")
    peaks = np.maximum.accumulate(values)
    return float(((values - peaks) / peaks).min() * 100.0)


#: Return windows per block of trailing_volatility_pct (about 1 MB at 30).
VOLATILITY_BLOCK = 4096


def _std_pct(returns: np.ndarray, out: np.ndarray, centered: np.ndarray) -> None:
    """Write 100 times the sample standard deviation of each row of
    contiguous (..., n) `returns` into `out`, with `centered` (shaped as
    `returns`) as scratch: the arithmetic of np.std(ddof=1), step for step,
    so a row's pairwise sums are those of the row alone."""
    n = returns.shape[-1]
    np.subtract(returns, np.add.reduce(returns, axis=-1, keepdims=True) / n, out=centered)
    np.multiply(centered, centered, out=centered)
    np.add.reduce(centered, axis=-1, out=out)
    out /= n - 1
    np.sqrt(out, out=out)
    out *= 100.0


def return_volatility_pct(closes) -> float:
    """Sample standard deviation of simple per-bar returns, times 100: the
    volatility `analyze` ranks quartiles by and the allocator observes."""
    closes = np.asarray(closes, dtype=np.float64)
    if closes.size < 3:
        raise EvaluationError(f"volatility needs >= 3 closes, got {closes.size}")
    returns = np.diff(closes) / closes[:-1]
    out = np.empty(())
    _std_pct(returns, out, np.empty_like(returns))
    return float(out)


def trailing_volatility_pct(closes: np.ndarray, window: int) -> np.ndarray:
    """return_volatility_pct(closes[b - window:b + 1]) at every bar b, with
    the same bytes; NaN for the first `window` bars, which lack the history.
    The windows are copied contiguous, VOLATILITY_BLOCK at a time, into one
    buffer that every block reuses, as is the scratch of _std_pct."""
    returns = np.diff(closes) / closes[:-1]
    out = np.full(closes.size, np.nan)
    windows = sliding_window_view(returns, window)
    block = np.empty((min(VOLATILITY_BLOCK, len(windows)), window))
    scratch = np.empty_like(block)
    for lo in range(0, len(windows), VOLATILITY_BLOCK):
        part = windows[lo:lo + VOLATILITY_BLOCK]
        np.copyto(block[:len(part)], part)
        _std_pct(block[:len(part)], out[window + lo:window + lo + len(part)],
                 scratch[:len(part)])
    return out


def buy_and_hold(sessions: Sequence[Session], initial_cash: float) -> EquityCurve:
    """All-in integer-share purchase at the first bar close, held throughout.

    Residual cash that cannot buy a whole share stays in the portfolio, so
    the curve starts at initial_cash and marks shares at every base close.
    """
    if not sessions or not len(sessions[0]):
        raise EvaluationError("buy_and_hold needs non-empty data")
    if not initial_cash > 0:
        raise EvaluationError(f"initial_cash must be positive, got {initial_cash}")
    first_close = float(sessions[0].close[0])
    shares = int(initial_cash // first_close)
    residual = initial_cash - shares * first_close
    closes = np.concatenate([s.close for s in sessions])
    timestamps = tuple(chain.from_iterable(s.timestamps for s in sessions))
    return EquityCurve(timestamps, residual + float(shares) * closes)


@dataclass(frozen=True)
class MetricsReport:
    """Headline backtest numbers plus the annualization used for Sharpe."""

    cumulative_return_pct: float
    sharpe: float | None
    max_drawdown_pct: float
    periods_per_year: float

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        sharpe_text = "undefined (zero variance)" if self.sharpe is None else f"{self.sharpe:.4f}"
        return (
            f"cumulative return : {self.cumulative_return_pct:.2f}%\n"
            f"sharpe ratio      : {sharpe_text} (annualized, {self.periods_per_year:g} periods/yr)\n"
            f"max drawdown      : {self.max_drawdown_pct:.2f}%\n"
        )


def compute_metrics(curve: EquityCurve, periods_per_year: float) -> MetricsReport:
    return MetricsReport(
        cumulative_return_pct=cumulative_return(curve),
        sharpe=sharpe(curve, periods_per_year),
        max_drawdown_pct=max_drawdown(curve),
        periods_per_year=periods_per_year,
    )


def write_equity_csv(curve: EquityCurve, path: str) -> None:
    """Write the curve as `timestamp,value` CSV rows (ISO-8601, `repr`), one
    point at a time, so no list of the values is built."""
    write_csv(path, ("timestamp", "value"),
              zip(map(datetime.isoformat, curve.timestamps), map(float, curve.values)))


# ---------------------------------------------------------------------------
# Quartile allocation analysis
# ---------------------------------------------------------------------------


def _unit_key(ts: datetime, granularity: str):
    """The calendar unit of `ts`; `granularity` is one of GRANULARITIES."""
    if granularity == "monthly":
        return (ts.year, ts.month)
    if granularity == "daily":
        return ts.date()
    return (ts.date(), ts.hour)


@dataclass(frozen=True)
class QuartileStats:
    """One volatility quartile: its units and mean selection share per
    timeframe (TIMEFRAME_ORDER)."""

    units: int
    vol_min: float
    vol_max: float
    shares: tuple[float, float, float]


@dataclass(frozen=True)
class QuartileAllocationReport:
    granularity: str
    quartiles: tuple[QuartileStats, ...]

    def to_json_dict(self) -> dict:
        return {
            "granularity": self.granularity,
            "quartiles": [
                {
                    "quartile": i,
                    "units": q.units,
                    "vol_min": q.vol_min,
                    "vol_max": q.vol_max,
                    "shares": {tf.label: q.shares[j] for j, tf in enumerate(TIMEFRAME_ORDER)},
                }
                for i, q in enumerate(self.quartiles)
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"agent selection share by {self.granularity} volatility quartile",
            f"{'quartile':>8} {'units':>6} {'vol range':>19} "
            + " ".join(f"{tf.label:>8}" for tf in TIMEFRAME_ORDER),
        ]
        for i, q in enumerate(self.quartiles):
            shares = " ".join(f"{s:8.4f}" for s in q.shares)
            lines.append(
                f"{i:>8} {q.units:>6} {q.vol_min:9.4f}-{q.vol_max:9.4f} {shares}"
            )
        return "\n".join(lines) + "\n"

    def to_plot_csv(self, path: str) -> None:
        write_csv(path, ("quartile", "units", "vol_min", "vol_max",
                         *(f"share_{tf.label}" for tf in TIMEFRAME_ORDER)),
                  ((i, q.units, q.vol_min, q.vol_max, *q.shares)
                   for i, q in enumerate(self.quartiles)))


def quartile_allocation(
    decisions: Sequence, sessions: Sequence[Session], granularity: str
) -> QuartileAllocationReport:
    """Group decisions into calendar units, rank units by realized volatility,
    split into 4 near-equal quartiles (ties broken chronologically), and
    average each unit's per-timeframe selection shares within its quartile.

    `decisions` needs `.timestamp` and `.timeframe` attributes per record.
    Units with fewer than 3 market closes are skipped with a warning.
    """
    if granularity not in GRANULARITIES:
        raise EvaluationError(
            f"granularity must be one of {GRANULARITIES}, got {granularity!r}"
        )
    closes_by_unit: dict = {}
    for session in sessions:
        for ts, close in zip(session.timestamps, session.close.tolist()):
            closes_by_unit.setdefault(_unit_key(ts, granularity), []).append(close)
    counts_by_unit: dict = {}
    for d in decisions:
        key = _unit_key(d.timestamp, granularity)
        counts = counts_by_unit.setdefault(key, [0, 0, 0])
        counts[TIMEFRAME_ORDER.index(d.timeframe)] += 1
    units = []
    for key in sorted(counts_by_unit):
        closes = closes_by_unit.get(key, [])
        if len(closes) < 3:
            logger.warning("skipping unit %s: only %d closes", key, len(closes))
            continue
        counts = counts_by_unit[key]
        total = sum(counts)
        shares = tuple(c / total for c in counts)
        units.append((return_volatility_pct(closes), key, shares))
    if len(units) < 4:
        raise EvaluationError(f"quartile analysis needs >= 4 units, got {len(units)}")
    units.sort(key=lambda u: (u[0], u[1]))
    quartiles = []
    for chunk in np.array_split(np.arange(len(units)), 4):
        group = [units[i] for i in chunk]
        share_matrix = np.array([u[2] for u in group])
        mean_shares = share_matrix.mean(axis=0)
        vols = [u[0] for u in group]
        quartiles.append(
            QuartileStats(
                units=len(group),
                vol_min=min(vols),
                vol_max=max(vols),
                shares=tuple(float(s) for s in mean_shares),
            )
        )
    return QuartileAllocationReport(granularity=granularity, quartiles=tuple(quartiles))


def annualization_factor(timestamps: Sequence[datetime]) -> float:
    """Periods-per-year factor for a curve sampled at `timestamps`: 252
    sessions a year times the median number of points per calendar day."""
    if not timestamps:
        raise EvaluationError("annualization_factor needs at least one timestamp")
    counts: dict = {}
    for ts in timestamps:
        counts[ts.date()] = counts.get(ts.date(), 0) + 1
    return float(252.0 * float(np.median(sorted(counts.values()))))


def write_metrics(report: MetricsReport, seed: int, json_path: str,
                  text_path: str | None = None) -> None:
    """The metrics as JSON, tagged with the run's `seed`, and optionally as text."""
    write_json(json_path, {**report.to_json_dict(), "seed": seed})
    if text_path is not None:
        with atomic_write(text_path) as fh:
            fh.write(report.to_text())
