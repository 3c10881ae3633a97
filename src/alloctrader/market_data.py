"""OHLCV market data handling: bar/session types, CSV ingestion, resampling,
and a regime-switching synthetic minute-bar generator.

All timestamps are timezone-normalized to UTC. A bar's timestamp marks the
start of its one-minute interval, so a 09:30-16:00 session holds bars
stamped 09:30 through 15:59 (390 bars).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .atomic import atomic_write

CSV_HEADER = ("timestamp", "open", "high", "low", "close", "volume")


class MarketDataError(ValueError):
    """Invalid market data (bad bar, malformed file row, bad configuration)."""


class EmptyDataError(MarketDataError):
    """A data file contained no rows at all."""


class Timeframe(Enum):
    """Bar duration an agent operates at, as a number of base minutes."""

    ONE_MINUTE = 1
    TEN_MINUTE = 10
    ONE_HOUR = 60

    @property
    def minutes(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        return _TF_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "Timeframe":
        for tf, name in _TF_LABELS.items():
            if name == label:
                return tf
        raise MarketDataError(f"unknown timeframe label: {label!r}")


_TF_LABELS = {
    Timeframe.ONE_MINUTE: "1m",
    Timeframe.TEN_MINUTE: "10m",
    Timeframe.ONE_HOUR: "1h",
}

#: Timeframes in canonical (fastest-first) order, used for registry layout.
TIMEFRAME_ORDER = (Timeframe.ONE_MINUTE, Timeframe.TEN_MINUTE, Timeframe.ONE_HOUR)


def _as_utc(ts: datetime) -> datetime:
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass(frozen=True)
class Bar:
    """One OHLCV candle. Prices strictly positive, low <= open,close <= high."""

    timestamp: datetime
    open: float
    high: float
    low: float
    close: float
    volume: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamp", _as_utc(self.timestamp))
        if self.timestamp.second or self.timestamp.microsecond:
            raise MarketDataError(f"bar timestamp not minute-aligned: {self.timestamp}")
        for name in ("open", "high", "low", "close"):
            p = getattr(self, name)
            if not (math.isfinite(p) and p > 0):
                raise MarketDataError(f"non-positive {name} price: {p}")
        if not (self.low <= self.open <= self.high and self.low <= self.close <= self.high):
            raise MarketDataError(
                f"OHLC ordering violated at {self.timestamp}: "
                f"o={self.open} h={self.high} l={self.low} c={self.close}"
            )
        if not isinstance(self.volume, (int, np.integer)) or self.volume < 0:
            raise MarketDataError(f"volume must be a non-negative integer, got {self.volume!r}")
        object.__setattr__(self, "volume", int(self.volume))


@dataclass(frozen=True)
class Session:
    """One trading day of base-resolution (1-minute) bars.

    Bars are strictly increasing in timestamp and lie inside
    [open_time, close_time).
    """

    day: date
    open_time: datetime
    close_time: datetime
    bars: tuple[Bar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "open_time", _as_utc(self.open_time))
        object.__setattr__(self, "close_time", _as_utc(self.close_time))
        object.__setattr__(self, "bars", tuple(self.bars))
        if self.open_time >= self.close_time:
            raise MarketDataError(f"session {self.day}: open_time >= close_time")
        prev = None
        for bar in self.bars:
            if not (self.open_time <= bar.timestamp < self.close_time):
                raise MarketDataError(
                    f"session {self.day}: bar {bar.timestamp} outside session hours"
                )
            if prev is not None and bar.timestamp <= prev:
                raise MarketDataError(
                    f"session {self.day}: timestamps not strictly increasing at {bar.timestamp}"
                )
            prev = bar.timestamp

    def __len__(self) -> int:
        return len(self.bars)


@dataclass(frozen=True)
class TradingCalendar:
    """Maps trading days to their (open, close) instants, both UTC."""

    days: dict[date, tuple[datetime, datetime]]

    @classmethod
    def weekdays(
        cls,
        start: date,
        end: date,
        open_time: time = time(9, 30),
        close_time: time = time(16, 0),
    ) -> "TradingCalendar":
        """Calendar of all Mon-Fri days in [start, end] with fixed hours."""
        days = {}
        d = start
        while d <= end:
            if d.weekday() < 5:
                days[d] = (
                    datetime.combine(d, open_time, tzinfo=timezone.utc),
                    datetime.combine(d, close_time, tzinfo=timezone.utc),
                )
            d += timedelta(days=1)
        return cls(days)

    @classmethod
    def from_sessions(cls, sessions: Sequence[Session]) -> "TradingCalendar":
        return cls({s.day: (s.open_time, s.close_time) for s in sessions})

    @classmethod
    def from_file(cls, path: str) -> "TradingCalendar":
        """Read a calendar file with lines `YYYY-MM-DD,HH:MM,HH:MM`."""
        days = {}
        with open(path, newline="") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise MarketDataError(f"calendar {path} line {lineno}: expected 3 fields")
                try:
                    d = date.fromisoformat(parts[0].strip())
                    o = time.fromisoformat(parts[1].strip())
                    c = time.fromisoformat(parts[2].strip())
                except ValueError as exc:
                    raise MarketDataError(f"calendar {path} line {lineno}: {exc}") from exc
                days[d] = (
                    datetime.combine(d, o, tzinfo=timezone.utc),
                    datetime.combine(d, c, tzinfo=timezone.utc),
                )
        if not days:
            raise EmptyDataError(f"calendar file {path} lists no trading days")
        return cls(days)

    def to_file(self, path: str) -> None:
        with atomic_write(path, newline="") as fh:
            for d in sorted(self.days):
                o, c = self.days[d]
                fh.write(f"{d.isoformat()},{o.strftime('%H:%M')},{c.strftime('%H:%M')}\n")

    def locate(self, ts: datetime) -> date | None:
        """Trading day whose session hours contain ts, or None."""
        ts = _as_utc(ts)
        hours = self.days.get(ts.date())
        if hours is None:
            return None
        o, c = hours
        return ts.date() if o <= ts < c else None


@dataclass(frozen=True)
class IngestResult:
    sessions: tuple[Session, ...]
    dropped_rows: int


def _parse_timestamp(text: str) -> datetime:
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    return _as_utc(datetime.fromisoformat(cleaned))


def ingest_csv(path: str, calendar: TradingCalendar) -> IngestResult:
    """Read an OHLCV CSV into per-day sessions.

    The file must carry the header ``timestamp,open,high,low,close,volume``.
    Rows falling outside the calendar's session hours are dropped and counted;
    any malformed row (bad number, OHLC violation, bad timestamp) rejects the
    whole file with its row number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        if tuple(h.strip().lower() for h in header) != CSV_HEADER:
            raise MarketDataError(
                f"{path}: expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
            )
        by_day: dict[date, list[Bar]] = {}
        dropped = 0
        rows = 0
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            rows += 1
            if len(row) != 6:
                raise MarketDataError(f"{path} row {lineno}: expected 6 fields, got {len(row)}")
            try:
                ts = _parse_timestamp(row[0])
                o, h, l, c = (float(v) for v in row[1:5])
                vol_f = float(row[5])
                if vol_f != int(vol_f):
                    raise ValueError(f"fractional volume {row[5]}")
                bar = Bar(ts, o, h, l, c, int(vol_f))
            except (ValueError, MarketDataError) as exc:
                raise MarketDataError(f"{path} row {lineno}: {exc}") from exc
            day = calendar.locate(bar.timestamp)
            if day is None:
                dropped += 1
                continue
            by_day.setdefault(day, []).append(bar)
    if rows == 0:
        raise EmptyDataError(f"{path}: no data rows")
    sessions = []
    for day in sorted(by_day):
        o, c = calendar.days[day]
        bars = sorted(by_day[day], key=lambda b: b.timestamp)
        for a, b in zip(bars, bars[1:]):
            if a.timestamp == b.timestamp:
                raise MarketDataError(f"{path}: duplicate timestamp {a.timestamp} on {day}")
        sessions.append(Session(day, o, c, tuple(bars)))
    return IngestResult(tuple(sessions), dropped)


def write_sessions_csv(sessions: Iterable[Session], path: str) -> None:
    """Serialize sessions to CSV so that re-ingesting reproduces them exactly.

    Prices use shortest round-trip decimal form (`repr`), timestamps ISO-8601.
    """
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for session in sessions:
            for b in session.bars:
                writer.writerow(
                    [b.timestamp.isoformat(), repr(b.open), repr(b.high),
                     repr(b.low), repr(b.close), b.volume]
                )


def resample_bars(bars: Sequence[Bar], bars_per_window: int) -> tuple[Bar, ...]:
    """Aggregate consecutive bars into windows of `bars_per_window`.

    Windows are anchored at the start of `bars`; a trailing partial window
    still emits a bar. Output timestamp is the first constituent's timestamp.
    """
    if bars_per_window < 1:
        raise MarketDataError(f"bars_per_window must be >= 1, got {bars_per_window}")
    out = []
    for start in range(0, len(bars), bars_per_window):
        chunk = bars[start:start + bars_per_window]
        out.append(
            Bar(
                timestamp=chunk[0].timestamp,
                open=chunk[0].open,
                high=max(b.high for b in chunk),
                low=min(b.low for b in chunk),
                close=chunk[-1].close,
                volume=sum(b.volume for b in chunk),
            )
        )
    return tuple(out)


def resample(session: Session, tf: Timeframe) -> tuple[Bar, ...]:
    """Resample a session's base bars to the given timeframe.

    At one minute the session's own bars are returned: they are frozen and
    equal to what resampling them one by one would build.
    """
    if not session.bars:
        raise MarketDataError(f"session {session.day} is empty")
    if tf is Timeframe.ONE_MINUTE:
        return session.bars
    return resample_bars(session.bars, tf.minutes)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

LOW_REGIME = 0
HIGH_REGIME = 1


@dataclass(frozen=True)
class RegimeParams:
    """Per-minute log-price drift and volatility for one market regime."""

    drift: float
    volatility: float

    def __post_init__(self) -> None:
        if self.volatility < 0:
            raise MarketDataError(f"volatility must be >= 0, got {self.volatility}")


@dataclass(frozen=True)
class SynthConfig:
    """Two-regime geometric random walk configuration.

    `transition[i][j]` is the per-minute probability of moving from regime i
    to regime j; each row must sum to 1.
    """

    low: RegimeParams
    high: RegimeParams
    transition: tuple[tuple[float, float], tuple[float, float]]
    start_price: float = 100.0
    start_date: date = date(2024, 1, 2)
    session_minutes: int = 390
    open_time: time = time(9, 30)
    base_volume: int = 5000

    def __post_init__(self) -> None:
        for row in self.transition:
            if len(row) != 2 or any(p < 0 for p in row) or abs(sum(row) - 1.0) > 1e-9:
                raise MarketDataError(
                    f"transition matrix row {row} is not a probability distribution"
                )
        if self.start_price <= 0:
            raise MarketDataError("start_price must be positive")
        if self.session_minutes < 1:
            raise MarketDataError("session_minutes must be >= 1")


@dataclass(frozen=True)
class SynthResult:
    """Generated sessions plus the per-bar regime label for each session."""

    sessions: tuple[Session, ...]
    regimes: tuple[np.ndarray, ...]

    @property
    def calendar(self) -> TradingCalendar:
        return TradingCalendar.from_sessions(self.sessions)


def synthesize(config: SynthConfig, seed: int, days: int) -> SynthResult:
    """Generate `days` weekday sessions of minute bars under a 2-state
    Markov regime switch. The same seed reproduces the output bit for bit.

    Minute closes follow a geometric random walk with the active regime's
    drift/volatility; high/low envelopes scale with the regime volatility so
    zero-volatility configurations yield perfectly flat bars. The regime in
    force while a bar forms is recorded as that bar's label.
    """
    if days < 1:
        raise MarketDataError("days must be >= 1")
    rng = np.random.default_rng(seed)
    price = float(config.start_price)
    regime = LOW_REGIME
    params = (config.low, config.high)
    sessions = []
    labels = []
    day = config.start_date
    for i in range(days):
        try:
            if i:
                day += timedelta(days=1)
            while day.weekday() >= 5:
                day += timedelta(days=1)
            open_dt = datetime.combine(day, config.open_time, tzinfo=timezone.utc)
            close_dt = open_dt + timedelta(minutes=config.session_minutes)
        except OverflowError:
            raise MarketDataError(
                f"{days} sessions from {config.start_date} run past {date.max}") from None
        bars = []
        day_labels = np.empty(config.session_minutes, dtype=np.int8)
        for k in range(config.session_minutes):
            p = params[regime]
            day_labels[k] = regime
            ret = p.drift + p.volatility * rng.standard_normal()
            open_px = price
            close_px = open_px * float(np.exp(ret))
            # Envelope noise scales with regime volatility; capped so low > 0.
            eh = min(abs(rng.standard_normal()) * p.volatility * 0.5, 0.5)
            el = min(abs(rng.standard_normal()) * p.volatility * 0.5, 0.5)
            high_px = max(open_px, close_px) * (1.0 + eh)
            low_px = min(open_px, close_px) * (1.0 - el)
            volume = max(1, int(round(config.base_volume * float(np.exp(0.25 * rng.standard_normal())))))
            bars.append(
                Bar(open_dt + timedelta(minutes=k), open_px, high_px, low_px, close_px, volume)
            )
            price = close_px
            if rng.random() >= config.transition[regime][regime]:
                regime = 1 - regime
        sessions.append(Session(day, open_dt, close_dt, tuple(bars)))
        labels.append(day_labels)
    return SynthResult(tuple(sessions), tuple(labels))


def sessions_in_range(
    sessions: Sequence[Session], start: date | None, end: date | None
) -> tuple[Session, ...]:
    """Sessions whose day lies in the inclusive [start, end] range."""
    out = []
    for s in sessions:
        if start is not None and s.day < start:
            continue
        if end is not None and s.day > end:
            continue
        out.append(s)
    return tuple(out)
