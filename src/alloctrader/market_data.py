"""OHLCV market data handling: the session type and its bar rules, CSV
ingestion, the trailing bar aggregation every timeframe's features are
built from, and a regime-switching synthetic minute-bar generator.

All timestamps are timezone-normalized to UTC. A bar's timestamp marks the
start of its one-minute interval, so a 09:30-16:00 session holds bars
stamped 09:30 through 15:59 (390 bars).
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from enum import Enum
from itertools import chain, count, groupby
from operator import attrgetter, lt
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import AlloctraderError
from .atomic import atomic_write, write_csv

CSV_HEADER = ("timestamp", "open", "high", "low", "close", "volume")


class MarketDataError(AlloctraderError, ValueError):
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


def _z_as_offset(text: str) -> str:
    """`text` stripped, a trailing Z as +00:00 (Python 3.10's fromisoformat reads no Z)."""
    text = text.strip()
    return text[:-1] + "+00:00" if text.endswith("Z") else text


#: Session's per-bar columns, in CSV order after the timestamp.
_COLUMNS = ("open", "high", "low", "close", "volume")


def _bar_error(ts: datetime, o: float, h: float, l: float, c: float, volume) -> str | None:
    """The message of the first bar rule one row breaks, or None. In order: the UTC
    timestamp is minute-aligned; each price (o, h, l, c) is finite and positive;
    low <= open, close <= high; the volume is an integer in [0, 2**63)."""
    if ts.second or ts.microsecond:
        return f"bar timestamp not minute-aligned: {ts}"
    for name, p in zip(_COLUMNS, (o, h, l, c)):
        if not (math.isfinite(p) and p > 0):
            return f"non-positive {name} price: {p}"
    if not (l <= o <= h and l <= c <= h):
        return f"OHLC ordering violated at {ts}: o={o} h={h} l={l} c={c}"
    if isinstance(volume, bool) or not isinstance(volume, (int, np.integer)) or volume < 0:
        return f"volume must be a non-negative integer, got {volume!r}"
    return f"volume {volume} does not fit in 64 bits" if volume >= 2**63 else None


def _first_bad_bar(stamps: Sequence[datetime], prices: list[np.ndarray],
                   volume: np.ndarray) -> tuple[int, str] | None:
    """The first row of the columns that breaks a bar rule, and its message, or
    None. Whole columns pick the rows that may; `_bar_error` judges them in
    order (a volume column not of an integer dtype, value by value)."""
    o, h, l, c = prices
    bad = ~np.logical_and.reduce([np.isfinite(p) & (p > 0) for p in prices]
                                 + [l <= o, o <= h, l <= c, c <= h])
    bad |= volume.astype(np.int64, copy=False) < 0 if volume.dtype.kind in "iu" else True
    if any(map(attrgetter("second"), stamps)) or any(map(attrgetter("microsecond"), stamps)):
        bad |= [bool(t.second or t.microsecond) for t in stamps]
    for i in np.flatnonzero(bad).tolist():
        message = _bar_error(stamps[i], *(p.item(i) for p in prices), volume.item(i))
        if message:
            return i, message
    return None


@dataclass(frozen=True, eq=False)
class Session:
    """One trading day of base-resolution (1-minute) bars, held as columns.

    Row i of the read-only float64 `open`/`high`/`low`/`close` and int64
    `volume` columns is the bar stamped `timestamps[i]`, and every row obeys
    the bar rules of `_bar_error`. Timestamps are strictly increasing and lie
    inside [open_time, close_time). A column given as a read-only array of
    its dtype is kept without a copy, so sessions can be views of one
    market's arrays.
    """

    day: date
    open_time: datetime
    close_time: datetime
    timestamps: tuple[datetime, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "open_time", _as_utc(self.open_time))
        object.__setattr__(self, "close_time", _as_utc(self.close_time))
        stamps = tuple(self.timestamps)
        if set(map(attrgetter("tzinfo"), stamps)) - {timezone.utc}:
            stamps = tuple(map(_as_utc, stamps))
        object.__setattr__(self, "timestamps", stamps)
        n = len(stamps)
        prices = [np.asarray(getattr(self, name), dtype=np.float64) for name in _COLUMNS[:4]]
        volume = np.asarray(self.volume)
        for name, column in zip(_COLUMNS, prices + [volume]):
            if column.shape != (n,):
                raise MarketDataError(f"session {self.day}: {name} column has shape "
                                      f"{column.shape}, expected ({n},)")
        if volume.dtype.kind not in "iu":
            # Checked value by value as given, so 2**64 or 5.0 is refused as itself.
            volume = np.array(self.volume, dtype=object)
        fault = _first_bad_bar(stamps, prices, volume)
        if fault:
            raise MarketDataError(fault[1])
        for name, column in zip(_COLUMNS, prices + [volume.astype(np.int64, copy=False)]):
            if column.flags.writeable:
                column = column.copy()
                column.flags.writeable = False
            object.__setattr__(self, name, column)
        if self.open_time >= self.close_time:
            raise MarketDataError(f"session {self.day}: open_time >= close_time")
        if n and not (self.open_time <= stamps[0] and stamps[-1] < self.close_time
                      and all(map(lt, stamps, stamps[1:]))):
            for prev, ts in zip((None,) + stamps, stamps):
                if not self.open_time <= ts < self.close_time:
                    raise MarketDataError(f"session {self.day}: bar {ts} outside session hours")
                if prev is not None and ts <= prev:
                    raise MarketDataError(
                        f"session {self.day}: timestamps not strictly increasing at {ts}")

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Session):
            return NotImplemented
        return (
            (self.day, self.open_time, self.close_time, self.timestamps)
            == (other.day, other.open_time, other.close_time, other.timestamps)
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in _COLUMNS)
        )


def _utf8_lines(fh: TextIO, where: str) -> Iterator[str]:
    """The lines of a file opened as UTF-8; undecodable bytes raise
    MarketDataError naming `where`. Text is decoded by chunks, so no line
    number is known."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise MarketDataError(f"{where}: not UTF-8 text: {exc}") from exc


@dataclass(frozen=True)
class TradingCalendar:
    """Maps trading days to their (open, close) instants, both UTC."""

    days: dict[date, tuple[datetime, datetime]]

    @classmethod
    def from_sessions(cls, sessions: Sequence[Session]) -> "TradingCalendar":
        return cls({s.day: (s.open_time, s.close_time) for s in sessions})

    @classmethod
    def from_file(cls, path: str) -> "TradingCalendar":
        """Read a calendar file with lines `YYYY-MM-DD,HH:MM,HH:MM`."""
        days, linenos = {}, {}
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, raw in enumerate(_utf8_lines(fh, f"calendar {path}"), start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise MarketDataError(f"calendar {path} line {lineno}: expected 3 fields")
                try:
                    d = date.fromisoformat(parts[0].strip())
                    o = time.fromisoformat(_z_as_offset(parts[1]))
                    c = time.fromisoformat(_z_as_offset(parts[2]))
                except ValueError as exc:
                    raise MarketDataError(f"calendar {path} line {lineno}: {exc}") from exc
                if o.tzinfo is not None or c.tzinfo is not None:
                    raise MarketDataError(f"calendar {path} line {lineno}: times are UTC, "
                                          "so they take no offset")
                if c <= o:
                    raise MarketDataError(
                        f"calendar {path} line {lineno}: close {parts[2].strip()} "
                        f"is not after open {parts[1].strip()}"
                    )
                if d in linenos:
                    raise MarketDataError(f"calendar {path} line {lineno}: day {d} is "
                                          f"already listed on line {linenos[d]}")
                linenos[d] = lineno
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


@dataclass(frozen=True)
class IngestResult:
    sessions: tuple[Session, ...]
    dropped_rows: int


def _volume(text: str) -> int:
    """An exact integer, also when written as a whole float (5.0, 1e3)."""
    try:
        return int(text)
    except ValueError:
        volume = float(text)
        if volume != int(volume):
            raise ValueError(f"fractional volume {text}") from None
        return int(volume)


def _parse(row: list[str]) -> list:
    """The six values of a CSV data row. A field that does not parse raises
    ValueError or OverflowError, for the first such field in the row."""
    if len(row) != len(CSV_HEADER):
        raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
    text, o, h, l, c, volume = row
    return [datetime.fromisoformat(_z_as_offset(text)),
            float(o), float(h), float(l), float(c), _volume(volume)]


def ingest_csv(path: str, calendar: TradingCalendar) -> IngestResult:
    """Read an OHLCV CSV into per-day sessions.

    The file must carry the header ``timestamp,open,high,low,close,volume``.
    Rows falling outside the calendar's session hours are dropped and counted.
    The first malformed row in the file (a bad number or timestamp, a bar rule
    broken) rejects the whole file with its row number. Volumes are exact.
    """
    # Prices go to float64 arrays as they are read, so no float object is kept per price.
    columns, linenos, fault = [[], *(array("d") for _ in _COLUMNS[:4]), []], [], None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise MarketDataError(f"{path} row 1: {exc}") from exc
        if header is None:
            raise EmptyDataError(f"{path}: file is empty")
        if tuple(h.strip().lower() for h in header) != CSV_HEADER:
            raise MarketDataError(f"{path}: expected header {','.join(CSV_HEADER)}, "
                                  f"got {','.join(header)}")
        appends, lineno = [column.append for column in columns], 1
        try:  # a row that does not parse stops the read; the rows before it are checked first
            for lineno, row in enumerate(reader, start=2):
                if row:
                    try:
                        values = _parse(row)
                    except (ValueError, OverflowError) as exc:
                        raise MarketDataError(f"{path} row {lineno}: {exc}") from exc
                    for append, value in zip(appends, values):
                        append(value)
                    linenos.append(lineno)
        except csv.Error as exc:  # the csv module could not read the row after lineno
            fault = MarketDataError(f"{path} row {lineno + 1}: {exc}")
        except MarketDataError as exc:  # a bad field, or undecodable text
            fault = exc
    if not linenos and fault is None:
        raise EmptyDataError(f"{path}: no data rows")
    stamps, *prices, volumes = columns
    if set(map(attrgetter("tzinfo"), stamps)) - {timezone.utc}:
        stamps = list(map(_as_utc, stamps))
    prices = [np.asarray(column, dtype=np.float64) for column in prices]
    # A volume past int64 stays a Python int, which the bar rules then refuse.
    wide = volumes and not -2**63 <= min(volumes) <= max(volumes) < 2**63
    volume = np.array(volumes, dtype=object if wide else np.int64)
    bad = _first_bad_bar(stamps, prices, volume)
    if bad:
        raise MarketDataError(f"{path} row {linenos[bad[0]]}: {bad[1]}")
    if fault:
        raise fault

    # A row's trading day is its date, and time order is (day, time) order.
    dates = list(map(datetime.date, stamps))
    kept = [i for i, ts, hours in zip(count(), stamps, map(calendar.days.get, dates))
            if hours and hours[0] <= ts < hours[1]]
    kept.sort(key=stamps.__getitem__)
    repeat = next((a for a, b in zip(kept, kept[1:]) if stamps[a] == stamps[b]), None)
    if repeat is not None:
        raise MarketDataError(f"{path}: duplicate timestamp {stamps[repeat]} on {dates[repeat]}")
    columns = [list(map(stamps.__getitem__, kept)), *(column[kept] for column in (*prices, volume))]
    sessions, a = [], 0
    for day, rows_of_day in groupby(kept, key=dates.__getitem__):
        b = a + len(list(rows_of_day))
        sessions.append(Session(day, *calendar.days[day], *(column[a:b] for column in columns)))
        a = b
    return IngestResult(tuple(sessions), len(stamps) - len(kept))


def iso_timestamps(session: Session) -> list[str]:
    """`isoformat()` of each of the session's timestamps. They are UTC and
    minute-aligned, so one datetime64 column gives every date and time, and
    the offset is always +00:00."""
    seconds = np.fromiter(map(datetime.timestamp, session.timestamps), np.float64, len(session))
    stamps = np.datetime_as_string(seconds.astype(np.int64).astype("datetime64[s]"))
    return [f"{t}+00:00" for t in stamps.tolist()]


def write_sessions_csv(sessions: Iterable[Session], path: str) -> None:
    """Serialize sessions to CSV so that re-ingesting reproduces them exactly:
    prices in shortest round-trip decimal form (`repr`), timestamps ISO-8601."""
    write_csv(path, CSV_HEADER, chain.from_iterable(
        zip(iso_timestamps(s), *(getattr(s, name).tolist() for name in _COLUMNS))
        for s in sessions))


def resample(highs: np.ndarray, lows: np.ndarray, volumes: np.ndarray,
             length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trailing `length`-bar aggregates of base bars laid end to end.

    Aggregate i covers base bars i - length + 1 through i, of those that
    exist at the start of the data: their highest high, lowest low and
    summed volume, as float64 columns as long as the input.
    """
    if length < 1 or not len(highs):
        raise MarketDataError(f"cannot aggregate {len(highs)} bars by {length}")
    pad = np.full(length - 1, np.inf)
    t_high = sliding_window_view(np.concatenate([-pad, highs]), length).max(axis=1)
    t_low = sliding_window_view(np.concatenate([pad, lows]), length).min(axis=1)
    # Each window summed on its own: every partial sum below 2**53 is exact.
    t_vol = sliding_window_view(np.concatenate([np.zeros(length - 1), volumes]), length)
    return t_high, t_low, t_vol.sum(axis=1)


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


#: A volume is base_volume * exp(z / 4) for a standard normal z, and numpy's
#: ziggurat never draws |z| above 14, so volumes stay far below 2**63.
MAX_BASE_VOLUME = 10**15


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
        limit = 24 * 60 - 1 - (self.open_time.hour * 60 + self.open_time.minute)
        if self.session_minutes > limit:
            raise MarketDataError(
                f"session_minutes must be at most {limit} for a session opening at "
                f"{self.open_time:%H:%M} to close the same day, got {self.session_minutes}"
            )
        # Below 1 every volume is clipped to 1; above the cap one may overflow.
        if not 1 <= self.base_volume <= MAX_BASE_VOLUME:
            raise MarketDataError(
                f"base_volume must lie in [1, {MAX_BASE_VOLUME}], got {self.base_volume}"
            )


@dataclass(frozen=True)
class SynthResult:
    """Generated sessions plus the per-bar regime label for each session."""

    sessions: tuple[Session, ...]
    regimes: tuple[np.ndarray, ...]

    @property
    def calendar(self) -> TradingCalendar:
        return TradingCalendar.from_sessions(self.sessions)


def _draw_bars(config: SynthConfig, seed: int, n: int):
    """Regime labels, the n + 1 prices (each bar opens at one and closes at
    the next), highs, lows and volumes of n bars, all read-only."""
    rng = np.random.default_rng(seed)
    normal, uniform = rng.standard_normal, rng.random
    draws = np.empty((n, 4))
    uniforms = []
    for row in draws:
        normal(out=row)
        uniforms.append(uniform())
    stay = (config.transition[0][0], config.transition[1][1])
    regime = LOW_REGIME
    regimes = []
    for u in uniforms:
        regimes.append(regime)
        if u >= stay[regime]:
            regime = 1 - regime
    labels = np.array(regimes, dtype=np.int8)

    drift = np.array([config.low.drift, config.high.drift])[labels]
    vol = np.array([config.low.volatility, config.high.volatility])[labels]
    z_ret, z_high, z_low, z_volume = draws.T.copy()
    with np.errstate(all="ignore"):
        growth = np.exp(drift + vol * z_ret)
        prices = np.multiply.accumulate(np.concatenate(([float(config.start_price)], growth)))
        opens, closes = prices[:-1], prices[1:]
        # Envelope noise scales with regime volatility; capped so low > 0.
        eh = np.minimum(np.abs(z_high) * vol * 0.5, 0.5)
        el = np.minimum(np.abs(z_low) * vol * 0.5, 0.5)
        # max/min as Python's: the open unless the close is strictly beyond it.
        highs = np.where(closes > opens, closes, opens) * (1.0 + eh)
        lows = np.where(closes < opens, closes, opens) * (1.0 - el)
        volumes = np.maximum(np.rint(config.base_volume * np.exp(0.25 * z_volume)), 1.0)
    volumes = volumes.astype(np.int64)
    for column in (prices, highs, lows, volumes):
        column.flags.writeable = False
    return labels, prices, highs, lows, volumes


def synthesize(config: SynthConfig, seed: int, days: int) -> SynthResult:
    """Generate `days` weekday sessions of minute bars under a 2-state
    Markov regime switch. The same seed reproduces the output bit for bit.

    Minute closes follow a geometric random walk with the active regime's
    drift/volatility; high/low envelopes scale with the regime volatility so
    zero-volatility configurations yield perfectly flat bars. The regime in
    force while a bar forms is recorded as that bar's label.

    Each bar draws four standard normals (return, high envelope, low
    envelope, volume) and then one uniform that may switch the regime. The
    ziggurat normal takes a variable number of words from the stream, so the
    draws stay interleaved bar by bar; everything after them is computed on
    whole arrays.
    """
    if days < 1:
        raise MarketDataError("days must be >= 1")
    m = config.session_minutes
    layout = []
    day = config.start_date
    try:
        for i in range(days):
            if i:
                day += timedelta(days=1)
            while day.weekday() >= 5:
                day += timedelta(days=1)
            open_dt = datetime.combine(day, config.open_time, tzinfo=timezone.utc)
            layout.append((day, open_dt, open_dt + timedelta(minutes=m)))
    except OverflowError:
        raise MarketDataError(
            f"{days} sessions from {config.start_date} run past {date.max}") from None

    labels, prices, highs, lows, volumes = _draw_bars(config, seed, days * m)
    opens, closes = prices[:-1], prices[1:]
    offsets = [timedelta(minutes=k) for k in range(m)]
    sessions = []
    for i, (day, open_dt, close_dt) in enumerate(layout):
        rows = slice(i * m, (i + 1) * m)
        sessions.append(Session(
            day, open_dt, close_dt, tuple([open_dt + d for d in offsets]),
            opens[rows], highs[rows], lows[rows], closes[rows], volumes[rows],
        ))
    return SynthResult(tuple(sessions), tuple(np.split(labels, days)))


def sessions_in_range(
    sessions: Sequence[Session], start: date | None, end: date | None
) -> tuple[Session, ...]:
    """Sessions whose day lies in the inclusive [start, end] range."""
    return tuple(s for s in sessions
                 if (start is None or start <= s.day) and (end is None or s.day <= end))
