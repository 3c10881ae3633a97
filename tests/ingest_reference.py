"""Reference CSV ingest: the row-by-row reader that `market_data.ingest_csv`
replaced.

It parses each row, builds a `Bar` for it (which checks the bar rules),
finds its trading day with `locate` and groups the bars by day. The
columnar ingest must give the same sessions and dropped-row count, or raise
the same exception with the same message.
"""

from __future__ import annotations

import csv
from datetime import date, datetime

from alloctrader.market_data import (
    CSV_HEADER,
    EmptyDataError,
    IngestResult,
    MarketDataError,
    TradingCalendar,
    _as_utc,
    _utf8_lines,
    _z_as_offset,
)
from bar_reference import Bar, session_from_bars


def locate(calendar: TradingCalendar, ts: datetime) -> date | None:
    """Trading day whose session hours contain ts, or None."""
    ts = _as_utc(ts)
    hours = calendar.days.get(ts.date())
    if hours is None:
        return None
    o, c = hours
    return ts.date() if o <= ts < c else None


def ingest_csv(path: str, calendar: TradingCalendar) -> IngestResult:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        except csv.Error as exc:
            raise MarketDataError(f"{path} row 1: {exc}") from exc
        if tuple(h.strip().lower() for h in header) != CSV_HEADER:
            raise MarketDataError(
                f"{path}: expected header {','.join(CSV_HEADER)}, got {','.join(header)}"
            )
        by_day: dict[date, list[Bar]] = {}
        dropped = 0
        rows = 0
        lineno = 1
        try:
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                rows += 1
                if len(row) != 6:
                    raise MarketDataError(
                        f"{path} row {lineno}: expected 6 fields, got {len(row)}")
                try:
                    ts = _as_utc(datetime.fromisoformat(_z_as_offset(row[0])))
                    o, h, l, c = (float(v) for v in row[1:5])
                    try:
                        volume = int(row[5])
                    except ValueError:
                        vol_f = float(row[5])
                        if vol_f != int(vol_f):
                            raise ValueError(f"fractional volume {row[5]}") from None
                        volume = int(vol_f)
                    bar = Bar(ts, o, h, l, c, volume)
                except (ValueError, OverflowError, MarketDataError) as exc:
                    raise MarketDataError(f"{path} row {lineno}: {exc}") from exc
                day = locate(calendar, bar.timestamp)
                if day is None:
                    dropped += 1
                    continue
                by_day.setdefault(day, []).append(bar)
        except csv.Error as exc:  # raised while reading the row after lineno
            raise MarketDataError(f"{path} row {lineno + 1}: {exc}") from exc

    if rows == 0:
        raise EmptyDataError(f"{path}: no data rows")
    sessions = []
    for day in sorted(by_day):
        o, c = calendar.days[day]
        bars = sorted(by_day[day], key=lambda b: b.timestamp)
        for a, b in zip(bars, bars[1:]):
            if a.timestamp == b.timestamp:
                raise MarketDataError(f"{path}: duplicate timestamp {a.timestamp} on {day}")
        sessions.append(session_from_bars(day, o, c, bars))
    return IngestResult(tuple(sessions), dropped)
