"""Reference bar row: the `Bar` dataclass that ingest and the synthesizer
once built for every minute, and `session_from_bars`, which made a
`Session` from such rows.

`Session` now checks the same rules on whole columns. The tests build
fixtures from rows with these and compare the rows with the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime
from typing import Iterable

import numpy as np

from alloctrader.market_data import MarketDataError, Session, _as_utc


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
        if self.volume >= 2**63:
            raise MarketDataError(f"volume {self.volume} does not fit in 64 bits")
        object.__setattr__(self, "volume", int(self.volume))


def session_from_bars(day: date, open_time: datetime, close_time: datetime,
                      bars: Iterable[Bar]) -> Session:
    """The session whose rows are `bars`."""
    bars = tuple(bars)
    prices = [[getattr(b, name) for b in bars] for name in ("open", "high", "low", "close")]
    return Session(day, open_time, close_time, tuple(b.timestamp for b in bars),
                   *prices, [b.volume for b in bars])
