"""Reference session resampler: the Bar-object aggregation that
`market_data.resample` replaced.

It cuts each session into windows anchored at the session open, the last
one possibly partial, and builds one `Bar` per window. The trailing
aggregate that ends at each window's last bar has the same high, low and
volume, which the tests check.
"""

from __future__ import annotations

from typing import Sequence

from alloctrader.market_data import MarketDataError, Session, Timeframe
from bar_reference import Bar

_COLUMNS = ("open", "high", "low", "close", "volume")


def session_bars(session: Session) -> tuple[Bar, ...]:
    """The session's rows as Bar objects."""
    return tuple(map(Bar, session.timestamps,
                     *(getattr(session, name).tolist() for name in _COLUMNS)))


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
    """Resample a session's base bars to the given timeframe."""
    if not len(session):
        raise MarketDataError(f"session {session.day} is empty")
    return resample_bars(session_bars(session), tf.minutes)
