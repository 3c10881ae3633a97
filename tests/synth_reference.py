"""Reference synthesizer: the scalar per-bar loop that `synthesize` replaced.

It draws, computes and validates one `Bar` at a time, in the order the
columnar `synthesize` must reproduce bit for bit: four standard normals
(return, high envelope, low envelope, volume) and then one uniform per bar.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone

import numpy as np

from alloctrader.market_data import LOW_REGIME, MarketDataError, SynthConfig, SynthResult
from bar_reference import Bar, session_from_bars
from resample_reference import session_bars


def reference_synthesize(config: SynthConfig, seed: int, days: int) -> SynthResult:
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
        sessions.append(session_from_bars(day, open_dt, close_dt, bars))
        labels.append(day_labels)
    return SynthResult(tuple(sessions), tuple(labels))


def reference_sessions_csv(sessions) -> str:
    """The CSV text `write_sessions_csv` wrote one `Bar` at a time."""
    lines = [",".join(("timestamp", "open", "high", "low", "close", "volume"))]
    for session in sessions:
        for b in session_bars(session):
            lines.append(",".join([b.timestamp.isoformat(), repr(b.open), repr(b.high),
                                   repr(b.low), repr(b.close), str(b.volume)]))
    return "\r\n".join(lines) + "\r\n"
