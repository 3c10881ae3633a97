"""Shared fixtures: synthetic market data at a few scales and stub agents."""

from __future__ import annotations

from datetime import date, datetime, time, timedelta, timezone

import numpy as np
import pytest

from alloctrader.allocator import AgentRegistry, RegisteredAgent
from alloctrader.envs import EnvConfig
from alloctrader.market_data import (
    RegimeParams,
    Session,
    SynthConfig,
    TIMEFRAME_ORDER,
    TradingCalendar,
    synthesize,
)
from alloctrader.ppo import NetworkSpec, PolicyParameters


def small_synth_config(session_minutes: int = 390, **kw) -> SynthConfig:
    defaults = dict(
        low=RegimeParams(drift=0.00002, volatility=0.0006),
        high=RegimeParams(drift=-0.00001, volatility=0.0025),
        transition=((0.995, 0.005), (0.015, 0.985)),
        start_price=100.0,
        session_minutes=session_minutes,
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


def weekday_calendar(start: date, end: date) -> TradingCalendar:
    """Calendar of all Mon-Fri days in [start, end], open 09:30-16:00 UTC."""
    days = {}
    d = start
    while d <= end:
        if d.weekday() < 5:
            days[d] = (
                datetime.combine(d, time(9, 30), tzinfo=timezone.utc),
                datetime.combine(d, time(16, 0), tzinfo=timezone.utc),
            )
        d += timedelta(days=1)
    return TradingCalendar(days)


def mutate(data: bytes, rng: np.random.Generator, kind: int) -> bytes:
    """A seeded mutation of a CSV file with CRLF line ends: kind 0 sets one to
    three random bytes, 1 truncates the file, 2 drops one field of one line
    and 3 appends a field to a line after the header."""
    if kind == 0:
        out = bytearray(data)
        for pos in rng.integers(0, len(out), int(rng.integers(1, 4))):
            out[pos] = int(rng.integers(0, 256))
        return bytes(out)
    if kind == 1:
        return data[:int(rng.integers(0, len(data)))]
    lines = data.split(b"\r\n")
    if kind == 2:
        row = int(rng.integers(0, len(lines)))
        fields = lines[row].split(b",")
        del fields[int(rng.integers(0, len(fields)))]
        lines[row] = b",".join(fields)
    else:
        lines[int(rng.integers(1, len(lines) - 1))] += b",x"
    return b"\r\n".join(lines)


@pytest.fixture(scope="session")
def regime_result():
    """20 full-length sessions of two-regime synthetic data."""
    return synthesize(small_synth_config(), seed=11, days=20)


@pytest.fixture(scope="session")
def short_sessions():
    """6 compact sessions (90-minute days) for fast environment tests."""
    return synthesize(small_synth_config(session_minutes=90), seed=7, days=6).sessions


def ramped_sessions(sessions, growth: float = 2.0) -> list[Session]:
    """`sessions` with every bar's prices multiplied by exp(growth * t), t
    running from 0 at a session's first bar to 1 at its last: a position
    bought early in a session and held gains more than 100% (at the default
    growth), so its unrealized profit ratio passes 1."""
    out = []
    for s in sessions:
        ramp = np.exp(np.linspace(0.0, growth, len(s)))
        out.append(Session(s.day, s.open_time, s.close_time, s.timestamps,
                           *(getattr(s, k) * ramp for k in ("open", "high", "low", "close")),
                           s.volume))
    return out


def constant_action_params(spec: NetworkSpec, action: int, seed: int = 0) -> PolicyParameters:
    """Parameters whose policy always argmaxes (and near-surely samples) one
    action: the head bias dominates the orthogonally-initialized weights."""
    params = PolicyParameters.initialize(spec, np.random.default_rng(seed))
    bias = np.zeros(spec.action_count)
    bias[action] = 50.0
    params.arrays["policy_b3"] = bias
    return params


def stub_registry(action: int, window_sizes=(12, 8, 6), hidden=(16, 16),
                  initial_cash: float = 10_000.0) -> AgentRegistry:
    """Registry of three fixed-action agents with small windows."""
    agents = {}
    for tf, w in zip(TIMEFRAME_ORDER, window_sizes):
        spec = NetworkSpec(w * 8, hidden, 3)
        agents[tf] = RegisteredAgent(
            params=constant_action_params(spec, action),
            config=EnvConfig(timeframe=tf, window_size=w, initial_cash=initial_cash),
        )
    return AgentRegistry(agents)
