"""Run configuration: a single flat `key = value` file, fully validated
before any command does work.

Every key has a default (per-agent training values follow the reference
hyperparameter table), so an empty file is a valid config. Unknown keys are
rejected by name, as are type errors and ordering violations.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from datetime import date
from typing import Mapping

from . import AlloctraderError
from .allocator import AllocatorConfig, AllocatorError, observation_size
from .envs import EnvConfig, EnvError
from .market_data import MarketDataError, RegimeParams, SynthConfig, TIMEFRAME_ORDER, Timeframe
from .ppo import NetworkSpec, PpoError, PpoHyperparams


class ConfigError(AlloctraderError, ValueError):
    """Configuration problem; the message names the offending key."""


DEFAULTS: dict[str, str] = {
    # data
    "data.source": "synthetic",
    "data.csv_path": "",
    "data.calendar_path": "",
    # synthetic generator
    "synth.days": "60",
    "synth.start_date": "2024-01-02",
    "synth.start_price": "100.0",
    "synth.session_minutes": "390",
    "synth.base_volume": "5000",
    "synth.low_drift": "0.0",
    "synth.low_vol": "0.0005",
    "synth.high_drift": "0.0",
    "synth.high_vol": "0.002",
    "synth.p_low_to_high": "0.005",
    "synth.p_high_to_low": "0.01",
    # date ranges
    "range.train_start": "2024-01-01",
    "range.train_end": "2024-02-29",
    "range.test_start": "2024-03-11",
    "range.test_end": "2024-12-31",
    # run
    "run.seed": "0",
    "run.out_dir": "out",
    "run.fee_per_sell_share": "0.0",
    # 1-minute agent
    "agent.1m.total_timesteps": "500000",
    "agent.1m.learning_rate": "5e-5",
    "agent.1m.n_steps": "4096",
    "agent.1m.batch_size": "128",
    "agent.1m.n_epochs": "10",
    "agent.1m.gamma": "0.99",
    "agent.1m.gae_lambda": "0.95",
    "agent.1m.clip_range": "0.2",
    "agent.1m.entropy_coef": "0.01",
    "agent.1m.window_size": "240",
    "agent.1m.hidden": "256,256",
    "agent.1m.initial_cash": "10000.0",
    # 10-minute agent
    "agent.10m.total_timesteps": "200000",
    "agent.10m.learning_rate": "1e-4",
    "agent.10m.n_steps": "2048",
    "agent.10m.batch_size": "128",
    "agent.10m.n_epochs": "10",
    "agent.10m.gamma": "0.99",
    "agent.10m.gae_lambda": "0.95",
    "agent.10m.clip_range": "0.2",
    "agent.10m.entropy_coef": "0.03",
    "agent.10m.window_size": "120",
    "agent.10m.hidden": "64,64",
    "agent.10m.initial_cash": "10000.0",
    # 1-hour agent
    "agent.1h.total_timesteps": "150000",
    "agent.1h.learning_rate": "1e-4",
    "agent.1h.n_steps": "1024",
    "agent.1h.batch_size": "64",
    "agent.1h.n_epochs": "10",
    "agent.1h.gamma": "0.99",
    "agent.1h.gae_lambda": "0.95",
    "agent.1h.clip_range": "0.2",
    "agent.1h.entropy_coef": "0.01",
    "agent.1h.window_size": "80",
    "agent.1h.hidden": "256,256",
    "agent.1h.initial_cash": "10000.0",
    # allocator
    "allocator.total_timesteps": "300000",
    "allocator.learning_rate": "3e-4",
    "allocator.n_steps": "2048",
    "allocator.batch_size": "256",
    "allocator.n_epochs": "10",
    "allocator.gamma": "0.99",
    "allocator.gae_lambda": "0.95",
    "allocator.clip_range": "0.2",
    "allocator.entropy_coef": "0.005",
    "allocator.hidden": "64,64",
    "allocator.market_window": "60",
    "allocator.vol_window": "30",
    "allocator.initial_cash": "10000.0",
}


@dataclass(frozen=True, kw_only=True)
class AgentSettings(EnvConfig):
    """A timeframe agent's environment config, with its PPO settings and
    hidden layer sizes."""

    hyperparams: PpoHyperparams
    hidden: tuple[int, int]

    @property
    def network(self) -> NetworkSpec:
        return NetworkSpec(self.observation_size, self.hidden, 3)


@dataclass(frozen=True, kw_only=True)
class AllocatorSettings(AllocatorConfig):
    """The allocator's environment config, with its PPO settings and hidden
    layer sizes."""

    hyperparams: PpoHyperparams
    hidden: tuple[int, int]

    @property
    def network(self) -> NetworkSpec:
        return NetworkSpec(observation_size(self), self.hidden, 3)


@dataclass(frozen=True)
class RunConfig:
    source: str
    csv_path: str
    calendar_path: str
    synth: SynthConfig
    synth_days: int
    train_range: tuple[date, date]
    test_range: tuple[date, date]
    agents: Mapping[Timeframe, AgentSettings]
    allocator: AllocatorSettings
    seed: int
    out_dir: str
    fee_per_sell_share: float

    def __post_init__(self) -> None:
        # Checked here rather than in build_config so that --seed is too.
        if self.seed < 0:
            raise ConfigError(f"run.seed must be >= 0, got {self.seed}")


class _Reader:
    def __init__(self, raw: dict[str, str]):
        self.raw = raw

    def text(self, key: str) -> str:
        return self.raw[key]

    def integer(self, key: str) -> int:
        try:
            return int(self.raw[key])
        except ValueError:
            raise ConfigError(f"config key {key}: expected an integer, got {self.raw[key]!r}") from None

    def number(self, key: str) -> float:
        try:
            value = float(self.raw[key])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"config key {key}: expected a finite number, got {self.raw[key]!r}")
        return value

    def day(self, key: str) -> date:
        try:
            return date.fromisoformat(self.raw[key])
        except ValueError:
            raise ConfigError(
                f"config key {key}: expected a YYYY-MM-DD date, got {self.raw[key]!r}"
            ) from None

    def pair(self, key: str) -> tuple[int, int]:
        parts = [p.strip() for p in self.raw[key].split(",")]
        try:
            values = tuple(int(p) for p in parts)
        except ValueError:
            values = ()
        if len(values) != 2 or any(v < 1 for v in values):
            raise ConfigError(
                f"config key {key}: expected two positive layer sizes like '64,64', "
                f"got {self.raw[key]!r}"
            )
        return values


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat `key = value` lines; '#' starts a comment line. A NUL is
    refused anywhere: no value can hold one, and a path that does would
    make the OS call fail with ValueError."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "\0" in line:
            raise ConfigError(f"config line {lineno}: holds a NUL byte")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"duplicate config key: {key}")
        raw[key] = value
    return raw


def _checked(where: str, build, **fields):
    """`build(**fields)`; the range error of a type the config builds becomes
    a ConfigError that starts with `where`."""
    try:
        return build(**fields)
    except (MarketDataError, PpoError, EnvError, AllocatorError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _policy(reader: _Reader, section: str, settings: type, **given):
    """The `section` keys as `settings` (AgentSettings or AllocatorSettings),
    together with `given`: the run's fee and, for an agent, its timeframe."""
    key = f"{section}.{{}}".format
    ints = ("total_timesteps", "n_steps", "batch_size", "n_epochs")
    numbers = ("learning_rate", "gamma", "gae_lambda", "clip_range", "entropy_coef")
    hp = _checked(
        f"config section {section}", PpoHyperparams,
        **{name: reader.integer(key(name)) for name in ints},
        **{name: reader.number(key(name)) for name in numbers},
    )
    windows = ("window_size",) if settings is AgentSettings else ("market_window", "vol_window")
    return _checked(
        f"config section {section}", settings,
        hyperparams=hp,
        hidden=reader.pair(key("hidden")),
        initial_cash=reader.number(key("initial_cash")),
        **{name: reader.integer(key(name)) for name in windows},
        **given,
    )


def _range(reader: _Reader, name: str) -> tuple[date, date]:
    start = reader.day(f"range.{name}_start")
    end = reader.day(f"range.{name}_end")
    if start > end:
        raise ConfigError(f"config key range.{name}_start: {start} is after range.{name}_end")
    return start, end


def build_config(raw: dict[str, str]) -> RunConfig:
    for key in raw:
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
    merged = dict(DEFAULTS)
    merged.update(raw)
    reader = _Reader(merged)

    source = reader.text("data.source")
    if source not in ("synthetic", "csv"):
        raise ConfigError(f"config key data.source: must be 'synthetic' or 'csv', got {source!r}")
    csv_path = reader.text("data.csv_path")
    calendar_path = reader.text("data.calendar_path")
    if source == "csv":
        for key, value in (("data.csv_path", csv_path), ("data.calendar_path", calendar_path)):
            if not value:
                raise ConfigError(f"config key {key}: required when data.source = csv")
            if not os.path.exists(value):
                raise ConfigError(f"config key {key}: file not found: {value}")

    p_lh = reader.number("synth.p_low_to_high")
    p_hl = reader.number("synth.p_high_to_low")
    for key, p in (("synth.p_low_to_high", p_lh), ("synth.p_high_to_low", p_hl)):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"config key {key}: must lie in [0, 1], got {p}")
    low, high = (
        _checked(f"config key synth.{name}_vol", RegimeParams,
                 drift=reader.number(f"synth.{name}_drift"),
                 volatility=reader.number(f"synth.{name}_vol"))
        for name in ("low", "high")
    )
    synth = _checked(
        "config section synth", SynthConfig,
        low=low,
        high=high,
        transition=((1.0 - p_lh, p_lh), (p_hl, 1.0 - p_hl)),
        start_price=reader.number("synth.start_price"),
        start_date=reader.day("synth.start_date"),
        session_minutes=reader.integer("synth.session_minutes"),
        base_volume=reader.integer("synth.base_volume"),
    )
    synth_days = reader.integer("synth.days")
    if synth_days < 1:
        raise ConfigError(f"config key synth.days: must be >= 1, got {synth_days}")

    train = _range(reader, "train")
    test = _range(reader, "test")
    if not train[1] < test[0]:
        raise ConfigError(
            f"config key range.test_start: {test[0]} is not after range.train_end {train[1]}"
        )

    fee = reader.number("run.fee_per_sell_share")
    if fee < 0:
        raise ConfigError(f"config key run.fee_per_sell_share: must be >= 0, got {fee}")
    agents = {
        tf: _policy(reader, f"agent.{tf.label}", AgentSettings,
                    timeframe=tf, fee_per_sell_share=fee)
        for tf in TIMEFRAME_ORDER
    }
    allocator = _policy(reader, "allocator", AllocatorSettings, fee_per_sell_share=fee)

    return RunConfig(
        source=source,
        csv_path=csv_path,
        calendar_path=calendar_path,
        synth=synth,
        synth_days=synth_days,
        train_range=train,
        test_range=test,
        agents=agents,
        allocator=allocator,
        seed=reader.integer("run.seed"),
        out_dir=reader.text("run.out_dir"),
        fee_per_sell_share=fee,
    )


def load_config(path: str) -> RunConfig:
    """Read, parse and fully validate a config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return build_config(parse_config_text(text))


def default_config() -> RunConfig:
    return build_config({})


def default_config_text() -> str:
    """All known keys with their default values, suitable as a starter file."""
    lines = []
    section = None
    for key, value in DEFAULTS.items():
        prefix = key.split(".")[0]
        if prefix != section:
            if section is not None:
                lines.append("")
            lines.append(f"# {prefix}")
            section = prefix
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
