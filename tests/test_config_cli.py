"""Config validation and the full command-line pipeline on tiny settings."""

import csv
import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import platform
import shutil
import struct
import subprocess
import sys
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import alloctrader
from alloctrader import AlloctraderError, cli
from alloctrader.cli import main
from alloctrader.config import (
    ConfigError,
    DEFAULTS,
    build_config,
    default_config,
    default_config_text,
    load_config,
    parse_config_text,
)
from alloctrader.market_data import TIMEFRAME_ORDER, Timeframe, synthesize
from alloctrader.allocator import (
    _DECISION_LOG_FIELDS,
    AllocatorConfig,
    DecisionRecord,
    read_decision_log,
    write_decision_log,
)
from alloctrader.envs import EnvConfig
from alloctrader.evaluation import EquityCurve, compute_metrics, write_metrics
from alloctrader.ppo import (
    ARRAY_ORDER, POLICY_ARRAYS, NetworkSpec, PolicyParameters, PpoHyperparams, load_checkpoint,
    save_checkpoint,
)
from conftest import mutate
import csv_reference


class TestParse:
    def test_empty_text_is_valid(self):
        assert parse_config_text("") == {}

    def test_comments_and_blanks_skipped(self):
        raw = parse_config_text("# a comment\n\nrun.seed = 3\n")
        assert raw == {"run.seed": "3"}

    def test_unknown_key_rejected_by_name(self):
        # parse_config_text only splits lines; build_config knows the keys.
        with pytest.raises(ConfigError, match="unknown config key: run.sede"):
            build_config(parse_config_text("run.sede = 3"))

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate config key: run.seed"):
            parse_config_text("run.seed = 1\nrun.seed = 2")

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("run.seed = 1\nnot a pair\n")

    def test_values_may_contain_equals(self):
        raw = parse_config_text("run.out_dir = a=b")
        assert raw["run.out_dir"] == "a=b"


class TestDefaults:
    def test_reference_hyperparameters(self):
        cfg = default_config()
        m1 = cfg.agents[Timeframe.ONE_MINUTE]
        assert m1.hyperparams.total_timesteps == 500_000
        assert m1.hyperparams.learning_rate == 5e-5
        assert m1.hyperparams.n_steps == 4096
        assert m1.hyperparams.entropy_coef == 0.01
        assert m1.window_size == 240
        assert m1.hidden == (256, 256)
        m10 = cfg.agents[Timeframe.TEN_MINUTE]
        assert m10.hyperparams.total_timesteps == 200_000
        assert m10.hyperparams.entropy_coef == 0.03
        assert m10.window_size == 120
        assert m10.hidden == (64, 64)
        h1 = cfg.agents[Timeframe.ONE_HOUR]
        assert h1.hyperparams.total_timesteps == 150_000
        assert h1.hyperparams.n_steps == 1024
        assert h1.window_size == 80
        alloc = cfg.allocator
        assert alloc.hyperparams.total_timesteps == 300_000
        assert alloc.hyperparams.learning_rate == 3e-4
        assert alloc.hyperparams.batch_size == 256
        assert alloc.hyperparams.entropy_coef == 0.005
        assert alloc.market_window == 60
        assert alloc.vol_window == 30
        assert alloc.initial_cash == 10_000.0

    def test_default_text_round_trips(self):
        text = default_config_text()
        cfg = build_config(parse_config_text(text))
        assert cfg == default_config()

    def test_every_key_appears_in_default_text(self):
        text = default_config_text()
        for key in DEFAULTS:
            assert f"{key} = " in text


class TestValidation:
    def test_unknown_key_rejected_without_parsing(self):
        with pytest.raises(ConfigError, match="unknown config key: rnu.seed"):
            build_config({"rnu.seed": "3"})

    def test_integer_error_names_key(self):
        with pytest.raises(ConfigError, match="run.seed"):
            build_config({"run.seed": "abc"})

    def test_number_error_names_key(self):
        with pytest.raises(ConfigError, match="synth.low_vol"):
            build_config({"synth.low_vol": "much"})

    def test_date_error_names_key(self):
        with pytest.raises(ConfigError, match="range.test_start"):
            build_config({"range.test_start": "soon"})

    def test_hidden_pair_error_names_key(self):
        with pytest.raises(ConfigError, match="agent.1m.hidden"):
            build_config({"agent.1m.hidden": "64"})

    def test_range_ordering_enforced(self):
        # Train ends 2024-02-29 by default, so this test range overlaps it.
        with pytest.raises(ConfigError, match="range.test_start: 2024-02-15 is not after"):
            build_config({"range.test_start": "2024-02-15"})

    def test_reversed_range_rejected(self):
        with pytest.raises(ConfigError, match="range.train_start"):
            build_config({"range.train_start": "2024-02-01", "range.train_end": "2024-01-01"})

    def test_bad_source_rejected(self):
        with pytest.raises(ConfigError, match="data.source"):
            build_config({"data.source": "yahoo"})

    def test_csv_source_requires_paths(self):
        with pytest.raises(ConfigError, match="data.csv_path"):
            build_config({"data.source": "csv"})

    def test_csv_source_requires_existing_file(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        with pytest.raises(ConfigError, match="not found"):
            build_config({
                "data.source": "csv",
                "data.csv_path": missing,
                "data.calendar_path": missing,
            })

    def test_hyperparam_violation_names_section(self):
        with pytest.raises(ConfigError, match="agent.10m"):
            build_config({"agent.10m.batch_size": "999999"})

    def test_transition_probability_bounds(self):
        with pytest.raises(ConfigError, match="synth.p_low_to_high"):
            build_config({"synth.p_low_to_high": "1.5"})

    def test_negative_fee_rejected(self):
        with pytest.raises(ConfigError, match="run.fee_per_sell_share"):
            build_config({"run.fee_per_sell_share": "-0.01"})

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(tmp_path / "absent.cfg"))

    @pytest.mark.parametrize("key, value", [
        ("synth.start_price", "nan"),
        ("synth.start_price", "1e400"),
        ("synth.high_vol", "inf"),
        ("run.fee_per_sell_share", "nan"),
        ("agent.1m.learning_rate", "inf"),
        ("allocator.initial_cash", "-inf"),
    ])
    def test_non_finite_number_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError) as info:
            build_config({key: value})
        assert str(info.value) == f"config key {key}: expected a finite number, got {value!r}"

    @pytest.mark.parametrize("key, value, message", [
        ("agent.1m.window_size", "0", "config section agent.1m: window_size must be >= 1, got 0"),
        ("agent.10m.initial_cash", "0",
         "config section agent.10m: initial_cash must be positive, got 0.0"),
        ("allocator.market_window", "0",
         "config section allocator: market_window must be >= 1, got 0"),
        ("allocator.vol_window", "1", "config section allocator: vol_window must be >= 2, got 1"),
        ("allocator.initial_cash", "-5",
         "config section allocator: initial_cash must be positive, got -5.0"),
        ("synth.start_price", "-1", "config section synth: start_price must be positive"),
        ("synth.session_minutes", "0", "config section synth: session_minutes must be >= 1"),
        ("synth.base_volume", "-5",
         "config section synth: base_volume must lie in [1, 1000000000000000], got -5"),
        ("synth.base_volume", "0",
         "config section synth: base_volume must lie in [1, 1000000000000000], got 0"),
        ("synth.low_vol", "-1", "config key synth.low_vol: volatility must be >= 0, got -1.0"),
        ("synth.high_vol", "-0.5", "config key synth.high_vol: volatility must be >= 0, got -0.5"),
    ])
    def test_range_error_of_a_built_type_names_its_section(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            build_config({key: value})
        assert str(info.value) == message


class TestSettingsAreEnvironmentConfigs:
    def test_agents_and_allocator_carry_the_run_fee(self):
        cfg = build_config({"run.fee_per_sell_share": "0.005"})
        assert list(cfg.agents) == list(TIMEFRAME_ORDER)
        for tf, settings in cfg.agents.items():
            assert isinstance(settings, EnvConfig)
            assert settings.timeframe is tf
            assert settings.fee_per_sell_share == 0.005
        assert isinstance(cfg.allocator, AllocatorConfig)
        assert cfg.allocator.fee_per_sell_share == 0.005

    def test_default_networks(self):
        cfg = default_config()
        widths = {tf: cfg.agents[tf].observation_size for tf in TIMEFRAME_ORDER}
        assert widths == {Timeframe.ONE_MINUTE: 1920, Timeframe.TEN_MINUTE: 960,
                          Timeframe.ONE_HOUR: 640}
        assert cfg.agents[Timeframe.ONE_MINUTE].network == NetworkSpec(1920, (256, 256), 3)
        assert cfg.allocator.network == NetworkSpec(310, (64, 64), 3)


TINY_CONFIG = """\
# fast end-to-end settings
synth.days = 18
range.train_start = 2024-01-01
range.train_end = 2024-01-17
range.test_start = 2024-01-19
range.test_end = 2024-12-31

agent.1m.total_timesteps = 96
agent.1m.n_steps = 48
agent.1m.batch_size = 24
agent.1m.n_epochs = 2
agent.1m.learning_rate = 1e-3
agent.1m.window_size = 4
agent.1m.hidden = 8,8

agent.10m.total_timesteps = 96
agent.10m.n_steps = 48
agent.10m.batch_size = 24
agent.10m.n_epochs = 2
agent.10m.learning_rate = 1e-3
agent.10m.window_size = 3
agent.10m.hidden = 8,8

agent.1h.total_timesteps = 96
agent.1h.n_steps = 48
agent.1h.batch_size = 24
agent.1h.n_epochs = 2
agent.1h.learning_rate = 1e-3
agent.1h.window_size = 2
agent.1h.hidden = 8,8

allocator.total_timesteps = 32
allocator.n_steps = 16
allocator.batch_size = 8
allocator.n_epochs = 2
allocator.learning_rate = 1e-3
allocator.hidden = 8,8
allocator.market_window = 20
allocator.vol_window = 10
"""


def _tiny_config(overrides: dict) -> str:
    """TINY_CONFIG with the value of each key in `overrides` replaced, and
    the keys it does not hold appended."""
    lines = []
    for line in TINY_CONFIG.splitlines():
        key = line.partition("=")[0].strip()
        lines.append(f"{key} = {overrides[key]}" if key in overrides else line)
    lines += [f"{key} = {value}" for key, value in overrides.items()
              if f"\n{key} =" not in TINY_CONFIG]
    return "\n".join(lines) + "\n"


def _csv_source(bars, calendar) -> str:
    """Config lines that read the market from the `bars` CSV and `calendar`."""
    return f"data.source = csv\ndata.csv_path = {bars}\ndata.calendar_path = {calendar}\n"


_BARS_HEADER = "timestamp,open,high,low,close,volume\n"
_CSV_SOURCE = {"data.source": "csv", "data.csv_path": "{tmp}/bars.csv",
               "data.calendar_path": "{tmp}/cal.csv"}


# A header field that a test case deletes rather than sets.
DROP = object()


def _rewrite_header(ckpt, mutate):
    """Apply `mutate` to a checkpoint's JSON header in place."""
    blob = ckpt.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + header_len])
    mutate(header)
    new = json.dumps(header).encode()
    ckpt.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + header_len:])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole CLI pipeline once into a shared output directory."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(TINY_CONFIG)
    out = root / "out"
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert main(["synth"] + base) == 0
    for label in ("1m", "10m", "1h"):
        assert main(["train-agent", label] + base) == 0
    assert main(["train-allocator"] + base) == 0
    for strategy in ("buyhold", "agent:1m", "agent:10m", "agent:1h", "hierarchy"):
        assert main(["backtest", strategy] + base) == 0
    assert main(["analyze", "--granularity", "daily"] + base) == 0
    assert main(["report"] + base) == 0
    return cfg_path, out


class TestPipeline:
    def test_synthetic_data_files(self, pipeline):
        _, out = pipeline
        bars = (out / "data" / "synthetic_bars.csv").read_text().strip().split("\n")
        assert bars[0] == "timestamp,open,high,low,close,volume"
        assert len(bars) == 18 * 390 + 1
        regimes = (out / "data" / "synthetic_regimes.csv").read_text().strip().split("\n")
        assert regimes[0] == "timestamp,regime"
        assert {line.rsplit(",", 1)[1] for line in regimes[1:]} <= {"0", "1"}
        assert (out / "data" / "synthetic_calendar.csv").exists()

    def test_synthetic_csv_bytes_match_reference_writers(self, pipeline, tmp_path):
        cfg_path, out = pipeline
        cfg = load_config(str(cfg_path))
        result = synthesize(cfg.synth, cfg.seed, cfg.synth_days)
        csv_reference.write_sessions_csv(result.sessions, tmp_path / "bars.csv")
        csv_reference.write_regimes_csv(result, tmp_path / "regimes.csv")
        for got, want in (("synthetic_bars.csv", "bars.csv"),
                          ("synthetic_regimes.csv", "regimes.csv")):
            assert (hashlib.sha256((out / "data" / got).read_bytes()).hexdigest()
                    == hashlib.sha256((tmp_path / want).read_bytes()).hexdigest())

    def test_checkpoints_written(self, pipeline):
        _, out = pipeline
        for name in ("agent_1m_seed0", "agent_10m_seed0", "agent_1h_seed0", "allocator_seed0"):
            assert (out / "checkpoints" / f"{name}.ckpt").exists()

    def test_checkpoints_hold_the_config_networks_and_extras(self, pipeline):
        cfg_path, out = pipeline
        cfg = load_config(str(cfg_path))
        for tf in TIMEFRAME_ORDER:
            ckpt = load_checkpoint(str(out / "checkpoints" / f"agent_{tf.label}_seed0.ckpt"))
            settings = cfg.agents[tf]
            assert ckpt.params.spec == settings.network
            assert ckpt.extra == {"kind": "agent", "timeframe": tf.label,
                                  "window_size": settings.window_size, "initial_cash": 10000.0}
        ckpt = load_checkpoint(str(out / "checkpoints" / "allocator_seed0.ckpt"))
        assert ckpt.params.spec == cfg.allocator.network
        assert ckpt.extra == {"kind": "allocator", "market_window": 20, "vol_window": 10,
                              "initial_cash": 10000.0}

    def test_training_curves_written(self, pipeline):
        _, out = pipeline
        curve = (out / "logs" / "train_curve_agent_1m_seed0.csv").read_text().strip().split("\n")
        assert curve[0].startswith("timesteps,")
        assert len(curve) == 3  # ceil(96 / 48) = 2 updates
        assert (out / "logs" / "train_curve_allocator_seed0.csv").exists()

    def test_backtest_reports(self, pipeline):
        _, out = pipeline
        reports = out / "reports"
        for name in ("buyhold", "agent_1m", "agent_10m", "agent_1h", "hierarchy"):
            for suffix in ("equity.csv", "trades.csv", "metrics.json", "metrics.txt"):
                assert (reports / f"{name}_{suffix}").exists(), f"{name}_{suffix}"
            data = json.loads((reports / f"{name}_metrics.json").read_text())
            assert set(data) == {
                "cumulative_return_pct", "sharpe", "max_drawdown_pct", "periods_per_year", "seed"
            }
            assert data["seed"] == 0
            assert data["max_drawdown_pct"] <= 0.0

    def test_equity_starts_at_test_range(self, pipeline):
        _, out = pipeline
        for name in ("agent_1m", "hierarchy", "buyhold"):
            with open(out / "reports" / f"{name}_equity.csv", newline="") as fh:
                first = list(csv.reader(fh))[1]
            assert datetime.fromisoformat(first[0]).date() >= date(2024, 1, 18)
            assert float(first[1]) == 10_000.0

    def test_allocation_log(self, pipeline):
        _, out = pipeline
        records = read_decision_log(str(out / "reports" / "hierarchy_allocations.csv"))
        assert records
        seed = json.loads((out / "reports" / "hierarchy_allocations.json").read_text())
        assert seed == {"seed": 0}
        # One forced 1-minute decision opens each of the 5 test sessions.
        forced = [r for r in records if r.forced]
        assert len(forced) == 5
        assert all(r.timeframe is Timeframe.ONE_MINUTE for r in forced)
        assert {r.timestamp.date() for r in records} == {
            date(2024, 1, 19), date(2024, 1, 22), date(2024, 1, 23),
            date(2024, 1, 24), date(2024, 1, 25),
        }

    def test_quartile_outputs(self, pipeline):
        _, out = pipeline
        data = json.loads((out / "reports" / "quartiles_daily.json").read_text())
        assert data["granularity"] == "daily"
        assert data["seed"] == 0
        assert len(data["quartiles"]) == 4
        total_units = sum(q["units"] for q in data["quartiles"])
        assert total_units == 5
        for q in data["quartiles"]:
            shares = q["shares"]
            assert set(shares) == {"1m", "10m", "1h"}
            if q["units"]:
                assert sum(shares.values()) == pytest.approx(1.0)

    def test_summary_lists_all_strategies(self, pipeline):
        _, out = pipeline
        text = (out / "reports" / "summary.txt").read_text()
        for name in ("buyhold", "agent_1m", "agent_10m", "agent_1h", "hierarchy"):
            assert name in text
        assert "volatility quartile" in text

    def test_monthly_quartiles(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("synth.days = 90\n")
        cfg = load_config(str(cfg_path))
        sessions = synthesize(cfg.synth, cfg.seed, cfg.synth_days).sessions
        # One decision at each session's open, the same timeframe all month.
        chosen = {s.day.month: TIMEFRAME_ORDER[s.day.month % 3] for s in sessions}
        write_decision_log([DecisionRecord(s.timestamps[0], chosen[s.day.month], False, 1, 0.0)
                            for s in sessions], str(tmp_path / "log.csv"))
        (tmp_path / "log.json").write_text(json.dumps({"seed": cfg.seed}))
        argv = ["analyze", "--granularity", "monthly", "--log", str(tmp_path / "log.csv"),
                "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        data = json.loads((tmp_path / "out" / "reports" / "quartiles_monthly.json").read_text())
        assert data["granularity"] == "monthly"
        assert sum(q["units"] for q in data["quartiles"]) == len(chosen) >= 4
        for tf in TIMEFRAME_ORDER:
            months = sum(q["shares"][tf.label] * q["units"] for q in data["quartiles"])
            assert months == pytest.approx(list(chosen.values()).count(tf))

    def test_undefined_sharpe_reads_undef(self, tmp_path, capsys):
        reports = tmp_path / "out" / "reports"
        reports.mkdir(parents=True)
        stamps = [datetime(2024, 1, 2, 14, 30 + k, tzinfo=timezone.utc) for k in range(3)]
        report = compute_metrics(EquityCurve(stamps, [100.0] * 3), 252.0)
        assert report.sharpe is None
        write_metrics(report, 0, str(reports / "flat_metrics.json"))
        assert main(["report", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[1].split() == ["flat", "0.00", "undef", "0.00"]


class TestInferenceKeepsThePolicyNet:
    def test_loaded_agents_and_allocator_hold_only_policy_arrays(self, pipeline, tmp_path,
                                                                 monkeypatch):
        # Checkpoints hold the policy net alone, so no loaded net holds a
        # value array.
        cfg_path, out = pipeline
        shutil.copytree(out / "checkpoints", tmp_path / "checkpoints")
        base = ["--config", str(cfg_path), "--out", str(tmp_path)]
        registries, allocators = [], []
        real_registry, real_run = cli._load_registry, cli.run_hierarchy

        def load_registry(*args):
            registries.append(real_registry(*args))
            return registries[-1]

        def run_hierarchy(sessions, registry, params, *args, **kwargs):
            allocators.append(params)
            return real_run(sessions, registry, params, *args, **kwargs)

        monkeypatch.setattr(cli, "_load_registry", load_registry)
        monkeypatch.setattr(cli, "run_hierarchy", run_hierarchy)
        assert main(["train-allocator", "--force"] + base) == 0
        assert main(["backtest", "hierarchy"] + base) == 0
        assert len(registries) == 2 and len(allocators) == 1
        paths = cli._Paths(str(tmp_path))
        agents = [cli._load_agent(load_config(str(cfg_path)), paths, tf) for tf in TIMEFRAME_ORDER]
        agents += [agent for registry in registries for _, agent in registry.items()]
        assert len(agents) == 9
        for params in [agent.params for agent in agents] + allocators:
            assert list(params.arrays) == list(POLICY_ARRAYS)


class TestPipelineGuards:
    def test_retrain_refused_without_force(self, pipeline, capsys):
        cfg_path, out = pipeline
        base = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["train-agent", "1m"] + base) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--force" in err

    def test_retrain_allowed_with_force(self, pipeline):
        cfg_path, out = pipeline
        base = ["--config", str(cfg_path), "--out", str(out)]
        before = (out / "checkpoints" / "agent_1m_seed0.ckpt").read_bytes()
        assert main(["train-agent", "1m", "--force"] + base) == 0
        after = (out / "checkpoints" / "agent_1m_seed0.ckpt").read_bytes()
        assert after == before  # same config and seed: retraining is bit-identical

    def test_missing_agent_checkpoint_names_timeframe(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "fresh"
        assert main(["train-allocator", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "missing checkpoint: 1m" in err

    def test_backtest_without_checkpoint_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG)
        out = tmp_path / "fresh"
        assert main(["backtest", "agent:1h", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "missing checkpoint: 1h" in capsys.readouterr().err

    def test_analyze_without_log_fails(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["analyze", "--out", str(out)]) == 1
        assert "allocation log not found" in capsys.readouterr().err

    def test_report_refuses_metrics_of_other_seeds(self, pipeline, tmp_path, capsys):
        # The pipeline's seed-0 metrics beside a seed-2 buy-and-hold, as
        # `backtest buyhold --seed 2` into the same --out leaves them, and a
        # metrics file that carries no seed.
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        base = ["--config", str(cfg_path), "--out", str(copy), "--seed", "2"]
        assert main(["backtest", "buyhold"] + base) == 0
        summary = (copy / "reports" / "summary.txt").read_bytes()
        flat = '{"cumulative_return_pct": 0, "sharpe": null, "max_drawdown_pct": 0}'
        (copy / "reports" / "flat_metrics.json").write_text(flat)
        capsys.readouterr()
        assert main(["report"] + base) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "metrics not of the run's seed 2: agent_10m_metrics.json (seed 0), " in err
        for name in ("agent_1h", "agent_1m", "hierarchy"):
            assert f"{name}_metrics.json (seed 0)" in err
        assert "flat_metrics.json (no seed)" in err
        assert "buyhold" not in err
        assert (copy / "reports" / "summary.txt").read_bytes() == summary

    def test_report_refuses_quartiles_of_other_seeds(self, pipeline, tmp_path, capsys):
        # Seed 2's buy-and-hold is the only metrics file left, beside the
        # pipeline's seed-0 quartile table.
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        base = ["--config", str(cfg_path), "--out", str(copy), "--seed", "2"]
        assert main(["backtest", "buyhold"] + base) == 0
        for name in ("agent_1m", "agent_10m", "agent_1h", "hierarchy"):
            (copy / "reports" / f"{name}_metrics.json").unlink()
        summary = (copy / "reports" / "summary.txt").read_bytes()
        capsys.readouterr()
        for tag in ("seed 0", "no seed"):
            assert main(["report"] + base) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert err.endswith(f"metrics not of the run's seed 2: quartiles_daily.txt ({tag})\n")
            assert (copy / "reports" / "summary.txt").read_bytes() == summary
            (copy / "reports" / "quartiles_daily.json").unlink(missing_ok=True)

    @pytest.mark.parametrize("seed_file, match", [
        ("pipeline", "{json}: allocation log of seed 0, not the run's seed 2"),
        (None, "allocation log {csv} has no seed file {json}"),
        ("{}", "{json}: allocation log of seed None, not the run's seed 2"),
        ('{"seed": "2"}', "{json}: allocation log of seed '2', not the run's seed 2"),
        ('{"seed": true}', "{json}: allocation log of seed True, not the run's seed 2"),
        ("[2]", "{json}: corrupt allocation log seed file (not a JSON object)"),
    ], ids=["seed-0", "missing", "no-seed", "string-seed", "bool-seed", "array"])
    def test_analyze_refuses_logs_of_other_seeds(self, pipeline, tmp_path, capsys, seed_file,
                                                 match):
        # The pipeline's seed-0 decision log, analyzed as seed 2: as the
        # pipeline left it, and with its seed file gone, seedless or corrupt.
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        reports = copy / "reports"
        for path in reports.glob("quartiles_*"):
            path.unlink()
        log = reports / "hierarchy_allocations.csv"
        seed_path = log.with_suffix(".json")
        if seed_file is None:
            seed_path.unlink()
        elif seed_file != "pipeline":
            seed_path.write_text(seed_file)
        capsys.readouterr()
        args = ["analyze", "--config", str(cfg_path), "--out", str(copy), "--seed", "2"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert match.format(csv=log, json=seed_path) in err
        assert not list(reports.glob("quartiles_*"))

    def test_report_without_metrics_fails(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["report", "--out", str(out)]) == 1
        assert "no metrics" in capsys.readouterr().err

    def test_bad_config_is_single_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("range.test_start = 2024-02-15\n")
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "range.test_start" in err

    @pytest.mark.parametrize("config, args, match", [
        ("run.seed = -1\n", [], "run.seed must be >= 0, got -1"),
        ("", ["--seed", "-3"], "run.seed must be >= 0, got -3"),
        ("synth.start_date = 9999-12-30\nsynth.days = 3\n", [],
         "3 sessions from 9999-12-30 run past 9999-12-31"),
        ("synth.session_minutes = 1500\n", [], "session_minutes must be at most 869"),
        ("range.validation_start = 2024-03-01\n", [],
         "unknown config key: range.validation_start"),
        ("synth.start_price = nan\n", [],
         "config key synth.start_price: expected a finite number, got 'nan'"),
        ("synth.start_price = -1\n", [], "config section synth: start_price must be positive"),
        ("synth.low_vol = -1\n", [], "config key synth.low_vol: volatility must be >= 0"),
        ("synth.base_volume = -5\n", [], "config section synth: base_volume must lie in [1, "),
        ("synth.base_volume = 0\n", [], "config section synth: base_volume must lie in [1, "),
    ], ids=["config-seed", "option-seed", "synth-date-overflow", "synth-session-past-midnight",
            "removed-validation-key", "synth-nan-price", "synth-negative-price",
            "synth-negative-low-vol", "synth-negative-base-volume", "synth-zero-base-volume"])
    def test_bad_run_value_is_single_error_line(self, tmp_path, capsys, config, args, match):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config)
        argv = ["synth", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *args]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert match in err

    @pytest.mark.parametrize("bad_file, content, match", [
        ("bars", b"2024-01-02T09:30:00+00:00,1,1,1,1,inf\n", "bars.csv row 2"),
        ("bars", b"2024-01-02T09:30:00+00:00,1,1,1,1,1e400\n", "bars.csv row 2"),
        ("bars", b"2024-01-02T09:30:00+00:00,1,1,1,1,\xff\xfe\n", "bars.csv: not UTF-8 text"),
        ("calendar", b"\xff\xfe\n", "calendar.csv: not UTF-8 text"),
        ("calendar", b"2024-01-03,09:30,16:00Z\n", "calendar.csv line 2: times are UTC"),
        ("calendar", b"2024-01-02,14:00,14:05\n",
         "calendar.csv line 2: day 2024-01-02 is already listed on line 1"),
        ("config", b"\xff\xfe\n", "run.cfg: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["inf-volume", "overflowing-volume", "bars-not-utf8", "calendar-not-utf8",
            "calendar-time-offset", "calendar-repeated-day", "config-not-utf8"])
    def test_bad_input_file_is_single_error_line(self, tmp_path, capsys, bad_file, content,
                                                 match):
        files = {
            "bars": b"timestamp,open,high,low,close,volume\n",
            "calendar": b"2024-01-02,09:30,16:00\n",
            "config": _csv_source(tmp_path / "bars.csv", tmp_path / "calendar.csv").encode(),
        }
        files[bad_file] += content
        for name, data in files.items():
            (tmp_path / ("run.cfg" if name == "config" else f"{name}.csv")).write_bytes(data)
        argv = ["backtest", "buyhold", "--config", str(tmp_path / "run.cfg"),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert match in err

    def test_price_collapse_is_the_only_stderr_line(self, tmp_path):
        # A fresh process shows any numpy warning the synthesizer lets out.
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("synth.high_vol = 400\n")
        env = dict(os.environ, PYTHONPATH=str(Path(alloctrader.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "alloctrader.cli", "synth", "--config", str(cfg_path),
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stderr == "error: non-positive low price: 0.0\n"

    def test_checkpoint_without_network_is_single_error_line(self, pipeline, tmp_path, capsys):
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        _rewrite_header(copy / "checkpoints" / "agent_1h_seed0.ckpt",
                        lambda header: header.pop("network"))
        args = ["backtest", "hierarchy", "--config", str(cfg_path), "--out", str(copy)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "agent_1h_seed0.ckpt: header has no 'network'" in err

    def test_version_1_checkpoint_is_single_error_line(self, pipeline, tmp_path, capsys):
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        ckpt = copy / "checkpoints" / "agent_1m_seed0.ckpt"
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        args = ["backtest", "agent:1m", "--config", str(cfg_path), "--out", str(copy)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "agent_1m_seed0.ckpt: unsupported checkpoint version 1" in err

    def test_deeply_nested_checkpoint_header_is_single_error_line(
        self, pipeline, tmp_path, capsys
    ):
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        ckpt = copy / "checkpoints" / "agent_1m_seed0.ckpt"
        header = b"[" * 100_000 + b"]" * 100_000
        ckpt.write_bytes(ckpt.read_bytes()[:8] + struct.pack("<I", len(header)) + header)
        args = ["backtest", "agent:1m", "--config", str(cfg_path), "--out", str(copy)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert "agent_1m_seed0.ckpt: corrupt header" in err

    @pytest.mark.parametrize("name, content, match", [
        ("buyhold_metrics.json", b"{", "corrupt metrics file (Expecting property name"),
        ("buyhold_metrics.json", b'{"sharpe": 1}', "metrics file has no 'cumulative_return_pct'"),
        ("buyhold_metrics.json", b"\xff\xfe",
         "corrupt metrics file ('utf-8' codec can't decode byte 0xff"),
        ("buyhold_metrics.json",
         b'{"cumulative_return_pct": "12", "sharpe": null, "max_drawdown_pct": 3.5}',
         "metrics 'cumulative_return_pct' is not a number ('12')"),
        ("quartiles_daily.txt", b"\xff\xfe",
         "corrupt quartiles file ('utf-8' codec can't decode byte 0xff"),
        ("quartiles_daily.json", b"[0]", "corrupt quartiles file (not a JSON object)"),
    ], ids=["truncated-json", "missing-key", "not-utf8", "string-return", "quartiles-not-utf8",
            "quartiles-json-not-object"])
    def test_bad_metrics_file_is_single_error_line(self, pipeline, tmp_path, capsys,
                                                   name, content, match):
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / "reports" / name).write_bytes(content)
        assert main(["report", "--config", str(cfg_path), "--out", str(copy)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert f"{name}: {match}" in err

    @pytest.mark.parametrize("strategy, name, key, value, match", [
        ("agent:1h", "agent_1h", "window_size", DROP, "extra has no 'window_size'"),
        ("agent:1m", "agent_1m", "window_size", "x", "extra 'window_size' has a bad value ('x')"),
        ("agent:10m", "agent_10m", "initial_cash", DROP, "extra has no 'initial_cash'"),
        ("agent:1m", "agent_1m", "initial_cash", [1], "extra 'initial_cash' has a bad value"),
        ("hierarchy", "agent_10m", "timeframe", "5m", "extra 'timeframe' has a bad value ('5m')"),
        ("hierarchy", "agent_1h", "initial_cash", "cash", "extra 'initial_cash' has a bad value"),
        ("hierarchy", "allocator", "market_window", DROP, "extra has no 'market_window'"),
        ("hierarchy", "allocator", "vol_window", "x", "extra 'vol_window' has a bad value ('x')"),
        ("hierarchy", "allocator", "initial_cash", DROP, "extra has no 'initial_cash'"),
        ("agent:1m", "agent_1m", "window_size", 4.9, "extra 'window_size' has a bad value (4.9)"),
        ("agent:1m", "agent_1m", "window_size", True,
         "extra 'window_size' has a bad value (True)"),
        ("agent:1m", "agent_1m", "window_size", "240",
         "extra 'window_size' has a bad value ('240')"),
        ("hierarchy", "allocator", "market_window", 20.0,
         "extra 'market_window' has a bad value (20.0)"),
        ("hierarchy", "allocator", "vol_window", True, "extra 'vol_window' has a bad value (True)"),
        ("agent:10m", "agent_10m", "initial_cash", "10000",
         "extra 'initial_cash' has a bad value ('10000')"),
        ("hierarchy", "allocator", "initial_cash", False,
         "extra 'initial_cash' has a bad value (False)"),
        ("agent:1h", "agent_1h", "initial_cash", math.inf,
         "extra 'initial_cash' has a bad value (inf)"),
        ("hierarchy", "allocator", "initial_cash", math.inf,
         "extra 'initial_cash' has a bad value (inf)"),
        ("agent:1h", "agent_1h", "kind", "allocator",
         "extra 'kind' is 'allocator', expected 'agent'"),
        ("agent:1m", "agent_1m", "kind", None, "extra 'kind' is None, expected 'agent'"),
        ("agent:10m", "agent_10m", "kind", 3.5, "extra 'kind' is 3.5, expected 'agent'"),
        ("hierarchy", "agent_1h", "kind", [], "extra 'kind' is [], expected 'agent'"),
        ("agent:1m", "agent_1m", "kind", DROP, "extra has no 'kind'"),
        ("hierarchy", "allocator", "kind", "agent",
         "extra 'kind' is 'agent', expected 'allocator'"),
        ("hierarchy", "allocator", "kind", DROP, "extra has no 'kind'"),
        ("agent:1m", "agent_1m", "window_size", 0,
         "extras out of range: window_size must be >= 1, got 0"),
        ("agent:1h", "agent_1h", "initial_cash", -5.0,
         "extras out of range: initial_cash must be positive, got -5.0"),
        ("hierarchy", "allocator", "vol_window", 1,
         "extras out of range: vol_window must be >= 2, got 1"),
    ], ids=["agent-no-window", "agent-bad-window", "agent-no-cash", "agent-bad-cash",
            "registry-bad-timeframe", "registry-bad-cash", "allocator-no-market-window",
            "allocator-bad-vol-window", "allocator-no-cash", "agent-fractional-window",
            "agent-bool-window", "agent-string-window", "allocator-float-market-window",
            "allocator-bool-vol-window", "agent-string-cash", "allocator-bool-cash",
            "agent-infinite-cash", "allocator-infinite-cash", "agent-allocator-kind",
            "agent-null-kind", "agent-float-kind", "registry-list-kind", "agent-no-kind",
            "allocator-agent-kind", "allocator-no-kind", "agent-zero-window",
            "agent-negative-cash", "allocator-one-vol-window"])
    def test_bad_checkpoint_extra_is_single_error_line(
        self, pipeline, tmp_path, capsys, strategy, name, key, value, match
    ):
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)

        def mutate(header):
            if value is DROP:
                del header["extra"][key]
            else:
                header["extra"][key] = value

        _rewrite_header(copy / "checkpoints" / f"{name}_seed0.ckpt", mutate)
        args = ["backtest", strategy, "--config", str(cfg_path), "--out", str(copy)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert f"{name}_seed0.ckpt: checkpoint {match}" in err

    @pytest.mark.parametrize("strategy, name", [("agent:1m", "agent_1m"),
                                                ("hierarchy", "allocator")])
    def test_checkpoint_of_another_seed_is_refused(self, pipeline, tmp_path, capsys, strategy,
                                                   name):
        # Another seed's weights under this seed's name would report as this seed's run.
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        _rewrite_header(copy / "checkpoints" / f"{name}_seed0.ckpt",
                        lambda header: header.update(seed=5))
        args = ["backtest", strategy, "--config", str(cfg_path), "--out", str(copy)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"{name}_seed0.ckpt: checkpoint of seed 5, not the run's seed 0" in err

    def test_agent_checkpoint_of_another_timeframe_is_refused(self, pipeline, tmp_path, capsys):
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        ckpts = copy / "checkpoints"
        shutil.copyfile(ckpts / "agent_10m_seed0.ckpt", ckpts / "agent_1h_seed0.ckpt")
        args = ["backtest", "agent:1h", "--config", str(cfg_path), "--out", str(copy)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "agent_1h_seed0.ckpt: checkpoint is a 10m agent, expected 1h" in err

    @pytest.mark.parametrize("row, match", [
        ("2024-01-02T14:30:00+00:00,1m,0", "row 3 has 3 fields, expected 5"),
        ("2024-01-02T14:30:00+00:00,1m,yes,1,0.0", "row 3: invalid literal for int()"),
        ("yesterday,1m,0,1,0.0", "row 3: Invalid isoformat string"),
        ("2024-01-02T14:30:00+00:00,1m,0,1,up", "row 3: could not convert string to float"),
        ("2024-01-22T14:30:00+00:00,1m,0,0,0.0", "row 3: span_bars must be >= 1, got 0"),
        ("2024-01-22T14:30:00+00:00,1m,0,1,inf", "row 3: span_log_return must be finite"),
        ("2024-01-22T14:30:00+00:00,1m,0,1,nan", "row 3: span_log_return must be finite"),
    ], ids=["short-row", "forced-flag", "timestamp", "float", "zero-span", "inf-return",
            "nan-return"])
    def test_bad_decision_log_is_single_error_line(self, pipeline, tmp_path, capsys, row, match):
        err = _analyze_with_row_3(pipeline, tmp_path, capsys, row)
        assert f"hierarchy_allocations.csv: {match}" in err

    def test_decision_log_timestamp_without_offset_is_utc(self, pipeline, tmp_path, capsys):
        # A day after the market ends, so the log is refused for its span,
        # which takes the timestamp as UTC.
        err = _analyze_with_row_3(pipeline, tmp_path, capsys, "2024-02-05T09:30:00,1m,1,1,0.0")
        assert "allocation log spans" in err
        assert "..2024-02-05 09:30:00+00:00 but market data spans" in err

    @pytest.mark.parametrize("config, files, argv, match", [
        ({"range.train_start": "2023-01-02", "range.train_end": "2023-01-31"}, {},
         ["train-agent", "1m", "--force"], "no sessions in train range 2023-01-02..2023-01-31"),
        ({"range.train_start": "2023-12-01", "range.train_end": "2023-12-29",
          "range.test_start": "2024-01-02"}, {}, ["backtest", "agent:1m"],
         "insufficient warmup before test start 2024-01-02: bar 0"),
        ({}, {"out/checkpoints/allocator_seed0.ckpt": None}, ["backtest", "hierarchy"],
         "missing checkpoint: allocator"),
        ({}, {"log.csv": ",".join(_DECISION_LOG_FIELDS) + "\n", "log.json": '{"seed": 0}'},
         ["analyze", "--log", "{tmp}/log.csv"], "log.csv has no decisions"),
        ({}, {"out/reports/zz_metrics.json": "[]"}, ["report"],
         "zz_metrics.json: corrupt metrics file (not a JSON object)"),
        ({"agent.1m.hidden": "a,b"}, {}, ["synth"],
         "config key agent.1m.hidden: expected two positive layer sizes like '64,64', got 'a,b'"),
        ({"synth.days": "0"}, {}, ["synth"], "config key synth.days: must be >= 1, got 0"),
        ({"data.source": "csv"}, {}, ["backtest", "buyhold"],
         "config key data.csv_path: required when data.source = csv"),
        (_CSV_SOURCE, {"cal.csv": "2024-01-02,09:30\n"}, ["backtest", "buyhold"],
         "cal.csv line 1: expected 3 fields"),
        (_CSV_SOURCE, {"cal.csv": "2024-13-02,09:30,16:00\n"}, ["backtest", "buyhold"],
         "cal.csv line 1: month must be in 1..12"),
        (_CSV_SOURCE, {"cal.csv": "# no trading\n"}, ["backtest", "buyhold"],
         "cal.csv lists no trading days"),
        (_CSV_SOURCE, {"bars.csv": _BARS_HEADER + "2024-01-02T14:30:00+00:00,1,1,1,1\n"},
         ["backtest", "buyhold"], "bars.csv row 2: expected 6 fields, got 5"),
    ], ids=["no-train-sessions", "insufficient-warmup", "missing-allocator", "header-only-log",
            "metrics-array", "bad-hidden-pair", "zero-synth-days", "csv-source-without-paths",
            "calendar-two-fields", "calendar-bad-date", "calendar-no-days", "bars-five-fields"])
    def test_command_error_is_single_error_line(self, pipeline, tmp_path, capsys, config,
                                                files, argv, match):
        _, out = pipeline
        shutil.copytree(out, tmp_path / "out")
        inputs = {
            "run.cfg": _tiny_config(config).replace("{tmp}", str(tmp_path)),
            "cal.csv": "2024-01-02,14:30,21:00\n",
            "bars.csv": _BARS_HEADER + "2024-01-02T14:30:00+00:00,1,1,1,1,1\n",
        }
        for name, text in (inputs | files).items():
            if text is None:
                (tmp_path / name).unlink()
            else:
                (tmp_path / name).write_text(text)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        argv += ["--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert match in err

    def test_unknown_strategy_rejected_by_parser(self, tmp_path, capsys):
        assert main(["backtest", "momentum", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: alloctrader backtest: argument strategy: invalid choice")
        assert err.count("\n") == 1
        # Asking for help is not an error.
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--help"])
        assert exc.value.code == 0
        assert "hierarchy" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, match", [
        (["synth", "--seed", "x"], "alloctrader synth: argument --seed: invalid int value: 'x'"),
        ([], "alloctrader: the following arguments are required: command"),
        (["frobnicate"], "alloctrader: argument command: invalid choice: 'frobnicate'"),
    ], ids=["bad-option-value", "no-command", "unknown-command"])
    def test_usage_error_is_single_error_line(self, capsys, argv, match):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {match}")
        assert err.count("\n") == 1


def _analyze_with_row_3(pipeline, tmp_path, capsys, row: str) -> str:
    """Run analyze on a copy of the pipeline whose decision log has `row` as
    its third line; check it fails with one error line and return that."""
    cfg_path, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    log = copy / "reports" / "hierarchy_allocations.csv"
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:2] + [row] + lines[3:]) + "\n")
    args = ["analyze", "--config", str(cfg_path), "--out", str(copy)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    return err


# Values that header edits set: each JSON type, extremes, and the non-finite
# numbers Python's json module reads (Infinity, NaN).
_HEADER_VALUES = (None, True, False, -1, 0, 1, 2, 3.5, 1e308, -1e308, math.inf, -math.inf,
                  math.nan, 10**400, "x", "", "1h", [], [1], [[2]], {}, {"a": 1})


def _edit_header(data: bytes, rng) -> bytes:
    """Drop a field of one object of a checkpoint's JSON header, or set one
    (an existing field or a new one) to one of _HEADER_VALUES."""
    (length,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12:12 + length])
    objects, todo = [], [header]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            objects.append(node)
            todo.extend(node.values())
        elif isinstance(node, list):
            todo.extend(node)
    node = objects[int(rng.integers(len(objects)))]
    keys = list(node)
    if keys and rng.random() < 0.5:
        del node[keys[int(rng.integers(len(keys)))]]
    else:
        keys.append("added")
        node[keys[int(rng.integers(len(keys)))]] = _HEADER_VALUES[
            int(rng.integers(len(_HEADER_VALUES)))]
    blob = json.dumps(header).encode()
    return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + length:]


def _small_agent_checkpoint(tmp_path):
    """A 1h agent checkpoint of window 2 on a 9-day synthetic run: the
    `backtest agent:1h` argv and the checkpoint's path."""
    # A 1h agent of window 2 needs six sessions of history (New Year's
    # Day is not one), so the test range holds three sessions.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("synth.days = 9\nrange.train_start = 2024-01-01\n"
                        "range.train_end = 2024-01-05\nrange.test_start = 2024-01-10\n"
                        "range.test_end = 2024-12-31\nagent.1h.window_size = 2\n")
    out = tmp_path / "out"
    ckpt = out / "checkpoints" / "agent_1h_seed0.ckpt"
    ckpt.parent.mkdir(parents=True)
    spec = NetworkSpec(16, (8, 8), 3)
    hp = PpoHyperparams(total_timesteps=96, learning_rate=1e-3, n_steps=48, batch_size=24)
    save_checkpoint(str(ckpt), PolicyParameters.initialize(spec, np.random.default_rng(0)),
                    hp, 0, extra={"kind": "agent", "timeframe": "1h", "window_size": 2,
                                  "initial_cash": 10_000.0})
    return ["backtest", "agent:1h", "--config", str(cfg_path), "--out", str(out)], ckpt


class TestCheckpointFuzz:
    def test_fuzzed_checkpoints_end_in_one_error_line_or_run(self, tmp_path, capsys):
        argv, ckpt = _small_agent_checkpoint(tmp_path)
        good = ckpt.read_bytes()
        (length,) = struct.unpack_from("<I", good, 8)
        head = 12 + length
        assert main(argv) == 0
        rng = np.random.default_rng(4)
        codes = []
        for trial in range(90):
            # Byte flips go to the prefix and header; a flip in the payload
            # only moves a weight.
            kind = trial % 3
            if kind == 0:
                data = mutate(good[:head], rng, 0) + good[head:]
            else:
                data = mutate(good, rng, 1) if kind == 1 else _edit_header(good, rng)
            ckpt.write_bytes(data)
            capsys.readouterr()
            codes.append(main(argv))
            err = capsys.readouterr().err
            if codes[-1] == 0:
                assert err == ""
            else:
                assert codes[-1] == 1
                assert err.startswith("error: ") and err.count("\n") == 1, err
        assert set(codes) == {0, 1}

    @pytest.mark.parametrize("version, match", [
        (2, "unsupported checkpoint version 2 (this build reads 3)"),
        (3, "unknown array 'value_w1'"),
    ], ids=["format-2", "format-3-with-value-net"])
    def test_value_net_is_single_error_line(self, tmp_path, capsys, version, match):
        # A format-2 file held the value net's six arrays after the policy's.
        argv, ckpt = _small_agent_checkpoint(tmp_path)
        params = PolicyParameters.initialize(NetworkSpec(16, (8, 8), 3), np.random.default_rng(0))
        value = [name for name in ARRAY_ORDER if name not in POLICY_ARRAYS]
        _rewrite_header(ckpt, lambda header: header["arrays"].extend(
            {"name": name, "shape": list(params.arrays[name].shape)} for name in value))
        blob = ckpt.read_bytes() + b"".join(params.arrays[name].tobytes() for name in value)
        ckpt.write_bytes(blob[:4] + struct.pack("<I", version) + blob[8:])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"agent_1h_seed0.ckpt: {match}" in err

    @pytest.mark.parametrize("key, value", [
        ("entropy_coef", math.nan), ("value_coef", math.nan), ("learning_rate", math.inf),
        ("clip_range", math.inf), ("max_grad_norm", math.inf),
    ])
    def test_non_finite_hyperparameter_is_single_error_line(self, tmp_path, capsys, key, value):
        argv, ckpt = _small_agent_checkpoint(tmp_path)
        _rewrite_header(ckpt, lambda header: header["hyperparams"].update({key: value}))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert (f"agent_1h_seed0.ckpt: bad hyperparams in header "
                f"({key} must be finite, got {value})") in err


# Two sessions of six bars, and a calendar that lists them and one more day.
_FUZZ_BARS = _BARS_HEADER + "".join(
    f"2024-01-0{day}T14:{30 + m:02d}:00+00:00,100,101,99,100,10\n" for day in (2, 3)
    for m in range(3))
_FUZZ_CALENDAR = b"2024-01-02,14:30,21:00\r\n2024-01-03,14:30,21:00\r\n2024-01-04,14:30,21:00\r\n"
_CALENDAR_LINES = (
    b"2024-01-03,14:30,21:00", b"2024-01-05,21:00,14:30", b"2024-01-05,14:30+01:00,21:00",
    b"0001-01-01,00:00,23:59", b"9999-12-31,00:00,23:59", b"2024-01-05,14:30,21:00\x00",
    b"2024-01-05,\xff\xfe:30,21:00",
)
# Two synthetic sessions: the second is the test range, so buyhold runs.
_FUZZ_CONFIG = (b"synth.days = 2\r\nrange.train_start = 2024-01-01\r\n"
                b"range.train_end = 2024-01-02\r\nrange.test_start = 2024-01-03\r\n"
                b"range.test_end = 2024-12-31\r\n")
_CONFIG_VALUES = ("1e999", "-1e999", "nan", str(10**400), "", "\x00", "64,", "1,2,3",
                  "2024-02-30", "24-1-2")


def _ends_cleanly(capsys, argv) -> int:
    """main(argv)'s exit code, which is 0 with nothing on stderr or 1 with
    exactly one `error:` line."""
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, err) == (0, "") or (
        code == 1 and err.startswith("error: ") and err.count("\n") == 1), (code, err)
    return code


class TestInputFuzz:
    """Calendars and configs, mutated and edited, through cli.main."""

    def test_fuzzed_calendars_end_in_one_error_line_or_run(self, tmp_path, capsys):
        (tmp_path / "bars.csv").write_text(_FUZZ_BARS)
        calendar = tmp_path / "cal.csv"
        # Both bar sessions are in the test range, so buyhold runs on them.
        (tmp_path / "run.cfg").write_text(
            _csv_source(tmp_path / "bars.csv", calendar) + "range.train_start = 2023-12-01\n"
            "range.train_end = 2023-12-29\nrange.test_start = 2024-01-02\n")
        argv = ["backtest", "buyhold", "--config", str(tmp_path / "run.cfg"),
                "--out", str(tmp_path / "out")]
        rng = np.random.default_rng(6)
        codes = []
        for trial in range(250):
            kind = trial % 5
            if kind < 4:
                data = mutate(_FUZZ_CALENDAR, rng, kind)
            else:
                lines = _FUZZ_CALENDAR.split(b"\r\n")
                lines.insert(int(rng.integers(len(lines))),
                             _CALENDAR_LINES[int(rng.integers(len(_CALENDAR_LINES)))])
                data = b"\r\n".join(lines)
            calendar.write_bytes(data)
            codes.append(_ends_cleanly(capsys, argv))
        assert set(codes) == {0, 1}

    def test_fuzzed_configs_end_in_one_error_line_or_run(self, tmp_path, capsys, monkeypatch):
        # No --out: run.out_dir is fuzzed too, under the test's directory.
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.cfg"
        rng = np.random.default_rng(7)
        keys = list(DEFAULTS)
        codes = []
        for trial in range(200):
            if trial % 2 == 0:
                data = mutate(_FUZZ_CONFIG, rng, int(rng.integers(4)))
            else:
                key = keys[int(rng.integers(len(keys)))]
                value = _CONFIG_VALUES[int(rng.integers(len(_CONFIG_VALUES)))]
                lines = [line for line in _FUZZ_CONFIG.split(b"\r\n")
                         if line.partition(b" =")[0] != key.encode()]
                data = b"\r\n".join(lines + [f"{key} = {value}".encode()])
            config.write_bytes(data)
            for argv in (["synth"], ["backtest", "buyhold"]):
                codes.append(_ends_cleanly(capsys, argv + ["--config", str(config)]))
        assert set(codes) == {0, 1}

    def test_nul_in_out_dir_is_single_error_line(self, tmp_path, capsys, monkeypatch):
        # The path reached mkdir, which raised ValueError past main.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_bytes(b"synth.days = 2\nrun.out_dir = o\x00ut\n")
        assert main(["synth", "--config", "run.cfg"]) == 1
        assert capsys.readouterr().err == "error: config line 2: holds a NUL byte\n"


class TestDeterminism:
    def test_synth_byte_identical_across_runs(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
            outputs.append((out / "data" / "synthetic_bars.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_changes_synthetic_data(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG)
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}"
            args = ["synth", "--config", str(cfg_path), "--out", str(out), "--seed", seed]
            assert main(args) == 0
            outputs.append((out / "data" / "synthetic_bars.csv").read_bytes())
        assert outputs[0] != outputs[1]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_in_fresh_process(**preset) -> dict:
    """Import alloctrader first thing in a new interpreter; report its
    thread count and BLAS variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = str(Path(alloctrader.__file__).resolve().parent.parent)
    code = ("import json, os, alloctrader; print(json.dumps({'threads': "
            "len(os.listdir('/proc/self/task')), 'env': {k: os.environ[k] for k in %r}}))"
            % (BLAS_THREAD_VARS,))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
class TestBlasThreads:
    def test_one_blas_thread_by_default(self):
        report = _import_in_fresh_process()
        assert report["threads"] == 1
        assert report["env"] == {k: "1" for k in BLAS_THREAD_VARS}

    def test_preset_value_wins(self):
        report = _import_in_fresh_process(OPENBLAS_NUM_THREADS="2")
        assert report["env"]["OPENBLAS_NUM_THREADS"] == "2"
        assert report["env"]["OMP_NUM_THREADS"] == "1"


class TestHeapTrim:
    def test_trims_after_every_command(self, tmp_path, monkeypatch, capsys):
        from alloctrader import cli

        calls = []
        monkeypatch.setattr(cli, "_malloc_trim", calls.append)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY_CONFIG)
        base = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert main(["synth"] + base) == 0
        assert main(["backtest", "agent:1m"] + base) == 1  # no checkpoint
        assert capsys.readouterr().err.startswith("error:")
        assert calls == [0, 0]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
    def test_found_on_glibc(self):
        from alloctrader import cli

        assert cli._malloc_trim is not None


def test_every_package_error_derives_from_the_base():
    """The CLI turns AlloctraderError into one `error:` line, so an error
    class outside it would end a command in a traceback."""
    errors = []
    for info in pkgutil.iter_modules(alloctrader.__path__):
        module = importlib.import_module(f"alloctrader.{info.name}")
        errors += [obj for obj in vars(module).values()
                   if inspect.isclass(obj) and issubclass(obj, Exception)
                   and obj.__module__ == module.__name__]
    assert len(errors) >= 10
    for error in errors:
        assert issubclass(error, AlloctraderError), error
        assert issubclass(error, (ValueError, RuntimeError)), error
