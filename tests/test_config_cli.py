"""Config validation and the full command-line pipeline on tiny settings."""

import json
import shutil
import struct
from datetime import date

import pytest

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
from alloctrader.market_data import Timeframe
from alloctrader.allocator import read_decision_log
from alloctrader.evaluation import read_equity_csv


class TestParse:
    def test_empty_text_is_valid(self):
        assert parse_config_text("") == {}

    def test_comments_and_blanks_skipped(self):
        raw = parse_config_text("# a comment\n\nrun.seed = 3\n")
        assert raw == {"run.seed": "3"}

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="unknown config key: run.sede"):
            parse_config_text("run.sede = 3")

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
        with pytest.raises(ConfigError, match="train < validation < test"):
            build_config({"range.validation_start": "2024-01-15"})

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


TINY_CONFIG = """\
# fast end-to-end settings
synth.days = 18
range.train_start = 2024-01-01
range.train_end = 2024-01-17
range.validation_start = 2024-01-18
range.validation_end = 2024-01-18
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

    def test_checkpoints_written(self, pipeline):
        _, out = pipeline
        for name in ("agent_1m_seed0", "agent_10m_seed0", "agent_1h_seed0", "allocator_seed0"):
            assert (out / "checkpoints" / f"{name}.ckpt").exists()

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
                "cumulative_return_pct", "sharpe", "max_drawdown_pct", "periods_per_year"
            }
            assert data["max_drawdown_pct"] <= 0.0

    def test_equity_starts_at_test_range(self, pipeline):
        _, out = pipeline
        for name in ("agent_1m", "hierarchy", "buyhold"):
            curve = read_equity_csv(str(out / "reports" / f"{name}_equity.csv"))
            assert curve.timestamps[0].date() >= date(2024, 1, 18)
            assert curve.values[0] == 10_000.0

    def test_allocation_log(self, pipeline):
        _, out = pipeline
        records = read_decision_log(str(out / "reports" / "hierarchy_allocations.csv"))
        assert records
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

    def test_report_without_metrics_fails(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["report", "--out", str(out)]) == 1
        assert "no metrics" in capsys.readouterr().err

    def test_bad_config_is_single_error_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("range.validation_start = 2024-01-15\n")
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_checkpoint_without_network_is_single_error_line(self, pipeline, tmp_path, capsys):
        cfg_path, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        ckpt = copy / "checkpoints" / "agent_1h_seed0.ckpt"
        blob = ckpt.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + header_len])
        del header["network"]
        new = json.dumps(header).encode()
        ckpt.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + header_len:])
        args = ["backtest", "hierarchy", "--config", str(cfg_path), "--out", str(copy)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "agent_1h_seed0.ckpt: header has no 'network'" in err

    def test_unknown_strategy_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["backtest", "momentum", "--out", str(tmp_path / "o")])


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

    def test_ingest_round_trip_of_synth_output(self, pipeline, tmp_path, capsys):
        _, out = pipeline
        bars = out / "data" / "synthetic_bars.csv"
        calendar = out / "data" / "synthetic_calendar.csv"
        dest = tmp_path / "ingested"
        args = ["ingest", "--csv", str(bars), "--calendar", str(calendar),
                "--out", str(dest)]
        assert main(args) == 0
        assert "dropped 0 out-of-session rows" in capsys.readouterr().out
        assert (dest / "data" / "sessions.csv").read_bytes() == bars.read_bytes()
