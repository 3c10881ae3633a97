"""Atomic output: a write that fails partway leaves the old file as it was."""

import errno
import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from alloctrader import atomic
from alloctrader.allocator import DecisionRecord, write_decision_log
from alloctrader.cli import main
from alloctrader.evaluation import (
    EquityCurve,
    MetricsReport,
    QuartileAllocationReport,
    QuartileStats,
    write_equity_csv,
    write_metrics,
)
from alloctrader.market_data import TIMEFRAME_ORDER, Timeframe, synthesize, write_sessions_csv
from alloctrader.portfolio import TradeLogEntry, write_trade_log
from alloctrader.ppo import (
    CurvePoint,
    NetworkSpec,
    PolicyParameters,
    PpoHyperparams,
    TrainingCurve,
    save_checkpoint,
)
from conftest import small_synth_config, weekday_calendar
import csv_reference

OLD = b"old contents\n"
T0 = datetime(2024, 1, 2, 15, 0, tzinfo=timezone.utc)


class _DiskFull:
    """A file that takes the first few bytes and then fails as a full disk."""

    def __init__(self, fh, budget=5):
        self._fh = fh
        self._budget = budget

    def write(self, data):
        if len(data) > self._budget:
            self._fh.write(data[:self._budget])
            self._budget = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._budget -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _failing_open(*args, **kwargs):
    return _DiskFull(open(*args, **kwargs))


def _metrics():
    return MetricsReport(1.5, 0.25, -3.0, 98_280.0)


def _checkpoint(path):
    params = PolicyParameters.initialize(NetworkSpec(4, (3, 3), 3), np.random.default_rng(0))
    save_checkpoint(path, params, PpoHyperparams(8, 1e-3, 4, 2), 0)


WRITERS = {
    "sessions_csv": lambda p: write_sessions_csv(
        synthesize(small_synth_config(session_minutes=30), seed=1, days=2).sessions, p),
    "calendar": lambda p: weekday_calendar(T0.date(), T0.date().replace(day=9)).to_file(p),
    "trade_log": lambda p: write_trade_log([TradeLogEntry(T0, "buy", 10, 100.0, 0.0)] * 3, p),
    "equity_csv": lambda p: write_equity_csv(
        EquityCurve.from_pairs([(T0, 100.0), (T0.replace(minute=1), 101.0)]), p),
    "quartile_plot_csv": lambda p: QuartileAllocationReport(
        "daily", (QuartileStats(1, 0.1, 0.2, (1.0, 0.0, 0.0)),) * 4).to_plot_csv(p),
    "metrics_json": lambda p: write_metrics(_metrics(), 0, p),
    "metrics_text": lambda p: write_metrics(_metrics(), 0, str(p) + ".json", p),
    "decision_log": lambda p: write_decision_log(
        [DecisionRecord(T0, Timeframe.ONE_MINUTE, True, 1, 0.0)] * 3, p),
    "training_curve": lambda p: TrainingCurve(
        [CurvePoint(4, 0.0, 0.0, 1.0, 0.5, 0.5, 1.0, 0.0)] * 3).to_csv(p),
    "checkpoint": _checkpoint,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, name):
    path = tmp_path / "target"
    path.write_bytes(OLD)
    monkeypatch.setattr(atomic, "open", _failing_open, raising=False)
    with pytest.raises(OSError):
        WRITERS[name](path)
    assert path.read_bytes() == OLD
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_failed_cli_write_keeps_old_file(tmp_path, monkeypatch, capsys):
    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / "x_metrics.json").write_text(json.dumps({**_metrics().to_json_dict(), "seed": 0}))
    summary = reports / "summary.txt"
    summary.write_bytes(OLD)
    monkeypatch.setattr(atomic, "open", _failing_open, raising=False)
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert summary.read_bytes() == OLD
    assert not [p for p in reports.iterdir() if p.name.endswith(".tmp")]


def test_exception_inside_block_keeps_old_file(tmp_path):
    path = tmp_path / "target"
    path.write_bytes(OLD)
    with pytest.raises(KeyboardInterrupt):
        with atomic.atomic_write(path) as fh:
            fh.write("partial")
            raise KeyboardInterrupt
    assert path.read_bytes() == OLD
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


def test_successful_write_replaces_file(tmp_path):
    path = tmp_path / "target"
    path.write_bytes(OLD)
    with atomic.atomic_write(path, "wb") as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


# Floats whose text is easy to get wrong: signs, non-finite values, a
# subnormal, exponent forms and a value that does not round-trip at 17 digits.
AWKWARD = (-1.5, float("nan"), float("inf"), -float("inf"), 5e-324, -0.0, 1e16, 1e-5, 0.1 + 0.2)

TABLES = {
    "trade_log": (
        write_trade_log, csv_reference.write_trade_log,
        [TradeLogEntry(T0 + timedelta(minutes=k), ("buy", "sell")[k % 2], k, x, -x)
         for k, x in enumerate(AWKWARD)]),
    "decision_log": (
        write_decision_log, csv_reference.write_decision_log,
        [DecisionRecord(T0 + timedelta(minutes=k), TIMEFRAME_ORDER[k % 3], k % 2 == 0, k + 1, x)
         for k, x in enumerate(AWKWARD)]),
    "quartile_plot_csv": (
        QuartileAllocationReport.to_plot_csv, csv_reference.write_quartile_plot_csv,
        QuartileAllocationReport("daily", tuple(
            QuartileStats(k, x, -x, (x, 1.0 - k, 5e-324)) for k, x in enumerate(AWKWARD)))),
    "training_curve": (
        TrainingCurve.to_csv, csv_reference.write_training_curve,
        TrainingCurve([CurvePoint(k * 512, x, -x, x, 1e-300, x * 3, -0.0, 0.25)
                       for k, x in enumerate(AWKWARD)])),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_write_csv_matches_csv_writer_reference(tmp_path, name):
    write, reference, table = TABLES[name]
    write(table, str(tmp_path / "got.csv"))
    reference(table, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_json_is_sorted_indented_and_newline_terminated(tmp_path):
    obj = {"b": [1, 2.5, None], "a": {"y": float("inf"), "x": "text"}}
    atomic.write_json(tmp_path / "out.json", obj)
    want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "out.json").read_text() == want
