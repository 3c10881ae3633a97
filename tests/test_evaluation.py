"""Metric oracles: drawdown brute force, Sharpe conventions, quartile fixture."""

import hashlib
import json
import math
import os
import subprocess
import sys
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import alloctrader

from alloctrader.evaluation import (
    EquityCurve,
    EvaluationError,
    annualization_factor,
    buy_and_hold,
    compute_metrics,
    cumulative_return,
    max_drawdown,
    quartile_allocation,
    return_volatility_pct,
    sharpe,
    trailing_volatility_pct,
    write_equity_csv,
    write_metrics,
)
from alloctrader.market_data import Timeframe, synthesize
from bar_reference import Bar, session_from_bars
import csv_reference
import observation_reference
from conftest import small_synth_config

UTC = timezone.utc


def _stamps(n, start=None, minutes=1):
    start = start or datetime(2024, 3, 11, 9, 30, tzinfo=UTC)
    return tuple(start + timedelta(minutes=minutes * k) for k in range(n))


def _curve(values, **kw):
    values = np.asarray(values, dtype=float)
    return EquityCurve(_stamps(values.size, **kw), values)


def _flat_day(day, closes):
    """Session whose bars all have open = high = low = close."""
    open_time = datetime(day.year, day.month, day.day, 9, 30, tzinfo=UTC)
    bars = tuple(
        Bar(open_time + timedelta(minutes=k), c, c, c, c, 100)
        for k, c in enumerate(closes)
    )
    return session_from_bars(day, open_time, open_time + timedelta(minutes=390), bars)


class TestEquityCurve:
    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            EquityCurve(_stamps(3), np.array([1.0, 2.0]))

    def test_non_positive_value_rejected(self):
        with pytest.raises(EvaluationError):
            _curve([100.0, 0.0, 50.0])

    def test_non_increasing_timestamps_rejected(self):
        ts = _stamps(3)
        with pytest.raises(EvaluationError):
            EquityCurve((ts[0], ts[2], ts[1]), np.array([1.0, 2.0, 3.0]))


class TestWriteEquityCsv:
    def test_bytes_match_csv_writer_reference(self, tmp_path):
        plus_five = timezone(timedelta(hours=5))
        curves = [
            _curve([10_000.0, 10_000.5, 9_999.25, 1e-300, 1e300, 0.1 + 0.2]),
            EquityCurve(tuple(t.replace(tzinfo=None) for t in _stamps(3)), np.array([1.0, 2.0, 3.0])),
            EquityCurve(tuple(t.astimezone(plus_five) + timedelta(microseconds=7)
                              for t in _stamps(3)), np.array([5e-324, 123456789.125, 7.0])),
            EquityCurve((), np.array([])),
        ]
        for k, curve in enumerate(curves):
            path, want = tmp_path / f"equity{k}.csv", tmp_path / f"reference{k}.csv"
            write_equity_csv(curve, str(path))
            csv_reference.write_equity_csv(curve, str(want))
            assert (hashlib.sha256(path.read_bytes()).hexdigest()
                    == hashlib.sha256(want.read_bytes()).hexdigest())

    def test_rows_are_streamed(self, tmp_path):
        # A 39,000-point curve (100 sessions of 390 bars) is 1.8 MB of text;
        # writing it must not hold the file, or its values, in memory. The
        # write is traced alone, in a fresh interpreter: tracemalloc's peak
        # counts every allocation of the process while it traces, from any
        # thread, and the suite's process keeps earlier tests' threads.
        code = "\n".join([
            "import sys, tracemalloc",
            "from datetime import datetime, timedelta, timezone",
            "import numpy as np",
            "from alloctrader.evaluation import EquityCurve, write_equity_csv",
            "start = datetime(2024, 3, 11, 9, 30, tzinfo=timezone.utc)",
            "curve = EquityCurve(tuple(start + timedelta(minutes=k) for k in range(39_000)),",
            "                    np.linspace(10_000.0, 12_000.0, 39_000))",
            "tracemalloc.start()",
            "write_equity_csv(curve, sys.argv[1])",
            "print(tracemalloc.get_traced_memory()[1])",
        ])
        path = tmp_path / "equity.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(alloctrader.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert path.stat().st_size > 1_700_000
        assert int(done.stdout) < 1_000_000


class TestCumulativeReturn:
    def test_ten_percent_gain(self):
        assert cumulative_return(_curve([100.0, 120.0, 90.0, 110.0])) == pytest.approx(10.0)

    def test_loss(self):
        assert cumulative_return(_curve([200.0, 150.0])) == pytest.approx(-25.0)

    def test_needs_two_points(self):
        with pytest.raises(EvaluationError):
            cumulative_return(_curve([100.0]))


class TestMaxDrawdown:
    def test_textbook_case(self):
        # Peak 120 to trough 90 is a 25% decline.
        assert max_drawdown(_curve([100.0, 120.0, 90.0, 110.0])) == pytest.approx(-25.0)

    def test_monotone_curve_has_zero_drawdown(self):
        assert max_drawdown(_curve([100.0, 101.0, 105.0, 130.0])) == 0.0

    def test_matches_pairwise_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            values = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.05, 60)))
            worst = min(
                (values[j] - values[i]) / values[i]
                for i in range(len(values))
                for j in range(i, len(values))
            )
            assert max_drawdown(_curve(values)) == pytest.approx(worst * 100.0, abs=1e-9)

    def test_drawdown_measured_from_running_peak(self):
        # The deepest fall is from the *first* peak even after recovery.
        assert max_drawdown(_curve([100.0, 50.0, 80.0, 60.0])) == pytest.approx(-50.0)


class TestSharpe:
    def test_hand_computed_example(self):
        values = [100.0, 110.0, 99.0]
        r1 = 0.10
        r2 = 99.0 / 110.0 - 1.0
        mean = (r1 + r2) / 2.0
        sd = math.sqrt((r1 - mean) ** 2 + (r2 - mean) ** 2)  # ddof=1 over 2 samples
        want = mean / sd * math.sqrt(252.0)
        assert sharpe(_curve(values), 252.0) == pytest.approx(want, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        values = 100.0 * np.exp(np.cumsum(rng.normal(0.001, 0.02, 40)))
        a = sharpe(_curve(values), 252.0)
        b = sharpe(_curve(7.5 * values), 252.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_annualization_scaling(self):
        rng = np.random.default_rng(3)
        values = 100.0 * np.exp(np.cumsum(rng.normal(0.001, 0.02, 40)))
        a = sharpe(_curve(values), 252.0)
        b = sharpe(_curve(values), 4.0 * 252.0)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_constant_growth_has_no_sharpe(self):
        # Exact doubling: every period return is exactly 1.0, variance 0.
        values = 100.0 * 2.0 ** np.arange(10)
        assert sharpe(_curve(values), 252.0) is None

    def test_needs_three_points(self):
        with pytest.raises(EvaluationError):
            sharpe(_curve([100.0, 101.0]), 252.0)


class TestReturnVolatility:
    def test_hand_computed(self):
        closes = [100.0, 102.0, 101.0]
        r1 = 0.02
        r2 = 101.0 / 102.0 - 1.0
        mean = (r1 + r2) / 2.0
        sd = math.sqrt((r1 - mean) ** 2 + (r2 - mean) ** 2)
        assert return_volatility_pct(closes) == pytest.approx(sd * 100.0, rel=1e-12)

    def test_constant_closes_zero(self):
        assert return_volatility_pct([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_needs_three_closes(self):
        with pytest.raises(EvaluationError):
            return_volatility_pct([100.0, 101.0])


class TestTrailingVolatility:
    @pytest.fixture(scope="class")
    def closes(self):
        sessions = synthesize(small_synth_config(), seed=5, days=100).sessions
        return np.concatenate([s.close for s in sessions])

    # 127-129 straddle numpy's 128-element pairwise-sum block; 1000 splits.
    @pytest.mark.parametrize("window", [2, 30, 127, 128, 129, 1000])
    def test_every_bar_equals_the_per_bar_reference(self, closes, window):
        assert closes.size == 39_000
        got = trailing_volatility_pct(closes, window)
        assert np.isnan(got[:window]).all()
        want = np.array([observation_reference.return_volatility_pct(closes[b - window:b + 1])
                         for b in range(window, closes.size)])
        assert got[window:].tobytes() == want.tobytes()
        for b in range(window, closes.size, 997):
            assert return_volatility_pct(closes[b - window:b + 1]) == got[b]


class TestBuyAndHold:
    def test_whole_share_purchase_with_residual(self):
        sessions = [_flat_day(date(2024, 3, 11), [150.0, 160.0, 170.0])]
        curve = buy_and_hold(sessions, 10_000.0)
        # 66 shares at 150 leaves $100 residual cash.
        np.testing.assert_allclose(
            curve.values, [10_000.0, 100.0 + 66 * 160.0, 100.0 + 66 * 170.0]
        )

    def test_flat_market_flat_curve(self):
        sessions = [_flat_day(date(2024, 3, 11), [150.0] * 5)]
        curve = buy_and_hold(sessions, 10_000.0)
        assert (curve.values == 10_000.0).all()

    def test_doubling_price_nearly_doubles_value(self):
        sessions = [_flat_day(date(2024, 3, 11), [100.0, 200.0])]
        curve = buy_and_hold(sessions, 10_000.0)
        assert curve.values[-1] == pytest.approx(20_000.0)

    def test_covers_every_bar_across_sessions(self):
        sessions = [
            _flat_day(date(2024, 3, 11), [100.0, 101.0]),
            _flat_day(date(2024, 3, 12), [102.0, 103.0]),
        ]
        curve = buy_and_hold(sessions, 5_000.0)
        assert len(curve) == 4

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            buy_and_hold([], 10_000.0)


class TestMetricsReport:
    def test_compute_and_serialize(self, tmp_path):
        report = compute_metrics(_curve([100.0, 120.0, 90.0, 110.0]), 252.0)
        assert report.cumulative_return_pct == pytest.approx(10.0)
        assert report.max_drawdown_pct == pytest.approx(-25.0)
        json_path = tmp_path / "metrics.json"
        text_path = tmp_path / "metrics.txt"
        write_metrics(report, 5, str(json_path), str(text_path))
        loaded = json.loads(json_path.read_text())
        assert loaded["cumulative_return_pct"] == pytest.approx(10.0)
        assert loaded["seed"] == 5
        assert "max drawdown" in text_path.read_text()

    def test_undefined_sharpe_serializes_as_null(self, tmp_path):
        report = compute_metrics(_curve(100.0 * 2.0 ** np.arange(5)), 252.0)
        assert report.sharpe is None
        json_path = tmp_path / "metrics.json"
        write_metrics(report, 0, str(json_path))
        assert json.loads(json_path.read_text())["sharpe"] is None
        assert "undefined" in report.to_text()


def _decision(ts, tf):
    return SimpleNamespace(timestamp=ts, timeframe=tf)


class TestQuartileAllocation:
    def _fixture(self):
        """Eight days of strictly increasing volatility: the four calmest
        days saw only hour decisions, the four wildest mostly minute ones."""
        sessions = []
        decisions = []
        for k in range(8):
            day = date(2024, 3, 11 + k)
            r = 0.0005 * (k + 1)
            closes = [100.0, 100.0 * (1 + r), 100.0, 100.0 * (1 + r)]
            sessions.append(_flat_day(day, closes))
            noon = datetime(day.year, day.month, day.day, 12, 0, tzinfo=UTC)
            if k < 4:
                decisions += [_decision(noon, Timeframe.ONE_HOUR)] * 2
            else:
                decisions += [_decision(noon, Timeframe.ONE_MINUTE)] * 3
                decisions += [_decision(noon, Timeframe.TEN_MINUTE)]
        return sessions, decisions

    def test_hand_fixture_exact_shares(self):
        sessions, decisions = self._fixture()
        report = quartile_allocation(decisions, sessions, "daily")
        assert [q.units for q in report.quartiles] == [2, 2, 2, 2]
        assert report.quartiles[0].shares == (0.0, 0.0, 1.0)
        assert report.quartiles[1].shares == (0.0, 0.0, 1.0)
        assert report.quartiles[2].shares == (0.75, 0.25, 0.0)
        assert report.quartiles[3].shares == (0.75, 0.25, 0.0)
        vols = [q.vol_min for q in report.quartiles]
        assert vols == sorted(vols)
        assert report.quartiles[0].vol_min < report.quartiles[3].vol_max

    def test_single_timeframe_everywhere(self):
        sessions, _ = self._fixture()
        decisions = [
            _decision(datetime(s.day.year, s.day.month, s.day.day, 12, 0, tzinfo=UTC),
                      Timeframe.TEN_MINUTE)
            for s in sessions
        ]
        report = quartile_allocation(decisions, sessions, "daily")
        for q in report.quartiles:
            assert q.shares == (0.0, 1.0, 0.0)

    def test_uneven_split_sizes(self):
        # Ten units split 3/3/2/2 under near-equal quartiles.
        sessions, decisions = self._fixture()
        for k in (8, 9):
            day = date(2024, 3, 19 + (k - 8))
            r = 0.0005 * (k + 1)
            sessions.append(_flat_day(day, [100.0, 100.0 * (1 + r), 100.0, 100.0 * (1 + r)]))
            noon = datetime(day.year, day.month, day.day, 12, 0, tzinfo=UTC)
            decisions.append(_decision(noon, Timeframe.ONE_MINUTE))
        report = quartile_allocation(decisions, sessions, "daily")
        assert [q.units for q in report.quartiles] == [3, 3, 2, 2]

    def test_too_few_units_rejected(self):
        sessions, decisions = self._fixture()
        with pytest.raises(EvaluationError, match=">= 4 units"):
            quartile_allocation(decisions[:6], sessions[:3], "daily")

    def test_thin_unit_skipped_with_warning(self, caplog):
        sessions, decisions = self._fixture()
        # A ninth day with only two closes cannot produce a volatility.
        day = date(2024, 3, 19)
        sessions.append(_flat_day(day, [100.0, 101.0]))
        decisions.append(
            _decision(datetime(2024, 3, 19, 12, 0, tzinfo=UTC), Timeframe.ONE_MINUTE)
        )
        with caplog.at_level("WARNING"):
            report = quartile_allocation(decisions, sessions, "daily")
        assert sum(q.units for q in report.quartiles) == 8
        assert any("skipping unit" in r.message for r in caplog.records)

    def test_unknown_granularity_rejected(self):
        sessions, decisions = self._fixture()
        with pytest.raises(EvaluationError, match="granularity"):
            quartile_allocation(decisions, sessions, "weekly")

    def test_hourly_grouping(self):
        # One day, four distinct hours with different volatility levels.
        day = date(2024, 3, 11)
        open_time = datetime(2024, 3, 11, 9, 0, tzinfo=UTC)
        bars = []
        decisions = []
        for h in range(4):
            r = 0.001 * (h + 1)
            for j, c in enumerate([100.0, 100.0 * (1 + r), 100.0, 100.0 * (1 + r)]):
                ts = open_time + timedelta(hours=h, minutes=j)
                bars.append(Bar(ts, c, c, c, c, 10))
            decisions.append(
                _decision(open_time + timedelta(hours=h, minutes=2), Timeframe.ONE_MINUTE)
            )
        session = session_from_bars(day, open_time, open_time + timedelta(hours=5), tuple(bars))
        report = quartile_allocation(decisions, [session], "hourly")
        assert [q.units for q in report.quartiles] == [1, 1, 1, 1]

    def test_to_plot_csv(self, tmp_path):
        sessions, decisions = self._fixture()
        report = quartile_allocation(decisions, sessions, "daily")
        path = tmp_path / "quartiles.csv"
        report.to_plot_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "quartile,units,vol_min,vol_max,share_1m,share_10m,share_1h"
        assert len(lines) == 5


class TestAnnualization:
    def test_daily_sampling(self):
        stamps = [datetime(2024, 3, 11 + k, 16, 0, tzinfo=UTC) for k in range(5)]
        assert annualization_factor(stamps) == 252.0

    def test_minute_sampling(self):
        stamps = []
        for k in range(3):
            start = datetime(2024, 3, 11 + k, 9, 30, tzinfo=UTC)
            stamps += [start + timedelta(minutes=j) for j in range(390)]
        assert annualization_factor(stamps) == 252.0 * 390.0

    def test_median_is_robust_to_partial_first_day(self):
        stamps = [datetime(2024, 3, 11, 15, 58, tzinfo=UTC),
                  datetime(2024, 3, 11, 15, 59, tzinfo=UTC)]
        for k in range(1, 4):
            start = datetime(2024, 3, 11 + k, 9, 30, tzinfo=UTC)
            stamps += [start + timedelta(minutes=j) for j in range(390)]
        assert annualization_factor(stamps) == 252.0 * 390.0

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            annualization_factor([])
