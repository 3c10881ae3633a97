"""Indicator oracles: brute-force reimplementations and exact degenerate values.

Each indicator is checked at the last row of its rolling form, the value
feature_table puts in an observation for that bar. The one-pass RSI/MACD is
also checked bit for bit against the per-indicator loops it replaced.
"""

import numpy as np
import pytest

from alloctrader import envs
from alloctrader.config import default_config
from alloctrader.indicators import (
    FEATURE_COLUMNS,
    FEATURE_WARMUP,
    _rsi_and_macd,
    feature_table,
    rolling_cci,
    rolling_pband,
)
from alloctrader.market_data import synthesize

import indicator_reference
from indicator_reference import oracle_macd_hist, oracle_rsi


def _oracle_cci(highs, lows, closes, period=20):
    tp = [(h + l + c) / 3.0 for h, l, c in zip(highs, lows, closes)]
    window = tp[-period:]
    sma = sum(window) / period
    md = sum(abs(x - sma) for x in window) / period
    if md == 0.0:
        return 0.0
    return (window[-1] - sma) / (0.015 * md)


def _oracle_pband(closes, period=20, k=2.0):
    window = closes[-period:]
    mean = sum(window) / period
    var = sum((x - mean) ** 2 for x in window) / period
    sd = var ** 0.5
    if sd == 0.0:
        return 0.5
    lower = mean - k * sd
    upper = mean + k * sd
    return (window[-1] - lower) / (upper - lower)


def _random_walk(rng, n, start=100.0, vol=0.01):
    steps = rng.normal(0.0, vol, size=n - 1)
    closes = start * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    spread = np.abs(rng.normal(0.0, vol / 2, size=n))
    highs = closes * (1.0 + spread)
    lows = closes * (1.0 - spread)
    volumes = rng.integers(1, 1000, size=n).astype(float)
    return highs, lows, closes, volumes


def rolling_rsi(closes):
    """Wilder RSI(14) per bar; NaN before index 14."""
    return _rsi_and_macd(closes)[0]


def rolling_macd_histogram(closes):
    """MACD histogram(12/26/9) per bar; NaN before index 34."""
    return _rsi_and_macd(closes)[1]


def rsi(closes):
    return rolling_rsi(closes)[-1]


def macd_histogram(closes):
    return rolling_macd_histogram(closes)[-1]


def cci(highs, lows, closes):
    return rolling_cci(highs, lows, closes)[-1]


def bollinger_pband(closes):
    return rolling_pband(closes)[-1]


class TestRsi:
    def test_matches_oracle_on_random_walks(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(15, 80))
            _, _, closes, _ = _random_walk(rng, n)
            assert rsi(closes) == pytest.approx(oracle_rsi(list(closes)), abs=1e-9)

    def test_constant_series_exactly_50(self):
        assert rsi(np.full(40, 77.7)) == 50.0

    def test_strictly_rising_is_100(self):
        assert rsi(np.linspace(50, 90, 41)) == 100.0

    def test_strictly_falling_is_0(self):
        assert rsi(np.linspace(90, 50, 41)) == 0.0

    def test_insufficient_history(self):
        assert np.isnan(rolling_rsi(np.arange(14, dtype=float) + 100.0)).all()

    def test_rolling_matches_scalar(self):
        rng = np.random.default_rng(1)
        _, _, closes, _ = _random_walk(rng, 60)
        series = rolling_rsi(closes)
        assert np.isnan(series[:14]).all()
        for t in range(14, 60):
            assert series[t] == pytest.approx(rsi(closes[: t + 1]), abs=1e-9)

    def test_within_bounds(self):
        rng = np.random.default_rng(2)
        _, _, closes, _ = _random_walk(rng, 300, vol=0.05)
        series = rolling_rsi(closes)
        valid = series[~np.isnan(series)]
        assert (valid >= 0.0).all() and (valid <= 100.0).all()


class TestMacd:
    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(35, 120))
            _, _, closes, _ = _random_walk(rng, n)
            got = macd_histogram(closes)
            assert got == pytest.approx(oracle_macd_hist(list(closes)), abs=1e-9)

    def test_constant_series_exactly_zero(self):
        assert macd_histogram(np.full(50, 12.25)) == 0.0

    def test_insufficient_history(self):
        assert np.isnan(rolling_macd_histogram(np.arange(34, dtype=float) + 10.0)).all()

    def test_rolling_matches_scalar(self):
        rng = np.random.default_rng(4)
        _, _, closes, _ = _random_walk(rng, 70)
        series = rolling_macd_histogram(closes)
        assert np.isnan(series[:34]).all()
        for t in range(34, 70):
            assert series[t] == pytest.approx(macd_histogram(closes[: t + 1]), abs=1e-9)

    def test_shift_invariance_breaks_scale_invariance_holds(self):
        # MACD of k*x equals k * MACD of x (EMAs are linear).
        rng = np.random.default_rng(5)
        _, _, closes, _ = _random_walk(rng, 60)
        assert macd_histogram(3.0 * closes) == pytest.approx(
            3.0 * macd_histogram(closes), rel=1e-12
        )


class TestCci:
    def test_matches_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            n = int(rng.integers(20, 90))
            highs, lows, closes, _ = _random_walk(rng, n)
            got = cci(highs, lows, closes)
            want = _oracle_cci(list(highs), list(lows), list(closes))
            assert got == pytest.approx(want, abs=1e-9)

    def test_flat_series_exactly_zero(self):
        flat = np.full(25, 10.0)
        assert cci(flat, flat, flat) == 0.0

    def test_insufficient_history(self):
        x = np.arange(19, dtype=float) + 100.0
        assert np.isnan(rolling_cci(x, x, x)).all()

    def test_rolling_matches_scalar(self):
        rng = np.random.default_rng(7)
        highs, lows, closes, _ = _random_walk(rng, 50)
        series = rolling_cci(highs, lows, closes)
        assert np.isnan(series[:19]).all()
        for t in range(19, 50):
            prefix = slice(0, t + 1)
            assert series[t] == pytest.approx(
                cci(highs[prefix], lows[prefix], closes[prefix]), abs=1e-9)

    def test_shift_invariance(self):
        # CCI is invariant to adding a constant to all three price series.
        rng = np.random.default_rng(8)
        highs, lows, closes, _ = _random_walk(rng, 40)
        a = cci(highs, lows, closes)
        b = cci(highs + 500.0, lows + 500.0, closes + 500.0)
        assert b == pytest.approx(a, abs=1e-6)


class TestPband:
    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(20, 90))
            _, _, closes, _ = _random_walk(rng, n)
            got = bollinger_pband(closes)
            assert got == pytest.approx(_oracle_pband(list(closes)), abs=1e-9)

    def test_flat_series_exactly_half(self):
        assert bollinger_pband(np.full(30, 3.5)) == 0.5

    def test_at_upper_band(self):
        # 19 equal closes then one spike: last close sits above the mean by
        # nearly the whole band; %B must exceed 0.5 but track the oracle.
        closes = np.concatenate([np.full(19, 100.0), [110.0]])
        got = bollinger_pband(closes)
        assert got == pytest.approx(_oracle_pband(list(closes)), abs=1e-12)
        assert got > 0.9

    def test_affine_invariance(self):
        # %B is invariant to positive affine maps of the close series.
        rng = np.random.default_rng(10)
        _, _, closes, _ = _random_walk(rng, 45)
        a = bollinger_pband(closes)
        b = bollinger_pband(2.5 * closes + 40.0)
        assert b == pytest.approx(a, abs=1e-9)

    def test_insufficient_history(self):
        assert np.isnan(rolling_pband(np.arange(19, dtype=float) + 1.0)).all()

    def test_rolling_matches_scalar(self):
        rng = np.random.default_rng(11)
        _, _, closes, _ = _random_walk(rng, 50)
        series = rolling_pband(closes)
        assert np.isnan(series[:19]).all()
        for t in range(19, 50):
            assert series[t] == pytest.approx(bollinger_pband(closes[: t + 1]), abs=1e-9)


class TestFeatureTable:
    def test_warmup_and_columns(self):
        assert FEATURE_WARMUP == 34
        assert FEATURE_COLUMNS == ("rsi", "macd_histogram", "cci", "pband", "volume")

    def test_rows_match_scalar_functions(self):
        # Each row equals the oracles on the bars up to it: no look-ahead.
        rng = np.random.default_rng(12)
        highs, lows, closes, volumes = _random_walk(rng, 80)
        table = feature_table(highs, lows, closes, volumes)
        assert table.shape == (80, 5)
        for t in range(FEATURE_WARMUP, 80):
            h, l, c = list(highs[: t + 1]), list(lows[: t + 1]), list(closes[: t + 1])
            assert table[t, 0] == pytest.approx(oracle_rsi(c), abs=1e-9)
            assert table[t, 1] == pytest.approx(oracle_macd_hist(c), abs=1e-9)
            assert table[t, 2] == pytest.approx(_oracle_cci(h, l, c), abs=1e-9)
            assert table[t, 3] == pytest.approx(_oracle_pband(c), abs=1e-9)
            assert table[t, 4] == volumes[t]

    def test_warmup_rows_flagged_nan(self):
        x = np.arange(40, dtype=float) + 50.0
        table = feature_table(x, x, x, x)
        # Some indicator column is NaN on every pre-warmup row.
        assert np.isnan(table[:FEATURE_WARMUP, :4]).any(axis=1).all()
        assert np.isfinite(table[FEATURE_WARMUP:]).all()


def _walk_with_flat_stretches(rng, n):
    """A random walk in which some stretches hold the close constant, so
    Wilder's loss average reaches 0 and the RSI takes its degenerate values."""
    highs, lows, closes, volumes = _random_walk(rng, n)
    for start in rng.integers(0, n, size=4):
        stop = start + int(rng.integers(5, 60))
        closes[start:stop] = closes[start]
        highs[start:stop] = lows[start:stop] = closes[start]
    return highs, lows, closes, volumes


@pytest.fixture(scope="module")
def market_100d():
    """The columns of a synthesized 100-day market at the default config."""
    result = synthesize(default_config().synth, seed=7, days=100)
    return tuple(np.concatenate([getattr(s, name) for s in result.sessions], dtype=np.float64)
                 for name in ("high", "low", "close", "volume"))


def _assert_same_bytes(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestOnePassMatchesReferenceLoops:
    """RSI and MACD share one loop over Python floats; every value must keep
    the bits of the per-indicator numpy-scalar loops in indicator_reference."""

    @pytest.mark.parametrize("n", [0, 1, 2, 14, 15, 16, 33, 34, 35, 36])
    def test_short_series(self, n):
        rng = np.random.default_rng(n)
        highs, lows, closes, volumes = _random_walk(rng, max(n, 2))
        args = highs[:n], lows[:n], closes[:n], volumes[:n]
        _assert_same_bytes(rolling_rsi(args[2]), indicator_reference.rolling_rsi(args[2]))
        _assert_same_bytes(rolling_macd_histogram(args[2]),
                           indicator_reference.rolling_macd_histogram(args[2]))
        _assert_same_bytes(feature_table(*args), indicator_reference.reference_feature_table(*args))

    def test_random_walks_with_flat_stretches(self):
        rng = np.random.default_rng(13)
        for _ in range(12):
            args = _walk_with_flat_stretches(rng, int(rng.integers(40, 600)))
            _assert_same_bytes(feature_table(*args),
                               indicator_reference.reference_feature_table(*args))
        flat = np.full(80, 42.0)
        table = feature_table(flat, flat, flat, flat)
        assert (table[FEATURE_WARMUP:, :2] == [50.0, 0.0]).all()

    def test_closes_of_mixed_magnitude(self):
        # Price deltas share one exponent range, so their sums are often
        # exact in any order; closes spread over decades make the order of
        # the seed sums and of every update visible.
        rng = np.random.default_rng(14)
        for _ in range(12):
            closes = rng.lognormal(0.0, 3.0, size=int(rng.integers(15, 200)))
            args = closes * 1.01, closes * 0.99, closes, np.ones_like(closes)
            _assert_same_bytes(feature_table(*args),
                               indicator_reference.reference_feature_table(*args))

    @pytest.mark.parametrize("length", [1, 10, 60])
    def test_trailing_tables(self, monkeypatch, market_100d, length):
        rng = np.random.default_rng(length)
        walk = _walk_with_flat_stretches(rng, 3000)
        got = [envs.trailing_table(*walk, length), envs.trailing_table(*market_100d, length)]
        monkeypatch.setattr(envs, "feature_table", indicator_reference.reference_feature_table)
        want = [envs.trailing_table(*walk, length), envs.trailing_table(*market_100d, length)]
        for g, w in zip(got, want):
            _assert_same_bytes(g, w)
