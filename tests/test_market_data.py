"""Market data: bar/session validation, CSV ingestion, resampling, synthesis."""

import hashlib
from datetime import date, datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest

from alloctrader.allocator import AllocatorConfig, HierarchyEnv
from alloctrader.cli import main
from alloctrader.config import default_config
from alloctrader.envs import EnvConfig, TradingEnv
from alloctrader.evaluation import buy_and_hold, quartile_allocation
from alloctrader import market_data
from alloctrader.market_data import (
    EmptyDataError,
    MarketDataError,
    RegimeParams,
    Session,
    SynthConfig,
    Timeframe,
    TradingCalendar,
    ingest_csv,
    resample,
    sessions_in_range,
    synthesize,
    write_sessions_csv,
)
from bar_reference import Bar, session_from_bars
from conftest import mutate, small_synth_config, stub_registry, weekday_calendar
import csv_reference
import ingest_reference
import resample_reference
from resample_reference import resample_bars, session_bars
from synth_reference import reference_sessions_csv, reference_synthesize

UTC = timezone.utc


def _ts(h, m, day=2):
    return datetime(2024, 1, day, h, m, tzinfo=UTC)


def _bar(h, m, o=100.0, hi=101.0, lo=99.0, c=100.5, v=10, day=2):
    return Bar(_ts(h, m, day), o, hi, lo, c, v)


def _columns(n=4, **changes):
    """Columns of n valid bars from 09:30 on 2024-01-02, with `changes`
    mapping a column name to {row: value}."""
    cols = {
        "timestamps": [_ts(9, 30 + k) for k in range(n)],
        "open": [100.0] * n, "high": [101.0] * n, "low": [99.0] * n,
        "close": [100.5] * n, "volume": [10] * n,
    }
    for name, rows in changes.items():
        for row, value in rows.items():
            cols[name][row] = value
    return cols


def _columnar(**cols):
    return Session(date(2024, 1, 2), _ts(9, 30), _ts(16, 0), **cols)


def _csv_rows(cols):
    """`_columns` as CSV data rows."""
    return [",".join([ts.isoformat(), *map(repr, prices), str(volume)])
            for ts, *prices, volume in zip(*cols.values())]


def _write_csv(tmp_path, rows, header="timestamp,open,high,low,close,volume"):
    path = tmp_path / "bars.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


def _january():
    return weekday_calendar(date(2024, 1, 1), date(2024, 1, 31))


def _refused(tmp_path, match=None, **bar):
    """The second of three bars, with `bar` mapping a column to its value,
    is refused as a session's row (matching `match`) and, with the same
    message, as row 3 of a CSV."""
    cols = _columns(3, **{name: {1: value} for name, value in bar.items()})
    with pytest.raises(MarketDataError, match=match) as refused:
        _columnar(**cols)
    path = _write_csv(tmp_path, _csv_rows(cols))
    with pytest.raises(MarketDataError) as ingested:
        ingest_csv(path, _january())
    assert str(ingested.value) == f"{path} row 3: {refused.value}"


class TestBar:
    """The bar rules, on a session's columns and on an ingested CSV row."""

    def test_valid_bar_normalizes_to_utc(self, tmp_path):
        cols = _columns(1, timestamps={0: datetime(2024, 1, 2, 9, 30)})
        assert _columnar(**cols).timestamps[0].tzinfo is UTC
        path = _write_csv(tmp_path, ["2024-01-02T09:30:00,10.0,11.0,9.0,10.5,5"])
        assert ingest_csv(path, _january()).sessions[0].timestamps == (_ts(9, 30),)

    def test_high_below_low_rejected(self, tmp_path):
        _refused(tmp_path, open=100.0, high=99.0, low=100.5, close=100.0)

    def test_close_above_high_rejected(self, tmp_path):
        _refused(tmp_path, close=102.0)

    def test_open_below_low_rejected(self, tmp_path):
        _refused(tmp_path, open=98.0)

    def test_non_positive_price_rejected(self, tmp_path):
        _refused(tmp_path, open=0.0, low=0.0)

    @pytest.mark.parametrize("field", ["o", "hi", "lo", "c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_price_rejected(self, tmp_path, field, value):
        column = {"o": "open", "hi": "high", "lo": "low", "c": "close"}[field]
        _refused(tmp_path, match="price", **{column: value})

    def test_numpy_and_integer_prices_accepted(self):
        session = _columnar(**_columns(1, open={0: np.float64(100.0)}, high={0: 101},
                                       low={0: np.float64(99.0)}, close={0: 100}))
        assert [session.open.tolist(), session.high.tolist(), session.low.tolist(),
                session.close.tolist()] == [[100.0], [101.0], [99.0], [100.0]]

    def test_negative_volume_rejected(self, tmp_path):
        _refused(tmp_path, volume=-1)

    def test_sub_minute_timestamp_rejected(self, tmp_path):
        _refused(tmp_path, timestamps=datetime(2024, 1, 2, 9, 31, 15, tzinfo=UTC))

    def test_volume_beyond_64_bits_rejected(self, tmp_path):
        _refused(tmp_path, match="64 bits", volume=2**63)


class TestSession:
    def test_bar_outside_hours_rejected(self):
        with pytest.raises(MarketDataError, match="bar 2024-01-02 09:00:00[+]00:00 outside"):
            _columnar(**_columns(1, timestamps={0: _ts(9, 0)}))

    def test_non_increasing_timestamps_rejected(self):
        with pytest.raises(MarketDataError, match="not strictly increasing at .*09:31"):
            _columnar(**_columns(2, timestamps={0: _ts(9, 31), 1: _ts(9, 31)}))

    def test_bar_at_close_time_rejected(self):
        with pytest.raises(MarketDataError, match="outside session hours"):
            _columnar(**_columns(1, timestamps={0: _ts(16, 0)}))


class TestColumnarSession:
    def test_columns_hold_the_rows(self):
        session = _columnar(**_columns(volume={2: 7}))
        assert session.close.dtype == np.float64 and session.volume.dtype == np.int64
        assert session.volume.tolist() == [10, 10, 7, 10]
        assert session_bars(session)[2] == _bar(9, 32, v=7)
        assert not hasattr(session, "bars")

    def test_columns_are_read_only(self):
        session = _columnar(**_columns())
        with pytest.raises(ValueError):
            session.close[0] = 1.0

    def test_writable_input_copied_and_read_only_input_kept(self):
        cols = _columns()
        cols["close"] = close = np.array(cols["close"])
        session = _columnar(**cols)
        close[0] = 100.75
        assert session.close[0] == 100.5
        assert _columnar(**dict(_columns(), close=session.close)).close is session.close

    def test_first_failing_row_raises_its_bar_message(self):
        cols = _columns(low={2: 0.0}, close={3: 200.0})
        with pytest.raises(MarketDataError, match=r"^non-positive low price: 0\.0$"):
            _columnar(**cols)

    def test_misaligned_timestamp_before_bad_price(self):
        cols = _columns(timestamps={1: _ts(9, 31) + timedelta(seconds=5)}, open={2: -1.0})
        with pytest.raises(MarketDataError, match="not minute-aligned"):
            _columnar(**cols)

    def test_bar_rules_before_session_rules(self):
        cols = _columns(timestamps={0: _ts(9, 0)}, volume={3: -1})
        with pytest.raises(MarketDataError, match="volume must be a non-negative integer"):
            _columnar(**cols)

    def test_fractional_volume_column_rejected(self):
        cols = _columns()
        cols["volume"] = np.array(cols["volume"], dtype=np.float64)
        with pytest.raises(MarketDataError, match="volume must be a non-negative integer"):
            _columnar(**cols)

    @pytest.mark.parametrize("volume", [np.array([10, 2**63], dtype=np.uint64), [10, 2**63],
                                        [10, 2**64], [-1, 2**63]],
                             ids=["uint64", "int-2**63", "int-2**64", "negative-then-2**63"])
    def test_volume_past_int64_refused_not_wrapped(self, volume):
        # An unsigned column, or Python ints past int64, is checked as given.
        cols = dict(_columns(2), volume=volume)
        message = ("volume must be a non-negative integer, got -1" if volume[0] == -1
                   else f"volume {volume[1]} does not fit in 64 bits")
        with pytest.raises(MarketDataError, match=f"^{message}$"):
            _columnar(**cols)

    def test_unsigned_volume_below_2_63_kept(self):
        volume = np.array([0, 2**63 - 1], dtype=np.uint64)
        session = _columnar(**dict(_columns(2), volume=volume))
        assert session.volume.dtype == np.int64
        assert session.volume.tolist() == [0, 2**63 - 1]

    def test_column_of_wrong_length_rejected(self):
        cols = _columns()
        cols["high"] = cols["high"][:-1]
        with pytest.raises(MarketDataError, match="high column"):
            _columnar(**cols)

    def test_one_changed_value_makes_sessions_unequal(self):
        assert _columnar(**_columns()) == _columnar(**_columns())
        for name, value in (("open", 100.25), ("volume", 11),
                            ("timestamps", _ts(9, 59))):
            assert _columnar(**_columns()) != _columnar(**_columns(**{name: {3: value}}))


class TestTimeframe:
    def test_labels_round_trip(self):
        for tf in Timeframe:
            assert Timeframe.from_label(tf.label) is tf

    def test_unknown_label_rejected(self):
        with pytest.raises(MarketDataError):
            Timeframe.from_label("5m")

    def test_hour_is_multiple_of_others(self):
        assert Timeframe.ONE_HOUR.minutes % Timeframe.TEN_MINUTE.minutes == 0
        assert Timeframe.ONE_HOUR.minutes % Timeframe.ONE_MINUTE.minutes == 0


class TestIngest:
    def test_full_session_ingested(self, tmp_path):
        rows = []
        start = _ts(9, 30)
        for k in range(390):
            ts = start + timedelta(minutes=k)
            rows.append(f"{ts.isoformat()},100.0,100.5,99.5,100.2,7")
        result = ingest_csv(_write_csv(tmp_path, rows), _january())
        assert len(result.sessions) == 1
        assert len(result.sessions[0]) == 390
        assert result.dropped_rows == 0

    def test_out_of_session_rows_dropped_and_counted(self, tmp_path):
        rows = [
            f"{_ts(9, 0).isoformat()},100,101,99,100,5",
            f"{_ts(9, 30).isoformat()},100,101,99,100,5",
            f"{_ts(16, 30).isoformat()},100,101,99,100,5",
            f"{datetime(2024, 1, 6, 10, 0, tzinfo=UTC).isoformat()},100,101,99,100,5",
        ]
        result = ingest_csv(_write_csv(tmp_path, rows), _january())
        assert result.dropped_rows == 3
        assert len(result.sessions) == 1 and len(result.sessions[0]) == 1

    def test_malformed_price_names_row(self, tmp_path):
        rows = [
            f"{_ts(9, 30).isoformat()},100,101,99,100,5",
            f"{_ts(9, 31).isoformat()},100,abc,99,100,5",
        ]
        with pytest.raises(MarketDataError, match="row 3"):
            ingest_csv(_write_csv(tmp_path, rows), _january())

    def test_ohlc_violation_names_row(self, tmp_path):
        rows = [f"{_ts(9, 30).isoformat()},100,99,100,100,5"]
        with pytest.raises(MarketDataError, match="row 2"):
            ingest_csv(_write_csv(tmp_path, rows), _january())

    def test_fractional_volume_rejected(self, tmp_path):
        rows = [f"{_ts(9, 30).isoformat()},100,101,99,100,5.5"]
        with pytest.raises(MarketDataError, match="row 2"):
            ingest_csv(_write_csv(tmp_path, rows), _january())

    @pytest.mark.parametrize("bad_row, want", [(None, "not UTF-8 text"),
                                               (3, "row 3: OHLC ordering violated"),
                                               (300, "row 300: OHLC ordering violated"),
                                               (399, "not UTF-8 text")])
    def test_undecodable_bytes_after_the_rows_read_before_them(self, tmp_path, bad_row, want):
        # Text is decoded by 8 KiB chunks: the rows of the chunks before the
        # one with the bad bytes are checked first, as the row-by-row reader
        # did. Rows are 43 bytes, and the bad bytes end the third chunk.
        stamps = [_ts(9, 30, day) + timedelta(minutes=k) for day in (2, 3) for k in range(200)]
        rows = [f"{ts:%Y-%m-%dT%H:%M:%S}+00:00,100,101,99,100,5" for ts in stamps]
        if bad_row is not None:
            rows[bad_row - 2] = rows[bad_row - 2].replace(",101,", ",99.5,")
        path = _write_csv(tmp_path, rows)
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        got = _outcome(ingest_csv, path, _january())
        assert got == _outcome(ingest_reference.ingest_csv, path, _january())
        assert got[0] is MarketDataError and want in got[1]

    @pytest.mark.parametrize("field, reason", [
        ("5" * 200_000, "field larger than field limit"),
        ("5\x00", None),  # before Python 3.11, csv: "line contains NUL"
    ], ids=["oversized-field", "nul-byte"])
    def test_unreadable_row_names_it(self, tmp_path, field, reason):
        # A row the csv module cannot read is refused with its number, after
        # the rows before it are checked.
        rows = [f"{_ts(9, m).isoformat()},100,101,99,100,{v}"
                for m, v in ((30, "5"), (31, field), (32, "5"))]
        path = _write_csv(tmp_path, rows)
        got = _outcome(ingest_csv, path, _january())
        assert got == _outcome(ingest_reference.ingest_csv, path, _january())
        assert got[0] is MarketDataError and got[1].startswith(f"{path} row 3: ")
        assert reason is None or reason in got[1]
        bad_first = _write_csv(tmp_path, [rows[0].replace(",99,", ",102,"), *rows[1:]])
        assert _outcome(ingest_csv, bad_first, _january())[1].startswith(
            f"{bad_first} row 2: OHLC ordering violated")

    def test_unreadable_header_names_row_1(self, tmp_path):
        path = _write_csv(tmp_path, [f"{_ts(9, 30).isoformat()},100,101,99,100,5"],
                          header="timestamp" * 20_000 + ",open,high,low,close,volume")
        got = _outcome(ingest_csv, path, _january())
        assert got == _outcome(ingest_reference.ingest_csv, path, _january())
        assert got == (MarketDataError, f"{path} row 1: field larger than field limit (131072)")

    def test_whole_volume_written_as_a_float_accepted(self, tmp_path):
        rows = [f"{_ts(9, m).isoformat()},100,101,99,100,{v}"
                for m, v in ((30, "5.0"), (31, "1e3"))]
        result = ingest_csv(_write_csv(tmp_path, rows), _january())
        assert result.sessions[0].volume.tolist() == [5, 1000]

    @pytest.mark.parametrize("volume", [2**53 + 1, 2**63 - 1])
    def test_large_volume_round_trips_exactly(self, tmp_path, volume):
        session = _columnar(**_columns(2, volume={1: volume}))
        path = tmp_path / "rt.csv"
        write_sessions_csv([session], str(path))
        back = ingest_csv(str(path), _january())
        assert back.sessions == (session,)
        assert back.sessions[0].volume.tolist() == [10, volume]

    def test_empty_file_distinct_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyDataError):
            ingest_csv(str(path), _january())

    def test_header_only_distinct_error(self, tmp_path):
        with pytest.raises(EmptyDataError):
            ingest_csv(_write_csv(tmp_path, []), _january())

    def test_wrong_header_rejected(self, tmp_path):
        path = _write_csv(tmp_path, [], header="time,o,h,l,c,v")
        with pytest.raises(MarketDataError, match="header"):
            ingest_csv(path, _january())

    def test_holiday_gap_preserved(self, tmp_path):
        rows = []
        for day in (2, 5):
            for k in range(3):
                ts = _ts(9, 30 + k, day=day)
                rows.append(f"{ts.isoformat()},100,101,99,100,5")
        result = ingest_csv(_write_csv(tmp_path, rows), _january())
        assert [s.day for s in result.sessions] == [date(2024, 1, 2), date(2024, 1, 5)]
        assert [len(s) for s in result.sessions] == [3, 3]

    def test_duplicate_timestamp_rejected(self, tmp_path):
        rows = [
            f"{_ts(9, 30).isoformat()},100,101,99,100,5",
            f"{_ts(9, 30).isoformat()},100,101,99,100,6",
        ]
        with pytest.raises(MarketDataError, match="duplicate"):
            ingest_csv(_write_csv(tmp_path, rows), _january())

    def test_round_trip_bit_identical(self, tmp_path):
        sessions = synthesize(small_synth_config(session_minutes=120), seed=5, days=3).sessions
        path = tmp_path / "rt.csv"
        write_sessions_csv(sessions, str(path))
        calendar = TradingCalendar.from_sessions(sessions)
        back = ingest_csv(str(path), calendar)
        assert back.dropped_rows == 0
        assert back.sessions == sessions
        # Second pass through serialization is also identical.
        path2 = tmp_path / "rt2.csv"
        write_sessions_csv(back.sessions, str(path2))
        assert path.read_text() == path2.read_text()

    def test_csv_bytes_match_csv_writer_reference(self, tmp_path):
        # Dates before the epoch and near the year 9999, and ingested
        # sessions with gaps from timestamps given at another offset.
        sessions = []
        for start, seed in ((date(2024, 1, 2), 1), (date(1969, 12, 31), 2), (date(9999, 12, 29), 3)):
            cfg = small_synth_config(session_minutes=45, start_date=start)
            sessions += synthesize(cfg, seed=seed, days=2).sessions
        plus_five = timezone(timedelta(hours=5))
        rows = [f"{_ts(9, m, day=d).astimezone(plus_five).isoformat()},100.1,101,99,100.25,{m}"
                for d in (2, 5) for m in (30, 31, 40, 59)]
        sessions += ingest_csv(_write_csv(tmp_path, rows), _january()).sessions
        path, want = tmp_path / "sessions.csv", tmp_path / "reference.csv"
        write_sessions_csv(sessions, str(path))
        csv_reference.write_sessions_csv(sessions, str(want))
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == hashlib.sha256(want.read_bytes()).hexdigest())


def _outcome(ingest, path, calendar):
    """What an ingest gives: its result, or its exception's type and message."""
    try:
        return ingest(path, calendar)
    except Exception as exc:
        return type(exc), str(exc)


class TestIngestMatchesReference:
    """The columnar ingest against the row-by-row reader it replaced."""

    def test_fuzzed_files(self, tmp_path, capsys):
        # Each file is a small good CSV under one seeded mutation: the shared
        # byte flips, truncations, dropped and appended fields; swapped rows,
        # a row before the session opens or a blank line, each with digit
        # flips in every other file; or digit flips alone, which move prices,
        # volumes and timestamps without breaking their syntax.
        sessions = synthesize(small_synth_config(session_minutes=6), seed=3, days=3).sessions
        calendar = TradingCalendar.from_sessions(sessions)
        calendar_path = tmp_path / "calendar.csv"
        calendar.to_file(str(calendar_path))
        path = tmp_path / "bars.csv"
        write_sessions_csv(sessions, str(path))
        data = path.read_bytes()
        assert ingest_csv(str(path), calendar).sessions == sessions
        before_open = sessions[0].open_time - timedelta(minutes=1)
        early = f"{before_open:%Y-%m-%dT%H:%M:%S},1.0,1.0,1.0,1.0,1"
        rng = np.random.default_rng(21)

        def digit_flips(data):
            out = bytearray(data)
            for pos in rng.integers(0, len(out), int(rng.integers(1, 4))):
                out[pos] = b"0123456789"[int(rng.integers(0, 10))]
            return bytes(out)

        accepted, messages = 0, set()
        for trial in range(840):
            kind = trial % 8
            if kind < 4:
                fuzzed = mutate(data, rng, kind)
            elif kind == 7:
                fuzzed = digit_flips(data)
            else:
                lines = data.split(b"\r\n")
                i, j = (int(k) for k in rng.integers(1, len(lines) - 1, 2))
                if kind == 4:
                    lines[i], lines[j] = lines[j], lines[i]
                else:
                    lines.insert(i, early.encode() if kind == 5 else b"")
                fuzzed = b"\r\n".join(lines)
                if trial % 16 >= 8:
                    fuzzed = digit_flips(fuzzed)
            path.write_bytes(fuzzed)
            got = _outcome(ingest_csv, str(path), calendar)
            assert got == _outcome(ingest_reference.ingest_csv, str(path), calendar), fuzzed
            if not isinstance(got, tuple):
                accepted += 1
                continue
            messages.add(got[1].partition(": ")[2][:12])
            code = main(["ingest", "--csv", str(path), "--calendar", str(calendar_path),
                         "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 1 and err == f"error: {got[1]}\n"
        assert accepted >= 20 and len(messages) >= 8


class TestCalendar:
    def test_weekdays_excludes_weekends(self):
        cal = weekday_calendar(date(2024, 1, 1), date(2024, 1, 7))
        assert date(2024, 1, 6) not in cal.days
        assert date(2024, 1, 5) in cal.days

    def test_file_round_trip(self, tmp_path):
        cal = weekday_calendar(date(2024, 1, 1), date(2024, 1, 10))
        path = tmp_path / "cal.csv"
        cal.to_file(str(path))
        back = TradingCalendar.from_file(str(path))
        assert back.days == cal.days

    def test_close_not_after_open_names_file_and_line(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("2024-01-02,09:30,16:00\n2024-01-03,16:00,09:30\n")
        with pytest.raises(MarketDataError, match=r"cal\.csv line 2: close 09:30 is not after"):
            TradingCalendar.from_file(str(path))

    def test_repeated_day_names_file_and_both_lines(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("2024-01-02,09:30,16:00\n# late close\n2024-01-02,14:00,14:05\n")
        with pytest.raises(MarketDataError, match=r"cal\.csv line 3: day 2024-01-02 is "
                                                  r"already listed on line 1"):
            TradingCalendar.from_file(str(path))

    def test_locate_boundaries(self, tmp_path):
        # A session's hours include its open and exclude its close.
        rows = [f"{_ts(9, m, day=3).isoformat()},100,101,99,100,5" for m in (29, 30)]
        rows += [f"{_ts(h, m, day=3).isoformat()},100,101,99,100,5" for h, m in ((15, 59), (16, 0))]
        result = ingest_csv(_write_csv(tmp_path, rows),
                            weekday_calendar(date(2024, 1, 1), date(2024, 1, 7)))
        assert result.dropped_rows == 2
        assert [s.day for s in result.sessions] == [date(2024, 1, 3)]
        assert result.sessions[0].timestamps == (_ts(9, 30, day=3), _ts(15, 59, day=3))


def _session_of(n_bars, start_price=100.0, day=2):
    rng = np.random.default_rng(n_bars)
    bars = []
    price = start_price
    start = _ts(9, 30, day=day)
    for k in range(n_bars):
        o = price
        c = price * (1.0 + rng.normal(0, 0.001))
        hi = max(o, c) * 1.001
        lo = min(o, c) * 0.999
        bars.append(Bar(start + timedelta(minutes=k), o, hi, lo, c, int(rng.integers(1, 50))))
        price = c
    return session_from_bars(date(2024, 1, day), start, start + timedelta(minutes=n_bars), bars)


def _trailing(session, length):
    return resample(session.high, session.low, session.volume, length)


class TestResample:
    def test_390_to_10m_counts_and_volume(self):
        session = _session_of(390)
        t_high, t_low, t_vol = _trailing(session, 10)
        assert t_high.shape == t_low.shape == t_vol.shape == (390,)
        out = resample_reference.resample(session, Timeframe.TEN_MINUTE)
        assert len(out) == 39
        bars = session_bars(session)
        for i, bar in enumerate(out):
            chunk = bars[i * 10:(i + 1) * 10]
            assert bar.volume == sum(b.volume for b in chunk)
            assert bar.open == chunk[0].open
            assert bar.close == chunk[-1].close
            assert bar.high == max(b.high for b in chunk)
            assert bar.low == min(b.low for b in chunk)
            assert bar.timestamp == chunk[0].timestamp
            # The trailing aggregate ending at the window's last bar is the window.
            end = i * 10 + 9
            assert (t_high[end], t_low[end], t_vol[end]) == (bar.high, bar.low, bar.volume)

    def test_390_to_1h_partial_window(self):
        session = _session_of(390)
        out = resample_reference.resample(session, Timeframe.ONE_HOUR)
        assert len(out) == 7
        # Trailing partial hour covers the last 30 minutes.
        assert out[-1].timestamp == _ts(9, 30) + timedelta(minutes=360)
        # Trailing aggregates are partial at the start of the data instead:
        # bar i < 59 aggregates the i + 1 bars that exist.
        t_high, t_low, t_vol = _trailing(session, 60)
        for i in range(60):
            assert t_high[i] == session.high[:i + 1].max()
            assert t_low[i] == session.low[:i + 1].min()
            assert t_vol[i] == session.volume[:i + 1].sum()
        assert (t_high[389], t_low[389], t_vol[389]) == \
            (session.high[330:].max(), session.low[330:].min(), session.volume[330:].sum())

    def test_single_bar_identity(self):
        session = _session_of(1)
        out = resample_reference.resample(session, Timeframe.ONE_HOUR)
        assert out == (session_bars(session)[0],)
        t_high, t_low, t_vol = _trailing(session, 60)
        assert (t_high.tolist(), t_low.tolist(), t_vol.tolist()) == \
            (session.high.tolist(), session.low.tolist(), session.volume.tolist())

    def test_one_minute_returns_session_bars(self):
        session = _session_of(390)
        out = resample_reference.resample(session, Timeframe.ONE_MINUTE)
        assert out == session_bars(session)
        assert out == resample_bars(session_bars(session), 1)
        # At length 1 every aggregate is its own bar, bit for bit.
        t_high, t_low, t_vol = _trailing(session, 1)
        assert t_high.tobytes() == session.high.tobytes()
        assert t_low.tobytes() == session.low.tobytes()
        assert t_vol.tobytes() == session.volume.astype(np.float64).tobytes()

    def test_volume_conserved_any_window(self):
        session = _session_of(97)
        total = sum(b.volume for b in session_bars(session))
        for n in (1, 2, 7, 10, 60, 97, 200):
            assert sum(b.volume for b in resample_bars(session_bars(session), n)) == total
            # Windows ending at the last bar and every n-th before it tile the
            # data, the first one partial.
            assert _trailing(session, n)[2][::-n].sum() == total

    def test_exact_integer_volume_sums(self):
        # Every window's sum stays below 2**53, so it is exact.
        rng = np.random.default_rng(5)
        volumes = rng.integers(1, 10**12, size=500)
        for n in (10, 60):
            t_vol = resample(np.ones(500), np.ones(500), volumes, n)[2]
            want = [int(volumes[max(0, i - n + 1):i + 1].sum()) for i in range(500)]
            assert t_vol.dtype == np.float64
            assert [int(v) for v in t_vol] == want

    def test_exact_sums_when_the_market_total_passes_2_53(self):
        # 7,800 bars near 10**13 each total about 8e16, past 2**53, so a
        # running sum over the market would round; each window stays exact.
        sessions = synthesize(small_synth_config(base_volume=10**13), seed=7, days=20).sessions
        volumes = [v for s in sessions for v in s.volume.tolist()]
        assert sum(volumes) > 2**53
        floats = np.array(volumes, dtype=np.float64)
        for n in (10, 60):
            t_vol = resample(floats, floats, floats, n)[2]
            want = [sum(volumes[max(0, i - n + 1):i + 1]) for i in range(len(volumes))]
            assert [int(v) for v in t_vol] == want

    def test_path_consistency_full_hour_session(self):
        session = _session_of(360)
        direct = resample_reference.resample(session, Timeframe.ONE_HOUR)
        via_10m = resample_bars(resample_reference.resample(session, Timeframe.TEN_MINUTE), 6)
        assert direct == via_10m
        hours, tens = _trailing(session, 60), _trailing(session, 10)
        for i in range(360):
            ends = slice(max(i % 10, i - 50), i + 1, 10)
            assert hours[0][i] == tens[0][ends].max()
            assert hours[1][i] == tens[1][ends].min()
            assert hours[2][i] == tens[2][ends].sum()

    def test_empty_session_rejected(self):
        empty = session_from_bars(date(2024, 1, 2), _ts(9, 30), _ts(16, 0), ())
        with pytest.raises(MarketDataError):
            resample_reference.resample(empty, Timeframe.ONE_MINUTE)
        for n in (1, 60):
            with pytest.raises(MarketDataError, match="cannot aggregate 0 bars"):
                _trailing(empty, n)

    def test_bad_window_rejected(self):
        with pytest.raises(MarketDataError):
            resample_bars(session_bars(_session_of(5)), 0)
        with pytest.raises(MarketDataError, match="cannot aggregate 5 bars by 0"):
            _trailing(_session_of(5), 0)


class TestSynthesize:
    def test_same_seed_bit_identical(self):
        cfg = small_synth_config(session_minutes=60)
        a = synthesize(cfg, seed=7, days=3)
        b = synthesize(cfg, seed=7, days=3)
        assert a.sessions == b.sessions
        assert all((x == y).all() for x, y in zip(a.regimes, b.regimes))

    def test_different_seed_differs(self):
        cfg = small_synth_config(session_minutes=60)
        a = synthesize(cfg, seed=7, days=1)
        b = synthesize(cfg, seed=8, days=1)
        assert a.sessions != b.sessions

    def test_degenerate_walk_is_flat(self):
        cfg = SynthConfig(
            low=RegimeParams(0.0, 0.0),
            high=RegimeParams(0.0, 0.0),
            transition=((0.9, 0.1), (0.1, 0.9)),
            start_price=42.0,
            session_minutes=30,
        )
        result = synthesize(cfg, seed=1, days=2)
        for session in result.sessions:
            for name in ("open", "high", "low", "close"):
                assert (getattr(session, name) == 42.0).all()

    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(MarketDataError):
            SynthConfig(
                low=RegimeParams(0.0, 0.001),
                high=RegimeParams(0.0, 0.002),
                transition=((0.9, 0.2), (0.1, 0.9)),
            )

    def test_labels_cover_every_bar(self, regime_result):
        for session, labels in zip(regime_result.sessions, regime_result.regimes):
            assert labels.shape == (len(session),)
            assert set(np.unique(labels)) <= {0, 1}

    def test_weekends_skipped(self):
        cfg = small_synth_config(session_minutes=10, start_date=date(2024, 1, 5))
        result = synthesize(cfg, seed=0, days=3)
        days = [s.day for s in result.sessions]
        assert days == [date(2024, 1, 5), date(2024, 1, 8), date(2024, 1, 9)]

    def test_regime_volatility_separation(self):
        # Sticky chain, high sigma = 4x low sigma; realized per-day vol of
        # high-labeled days should beat low-labeled days in >= 95% of pairs.
        cfg = SynthConfig(
            low=RegimeParams(0.0, 0.0005),
            high=RegimeParams(0.0, 0.002),
            transition=((0.998, 0.002), (0.002, 0.998)),
            session_minutes=390,
        )
        result = synthesize(cfg, seed=23, days=250)
        low_vols, high_vols = [], []
        for session, labels in zip(result.sessions, result.regimes):
            share_high = labels.mean()
            if 0.2 < share_high < 0.8:
                continue  # mixed day, regime ambiguous
            closes = session.close
            realized = np.diff(closes) / closes[:-1]
            (high_vols if share_high >= 0.8 else low_vols).append(realized.std(ddof=1))
        assert len(low_vols) >= 10 and len(high_vols) >= 10
        low_sorted = np.sort(low_vols)
        wins = sum(np.searchsorted(low_sorted, h) for h in high_vols)
        assert wins / (len(low_vols) * len(high_vols)) >= 0.95


_DEFAULT = default_config()
_REFERENCE_CASES = {
    "default": (_DEFAULT.synth, 5),
    "zero-volatility": (small_synth_config(low=RegimeParams(0.0, 0.0),
                                           high=RegimeParams(0.0, 0.0)), 3),
    "switch-half": (small_synth_config(transition=((0.5, 0.5), (0.5, 0.5))), 3),
    "one-minute-sessions": (small_synth_config(session_minutes=1), 12),
    "391-minute-sessions": (small_synth_config(session_minutes=391), 3),
    "friday-start": (small_synth_config(start_date=date(2024, 1, 5)), 4),
}


class TestSynthesizeMatchesScalarLoop:
    @pytest.mark.parametrize("case", list(_REFERENCE_CASES))
    def test_columns_and_labels_match(self, case):
        config, days = _REFERENCE_CASES[case]
        got = synthesize(config, _DEFAULT.seed, days)
        want = reference_synthesize(config, _DEFAULT.seed, days)
        assert got.sessions == want.sessions
        for a, b in zip(got.sessions, want.sessions):
            for name in ("open", "high", "low", "close", "volume"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert len(got.regimes) == days
        for a, b in zip(got.regimes, want.regimes):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_default_market_csv_matches(self, tmp_path):
        path = tmp_path / "bars.csv"
        write_sessions_csv(synthesize(_DEFAULT.synth, _DEFAULT.seed, 100).sessions, str(path))
        want = reference_sessions_csv(
            reference_synthesize(_DEFAULT.synth, _DEFAULT.seed, 100).sessions)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == hashlib.sha256(want.encode()).hexdigest())

    def test_shorter_market_is_a_prefix(self):
        cfg = small_synth_config(session_minutes=30)
        short, long = synthesize(cfg, seed=4, days=2), synthesize(cfg, seed=4, days=5)
        assert short.sessions == long.sessions[:2]

    def test_date_overflow_raised_before_any_draw(self, monkeypatch):
        def no_rng(seed):
            raise AssertionError("random generator created")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        cfg = small_synth_config(start_date=date(9999, 12, 30))
        with pytest.raises(MarketDataError, match="run past 9999-12-31"):
            synthesize(cfg, seed=0, days=3)

    def test_session_must_close_on_the_day_it_opens(self):
        assert small_synth_config(session_minutes=869).session_minutes == 869
        with pytest.raises(MarketDataError, match="at most 869"):
            small_synth_config(session_minutes=870)

    def test_base_volume_bounded(self):
        with pytest.raises(MarketDataError, match="base_volume"):
            small_synth_config(base_volume=10**16)
        # At 0 or below every bar's volume would be clipped to 1.
        for volume in (0, -5):
            with pytest.raises(MarketDataError, match="base_volume"):
                small_synth_config(base_volume=volume)


class TestColumnsOnly:
    """The market's readers use the columns; the package has no bar row type."""

    def test_no_bar_row_type(self):
        assert not hasattr(market_data, "Bar")

    @pytest.fixture(scope="class")
    def sessions(self):
        return synthesize(small_synth_config(), seed=3, days=10).sessions

    def test_trading_env(self, sessions):
        env = TradingEnv(sessions, EnvConfig(Timeframe.TEN_MINUTE, window_size=4))
        env.reset()
        for _ in range(5):
            env.step(0)

    def test_hierarchy_env(self, sessions):
        env = HierarchyEnv(sessions, stub_registry(0),
                           AllocatorConfig(market_window=20, vol_window=10))
        env.reset()
        for _ in range(5):
            env.step(0)

    def test_buy_and_hold(self, sessions):
        curve = buy_and_hold(sessions, 10_000.0)
        assert len(curve.timestamps) == sum(len(s) for s in sessions)

    def test_quartile_allocation(self, sessions):
        decisions = [
            SimpleNamespace(timestamp=s.timestamps[100], timeframe=Timeframe.ONE_MINUTE)
            for s in sessions
        ]
        report = quartile_allocation(decisions, sessions, "daily")
        assert len(report.quartiles) == 4

    def test_cmd_synth(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("synth.days = 3\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


class TestSessionsInRange:
    def test_inclusive_bounds(self, short_sessions):
        days = [s.day for s in short_sessions]
        picked = sessions_in_range(short_sessions, days[1], days[3])
        assert [s.day for s in picked] == days[1:4]
        assert sessions_in_range(short_sessions, None, None) == tuple(short_sessions)
