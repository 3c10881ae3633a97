"""Hierarchy env: span tiling, forced decisions, telescoping log returns."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import log as mp_log

from alloctrader.allocator import (
    AgentRegistry,
    AllocatorConfig,
    AllocatorError,
    _DECISION_LOG_FIELDS,
    HierarchyEnv,
    RegisteredAgent,
    observation_size,
    allocator_reward,
    read_decision_log,
    run_hierarchy,
    write_decision_log,
)
from alloctrader.envs import Action, EnvConfig, TradingEnv
from alloctrader.indicators import feature_table
from alloctrader.market_data import TIMEFRAME_ORDER, Timeframe
from alloctrader.ppo import NetworkSpec, PolicyParameters
import observation_reference
from conftest import constant_action_params, mutate, ramped_sessions, stub_registry
from portfolio_reference import PortfolioState, buy_all, features, mark, sell_all

mp.dps = 50

BUY, SELL, HOLD = 0, 1, 2

ALLOC = AllocatorConfig(market_window=20, vol_window=10)


@pytest.fixture(scope="module")
def hold_env(regime_result):
    return HierarchyEnv(regime_result.sessions, stub_registry(HOLD), ALLOC)


@pytest.fixture(scope="module")
def buy_env(regime_result):
    return HierarchyEnv(regime_result.sessions, stub_registry(BUY), ALLOC)


class TestAllocatorReward:
    def test_matches_high_precision_log(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v0 = float(rng.uniform(1_000.0, 50_000.0))
            v1 = float(rng.uniform(1_000.0, 50_000.0))
            want = float(mp_log(mpf(v1) / mpf(v0)))
            assert allocator_reward(v1, v0) == pytest.approx(want, abs=1e-14)

    def test_flat_span_is_zero(self):
        assert allocator_reward(10_000.0, 10_000.0) == 0.0

    def test_non_positive_value_rejected(self):
        with pytest.raises(AllocatorError):
            allocator_reward(0.0, 100.0)


class TestObservationSize:
    def test_formula(self):
        assert observation_size(AllocatorConfig(market_window=60, vol_window=30)) == 310
        assert observation_size(ALLOC) == 110

    def test_bad_windows_rejected(self):
        with pytest.raises(AllocatorError):
            AllocatorConfig(market_window=0)
        with pytest.raises(AllocatorError):
            AllocatorConfig(vol_window=1)


class TestRegistry:
    def test_missing_timeframe_rejected(self):
        full = stub_registry(HOLD)
        partial = {tf: full[tf] for tf in (Timeframe.ONE_MINUTE, Timeframe.ONE_HOUR)}
        with pytest.raises(AllocatorError, match="10m"):
            AgentRegistry(partial)

    def test_timeframe_config_mismatch_rejected(self):
        full = stub_registry(HOLD)
        swapped = {
            Timeframe.ONE_MINUTE: full[Timeframe.ONE_MINUTE],
            Timeframe.TEN_MINUTE: full[Timeframe.ONE_HOUR],
            Timeframe.ONE_HOUR: full[Timeframe.TEN_MINUTE],
        }
        with pytest.raises(AllocatorError, match="configured for"):
            AgentRegistry(swapped)

    def test_network_window_mismatch_rejected(self):
        full = stub_registry(HOLD)
        bad = {
            tf: RegisteredAgent(
                params=full[tf].params,
                config=EnvConfig(timeframe=tf, window_size=full[tf].config.window_size + 1),
            ) if tf is Timeframe.ONE_MINUTE else full[tf]
            for tf in TIMEFRAME_ORDER
        }
        with pytest.raises(AllocatorError, match="window"):
            AgentRegistry(bad)


class TestWarmup:
    def test_start_cursor_precedes_a_session_boundary(self, hold_env):
        c = hold_env._start_cursor
        assert hold_env.session_last[c]
        assert hold_env.session_first[c + 1]
        # The hour agent dominates warmup: (34 + 6 - 1) * 60 base bars.
        assert c + 1 >= (34 + 6 - 1) * 60

    def test_insufficient_history_rejected(self, regime_result):
        with pytest.raises(AllocatorError, match="warmup"):
            HierarchyEnv(regime_result.sessions[:6], stub_registry(HOLD), ALLOC)

    def test_observation_width(self, hold_env):
        obs = hold_env.reset()
        assert obs.shape == (hold_env.observation_size,)
        assert obs.shape == (110,)
        assert np.isfinite(obs).all()


class TestStep:
    def test_forced_first_decision_each_session(self, buy_env):
        buy_env.reset()
        while not buy_env.done:
            buy_env.step(Timeframe.ONE_HOUR)
        forced = [d for d in buy_env.decisions if d.forced]
        sessions_traded = int(
            buy_env.session_first[buy_env._start_cursor + 1:].sum()
        )
        assert len(forced) == sessions_traded
        for d in forced:
            assert d.timeframe is Timeframe.ONE_MINUTE
            assert d.span_bars == 1

    def test_spans_tile_contiguously(self, buy_env):
        buy_env.reset()
        start = buy_env.cursor
        while not buy_env.done:
            buy_env.step(Timeframe.TEN_MINUTE)
        expected_start = start + 1
        for d in buy_env.decisions:
            assert d.timestamp == buy_env.timestamps[expected_start]
            expected_start += d.span_bars
        assert expected_start == buy_env.n_bars

    def test_hour_spans_truncate_at_session_close(self, buy_env):
        # A 390-minute session under all-hour choices splits into
        # 1 (forced) + 6 x 60 + 29 truncated bars.
        buy_env.reset()
        while not buy_env.done:
            buy_env.step(Timeframe.ONE_HOUR)
        first_day = buy_env.decisions[0].timestamp.date()
        spans = [d.span_bars for d in buy_env.decisions
                 if d.timestamp.date() == first_day]
        assert spans == [1, 60, 60, 60, 60, 60, 60, 29]

    def test_ten_minute_spans(self, buy_env):
        buy_env.reset()
        while not buy_env.done:
            buy_env.step(Timeframe.TEN_MINUTE)
        first_day = buy_env.decisions[0].timestamp.date()
        spans = [d.span_bars for d in buy_env.decisions
                 if d.timestamp.date() == first_day]
        assert spans == [1] + [10] * 38 + [9]
        assert sum(spans) == 390

    def test_telescoping_sum_of_rewards(self, buy_env):
        buy_env.reset()
        v0 = buy_env.value
        total = 0.0
        rng = np.random.default_rng(3)
        while not buy_env.done:
            total += buy_env.step(int(rng.integers(0, 3))).reward
        v1 = buy_env.value
        assert total == pytest.approx(np.log(v1 / v0), abs=1e-9)
        assert buy_env.equity[-1][1] == v1

    def test_info_is_the_decision(self, buy_env):
        # perfbench's tracer reads the step's decision from info["decision"].
        buy_env.reset()
        rng = np.random.default_rng(9)
        while not buy_env.done:
            v_start = buy_env.value
            result = buy_env.step(int(rng.integers(0, 3)))
            assert result.info == {"decision": buy_env.decisions[-1]}
            assert result.info["decision"].log_return == result.reward
            assert result.reward == allocator_reward(buy_env.value, v_start)

    def test_all_hold_agents_preserve_cash(self, hold_env):
        hold_env.reset()
        while not hold_env.done:
            hold_env.step(Timeframe.ONE_HOUR)
        assert hold_env.value == ALLOC.initial_cash
        assert not hold_env.trades
        assert all(v == ALLOC.initial_cash for _, v in hold_env.equity)
        assert all(d.log_return == 0.0 for d in hold_env.decisions)

    def test_equity_is_empty_before_the_first_reset(self, regime_result):
        env = HierarchyEnv(regime_result.sessions, stub_registry(BUY), ALLOC)
        assert env.equity == []
        env.reset()
        assert env.equity == [(env.timestamps[env._start_cursor], ALLOC.initial_cash)]

    def test_equity_covers_every_base_bar(self, buy_env):
        buy_env.reset()
        start = buy_env.cursor
        while not buy_env.done:
            buy_env.step(Timeframe.ONE_HOUR)
        assert len(buy_env.equity) == buy_env.n_bars - start
        stamps = [ts for ts, _ in buy_env.equity]
        assert stamps == list(buy_env.timestamps[start:])

    def test_no_position_survives_session_close(self, buy_env):
        buy_env.reset()
        rng = np.random.default_rng(4)
        while not buy_env.done:
            buy_env.step(int(rng.integers(0, 3)))
            assert not buy_env.session_last[buy_env.cursor] or buy_env.shares == 0

    def test_no_position_opened_at_a_session_close(self, buy_env):
        # The forced 1m decision at a session open trades at the previous
        # session's final close; a buy there would be held overnight.
        buy_env.reset()
        while not buy_env.done:
            decision = buy_env.cursor
            buy_env.step(Timeframe.ONE_HOUR)
            if buy_env.session_last[decision]:
                assert buy_env.shares == 0

    def test_bad_choice_rejected(self, hold_env):
        hold_env.reset()
        with pytest.raises(AllocatorError, match="choice"):
            hold_env.step(3)

    def test_step_after_done_rejected(self, hold_env):
        hold_env.reset()
        while not hold_env.done:
            hold_env.step(Timeframe.ONE_HOUR)
        with pytest.raises(AllocatorError, match="finished"):
            hold_env.step(Timeframe.ONE_HOUR)

    def test_deterministic_replay(self, regime_result):
        rng = np.random.default_rng(5)
        choices = [int(rng.integers(0, 3)) for _ in range(400)]
        logs = []
        for _ in range(2):
            env = HierarchyEnv(regime_result.sessions, stub_registry(BUY), ALLOC)
            env.reset()
            rewards = []
            for c in choices:
                if env.done:
                    break
                rewards.append(env.step(c).reward)
            logs.append(rewards)
        assert logs[0] == logs[1]

    def test_span_marks_equal_bar_by_bar_replay(self, regime_result):
        # The 1m agent buys, the 10m agent sells and the 1h agent holds, so
        # random choices give held, flat and liquidated spans of every length.
        agents = {}
        for tf, w, action in zip(TIMEFRAME_ORDER, (12, 8, 6), (BUY, SELL, HOLD)):
            params = constant_action_params(NetworkSpec(w * 8, (16, 16), 3), action)
            agents[tf] = RegisteredAgent(params, EnvConfig(timeframe=tf, window_size=w))
        config = AllocatorConfig(market_window=20, vol_window=10, fee_per_sell_share=0.01)
        env = HierarchyEnv(regime_result.sessions, AgentRegistry(agents), config)
        env.reset()
        rng = np.random.default_rng(12)
        while not env.done:
            env.step(int(rng.integers(0, 3)))
        assert {t.side for t in env.trades} == {"buy", "sell"}

        # Replay the trade log one bar at a time with the scalar primitives. A
        # sale at a session's final bar is the liquidation, booked before the
        # bar's mark is recorded; every other fill is a decision made after it.
        start = env._start_cursor
        bar_of = {ts: i for i, ts in enumerate(env.timestamps)}
        fills = {}
        for t in env.trades:
            fills.setdefault(bar_of[t.timestamp], []).append(t)
        state = PortfolioState.initial(config.initial_cash, float(env.closes[start]), 0.01)
        equity, rows = [], []
        for i in range(start, env.n_bars):
            price = float(env.closes[i])
            state = mark(state, price)
            pending = fills.get(i, [])
            if env.session_last[i] and pending and pending[0].side == "sell":
                state, sale = sell_all(state, price)
                assert sale.shares == pending.pop(0).shares
            equity.append((env.timestamps[i], state.total_value))
            pf = features(state)
            rows.append((pf.cash_ratio, pf.stock_ratio,
                         min(max(pf.unrealized_profit_ratio, -1.0), 1.0)))
            for t in pending:
                if t.side == "buy":
                    state, shares = buy_all(state, price)
                else:
                    state, sale = sell_all(state, price)
                    shares = sale.shares
                assert shares == t.shares and t.price == price
        assert env.equity == equity
        assert (env._pf_rows[start:] == np.array(rows)).all()

    def test_observation_holds_the_account_features(self, buy_env):
        # The allocator sees the account's ratios at the cursor's close, the
        # profit ratio clamped, as the oracle computes them from the account.
        obs = buy_env.reset()
        rng = np.random.default_rng(8)
        pf = slice(ALLOC.market_window * 5, ALLOC.market_window * 5 + 3)
        while True:
            state = PortfolioState(buy_env.cash, buy_env.shares, buy_env.cost_basis,
                                   float(buy_env.closes[buy_env.cursor]))
            assert buy_env.value == state.total_value
            f = features(state)
            want = [f.cash_ratio, f.stock_ratio, min(max(f.unrealized_profit_ratio, -1.0), 1.0)]
            assert obs[pf].tolist() == want
            if buy_env.done:
                break
            obs = buy_env.step(int(rng.integers(0, 3))).observation
        assert buy_env.trades

    def test_every_observation_equals_the_per_call_reference(self, regime_result):
        # Random choices over agents that always buy, on sessions whose prices
        # ramp up within each day: held positions pass a profit ratio of 1,
        # so the clamp written when the account is marked runs.
        sessions = ramped_sessions(regime_result.sessions)
        env = HierarchyEnv(sessions, stub_registry(BUY), ALLOC)
        tables = {tf: observation_reference.raw_table(sessions, tf.minutes)
                  for tf in TIMEFRAME_ORDER}
        unrealized = ALLOC.market_window * 5 + 2
        rng = np.random.default_rng(9)
        obs = env.reset()
        clamped = 0
        while True:
            want = observation_reference.allocator_observation(env, tables[Timeframe.ONE_MINUTE])
            assert obs.tobytes() == want.tobytes(), f"decision at bar {env.cursor}"
            clamped += obs[unrealized] == 1.0
            for tf in TIMEFRAME_ORDER:
                w = env.registry[tf].config.window_size
                want = observation_reference.build_observation(
                    tables[tf], env.closes, env._pf_rows, env.cursor, w, tf.minutes)
                assert env._agent_observation(tf, env.cursor).tobytes() == want.tobytes()
            if env.done:
                break
            obs = env.step(int(rng.integers(0, 3))).observation
        assert clamped


def _base_arrays(sessions):
    return tuple(np.concatenate([getattr(s, k) for s in sessions], dtype=float)
                 for k in ("high", "low", "close", "volume"))


class TestPhaseSeries:
    def test_trailing_aggregates_match_brute_force(self, regime_result, buy_env):
        highs, lows, closes, volumes = _base_arrays(regime_result.sessions)
        tf = Timeframe.TEN_MINUTE
        table = observation_reference.raw_table(regime_result.sessions, tf.minutes)
        np.testing.assert_array_equal(buy_env.tables[tf],
                                      observation_reference.scaled_rows(table, closes))
        rng = np.random.default_rng(6)
        for i in rng.integers(500, len(closes), size=5):
            i = int(i)
            # Rebuild the aggregated series whose bars end at residue i % 10,
            # and compare its feature row at bar i with the trailing table.
            idx = np.arange(i % 10, len(closes), 10)
            t_high = np.array([highs[max(0, j - 9): j + 1].max() for j in idx])
            t_low = np.array([lows[max(0, j - 9): j + 1].min() for j in idx])
            t_vol = np.array([volumes[max(0, j - 9): j + 1].sum() for j in idx])
            want = feature_table(t_high, t_low, closes[idx], t_vol)
            np.testing.assert_allclose(table[i], want[i // 10], atol=1e-10)

    def test_one_minute_agent_sees_base_features(self, regime_result, buy_env):
        buy_env.reset()
        b = buy_env.cursor
        w = buy_env.registry[Timeframe.ONE_MINUTE].config.window_size
        base = feature_table(*_base_arrays(regime_result.sessions))
        want = observation_reference.build_observation(base, buy_env.closes, buy_env._pf_rows,
                                                       b, w, 1)
        got = buy_env._agent_observation(Timeframe.ONE_MINUTE, b)
        np.testing.assert_array_equal(got, want)


class TestTrainServeParity:
    @pytest.mark.parametrize("tf", TIMEFRAME_ORDER, ids=lambda tf: tf.label)
    def test_training_observations_are_the_hierarchy_ones(self, regime_result, hold_env, tf):
        # Both environments hold the portfolio flat, so every portfolio row is
        # the initial one and the observations differ only if the market
        # columns do.
        window = hold_env.registry[tf].config.window_size
        env = TradingEnv(regime_result.sessions, EnvConfig(timeframe=tf, window_size=window))
        obs = env.reset()
        hold_env.reset()
        while not env.done:
            want = hold_env._agent_observation(tf, env.cursor)
            assert obs.tobytes() == want.tobytes(), f"decision at bar {env.cursor}"
            obs = env.step(Action.HOLD).observation


def _write(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


class TestDecisionLog:
    def test_round_trip(self, tmp_path, buy_env):
        buy_env.reset()
        rng = np.random.default_rng(7)
        while not buy_env.done:
            buy_env.step(int(rng.integers(0, 3)))
        path = str(tmp_path / "decisions.csv")
        write_decision_log(buy_env.decisions, path)
        records = read_decision_log(path)
        assert len(records) == len(buy_env.decisions)
        for rec, d in zip(records, buy_env.decisions):
            assert rec.timestamp == d.timestamp
            assert rec.timeframe is d.timeframe
            assert rec.forced == d.forced
            assert rec.span_bars == d.span_bars
            assert rec.log_return == d.log_return
        assert records == tuple(buy_env.decisions)

    @pytest.mark.parametrize("row, match", [
        ("2024-01-02T14:30:00+00:00,1m,0,1", "row 3 has 4 fields, expected 5"),
        ("2024-01-02T14:30:00+00:00,1m,1,1,0.0,extra", "row 3 has 6 fields, expected 5"),
        ("", "row 3 has 0 fields, expected 5"),
        ("2024-01-02T14:30:00+00:00,1m,1.0,1,0.0", "row 3: invalid literal for int"),
        ("2024-01-02T14:30:00+00:00,1m,7,1,0.0", "row 3: forced_flag must be 0 or 1, got '7'"),
        ("2024-01-02T14:30:00+00:00,1m,-1,1,0.0", "row 3: forced_flag must be 0 or 1, got '-1'"),
        ("yesterday,1m,0,1,0.0", "row 3: Invalid isoformat string: .yesterday."),
        ("2024-01-02T14:30:00+00:00,1m,0,1,nope", "row 3: could not convert string to float"),
        ("2024-01-02T14:30:00+00:00,2m,0,1,0.0", "row 3: unknown timeframe label"),
        ("2024-01-02T14:30:00+00:00,1m,0,0,0.0", "row 3: span_bars must be >= 1, got 0"),
        ("2024-01-02T14:30:00+00:00,1m,0,-4,0.0", "row 3: span_bars must be >= 1, got -4"),
        ("2024-01-02T14:30:00+00:00,1m,0,1,nan", "row 3: span_log_return must be finite, got 'nan'"),
        ("2024-01-02T14:30:00+00:00,1m,0,1,-inf", "row 3: span_log_return must be finite"),
        ("0001-01-01T00:00:00+05:00,1m,0,1,0.0", "row 3: date value out of range"),
    ], ids=["short-row", "long-row", "blank-row", "forced-flag", "forced-flag-7",
            "forced-flag-minus-1", "timestamp", "float", "timeframe", "zero-span",
            "negative-span", "nan-return", "infinite-return", "utc-overflow"])
    def test_bad_row_names_file_and_row(self, tmp_path, row, match):
        path = tmp_path / "decisions.csv"
        good = "2024-01-02T14:30:00+00:00,1m,0,1,0.0"
        path.write_text(f"timestamp,chosen_timeframe,forced_flag,span_bars,span_log_return\n"
                        f"{good}\n{row}\n{good}\n")
        with pytest.raises(AllocatorError, match=f"decisions.csv: {match}"):
            read_decision_log(str(path))

    def test_timestamp_without_offset_is_utc(self, tmp_path):
        path = tmp_path / "decisions.csv"
        path.write_text("timestamp,chosen_timeframe,forced_flag,span_bars,span_log_return\n"
                        "2024-02-05T09:30:00,1m,1,1,0.0\n"
                        "2024-02-05T10:30:00+01:00,1m,0,1,0.0\n")
        naive, offset = read_decision_log(str(path))
        assert naive.timestamp == offset.timestamp == datetime(2024, 2, 5, 9, 30,
                                                                 tzinfo=timezone.utc)
        assert naive.timestamp.utcoffset() == offset.timestamp.utcoffset() == timedelta(0)

    def test_fuzzed_logs_raise_only_allocator_errors(self, tmp_path):
        # Byte flips, truncations and dropped fields of a well-formed log:
        # each read either returns well-formed records or raises AllocatorError.
        # An extra field on a data row is always refused.
        rng = np.random.default_rng(5)
        rows = [",".join(_DECISION_LOG_FIELDS)] + [
            f"2024-01-{2 + k // 20:02d}T{14 + k % 6}:{k % 60:02d}:00+00:00,"
            f"{('1m', '10m', '1h')[k % 3]},{int(k % 7 == 0)},{1 + k % 60},"
            f"{rng.normal(0.0, 1e-3)!r}"
            for k in range(40)
        ]
        data = ("\r\n".join(rows) + "\r\n").encode()
        assert len(read_decision_log(_write(tmp_path / "good.csv", data))) == 40
        path = tmp_path / "fuzzed.csv"
        outcomes = {"read": 0, "refused": 0}
        for trial in range(800):
            kind = trial % 4
            fuzzed = mutate(data, rng, kind)
            try:
                records = read_decision_log(_write(path, fuzzed))
            except AllocatorError as exc:
                assert "fuzzed.csv: " in str(exc)
                outcomes["refused"] += 1
                continue
            assert kind != 3, "a row with an extra field was read"
            outcomes["read"] += 1
            for rec in records:
                assert rec.timestamp.utcoffset() == timedelta(0)
                assert isinstance(rec.timeframe, Timeframe)
                assert rec.span_bars >= 1 and np.isfinite(rec.log_return)
        assert outcomes["read"] > 0 and outcomes["refused"] > 0

    def test_header(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_decision_log([], path)
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == "timestamp,chosen_timeframe,forced_flag,span_bars,span_log_return"


class TestRunHierarchy:
    def _allocator_params(self, seed=0):
        spec = NetworkSpec(input_dim=observation_size(ALLOC), hidden=(16, 16), action_count=3)
        return PolicyParameters.initialize(spec, np.random.default_rng(seed))

    def test_report_consistency(self, regime_result):
        registry = stub_registry(BUY)
        env = run_hierarchy(
            regime_result.sessions, registry, self._allocator_params(), ALLOC
        )
        initial, final = env.equity[0][1], env.equity[-1][1]
        assert initial == ALLOC.initial_cash
        total = sum(d.log_return for d in env.decisions)
        assert total == pytest.approx(np.log(final / initial), abs=1e-9)
        # Equity curve spans every base bar plus the pre-span anchor point.
        assert len(env.equity) == sum(d.span_bars for d in env.decisions) + 1

    def test_input_dim_mismatch_rejected(self, regime_result):
        bad_spec = NetworkSpec(input_dim=17, hidden=(8, 8), action_count=3)
        bad = PolicyParameters.initialize(bad_spec, np.random.default_rng(0))
        with pytest.raises(AllocatorError, match="allocator network"):
            run_hierarchy(regime_result.sessions, stub_registry(HOLD), bad, ALLOC)

    def test_start_day_skips_earlier_sessions(self, regime_result):
        registry = stub_registry(HOLD)
        day = regime_result.sessions[-3].day
        env = run_hierarchy(
            regime_result.sessions, registry, self._allocator_params(), ALLOC, start_day=day
        )
        assert env.decisions[0].timestamp.date() == day
