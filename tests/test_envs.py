"""Trading environment: reward oracle, step semantics, liquidation invariant."""

import io

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import tanh as mp_tanh

from alloctrader.envs import (
    Action,
    EnvConfig,
    EnvError,
    TradingEnv,
    agent_reward,
    build_observation,
    normalize_market_window,
)
from alloctrader.market_data import Timeframe

mp.dps = 50


def _env(sessions, timeframe=Timeframe.ONE_MINUTE, window=5, cash=10_000.0, fee=0.0, trace=None):
    cfg = EnvConfig(timeframe=timeframe, window_size=window, initial_cash=cash,
                    fee_per_sell_share=fee)
    return TradingEnv(sessions, cfg, trace=trace)


class TestAgentReward:
    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            buy = float(rng.uniform(1.0, 500.0))
            sell = float(rng.uniform(0.5, 600.0))
            want = float(mp_tanh(mpf(5) * (mpf(sell) - mpf(buy)) / mpf(buy)))
            assert agent_reward(sell, buy) == pytest.approx(want, abs=1e-12)

    def test_three_percent_gain(self):
        assert agent_reward(103.0, 100.0) == pytest.approx(float(mp_tanh(mpf("0.15"))), abs=1e-12)

    def test_break_even_is_zero(self):
        assert agent_reward(100.0, 100.0) == 0.0

    def test_bounded_even_at_extremes(self):
        # Float tanh saturates to exactly +/-1 for huge profits or losses.
        assert -1.0 <= agent_reward(1.0, 1000.0) < 0.0
        assert 0.0 < agent_reward(1000.0, 1.0) <= 1.0
        assert 0.0 < agent_reward(101.0, 100.0) < 0.1

    def test_bad_buy_price_rejected(self):
        with pytest.raises(EnvError):
            agent_reward(100.0, 0.0)


class TestNormalization:
    def test_market_window_scaling(self):
        rows = np.array([
            [50.0, 1.2, 100.0, 0.4, 500.0],
            [75.0, -0.6, -300.0, 0.9, 700.0],
        ])
        closes = np.array([100.0, 120.0])
        out = normalize_market_window(rows, closes)
        assert out[0, 0] == 0.5 and out[1, 0] == 0.75
        assert out[0, 1] == pytest.approx(1.2 / 100.0)
        assert out[1, 1] == pytest.approx(-0.6 / 120.0)
        assert out[0, 2] == 0.5 and out[1, 2] == -1.5
        assert out[0, 3] == 0.4 and out[1, 3] == 0.9
        assert out[:, 4].mean() == pytest.approx(0.0, abs=1e-12)

    def test_constant_volume_maps_to_zero(self):
        rows = np.tile([50.0, 0.0, 0.0, 0.5, 123.0], (4, 1))
        out = normalize_market_window(rows, np.full(4, 100.0))
        assert (out[:, 4] == 0.0).all()

    def test_unrealized_column_clamped(self):
        rows = np.tile([50.0, 0.0, 0.0, 0.5, 10.0], (2, 1))
        pf = np.array([[0.0, 1.0, 2.5], [1.0, 0.0, -3.0]])
        obs = build_observation(rows, np.full(2, 100.0), pf)
        assert obs.shape == (16,)
        assert obs[7] == 1.0 and obs[15] == -1.0


class TestReset:
    def test_observation_length_and_determinism(self, short_sessions):
        a = _env(short_sessions, window=7)
        b = _env(short_sessions, window=7)
        oa, ob = a.reset(), b.reset()
        assert oa.shape == (7 * 8,)
        np.testing.assert_array_equal(oa, ob)
        assert a.cursor == a.min_cursor == 34 + 7 - 1

    def test_cursor_before_warmup_rejected(self, short_sessions):
        env = _env(short_sessions, window=5)
        with pytest.raises(EnvError, match="too early"):
            env.reset(cursor=env.min_cursor - 1)

    def test_cursor_at_final_bar_rejected(self, short_sessions):
        env = _env(short_sessions, window=5)
        with pytest.raises(EnvError, match="no bars"):
            env.reset(cursor=env.n_bars - 1)

    def test_fresh_portfolio_in_observation(self, short_sessions):
        env = _env(short_sessions, window=4)
        obs = env.reset()
        assert (obs[5::8] == 1.0).all()   # cash ratio
        assert (obs[6::8] == 0.0).all()   # stock ratio
        assert (obs[7::8] == 0.0).all()   # unrealized

    def test_ten_minute_resampling(self, short_sessions):
        # Six 90-minute sessions give 9 ten-minute bars each.
        env = _env(short_sessions, timeframe=Timeframe.TEN_MINUTE, window=3)
        assert env.n_bars == 54
        assert env.session_last.sum() == 6


class TestStep:
    def test_buy_then_sell_reward_exact(self, short_sessions):
        env = _env(short_sessions, window=5)
        env.reset(cursor=40)  # mid-session, no forced-liquidation interference
        c0 = float(env.closes[40])
        r1 = env.step(Action.BUY)
        assert r1.reward == 0.0
        c1 = float(env.closes[41])
        r2 = env.step(Action.SELL)
        want = float(mp_tanh(mpf(5) * (mpf(c1) - mpf(c0)) / mpf(c0)))
        assert r2.reward == pytest.approx(want, abs=1e-12)
        assert env.portfolio.shares == 0

    def test_all_hold_preserves_cash_exactly(self, short_sessions):
        env = _env(short_sessions, window=5)
        env.reset()
        done = False
        while not done:
            result = env.step(Action.HOLD)
            assert result.info["portfolio_value"] == 10_000.0
            done = result.done
        assert env.portfolio.cash == 10_000.0
        assert not env.trades

    def test_forced_liquidation_at_session_end(self, short_sessions):
        env = _env(short_sessions, window=5)
        # Bar 89 closes the first 90-minute session.
        env.reset(cursor=88)
        result = env.step(Action.BUY)
        assert env.portfolio.shares == 0
        assert result.info["forced_liquidation"] is not None
        c_buy, c_sell = float(env.closes[88]), float(env.closes[89])
        want = float(mp_tanh(mpf(5) * (mpf(c_sell) - mpf(c_buy)) / mpf(c_buy)))
        assert result.reward == pytest.approx(want, abs=1e-12)
        sides = [t.side for t in env.trades]
        assert sides == ["buy", "sell"]

    def test_no_position_survives_any_session_close(self, short_sessions):
        rng = np.random.default_rng(5)
        env = _env(short_sessions, window=5)
        env.reset()
        done = False
        while not done:
            result = env.step(int(rng.integers(0, 3)))
            if env.session_last[env.cursor]:
                assert env.portfolio.shares == 0
            done = result.done

    def test_no_position_opened_at_a_session_close(self, short_sessions):
        # A buy at a session's final bar would carry the position overnight.
        env = _env(short_sessions, window=5)
        env.reset()
        done = False
        while not done:
            decision = env.cursor
            done = env.step(Action.BUY).done
            if env.session_last[decision]:
                assert env.portfolio.shares == 0

    def test_rewards_always_bounded(self, short_sessions):
        rng = np.random.default_rng(6)
        env = _env(short_sessions, window=5)
        env.reset()
        done = False
        while not done:
            result = env.step(int(rng.integers(0, 3)))
            assert -1.0 <= result.reward <= 1.0
            done = result.done

    def test_cash_carries_across_sessions(self, short_sessions):
        env = _env(short_sessions, window=5)
        env.reset(cursor=88)
        env.step(Action.BUY)          # forced out at bar 89, the session close
        value_at_close = env.portfolio.total_value
        result = env.step(Action.HOLD)  # first bar of the next session
        assert env.portfolio.cash == value_at_close
        assert result.info["portfolio_value"] == value_at_close

    def test_step_after_done_rejected(self, short_sessions):
        env = _env(short_sessions, window=5)
        env.reset(cursor=env.n_bars - 2)
        result = env.step(Action.HOLD)
        assert result.done
        with pytest.raises(EnvError, match="finished"):
            env.step(Action.HOLD)

    def test_deterministic_replay(self, short_sessions):
        rng = np.random.default_rng(7)
        actions = [int(rng.integers(0, 3)) for _ in range(60)]
        rewards = []
        for _ in range(2):
            env = _env(short_sessions, window=5)
            env.reset()
            rewards.append([env.step(a).reward for a in actions])
        assert rewards[0] == rewards[1]

    def test_trace_csv(self, short_sessions):
        buf = io.StringIO()
        env = _env(short_sessions, window=5, trace=buf)
        env.reset()
        env.step(Action.BUY)
        env.step(Action.SELL)
        lines = buf.getvalue().strip().split("\r\n")
        assert lines[0] == "timestamp,action,reward,portfolio_value"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "buy"

    def test_fee_reduces_proceeds(self, short_sessions):
        free = _env(short_sessions, window=5)
        paid = _env(short_sessions, window=5, fee=0.01)
        for env in (free, paid):
            env.reset(cursor=40)
            env.step(Action.BUY)
            env.step(Action.SELL)
        assert paid.portfolio.cash < free.portfolio.cash
