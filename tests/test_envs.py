"""Trading environment: reward oracle, step semantics, liquidation invariant."""

import tracemalloc

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import tanh as mp_tanh

from alloctrader import envs
from alloctrader.envs import (
    Action,
    EnvConfig,
    EnvError,
    TradingEnv,
    agent_reward,
    build_observation,
    normalize_market_window,
    run_agent,
)
from alloctrader.indicators import feature_table
from alloctrader.market_data import TIMEFRAME_ORDER, Session, Timeframe
from alloctrader.portfolio import PortfolioError, features
from alloctrader.ppo import (
    ARRAY_ORDER,
    NetworkSpec,
    PolicyParameters,
    PpoHyperparams,
    SplitGreedyPolicy,
    _net_forward,
    greedy_action,
    train,
)
import observation_reference
from conftest import ramped_sessions
from portfolio_reference import PortfolioState, buy_all, mark, sell_all
from resample_reference import resample

mp.dps = 50


def _env(sessions, timeframe=Timeframe.ONE_MINUTE, window=5, cash=10_000.0, fee=0.0):
    cfg = EnvConfig(timeframe=timeframe, window_size=window, initial_cash=cash,
                    fee_per_sell_share=fee)
    return TradingEnv(sessions, cfg)


@pytest.fixture(scope="module")
def regime_sessions(regime_result):
    return regime_result.sessions


def _every_timeframe(short_sessions, regime_sessions):
    """(timeframe, sessions) for 1m, 10m and 1h. The 90-minute days of
    short_sessions are too short to warm up a 1h agent."""
    return ((Timeframe.ONE_MINUTE, short_sessions), (Timeframe.TEN_MINUTE, short_sessions),
            (Timeframe.ONE_HOUR, regime_sessions))


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
    def test_market_window_scaling(self, short_sessions):
        # The env's tables hold RSI / 100, MACD / close, CCI / 200, %B and the
        # raw volume; a window passes the first four through and z-scores the
        # volume.
        env = _env(short_sessions)
        raw = observation_reference.raw_table(short_sessions, 1)
        table = env.tables[Timeframe.ONE_MINUTE]
        np.testing.assert_array_equal(table[:, 0], raw[:, 0] / 100.0)
        np.testing.assert_array_equal(table[:, 1], raw[:, 1] / env.closes)
        np.testing.assert_array_equal(table[:, 2], raw[:, 2] / 200.0)
        np.testing.assert_array_equal(table[:, 3:], raw[:, 3:])
        out = normalize_market_window(table[100:110])
        assert (out[:, :4] == table[100:110, :4]).all()
        assert out[:, 4].mean() == pytest.approx(0.0, abs=1e-12)
        assert out[:, 4].std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_volume_maps_to_zero(self):
        rows = np.tile([0.5, 0.0, 0.0, 0.5, 123.0], (4, 1))
        out = normalize_market_window(rows)
        assert (out[:, 4] == 0.0).all()

    def test_unrealized_column_clamped(self):
        rows = np.tile([0.5, 0.0, 0.0, 0.5, 10.0], (2, 1))
        pf = np.array([[0.0, 1.0, 2.5], [1.0, 0.0, -3.0]])
        features(pf)
        obs = build_observation(rows, pf, cursor=1, window=2, length=1)
        assert obs.shape == (16,)
        assert obs[7] == 1.0 and obs[15] == -1.0


class TestObservationsEqualReference:
    @pytest.mark.parametrize("timeframe", TIMEFRAME_ORDER, ids=lambda tf: tf.label)
    def test_every_observation_byte_for_byte(self, short_sessions, regime_sessions, timeframe):
        # Random actions, biased to buy and hold, on sessions whose prices
        # ramp up within each day, so that held positions pass a profit
        # ratio of 1 and the clamp written when the account is marked runs.
        sessions = dict(_every_timeframe(ramped_sessions(short_sessions),
                                         ramped_sessions(regime_sessions)))[timeframe]
        env = _env(sessions, timeframe, window=5)
        table = observation_reference.raw_table(sessions, env.length)
        rng = np.random.default_rng(3)
        obs = env.reset()
        clamped = 0
        while True:
            want = observation_reference.build_observation(
                table, env.closes, env._pf_rows, env.cursor, 5, env.length)
            assert obs.tobytes() == want.tobytes(), f"observation at bar {env.cursor}"
            clamped += int((obs[7::8] == 1.0).any())
            if env.done:
                break
            obs = env.step(int(rng.choice(3, p=[0.3, 0.02, 0.68]))).observation
        assert clamped


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
        # A 90-minute session holds nine whole ten-minute bars. The trailing
        # bars ending at the tenth minute of a session, and every tenth after,
        # are those bars, so their rows are the resampled bars' features.
        env = _env(short_sessions, timeframe=Timeframe.TEN_MINUTE, window=3)
        assert env.n_bars == 540
        assert env.session_last.sum() == 6
        tens = [b for s in short_sessions for b in resample(s, Timeframe.TEN_MINUTE)]
        want = feature_table(*(np.array([getattr(b, k) for b in tens], dtype=float)
                               for k in ("high", "low", "close", "volume")))
        np.testing.assert_array_equal(
            env.table[9::10], observation_reference.scaled_rows(want, env.closes[9::10]))


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
        assert env.shares == 0

    def test_all_hold_preserves_cash_exactly(self, short_sessions):
        env = _env(short_sessions, window=5)
        env.reset()
        done = False
        while not done:
            result = env.step(Action.HOLD)
            assert result.info["portfolio_value"] == 10_000.0
            done = result.done
        assert env.cash == 10_000.0
        assert not env.trades

    def test_forced_liquidation_at_session_end(self, short_sessions):
        env = _env(short_sessions, window=5)
        # Bar 89 closes the first 90-minute session.
        env.reset(cursor=88)
        result = env.step(Action.BUY)
        assert env.shares == 0
        assert result.info["forced_liquidation"] is not None
        c_buy, c_sell = float(env.closes[88]), float(env.closes[89])
        want = float(mp_tanh(mpf(5) * (mpf(c_sell) - mpf(c_buy)) / mpf(c_buy)))
        assert result.reward == pytest.approx(want, abs=1e-12)
        sides = [t.side for t in env.trades]
        assert sides == ["buy", "sell"]

    def test_no_position_survives_any_session_close(self, short_sessions, regime_sessions):
        for timeframe, sessions in _every_timeframe(short_sessions, regime_sessions):
            rng = np.random.default_rng(5)
            env = _env(sessions, timeframe, window=5)
            env.reset()
            done = False
            while not done:
                result = env.step(int(rng.integers(0, 3)))
                if env.session_last[env.cursor]:
                    assert env.shares == 0, timeframe
                done = result.done

    def test_no_position_opened_at_a_session_close(self, short_sessions, regime_sessions):
        # A buy at a session's final bar would carry the position overnight.
        for timeframe, sessions in _every_timeframe(short_sessions, regime_sessions):
            env = _env(sessions, timeframe, window=5)
            env.reset()
            done = False
            while not done:
                decision = env.cursor
                done = env.step(Action.BUY).done
                if env.session_last[decision]:
                    assert env.shares == 0, timeframe

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
        value_at_close = env.value
        result = env.step(Action.HOLD)  # first bar of the next session
        assert env.cash == value_at_close
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

    def test_fee_reduces_proceeds(self, short_sessions):
        free = _env(short_sessions, window=5)
        paid = _env(short_sessions, window=5, fee=0.01)
        for env in (free, paid):
            env.reset(cursor=40)
            env.step(Action.BUY)
            env.step(Action.SELL)
        assert paid.cash < free.cash

    def test_fee_above_the_price_is_portfolio_error(self, short_sessions):
        # A sale whose fees exceed its gross proceeds would leave negative cash.
        env = _env(short_sessions, window=5, fee=1_000.0)
        env.reset(cursor=40)
        env.step(Action.BUY)
        with pytest.raises(PortfolioError, match="portfolio value must stay positive"):
            env.step(Action.SELL)
        env.reset(cursor=88)
        with pytest.raises(PortfolioError, match="portfolio value must stay positive"):
            env.step(Action.BUY)  # forced out at bar 89, the session close


class TestAccountEqualsOracle:
    @pytest.mark.parametrize("fee", [0.0, 0.01])
    def test_every_step_bit_for_bit(self, short_sessions, regime_sessions, fee):
        # Random actions, biased to buy, replayed on the state-object oracle:
        # the decision's trade, the mark at the span's last bar and the
        # session-close liquidation.
        for timeframe, sessions in _every_timeframe(short_sessions, regime_sessions):
            rng = np.random.default_rng(11)
            env = _env(sessions, timeframe, window=5, cash=9_876.5, fee=fee)
            env.reset()
            state = PortfolioState.initial(9_876.5, float(env.closes[env.cursor]), fee)
            while not env.done:
                decision = env.cursor
                action = int(rng.choice(3, p=[0.5, 0.3, 0.2]))
                env.step(action)
                price = float(env.closes[decision])
                if action == Action.BUY.value and not env.session_last[decision]:
                    state, _ = buy_all(state, price)
                elif action == Action.SELL.value:
                    state, _ = sell_all(state, price)
                state = mark(state, float(env.closes[env.cursor]))
                if env.session_last[env.cursor] and state.shares:
                    state, _ = sell_all(state, state.last_price)
                got = (env.cash, env.shares, env.cost_basis, env.value)
                assert got == (state.cash, state.shares, state.cost_basis, state.total_value)
                assert [type(v) for v in got] == [float, int, float, float]
            assert {t.side for t in env.trades} == {"buy", "sell"}, timeframe


def _agent_params(window, hidden, seed):
    """Random agent whose head is scaled up so its actions change often."""
    params = PolicyParameters.initialize(
        NetworkSpec(window * 8, hidden, 3), np.random.default_rng(seed)
    )
    params.arrays["policy_w3"] *= 100.0
    return params


def _step_loop(env, params, cursor):
    """The plain greedy episode: env.step(greedy_action(obs)) to the end."""
    obs = env.reset(cursor)
    equity = [(env.timestamps[env.cursor], env.value)]
    while not env.done:
        result = env.step(greedy_action(params, obs))
        obs = result.observation
        equity.append((result.info["timestamp"], result.info["portfolio_value"]))
    return equity, list(env.trades)


def _aligned_cursor(env):
    """The first close of a whole timeframe bar, counted from a session open,
    at or after the env's warm-up."""
    opens = np.flatnonzero(np.r_[True, env.session_last[:-1]])
    return next(int(i) + env.length - 1 for i in opens if i + env.length - 1 >= env.min_cursor)


def _phase_runs(env, cursor):
    """The episode's decision cursors from `cursor`, split into runs one
    timeframe bar apart."""
    cursors = [cursor]
    while (end := env._span_end(cursors[-1], env.length)) < env.n_bars - 1:
        cursors.append(end)
    return np.split(np.array(cursors), np.flatnonzero(np.diff(cursors) != env.length) + 1)


def _forced_sale_bar(env, trades, after):
    """The first session's final bar after `after` at which the episode's
    position was sold by the forced session-close liquidation."""
    finals = {env.timestamps[i]: int(i) for i in np.flatnonzero(env.session_last)}
    return next(finals[t.timestamp] for t in trades
                if t.side == "sell" and finals.get(t.timestamp, -1) > after)


class TestRunAgent:
    # `block` "close" starts a block at the decision on the first forced
    # session-close sale's bar, "after-close" at the decision after it.
    @pytest.mark.parametrize(
        "timeframe, window, hidden, fee, seed, block",
        [
            (Timeframe.ONE_MINUTE, 5, (16, 16), 0.0, 0, 256),
            (Timeframe.ONE_MINUTE, 7, (16, 16), 0.01, 1, 256),
            (Timeframe.ONE_MINUTE, 3, (32, 16), 0.0, 2, 256),
            (Timeframe.ONE_MINUTE, 9, (16, 8), 0.02, 3, 7),
            (Timeframe.TEN_MINUTE, 4, (16, 16), 0.0, 4, 5),
            (Timeframe.ONE_HOUR, 4, (16, 16), 0.01, 6, 3),
            (Timeframe.ONE_MINUTE, 3, (32, 16), 0.0, 2, 64),
            (Timeframe.ONE_MINUTE, 3, (32, 16), 0.01, 5, 7),
            (Timeframe.ONE_MINUTE, 5, (16, 16), 0.0, 0, "close"),
            (Timeframe.ONE_MINUTE, 4, (16, 16), 0.01, 7, "after-close"),
            (Timeframe.TEN_MINUTE, 3, (16, 16), 0.01, 8, 2),
            (Timeframe.ONE_HOUR, 2, (16, 16), 0.0, 12, 5),
        ],
    )
    def test_matches_greedy_step_loop(self, short_sessions, regime_sessions, monkeypatch,
                                      timeframe, window, hidden, fee, seed, block):
        params = _agent_params(window, hidden, seed)
        if window * 8 < hidden[0]:
            w1 = params.arrays["policy_w1"]
            assert w1.flags.f_contiguous and not w1.flags.c_contiguous
        sessions = regime_sessions if timeframe is Timeframe.ONE_HOUR else short_sessions
        probe = _env(sessions, timeframe, window, fee=fee)
        for cursor in (probe.min_cursor, probe.min_cursor + 13, _aligned_cursor(probe)):
            loop_env = _env(sessions, timeframe, window, fee=fee)
            equity, trades = _step_loop(loop_env, params, cursor)
            assert trades, "the agent should trade"
            size = block
            if isinstance(block, str):
                # A one-minute episode is one run, so blocks start at cursor + k * size.
                size = _forced_sale_bar(loop_env, trades, cursor) - cursor
                size += block == "after-close"
            if timeframe is not Timeframe.ONE_MINUTE:
                runs = _phase_runs(probe, cursor)
                assert max(r.size for r in runs) > size, "a block should end inside a run"
            monkeypatch.setattr(envs, "AGENT_BLOCK", size)
            env = _env(sessions, timeframe, window, fee=fee)
            run = run_agent(env, params, cursor)
            assert run.equity == equity
            assert env.trades == trades
            assert env.done and env.cursor == env.n_bars - 1

    def test_zero_policy_head_falls_back_on_every_step(self, short_sessions):
        # All logits tie at 0, so no bound can rule out a different argmax.
        params = _agent_params(5, (16, 16), 0)
        params.arrays["policy_w3"][:] = 0.0
        loop_env = _env(short_sessions, window=5)
        equity, trades = _step_loop(loop_env, params, loop_env.min_cursor)
        env = _env(short_sessions, window=5)
        run = run_agent(env, params, env.min_cursor)
        assert run.fallbacks == len(run.equity) - 1 > 0
        assert run.equity == equity and env.trades == trades
        assert trades[0].side == "buy"  # greedy_action's first index wins the tie

    def test_tied_logits_return_none(self):
        params = _agent_params(2, (8, 8), 0)
        params.arrays["policy_w3"][:] = 0.0
        part_b = np.arange(16) % 8 >= 5
        policy = SplitGreedyPolicy(params, part_b)
        x = np.where(part_b, 0.0, 1.0)
        z = x @ params.arrays["policy_w1"]
        assert policy.action(z, float(np.abs(x).sum()), np.ones(6)) is None

    def test_network_size_mismatch_is_env_error(self, short_sessions):
        env = _env(short_sessions, window=5)
        with pytest.raises(EnvError, match="expects input 48"):
            run_agent(env, _agent_params(6, (8, 8), 0), env.min_cursor)

    def test_bad_cursor_is_env_error(self, short_sessions):
        env = _env(short_sessions, window=5)
        with pytest.raises(EnvError, match="too early"):
            run_agent(env, _agent_params(5, (8, 8), 0), env.min_cursor - 1)


def _reference_normalize(rows, closes):
    """One window, normalized with np.mean and np.std."""
    out = np.empty((rows.shape[0], 5))
    out[:, 0] = rows[:, 0] / 100.0
    out[:, 1] = rows[:, 1] / closes
    out[:, 2] = rows[:, 2] / 200.0
    out[:, 3] = rows[:, 3]
    vol = rows[:, 4]
    sd = vol.std()
    out[:, 4] = (vol - vol.mean()) / sd if sd > 0 else 0.0
    return out


class TestStackedNormalization:
    @pytest.mark.parametrize("window", [1, 2, 7, 8, 9, 16, 130, 240])
    def test_stack_equals_each_window_alone(self, window):
        rng = np.random.default_rng(window)
        rows = rng.uniform(-50.0, 50.0, (window + 40, 5))
        rows[:, 4] = rng.integers(1, 5000, window + 40).astype(float)
        rows[10:10 + window + 3, 4] = 777.0  # windows of constant volume
        closes = rng.uniform(50.0, 150.0, window + 40)
        scaled = observation_reference.scaled_rows(rows, closes)
        stack = normalize_market_window(
            np.lib.stride_tricks.sliding_window_view(scaled, window, axis=0).transpose(0, 2, 1))
        assert stack.shape == (41, window, 5)
        for k in range(41):
            alone = normalize_market_window(scaled[k:k + window])
            assert stack[k].tobytes() == alone.tobytes()
            reference = _reference_normalize(rows[k:k + window], closes[k:k + window])
            assert alone.tobytes() == reference.tobytes()
            per_call = observation_reference.normalize_market_window(
                rows[k:k + window], closes[k:k + window])
            assert alone.tobytes() == per_call.tobytes()
        if window > 1:
            assert (stack[10, :, 4] == 0.0).all()


def _exact_logits(arrays, x):
    """The policy's logits in 50-digit arithmetic."""
    a = [mpf(float(v)) for v in x]
    for layer in (1, 2, 3):
        w = arrays[f"policy_w{layer}"]
        b = arrays[f"policy_b{layer}"]
        z = [mp.fsum(a[i] * mpf(float(w[i, j])) for i in range(len(a))) + mpf(float(b[j]))
             for j in range(w.shape[1])]
        a = [mp_tanh(v) for v in z] if layer < 3 else z
    return a


class TestLogitErrorBound:
    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e9])
    def test_each_path_within_half_the_bound(self, scale):
        # Pairs of inputs cancel on identical weight rows, so the first layer
        # rounds at the scale of the inputs while z1 stays where tanh is steep.
        # The split path sums three parts: the product of the input with its
        # last `late` b-inputs zeroed, the product of those b-inputs, and b1.
        rng = np.random.default_rng(int(scale))
        spec = NetworkSpec(16, (8, 8), 3)
        part_b = np.arange(16) % 2 == 1
        for trial in range(20):
            params = PolicyParameters.initialize(spec, rng)
            arrays = params.arrays
            for key in ("w1", "w2", "w3"):
                arrays["policy_" + key] *= rng.uniform(0.5, 4.0)
            for key in ("b1", "b2", "b3"):
                arrays["policy_" + key] = rng.uniform(-1.0, 1.0, arrays["policy_" + key].shape)
            arrays["policy_w1"][1::2] = arrays["policy_w1"][0::2]
            big = rng.uniform(-scale, scale, 8)
            x = np.empty(16)
            x[0::2] = big
            x[1::2] = -big + rng.uniform(-1.0, 1.0, 8)
            policy = SplitGreedyPolicy(params, part_b)
            full = _net_forward(arrays, "policy_", x[None, :])[0][0]
            exact = _exact_logits(arrays, x)
            late = np.flatnonzero(part_b)[8 - trial % 9:]
            known = x.copy()
            known[late] = 0.0
            split = policy.logits(known @ arrays["policy_w1"], x[late])
            bound = policy.logit_error_bound(
                float(np.abs(known).sum()) + float(np.abs(x[late]).sum()))
            assert np.isfinite(bound)
            assert (np.abs(split - full) <= bound).all()
            for got in (split, full):
                for value, want in zip(got, exact):
                    assert abs(mpf(float(value)) - want) <= bound / 2


def _constant_volume_day(sessions, day: int) -> list[Session]:
    """`sessions` with day `day`'s volume constant, so that some windows have
    a volume of zero spread (z-scored to 0)."""
    out = list(sessions)
    s = out[day]
    out[day] = Session(s.day, s.open_time, s.close_time, s.timestamps, s.open, s.high, s.low,
                       s.close, np.full(len(s), 500))
    return out


class _WithoutStore:
    """A TradingEnv seen through reset and step alone: ppo.train finds no
    rollout_store and copies each observation into a buffer."""

    def __init__(self, env: TradingEnv):
        self._env = env
        self.observation_size = env.observation_size

    def reset(self):
        return self._env.reset()

    def step(self, action):
        return self._env.step(action)


class TestRolloutStore:
    @pytest.mark.parametrize("timeframe", TIMEFRAME_ORDER, ids=lambda tf: tf.label)
    def test_indexing_rebuilds_every_observation(self, short_sessions, regime_sessions,
                                                 timeframe):
        # The 10m and 1h episodes start in days 4 and 5.
        sessions = dict(_every_timeframe(_constant_volume_day(short_sessions, 5),
                                         _constant_volume_day(regime_sessions, 8)))[timeframe]
        env = _env(sessions, timeframe, window=5)
        n = 1500
        store = env.rollout_store(n)
        rng = np.random.default_rng(8)
        obs = env.reset()
        constant = 0
        for rollout in range(2):
            returned, resets = [], 0
            for t in range(n):
                store.record(t, obs)
                returned.append(obs)
                result = env.step(int(rng.integers(3)))
                resets += result.done
                obs = env.reset() if result.done else result.observation
            returned = np.array(returned)
            constant += (returned[:, 4::8] == 0.0).all(axis=1).sum()
            assert resets >= 2 or rollout == 1
            for index in [np.arange(40, 104), np.arange(n)[::-7], *(
                    rng.choice(n, 128, replace=False) for _ in range(20))]:
                got = store[index]
                assert got.dtype == np.float64 and got.flags.c_contiguous
                assert got.shape == (index.size, env.observation_size)
                assert got.tobytes() == returned[index].tobytes()
        assert constant  # windows of constant volume were rebuilt too

    @pytest.mark.parametrize("timeframe", [Timeframe.ONE_MINUTE, Timeframe.ONE_HOUR],
                             ids=lambda tf: tf.label)
    def test_train_equals_the_copying_buffer(self, regime_sessions, timeframe, tmp_path):
        # Several episodes per rollout at 1h; one long episode at 1m.
        window = 5
        make_env = lambda: _env(regime_sessions, timeframe, window=window)
        env = make_env()
        episode_steps = (env.n_bars - 1 - env.min_cursor) // env.length
        hp = PpoHyperparams(total_timesteps=768, learning_rate=1e-3, n_steps=256,
                            batch_size=64, n_epochs=2)
        assert timeframe is Timeframe.ONE_MINUTE or hp.n_steps > 2 * episode_steps
        spec = NetworkSpec(window * 8, (8, 8), 3)
        runs = []
        for make in (make_env, lambda: _WithoutStore(make_env())):
            params, curve = train(make, spec, hp, seed=5)
            curve.to_csv(str(tmp_path / "curve.csv"))
            runs.append(([params.arrays[k].tobytes() for k in ARRAY_ORDER],
                         (tmp_path / "curve.csv").read_bytes()))
        assert runs[0] == runs[1]

    def test_training_holds_no_copy_of_its_observations(self, short_sessions):
        # A 1m agent of window 128 over 2,048 steps: copying its observations
        # would take 2048 * 1024 * 8 bytes, 16.8 MB.
        window, hp = 128, PpoHyperparams(total_timesteps=2048, learning_rate=1e-3,
                                         n_steps=2048, batch_size=256, n_epochs=1)
        spec = NetworkSpec(window * 8, (8, 8), 3)
        copy_bytes = hp.n_steps * spec.input_dim * 8
        assert copy_bytes >= 16e6
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            train(lambda: _env(short_sessions, window=window), spec, hp, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < copy_bytes / 2
