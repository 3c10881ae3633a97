"""System-level acceptance gate: thirteen numbered release criteria, and the
CSV market source checked against criterion 12's synthetic pipeline.

Each test prints one verdict line on the real stdout (bypassing pytest's
capture) so the complete scorecard is visible in any run log. Criterion 13
is directional only: its verdict is informational and never fails the test.
"""

import time
from datetime import date, datetime, timedelta, timezone
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from alloctrader.allocator import (
    AgentRegistry,
    AllocatorConfig,
    HierarchyEnv,
    RegisteredAgent,
    allocator_reward,
    observation_size,
    run_hierarchy,
)
from alloctrader import portfolio
from alloctrader.cli import main
from alloctrader.envs import EnvConfig, TradingEnv, agent_reward
from alloctrader.evaluation import EquityCurve, cumulative_return, quartile_allocation
from alloctrader.indicators import feature_table
from alloctrader.market_data import (
    TIMEFRAME_ORDER,
    Timeframe,
    resample,
    synthesize,
)
from alloctrader.ppo import (
    ARRAY_ORDER,
    NetworkSpec,
    PolicyParameters,
    PpoHyperparams,
    gae,
    ppo_loss_and_grads,
    train,
)
from bar_reference import Bar, session_from_bars
from conftest import small_synth_config
from indicator_reference import oracle_macd_hist, oracle_rsi
from portfolio_reference import PortfolioState, buy_all, mark, sell_all
from toyenv import ToyTradingEnv, greedy_episode_reward, optimal_episode_reward
from train_reference import forward

UTC = timezone.utc


def _verdict(capsys, criterion: int, ok: bool, label: str, detail: str = "", gating: bool = True) -> None:
    """Print one scorecard line outside pytest's capture so it shows in run logs."""
    status = "PASS" if ok else "FAIL"
    if not gating:
        status += " (soft, not gating)"
    tail = f" -- {detail}" if detail else ""
    with capsys.disabled():
        print(f"[criterion {criterion:02d}] {status}: {label}{tail}", flush=True)


# --- criterion 1: cumulative return on a fixed monthly equity fixture --------

# Month-end portfolio values for three strategies over the same seventeen
# months, all starting from a common 10,000 stake (first entry).
MONTHLY_EQUITY = {
    "active": (
        10000.00, 9831.37, 9425.60, 9049.57, 9149.48, 9317.52, 9542.21,
        9822.53, 9691.30, 11259.91, 12595.40, 12116.40, 12641.76, 12348.60,
        12292.17, 12004.84, 11550.18, 12517.04,
    ),
    "stock": (
        10000.00, 10000.00, 9833.93, 9612.62, 9172.70, 9087.98, 10328.90,
        11340.08, 11987.16, 12221.36, 12272.53, 11821.48, 12695.15, 13310.94,
        12310.67, 12947.90, 11785.81, 11218.51,
    ),
    "index": (
        10000.00, 10000.00, 10257.02, 10758.89, 11098.51, 10634.36, 11205.81,
        11585.62, 11729.56, 11893.42, 12198.10, 12154.82, 12813.31, 12572.04,
        12640.51, 12713.79, 11940.29, 12001.43,
    ),
}
EXPECTED_RETURN_PCT = {"active": 25.17, "stock": 12.19, "index": 20.01}


def _month_stamps(n):
    out = []
    year, month = 2023, 12
    for _ in range(n):
        out.append(datetime(year, month, 1, tzinfo=UTC))
        month += 1
        if month == 13:
            year, month = year + 1, 1
    return tuple(out)


def test_criterion_01_monthly_return_fixture(capsys):
    t0 = time.perf_counter()
    returns = {
        name: cumulative_return(EquityCurve(_month_stamps(len(values)), np.asarray(values)))
        for name, values in MONTHLY_EQUITY.items()
    }
    elapsed = time.perf_counter() - t0
    errors = {name: abs(returns[name] - EXPECTED_RETURN_PCT[name]) for name in returns}
    ok = max(errors.values()) <= 0.01 and elapsed < 1.0
    detail = ", ".join(f"{n} {returns[n]:.2f}%" for n in returns) + f", {elapsed * 1000:.0f}ms"
    _verdict(capsys, 1, ok, "cumulative return on the monthly equity fixture", detail)
    for name, err in errors.items():
        assert err <= 0.01, f"{name}: {returns[name]} vs {EXPECTED_RETURN_PCT[name]}"
    assert elapsed < 1.0


# --- criterion 2: reward formulas against a high-precision oracle ------------


def test_criterion_02_reward_formulas(capsys):
    mp.mp.dps = 50
    breakeven = agent_reward(123.45, 123.45)
    plus10 = agent_reward(110.0, 100.0)
    tanh_err = abs(plus10 - float(mp.tanh(mp.mpf(5) * (mp.mpf(110.0) - 100) / 100)))
    assert plus10 == agent_reward(110.0, 100.0)  # pure function
    flat_alloc = allocator_reward(10_000.0, 10_000.0)
    plus1 = allocator_reward(10_100.0, 10_000.0)
    log_err = abs(plus1 - float(mp.log(mp.mpf(10_100.0) / mp.mpf(10_000.0))))

    rng = np.random.default_rng(2)
    spot_err = 0.0
    for _ in range(200):
        buy = float(rng.uniform(0.01, 1000.0))
        sell = float(rng.uniform(0.01, 1000.0))
        oracle = float(mp.tanh(mp.mpf(5) * (mp.mpf(sell) - mp.mpf(buy)) / mp.mpf(buy)))
        spot_err = max(spot_err, abs(agent_reward(sell, buy) - oracle))

    buys = rng.uniform(0.01, 1000.0, size=1_000_000)
    sells = rng.uniform(0.01, 1000.0, size=1_000_000)
    rewards = np.fromiter(
        (agent_reward(s, b) for s, b in zip(sells, buys)), dtype=np.float64, count=buys.size
    )
    bounds_ok = bool((rewards >= -1.0).all() and (rewards <= 1.0).all())

    ok = (
        breakeven == 0.0 and flat_alloc == 0.0 and tanh_err <= 1e-12
        and log_err <= 1e-12 and spot_err <= 1e-12 and bounds_ok
    )
    _verdict(capsys, 2, ok, "trade and span reward formulas",
             f"tanh err {tanh_err:.1e}, log err {log_err:.1e}, "
             f"1e6 rewards in [{rewards.min():.6f}, {rewards.max():.6f}]")
    assert breakeven == 0.0
    assert flat_alloc == 0.0
    assert tanh_err <= 1e-12
    assert log_err <= 1e-12
    assert spot_err <= 1e-12
    assert bounds_ok


# --- criterion 3: allocator rewards telescope to the episode log-return ------


def _random_registry(window_sizes=(6, 5, 4), hidden=(16, 16), seed=0):
    """Three untrained (randomly initialized) agents with small windows."""
    agents = {}
    for i, (tf, w) in enumerate(zip(TIMEFRAME_ORDER, window_sizes)):
        spec = NetworkSpec(w * 8, hidden, 3)
        agents[tf] = RegisteredAgent(
            params=PolicyParameters.initialize(spec, np.random.default_rng(seed + i)),
            config=EnvConfig(timeframe=tf, window_size=w),
        )
    return AgentRegistry(agents)


def test_criterion_03_telescoping_episode_return(capsys):
    sessions = synthesize(small_synth_config(), seed=5, days=12).sessions
    env = HierarchyEnv(sessions, _random_registry(seed=3),
                       AllocatorConfig(market_window=20, vol_window=10))
    worst = 0.0
    for script_seed in range(3):
        rng = np.random.default_rng(script_seed)
        env.reset()
        start_value = env.value
        total = 0.0
        while not env.done:
            total += env.step(int(rng.integers(0, 3))).reward
        episode_log_return = float(np.log(env.value / start_value))
        worst = max(worst, abs(total - episode_log_return))
    ok = worst <= 1e-9
    _verdict(capsys, 3, ok, "span rewards telescope to ln(V_final/V_initial)",
             f"worst gap {worst:.2e} over 3 random action scripts")
    assert worst <= 1e-9


# --- criterion 4: advantage estimation vs the nested-sum definition ----------


def test_criterion_04_gae_matches_brute_force(capsys):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        rewards = rng.normal(size=n)
        values = rng.normal(size=n)
        dones = rng.random(size=n) < 0.2
        bootstrap = float(rng.normal())
        gamma = float(rng.uniform(0.9, 1.0))
        lam = float(rng.uniform(0.8, 1.0))
        advantages, targets = gae(rewards, values, dones, bootstrap, gamma, lam)
        for t in range(n):
            acc, factor = 0.0, 1.0
            for step in range(t, n):
                next_value = values[step + 1] if step + 1 < n else bootstrap
                mask = 0.0 if dones[step] else 1.0
                delta = rewards[step] + gamma * next_value * mask - values[step]
                acc += factor * delta
                if dones[step]:
                    break
                factor *= gamma * lam
            worst = max(worst, abs(advantages[t] - acc), abs(targets[t] - (acc + values[t])))
    ok = worst <= 1e-10
    _verdict(capsys, 4, ok, "advantage estimator vs nested sums",
             f"worst gap {worst:.2e} over 1000 trajectories")
    assert worst <= 1e-10


# --- criterion 5: analytic loss gradients vs central finite differences ------


def test_criterion_05_gradient_check(capsys):
    rng = np.random.default_rng(5)
    hp = PpoHyperparams(total_timesteps=64, learning_rate=1e-3, n_steps=64,
                        batch_size=8, clip_range=0.2, entropy_coef=0.01, value_coef=0.5)
    h = 1e-5
    worst = 0.0
    for _ in range(16):
        spec = NetworkSpec(
            int(rng.integers(2, 6)),
            (int(rng.integers(3, 7)), int(rng.integers(3, 7))),
            int(rng.integers(2, 5)),
        )
        params = PolicyParameters.initialize(spec, rng)
        n = int(rng.integers(4, 10))
        obs = rng.normal(size=(n, spec.input_dim))
        actions = rng.integers(0, spec.action_count, size=n)
        old_logp = np.empty(n)
        for i in range(n):
            # Keep ratios inside the clip region so the surrogate is smooth.
            probs, _ = forward(params, obs[i])
            old_logp[i] = np.log(probs[actions[i]]) + rng.uniform(-0.05, 0.05)
        adv = rng.normal(size=n)
        ret = rng.normal(size=n)
        _, grads, _ = ppo_loss_and_grads(params, obs, actions, old_logp, adv, ret, hp)
        for key in ARRAY_ORDER:
            arr = params.arrays[key]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                lp, _, _ = ppo_loss_and_grads(params, obs, actions, old_logp, adv, ret, hp)
                arr[ix] = orig - h
                lm, _, _ = ppo_loss_and_grads(params, obs, actions, old_logp, adv, ret, hp)
                arr[ix] = orig
                numeric = (lp - lm) / (2.0 * h)
                err = abs(grads[key][ix] - numeric) / max(1.0, abs(grads[key][ix]), abs(numeric))
                worst = max(worst, err)
    ok = worst <= 1e-4
    _verdict(capsys, 5, ok, "analytic gradients vs finite differences",
             f"worst relative error {worst:.2e} over 16 configurations")
    assert worst <= 1e-4


# --- criterion 6: indicators vs independent reimplementations ----------------


def _oracle_cci(highs, lows, closes, period=20):
    typical = [(h + l + c) / 3.0 for h, l, c in zip(highs, lows, closes)]
    window = typical[-period:]
    sma = sum(window) / period
    mean_dev = sum(abs(x - sma) for x in window) / period
    if mean_dev == 0.0:
        return 0.0
    return (window[-1] - sma) / (0.015 * mean_dev)


def _oracle_pband(closes, period=20, k=2.0):
    window = closes[-period:]
    mean = sum(window) / period
    sd = (sum((x - mean) ** 2 for x in window) / period) ** 0.5
    if sd == 0.0:
        return 0.5
    lower, upper = mean - k * sd, mean + k * sd
    return (window[-1] - lower) / (upper - lower)


def _last_row(highs, lows, closes):
    """feature_table's (rsi, macd_histogram, cci, pband) at the last bar."""
    table = feature_table(highs, lows, closes, np.ones_like(closes))
    return table[-1, :4]


def test_criterion_06_indicator_oracles(capsys):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        steps = rng.normal(0.0, 0.01, size=99)
        closes = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
        spread = np.abs(rng.normal(0.0, 0.005, size=100))
        highs = closes * (1.0 + spread)
        lows = closes * (1.0 - spread)
        rsi, macd, cci, pband = _last_row(highs, lows, closes)
        worst = max(worst, abs(rsi - oracle_rsi(list(closes))))
        worst = max(worst, abs(macd - oracle_macd_hist(list(closes))))
        worst = max(worst, abs(cci - _oracle_cci(list(highs), list(lows), list(closes))))
        worst = max(worst, abs(pband - _oracle_pband(list(closes))))
    flat = np.full(100, 100.0)
    rising = np.linspace(100.0, 120.0, 100)
    falling = np.linspace(120.0, 100.0, 100)
    conventions = (
        tuple(_last_row(flat, flat, flat)) == (50.0, 0.0, 0.0, 0.5),
        _last_row(rising, rising, rising)[0] == 100.0,
        _last_row(falling, falling, falling)[0] == 0.0,
    )
    ok = worst <= 1e-6 and all(conventions)
    _verdict(capsys, 6, ok, "indicators vs brute-force oracles",
             f"worst gap {worst:.2e} on 100-bar fixtures; conventions exact: {all(conventions)}")
    assert worst <= 1e-6
    assert all(conventions)


# --- criterion 7: accounting conservation and exact fee arithmetic -----------


def test_criterion_07_value_conservation_and_fees(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100_000):
        state = PortfolioState.initial(
            float(rng.uniform(100.0, 50_000.0)), float(rng.uniform(1.0, 500.0))
        )
        for _ in range(int(rng.integers(1, 4))):
            price = float(rng.uniform(1.0, 500.0))
            state = mark(state, price)
            before = state.total_value
            if rng.random() < 0.5:
                state, _ = buy_all(state, price)
            else:
                state, _ = sell_all(state, price)
            worst = max(worst, abs(state.total_value - before))
    conservation_ok = worst <= 1e-9

    # Fee arithmetic: replay one 100-trade script with and without a per-share
    # sale fee. The script seed is chosen so both runs execute identical share
    # quantities (asserted below), which makes the closed form exact.
    script_rng = np.random.default_rng(10)
    prices = script_rng.uniform(50.0, 150.0, size=100)
    buys = script_rng.random(100) < 0.5

    def run_script(fee):
        state = PortfolioState.initial(10_000.0, float(prices[0]), fee)
        sold, trades = 0, []
        for price, is_buy in zip(prices, buys):
            state = mark(state, float(price))
            if is_buy:
                state, bought = buy_all(state, float(price))
                trades.append(("buy", bought))
            else:
                state, sale = sell_all(state, float(price))
                shares = sale.shares if sale is not None else 0
                sold += shares
                trades.append(("sell", shares))
        return state.total_value, sold, trades

    def run_floats(fee):
        """The same script on the float account that the environments hold."""
        cash, shares, basis = 10_000.0, 0, 0.0
        for price, is_buy in zip(prices.tolist(), buys):
            if is_buy:
                cost, bought = portfolio.buy_all(cash, price)
                if bought:
                    cash, shares, basis = cash - cost, shares + bought, basis + cost
            else:
                proceeds, sale = portfolio.sell_all(shares, basis, price, fee)
                if sale is not None:
                    cash, shares, basis = cash + proceeds, 0, 0.0
        return portfolio.mark(cash, shares, basis, float(prices[-1]))[0]

    value_free, _, trades_free = run_script(0.0)
    value_fee, sold, trades_fee = run_script(0.01)
    assert trades_free == trades_fee, "fixture must trade identical quantities"
    fee_effect = value_fee - value_free
    fee_gap = abs(fee_effect + 0.01 * sold)
    fee_ok = fee_effect < 0.0 and fee_gap <= 1e-9
    floats_ok = run_floats(0.0) == value_free and run_floats(0.01) == value_fee

    ok = conservation_ok and fee_ok and floats_ok
    _verdict(capsys, 7, ok, "portfolio value conservation and fee arithmetic",
             f"worst drift {worst:.2e} over 1e5 sequences; "
             f"fee effect {fee_effect:.2f} for {sold} shares sold (gap {fee_gap:.2e}); "
             f"float account equals the state oracle: {floats_ok}")
    assert conservation_ok
    assert trades_free == trades_fee
    assert fee_effect < 0.0
    assert fee_gap <= 1e-9
    assert floats_ok


# --- criterion 8: session open and close rules over twenty sessions ----------


def test_criterion_08_session_rules(capsys):
    sessions = synthesize(small_synth_config(), seed=13, days=26).sessions
    env = HierarchyEnv(sessions, _random_registry(seed=8),
                       AllocatorConfig(market_window=20, vol_window=10))
    env.reset()
    span_start = env.cursor + 1
    rng = np.random.default_rng(88)
    session_closes = 0
    flat_at_close = True
    while not env.done:
        env.step(int(rng.integers(0, 3)))
        if env.session_last[env.cursor]:
            session_closes += 1
            flat_at_close = flat_at_close and env.shares == 0
    session_opens = 0
    openers_ok = True
    for decision in env.decisions:
        opens = env.session_first[span_start]
        span_start += decision.span_bars
        if opens:
            session_opens += 1
            openers_ok = openers_ok and decision.forced \
                and decision.timeframe is Timeframe.ONE_MINUTE
        else:
            openers_ok = openers_ok and not decision.forced
    ok = session_closes == 20 and flat_at_close and session_opens == 20 and openers_ok
    _verdict(capsys, 8, ok, "flat at every session close, 1m agent opens every session",
             f"{session_closes} session closes, {session_opens} forced opens")
    assert session_closes == 20
    assert flat_at_close
    assert session_opens == 20
    assert openers_ok


# --- criterion 9: resampling conservation and path consistency ---------------


def test_criterion_09_resampling_exact(capsys):
    # Sessions laid end to end, as BaseBarEnv feeds trailing_table. Each
    # session is six whole hours, so the trailing aggregates ending at its
    # bars 9, 19, ... and 59, 119, ... are its 10m and 1h bars.
    sessions = synthesize(small_synth_config(session_minutes=360), seed=9, days=3).sessions
    highs, lows, volumes = (np.concatenate([getattr(s, k) for s in sessions], dtype=np.float64)
                            for k in ("high", "low", "volume"))
    tens = resample(highs, lows, volumes, 10)
    hours = resample(highs, lows, volumes, 60)
    volume_ok = True
    for k, session in enumerate(sessions):
        base_volume = int(session.volume.sum())
        own = slice(k * 360, (k + 1) * 360)
        volume_ok = volume_ok and base_volume == tens[2][own][9::10].sum()
        volume_ok = volume_ok and base_volume == hours[2][own][59::60].sum()
    # The trailing hour at bar i aggregates the trailing 10m bars at i, i - 10,
    # ..., i - 50 (those that exist, at the start of the data).
    path_ok = True
    for i in range(highs.size):
        ends = slice(max(i % 10, i - 50), i + 1, 10)
        path_ok = path_ok and (hours[0][i], hours[1][i], hours[2][i]) == (
            tens[0][ends].max(), tens[1][ends].min(), tens[2][ends].sum())
    ok = volume_ok and path_ok
    _verdict(capsys, 9, ok, "resampling volume conservation and 1m-10m-1h path consistency",
             f"{len(sessions)} full-hour sessions, exact equality")
    assert volume_ok
    assert path_ok


# --- criterion 10: quartile report on a hand-built eight-day fixture ---------


def _flat_day(day, closes):
    open_time = datetime(day.year, day.month, day.day, 9, 30, tzinfo=UTC)
    bars = tuple(
        Bar(open_time + timedelta(minutes=k), c, c, c, c, 100)
        for k, c in enumerate(closes)
    )
    return session_from_bars(day, open_time, open_time + timedelta(minutes=390), bars)


def test_criterion_10_quartile_hand_fixture(capsys):
    sessions, decisions = [], []
    for k in range(8):
        day = date(2024, 3, 11 + k)
        r = 0.0005 * (k + 1)
        sessions.append(_flat_day(day, [100.0, 100.0 * (1 + r), 100.0, 100.0 * (1 + r)]))
        noon = datetime(day.year, day.month, day.day, 12, 0, tzinfo=UTC)
        if k < 4:
            decisions += [SimpleNamespace(timestamp=noon, timeframe=Timeframe.ONE_HOUR)] * 2
        else:
            decisions += [SimpleNamespace(timestamp=noon, timeframe=Timeframe.ONE_MINUTE)] * 3
            decisions += [SimpleNamespace(timestamp=noon, timeframe=Timeframe.TEN_MINUTE)]
    report = quartile_allocation(decisions, sessions, "daily")
    expected = ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (0.75, 0.25, 0.0), (0.75, 0.25, 0.0))
    shares = tuple(q.shares for q in report.quartiles)
    sums_ok = all(abs(sum(q.shares) - 1.0) <= 1e-9 for q in report.quartiles)
    ok = shares == expected and sums_ok
    _verdict(capsys, 10, ok, "quartile allocation on the eight-day fixture",
             f"shares {shares}")
    assert shares == expected
    assert sums_ok


# --- criterion 11: learning reaches the enumerated optimum -------------------


def test_criterion_11_learning_smoke(capsys):
    t0 = time.perf_counter()
    optimum = optimal_episode_reward()
    spec = NetworkSpec(ToyTradingEnv().observation_size, (32, 32), 3)
    hp = PpoHyperparams(total_timesteps=50_000, learning_rate=1e-3, n_steps=512,
                        batch_size=128, n_epochs=10, gamma=1.0, gae_lambda=0.95,
                        clip_range=0.2, entropy_coef=0.01)
    fractions = []
    for seed in range(5):
        params, _ = train(ToyTradingEnv, spec, hp, seed=seed)
        fractions.append(greedy_episode_reward(params) / optimum)
    elapsed = time.perf_counter() - t0
    ok = all(f >= 0.9 for f in fractions) and elapsed < 300.0
    _verdict(capsys, 11, ok, "learned policy vs exhaustive optimum (seeds 0-4)",
             "fractions " + ", ".join(f"{f:.3f}" for f in fractions) + f"; {elapsed:.0f}s")
    for seed, fraction in enumerate(fractions):
        assert fraction >= 0.9, f"seed {seed} reached only {fraction:.3f} of optimum"
    assert elapsed < 300.0


# --- criterion 12: byte-identical checkpoints and reports --------------------

TINY_RUN_CONFIG = """\
synth.days = 18
range.train_start = 2024-01-01
range.train_end = 2024-01-17
range.test_start = 2024-01-19
range.test_end = 2024-12-31
run.fee_per_sell_share = 0.01
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
agent.10m.window_size = 4
agent.10m.hidden = 8,8
agent.1h.total_timesteps = 96
agent.1h.n_steps = 48
agent.1h.batch_size = 24
agent.1h.n_epochs = 2
agent.1h.learning_rate = 1e-3
agent.1h.window_size = 4
agent.1h.hidden = 8,8
allocator.total_timesteps = 96
allocator.n_steps = 48
allocator.batch_size = 24
allocator.n_epochs = 2
allocator.learning_rate = 1e-3
allocator.hidden = 8,8
allocator.market_window = 20
allocator.vol_window = 10
"""

TINY_RUN_COMMANDS = (
    ["synth"],
    ["train-agent", "1m"],
    ["train-agent", "10m"],
    ["train-agent", "1h"],
    ["train-allocator"],
    ["backtest", "hierarchy"],
    ["backtest", "agent:1m"],
    ["backtest", "agent:10m"],
    ["backtest", "agent:1h"],
    ["backtest", "buyhold"],
    ["analyze", "--granularity", "daily"],
    ["report"],
)


def _run_tiny(tmp_path, tag, config=TINY_RUN_CONFIG, commands=TINY_RUN_COMMANDS) -> dict:
    """Run `commands` on `config` into tmp_path/tag; return every output file's bytes."""
    out = tmp_path / tag
    cfg = tmp_path / f"{tag}.cfg"
    cfg.write_text(config)
    for command in commands:
        assert main(command + ["--config", str(cfg), "--out", str(out)]) == 0, command
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_criterion_12_determinism(tmp_path, capsys):
    files_a = _run_tiny(tmp_path, "a")
    files_b = _run_tiny(tmp_path, "b")
    mismatched = sorted(name for name in files_a.keys() | files_b.keys()
                        if files_a.get(name) != files_b.get(name))
    ok = not mismatched
    _verdict(capsys, 12, ok, "repeated seeded pipeline (4 learners, 5 backtests) is byte-identical",
             f"{len(files_a)} artifacts compared"
             + (f", mismatched: {mismatched}" if mismatched else ""))
    # 4 checkpoints, 4 training curves, 3 data files and 25 reports at least.
    assert len(files_a) >= 36
    assert not mismatched


def test_csv_source_reproduces_synthetic_run(tmp_path):
    # The paper's AAPL run reads its bars from CSV. Reading back the bars and
    # calendar that synth wrote must give every artifact of the synthetic run.
    synthetic = _run_tiny(tmp_path, "synthetic")
    data = tmp_path / "synthetic" / "data"
    config = (TINY_RUN_CONFIG + "data.source = csv\n"
              f"data.csv_path = {data / 'synthetic_bars.csv'}\n"
              f"data.calendar_path = {data / 'synthetic_calendar.csv'}\n")
    from_csv = _run_tiny(tmp_path, "csv", config, TINY_RUN_COMMANDS[1:])
    outputs = sorted(name for name in synthetic if not name.startswith("data"))
    assert len(outputs) >= 33
    assert sorted(from_csv) == outputs
    for name in outputs:
        assert from_csv[name] == synthetic[name], name


# --- criterion 13 (soft): 1m share rises with volatility ---------------------


def test_criterion_13_directional_volatility_preference(capsys):
    t0 = time.perf_counter()
    result = synthesize(small_synth_config(), seed=29, days=34)
    train_sessions = result.sessions[:22]
    test_sessions = result.sessions[22:]
    test_day = test_sessions[0].day

    windows = {Timeframe.ONE_MINUTE: 8, Timeframe.TEN_MINUTE: 6, Timeframe.ONE_HOUR: 4}
    agent_hp = PpoHyperparams(total_timesteps=4096, learning_rate=1e-3, n_steps=512,
                              batch_size=128, n_epochs=4, entropy_coef=0.01)
    agents = {}
    for tf, w in windows.items():
        env_cfg = EnvConfig(timeframe=tf, window_size=w)
        params, _ = train(lambda cfg=env_cfg: TradingEnv(train_sessions, cfg),
                          NetworkSpec(w * 8, (16, 16), 3), agent_hp, seed=0)
        agents[tf] = RegisteredAgent(params=params, config=env_cfg)
    registry = AgentRegistry(agents)

    alloc_cfg = AllocatorConfig(market_window=20, vol_window=10)
    alloc_spec = NetworkSpec(observation_size(alloc_cfg), (16, 16), 3)
    alloc_hp = PpoHyperparams(total_timesteps=4096, learning_rate=3e-4, n_steps=512,
                              batch_size=128, n_epochs=4, entropy_coef=0.005)
    outcomes = []
    for seed in range(5):
        params, _ = train(lambda: HierarchyEnv(train_sessions, registry, alloc_cfg),
                          alloc_spec, alloc_hp, seed)
        env = run_hierarchy(result.sessions, registry, params, alloc_cfg, start_day=test_day)
        quartiles = quartile_allocation(env.decisions, test_sessions, "daily").quartiles
        outcomes.append(quartiles[-1].shares[0] >= quartiles[0].shares[0])
    wins = sum(outcomes)
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 13, wins >= 4, "1m selection share: top vs bottom volatility quartile",
             f"{wins}/5 seeds (target 4/5), {elapsed:.0f}s", gating=False)
    # Directional outcome is reported above, not gated; only the machinery is asserted.
    assert len(outcomes) == 5
