"""Reference `BaseBarEnv._span` that marks every span through arrays.

`envs.BaseBarEnv._span` marks a one-bar span that sells nothing on Python
floats, and clamps the unrealized ratio with np.maximum and np.minimum. This
copy marks every span, one bar or many, as a float64 vector of closes and
clamps with np.clip, as the environments did before. Tests step a subclass
whose `_span` is `span` beside the environment itself and compare rows,
value records, trades and rewards byte for byte.
"""

from __future__ import annotations

import numpy as np

from alloctrader.envs import Action, agent_reward
from alloctrader.portfolio import TradeLogEntry, buy_all, mark


def span(env, action, length: int) -> float:
    """`env._span(action, length)`, every bar marked from an array."""
    action = Action(action)
    decision, end = env.cursor, env._span_end(env.cursor, length)
    closes, timestamps = env.closes, env.timestamps
    price = float(closes[decision])
    reward = 0.0
    if action is Action.BUY and not env.session_last[decision]:
        cost, bought = buy_all(env.cash, price)
        if bought:
            env.cash -= cost
            env.shares += bought
            env.cost_basis += cost
            env.trades.append(TradeLogEntry(timestamps[decision], "buy", bought, price, 0.0))
    elif action is Action.SELL:
        sale = env._sell_all(price)
        if sale is not None:
            reward += agent_reward(sale.sell_price, sale.avg_cost)
            env.trades.append(
                TradeLogEntry(timestamps[decision], "sell", sale.shares, price, reward))
    bars = slice(decision + 1, end + 1)
    pf_rows = env._pf_rows
    values = env.values
    values[bars], *ratios = mark(env.cash, env.shares, env.cost_basis, closes[bars])
    pf_rows[bars, 0], pf_rows[bars, 1], pf_rows[bars, 2] = ratios
    if env.session_last[end] and env.shares > 0:
        end_price = float(closes[end])
        sale = env._sell_all(end_price)
        sale_reward = agent_reward(sale.sell_price, sale.avg_cost)
        reward += sale_reward
        env.trades.append(
            TradeLogEntry(timestamps[end], "sell", sale.shares, end_price, sale_reward))
        values[end], pf_rows[end, 0], pf_rows[end, 1], pf_rows[end, 2] = mark(
            env.cash, env.shares, env.cost_basis, end_price)
    unrealized = pf_rows[bars, 2]
    np.clip(unrealized, -1.0, 1.0, out=unrealized)
    env.value = float(values[end])
    env.cursor = end
    env.done = end == env.n_bars - 1
    return reward
