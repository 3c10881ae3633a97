"""Single-asset portfolio arithmetic with all-in/all-out integer-share trades.

The account is four numbers that `envs.BaseBarEnv` holds: cash, the open
share count, the total cost basis of the open position and the per-share
sale fee. Buys convert as much cash as possible into whole shares at the
given price; sells liquidate the entire position. The cost basis is the sum
of what the open position cost, so the average cost is exactly
total-spent / total-shares regardless of how many buys built the position.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Iterable

import numpy as np

from . import AlloctraderError
from .atomic import write_csv


class PortfolioError(AlloctraderError, ValueError):
    """Invalid portfolio operation (non-positive price, a sale that leaves no
    value)."""


def _check_price(price: float) -> None:
    if not price > 0:
        raise PortfolioError(f"price must be positive, got {price}")


@dataclass(frozen=True)
class SaleRecord:
    """What a sell_all realized: position size, fill price, entry cost."""

    shares: int
    sell_price: float
    avg_cost: float


def buy_all(cash: float, price: float) -> tuple[float, int]:
    """Cost and count of the floor(cash / price) whole shares that `cash`
    buys at `price`; (0.0, 0) when it cannot cover one share."""
    _check_price(price)
    n = int(cash // price)
    # Float floor can land one share high; never spend more cash than held.
    while n > 0 and n * price > cash:
        n -= 1
    return n * price, n


def sell_all(shares: int, cost_basis: float, price: float,
             fee: float) -> tuple[float, SaleRecord | None]:
    """Proceeds of selling the whole position at `price`, net of the
    per-share `fee`, and its SaleRecord; (0.0, None) when flat."""
    _check_price(price)
    if shares == 0:
        return 0.0, None
    return shares * price - shares * fee, SaleRecord(shares, price, cost_basis / shares)


def mark(cash: float, shares: int, cost_basis: float, price):
    """Value, cash ratio, stock ratio and unrealized profit ratio of a position
    marked at `price`, which may be one price or a float64 array of them.

    The arithmetic is the same element by element either way, so a vector of
    marks is bit-identical to marking one bar at a time. The profit ratio is
    (price - avg_cost) / avg_cost, 0.0 when flat.
    """
    held = shares * price
    value = cash + held
    unrealized = 0.0
    if shares > 0:
        avg = cost_basis / shares
        unrealized = (price - avg) / avg
    return value, cash / value, held / value, unrealized


def features(rows: np.ndarray) -> None:
    """Make (n, 3) portfolio rows of `mark` ratios observation-ready in place:
    cash ratio and stock ratio as they are, the unrealized profit ratio
    clamped to [-1, 1] with np.clip's bytes but not its per-call cost."""
    unrealized = rows[:, 2]
    np.minimum(np.maximum(unrealized, -1.0, out=unrealized), 1.0, out=unrealized)


@dataclass(frozen=True)
class TradeLogEntry:
    """One executed fill, with the reward realized on sells (0.0 on buys)."""

    timestamp: datetime
    side: str
    shares: int
    price: float
    realized_reward: float


def write_trade_log(entries: Iterable[TradeLogEntry], path: str) -> None:
    """Write fills as CSV: timestamp, side, shares, price, realized_reward."""
    write_csv(path, ("timestamp", "side", "shares", "price", "realized_reward"),
              ((e.timestamp.isoformat(), e.side, e.shares, e.price, e.realized_reward)
               for e in entries))
