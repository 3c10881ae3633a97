"""The portfolio as an immutable state object, kept as the tests' oracle.

`alloctrader.portfolio` does the same arithmetic on the floats that
`envs.BaseBarEnv` holds. This module keeps the object form of it: a frozen
`PortfolioState` that checks every invariant each time it is built, and
`mark`, `buy_all`, `sell_all` and `features` over it. Tests replay an
environment against it and compare the account bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from alloctrader.portfolio import PortfolioError


def _check_price(price: float) -> None:
    if not price > 0:
        raise PortfolioError(f"price must be positive, got {price}")


@dataclass(frozen=True)
class PortfolioState:
    """Immutable snapshot: cash, open share count, cost basis, last mark."""

    cash: float
    shares: int
    cost_basis: float
    last_price: float
    fee_per_sell_share: float = 0.0

    def __post_init__(self) -> None:
        if self.cash < 0:
            raise PortfolioError(f"cash went negative: {self.cash}")
        if self.shares < 0:
            raise PortfolioError(f"share count went negative: {self.shares}")
        if self.shares == 0 and self.cost_basis != 0.0:
            raise PortfolioError("cost basis must be zero on a flat position")
        if self.fee_per_sell_share < 0:
            raise PortfolioError(f"fee must be >= 0, got {self.fee_per_sell_share}")
        _check_price(self.last_price)
        if not self.total_value > 0:
            raise PortfolioError(f"portfolio value must stay positive, got {self.total_value}")

    @classmethod
    def initial(cls, cash: float, price: float, fee_per_sell_share: float = 0.0) -> "PortfolioState":
        if not cash > 0:
            raise PortfolioError(f"initial cash must be positive, got {cash}")
        _check_price(price)
        return cls(cash=cash, shares=0, cost_basis=0.0, last_price=price,
                   fee_per_sell_share=fee_per_sell_share)

    @property
    def total_value(self) -> float:
        return self.cash + self.shares * self.last_price

    @property
    def avg_cost(self) -> float | None:
        """Volume-weighted average purchase price, None when flat."""
        if self.shares == 0:
            return None
        return self.cost_basis / self.shares


@dataclass(frozen=True)
class SaleRecord:
    """What a sell_all realized: position size, fill price, entry cost."""

    shares: int
    sell_price: float
    avg_cost: float


@dataclass(frozen=True)
class PortfolioFeatures:
    """Observation inputs: value split ratios and open-position P&L ratio."""

    cash_ratio: float
    stock_ratio: float
    unrealized_profit_ratio: float


def mark(state: PortfolioState, price: float) -> PortfolioState:
    """Re-mark the position at a new price without trading."""
    _check_price(price)
    return replace(state, last_price=price)


def buy_all(state: PortfolioState, price: float) -> tuple[PortfolioState, int]:
    """Buy floor(cash / price) shares at `price`.

    Returns the new state and the share count bought (0 when cash cannot
    cover a single share; the state is still re-marked at `price`).
    """
    _check_price(price)
    n = int(state.cash // price)
    # Float floor can land one share high; never spend more cash than held.
    while n > 0 and n * price > state.cash:
        n -= 1
    if n == 0:
        return mark(state, price), 0
    cost = n * price
    new = replace(
        state,
        cash=state.cash - cost,
        shares=state.shares + n,
        cost_basis=state.cost_basis + cost,
        last_price=price,
    )
    return new, n


def sell_all(state: PortfolioState, price: float) -> tuple[PortfolioState, SaleRecord | None]:
    """Liquidate the whole position at `price`, net of the per-share fee.

    Returns the new state and a SaleRecord, or None when already flat
    (the state is still re-marked at `price`).
    """
    _check_price(price)
    if state.shares == 0:
        return mark(state, price), None
    record = SaleRecord(
        shares=state.shares,
        sell_price=price,
        avg_cost=state.cost_basis / state.shares,
    )
    proceeds = state.shares * price - state.shares * state.fee_per_sell_share
    new = replace(state, cash=state.cash + proceeds, shares=0, cost_basis=0.0, last_price=price)
    return new, record


def features(state: PortfolioState) -> PortfolioFeatures:
    """Cash/stock value ratios (summing to 1) and unrealized profit ratio,
    unclamped."""
    held = state.shares * state.last_price
    value = state.cash + held
    unrealized = 0.0
    if state.shares > 0:
        avg = state.cost_basis / state.shares
        unrealized = (state.last_price - avg) / avg
    return PortfolioFeatures(state.cash / value, held / value, unrealized)
