"""Portfolio accounting: whole-share fills, average cost, cash conservation.

The Test{State,Buy,Sell,Features} classes check the state-object oracle in
portfolio_reference; the TestFloat* classes check the same cases on the
float arithmetic of alloctrader.portfolio, and TestFloatsEqualOracle
replays random trades through both, bit for bit.
"""

from datetime import datetime, timezone

import numpy as np
import pytest

from alloctrader import portfolio
from alloctrader.portfolio import PortfolioError, SaleRecord, TradeLogEntry, write_trade_log
from portfolio_reference import PortfolioState, buy_all, features, mark, sell_all


class TestState:
    def test_initial(self):
        s = PortfolioState.initial(10_000.0, 100.0)
        assert s.cash == 10_000.0 and s.shares == 0 and s.cost_basis == 0.0
        assert s.total_value == 10_000.0
        assert s.avg_cost is None

    def test_negative_cash_rejected(self):
        with pytest.raises(PortfolioError):
            PortfolioState(cash=-1.0, shares=0, cost_basis=0.0, last_price=100.0)

    def test_flat_with_cost_basis_rejected(self):
        with pytest.raises(PortfolioError):
            PortfolioState(cash=100.0, shares=0, cost_basis=50.0, last_price=100.0)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(PortfolioError):
            PortfolioState(cash=100.0, shares=0, cost_basis=0.0, last_price=0.0)


class TestBuy:
    def test_whole_shares_only(self):
        # $10,000 at $150/share buys 66 shares and leaves $100 cash.
        s = PortfolioState.initial(10_000.0, 150.0)
        s2, filled = buy_all(s, 150.0)
        assert filled == 66
        assert s2.shares == 66
        assert s2.cash == pytest.approx(100.0)
        assert s2.cost_basis == pytest.approx(66 * 150.0)

    def test_insufficient_cash_is_noop(self):
        s = PortfolioState.initial(99.0, 100.0)
        s2, filled = buy_all(s, 100.0)
        assert filled == 0
        assert s2.shares == 0 and s2.cash == 99.0
        assert s2.last_price == 100.0

    def test_accumulation_tracks_sum_of_spends(self):
        rng = np.random.default_rng(3)
        s = PortfolioState.initial(50_000.0, 100.0)
        spent = 0.0
        bought = 0
        for _ in range(6):
            price = float(rng.uniform(40.0, 300.0))
            s, filled = buy_all(s, price)
            spent += filled * price
            bought += filled
            assert s.shares == bought
            assert s.cost_basis == pytest.approx(spent, rel=1e-12)
            if s.shares:
                assert s.avg_cost == pytest.approx(spent / bought, rel=1e-12)

    def test_cash_never_negative_under_float_noise(self):
        # Prices engineered so that cash // price * price could round above cash.
        for price in (0.1, 0.3, 7.7, 1 / 3, 149.99):
            s = PortfolioState.initial(1_000.0, price)
            s2, filled = buy_all(s, price)
            assert s2.cash >= 0.0
            assert (filled + 1) * price > 1_000.0 or s2.cash < price


class TestSell:
    def test_round_trip_conserves_value_without_fees(self):
        s = PortfolioState.initial(10_000.0, 100.0)
        s, _ = buy_all(s, 100.0)
        s, record = sell_all(s, 103.0)
        assert record is not None
        assert record.shares == 100 and record.sell_price == 103.0
        assert record.avg_cost == pytest.approx(100.0)
        assert s.cash == pytest.approx(10_300.0)
        assert s.shares == 0 and s.cost_basis == 0.0

    def test_sell_when_flat_is_noop(self):
        s = PortfolioState.initial(500.0, 100.0)
        s2, record = sell_all(s, 120.0)
        assert record is None
        assert s2.cash == 500.0 and s2.shares == 0
        assert s2.last_price == 120.0

    def test_per_share_fee_applied_on_sell_only(self):
        s = PortfolioState.initial(10_000.0, 100.0, fee_per_sell_share=0.05)
        s, filled = buy_all(s, 100.0)
        assert filled == 100  # buying is fee-free
        s, record = sell_all(s, 103.0)
        assert s.cash == pytest.approx(100 * 103.0 - 100 * 0.05)

    def test_value_identity_at_mark_price(self):
        # total_value after mark equals cash + shares * price exactly.
        rng = np.random.default_rng(9)
        s = PortfolioState.initial(25_000.0, 50.0)
        for _ in range(40):
            price = float(rng.uniform(20.0, 90.0))
            op = rng.integers(0, 3)
            if op == 0:
                s, _ = buy_all(s, price)
            elif op == 1:
                s, _ = sell_all(s, price)
            else:
                s = mark(s, price)
            assert s.total_value == s.cash + s.shares * s.last_price
            assert s.total_value > 0.0


class TestFeatures:
    def test_all_cash(self):
        s = PortfolioState.initial(10_000.0, 100.0)
        f = features(s)
        assert f.cash_ratio == 1.0 and f.stock_ratio == 0.0 and f.unrealized_profit_ratio == 0.0

    def test_fully_invested_gain(self):
        s = PortfolioState.initial(10_000.0, 100.0)
        s, _ = buy_all(s, 100.0)
        s = mark(s, 110.0)
        f = features(s)
        assert f.cash_ratio == pytest.approx(0.0)
        assert f.stock_ratio == pytest.approx(1.0)
        assert f.unrealized_profit_ratio == pytest.approx(0.10)

    def test_ratios_sum_to_one(self):
        rng = np.random.default_rng(21)
        s = PortfolioState.initial(7_500.0, 60.0)
        for _ in range(25):
            price = float(rng.uniform(30.0, 120.0))
            s, _ = (buy_all if rng.random() < 0.5 else sell_all)(s, price)
            f = features(s)
            assert f.cash_ratio + f.stock_ratio == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= f.cash_ratio <= 1.0


class TestFloatBuy:
    def test_whole_shares_only(self):
        cost, filled = portfolio.buy_all(10_000.0, 150.0)
        assert filled == 66
        assert 10_000.0 - cost == pytest.approx(100.0)
        assert cost == pytest.approx(66 * 150.0)

    def test_insufficient_cash_is_noop(self):
        assert portfolio.buy_all(99.0, 100.0) == (0.0, 0)

    def test_accumulation_tracks_sum_of_spends(self):
        rng = np.random.default_rng(3)
        cash, shares, basis = 50_000.0, 0, 0.0
        spent = 0.0
        for _ in range(6):
            price = float(rng.uniform(40.0, 300.0))
            cost, filled = portfolio.buy_all(cash, price)
            cash, shares, basis = cash - cost, shares + filled, basis + cost
            spent += filled * price
            assert basis == pytest.approx(spent, rel=1e-12)
            if shares:
                assert basis / shares == pytest.approx(spent / shares, rel=1e-12)

    def test_cash_never_negative_under_float_noise(self):
        for price in (0.1, 0.3, 7.7, 1 / 3, 149.99):
            cost, filled = portfolio.buy_all(1_000.0, price)
            assert 1_000.0 - cost >= 0.0
            assert (filled + 1) * price > 1_000.0 or 1_000.0 - cost < price

    @pytest.mark.parametrize("price", [0.0, -1.0, float("nan")])
    def test_nonpositive_price_rejected(self, price):
        with pytest.raises(PortfolioError, match="price must be positive"):
            portfolio.buy_all(100.0, price)
        with pytest.raises(PortfolioError, match="price must be positive"):
            portfolio.sell_all(1, 50.0, price, 0.0)


class TestFloatSell:
    def test_round_trip_conserves_value_without_fees(self):
        cost, filled = portfolio.buy_all(10_000.0, 100.0)
        proceeds, record = portfolio.sell_all(filled, cost, 103.0, 0.0)
        assert record == SaleRecord(shares=100, sell_price=103.0, avg_cost=100.0)
        assert 10_000.0 - cost + proceeds == pytest.approx(10_300.0)

    def test_sell_when_flat_is_noop(self):
        assert portfolio.sell_all(0, 0.0, 120.0, 0.05) == (0.0, None)

    def test_per_share_fee_applied_on_sell_only(self):
        cost, filled = portfolio.buy_all(10_000.0, 100.0)
        assert filled == 100 and cost == 10_000.0  # buying is fee-free
        proceeds, _ = portfolio.sell_all(filled, cost, 103.0, 0.05)
        assert proceeds == pytest.approx(100 * 103.0 - 100 * 0.05)

    def test_value_identity_at_mark_price(self):
        rng = np.random.default_rng(9)
        cash, shares, basis = 25_000.0, 0, 0.0
        for _ in range(40):
            price = float(rng.uniform(20.0, 90.0))
            op = rng.integers(0, 3)
            if op == 0:
                cost, filled = portfolio.buy_all(cash, price)
                cash, shares, basis = cash - cost, shares + filled, basis + cost
            elif op == 1:
                proceeds, sale = portfolio.sell_all(shares, basis, price, 0.0)
                if sale is not None:
                    cash, shares, basis = cash + proceeds, 0, 0.0
            value = portfolio.mark(cash, shares, basis, price)[0]
            assert value == cash + shares * price
            assert value > 0.0


class TestFloatFeatures:
    def test_all_cash(self):
        assert portfolio.mark(10_000.0, 0, 0.0, 100.0) == (10_000.0, 1.0, 0.0, 0.0)

    def test_fully_invested_gain(self):
        cost, filled = portfolio.buy_all(10_000.0, 100.0)
        value, cash_ratio, stock_ratio, unrealized = portfolio.mark(
            10_000.0 - cost, filled, cost, 110.0)
        assert value == pytest.approx(11_000.0)
        assert cash_ratio == pytest.approx(0.0)
        assert stock_ratio == pytest.approx(1.0)
        assert unrealized == pytest.approx(0.10)

    def test_ratios_sum_to_one(self):
        rng = np.random.default_rng(21)
        cash, shares, basis = 7_500.0, 0, 0.0
        for _ in range(25):
            price = float(rng.uniform(30.0, 120.0))
            if rng.random() < 0.5:
                cost, filled = portfolio.buy_all(cash, price)
                cash, shares, basis = cash - cost, shares + filled, basis + cost
            else:
                proceeds, sale = portfolio.sell_all(shares, basis, price, 0.0)
                if sale is not None:
                    cash, shares, basis = cash + proceeds, 0, 0.0
            _, cash_ratio, stock_ratio, _ = portfolio.mark(cash, shares, basis, price)
            assert cash_ratio + stock_ratio == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= cash_ratio <= 1.0

    def test_vector_mark_equals_scalar_marks(self):
        prices = np.random.default_rng(5).uniform(50.0, 150.0, 64)
        marks = portfolio.mark(37.5, 98, 9_811.25, prices)
        for i, price in enumerate(prices.tolist()):
            assert tuple(m[i] for m in marks) == portfolio.mark(37.5, 98, 9_811.25, price)

    def test_features_clamp_only_the_profit_ratio(self):
        rows = np.array([[0.0, 1.0, 2.5], [1.0, 0.0, -3.0], [0.25, 0.75, 0.5]])
        assert portfolio.features(rows) is None
        assert rows.tolist() == [[0.0, 1.0, 1.0], [1.0, 0.0, -1.0], [0.25, 0.75, 0.5]]


class TestFloatsEqualOracle:
    @pytest.mark.parametrize("fee", [0.0, 0.01, 0.37])
    def test_random_trades_bit_for_bit(self, fee):
        rng = np.random.default_rng(int(fee * 100) + 17)
        for _ in range(300):
            price = float(rng.uniform(1.0, 500.0))
            state = PortfolioState.initial(float(rng.uniform(100.0, 50_000.0)), price, fee)
            cash, shares, basis = state.cash, 0, 0.0
            for _ in range(int(rng.integers(1, 8))):
                price = float(rng.uniform(1.0, 500.0))
                if rng.random() < 0.5:
                    state, want = buy_all(state, price)
                    cost, filled = portfolio.buy_all(cash, price)
                    assert filled == want
                    if filled:
                        cash, shares, basis = cash - cost, shares + filled, basis + cost
                else:
                    state, want = sell_all(state, price)
                    proceeds, sale = portfolio.sell_all(shares, basis, price, fee)
                    assert (sale is None) == (want is None)
                    if sale is not None:
                        assert (sale.shares, sale.sell_price, sale.avg_cost) == (
                            want.shares, want.sell_price, want.avg_cost)
                        cash, shares, basis = cash + proceeds, 0, 0.0
                assert (cash, shares, basis) == (state.cash, state.shares, state.cost_basis)
                f = features(state)
                assert portfolio.mark(cash, shares, basis, price) == (
                    state.total_value, f.cash_ratio, f.stock_ratio, f.unrealized_profit_ratio)


class TestTradeLog:
    def test_round_trip_columns(self, tmp_path):
        ts = datetime(2024, 3, 11, 9, 30, tzinfo=timezone.utc)
        entries = [
            TradeLogEntry(ts, "buy", 66, 150.0, 0.0),
            TradeLogEntry(ts, "sell", 66, 155.0, 0.165),
        ]
        path = tmp_path / "trades.csv"
        write_trade_log(entries, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "timestamp,side,shares,price,realized_reward"
        assert lines[1].startswith("2024-03-11T09:30:00+00:00,buy,66,150.0")
        assert len(lines) == 3
