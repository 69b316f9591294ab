import math

import numpy as np
import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from ammauction.pool import (
    excess_fraction,
    pool_value,
    strategic_withdrawal_values,
    trade_to_band,
    withdrawal_fee_required,
)

from sim_reference import band_trade


def raw_excess_oracle(liquidity, price, z, fee):
    """Reserve-difference definition of the outside-arb profit, evaluated literally.

    Independent of the simplified exponential form under test.
    """

    def x_of(p):
        return liquidity / math.sqrt(p)

    def y_of(p):
        return liquidity * math.sqrt(p)

    if z > fee:
        stale, edge = price * math.exp(-z), price * math.exp(-fee)
        return price * (x_of(stale) - x_of(edge)) + math.exp(fee) * (y_of(stale) - y_of(edge))
    if z < -fee:
        stale, edge = price * math.exp(-z), price * math.exp(fee)
        return price * (x_of(stale) - x_of(edge)) + math.exp(-fee) * (y_of(stale) - y_of(edge))
    return 0.0


def closed_form_excess(liquidity, price, z, fee):
    """The outside arbitrageur's closed-form profit: pool value times the
    excess fraction."""
    return pool_value(liquidity, price) * excess_fraction(z, fee)


def trade_profit(x, y, trade, price):
    """The trader's mark-to-market profit at ``price`` from reserves
    ``(x, y)`` and a trade ``(new_x, new_y, fee_paid)``: the value drained
    from the pool, net of the fee."""
    new_x, new_y, fee_paid = trade
    return price * (x - new_x) + (y - new_y) - fee_paid


class TestPoolValue:
    def test_unit_inputs(self):
        assert pool_value(1.0, 1.0) == 2.0

    def test_scaled(self):
        assert pool_value(2.0, 4.0) == 8.0

    def test_zero_liquidity(self):
        assert pool_value(0.0, 7.0) == 0.0

    @pytest.mark.parametrize("price", [0.0, -1.0, math.inf, math.nan])
    def test_bad_price(self, price):
        with pytest.raises(ValueError):
            pool_value(1.0, price)


class TestArbTradeToBand:
    """``trade_to_band`` on one pool's float reserves."""

    def test_no_trade_at_exact_boundary(self):
        true_price = 1.02
        z = math.log(true_price / (1.0 / 1.0))
        assert trade_to_band(1.0, 1.0, true_price, z) == (1.0, 1.0, 0.0, False)

    def test_no_trade_at_zero_mispricing(self):
        assert trade_to_band(2.0, 3.0, 3.0 / 2.0, 0.005) == (2.0, 3.0, 0.0, False)

    def test_trade_to_band_buy_side(self):
        true_price = math.exp(0.02)
        *result, traded = trade_to_band(1.0, 1.0, true_price, 0.005)
        assert traded
        new_x, new_y, _ = result
        target = true_price * math.exp(-0.005)
        assert new_y / new_x == pytest.approx(target, rel=1e-12)
        profit = trade_profit(1.0, 1.0, result, true_price)
        oracle = raw_excess_oracle(1.0, true_price, 0.02, 0.005)
        assert profit == pytest.approx(oracle, rel=1e-9)
        assert profit == pytest.approx(
            closed_form_excess(1.0, true_price, 0.02, 0.005), rel=1e-9
        )

    def test_trade_to_band_sell_side(self):
        true_price = math.exp(-0.02)
        *result, traded = trade_to_band(1.0, 1.0, true_price, 0.005)
        assert traded
        new_x, new_y, _ = result
        assert new_y / new_x == pytest.approx(true_price * math.exp(0.005), rel=1e-12)
        profit = trade_profit(1.0, 1.0, result, true_price)
        assert profit == pytest.approx(
            closed_form_excess(1.0, true_price, -0.02, 0.005), rel=1e-9
        )
        assert profit > 0.0

    def test_liquidity_unchanged(self):
        new_x, new_y, _, _ = trade_to_band(1.0, 1.0, math.exp(0.04), 0.01)
        assert math.sqrt(new_x * new_y) == pytest.approx(1.0, rel=1e-12)

    @given(
        z=st.floats(min_value=-0.4, max_value=0.4),
        fee=st.floats(min_value=0.0, max_value=0.05),
    )
    def test_no_trade_iff_inside_band(self, z, fee):
        assume(abs(abs(z) - fee) > 1e-9)  # stay clear of the knife edge
        _, _, _, traded = trade_to_band(1.0, 1.0, math.exp(z), fee)
        assert traded == (abs(z) > fee)

    def test_huge_fee_inside_band_is_no_trade(self):
        # e^1000 overflows a float; a lane that does not trade never computes it
        assert trade_to_band(1.0, 1.0, 1.0, 1000.0) == (1.0, 1.0, 0.0, False)


class TestTradeToBand:
    """The trade the simulator's kernel runs on arrays, checked against the
    closed-form excess, which shares none of its code."""

    N = 20_000

    @pytest.fixture(scope="class")
    def trades(self):
        rng = np.random.default_rng(13)
        z = rng.uniform(-0.3, 0.3, self.N)
        z[::50] = 0.0
        fee = rng.uniform(0.0, 0.05, self.N)
        fee[::10] = 0.0
        price = np.exp(rng.normal(0.0, 2.0, self.N))
        liquidity = 1.7
        sqrt_spot = np.sqrt(price * np.exp(-z))  # the pool opens at mispricing z
        x, y = liquidity / sqrt_spot, liquidity * sqrt_spot
        return z, fee, price, liquidity, x, y, trade_to_band(x, y, price, fee)

    def test_profit_is_the_closed_form_excess(self, trades):
        z, fee, price, liquidity, x, y, (new_x, new_y, fee_paid, traded) = trades
        profit = price * (x - new_x) + (y - new_y) - fee_paid
        value = 2.0 * np.sqrt(price) * liquidity
        excess = np.array([excess_fraction(a, f) for a, f in zip(z.tolist(), fee.tolist())])
        assert np.all(np.abs(profit - value * excess) <= 1e-14 * value)
        clear = np.abs(np.abs(z) - fee) > 1e-12  # off the knife edge the trade reads z
        assert np.array_equal(traded[clear], np.abs(z[clear]) > fee[clear])
        assert np.all(fee_paid[~traded] == 0.0)
        np.testing.assert_allclose(np.sqrt(new_x * new_y), liquidity, rtol=1e-15)

    def test_arrays_agree_with_floats(self, trades):
        # one numpy path: a trade on its own has its array lane's bits
        _, fee, price, liquidity, x, y, (new_x, new_y, fee_paid, traded) = trades
        scalar = [
            trade_to_band(*args) for args in zip(x.tolist(), y.tolist(), price.tolist(),
                                                 fee.tolist())
        ]
        assert [bool(s[3]) for s in scalar] == traded.tolist()
        for i, column in enumerate((new_x, new_y, fee_paid)):
            assert [float(s[i]).hex() for s in scalar] == [v.hex() for v in column.tolist()]

    def test_traded_lanes_keep_their_bits(self, trades):
        # reference: the same formula with every lane's exponentials taken at
        # the lane's own fee; selecting the arguments per lane moves no bit
        # of a lane that trades
        _, fee, price, _, x, y, (new_x, new_y, fee_paid, traded) = trades
        with np.errstate(over="ignore", invalid="ignore"):
            z = np.log(price / (y / x))
            buy = z > fee
            sqrt_edge = np.sqrt(price * np.exp(np.where(buy, -fee, fee)))
            liquidity = np.sqrt(x * y)
            want_y = liquidity * sqrt_edge
            want = (
                liquidity / sqrt_edge,
                want_y,
                np.where(buy, np.expm1(fee) * (want_y - y), -np.expm1(-fee) * (y - want_y)),
            )
        for got, column in zip((new_x, new_y, fee_paid), want):
            assert got[traded].tobytes() == column[traded].tobytes()

    def test_huge_fee_warns_nothing(self, trades):
        _, _, price, _, x, y, _ = trades
        with np.errstate(all="raise"):
            new_x, new_y, fee_paid, traded = trade_to_band(x, y, price, np.full(self.N, 1000.0))
        assert not traded.any() and not fee_paid.any()
        assert new_x.tobytes() == x.tobytes() and new_y.tobytes() == y.tobytes()


class TestReferenceBandTrade:
    """``sim_reference.band_trade``, the simulator reference's own scalar
    trade, against ``trade_to_band`` and the reserve-difference excess."""

    def test_agrees_with_trade_to_band_and_the_raw_excess(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            fee = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.05))
            z = float(rng.uniform(-0.5, 0.5))
            clear = abs(abs(z) - fee) > 1e-9  # off the knife edge
            liquidity = float(np.exp(rng.uniform(-5.0, 14.0)))
            x, y = liquidity * math.exp(z / 2.0), liquidity * math.exp(-z / 2.0)
            ours = band_trade(x, y, fee)
            new_x, new_y, fee_paid, traded = trade_to_band(x, y, 1.0, fee)
            if clear:
                assert (ours is None) == (abs(z) <= fee) == (not traded)
            if ours is None:
                continue
            theirs = tuple(map(float, (new_x, new_y, fee_paid)))
            assert ours == pytest.approx(theirs, rel=1e-12, abs=0.0)
            value = pool_value(liquidity, 1.0)
            profit = trade_profit(x, y, ours, 1.0)
            oracle = raw_excess_oracle(liquidity, 1.0, z, fee)
            assert abs(profit - oracle) <= 1e-12 * value
            if abs(z) - fee > 0.05:  # a gap large enough to read relatively
                assert profit == pytest.approx(oracle, rel=1e-12)

    def test_none_exactly_inside_the_band(self):
        for x, y in ((1.0, 1.0), (2.0, 3.0), (3.0, 2.0), (1e6, 7e-6)):
            z = math.log(x / y)
            assert band_trade(x, y, abs(z)) is None
            assert band_trade(x, y, abs(z) * 2.0) is None
            if z:
                assert band_trade(x, y, math.nextafter(abs(z), 0.0)) is not None
        assert band_trade(1.0, 1.0, 0.0) is None


class TestArbExcessInstant:
    """The closed-form excess ``pool_value * excess_fraction`` against the
    reserve-difference definition."""

    def test_zero_at_boundaries(self):
        assert closed_form_excess(1.0, 1.0, 0.01, 0.01) == 0.0
        assert closed_form_excess(1.0, 1.0, -0.01, 0.01) == 0.0

    def test_matches_reserve_difference_form(self):
        simplified = closed_form_excess(1.0, 1.0, 0.03, 0.01)
        assert simplified == pytest.approx(raw_excess_oracle(1.0, 1.0, 0.03, 0.01), rel=1e-12)

    def test_thousand_random_draws_match_raw_form(self):
        # relative agreement needs the band gap to dominate float roundoff in
        # the raw difference-of-reserves oracle, hence the 0.01 gap floor;
        # absolute agreement for small gaps is covered separately below
        rng = np.random.default_rng(7)
        for _ in range(1000):
            fee = float(rng.uniform(0.0, 0.05))
            gap = float(rng.uniform(0.01, 0.5))
            z = (fee + gap) * (1.0 if rng.random() < 0.5 else -1.0)
            liquidity = float(rng.uniform(0.1, 1e6))
            price = float(rng.uniform(1e-3, 1e3))
            ours = closed_form_excess(liquidity, price, z, fee)
            oracle = raw_excess_oracle(liquidity, price, z, fee)
            assert ours == pytest.approx(oracle, rel=1e-10)

    def test_small_gap_absolute_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            fee = float(rng.uniform(0.0, 0.05))
            z = (fee + float(rng.uniform(0.0, 0.01))) * (1 if rng.random() < 0.5 else -1)
            value = pool_value(1.0, 1.0)
            ours = closed_form_excess(1.0, 1.0, z, fee)
            oracle = raw_excess_oracle(1.0, 1.0, z, fee)
            assert abs(ours - oracle) <= 1e-12 * value

    @given(
        z=st.floats(min_value=-0.5, max_value=0.5),
        fee=st.floats(min_value=0.0, max_value=0.1),
    )
    def test_nonnegative_and_zero_iff_inside(self, z, fee):
        # a band overshoot below ~1e-150 squares to zero in floats, so keep
        # the strict-positivity claim to representable gaps
        assume(abs(z) <= fee or abs(z) - fee > 1e-12)
        value = closed_form_excess(1.0, 1.0, z, fee)
        assert value >= 0.0
        if abs(z) <= fee:
            assert value == 0.0
        else:
            assert value > 0.0

    @given(
        z=st.floats(min_value=-0.5, max_value=0.5),
        fee=st.floats(min_value=0.0, max_value=0.1),
        liquidity=st.floats(min_value=1e-3, max_value=1e6),
        price=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_value_proportional(self, z, fee, liquidity, price):
        # linear in L and in sqrt(P) at fixed (z, fee)
        base = closed_form_excess(1.0, 1.0, z, fee)
        scaled = closed_form_excess(liquidity, price, z, fee)
        assert scaled == pytest.approx(liquidity * math.sqrt(price) * base, rel=1e-12)

    def test_correction_fraction(self):
        z = 0.05
        # at fee 0 the excess is the fee-free correction's profit
        assert excess_fraction(z, 0.0) == pytest.approx(math.cosh(z / 2) - 1.0, rel=1e-12)
        # full correction decomposes into band excess, the arb's fee, and the
        # fee-free remainder; checked end to end in the simulator tests
        assert excess_fraction(0.0, 0.0) == 0.0
        assert excess_fraction(z, fee=z) == 0.0

    def test_nan_mispricing_gives_nan(self):
        assert math.isnan(closed_form_excess(1.0, 1.0, math.nan, 0.003))


class TestExcessFraction:
    @pytest.mark.parametrize("fee", [0.0, 0.003])
    def test_nan_float_gives_nan(self, fee):
        assert math.isnan(excess_fraction(math.nan, fee))

    @pytest.mark.parametrize("fee", [0.0, 0.003])
    def test_nan_element_gives_nan_and_leaves_the_others(self, fee):
        z = np.array([0.01, -0.002, 0.0, -0.02])
        want = excess_fraction(z, fee)
        z_nan = np.insert(z, 2, np.nan)
        got = excess_fraction(z_nan, fee)
        assert math.isnan(got[2])
        assert np.delete(got, 2).tobytes() == want.tobytes()

    def test_inside_the_band_is_positive_zero(self):
        for z in (0.003, -0.003, 0.001, -0.0, 0.0):
            value = excess_fraction(z, 0.003)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, z
        values = excess_fraction(np.array([0.003, -0.003, 0.001, -0.0]), 0.003)
        assert not np.signbit(values).any() and not values.any()


class TestWithdrawalFee:
    def test_no_move_no_fee(self):
        assert withdrawal_fee_required(1.0) == 0.0

    def test_one_percent_cap(self):
        # about 0.1238 basis points
        assert withdrawal_fee_required(1.01) == pytest.approx(1.2376e-5, abs=1e-9)

    def test_ratio_four(self):
        assert withdrawal_fee_required(4.0) == pytest.approx(0.2, rel=1e-15)

    def test_downward_moves_mirror(self):
        assert withdrawal_fee_required(0.5) == pytest.approx(
            withdrawal_fee_required(2.0), rel=1e-15
        )

    @pytest.mark.parametrize("ratio", [0.0, -1.0, math.inf])
    def test_bad_ratio(self, ratio):
        with pytest.raises(ValueError):
            withdrawal_fee_required(ratio)


class TestStrategicWithdrawalValues:
    def test_no_move(self):
        assert strategic_withdrawal_values(1.0, 1.0, 1.0) == (2.0, 2.0)

    def test_one_percent_move(self):
        v_now, v_after = strategic_withdrawal_values(1.0, 1.0, 1.01)
        assert v_now == pytest.approx(2.01, rel=1e-15)
        assert v_after == pytest.approx(2.0 * math.sqrt(1.01), rel=1e-15)
        assert v_after == pytest.approx(2.0099751, abs=1e-7)

    def test_scale_linearity(self):
        assert strategic_withdrawal_values(5.0, 4.0, 1.0) == (20.0, 20.0)

    @given(ratio=st.floats(min_value=1.0, max_value=100.0))
    def test_consistent_with_required_fee(self, ratio):
        v_now, v_after = strategic_withdrawal_values(3.0, 2.0, ratio)
        loss = (v_now - v_after) / v_now
        assert abs(loss - withdrawal_fee_required(ratio)) <= 1e-12

    def test_ratio_below_one_rejected(self):
        with pytest.raises(ValueError):
            strategic_withdrawal_values(1.0, 1.0, 0.9)
