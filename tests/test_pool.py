import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ammauction.pool import (
    excess_fraction,
    pool_value,
    strategic_withdrawal_values,
    trade_to_band,
    withdrawal_fee_required,
)

from closed_forms import excess_fraction_select
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pool_value(-1.0, 1.0), "liquidity must be non-negative, got -1.0"),
        (lambda: excess_fraction(0.01, -0.001), "fee must be non-negative, got -0.001"),
        (lambda: strategic_withdrawal_values(0.0, 1.0, 2.0),
         "liquidity must be positive, got 0.0"),
        (lambda: strategic_withdrawal_values(1.0, 0.0, 2.0),
         "pool_price must be positive, got 0.0"),
        (lambda: strategic_withdrawal_values(1.0, 1.0, 0.9), "ratio must be >= 1, got 0.9"),
    ],
    ids=["pool_value", "excess_fraction", "withdrawal-liquidity", "withdrawal-price",
         "withdrawal-ratio"],
)
def test_bad_argument_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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


def reserves_at(liquidity, z):
    """The reserves ``(x, y)`` of liquidity ``liquidity`` at mispricing ``z``
    against the true price 1, built as the simulator's kernel builds them."""
    sqrt_spot = math.sqrt(math.exp(-z))
    return liquidity / sqrt_spot, liquidity * sqrt_spot


def band_edges(fee):
    """Mispricings at the band's edges ``+-fee`` and one ulp to either side."""
    return [
        w
        for edge in (fee, -fee)
        for w in (edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf))
    ]


class TestArbTradeToBand:
    """``trade_to_band`` on one pool's float reserves."""

    def test_no_trade_at_exact_boundary(self):
        for z in (0.02, -0.02):
            x, y = reserves_at(1.0, z)
            assert trade_to_band(x, y, z, 0.02) == (x, y, 0.0, False)

    def test_no_trade_at_zero_mispricing(self):
        assert trade_to_band(2.0, 2.0, 0.0, 0.005) == (2.0, 2.0, 0.0, False)

    def test_trade_to_band_buy_side(self):
        x, y = reserves_at(1.0, 0.02)
        *result, traded = trade_to_band(x, y, 0.02, 0.005)
        assert traded
        new_x, new_y, _ = result
        assert new_y / new_x == pytest.approx(math.exp(-0.005), rel=1e-12)
        profit = trade_profit(x, y, result, 1.0)
        oracle = raw_excess_oracle(1.0, 1.0, 0.02, 0.005)
        assert profit == pytest.approx(oracle, rel=1e-9)
        assert profit == pytest.approx(closed_form_excess(1.0, 1.0, 0.02, 0.005), rel=1e-9)

    def test_trade_to_band_sell_side(self):
        x, y = reserves_at(1.0, -0.02)
        *result, traded = trade_to_band(x, y, -0.02, 0.005)
        assert traded
        new_x, new_y, _ = result
        assert new_y / new_x == pytest.approx(math.exp(0.005), rel=1e-12)
        profit = trade_profit(x, y, result, 1.0)
        assert profit == pytest.approx(closed_form_excess(1.0, 1.0, -0.02, 0.005), rel=1e-9)
        assert profit > 0.0

    def test_liquidity_unchanged(self):
        new_x, new_y, _, _ = trade_to_band(*reserves_at(1.0, 0.04), 0.04, 0.01)
        assert math.sqrt(new_x * new_y) == pytest.approx(1.0, rel=1e-12)

    @given(data=st.data(), fee=st.floats(min_value=0.0, max_value=0.05))
    def test_no_trade_iff_inside_band(self, data, fee):
        # the mispricing passed in decides, on the band's edge too
        z = data.draw(st.one_of(st.floats(-0.4, 0.4), st.sampled_from(band_edges(fee))))
        _, _, _, traded = trade_to_band(*reserves_at(1.0, z), z, fee)
        assert traded == (abs(z) > fee)

    @pytest.mark.parametrize("fee", [0.0, 5e-324, 1e-17, 0.003, 0.05])
    def test_the_band_edge_is_inside_and_one_ulp_past_it_trades(self, fee):
        outward = (math.nextafter(fee, math.inf), math.nextafter(-fee, -math.inf))
        for z, trades in ((fee, False), (-fee, False), *((w, True) for w in outward)):
            x, y = reserves_at(1.0, z)
            new_x, new_y, fee_paid, traded = trade_to_band(x, y, z, fee)
            assert traded == trades, z
            if not trades:
                assert (new_x, new_y, fee_paid) == (x, y, 0.0)

    def test_one_ulp_past_an_edge_pays_no_negative_fee(self):
        # the side comes from z, the size from the reserves: one ulp past an
        # edge the edge reserves can round past the start ones, which read
        # as a fee below zero (about 2% of these lanes before the clamp)
        rng = np.random.default_rng(34)
        n = 200_000
        fee = rng.uniform(0.0, 0.05, n)
        z = np.where(rng.random(n) < 0.5, np.nextafter(fee, np.inf), np.nextafter(-fee, -np.inf))
        liquidity = np.exp(rng.uniform(-5.0, 14.0, n))
        sqrt_p = np.sqrt(np.exp(-z))  # the reserves as the simulator builds them
        _, _, fee_paid, traded = trade_to_band(liquidity / sqrt_p, liquidity * sqrt_p, z, fee)
        assert np.array_equal(traded, np.abs(z) > fee)
        assert (fee_paid >= 0.0).all()

    def test_huge_fee_inside_band_is_no_trade(self):
        # e^1000 overflows a float; a lane that does not trade never computes it
        assert trade_to_band(1.0, 1.0, 0.0, 1000.0) == (1.0, 1.0, 0.0, False)


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
        # lanes on the band's edges and one ulp to either side
        for k, edge in enumerate((fee, -fee)):
            for j, w in enumerate((edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf))):
                lanes = slice(7 + 2 * (3 * k + j), None, 97)
                z[lanes] = w[lanes]
        liquidity = 1.7
        sqrt_spot = np.sqrt(np.exp(-z))  # the pool opens at mispricing z
        x, y = liquidity / sqrt_spot, liquidity * sqrt_spot
        return z, fee, liquidity, x, y, trade_to_band(x, y, z, fee)

    def test_profit_is_the_closed_form_excess(self, trades):
        z, fee, liquidity, x, y, (new_x, new_y, fee_paid, traded) = trades
        profit = (x - new_x) + (y - new_y) - fee_paid
        value = 2.0 * liquidity
        excess = np.array([excess_fraction(a, f) for a, f in zip(z.tolist(), fee.tolist())])
        assert np.all(np.abs(profit - value * excess) <= 1e-14 * value)
        assert np.array_equal(traded, np.abs(z) > fee)  # every lane, the edges included
        assert np.all(fee_paid[~traded] == 0.0)
        np.testing.assert_allclose(np.sqrt(new_x * new_y), liquidity, rtol=1e-15)

    def test_arrays_agree_with_floats(self, trades):
        # one numpy path: a trade on its own has its array lane's bits
        z, fee, _, x, y, (new_x, new_y, fee_paid, traded) = trades
        scalar = [
            trade_to_band(*args) for args in zip(x.tolist(), y.tolist(), z.tolist(), fee.tolist())
        ]
        assert [bool(s[3]) for s in scalar] == traded.tolist()
        for i, column in enumerate((new_x, new_y, fee_paid)):
            assert [float(s[i]).hex() for s in scalar] == [v.hex() for v in column.tolist()]

    def test_traded_lanes_keep_their_bits(self, trades):
        # reference: the same formula with every lane's exponentials taken at
        # the lane's own fee; selecting the arguments per lane moves no bit
        # of a lane that trades
        z, fee, _, x, y, (new_x, new_y, fee_paid, traded) = trades
        with np.errstate(over="ignore", invalid="ignore"):
            buy = z > fee
            sqrt_edge = np.sqrt(np.exp(np.where(buy, -fee, fee)))
            liquidity = np.sqrt(x * y)
            want_y = liquidity * sqrt_edge
            want_fee = np.where(buy, np.expm1(fee) * (want_y - y), -np.expm1(-fee) * (y - want_y))
            want = (liquidity / sqrt_edge, want_y, np.maximum(want_fee, 0.0))
        for got, column in zip((new_x, new_y, fee_paid), want):
            assert got[traded].tobytes() == column[traded].tobytes()

    def test_huge_fee_warns_nothing(self, trades):
        z, _, _, x, y, _ = trades
        with np.errstate(all="raise"):
            new_x, new_y, fee_paid, traded = trade_to_band(x, y, z, np.full(self.N, 1000.0))
        assert not traded.any() and not fee_paid.any()
        assert new_x.tobytes() == x.tobytes() and new_y.tobytes() == y.tobytes()


class TestReferenceBandTrade:
    """``sim_reference.band_trade``, the simulator reference's own scalar
    trade, against ``trade_to_band`` and the reserve-difference excess."""

    def test_agrees_with_trade_to_band_and_the_raw_excess(self):
        rng = np.random.default_rng(21)
        for i in range(2000):
            fee = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.05))
            # every tenth draw on a band edge or one ulp to either side
            edge = i % 10 == 0
            z = band_edges(fee)[i // 10 % 6] if edge else float(rng.uniform(-0.5, 0.5))
            liquidity = float(np.exp(rng.uniform(-5.0, 14.0)))
            x, y = liquidity * math.exp(z / 2.0), liquidity * math.exp(-z / 2.0)
            ours = band_trade(x, y, z, fee)
            new_x, new_y, fee_paid, traded = trade_to_band(x, y, z, fee)
            assert (ours is None) == (abs(z) <= fee) == (not traded)
            if ours is None:
                continue
            theirs = tuple(map(float, (new_x, new_y, fee_paid)))
            value = pool_value(liquidity, 1.0)
            # one ulp past an edge the fee paid is rounding-sized, and the
            # two formulas round it differently
            assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-15 * value if edge else 0.0)
            profit = trade_profit(x, y, ours, 1.0)
            oracle = raw_excess_oracle(liquidity, 1.0, z, fee)
            assert abs(profit - oracle) <= 1e-12 * value
            if abs(z) - fee > 0.05:  # a gap large enough to read relatively
                assert profit == pytest.approx(oracle, rel=1e-12)

    def test_none_exactly_inside_the_band(self):
        for z in (0.0, -0.0, 0.4, -0.4, 13.6):
            x, y = math.exp(z / 2.0), math.exp(-z / 2.0)
            assert band_trade(x, y, z, abs(z)) is None
            assert band_trade(x, y, z, abs(z) * 2.0) is None
            if z:
                assert band_trade(x, y, z, math.nextafter(abs(z), 0.0)) is not None
        # at fee 0 the smallest mispricing trades, though the reserves it
        # builds read on-price
        assert band_trade(1.0, 1.0, 5e-324, 0.0) is not None


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

    def test_huge_fee_inside_the_band_is_zero(self):
        # 2 e^{f/2} overflows past f ~ 1418.2; inside the band it is never taken
        assert excess_fraction(0.01, 2000.0) == 0.0
        values = excess_fraction(np.array([0.01, -1999.0, -0.0, 2000.0]), 2000.0)
        assert values.tolist() == [0.0] * 4
        z, out = np.array([0.01, -1499.0, -0.0, 1500.0, -1500.0]), np.full(5, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = excess_fraction(z, 1500.0, out=out)
        assert values is out
        assert values.tolist() == [0.0] * 5 and not np.signbit(values).any()

    def test_out_is_the_buffer_returned(self):
        z = np.array([[0.01, -0.002], [0.0, -0.02]])
        out = np.empty((2, 2))
        assert excess_fraction(z, 0.003, out=out) is out
        assert out.tobytes() == excess_fraction(z, 0.003).tobytes()

    @pytest.mark.parametrize("z", [0.01, -0.0, math.nan, np.float64(-0.02), np.array(0.02)])
    def test_a_float_gives_a_numpy_float(self, z):
        assert type(excess_fraction(z, 0.003)) is np.float64


# z values a property draws on top of the general floats: signed zeros, NaN,
# the subnormal and normal range edges and mispricings of +-1e3
EDGE_Z = [0.0, -0.0, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1e3, -1e3]
# fees around where 2 e^{f/2} (about 1418.17) and e^{f/2} (about 1419.57)
# overflow a double
EDGE_FEES = [0.0, 1418.0, 1418.17, 1418.2, 1419.56, 1419.57, 1419.6, 1500.0, 2000.0]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


class TestExcessFractionBits:
    """The in-place kernel against its frozen select form, bit for bit."""

    @given(
        z=st.lists(st.one_of(st.sampled_from(EDGE_Z), st.floats()), min_size=1, max_size=40),
        fee=st.one_of(st.sampled_from(EDGE_FEES), st.floats(min_value=0.0, max_value=2000.0)),
    )
    def test_matches_the_select_form(self, z, fee):
        zs = np.array(z)
        with np.errstate(all="ignore"):  # both forms overflow alike on a huge z
            want = _hex(excess_fraction_select(zs, fee))
            assert _hex(excess_fraction(zs, fee)) == want
            out = np.full(len(z), 7.0)
            assert excess_fraction(zs, fee, out=out) is out
            assert _hex(out) == want
            # a strided view, as the Monte-Carlo chain passes, into a
            # contiguous buffer
            wide = np.repeat(zs, 2)[::2]
            assert _hex(excess_fraction(wide, fee, out=np.empty(len(z)))) == want
            # a float gets the bits of its lane, and the select form's too
            got = excess_fraction(z[0], fee)
            assert type(got) is np.float64
            assert _hex(got) == want[:1] == _hex(excess_fraction_select(z[0], fee))


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
