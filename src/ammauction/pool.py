"""Constant-product pool mechanics.

Reserves ``(x, y)`` satisfy the invariant ``sqrt(x * y) = L``. Asset ``y`` is
the numeraire: the spot price of the risky asset ``x`` is ``y / x`` and the
value of the reserves at an external price ``P`` is ``2 * sqrt(P) * L``.

Swap fees accrue to a fee recipient *outside* the curve (normally the pool
manager), so no trade ever changes ``L``. The fee is log-space: arbitrageurs
trade the pool to the edge of the band ``|ln(P / spot)| <= f`` (the fee-band
model of Milionis et al., arXiv 2305.14604), and the profit of
:func:`trade_to_band` is ``pool_value * excess_fraction``, the closed form,
exactly; a zero fee is the fee-free correction to the true price.

The pool is its reserves: the functions return new values, and are safe to
call from any number of threads, numpy's execution on first use included
(see ``_numpy``). :func:`trade_to_band` and :func:`excess_fraction` compute
with numpy alone, so a lane of an array gets the bits of the same value
passed on its own.
"""

from __future__ import annotations

import math

from ._numpy import np

__all__ = ["pool_value", "trade_to_band", "excess_fraction", "withdrawal_fee_required",
           "strategic_withdrawal_values"]


def pool_value(liquidity: float, price: float) -> float:
    """Numeraire value ``2 * sqrt(price) * liquidity`` of pool reserves."""
    if not (price > 0.0 and math.isfinite(price)):
        raise ValueError(f"price must be positive, got {price}")
    if liquidity < 0.0:
        raise ValueError(f"liquidity must be non-negative, got {liquidity}")
    return 2.0 * math.sqrt(price) * liquidity


def trade_to_band(x, y, z, fee):
    """Trade reserves ``(x, y)`` at mispricing ``z`` to the edge of the fee band.

    The true price is 1, and ``z = ln(x / y)``, as the caller holds it, alone
    decides the trade: inside the band (``|z| <= fee``) the reserves stay,
    otherwise the implied price moves to ``e^{-fee}`` (``z > fee``, the
    arbitrageur buys ``x``) or ``e^{+fee}`` (``z < -fee``, sells ``x``) at
    constant liquidity. The numeraire leg carries the log-space fee factor:
    ``e^{+fee}`` grosses up what a buyer pays and ``e^{-fee}`` scales what a
    seller receives, the difference going to the fee recipient; it is never
    negative. The reserves give every size; the profit is the closed form
    ``pool_value(liquidity, 1) * excess_fraction(z, fee)`` exactly.

    Element-wise, with numpy; unchecked. Returns ``(new_x, new_y, fee_paid, traded)``.
    """
    buy = z > fee
    traded = buy | (z < -fee)
    # each exponential's argument is chosen before the call, so a lane whose
    # result is discarded computes e^0 rather than overflowing at a huge fee
    sqrt_edge = np.sqrt(np.exp(np.where(buy, -fee, np.where(traded, fee, 0.0))))
    liquidity = np.sqrt(x * y)
    new_x = np.where(traded, liquidity / sqrt_edge, x)
    new_y = np.where(traded, liquidity * sqrt_edge, y)
    fee_paid = np.where(
        buy,
        np.expm1(np.where(buy, fee, 0.0)) * (new_y - y),
        np.where(traded, -np.expm1(-fee) * (y - new_y), 0.0),
    )
    # one ulp past the band's edge the start and edge reserves round apart
    # either way, so the leg's size can come out a rounding error below zero
    return new_x, new_y, np.maximum(fee_paid, 0.0), traded


def excess_fraction(z, fee: float, out=None):
    """Outside-arbitrageur profit per unit pool value at mispricing ``z``.

    Zero inside the band ``|z| <= fee``; otherwise the profit from trading
    the pool to the band edge, with the numeraire leg fee-grossed:
    ``e^{sign(z) f/2} (e^{g/2} - 2 + e^{-g/2}) / 2`` with ``g = |z| - f``, in
    ``sinh`` form against cancellation. At ``fee = 0`` this is the fee-free
    correction's ``cosh(z/2) - 1``, the hedged value the pool loses to the
    correcting trader. Element-wise in ``z``, with numpy; a NaN ``z`` gives
    NaN, and a float ``z`` a ``np.float64``. For an array ``z``, ``out`` (a
    float array of its shape) may take the result, and is then returned.

    The kernel works in place on two arrays, the gap and the fee factor, and
    selects nothing by band: inside it the gap clamps to 0, so the factor
    multiplies ``2 sinh(0)^2 = +0.0``. Past a fee of about 1418.2, where
    ``2 e^{f/2}`` overflows, the in-band factor is ``e^0``, as in
    :func:`trade_to_band`, so that no ``inf * 0`` gives NaN.
    """
    if fee < 0.0:
        raise ValueError(f"fee must be non-negative, got {fee}")
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:  # one lane of an array, so a float gets that lane's bits
        return excess_fraction(z.reshape(1), fee)[0]
    gap = np.abs(z)
    gap -= fee
    np.maximum(gap, 0.0, out=gap)  # ``maximum`` keeps a NaN
    factor = np.copysign(0.5 * fee, z, out=out)
    if fee > 1418.0:
        factor *= gap > 0.0
    np.exp(factor, out=factor)
    factor *= 2.0
    factor *= np.square(np.sinh(np.multiply(gap, 0.25, out=gap), out=gap), out=gap)
    return factor


def withdrawal_fee_required(ratio: float) -> float:
    """Exit fee fraction that offsets withdrawing ahead of a bounded price move.

    ``ratio`` is the gross price ratio the fee cap permits (about
    ``1 + fee_cap``). Ratios below one mirror to ``1/ratio``: a downward move
    of the same gross size creates a smaller opportunity, so the upward case
    binds. Returns ``1 - 2*sqrt(ratio)/(1 + ratio)``, in ``[0, 1)``.
    """
    if not (ratio > 0.0 and math.isfinite(ratio)):
        raise ValueError(f"price ratio must be positive, got {ratio}")
    if ratio < 1.0:
        ratio = 1.0 / ratio
    # algebraically 1 - 2*sqrt(r)/(1+r); this form avoids cancellation near 1
    return (math.sqrt(ratio) - 1.0) ** 2 / (1.0 + ratio)


def strategic_withdrawal_values(
    liquidity: float, pool_price: float, ratio: float
) -> tuple[float, float]:
    """Position values around a strategic exit when the true price moved by ``ratio``.

    Returns ``(v_now, v_after)``: the value of the holdings withdrawn before
    the manager's correcting arbitrage, and the value of the same liquidity
    left in the pool after it. ``(v_now - v_after) / v_now`` equals
    :func:`withdrawal_fee_required` at the same ratio.
    """
    if liquidity <= 0.0:
        raise ValueError(f"liquidity must be positive, got {liquidity}")
    if not (pool_price > 0.0 and math.isfinite(pool_price)):
        raise ValueError(f"pool_price must be positive, got {pool_price}")
    if ratio < 1.0:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    v_now = (1.0 + ratio) * math.sqrt(pool_price) * liquidity
    v_after = 2.0 * math.sqrt(ratio * pool_price) * liquidity
    return v_now, v_after
