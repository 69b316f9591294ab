"""Constant-product pool mechanics.

Reserves ``(x, y)`` satisfy the invariant ``sqrt(x * y) = L``. Asset ``y`` is
the numeraire: the spot price of the risky asset ``x`` is ``y / x`` and the
value of the reserves at an external price ``P`` is ``2 * sqrt(P) * L``.

Swap fees accrue to a fee recipient *outside* the curve (normally the pool
manager), so no trade ever changes ``L``. The fee is log-space: arbitrageurs
trade the pool to the edge of the band ``|ln(P / spot)| <= f``, with the
numeraire leg scaled by ``e^{+f}`` on buys and ``e^{-f}`` on sells (the
fee-band model of Milionis et al., arXiv 2305.14604). Under it the profit of
:func:`trade_to_band` equals ``pool_value * excess_fraction``, the closed
form, exactly; a zero fee is the fee-free correction to the true price.

The pool is its reserves: the functions return new values, and are safe to
call from any number of threads, numpy's execution on first use included
(see ``_numpy``). :func:`trade_to_band` and :func:`excess_fraction` compute
with numpy alone, so a lane of an array gets the bits of the same value
passed on its own.
"""

from __future__ import annotations

import math

from ._numpy import np


def pool_value(liquidity: float, price: float) -> float:
    """Numeraire value ``2 * sqrt(price) * liquidity`` of pool reserves."""
    if not (price > 0.0 and math.isfinite(price)):
        raise ValueError(f"price must be positive, got {price}")
    if liquidity < 0.0:
        raise ValueError(f"liquidity must be non-negative, got {liquidity}")
    return 2.0 * math.sqrt(price) * liquidity


def trade_to_band(x, y, price, fee):
    """Trade reserves ``(x, y)`` to the edge of the fee band around ``price``.

    With ``z = ln(price / spot)``: inside the no-trade band (``|z| <= fee``)
    the reserves stay. Otherwise the implied price moves to
    ``price * e^{-fee}`` (``z > fee``, the arbitrageur buys ``x``) or
    ``price * e^{+fee}`` (``z < -fee``, sells ``x``), at constant liquidity.
    The numeraire leg carries the log-space fee factor: ``e^{+fee}`` grosses
    up what a buyer pays and ``e^{-fee}`` scales what a seller receives, the
    difference going to the fee recipient. The arbitrageur's profit at
    ``price`` is then the closed form
    ``pool_value(liquidity, price) * excess_fraction(z, fee)`` exactly.

    Element-wise, with numpy; unchecked. Returns
    ``(new_x, new_y, fee_paid, traded)``.
    """
    z = np.log(price / (y / x))
    buy = z > fee
    traded = buy | (z < -fee)
    # each exponential's argument is chosen before the call, so a lane whose
    # result is discarded computes e^0 rather than overflowing at a huge fee
    sqrt_edge = np.sqrt(price * np.exp(np.where(buy, -fee, np.where(traded, fee, 0.0))))
    liquidity = np.sqrt(x * y)
    new_x = np.where(traded, liquidity / sqrt_edge, x)
    new_y = np.where(traded, liquidity * sqrt_edge, y)
    fee_paid = np.where(
        buy,
        np.expm1(np.where(buy, fee, 0.0)) * (new_y - y),
        np.where(traded, -np.expm1(-fee) * (y - new_y), 0.0),
    )
    return new_x, new_y, fee_paid, traded


def excess_fraction(z, fee: float):
    """Outside-arbitrageur profit per unit pool value at mispricing ``z``.

    Zero inside the band ``|z| <= fee``; otherwise the profit from trading
    the pool to the band edge, with the numeraire leg fee-grossed:
    ``e^{sign(z) f/2} (e^{g/2} - 2 + e^{-g/2}) / 2`` with ``g = |z| - f``, in
    ``sinh`` form against cancellation. At ``fee = 0`` this is the fee-free
    correction's ``cosh(z/2) - 1``, the hedged value the pool loses to the
    correcting trader. Element-wise in ``z``, with numpy; a NaN ``z`` gives NaN.
    """
    if fee < 0.0:
        raise ValueError(f"fee must be non-negative, got {fee}")
    # no branch on the band: inside it the gap clamps to 0, and
    # e^{+-f/2} * 2 sinh(0)^2 = +0.0; ``maximum`` keeps a NaN
    gap = np.maximum(abs(z) - fee, 0.0)
    return np.exp(np.copysign(0.5 * fee, z)) * 2.0 * np.square(np.sinh(0.25 * gap))


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
