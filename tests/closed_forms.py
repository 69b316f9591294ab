"""Closed forms that serve only as test oracles.

:func:`conditional_excess` is the per-block excess law of arXiv 2305.14604 in
closed form, the conditional mean that ``pool.excess_fraction`` averages to;
:func:`lp_pnl_ff` is the fixed-fee LP profit whose root
``equilibrium.solve_ff_liquidity`` finds. No command calls either, so they
live beside the tests that check against them.
"""

import math
from typing import Literal

from ammauction import market
from ammauction.market import MarketParams, _check_fee
from ammauction.pool import pool_value

_SQRT2 = math.sqrt(2.0)


def _phibar(x: float) -> float:
    # Standard normal upper tail via erfc.
    return 0.5 * math.erfc(x / _SQRT2)


def conditional_excess(
    sigma: float, tau: float, fee: float, side: Literal["plus", "minus"] = "plus"
) -> float:
    """Expected one-sided excess per unit pool value, given the block time.

    For ``z ~ N(0, sigma^2 tau)`` this is E[A_side / V | tau], where A_plus
    (A_minus) is the outside-arbitrage profit from a buy (sell) at mispricing
    z. Evaluates the Gaussian tail integrals in closed form; the two sides
    satisfy E[A_minus | tau] = e^{-f} E[A_plus | tau] by z -> -z symmetry.
    """
    _check_fee(fee)
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be positive, got {tau}")
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    s = sigma * math.sqrt(tau)
    if s == 0.0:
        return 0.0
    growth = math.exp(s * s / 8.0)
    tail = (
        math.exp(-0.5 * fee) * growth * _phibar((fee - 0.5 * s * s) / s)
        - 2.0 * _phibar(fee / s)
        + math.exp(0.5 * fee) * growth * _phibar((fee + 0.5 * s * s) / s)
    )
    half_fee = 0.5 * fee if side == "plus" else -0.5 * fee
    return 0.5 * math.exp(half_fee) * tail


def lp_pnl_ff(fee: float, liquidity: float, params: MarketParams) -> float:
    """LP profit rate in a fixed-fee pool: fee revenue less arb losses and
    the capital charge, ``f*H(f,L) - ap0(f)*V(L) - r*V(L)``."""
    if liquidity <= 0.0:
        raise ValueError(f"liquidity must be positive, got {liquidity}")
    v = pool_value(liquidity, 1.0)
    return fee * market.noise_volume(fee, liquidity, params) - (
        market.ap0(fee, params) + params.r
    ) * v
