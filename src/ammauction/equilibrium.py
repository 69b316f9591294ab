"""Equilibrium solvers for the fixed-fee and auction-managed pool designs.

Free entry drives LP profit to zero. For a fixed-fee pool the equilibrium
liquidity solves ``G(L) = f*H0(f,L) - ap0(f) - r = 0``; for the
auction-managed pool, substituting the manager's zero-profit rent into the
LP condition gives ``G_am(L) = max_f {f*H0(f,L) - ae0(f)} - r = 0``.

``H0(f,L) = c0 L^(alpha-1) e^{-c1 f} / 2`` is a strictly decreasing power
law in L, so at each fee ``f*H0(f,L) = rate(f) + r`` has the closed-form root
``L(f) = (f c0 e^{-c1 f} / (2 (rate(f) + r)))^{1/(1-alpha)}``: with
``rate = ap0`` the fixed-fee equilibrium. ``G_am(L) >= 0`` exactly when some
fee has ``L <= L(f)`` with ``rate = ae0``, so the managed equilibrium is
``L* = max_f L(f)`` under ae0 and the manager's fee ``f*`` is its argmax. One
function, the fee in ``(0, f_max]`` with the most zero-profit liquidity under
a rate, gives both designs: ae0 the managed pool, ap0 the best fixed fee.
Since ``ae0 < ap0`` for ``f > 0``, the managed pool's dominance holds fee by
fee.

Every fee maximization scans a :data:`FEE_GRID`-point grid, one evaluation
of the objective on the fee array (the :mod:`market` rates take arrays),
then bisects the objective's analytic slope inside the best grid cell down
to adjacent floats. Where the slope does not change sign across the cell (an
optimum on the boundary, or a non-concave objective) the grid fee stands,
and ties go to the smaller fee. All rates are per unit time at the reference
price 1, where the pool value is ``V(L) = 2L``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import market
from ._numpy import np
from .market import MarketParams
from .pool import pool_value

__all__ = [
    "FEE_GRID",
    "BracketError",
    "FFEquilibrium",
    "AMEquilibrium",
    "DominanceRow",
    "DominanceReport",
    "solve_ff_liquidity",
    "manager_optimal_fee",
    "revenue_optimal_fee",
    "solve_am_equilibrium",
    "dominance_report",
]

# Points of the fee grid every maximization scans before it refines.
FEE_GRID = 2048


class BracketError(RuntimeError):
    """No positive finite equilibrium exists; carries diagnostics."""


@dataclass(frozen=True)
class FFEquilibrium:
    """Zero-profit liquidity for a fixed-fee pool.

    ``boundary`` marks the degenerate cases, fee zero and a fee whose root
    underflows to 0.0: with no fee revenue the only equilibrium is no
    liquidity, and ``residual`` then reports the (constant) profit gap
    ``ap0(f) + r`` instead of a root residual.
    """

    fee: float
    liquidity: float
    residual: float
    boundary: bool = False


@dataclass(frozen=True)
class AMEquilibrium:
    """Auction-managed equilibrium and the fixed-fee benchmark beside it.

    ``L_star`` and ``f_star`` are the most zero-profit liquidity any fee
    reaches under ae0 and that fee; ``R_star = (ap0(0) + r) * V(L_star)`` is
    the rent at which LPs break even, so the LP condition holds by
    construction. ``L_max`` and ``ff_best_fee`` are the same maximum under
    ap0, and ``f_opt`` the noise-revenue-optimal fee. The zero-profit
    residuals of both parties are checked in the tests, not carried here.
    """

    L_star: float
    R_star: float
    f_star: float
    f_opt: float
    L_max: float
    ff_best_fee: float


def _argmax_fee(fees: np.ndarray, values: np.ndarray, slope) -> float:
    """The fee maximizing an objective: its grid argmax, refined to the root
    of the objective's derivative ``slope`` (a float fee to a float).

    The root is bisected between the argmax's grid neighbours down to
    adjacent floats when the slope falls from positive to non-positive
    across them; otherwise the grid fee stands. Ties go to the smaller fee.
    """
    i = int(np.argmax(values))  # first occurrence: smallest fee on ties
    lo = float(fees[max(i - 1, 0)])
    hi = float(fees[min(i + 1, len(fees) - 1)])
    if not slope(lo) > 0.0 >= slope(hi):
        return float(fees[i])
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _zero_profit_liquidity(fee, rate, params: MarketParams):
    """The liquidity at which ``f*H0(f,L) = rate(f) + r``, in closed form,
    element-wise over a fee array (or one fee).

    A root that underflows to 0.0 (no revenue at fee zero, or the revenue or
    the root itself below the smallest double) is zero liquidity. Raises
    :class:`BracketError` where the root is infinite or undefined. The power
    is ``np.power``: a numpy scalar's ``**`` calls the C library's ``pow``,
    which rounds apart from the array kernel.
    """
    revenue = fee * params.c0 * np.exp(-params.c1 * fee) / 2.0
    target = rate(fee, params) + params.r
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = np.power(revenue / target, 1.0 / (1.0 - params.alpha))
    bad = np.logical_not(np.isfinite(root))
    if np.any(bad):
        if np.extract(bad, target)[0] > 0.0:
            cause = (
                "the fee revenue over the arbitrage rate plus r, raised to "
                f"1/(1 - alpha) = {1.0 / (1.0 - params.alpha):g}, overflows a double"
            )
        else:
            cause = (
                "the fee revenue vanishes, or so does the arbitrage rate plus r "
                "(no price motion and no capital charge)"
            )
        at = np.extract(bad, fee)[0]
        raise BracketError(f"no positive finite root at fee {at:g}: {cause}")
    return root


def _most_liquid_fee(rate, rate_slope, params: MarketParams) -> tuple[float, float]:
    """The fee in ``(0, f_max]`` with the most zero-profit liquidity under
    ``rate`` (whose derivative is ``rate_slope``), and that liquidity.

    The liquidity is a power of ``f e^{-c1 f} / (rate(f) + r)``, so the slope
    of its log is ``1/f - c1 - rate'(f) / (rate(f) + r)``.
    """
    fees = np.linspace(params.f_max / FEE_GRID, params.f_max, FEE_GRID)
    liquidity = _zero_profit_liquidity(fees, rate, params)
    if not liquidity.max() > 0.0:
        raise BracketError(
            f"no positive finite root at fee {fees[0]:g}: the fee revenue vanishes at "
            f"every fee up to f_max = {params.f_max:g}"
        )

    def log_slope(fee: float) -> float:
        return 1.0 / fee - params.c1 - rate_slope(fee, params) / (rate(fee, params) + params.r)

    fee = _argmax_fee(fees, liquidity, log_slope)
    return fee, float(_zero_profit_liquidity(fee, rate, params))


def solve_ff_liquidity(fee: float, params: MarketParams) -> FFEquilibrium:
    """Zero-profit liquidity of a fixed-fee pool at the given fee.

    ``G(L) = f*H0(f,L) - ap0(f) - r`` is a strictly decreasing power law in
    L, so the root is the closed form
    ``L = (f c0 e^{-c1 f} / (2 (ap0(f) + r)))^{1/(1-alpha)}`` and
    ``residual`` is ``|G(L)|``, in logs where a subnormal root's power
    overflows. At fee zero there is no revenue, and where the root underflows
    to 0.0 none that a double can show: the boundary
    equilibrium ``L = 0`` is reported instead. Raises :class:`BracketError`
    when ``ap0(f) + r`` is zero (no price motion and no capital charge) or
    the root overflows a double.
    """
    if fee < 0.0:
        raise ValueError(f"fee must be non-negative, got {fee}")
    if fee == 0.0:
        return FFEquilibrium(
            fee=0.0,
            liquidity=0.0,
            residual=float(market.ap0(0.0, params) + params.r),
            boundary=True,
        )
    root = float(_zero_profit_liquidity(fee, market.ap0, params))
    target = market.ap0(fee, params) + params.r
    if root == 0.0:
        return FFEquilibrium(fee=fee, liquidity=0.0, residual=float(target), boundary=True)
    revenue = fee * params.c0 * np.exp(-params.c1 * fee) / 2.0
    with np.errstate(over="ignore"):  # a subnormal root's power can overflow
        residual = abs(revenue * np.power(root, params.alpha - 1.0) - target)
    if np.isinf(residual):  # G = target * (revenue L^{alpha-1} / target - 1), in logs
        log_ratio = np.log(revenue / target) + (params.alpha - 1.0) * np.log(root)
        residual = target * abs(np.expm1(log_ratio))
    return FFEquilibrium(fee=fee, liquidity=root, residual=float(residual))


def _best_manager_fee(liquidity: float, params: MarketParams) -> tuple[float, float]:
    """Maximize f*H0(f,L) - ae0(f) over [0, f_max]: the manager's fee
    problem, net of the constant fee-free arb income. Returns (fee, value)."""
    h0 = market._h0_factor(liquidity, params)

    def objective(fee):
        return fee * h0 * np.exp(-params.c1 * fee) - market.ae0(fee, params)

    def slope(fee: float) -> float:
        revenue = h0 * np.exp(-params.c1 * fee) * (1.0 - params.c1 * fee)
        return revenue - market.ae0_slope(fee, params)

    fees = np.linspace(0.0, params.f_max, FEE_GRID)
    fee = _argmax_fee(fees, objective(fees), slope)
    return fee, objective(fee)


def manager_optimal_fee(liquidity: float, params: MarketParams) -> float:
    """Fee a profit-maximizing manager sets at the given liquidity."""
    if liquidity <= 0.0:
        raise ValueError(f"liquidity must be positive, got {liquidity}")
    fee, _ = _best_manager_fee(liquidity, params)
    return fee


def revenue_optimal_fee(params: MarketParams) -> float:
    """Fee maximizing noise-trader revenue f*H0(f,L) alone.

    For the exponential demand family ``f e^{-c1 f}`` peaks at ``1/c1``
    whatever the liquidity, so the optimum is ``min(1/c1, f_max)``.
    """
    return min(1.0 / params.c1, params.f_max)


def solve_am_equilibrium(params: MarketParams) -> AMEquilibrium:
    """Zero-profit rent and liquidity of the auction-managed pool.

    ``L*`` is the most zero-profit liquidity any fee reaches under ae0 and
    ``f*`` the fee that reaches it; the rent follows from the LP condition.
    Also solves the fixed-fee benchmark (the most liquidity any fee reaches
    under ap0) for the dominance comparison. Raises :class:`BracketError`
    when either has no positive finite solution.
    """
    f_star, L_star = _most_liquid_fee(market.ae0, market.ae0_slope, params)
    ff_best_fee, L_max = _most_liquid_fee(market.ap0, market.ap0_slope, params)
    R_star = float(market.ap0(0.0, params) + params.r) * pool_value(L_star, 1.0)
    return AMEquilibrium(
        L_star=L_star,
        R_star=R_star,
        f_star=f_star,
        f_opt=revenue_optimal_fee(params),
        L_max=L_max,
        ff_best_fee=ff_best_fee,
    )


@dataclass(frozen=True)
class DominanceRow:
    fee: float
    L_ff: float
    margin: float  # (ap0(f) - ae0(f)) * V(L_max)
    dominated: bool


@dataclass(frozen=True)
class DominanceReport:
    """Grid comparison of the two designs, plus the zero-profit benchmark.

    ``proof_margin`` is the manager's surplus at the fixed-fee-optimal fee
    when paying the rent that sustains L_max; it being positive is what
    forces the managed pool's equilibrium liquidity above every fixed-fee
    level. ``flagged`` marks the degenerate case where the best fixed fee
    comes out zero, in which case strict dominance is not asserted.
    """

    am: AMEquilibrium
    rows: tuple[DominanceRow, ...]
    proof_margin: float
    dominated: bool
    flagged: bool

    CSV_HEADER = ("f", "L_ff", "L_star", "R_star", "f_star", "f_opt", "margin")

    def to_csv_rows(self) -> list[tuple]:
        am = self.am
        return [
            (row.fee, row.L_ff, am.L_star, am.R_star, am.f_star, am.f_opt, row.margin)
            for row in self.rows
        ]


def dominance_report(params: MarketParams, n_grid: int = 64) -> DominanceReport:
    """Tabulate L_ff(f) across a fee grid against the managed equilibrium.

    Each row carries the dominance margin at its fee; the zero-fee row, and
    any row whose liquidity underflows to 0.0, is the boundary equilibrium
    (no liquidity) and is trivially dominated. ``L_ff`` is the liquidity
    :func:`solve_ff_liquidity` gives at the row's fee, bit for bit.
    """
    if n_grid < 16:
        raise ValueError(f"n_grid must be at least 16, got {n_grid}")
    am = solve_am_equilibrium(params)
    v_max = pool_value(am.L_max, 1.0)
    fees = np.linspace(0.0, params.f_max, n_grid)
    liquidity = _zero_profit_liquidity(fees, market.ap0, params)
    margins = (market.ap0(fees, params) - market.ae0(fees, params)) * v_max
    rows = [
        DominanceRow(fee=f, L_ff=L, margin=margin, dominated=am.L_star > L)
        for f, L, margin in zip(fees.tolist(), liquidity.tolist(), margins.tolist())
    ]
    proof_margin = float(
        market.ap0(am.ff_best_fee, params) - market.ae0(am.ff_best_fee, params)
    ) * v_max
    flagged = am.ff_best_fee <= 0.0
    dominated = all(r.dominated for r in rows) and (flagged or proof_margin > 0.0)
    return DominanceReport(
        am=am,
        rows=tuple(rows),
        proof_margin=proof_margin,
        dominated=dominated,
        flagged=flagged,
    )
