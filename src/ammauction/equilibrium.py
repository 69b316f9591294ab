"""Equilibrium solvers for the fixed-fee and auction-managed pool designs.

Free entry drives LP profit to zero. For a fixed-fee pool the equilibrium
liquidity solves ``G(L) = f*H0(f,L) - ap0(f) - r = 0``; for the
auction-managed pool, substituting the manager's zero-profit rent into the
LP condition gives ``G_am(L) = max_f {f*H0(f,L) - ae0(f)} - r = 0``. Both
maps are continuous and strictly decreasing in ``L`` (demand per unit value
falls in ``L``), diverge as ``L -> 0`` and go negative as ``L -> infinity``.

The fixed-fee ``G`` is a power law in ``L`` with a closed-form root,
evaluated for one fee or a whole fee grid at once. ``G_am`` has a fee
maximization inside, so its root is pinned by a sign-change bracket plus
bisection (geometric, since L spans decades).

The inner fee maximization is a dense-grid scan, one evaluation of the
objective on the fee array (the :mod:`market` rates take arrays), refined
by golden-section search on floats; the objective is not guaranteed
concave, and ties break toward the smaller fee. All rates are per unit time
at a reference price (default 1); price enters only through the pool value
``V(L) = 2 sqrt(P) L``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import market
from .market import MarketParams
from .pool import array_module, pool_value

__all__ = [
    "SolverConfig",
    "BracketError",
    "FFEquilibrium",
    "AMEquilibrium",
    "DominanceRow",
    "DominanceReport",
    "lp_pnl_ff",
    "solve_ff_liquidity",
    "mgr_pnl_am",
    "lp_pnl_am",
    "manager_optimal_fee",
    "revenue_optimal_fee",
    "solve_am_equilibrium",
    "dominance_report",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class BracketError(RuntimeError):
    """The solver could not bracket a sign change; carries diagnostics."""


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-10  # relative width of the final bisection bracket
    max_iter: int = 200
    fee_grid: int = 2048
    bracket_factor: float = 10.0
    bracket_start: float = 1.0  # initial liquidity guess the bracket grows from
    max_bracket_steps: int = 200

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.bracket_factor <= 1.0:
            raise ValueError(f"bracket_factor must exceed 1, got {self.bracket_factor}")
        if self.bracket_start <= 0.0:
            raise ValueError(f"bracket_start must be positive, got {self.bracket_start}")
        if self.fee_grid < 8:
            raise ValueError(f"fee_grid must be at least 8, got {self.fee_grid}")


@dataclass(frozen=True)
class FFEquilibrium:
    """Zero-profit liquidity for a fixed-fee pool.

    ``boundary`` marks the degenerate zero-fee case: with no fee revenue the
    only equilibrium is no liquidity, and ``residual`` then reports the
    (constant) profit gap ``ap0(0) + r`` instead of a root residual.
    """

    fee: float
    liquidity: float
    residual: float
    boundary: bool = False


@dataclass(frozen=True)
class AMEquilibrium:
    """Auction-managed equilibrium and the fixed-fee benchmark beside it."""

    L_star: float
    R_star: float
    f_star: float
    f_opt: float
    L_max: float
    R_max: float
    ff_best_fee: float
    lp_residual: float
    mgr_residual: float


def _h0_factor(liquidity: float, params: MarketParams, price: float) -> float:
    # H0(f, L) = _h0_factor * e^{-c1 f}
    return params.c0 * liquidity ** (params.alpha - 1.0) / (2.0 * math.sqrt(price))


def lp_pnl_ff(fee: float, liquidity: float, params: MarketParams, price: float = 1.0) -> float:
    """LP profit rate in a fixed-fee pool: fee revenue less arb losses and
    the capital charge, ``f*H(f,L) - ap0(f)*V(L) - r*V(L)``."""
    if liquidity <= 0.0:
        raise ValueError(f"liquidity must be positive, got {liquidity}")
    v = pool_value(liquidity, price)
    return fee * market.noise_volume(fee, liquidity, params) - (
        market.ap0(fee, params) + params.r
    ) * v


def lp_pnl_am(rent: float, liquidity: float, params: MarketParams, price: float = 1.0) -> float:
    """LP profit rate under a manager: rent in, fee-free adverse selection and
    the capital charge out, ``R - (ap0(0) + r) * V(L)``."""
    if liquidity <= 0.0:
        raise ValueError(f"liquidity must be positive, got {liquidity}")
    return rent - (market.ap0(0.0, params) + params.r) * pool_value(liquidity, price)


def _golden_max(fn, a: float, b: float, tol: float = 1e-13) -> tuple[float, float]:
    """Golden-section maximizer on [a, b]; ties resolve toward smaller x."""
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, fn(x)
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    yc, yd = fn(c), fn(d)
    while h > tol:
        if yc >= yd:  # keep the left interval on ties
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INVPHI2 * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INVPHI * h
            yd = fn(d)
    return (c, yc) if yc >= yd else (d, yd)


def _max_over_fees(objective, params: MarketParams, cfg: SolverConfig) -> tuple[float, float]:
    """Maximize a fee objective on [0, f_max]: dense grid, then refinement.

    ``objective`` maps a fee array to values and a float fee to a float.
    Returns (argmax fee, max value); ties go to the smaller fee.
    """
    if params.f_max == 0.0:
        return 0.0, objective(0.0)
    fees = np.linspace(0.0, params.f_max, cfg.fee_grid)
    vals = objective(fees)
    i = int(np.argmax(vals))  # first occurrence: smallest fee on ties
    best_f, best_v = float(fees[i]), float(vals[i])
    lo = float(fees[max(i - 1, 0)])
    hi = float(fees[min(i + 1, len(fees) - 1)])
    f_ref, v_ref = _golden_max(objective, lo, hi)
    if v_ref > best_v or (v_ref == best_v and f_ref < best_f):
        best_f, best_v = f_ref, v_ref
    return best_f, best_v


def _bracket_and_bisect(g, cfg: SolverConfig, what: str) -> tuple[float, float]:
    """Root of a strictly decreasing g on (0, inf) by geometric bisection.

    Expands a bracket [lo, hi] around the start guess until g(lo) > 0 > g(hi),
    then bisects in log space to relative width cfg.tolerance. Returns
    (root, |g(root)|).
    """
    lo = hi = cfg.bracket_start
    g_lo = g_hi = g(lo)
    steps = 0
    while g_lo <= 0.0:
        lo /= cfg.bracket_factor
        g_lo = g(lo)
        steps += 1
        if steps > cfg.max_bracket_steps or not math.isfinite(lo) or lo == 0.0:
            raise BracketError(
                f"{what}: no sign change while shrinking L to {lo:g} "
                f"(g stays {g_lo:g} <= 0); either the fee revenue term vanishes "
                f"(zero fee, or zero noise-demand scale) or parameters are degenerate"
            )
    steps = 0
    while g_hi >= 0.0:
        hi *= cfg.bracket_factor
        g_hi = g(hi)
        steps += 1
        if steps > cfg.max_bracket_steps or not math.isfinite(hi):
            raise BracketError(
                f"{what}: no sign change while growing L to {hi:g} (g stays "
                f"{g_hi:g} >= 0); demand does not decay with pool size"
            )
    for _ in range(cfg.max_iter):
        mid = math.sqrt(lo * hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= cfg.tolerance * mid:
            break
    root = math.sqrt(lo * hi)
    return root, abs(g(root))


def _ff_liquidity(fee, params: MarketParams, price: float):
    """The closed-form root of :func:`solve_ff_liquidity` and ``|G(root)|``
    at positive fees, a float or an array; raises :class:`BracketError`
    where a root is not positive and finite."""
    revenue = fee * params.c0 * array_module(fee).exp(-params.c1 * fee) / (2.0 * math.sqrt(price))
    target = market.ap0(fee, params) + params.r
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            root = (revenue / target) ** (1.0 / (1.0 - params.alpha))
        except (ZeroDivisionError, OverflowError):  # floats raise where arrays give inf
            root = math.inf
        bad = np.logical_not(np.isfinite(root) & (root > 0.0))
        if np.any(bad):
            raise BracketError(
                f"ff equilibrium at fee {np.extract(bad, fee)[0]:g}: no positive finite "
                "root; the fee revenue vanishes, or so does ap0 + r (no price motion "
                "and no capital charge)"
            )
        return root, abs(revenue * root ** (params.alpha - 1.0) - target)


def solve_ff_liquidity(fee: float, params: MarketParams, price: float = 1.0) -> FFEquilibrium:
    """Zero-profit liquidity of a fixed-fee pool at the given fee.

    ``G(L) = f*H0(f,L) - ap0(f) - r`` is a strictly decreasing power law in
    L, so the root is the closed form
    ``L = (f c0 e^{-c1 f} / (2 sqrt(P) (ap0(f) + r)))^{1/(1-alpha)}`` and
    ``residual`` is ``|G(L)|``. At fee zero there is no revenue and the
    boundary equilibrium ``L = 0`` is reported instead. Raises
    :class:`BracketError` when the revenue underflows to zero or
    ``ap0(f) + r`` is zero (no price motion and no capital charge).
    """
    if fee < 0.0:
        raise ValueError(f"fee must be non-negative, got {fee}")
    if fee == 0.0:
        return FFEquilibrium(
            fee=0.0,
            liquidity=0.0,
            residual=market.ap0(0.0, params) + params.r,
            boundary=True,
        )
    root, residual = _ff_liquidity(fee, params, price)
    return FFEquilibrium(fee=fee, liquidity=root, residual=residual)


def _best_manager_fee(
    liquidity: float, params: MarketParams, price: float, cfg: SolverConfig
) -> tuple[float, float]:
    """Maximize f*H0(f,L) - ae0(f): the manager's fee problem, net of the
    constant fee-free arb income."""
    h0 = _h0_factor(liquidity, params, price)

    def objective(fee):
        return fee * h0 * array_module(fee).exp(-params.c1 * fee) - market.ae0(fee, params)

    return _max_over_fees(objective, params, cfg)


def manager_optimal_fee(
    liquidity: float,
    params: MarketParams,
    solver: SolverConfig | None = None,
    price: float = 1.0,
) -> float:
    """Fee a profit-maximizing manager sets at the given liquidity."""
    if liquidity <= 0.0:
        raise ValueError(f"liquidity must be positive, got {liquidity}")
    fee, _ = _best_manager_fee(liquidity, params, price, solver or SolverConfig())
    return fee


def mgr_pnl_am(
    rent: float,
    liquidity: float,
    params: MarketParams,
    solver: SolverConfig | None = None,
    price: float = 1.0,
) -> tuple[float, float]:
    """Manager profit rate at its optimal fee, and that fee.

    ``max_f {f*H0(f,L) + ap0(0) - ae0(f)} * V(L) - R``: all fee revenue, plus
    fee-free arbitrage income net of what leaks past the band, less rent.
    """
    if liquidity <= 0.0:
        raise ValueError(f"liquidity must be positive, got {liquidity}")
    if rent < 0.0:
        raise ValueError(f"rent must be non-negative, got {rent}")
    cfg = solver or SolverConfig()
    fee, inner = _best_manager_fee(liquidity, params, price, cfg)
    value = (inner + market.ap0(0.0, params)) * pool_value(liquidity, price) - rent
    return value, fee


def revenue_optimal_fee(
    liquidity: float,
    params: MarketParams,
    solver: SolverConfig | None = None,
    price: float = 1.0,
) -> float:
    """Fee maximizing noise-trader revenue f*H0(f,L) alone.

    For the exponential demand family the interior optimum is 1/c1
    independent of L, capped at f_max; the numeric argmax is returned (the
    closed form is a cross-check, not the implementation).
    """
    if liquidity <= 0.0:
        raise ValueError(f"liquidity must be positive, got {liquidity}")
    cfg = solver or SolverConfig()
    h0 = _h0_factor(liquidity, params, price)

    def objective(fee):
        return fee * h0 * array_module(fee).exp(-params.c1 * fee)

    fee, _ = _max_over_fees(objective, params, cfg)
    return fee


def _max_ff_liquidity(
    params: MarketParams, cfg: SolverConfig, price: float
) -> tuple[float, float]:
    """Maximize L_ff(f) over (0, f_max]: the best the fixed-fee design can do."""
    fees = np.linspace(params.f_max / cfg.fee_grid, params.f_max, cfg.fee_grid)
    liqs, _ = _ff_liquidity(fees, params, price)
    i = int(np.argmax(liqs))
    best_f, best_l = float(fees[i]), float(liqs[i])
    lo = float(fees[max(i - 1, 0)])
    hi = float(fees[min(i + 1, len(fees) - 1)])
    f_ref, l_ref = _golden_max(lambda f: _ff_liquidity(f, params, price)[0], lo, hi, tol=1e-12)
    if l_ref > best_l:
        best_f, best_l = f_ref, l_ref
    return best_f, best_l


def solve_am_equilibrium(
    params: MarketParams,
    solver: SolverConfig | None = None,
    price: float = 1.0,
) -> AMEquilibrium:
    """Zero-profit rent and liquidity of the auction-managed pool.

    Bisects ``G_am(L) = max_f {f*H0(f,L) - ae0(f)} - r`` for the liquidity,
    then backs out the rent from the LP condition and the fee from the
    manager's problem at that liquidity. Also solves the fixed-fee benchmark
    (max liquidity over fees) for the dominance comparison.
    """
    cfg = solver or SolverConfig()

    def g_am(L: float) -> float:
        _, inner = _best_manager_fee(L, params, price, cfg)
        return inner - params.r

    L_star, residual = _bracket_and_bisect(g_am, cfg, "am equilibrium")
    f_star, _ = _best_manager_fee(L_star, params, price, cfg)
    v_star = pool_value(L_star, price)
    R_star = (market.ap0(0.0, params) + params.r) * v_star
    f_opt = revenue_optimal_fee(L_star, params, cfg, price)
    ff_best_fee, L_max = _max_ff_liquidity(params, cfg, price)
    R_max = (market.ap0(0.0, params) + params.r) * pool_value(L_max, price)
    lp_residual = abs(lp_pnl_am(R_star, L_star, params, price))
    mgr_residual = abs(mgr_pnl_am(R_star, L_star, params, cfg, price)[0])
    return AMEquilibrium(
        L_star=L_star,
        R_star=R_star,
        f_star=f_star,
        f_opt=f_opt,
        L_max=L_max,
        R_max=R_max,
        ff_best_fee=ff_best_fee,
        lp_residual=lp_residual,
        mgr_residual=mgr_residual,
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
        out = []
        for row in self.rows:
            out.append(
                (
                    row.fee,
                    row.L_ff,
                    self.am.L_star,
                    self.am.R_star,
                    self.am.f_star,
                    self.am.f_opt,
                    row.margin,
                )
            )
        return out


def dominance_report(
    params: MarketParams,
    n_grid: int = 64,
    solver: SolverConfig | None = None,
    price: float = 1.0,
) -> DominanceReport:
    """Tabulate L_ff(f) across a fee grid against the managed equilibrium.

    Each row carries the dominance margin at its fee; the zero-fee row is the
    boundary equilibrium (no liquidity) and is trivially dominated.
    """
    if n_grid < 16:
        raise ValueError(f"n_grid must be at least 16, got {n_grid}")
    cfg = solver or SolverConfig()
    am = solve_am_equilibrium(params, cfg, price)
    v_max = pool_value(am.L_max, price)
    fees = np.linspace(0.0, params.f_max, n_grid)
    rows = []
    for f in map(float, fees):
        eq = solve_ff_liquidity(f, params, price)
        margin = (market.ap0(f, params) - market.ae0(f, params)) * v_max
        rows.append(
            DominanceRow(
                fee=f, L_ff=eq.liquidity, margin=margin, dominated=am.L_star > eq.liquidity
            )
        )
    proof_margin = (
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
