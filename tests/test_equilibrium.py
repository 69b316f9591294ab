import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ammauction import equilibrium, market
from ammauction.equilibrium import (
    BracketError,
    FFEquilibrium,
    dominance_report,
    manager_optimal_fee,
    revenue_optimal_fee,
    solve_am_equilibrium,
    solve_ff_liquidity,
)
from ammauction.market import MarketParams
from ammauction.pool import pool_value

from closed_forms import lp_pnl_am, lp_pnl_ff, mgr_pnl_am
from conftest import REF


# the acceptance suite's parameter sets: sigma x delta_t
ACCEPTANCE_SETS = [
    MarketParams(sigma=sigma, delta_t=delta_t, r=1e-4, f_max=0.05)
    for sigma in (0.02, 0.05)
    for delta_t in (0.005, 0.01)
]


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def market_params(draw) -> MarketParams:
    """Market parameters over many decades, the subnormal f_max included."""
    return MarketParams(
        sigma=draw(st.just(0.0) | log_uniform(1e-100, 1.0)),
        delta_t=draw(log_uniform(1e-6, 1.0)),
        r=draw(st.just(0.0) | log_uniform(1e-12, 0.1)),
        f_max=draw(st.sampled_from([5e-324, 1e-320]) | log_uniform(1e-300, 0.1)),
        c0=draw(log_uniform(1e-3, 1e200)),
        c1=draw(log_uniform(1.0, 1e4)),
        alpha=draw(st.floats(0.05, 0.95)),
    )


def bisect_ff_root(fee: float, params: MarketParams) -> float:
    """Independent zero-profit liquidity: geometric bisection of G to 1e-14."""
    revenue = fee * params.c0 * math.exp(-params.c1 * fee) / 2.0
    target = market.ap0(fee, params) + params.r

    def g(L):
        return revenue * L ** (params.alpha - 1.0) - target

    lo, hi = 1e-12, 1e24
    assert g(lo) > 0.0 > g(hi)
    while hi / lo - 1.0 > 1e-14:
        mid = math.sqrt(lo * hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def grid_scan_ff_root(fee: float, params: MarketParams, n_points: int = 1_000_000) -> float:
    """Independent zero-profit liquidity: argmin |G| over a dense log grid."""
    grid = np.logspace(-6.0, 12.0, n_points)
    revenue = fee * params.c0 * math.exp(-params.c1 * fee) / 2.0
    g = revenue * grid ** (params.alpha - 1.0) - (market.ap0(fee, params) + params.r)
    return float(grid[np.argmin(np.abs(g))])


def bisect_am_foc(params: MarketParams) -> float:
    """Independent managed fee: bisection of ``d/df ln L_ae(f)`` to adjacent floats,
    ``1/f - c1 - ae0'(f)/(ae0(f) + r)``, with ae0 and the slope of its log
    written out from the raw formula."""
    scale = params.sigma * math.sqrt(params.delta_t / 2.0)

    def ae0(f):
        if scale == 0.0:
            return 0.0
        spread = 1.0 - params.sigma**2 * params.delta_t / 8.0
        return params.sigma**2 / 8.0 * math.exp(-f / scale) * math.cosh(f / 2) / spread

    def foc(f):
        log_slope = 0.5 * math.tanh(f / 2) - (1.0 / scale if scale else 0.0)
        return 1.0 / f - params.c1 - ae0(f) * log_slope / (ae0(f) + params.r)

    lo, hi = 1e-9, params.f_max
    assert foc(lo) > 0.0 > foc(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if foc(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


class TestLpPnlFF:
    def test_zero_fee_is_pure_loss(self):
        value = lp_pnl_ff(0.0, 3.0, REF)
        assert value == pytest.approx(-(market.ap0(0.0, REF) + REF.r) * 6.0, rel=1e-12)
        assert value < 0.0

    def test_zero_at_equilibrium(self):
        eq = solve_ff_liquidity(0.003, REF)
        scale = (market.ap0(0.003, REF) + REF.r) * pool_value(eq.liquidity, 1.0)
        assert abs(lp_pnl_ff(0.003, eq.liquidity, REF)) <= 1e-9 * scale

    def test_reference_point_term_by_term(self):
        # spreadsheet-style evaluation with the raw formulas, no shared code
        sigma, dt, r, c0, c1, alpha, f, L = 0.05, 0.01, 1e-4, 25.0, 120.0, 0.5, 0.003, 1.0
        revenue = f * c0 * L**alpha * math.exp(-c1 * f)
        kappa = f / (sigma * math.sqrt(dt / 2.0))
        arb = (
            (sigma**2 / 8.0)
            / (1.0 + kappa)
            * (math.exp(f / 2) + math.exp(-f / 2))
            / (2.0 * (1.0 - sigma**2 * dt / 8.0))
        ) * (2.0 * L)
        capital = r * 2.0 * L
        expected = revenue - arb - capital
        assert lp_pnl_ff(f, L, REF) == pytest.approx(expected, rel=1e-12)
        assert expected > 0.0  # fee revenue dominates at tiny liquidity

    def test_factored_identity(self):
        for L in (0.5, 1.0, 123.0):
            direct = lp_pnl_ff(0.004, L, REF)
            h0 = market.noise_volume_per_value(0.004, L, REF)
            factored = (0.004 * h0 - market.ap0(0.004, REF) - REF.r) * pool_value(L, 1.0)
            assert direct == pytest.approx(factored, rel=1e-12, abs=1e-18)


class TestSolveFFLiquidity:
    def test_residual_within_tolerance(self):
        eq = solve_ff_liquidity(0.003, REF)
        assert not eq.boundary
        assert eq.residual <= 1e-10

    def test_root_is_bracketed(self):
        eq = solve_ff_liquidity(0.003, REF)

        def g(L):
            return 0.003 * market.noise_volume_per_value(0.003, L, REF) - market.ap0(
                0.003, REF
            ) - REF.r

        assert g(eq.liquidity * (1 - 1e-3)) > 0.0 > g(eq.liquidity * (1 + 1e-3))

    def test_zero_fee_boundary(self):
        eq = solve_ff_liquidity(0.0, REF)
        assert eq.boundary
        assert eq.liquidity == 0.0
        assert eq.residual == pytest.approx(market.ap0(0.0, REF) + REF.r, rel=1e-12)

    def test_reference_value_against_grid_scan(self):
        eq = solve_ff_liquidity(0.003, REF)
        scan = grid_scan_ff_root(0.003, REF)
        assert abs(scan - eq.liquidity) / eq.liquidity < 1e-4  # 4 significant digits
        assert eq.liquidity == pytest.approx(9455.645061135823, rel=1e-9)

    @pytest.mark.parametrize(
        "params", ACCEPTANCE_SETS, ids=lambda p: f"sigma{p.sigma}-dt{p.delta_t}"
    )
    def test_closed_form_matches_bisection(self, params):
        for fee in np.linspace(params.f_max / 50, params.f_max, 50):
            eq = solve_ff_liquidity(float(fee), params)
            root = bisect_ff_root(float(fee), params)
            assert abs(eq.liquidity - root) <= 1e-10 * root

    def test_zero_target_raises(self):
        # no price motion and no capital charge: nothing bounds the liquidity
        params = MarketParams(sigma=0.0, delta_t=0.01, r=0.0, f_max=0.05)
        with pytest.raises(BracketError, match="no positive finite root"):
            solve_ff_liquidity(0.003, params)

    def test_overflowing_root_raises(self):
        # ap0 + r > 0, but the root's exponent 1/(1 - alpha) is 1e9
        params = MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.05, alpha=0.999999999)
        with pytest.raises(BracketError, match=r"raised to 1/\(1 - alpha\) = 1e\+09, overflows"):
            solve_ff_liquidity(0.01, params)

    @pytest.mark.parametrize(
        "c1, fee",
        # e^{-5000} is 0.0: no revenue; e^{-400} leaves a revenue whose root,
        # its square over ap0 + r, is below the smallest double
        [(1e5, 0.05), (1e4, 0.04)],
        ids=["revenue", "root"],
    )
    def test_underflowing_revenue_is_the_boundary(self, c1, fee):
        params = MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.05, c1=c1)
        assert solve_ff_liquidity(fee, params) == FFEquilibrium(
            fee=fee, liquidity=0.0, residual=market.ap0(fee, params) + params.r, boundary=True
        )

    def test_subnormal_root_has_a_finite_residual(self):
        # the root, about 9.19e-313, is a double and no boundary result, and
        # its power L^{alpha - 1} overflows a double
        params = MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.05, c0=1e-300, alpha=0.01)
        fee = 1e-12
        eq = solve_ff_liquidity(fee, params)
        assert not eq.boundary and 0.0 < eq.liquidity < sys.float_info.min
        target = float(market.ap0(fee, params) + params.r)
        # G(L) = f c0 L^{alpha-1} e^{-c1 f} / 2 - ap0 - r at that root, to 50 digits
        with localcontext() as ctx:
            ctx.prec = 50
            power = (Decimal(params.alpha - 1.0) * Decimal(eq.liquidity).ln()).exp()
            revenue = Decimal(fee) * Decimal(params.c0) * (-Decimal(params.c1) * Decimal(fee)).exp()
            g = float(abs(revenue * power / 2 - Decimal(target)))
        assert eq.residual <= 1e-10
        # the subnormal root and revenue carry about 37 bits
        assert abs(eq.residual - g) <= 1e-11 * target

    def test_negative_fee_rejected(self):
        with pytest.raises(ValueError):
            solve_ff_liquidity(-0.001, REF)


class TestManagerProblem:
    def test_degenerate_fee_range(self):
        params = MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.0)
        value, fee = mgr_pnl_am(0.0, 2.0, params)
        assert fee == 0.0
        # with no fee income the manager only arbs; excess eats nothing at f=0
        assert value == pytest.approx(
            (market.ap0(0.0, params) - market.ae0(0.0, params)) * pool_value(2.0, 1.0),
            abs=1e-15,
        )

    def test_linear_in_rent_with_unit_slope(self):
        v1, f1 = mgr_pnl_am(10.0, 5.0, REF)
        v2, f2 = mgr_pnl_am(25.0, 5.0, REF)
        assert f1 == f2
        assert (v2 - v1) == pytest.approx(-15.0, rel=1e-12)

    def test_argmax_matches_dense_grid(self):
        L = 1e4
        _, fee = mgr_pnl_am(0.0, L, REF)
        fees = np.linspace(0.0, REF.f_max, 2048)
        ae = market.ae0(fees, REF)
        h0 = market.noise_volume_per_value(0.0, L, REF)
        obj = fees * h0 * np.exp(-REF.c1 * fees) - ae
        cell = REF.f_max / 2047
        assert abs(fee - float(fees[int(np.argmax(obj))])) <= cell

    def test_manager_optimal_fee_alias(self):
        L = 5000.0
        assert manager_optimal_fee(L, REF) == mgr_pnl_am(0.0, L, REF)[1]

    def test_manager_fee_needs_positive_liquidity(self):
        with pytest.raises(ValueError, match=r"^liquidity must be positive, got 0\.0$"):
            manager_optimal_fee(0.0, REF)


class TestLpPnlAM:
    def test_zero_profit_rent(self):
        L = 7.0
        rent = (market.ap0(0.0, REF) + REF.r) * pool_value(L, 1.0)
        assert lp_pnl_am(rent, L, REF) == pytest.approx(0.0, abs=1e-15)

    def test_no_rent_is_a_loss(self):
        assert lp_pnl_am(0.0, 7.0, REF) < 0.0

    def test_linear_in_rent_with_unit_slope(self):
        assert lp_pnl_am(3.0, 7.0, REF) - lp_pnl_am(1.0, 7.0, REF) == pytest.approx(2.0)


class TestRevenueOptimalFee:
    def test_interior_optimum(self):
        # d/df of f*e^{-c1 f} vanishes at 1/c1
        fee = revenue_optimal_fee(REF)
        assert fee == pytest.approx(1.0 / 120.0, abs=REF.f_max / 2047)

    def test_boundary_optimum(self):
        params = MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.05, c1=10.0)
        assert revenue_optimal_fee(params) == pytest.approx(0.05, rel=1e-9)

    def test_equals_closed_form(self):
        for c1 in (10.0, 60.0, 120.0, 400.0):
            params = MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.05, c1=c1)
            assert revenue_optimal_fee(params) == min(1.0 / c1, params.f_max)


class TestRateSlopes:
    @pytest.mark.parametrize("rate, slope", [(market.ap0, market.ap0_slope),
                                             (market.ae0, market.ae0_slope)])
    @pytest.mark.parametrize(
        "params", ACCEPTANCE_SETS, ids=lambda p: f"sigma{p.sigma}-dt{p.delta_t}"
    )
    def test_matches_central_difference(self, rate, slope, params):
        h = 1e-7
        for fee in (0.001, 0.003, 0.01, 0.03):
            numeric = (rate(fee + h, params) - rate(fee - h, params)) / (2.0 * h)
            assert slope(fee, params) == pytest.approx(numeric, rel=1e-6)

    @pytest.mark.parametrize("slope", [market.ap0_slope, market.ae0_slope])
    def test_flat_without_price_motion(self, slope):
        params = MarketParams(sigma=0.0, delta_t=0.01, r=1e-4, f_max=0.05)
        assert slope(0.003, params) == 0.0


class TestAmEquilibrium:
    def test_zero_profit_residuals(self):
        eq = solve_am_equilibrium(REF)
        scale = max(1.0, eq.R_star)
        assert abs(lp_pnl_am(eq.R_star, eq.L_star, REF)) <= 1e-10 * scale
        assert abs(mgr_pnl_am(eq.R_star, eq.L_star, REF)[0]) <= 1e-10 * scale

    @pytest.mark.parametrize(
        "params", ACCEPTANCE_SETS, ids=lambda p: f"sigma{p.sigma}-dt{p.delta_t}"
    )
    def test_lp_condition_holds_exactly(self, params):
        # R* is built as (ap0(0) + r) * V(L*), the very product the LP
        # condition subtracts, so its residual is exactly zero: a solver
        # that reported it would report a tautology
        eq = solve_am_equilibrium(params)
        assert lp_pnl_am(eq.R_star, eq.L_star, params) == 0.0

    @pytest.mark.parametrize("solve", [solve_am_equilibrium, dominance_report])
    def test_two_fee_maximisations(self, solve, monkeypatch):
        # one for the managed optimum under ae0, one for the fixed-fee
        # benchmark under ap0; the manager's own fee problem is not re-solved
        calls = []
        argmax_fee = equilibrium._argmax_fee

        def counting(*args):
            calls.append(args)
            return argmax_fee(*args)

        monkeypatch.setattr(equilibrium, "_argmax_fee", counting)
        solve(REF)
        assert len(calls) == 2

    def test_dominates_fixed_fee_grid(self):
        eq = solve_am_equilibrium(REF)
        for f in np.linspace(0.0, REF.f_max, 64):
            assert eq.L_star > solve_ff_liquidity(float(f), REF).liquidity
        assert eq.L_star > eq.L_max

    def test_revenue_sacrifice_bounded_by_excess(self):
        # the managed pool's fee gives up less noise revenue than the excess
        # it avoids: f_opt*H0(f_opt) - f_star*H0(f_star) <= ae0(f_opt)
        eq = solve_am_equilibrium(REF)
        h0_opt = market.noise_volume_per_value(eq.f_opt, eq.L_star, REF)
        h0_star = market.noise_volume_per_value(eq.f_star, eq.L_star, REF)
        sacrifice = eq.f_opt * h0_opt - eq.f_star * h0_star
        assert sacrifice <= market.ae0(eq.f_opt, REF)

    def test_fee_ordering_on_reference_family(self):
        # premises first: revenue concave, excess convex on the grid
        fees = np.linspace(0.0, 2.0 / REF.c1, 101)
        revenue = fees * np.exp(-REF.c1 * fees)
        assert np.all(np.diff(revenue, 2) < 1e-12)
        ae = market.ae0(np.linspace(0.0, REF.f_max, 101), REF)
        assert np.all(np.diff(ae, 2) > -1e-15)
        eq = solve_am_equilibrium(REF)
        assert eq.f_opt <= eq.f_star

    def test_bracket_failure_diagnostics(self):
        # a zero fee cap leaves no fee that earns revenue
        params = MarketParams(sigma=0.05, delta_t=0.01, r=1e-4, f_max=0.0)
        with pytest.raises(BracketError, match="at fee 0: the fee revenue vanishes"):
            solve_am_equilibrium(params)

    def test_subnormal_f_max_solves(self):
        # f_max / FEE_GRID underflows, so the fee grid starts at fee 0, where
        # the log liquidity's slope is +inf, not a division by zero
        params = MarketParams(sigma=1e-100, delta_t=0.01, r=0.0, f_max=5e-324, c0=1e200)
        eq = solve_am_equilibrium(params)
        assert eq.f_star == eq.ff_best_fee == 5e-324
        assert eq.L_star == eq.L_max > 0.0

    @given(market_params())
    def test_best_fees_are_positive(self, params):
        # both solves scan fees in (0, f_max] and raise where none has
        # positive liquidity, so a solve that returns has positive fees
        try:
            eq = solve_am_equilibrium(params)
        except BracketError:
            return
        assert eq.ff_best_fee > 0.0 and eq.f_star > 0.0

    @pytest.mark.parametrize(
        "params",
        ACCEPTANCE_SETS + [MarketParams(sigma=0.0, delta_t=0.01, r=1e-4, f_max=0.05)],
        ids=lambda p: f"sigma{p.sigma}-dt{p.delta_t}",
    )
    def test_fee_is_first_order_root(self, params):
        root = bisect_am_foc(params)
        eq = solve_am_equilibrium(params)
        assert abs(eq.f_star - root) <= 1e-13 * root
        # the manager's own fee problem at L* has the same root
        assert manager_optimal_fee(eq.L_star, params) == pytest.approx(eq.f_star, rel=1e-15)
        assert eq.f_opt == min(1.0 / params.c1, params.f_max)


class TestDominanceReport:
    def test_margins_positive_and_dominated(self):
        report = dominance_report(REF, n_grid=32)
        assert report.dominated
        assert report.proof_margin > 0.0
        for row in report.rows:
            assert row.dominated
            if row.fee > 0.0:
                assert row.margin > 0.0

    def test_zero_fee_row_is_boundary(self):
        report = dominance_report(REF, n_grid=16)
        first = report.rows[0]
        assert first.fee == 0.0
        assert first.L_ff == 0.0
        assert first.margin == pytest.approx(0.0, abs=1e-18)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            dominance_report(REF, n_grid=8)

    def test_csv_rows_shape(self):
        report = dominance_report(REF, n_grid=16)
        rows = report.to_csv_rows()
        assert len(rows) == 16
        assert all(len(r) == 7 for r in rows)

    def test_regenerated_report_matches_golden(self, tmp_path):
        import csv
        import pathlib

        golden_path = pathlib.Path(__file__).parent / "data" / "dominance_golden.csv"
        report = dominance_report(REF, n_grid=64)
        rows = report.to_csv_rows()
        with open(golden_path) as fh:
            reader = csv.reader(r for r in fh if not r.startswith("#"))
            header = next(reader)
            golden = [tuple(map(float, row)) for row in reader]
        assert tuple(header) == report.CSV_HEADER
        assert len(golden) == len(rows)
        for got, want in zip(rows, golden):
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-15)


class TestRandomizedDominance:
    def test_managed_liquidity_beats_every_fixed_fee(self):
        # the paper's theorem on 200 seeded random parameter sets: L* exceeds
        # the zero-profit liquidity of every fee on the report's grid; the
        # smallest relative margin seen on such sweeps is about 3e-8
        rng = np.random.default_rng(20240607)

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        for _ in range(200):
            params = MarketParams(
                sigma=log_uniform(1e-3, 1.0),
                delta_t=log_uniform(1e-4, 0.1),
                r=log_uniform(1e-7, 1e-2),
                f_max=rng.uniform(1e-3, 0.1),
                c0=log_uniform(1.0, 100.0),
                c1=log_uniform(10.0, 500.0),
                alpha=rng.uniform(0.05, 0.95),
            )
            report = dominance_report(params)
            best_ff = max(row.L_ff for row in report.rows)
            assert report.am.L_star > best_ff > 0.0, params
            assert report.dominated, params
