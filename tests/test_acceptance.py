"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The suite is deterministic: every stochastic check runs under
a fixed seed.
"""

import math
import random
import warnings

import numpy as np
from scipy import integrate

from ammauction import market
from ammauction.equilibrium import solve_am_equilibrium, solve_ff_liquidity
from ammauction.market import MarketParams, ae0, ap0, mc_rates
from ammauction.pool import excess_fraction, withdrawal_fee_required
from ammauction.sim import BidSpec, SimConfig, run_sim, run_strategic_withdrawal_attack

import auction_driver
from auction_driver import apply_events, check_lock_in, random_events
from closed_forms import conditional_excess
from conftest import REF

SIGMAS = (0.02, 0.05)
DELTA_TS = (0.005, 0.01)
FEES = (0.0, 0.001, 0.003, 0.01)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_monte_carlo_matches_closed_forms():
    worst = 0.0
    for sigma in SIGMAS:
        for delta_t in DELTA_TS:
            params = MarketParams(sigma=sigma, delta_t=delta_t, r=1e-4, f_max=0.05)
            # one stream for the four fees: each is bit for bit its own call
            fees = np.array(FEES)
            est = mc_rates(fees, params, 1_000_000, seed=0)
            z_ap = abs(est.ap0_hat - ap0(fees, params)) / est.ap0_se
            z_ae = abs(est.ae0_hat - ae0(fees, params)) / est.ae0_se
            worst = max(worst, float(z_ap.max()), float(z_ae.max()))
    report(
        1,
        "monte carlo vs closed forms",
        worst <= 3.0,
        f"16 cells at n=1e6, worst |z| = {worst:.2f} (limit 3)",
    )


def _quadrature_excess(sigma, tau, fee, side):
    s = sigma * math.sqrt(tau)
    sign = 1.0 if side == "plus" else -1.0

    def integrand(z):
        pdf = math.exp(-z * z / (2 * s * s)) / (s * math.sqrt(2 * math.pi))
        return excess_fraction(sign * z, fee) * pdf

    value, _ = integrate.quad(integrand, fee, fee + 60.0 * s, limit=400, epsabs=1e-13)
    return value


def test_criterion_2_layered_oracle_chain():
    worst_abs = 0.0
    for sigma in SIGMAS:
        for tau in (0.0025, 0.005, 0.01, 0.02):
            for fee in FEES:
                for side in ("plus", "minus"):
                    closed = conditional_excess(sigma, tau, fee, side)
                    gap = abs(closed - _quadrature_excess(sigma, tau, fee, side))
                    worst_abs = max(worst_abs, gap)

    worst_rel = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for sigma in SIGMAS:
            for delta_t in DELTA_TS:
                params = MarketParams(sigma=sigma, delta_t=delta_t, r=1e-4, f_max=0.05)
                for fee in FEES:
                    # both sides at once: the minus side is e^{-f} x the plus side
                    def integrand(u):
                        plus = conditional_excess(sigma, u * delta_t, fee, "plus")
                        return math.exp(-u) * plus * (1.0 + math.exp(-fee))

                    kappa = market.kappa(fee, params)
                    u_mid = max(1.0, kappa * kappa / 4.0)
                    v1, _ = integrate.quad(integrand, 0.0, u_mid, epsabs=0.0, epsrel=1e-11, limit=500)
                    v2, _ = integrate.quad(integrand, u_mid, np.inf, epsabs=0.0, epsrel=1e-11, limit=500)
                    rate = (v1 + v2) / delta_t
                    worst_rel = max(worst_rel, abs(rate - ae0(fee, params)) / ae0(fee, params))
    report(
        2,
        "layered oracle chain",
        worst_abs <= 1e-8 and worst_rel <= 1e-6,
        f"quadrature gap {worst_abs:.2e} (limit 1e-8), "
        f"tau-integration rel {worst_rel:.2e} (limit 1e-6)",
    )


def test_criterion_3_withdrawal_fee():
    fee_gap = abs(withdrawal_fee_required(1.01) - 1.2376e-5)
    config = SimConfig(
        horizon_blocks=1,
        seed=0,
        market=REF,
        initial_bids=(BidSpec("mgr", 1e-6, 1e-5),),
    )
    sweep = run_strategic_withdrawal_attack(
        config, ratios=np.linspace(1.0, 1.0 + REF.f_max, 257)
    )
    report(
        3,
        "withdrawal fee",
        fee_gap <= 1e-9 and sweep.max_net_gain <= 0.0 and abs(sweep.gain_at_cap) <= 1e-12,
        f"fee(1.01) gap {fee_gap:.2e} (limit 1e-9), max net gain "
        f"{sweep.max_net_gain:.2e}, |gain at cap| {abs(sweep.gain_at_cap):.2e} (limit 1e-12)",
    )


def test_criterion_4_fixed_fee_equilibrium_solver():
    fees = np.linspace(REF.f_max / 64, REF.f_max, 64)
    grid = np.logspace(-6.0, 12.0, 1_000_000)
    grid_pow = grid ** (REF.alpha - 1.0)
    worst_residual = 0.0
    worst_rel = 0.0
    for fee in map(float, fees):
        eq = solve_ff_liquidity(fee, REF)
        worst_residual = max(worst_residual, eq.residual)
        revenue = fee * REF.c0 * math.exp(-REF.c1 * fee) / 2.0
        g = revenue * grid_pow - (ap0(fee, REF) + REF.r)
        scan_root = float(grid[np.argmin(np.abs(g))])
        worst_rel = max(worst_rel, abs(scan_root - eq.liquidity) / eq.liquidity)
    report(
        4,
        "fixed-fee equilibrium",
        worst_residual <= 1e-10 and worst_rel <= 1e-4,
        f"64 fees: max |G| = {worst_residual:.2e} (limit 1e-10), "
        f"max grid-scan gap = {worst_rel:.2e} (4 significant digits)",
    )


def test_criterion_5_liquidity_dominance():
    eq = solve_am_equilibrium(REF)
    fees = np.linspace(0.0, REF.f_max, 64)
    min_gap = min(
        eq.L_star - solve_ff_liquidity(float(f), REF).liquidity for f in fees
    )
    margin = (ap0(eq.ff_best_fee, REF) - ae0(eq.ff_best_fee, REF)) * 2.0 * eq.L_max
    scale = max(1.0, eq.R_star)
    residual_ok = eq.lp_residual <= 1e-10 * scale and eq.mgr_residual <= 1e-10 * scale
    report(
        5,
        "liquidity dominance",
        min_gap > 0.0 and margin > 0.0 and residual_ok,
        f"min(L* - L_ff) = {min_gap:.4g}, proof margin = {margin:.4g} > 0, "
        f"zero-profit residuals ({eq.lp_residual:.1e}, {eq.mgr_residual:.1e}) "
        f"within 1e-10 x scale",
    )


def test_criterion_6_fee_bound():
    eq = solve_am_equilibrium(REF)
    h0_opt = market.noise_volume_per_value(eq.f_opt, eq.L_star, REF)
    h0_star = market.noise_volume_per_value(eq.f_star, eq.L_star, REF)
    sacrifice = eq.f_opt * h0_opt - eq.f_star * h0_star
    bound = ae0(eq.f_opt, REF)
    report(
        6,
        "revenue sacrifice bound",
        sacrifice <= bound and eq.f_opt <= eq.f_star,
        f"sacrifice {sacrifice:.3e} <= ae0(f_opt) {bound:.3e}; "
        f"f_opt {eq.f_opt:.5f} <= f_star {eq.f_star:.5f}",
    )


def test_criterion_7_auction_invariants():
    sequences, events_each = 100, 1_000
    for seed in range(sequences):
        events = random_events(random.Random(seed), events_each)
        state_a, log = apply_events(events, collect_managers=True)
        check_lock_in(log)  # plus conservation/coverage/cap inside the driver
        state_b, _ = apply_events(events)
        assert state_a.to_json() == state_b.to_json(), f"replay diverged (seed {seed})"

    # K-delay: a bid submitted at block N takes the seat exactly at N + K
    k = auction_driver.K_DELAY
    state = auction_driver.make_state()
    state.submit_bid("first", 10, 10 * k)
    for _ in range(k):
        state.advance_block(1)
    state.top_up_deposit("first", 10 * 10 * k)
    n = state.current_block
    state.submit_bid("second", 20, 20 * k)
    managers = {}
    for _ in range(k):
        state.advance_block(1)
        managers[state.current_block] = state.manager
    switch_ok = all(
        managers[b] == ("first" if b < n + k else "second") for b in managers
    )
    report(
        7,
        "auction state machine",
        switch_ok,
        f"{sequences * events_each} randomized events upheld lock-in, conservation, "
        f"coverage, fee cap, determinism; manager switch at exactly N+{k}",
    )


def test_criterion_8_simulation_accounting():
    horizon = 1_000_000
    config = SimConfig(
        horizon_blocks=horizon,
        seed=3,
        market=REF,
        manager_policy="fixed",
        manager_fee=0.003,
        initial_bids=(BidSpec("mgr", 1e-6, (horizon + 10) / 1e6),),
    )
    rep = run_sim(config)
    ok = (
        abs(rep.accounting_drift) <= 1e-9
        and rep.max_end_mispricing <= 1e-12
        and rep.unmanaged_blocks == 0
    )
    report(
        8,
        "simulation accounting",
        ok,
        f"1e6 blocks: |drift| = {abs(rep.accounting_drift):.2e} (limit 1e-9), "
        f"max end |z| = {rep.max_end_mispricing:.2e} (limit 1e-12), "
        f"max block residual = {rep.max_block_residual:.2e}",
    )
