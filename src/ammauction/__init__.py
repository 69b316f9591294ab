"""Auction-managed constant-product AMM toolkit.

A constant-product pool whose swap fee is set by a pool manager that leases
the role through a deposit-backed rent auction, paired with the closed-form
arbitrage-rate model, equilibrium solvers, and the Monte-Carlo machinery used
to validate them. See the README for the module map and the CLI.
"""

__version__ = "0.1.0"

from .auction import AuctionParams, AuctionRejection, AuctionState, Bid
from .equilibrium import (
    AMEquilibrium,
    BracketError,
    DominanceReport,
    FFEquilibrium,
    dominance_report,
    solve_am_equilibrium,
    solve_ff_liquidity,
)
from .market import MarketParams, MCRates, ae0, ap0, excess_ratio, mc_rates
from .pool import arb_trade_to_band, pool_value, trade_to_band, withdrawal_fee_required
from .replay import replay_auction
from .sim import BidSpec, SimConfig, SimReport, run_sim, run_strategic_withdrawal_attack
