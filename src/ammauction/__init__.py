"""Auction-managed constant-product AMM toolkit.

A constant-product pool whose swap fee is set by a pool manager that leases
the role through a deposit-backed rent auction, paired with the closed-form
arbitrage-rate model, equilibrium solvers, and the Monte-Carlo machinery used
to validate them. See the README for the module map and the CLI.
"""

__version__ = "0.1.0"
