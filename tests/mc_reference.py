"""Per-step reference for ``mc_rates``: on ``block_rng(seed)``, one
``sample_blocks`` draw of all i.i.d. blocks, then one ``sample_blocks`` draw,
one ``excess_fraction`` call and one clip per chain step.

This is the Monte-Carlo chain's original loop, kept as the oracle the
blocked chain in ``market.mc_rates`` is checked against in
``test_market.py``.
"""

import math

import numpy as np

from ammauction.market import MCRates, block_rng, kappa, sample_blocks
from ammauction.pool import excess_fraction


def chain_warmup(fee, params) -> int:
    """Chain steps discarded before the profit estimator starts averaging."""
    k = kappa(fee, params)
    return max(512, min(20_000, int(40.0 * k * k) + 1)) if math.isfinite(k) else 512


def reference_mc_rates(fee, params, n_samples, seed=0, chains=250) -> MCRates:
    rng = block_rng(seed)
    dt = params.delta_t

    _, z = sample_blocks(params, n_samples, rng)
    vals = excess_fraction(z, fee)
    ae0_hat = float(vals.mean()) / dt
    ae0_se = float(vals.std(ddof=1)) / math.sqrt(n_samples) / dt

    steps = -(-n_samples // chains)
    warmup = chain_warmup(fee, params)
    z_state = np.zeros(chains)
    totals = np.zeros(chains)
    for i in range(warmup + steps):
        _, eps = sample_blocks(params, chains, rng)
        if i >= warmup:
            totals += excess_fraction(z_state, fee)
        z_state = np.clip(z_state, -fee, fee) + eps
    means = totals / steps / dt
    ap0_hat = float(means.mean())
    ap0_se = float(means.std(ddof=1)) / math.sqrt(chains)

    return MCRates(
        fee=np.array([fee]),
        n_samples=n_samples,
        ap0_hat=np.array([ap0_hat]),
        ap0_se=np.array([ap0_se]),
        ae0_hat=np.array([ae0_hat]),
        ae0_se=np.array([ae0_se]),
    )
