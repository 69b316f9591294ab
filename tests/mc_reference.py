"""Per-step reference for ``mc_rates``: on ``block_rng(seed)``, one
``sample_blocks`` draw of all i.i.d. blocks, one uniform per chain for its
stationary start, then one ``sample_blocks`` draw, one clip and one
``excess_fraction`` call per chain step.

This is the Monte-Carlo chain's original loop, kept as the oracle the
blocked chain in ``market.mc_rates`` is checked against in
``test_market.py``.
"""

import math

import numpy as np

from ammauction.market import MCRates, _stationary_start, block_rng, sample_blocks
from ammauction.pool import excess_fraction


def reference_mc_rates(fee, params, n_samples, seed=0, chains=250) -> MCRates:
    rng = block_rng(seed)
    dt = params.delta_t

    _, z = sample_blocks(params, n_samples, rng)
    vals = excess_fraction(z, fee)
    ae0_hat = float(vals.mean()) / dt
    ae0_se = float(vals.std(ddof=1)) / math.sqrt(n_samples) / dt

    steps = -(-n_samples // chains)
    z_state = _stationary_start(np.array([fee]), params, rng[0].random(chains))[0]
    totals = np.zeros(chains)
    for _ in range(steps):
        _, eps = sample_blocks(params, chains, rng)
        z_state = np.clip(z_state, -fee, fee) + eps
        totals += excess_fraction(z_state, fee)
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
