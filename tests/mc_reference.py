"""Per-step reference for ``mc_rates``: on ``block_rng(seed)``, one
``sample_blocks`` draw of all i.i.d. blocks, whose excesses are merged
``market.CHAIN_BLOCKS`` at a time, one uniform per chain for its stationary
start, then one ``sample_blocks`` draw, one clip and one ``excess_fraction``
call per chain step.

This is the Monte-Carlo chain's original loop, kept as the oracle the
blocked chain in ``market.mc_rates`` is checked against in
``test_market.py``. The excess moments are the pairwise merge of Chan, Golub
and LeVeque written out, not ``market._Moments``, so the merge is checked
too.
"""

import math

import numpy as np

from ammauction import market
from ammauction.market import MCRates, _stationary_start, block_rng, sample_blocks
from ammauction.pool import excess_fraction


def reference_mc_rates(fee, params, n_samples, seed=0, chains=250) -> MCRates:
    rng = block_rng(seed)
    dt = params.delta_t

    _, z = sample_blocks(params, n_samples, rng)
    vals = excess_fraction(z, fee)
    n_seen, mean, m2 = 0, 0.0, 0.0
    for lo in range(0, n_samples, market.CHAIN_BLOCKS):
        chunk = vals[lo : lo + market.CHAIN_BLOCKS]
        mean_x = float(chunk.mean())
        m2_x = float(np.square(chunk - mean_x).sum())
        total = n_seen + chunk.size
        delta = mean_x - mean
        mean += delta * chunk.size / total
        m2 += m2_x + delta * delta * n_seen * chunk.size / total
        n_seen = total
    ae0_hat = mean / dt
    ae0_se = math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples) / dt

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
