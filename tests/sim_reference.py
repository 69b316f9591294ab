"""Scalar reference for ``run_sim``: one Python iteration and one exact
``advance_block`` per block, trading float reserves through its own
written-out band trade, :func:`band_trade`.

This is the simulator's original loop, kept as the oracle the segmented,
vectorized ``run_sim`` is checked against in ``test_sim_segments.py``. It
shares no pool code with the simulator: ``band_trade`` is the fee-band model
written out with ``math``, apart from ``pool.trade_to_band``.
"""

import math
from fractions import Fraction

import numpy as np

from ammauction import market
from ammauction.sim import BLOCK_LOG_HEADER, SimReport, _setup


def band_trade(x, y, z, fee):
    """Arbitrage reserves ``(x, y)`` at the true price 1 and mispricing ``z``
    to the edge of the fee band: ``None`` when ``|z| <= fee``, else
    ``(new_x, new_y, fee_paid)``.

    The pool of liquidity ``L`` at mispricing ``z`` holds ``L e^{z/2}`` and
    ``L e^{-z/2}``; the trade leaves it at ``z = +-fee``. ``z`` alone decides
    the trade; the reserves give its size. A buyer of ``x`` pays the
    numeraire ``dy`` into the pool and ``(e^f - 1) dy`` in fees; a seller
    takes ``dy`` out and pays ``(1 - e^{-f}) dy``, each factor from
    ``expm1``, which keeps its digits at a small fee.
    """
    if abs(z) <= fee:
        return None
    liquidity = math.sqrt(x * y)
    edge = fee if z > 0.0 else -fee
    new_x, new_y = liquidity * math.exp(edge / 2.0), liquidity * math.exp(-edge / 2.0)
    if z > 0.0:
        fee_paid = math.expm1(fee) * (new_y - y)
    else:
        fee_paid = -math.expm1(-fee) * (y - new_y)
    return new_x, new_y, fee_paid


def reference_sim(config, block_log=None) -> SimReport:
    params = config.market
    dt = params.delta_t
    horizon = config.horizon_blocks
    auction, liquidity, policy_fee = _setup(config)

    rng = market.block_rng(config.seed)
    taus, zs = market.sample_blocks(params, horizon, rng)

    value_scale = 2.0 * liquidity
    excess_frac = np.zeros(horizon)
    adverse_frac = np.zeros(horizon)

    mgr_noise = mgr_arbfee = mgr_arb_total = mgr_rent = 0.0
    lp_rent = lp_fees = lp_adverse = lp_capital = 0.0
    noise_volume_total = noise_fees_paid = ext_profit = 0.0
    usurps = depletions = no_trade = unmanaged_blocks = 0
    drift = max_resid = max_end_z = fee_sum = 0.0
    pnl = {"lp": 0.0, "external_arb": 0.0, "noise_traders": 0.0}
    z_carry = 0.0

    if block_log is not None:
        block_log.write(",".join(BLOCK_LOG_HEADER) + "\n")

    for b in range(horizon):
        rent_amount = 0.0
        manager = None  # whoever pays this block's rent manages this block
        for ev in auction.advance_block(Fraction(1)):
            if ev.kind == "usurped":
                usurps += 1
                auction.set_fee(ev.bidder, policy_fee)
            elif ev.kind == "depleted":
                depletions += 1
            elif ev.kind == "rent":
                rent_amount += float(ev.amount)
                manager = ev.bidder
        fee = auction.block_fee
        fee_sum += fee

        tau = float(taus[b])
        z = z_carry + float(zs[b])
        x, y = liquidity * math.exp(z / 2.0), liquidity * math.exp(-z / 2.0)
        start_value = x + y  # true price is 1

        excess = arb_fee = mgr_arb = 0.0
        trade = band_trade(x, y, z, fee)
        if trade is None:
            no_trade += 1
        else:
            new_x, new_y, arb_fee = trade
            excess = (x - new_x) + (y - new_y) - arb_fee
            x, y = new_x, new_y
        z_left = min(max(z, -fee), fee)  # the mispricing the trade leaves
        if manager is not None:
            correction = band_trade(x, y, z_left, 0.0)
            if correction is not None:
                new_x, new_y, _ = correction
                mgr_arb = (x - new_x) + (y - new_y)
                x, y = new_x, new_y
        else:
            unmanaged_blocks += 1

        adverse = start_value - (x + y)
        residual = mgr_arb + arb_fee + excess - adverse
        drift += residual
        max_resid = max(max_resid, abs(residual))
        if manager is not None:
            max_end_z = max(max_end_z, abs(math.log(x / y)))
            z_carry = 0.0
        else:
            z_carry = z_left

        noise_vol = market.noise_volume(fee, liquidity, params) * tau
        noise_fee = fee * noise_vol
        excess_frac[b] = excess / value_scale
        adverse_frac[b] = adverse / value_scale

        noise_volume_total += noise_vol
        noise_fees_paid += noise_fee
        ext_profit += excess
        lp_adverse += adverse
        lp_capital += params.r * value_scale * tau
        lp_rent += rent_amount
        pnl["lp"] += rent_amount - adverse
        pnl["external_arb"] += excess
        pnl["noise_traders"] -= noise_fee
        if manager is not None:
            mgr_noise += noise_fee
            mgr_arbfee += arb_fee
            mgr_arb_total += mgr_arb
            mgr_rent += rent_amount
            pnl[manager] = pnl.get(manager, 0.0) + noise_fee + arb_fee + mgr_arb - rent_amount
        else:
            lp_fees += noise_fee + arb_fee
            pnl["lp"] += noise_fee + arb_fee

        if block_log is not None:
            block_log.write(
                f"{b + 1},{tau!r},{z!r},{fee!r},{mgr_arb!r},{excess!r},"
                f"{noise_fee!r},{rent_amount!r}\n"
            )

    n = float(horizon)
    return SimReport(
        horizon_blocks=horizon,
        seed=config.seed,
        fee_effective_mean=fee_sum / n,
        ap0_hat=float(adverse_frac.mean()) / dt,
        ap0_se=float(adverse_frac.std(ddof=1)) / math.sqrt(n) / dt,
        ae0_hat=float(excess_frac.mean()) / dt,
        ae0_se=float(excess_frac.std(ddof=1)) / math.sqrt(n) / dt,
        manager_noise_fees=mgr_noise,
        manager_arb_fees=mgr_arbfee,
        manager_arb_profit=mgr_arb_total,
        manager_rent_paid=mgr_rent,
        lp_rent_received=lp_rent,
        lp_fee_revenue=lp_fees,
        lp_adverse_selection=lp_adverse,
        lp_capital_charge=lp_capital,
        noise_volume_total=noise_volume_total,
        noise_fees_paid=noise_fees_paid,
        external_arb_profit=ext_profit,
        usurps=usurps,
        depletions=depletions,
        no_trade_blocks=no_trade,
        unmanaged_blocks=unmanaged_blocks,
        accounting_drift=drift,
        max_block_residual=max_resid,
        max_end_mispricing=max_end_z,
        pnl_by_agent=pnl,
    )


def carry_scan_reference(eps, fee, managed, carry):
    """The band-clamped carry one block at a time, with ``min``/``max``:
    each block's pre-trade mispricing and the carry out of the last block.
    ``fee`` and ``managed`` hold one entry per block."""
    z = []
    for e, f, m in zip(eps.tolist(), fee.tolist(), managed.tolist()):
        zi = carry + e
        z.append(zi)
        carry = 0.0 if m else min(max(zi, -f), f)
    return np.array(z), carry


def block_log_rows(chunks) -> list[str]:
    """The block log, header included, of the chunks ``run_sim`` books,
    each ``(runs, columns)`` as ``_Books.book`` takes and returns them: one
    f-string of ``repr`` fields per block, as the log was written before it
    had a formatting kernel."""
    rows = [",".join(BLOCK_LOG_HEADER)]
    block = 1
    for runs, columns in chunks:
        lo = 0
        for run in runs:
            hi = lo + run.blocks
            for t, z, mgr, exc, nf in zip(*(c[lo:hi].tolist() for c in columns)):
                rows.append(f"{block},{t!r},{z!r},{run.fee!r},{mgr!r},{exc!r},{nf!r},{run.rent!r}")
                block += 1
            lo = hi
    return rows
