"""The segmented, vectorized ``run_sim`` against the per-block scalar reference.

Same config, same seed, 10^4 blocks (not a multiple of the chunk size):
integer counts must be equal, float aggregates equal to rel 1e-9, and the
per-block log equal column by column. The pool kernel evaluates exp/log with
numpy instead of libm, which may round differently in the last ulp, so:

* ``accounting_drift`` and ``max_block_residual`` are sums and maxima of
  rounding residuals, whose value is set by those last ulps; both runs must
  keep them at rounding size instead of agreeing with each other;
* the profit columns agree to 1e-14 of pool value;
* both carry the band clamp of the pre-trade mispricing, not a value
  re-derived from the reserves, so ``z`` agrees exactly, and so does
  ``no_trade_blocks`` with the count of ``|z| <= fee`` in the block log.

A Hypothesis test then draws configs of at most 8,196 blocks: horizons and
bid lives near the 4,096/8,192-block chunk edges, 0-2 bids, delays 1-8,
sigma 0 or 1e-17 to 0.1, default fees 0 to the cap, both manager and LP
policies, and liquidities over twelve decades. Its float bounds are in
pool-value units, as rounding sets them: a few ulps of the pool value ``2L``
per block, summed over the run, and the drift bound above scaled by ``2L``.
"""

import csv
import io
import math
import sys
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ammauction.market import MarketParams
from ammauction.sim import CHUNK_BLOCKS, BidSpec, SimConfig, _setup, run_sim

from conftest import REF
from sim_reference import reference_sim

HORIZON = 10_000
NOISE_FIELDS = ("accounting_drift", "max_block_residual")


def micro(n: int) -> float:
    return n / 1e6


def config(seed, **overrides) -> SimConfig:
    kwargs = dict(
        horizon_blocks=HORIZON,
        seed=seed,
        market=REF,
        manager_policy="fixed",
        manager_fee=0.003,
        initial_bids=(BidSpec("mgr", micro(1), micro(HORIZON + 10)),),
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


CONFIGS = {
    "fixed_fee": config(1),
    "optimal_policy": config(2, manager_policy="optimal", manager_fee=None),
    # the top's last block is the last of the second chunk; the runner-up
    # then manages to the end
    "top_to_runner_up": config(
        3,
        initial_bids=(
            BidSpec("short", micro(3), micro(3 * 2_048)),
            BidSpec("backup", micro(1), micro(HORIZON)),
        ),
    ),
    # the runner-up runs dry too: a long unmanaged tail at the default fee,
    # where the mispricing carries over and arbitrageurs trade to the band
    "unmanaged_tail": config(
        4,
        default_fee=0.01,
        initial_bids=(
            BidSpec("short", micro(3), micro(3 * 1_500)),
            BidSpec("backup", micro(1), micro(1_000)),
        ),
    ),
    "zero_profit_lps": config(
        5,
        lp_policy="zero_profit",
        initial_bids=(BidSpec("mgr", micro(100), micro(100 * (HORIZON + 10))),),
    ),
    "no_price_motion": config(
        6,
        market=MarketParams(sigma=0.0, delta_t=0.01, r=1e-4, f_max=0.05),
        manager_fee=0.01,
    ),
}


# (usurps, depletions, unmanaged blocks) where not (0, 0, 0): the configs
# reach the segments they are named for
EVENTS = {"top_to_runner_up": (1, 1, 0), "unmanaged_tail": (1, 2, HORIZON - 2_500)}


def run_both(cfg):
    fast_log, ref_log = io.StringIO(), io.StringIO()
    fast = run_sim(cfg, block_log=fast_log)
    ref = reference_sim(cfg, block_log=ref_log)
    return fast, ref, columns(fast_log), columns(ref_log)


def columns(log: io.StringIO) -> dict[str, list[str]]:
    rows = list(csv.reader(log.getvalue().splitlines()))
    return dict(zip(rows[0], zip(*rows[1:])))


def assert_matches_reference(cfg, abs_bound=lambda field: 0.0, noise_bound=1e-12):
    """Run ``cfg`` both ways and compare: integer counts and the block log's
    exact columns equal, float fields to rel 1e-9 or ``abs_bound(field)``,
    rounding-noise fields under ``noise_bound`` on both sides, and the
    profit and mispricing columns to the bounds above. Returns the report."""
    fast, ref, fast_cols, ref_cols = run_both(cfg)
    for field in fast.__dataclass_fields__:
        got, want = getattr(fast, field), getattr(ref, field)
        if field == "pnl_by_agent":
            assert got.keys() == want.keys()
            bound = abs_bound(field)
            for agent in want:
                assert got[agent] == pytest.approx(want[agent], rel=1e-9, abs=bound), agent
        elif isinstance(want, int):
            assert got == want, field
        elif field in NOISE_FIELDS:
            assert abs(got) <= noise_bound and abs(want) <= noise_bound, (field, got, want)
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=abs_bound(field)), field

    assert fast_cols.keys() == ref_cols.keys()
    for col in ("block", "tau", "z", "fee", "noise_fees", "rent"):
        assert fast_cols[col] == ref_cols[col], col
    # a block trades exactly when its pre-trade mispricing leaves the band
    inside = sum(abs(float(z)) <= float(f) for z, f in zip(fast_cols["z"], fast_cols["fee"]))
    assert fast.no_trade_blocks == inside
    value = 2.0 * _setup(cfg)[1]  # pool value at the rebased price
    for col, tol in (("arb_profit", 1e-14 * value), ("excess", 1e-14 * value)):
        worst = max(abs(float(a) - float(b)) for a, b in zip(fast_cols[col], ref_cols[col]))
        assert worst <= tol, (col, worst)
    return fast


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_segmented_sim_matches_scalar_reference(name):
    fast = assert_matches_reference(CONFIGS[name])
    assert (fast.usurps, fast.depletions, fast.unmanaged_blocks) == EVENTS.get(name, (0, 0, 0))


# rounding allowed per block, in ulps of the pool value
ULPS = 4
EPS = sys.float_info.epsilon
RATE_FIELDS = ("ap0_hat", "ae0_hat", "ap0_se", "ae0_se")

# block heights at and around the first two chunk edges
NEAR_EDGE = st.builds(
    int.__add__, st.sampled_from([CHUNK_BLOCKS, 2 * CHUNK_BLOCKS]), st.integers(-4, 4)
)
BLOCKS = st.one_of(NEAR_EDGE, st.integers(2, 4_500))
SIGMAS = st.one_of(
    st.just(0.0), st.floats(1e-3, 0.1), st.floats(-17.0, -1.0).map(lambda e: 10.0**e)
)


@st.composite
def fuzz_configs(draw) -> SimConfig:
    """A config of at most 8,196 blocks whose bids run dry near the edges:
    the top at its end block, then the runner-up at the next."""
    k_delay = draw(st.integers(1, 8))
    ends = sorted(draw(st.lists(BLOCKS, max_size=2)))
    lives = [max(end - start, k_delay) for start, end in zip([0] + ends, ends)]
    rents = (draw(st.integers(2, 6)), 1)  # the top pays more
    bids = tuple(
        BidSpec(name, micro(rent), micro(rent * life))
        for name, rent, life in zip(("top", "runner_up"), rents, lives)
    )
    policy = draw(st.sampled_from(["fixed", "optimal"]))
    fees = st.floats(0.0, REF.f_max)
    return SimConfig(
        horizon_blocks=draw(BLOCKS),
        seed=draw(st.integers(0, 2**32 - 1)),
        market=replace(REF, sigma=draw(SIGMAS)),
        k_delay=k_delay,
        default_fee=draw(fees),
        manager_policy=policy,
        manager_fee=draw(st.one_of(st.none(), fees)) if policy == "fixed" else None,
        lp_policy=draw(st.sampled_from(["static", "zero_profit"])) if bids else "static",
        initial_liquidity=draw(st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
        initial_bids=bids,
    )


def abs_bound(field: str, cfg: SimConfig, value: float) -> float:
    """:data:`ULPS` ulps of the pool value ``value`` per block, summed over
    the run, in the units of ``field``: a rate is a mean per unit value and
    time, and its standard error that mean's spread over root-n."""
    blocks = cfg.horizon_blocks
    if field in ("fee_effective_mean", "max_end_mispricing"):  # not in units of value
        return 0.0
    if field in RATE_FIELDS:
        bound = ULPS * EPS / cfg.market.delta_t
        return bound / math.sqrt(blocks) if field.endswith("_se") else bound
    return ULPS * EPS * value * blocks


@settings(
    max_examples=25, deadline=timedelta(seconds=5), suppress_health_check=[HealthCheck.too_slow]
)
@given(fuzz_configs())
def test_fuzzed_configs_match_scalar_reference(cfg):
    value = 2.0 * _setup(cfg)[1]
    assert_matches_reference(cfg, lambda field: abs_bound(field, cfg, value), 1e-12 * value)


@pytest.mark.parametrize("managed", [False, True], ids=["unmanaged", "managed"])
@pytest.mark.parametrize("sigma", [4e-16, 1e-15, 4e-15])
def test_zero_fee_trades_every_nonzero_mispricing(sigma, managed):
    # a mispricing of about 1e-17 rounds away in the reserves built from it,
    # but it is outside the band |z| <= 0, so the block trades: no drawn
    # increment is exactly 0 here, so no block goes without a trade
    bids = config(0).initial_bids if managed else ()
    cfg = config(
        0,
        horizon_blocks=1_024,
        market=replace(REF, sigma=sigma),
        default_fee=0.0,
        manager_fee=0.0,
        initial_bids=bids,
    )
    # every profit here is rounding-sized, so the fuzz's bounds apply
    value = 2.0 * _setup(cfg)[1]
    fast = assert_matches_reference(cfg, lambda field: abs_bound(field, cfg, value), 1e-12 * value)
    assert fast.no_trade_blocks == 0
    assert fast.unmanaged_blocks == (0 if managed else 1_024)
