"""The segmented, vectorized ``run_sim`` against the per-block scalar reference.

Same config, same seed, 10^4 blocks (not a multiple of the chunk size):
integer counts must be equal, float aggregates equal to rel 1e-9, and the
per-block log equal column by column. The pool kernel evaluates exp/log with
numpy instead of libm, which may round differently in the last ulp, so:

* ``accounting_drift`` and ``max_block_residual`` are sums and maxima of
  rounding residuals, whose value is set by those last ulps; both runs must
  keep them at rounding size instead of agreeing with each other;
* the profit columns agree to 1e-14 of pool value;
* an unmanaged pool's carried mispricing is the exact band clamp here, but
  the reference re-derives it from the reserves every block, one more
  rounding per block that random-walks over a stretch without trades, so
  ``z`` agrees to 1e-12.
"""

import csv
import io

import pytest

from ammauction.market import MarketParams
from ammauction.sim import BidSpec, SimConfig, _setup, run_sim

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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_segmented_sim_matches_scalar_reference(name):
    cfg = CONFIGS[name]
    fast, ref, fast_cols, ref_cols = run_both(cfg)
    assert (fast.usurps, fast.depletions, fast.unmanaged_blocks) == EVENTS.get(name, (0, 0, 0))

    for field in fast.__dataclass_fields__:
        got, want = getattr(fast, field), getattr(ref, field)
        if field == "pnl_by_agent":
            assert got.keys() == want.keys()
            for agent in want:
                assert got[agent] == pytest.approx(want[agent], rel=1e-9, abs=0.0), agent
        elif isinstance(want, int):
            assert got == want, field
        elif field in NOISE_FIELDS:
            assert abs(got) <= 1e-12 and abs(want) <= 1e-12, (field, got, want)
        else:
            assert got == pytest.approx(want, rel=1e-9, abs=0.0), field

    assert fast_cols.keys() == ref_cols.keys()
    for col in ("block", "tau", "fee", "noise_fees", "rent"):
        assert fast_cols[col] == ref_cols[col], col
    value = 2.0 * _setup(cfg)[1]  # pool value at the rebased price
    for col, tol in (("arb_profit", 1e-14 * value), ("excess", 1e-14 * value), ("z", 1e-12)):
        worst = max(abs(float(a) - float(b)) for a, b in zip(fast_cols[col], ref_cols[col]))
        assert worst <= tol, (col, worst)
