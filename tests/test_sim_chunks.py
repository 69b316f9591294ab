"""The per-run and per-chunk work of ``run_sim`` against per-block and
per-chunk references, bit for bit.

``run_sim`` scans the carried mispricing once per run, merges its moments
one 4,096-block chunk at a time, and formats its block log in batches of
512 rows, each run's fee and rent once.
None of that may move a bit: the references below are the per-block clamp
and the pairwise merge written out, and the pinned case crosses chunk edges
with a depletion and an unmanaged carry.
"""

import hashlib
import io
import math
from collections import Counter

import numpy as np
import pytest

from ammauction.market import MarketParams, _Moments
from ammauction.sim import (
    BATCH_ROWS,
    CHUNK_BLOCKS,
    BidSpec,
    SimConfig,
    _advance_auction,
    _Books,
    _carry_scan,
    _Run,
    _setup,
    run_sim,
)

from conftest import REF
from sim_reference import block_log_rows, carry_scan_reference

SPECIAL_DRAWS = (0.0, -0.0, math.nan, 1.0, -1.0)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def random_runs(rng: np.random.Generator, blocks: int) -> list[_Run]:
    """Runs of random lengths, managed or not, at fee 0, the cap or between."""
    runs = []
    while blocks:
        n = min(blocks, int(rng.integers(1, 40)))
        fee = float(rng.choice([0.0, 0.003, 0.05, rng.uniform(0.0, 0.05)]))
        payer = "m" if rng.random() < 0.4 else None
        runs.append(_Run(n, fee, 1e-6 if payer else 0.0, payer))
        blocks -= n
    return runs


def random_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normal increments at the band's scale, with zeros of both signs and NaNs."""
    eps = rng.normal(0.0, 0.01, n)
    special = rng.random(n) < 0.1
    eps[special] = rng.choice(SPECIAL_DRAWS, int(special.sum()))
    return eps


def split_runs(runs: list[_Run], edges: list[int]) -> list[list[_Run]]:
    """``runs`` cut into chunks at the block offsets ``edges``."""
    chunks, chunk, pos = [], [], 0
    cuts = iter(sorted(edges) + [math.inf])
    cut = next(cuts)
    for run in runs:
        left = run.blocks
        while left:
            while cut <= pos:
                chunks.append(chunk)
                chunk, cut = [], next(cuts)
            take = int(min(left, cut - pos))
            chunk.append(_Run(take, run.fee, run.rent, run.payer))
            left -= take
            pos += take
    chunks.append(chunk)
    return [c for c in chunks if c]


class TestCarryScan:
    @pytest.mark.parametrize("seed", range(40))
    def test_per_run_scan_has_the_per_block_bits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        runs = random_runs(rng, n)
        eps = random_draws(rng, n)
        carry_in = float(rng.choice([0.0, -0.0, 0.02, -0.07, math.nan]))
        fee = np.repeat([r.fee for r in runs], [r.blocks for r in runs])
        managed = np.repeat([r.payer is not None for r in runs], [r.blocks for r in runs])
        want_z, want_carry = carry_scan_reference(eps, fee, managed, carry_in)

        # chunk by chunk, the carry crossing each chunk edge
        edges = sorted(set(rng.integers(1, n + 1, int(rng.integers(0, 5))).tolist()))
        carry, parts, lo = carry_in, [], 0
        for chunk in split_runs(runs, edges):
            hi = lo + sum(r.blocks for r in chunk)
            z, carry = _carry_scan(eps[lo:hi], chunk, carry)
            parts.append(z)
            lo = hi
        assert bits(np.concatenate(parts)) == bits(want_z)
        assert bits(carry) == bits(want_carry)

    @pytest.mark.parametrize("e", SPECIAL_DRAWS)
    @pytest.mark.parametrize("carry_in", [0.0, -0.0, 0.5, -0.5])
    def test_fee_zero_clamp_keeps_signed_zeros_and_nan(self, e, carry_in):
        # an unmanaged block at fee 0, then a managed one, then an unmanaged one
        runs = [_Run(1, 0.0, 0.0, None), _Run(1, 0.0, 1e-6, "m"), _Run(2, 0.0, 0.0, None)]
        eps = np.array([e, e, e, -e])
        managed = np.array([False, True, False, False])
        want = carry_scan_reference(eps, np.zeros(4), managed, carry_in)
        got = _carry_scan(eps, runs, carry_in)
        assert bits(got[0]) == bits(want[0])
        assert bits(got[1]) == bits(want[1])


class TestRows:
    # the top depletes at block 700 and the runner-up takes over (a usurp),
    # then depletes at 2,000 with nobody behind it, leaving the pool unmanaged
    EVENTS = SimConfig(
        horizon_blocks=CHUNK_BLOCKS,
        seed=0,
        market=REF,
        manager_fee=0.003,
        default_fee=0.01,
        initial_bids=(BidSpec("short", 3e-6, 0.0021), BidSpec("backup", 1e-6, 0.0013)),
    )

    @pytest.mark.parametrize("blocks", [1, 1023, 1024, 1025, 3 * 1024 + 7, CHUNK_BLOCKS])
    def test_runs_cut_at_row_edges(self, blocks):
        auction, _, policy_fee = _setup(self.EVENTS)
        counts = Counter()
        runs = _advance_auction(auction, blocks, policy_fee, counts)
        assert all(run.blocks > 0 for run in runs)
        assert sum(run.blocks for run in runs) == blocks == auction.current_block

        # the same auction single-stepped, as the scalar reference runs it
        auction, _, _ = _setup(self.EVENTS)
        want, want_counts = [], Counter()
        for _ in range(blocks):
            rent, payer = 0.0, None
            for ev in auction.advance_block():
                if ev.kind == "usurped":
                    want_counts["usurps"] += 1
                    auction.set_fee(ev.bidder, policy_fee)
                elif ev.kind == "depleted":
                    want_counts["depletions"] += 1
                elif ev.kind == "rent":
                    rent, payer = float(ev.amount), ev.bidder
            want.append((auction.block_fee, rent, payer))
        assert [(r.fee, r.rent, r.payer) for r in runs for _ in range(r.blocks)] == want
        assert +counts == want_counts
        if blocks > 2000:
            assert want_counts == Counter(usurps=1, depletions=2)

    # a row is one 4,096-block chunk, the simulator's summation block: short
    # chunks, one whole chunk, and three whole chunks and a short one. Each
    # summed field is one plain ``.sum()`` per chunk, pinned by
    # TestPinnedAcrossWorkChunks; the moments are checked here.
    @pytest.mark.parametrize(
        "n", [5, 1024, 2048, 3 * 1024 + 5, CHUNK_BLOCKS, 3 * CHUNK_BLOCKS + 5]
    )
    def test_row_sums_and_moments_have_one_row_at_a_time_bits(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 8, n)
        moments = _Moments()
        n_seen, mean, m2 = 0, 0.0, 0.0
        for lo in range(0, n, CHUNK_BLOCKS):
            chunk = x[lo : lo + CHUNK_BLOCKS]
            moments.add(chunk.copy())  # add consumes its chunk
            # the pairwise merge of Chan, Golub and LeVeque, written out
            mean_x = float(chunk.mean())
            m2_x = float(np.square(chunk - mean_x).sum())
            total = n_seen + chunk.size
            delta = mean_x - mean
            mean += delta * chunk.size / total
            m2 += m2_x + delta * delta * n_seen * chunk.size / total
            n_seen = total
        assert (moments.n, bits(moments.mean), bits(moments.m2)) == (n, bits(mean), bits(m2))
        assert moments.mean == pytest.approx(x.mean(), rel=1e-12)
        assert moments.std() == pytest.approx(x.std(ddof=1), rel=1e-12)


class TestPinnedAcrossWorkChunks:
    # 24,581 blocks, six 4,096-block chunks and a 5-block one: the top
    # depletes at 10,000 and the runner-up at 15,000, each inside a chunk;
    # the unmanaged carry then crosses the chunk edges at 16,384, 20,480 and
    # 24,576. Taken on the two-stream draws of market.block_rng.
    CONFIG = SimConfig(
        horizon_blocks=3 * 8192 + 5,
        seed=13,
        market=REF,
        manager_fee=0.003,
        default_fee=0.01,
        initial_bids=(BidSpec("short", 3e-6, 0.03), BidSpec("backup", 1e-6, 0.005)),
    )
    FLOATS = {
        "fee_effective_mean": "0x1.776abd88b03dcp-8",
        "ap0_hat": "0x1.4a5fab5dd609cp-12",
        "ap0_se": "0x1.50112b9717c9ap-18",
        "ae0_hat": "0x1.d9df426a2b3dap-14",
        "ae0_se": "0x1.697059d4b6733p-19",
        "manager_noise_fees": "0x1.fd79c9c82a7f4p+2",
        "manager_arb_fees": "0x1.1711d948e3d49p-5",
        "manager_arb_profit": "0x1.3e7c9f543e900p-6",
        "manager_rent_paid": "0x1.1eb851eb851eap-5",
        "lp_rent_received": "0x1.1eb851eb851eap-5",
        "lp_fee_revenue": "0x1.cf4581b8b3998p+2",
        "lp_adverse_selection": "0x1.3d39294b9c688p-3",
        "lp_capital_charge": "0x1.95c3527de3688p-5",
        "noise_volume_total": "0x1.a5997dae20f64p+11",
        "noise_fees_paid": "0x1.e4e813c4e1f2ep+3",
        "external_arb_profit": "0x1.c70280ae5ce65p-5",
        "accounting_drift": "0x1.f980000000000p-43",
        "max_block_residual": "0x1.0000000000000p-51",
        "max_end_mispricing": "0x0.0p+0",
    }
    PNL = {
        "backup": "0x1.56ebf79b30a0dp+1",
        "external_arb": "0x1.c70280ae5ce65p-5",
        "lp": "0x1.c79929122dc08p+2",
        "noise_traders": "-0x1.e4e813c4e1f2ep+3",
        "short": "0x1.5332fda8a12adp+2",
    }
    COUNTS = (24_581, 13, 1, 2, 15_592, 9_581)
    BLOCKS_SHA256 = "3baabea91ba6c5857261a66181906f2085d110269f88aaddfd14291c88c5a180"

    def test_pinned_output(self):
        log = io.StringIO()
        report = run_sim(self.CONFIG, block_log=log)
        counts = (report.horizon_blocks, report.seed, report.usurps, report.depletions,
                  report.no_trade_blocks, report.unmanaged_blocks)
        assert counts == self.COUNTS
        floats = {k: v.hex() for k, v in report.to_dict().items() if isinstance(v, float)}
        assert floats == self.FLOATS
        assert {k: v.hex() for k, v in report.pnl_by_agent.items()} == self.PNL
        assert hashlib.sha256(log.getvalue().encode()).hexdigest() == self.BLOCKS_SHA256

    def test_block_log_does_not_change_the_report(self):
        # simulate writes the log only with --out; the report must not care
        def hexed(report):
            out = report.to_dict()
            out["pnl_by_agent"] = {k: v.hex() for k, v in out["pnl_by_agent"].items()}
            return {k: v.hex() if isinstance(v, float) else v for k, v in out.items()}

        logged = run_sim(self.CONFIG, block_log=io.StringIO())
        assert hexed(run_sim(self.CONFIG)) == hexed(logged)


class TestIntegerFees:
    def test_log_prints_integer_fees_as_floats(self):
        # JSON hands over 0 and 1 as integers; the log's fee column is the
        # float's repr either way, whatever runs share a chunk
        params = dict(sigma=0.05, delta_t=0.01, r=1e-4, c0=25.0, c1=120.0, alpha=0.5)
        logs = []
        for f_max, default_fee, manager_fee in ((1, 0, 0), (1.0, 0.0, 0.0)):
            config = SimConfig(
                horizon_blocks=2_100,
                seed=3,
                market=MarketParams(f_max=f_max, **params),
                default_fee=default_fee,
                manager_fee=manager_fee,
                initial_bids=(BidSpec("m", 1e-6, 0.001),),  # manages 1,000 blocks
            )
            logs.append(io.StringIO())
            run_sim(config, block_log=logs[-1])
        assert logs[0].getvalue() == logs[1].getvalue()
        fees = {line.split(",")[3] for line in logs[0].getvalue().splitlines()[1:]}
        assert fees == {"0.0"}


class TestBlockLogBatches:
    """The block log against one f-string of ``repr`` fields per block, made
    from the very columns ``run_sim`` books, where the 512-row batches cut
    runs and chunks."""

    CONFIGS = {
        # "a" manages blocks 1-512 and ends on a batch edge, "b" manages
        # 513-1,112 across one; each starts and ends with a one-block run,
        # and the unmanaged rest crosses the chunk edge
        "edges": SimConfig(
            horizon_blocks=CHUNK_BLOCKS + 700,
            seed=5,
            market=REF,
            k_delay=1,
            manager_fee=0.003,
            default_fee=0.01,
            initial_bids=(BidSpec("a", 1e-6, 512e-6), BidSpec("b", 1e-7, 6e-05)),
        ),
        # one-block runs whose rents print 0.0, 0.1 and 17 digits
        "one-block": SimConfig(
            horizon_blocks=10,
            seed=5,
            market=REF,
            k_delay=1,
            manager_fee=0.003,
            initial_bids=(BidSpec("a", 0.30000000000000004, 0.30000000000000004),
                          BidSpec("b", 0.1, 0.1)),
        ),
        "horizon-2": SimConfig(
            horizon_blocks=2, seed=5, market=REF, initial_bids=(BidSpec("a", 1e-6, 1e-5),)
        ),
        "one-batch": SimConfig(horizon_blocks=BATCH_ROWS, seed=6, market=REF),
        "one-batch-and-a-row": SimConfig(horizon_blocks=BATCH_ROWS + 1, seed=6, market=REF),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_rows_are_the_repr_rows(self, name, monkeypatch):
        chunks = []
        book = _Books.book

        def booked(books, runs, rng):
            columns = book(books, runs, rng)
            chunks.append((runs, columns))
            return columns

        monkeypatch.setattr(_Books, "book", booked)
        log = io.StringIO()
        run_sim(self.CONFIGS[name], block_log=log)
        assert log.getvalue().splitlines() == block_log_rows(chunks)
        assert log.getvalue().endswith("\n")
        if name == "edges":
            ends = np.cumsum([run.blocks for runs, _ in chunks for run in runs]).tolist()
            assert BATCH_ROWS in ends  # a run ends on a batch edge
            assert any(lo < 2 * BATCH_ROWS < hi for lo, hi in zip(ends, ends[1:]))  # one crosses
            assert len(chunks) == 2
        if name == "one-block":
            rents = [run.rent for run in chunks[0][0]]
            assert rents == [0.30000000000000004, 0.1, 0.0]
