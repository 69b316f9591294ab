import hashlib
import io
import math
import pathlib
import statistics

import numpy as np
import pytest

from ammauction import market
from ammauction.market import MarketParams
from ammauction.pool import withdrawal_fee_required
from ammauction.replay import ReplayParseError, replay_auction
from ammauction.sim import (
    LIQUIDITY_RANGE,
    BidSpec,
    ConfigError,
    SimConfig,
    _abs_max,
    run_sim,
    run_strategic_withdrawal_attack,
)

from conftest import REF

DATA = pathlib.Path(__file__).parent / "data"


def micro(n: int) -> float:
    # n micro-units as a decimal-clean float: deposits must be exact decimal
    # multiples of the rent, so avoid float products like 1e-6 * n
    return n / 1e6


def managed_config(horizon=10_000, fee=0.003, seed=11, **overrides) -> SimConfig:
    defaults = dict(
        horizon_blocks=horizon,
        seed=seed,
        market=REF,
        manager_policy="fixed",
        manager_fee=fee,
        initial_bids=(BidSpec("mgr", micro(1), micro(horizon + 10)),),
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestConfig:
    def test_round_trip(self):
        config = managed_config(horizon=100)
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_schema_version_required(self):
        raw = managed_config(horizon=100).to_dict()
        raw["schema_version"] = 2
        with pytest.raises(ConfigError, match="schema_version"):
            SimConfig.from_dict(raw)

    def test_unknown_keys_rejected(self):
        raw = managed_config(horizon=100).to_dict()
        raw["horizont"] = 5
        with pytest.raises(ConfigError, match="unknown"):
            SimConfig.from_dict(raw)

    @pytest.mark.parametrize("value", [True, math.nan, "0.05"])
    @pytest.mark.parametrize(
        "name",
        ["horizon_blocks", "seed", "k_delay", "min_increment_factor", "default_fee",
         "withdrawal_fee", "manager_fee", "initial_liquidity"],
    )
    def test_numeric_fields_checked_when_built(self, name, value):
        # built in Python, a config is checked as one read from JSON
        with pytest.raises(ConfigError, match=f"^{name} must be a"):
            managed_config(horizon=10, **{name: value})

    @pytest.mark.parametrize("value", [True, math.nan, "0.05"])
    @pytest.mark.parametrize("name", ["rent", "deposit"])
    def test_bid_fields_checked_when_built(self, name, value):
        fields = {"bidder": "mgr", "rent": micro(1), "deposit": micro(10), name: value}
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            BidSpec(**fields)

    def test_fee_cap_enforced(self):
        with pytest.raises(ConfigError):
            managed_config(fee=REF.f_max + 0.001)

    def test_liquidity_range_ends_accepted(self):
        for liquidity in LIQUIDITY_RANGE:
            config = managed_config(horizon=10, initial_liquidity=liquidity)
            assert config.lp_liquidity() == liquidity

    @pytest.mark.parametrize("liquidity", [1e-320, 1e-151, 1e151, 1e308])
    def test_liquidity_out_of_range_rejected(self, liquidity):
        with pytest.raises(ConfigError, match="initial_liquidity must lie in"):
            managed_config(horizon=10, initial_liquidity=liquidity)

    @pytest.mark.parametrize("rent", [1e-300, 1e150])
    def test_zero_profit_liquidity_out_of_range_rejected(self, rent):
        with pytest.raises(ConfigError, match="zero_profit liquidity must lie in"):
            managed_config(
                horizon=10, lp_policy="zero_profit", initial_bids=(BidSpec("mgr", rent, 5 * rent),)
            )


class TestAbsMax:
    def test_largest_magnitude(self):
        assert _abs_max(0.0, np.array([1e-16, -3e-16, 2e-16])) == 3e-16
        assert _abs_max(1.0, np.array([0.5, -0.25])) == 1.0

    def test_nan_residual_propagates(self):
        # the built-in max(0.0, nan) is 0.0: an overflowing block would vanish
        assert math.isnan(_abs_max(0.0, np.array([1e-16, math.nan, 2e-16])))
        assert math.isnan(_abs_max(math.nan, np.array([1.0])))


class TestRunSim:
    def test_accounting_identity_closes(self):
        report = run_sim(managed_config(horizon=10_000))
        assert report.max_block_residual <= 1e-12
        assert abs(report.accounting_drift) <= 1e-10
        assert report.max_end_mispricing <= 1e-12
        assert report.unmanaged_blocks == 0

    def test_rate_estimates_match_closed_forms(self):
        report = run_sim(managed_config(horizon=60_000, fee=0.003))
        # the pool's adverse selection runs at the zero-fee rate because the
        # manager corrects for free; outsiders only capture past the band
        assert abs(report.ap0_hat - market.ap0(0.0, REF)) <= 3.0 * report.ap0_se
        assert abs(report.ae0_hat - market.ae0(0.003, REF)) <= 3.0 * report.ae0_se

    def test_zero_fee_policy_equalizes_estimators(self):
        report = run_sim(managed_config(horizon=60_000, fee=0.0))
        spread = math.hypot(report.ap0_se, report.ae0_se)
        assert abs(report.ap0_hat - report.ae0_hat) <= 3.0 * spread
        assert report.manager_arb_profit == 0.0  # outsiders correct fully at f=0

    def test_no_price_motion_leaves_only_fees_and_rent(self):
        params = MarketParams(sigma=0.0, delta_t=0.01, r=1e-4, f_max=0.05)
        config = managed_config(horizon=2_000, market=params, fee=0.01)
        report = run_sim(config)
        assert report.ap0_hat == 0.0
        assert report.ae0_hat == 0.0
        assert report.manager_arb_profit == 0.0
        assert report.external_arb_profit == 0.0
        assert report.no_trade_blocks == config.horizon_blocks
        assert report.manager_noise_fees > 0.0
        assert report.lp_rent_received > 0.0

    def test_deterministic_reports_and_logs(self):
        config = managed_config(horizon=3_000)
        log_a, log_b = io.StringIO(), io.StringIO()
        report_a = run_sim(config, block_log=log_a)
        report_b = run_sim(config, block_log=log_b)
        assert report_a.to_dict() == report_b.to_dict()
        assert log_a.getvalue() == log_b.getvalue()

    def test_standard_errors_shrink_like_sqrt_horizon(self):
        small = run_sim(managed_config(horizon=10_000))
        large = run_sim(managed_config(horizon=100_000))
        for attr in ("ap0_se", "ae0_se"):
            ratio = getattr(small, attr) / getattr(large, attr)
            assert math.sqrt(10.0) / 1.5 <= ratio <= math.sqrt(10.0) * 1.5

    def test_depletion_promotes_second_bid(self):
        config = managed_config(
            horizon=1_000,
            initial_bids=(
                BidSpec("short", micro(3), micro(3 * 400)),
                BidSpec("backup", micro(1), micro(2_000)),
            ),
        )
        report = run_sim(config)
        assert report.depletions == 1
        assert report.usurps == 1
        assert report.unmanaged_blocks == 0
        assert "short" in report.pnl_by_agent and "backup" in report.pnl_by_agent

    def test_unmanaged_tail_reverts_to_default_fee(self):
        config = managed_config(
            horizon=2_000,
            fee=0.003,
            default_fee=0.04,
            initial_bids=(BidSpec("mgr", micro(1), micro(500)),),
        )
        report = run_sim(config)
        assert report.depletions == 1
        assert report.unmanaged_blocks == 1_500
        assert report.max_block_residual <= 1e-12  # identity holds either way
        assert report.lp_fee_revenue > 0.0  # unmanaged fees route to LPs
        expected_mean = (500 * 0.003 + 1_500 * 0.04) / 2_000
        assert report.fee_effective_mean == pytest.approx(expected_mean, rel=1e-12)

    def test_zero_profit_lp_policy_breaks_even(self):
        config = managed_config(
            horizon=50_000,
            fee=0.003,
            lp_policy="zero_profit",
            initial_bids=(BidSpec("mgr", micro(100), micro(100 * 60_000)),),
        )
        report = run_sim(config)
        horizon_days = config.horizon_blocks * REF.delta_t
        pnl_rate = (
            report.lp_rent_received - report.lp_adverse_selection - report.lp_capital_charge
        ) / horizon_days
        # zero in expectation; the adverse-selection noise sets the scale
        scale = report.lp_adverse_selection / horizon_days
        assert abs(pnl_rate) <= 0.05 * scale

    @pytest.mark.parametrize("fee", [0.003, 0.01, 0.03])
    def test_unmanaged_pool_trades_in_one_over_one_plus_kappa_of_blocks(self, fee):
        # the stationary law of arXiv 2305.14604: with nobody correcting the
        # pool, arbitrageurs trade in a fraction 1/(1 + kappa) of blocks.
        # Unmanaged blocks are autocorrelated, so the standard error comes
        # from the spread of 16 independent runs, not from the blocks
        horizon = 12_500
        fractions = [
            1.0 - run_sim(SimConfig(horizon, seed, REF, default_fee=fee)).no_trade_blocks / horizon
            for seed in range(16)
        ]
        mean = statistics.fmean(fractions)
        se = statistics.stdev(fractions) / math.sqrt(len(fractions))
        assert abs(mean - 1.0 / (1.0 + market.kappa(fee, REF))) <= 3.0 * se

    def test_optimal_policy_uses_profit_maximizing_fee(self):
        from ammauction.equilibrium import manager_optimal_fee

        config = managed_config(horizon=200, manager_policy="optimal", manager_fee=None)
        report = run_sim(config)
        assert report.fee_effective_mean == pytest.approx(
            manager_optimal_fee(config.initial_liquidity, REF), rel=1e-12
        )


    # exact bits of every report field and a hash of the block log; a change to
    # the draws, the kernel, the sum order or the auction clock shows here
    PINNED = {
        "managed": (
            managed_config(horizon=3_000),
            {
                "floats": {
                    "fee_effective_mean": "0x1.89374bc6a7efap-9",
                    "ap0_hat": "0x1.5d4351bbbb000p-12",
                    "ap0_se": "0x1.e7824dc8ed689p-17",
                    "ae0_hat": "0x1.3a4189792819bp-13",
                    "ae0_se": "0x1.5b3d98ef09609p-17",
                    "manager_noise_fees": "0x1.9dbb5855b56d8p+0",
                    "manager_arb_fees": "0x1.ce0ac41b1e37cp-8",
                    "manager_arb_profit": "0x1.0276cca1b3200p-8",
                    "manager_rent_paid": "0x1.89374bc6a7efap-9",
                    "lp_rent_received": "0x1.89374bc6a7efap-9",
                    "lp_fee_revenue": "0x0.0p+0",
                    "lp_adverse_selection": "0x1.476f1c9fff500p-6",
                    "lp_capital_charge": "0x1.94d4b477f6d06p-8",
                    "noise_volume_total": "0x1.0d5b4d8277734p+9",
                    "noise_fees_paid": "0x1.9dbb5855b56d8p+0",
                    "external_arb_profit": "0x1.269d70e195982p-7",
                    "accounting_drift": "-0x1.7000000000000p-49",
                    "max_block_residual": "0x1.0000000000000p-52",
                    "max_end_mispricing": "0x0.0p+0",
                },
                "pnl_by_agent": {
                    "external_arb": "0x1.269d70e195982p-7",
                    "lp": "-0x1.164833272a522p-6",
                    "mgr": "0x1.9fc73e408eeaep+0",
                    "noise_traders": "-0x1.9dbb5855b56d8p+0",
                },
                "counts": (3_000, 11, 0, 0, 1_692, 0),
                "blocks_sha256": "1fb1480630f34ec2898646ef358aa87ef9691fad45c01d1a11d7a2c5656a0421",
            },
        ),
        # the top depletes at 700, the runner-up at 1,600, unmanaged after
        "depleting": (
            managed_config(
                horizon=3_000,
                seed=12,
                default_fee=0.01,
                initial_bids=(
                    BidSpec("short", micro(3), micro(3 * 700)),
                    BidSpec("backup", micro(1), micro(900)),
                ),
            ),
            {
                "floats": {
                    "fee_effective_mean": "0x1.9ab138636571bp-8",
                    "ap0_hat": "0x1.4801357cd6800p-12",
                    "ap0_se": "0x1.f9b7a2f4257bdp-17",
                    "ae0_hat": "0x1.d78fcd6735a60p-14",
                    "ae0_se": "0x1.1f7aab78a6dc1p-17",
                    "manager_noise_fees": "0x1.abe1bcb3c80d5p-1",
                    "manager_arb_fees": "0x1.ee826898d0888p-9",
                    "manager_arb_profit": "0x1.13fd4b7128500p-9",
                    "manager_rent_paid": "0x1.89374bc6a7efap-9",
                    "lp_rent_received": "0x1.89374bc6a7efap-9",
                    "lp_fee_revenue": "0x1.0db98bd87402ap+0",
                    "lp_adverse_selection": "0x1.3381222509180p-6",
                    "lp_capital_charge": "0x1.87abb3ee69800p-8",
                    "noise_volume_total": "0x1.7f50d03ae1814p+8",
                    "noise_fees_paid": "0x1.e217bc54599aep+0",
                    "external_arb_profit": "0x1.ba16d090c24bap-8",
                    "accounting_drift": "0x1.1700000000000p-45",
                    "max_block_residual": "0x1.0000000000000p-51",
                    "max_end_mispricing": "0x0.0p+0",
                },
                "pnl_by_agent": {
                    "backup": "0x1.ed34d64c255b6p-2",
                    "external_arb": "0x1.ba16d090c24bap-8",
                    "lp": "0x1.09b022f5c3323p+0",
                    "noise_traders": "-0x1.e217bc54599aep+0",
                    "short": "0x1.6d8133ebf1612p-2",
                },
                "counts": (3_000, 12, 1, 2, 1_960, 1_400),
                "blocks_sha256": "567df9fe99f85ea11f479f37bfb09b89cb2cb10f9149deaf8d8050c5f052c17c",
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_output(self, name):
        config, want = self.PINNED[name]
        log = io.StringIO()
        report = run_sim(config, block_log=log)
        counts = (report.horizon_blocks, report.seed, report.usurps, report.depletions,
                  report.no_trade_blocks, report.unmanaged_blocks)
        assert counts == want["counts"]
        floats = {k: v.hex() for k, v in report.to_dict().items() if isinstance(v, float)}
        assert floats == want["floats"]
        assert {k: v.hex() for k, v in report.pnl_by_agent.items()} == want["pnl_by_agent"]
        assert hashlib.sha256(log.getvalue().encode()).hexdigest() == want["blocks_sha256"]


class TestWithdrawalAttack:
    def test_net_gain_never_positive_and_zero_at_cap(self):
        config = managed_config(horizon=10)
        report = run_strategic_withdrawal_attack(config)
        assert report.fee_rate == withdrawal_fee_required(1.0 + REF.f_max)
        assert report.max_net_gain <= 0.0
        assert abs(report.gain_at_cap) <= 1e-12

    def test_no_move_loses_exactly_the_fee(self):
        config = managed_config(horizon=10)
        report = run_strategic_withdrawal_attack(config, ratios=[1.0])
        row = report.rows[0]
        assert row.net_gain == pytest.approx(-report.fee_rate * row.v_now, rel=1e-12)
        assert row.net_gain < 0.0

    def test_half_cap_move_strictly_negative(self):
        # hand evaluation of v_now, v_after and the fee at rho = 1 + f_max/2
        config = managed_config(horizon=10)
        rho = 1.0 + REF.f_max / 2.0
        report = run_strategic_withdrawal_attack(config, ratios=[rho])
        row = report.rows[0]
        v_now = (1.0 + rho) * 1.0
        v_after = 2.0 * math.sqrt(rho)
        fee = withdrawal_fee_required(1.0 + REF.f_max)
        assert row.v_now == pytest.approx(v_now, rel=1e-12)
        assert row.v_after == pytest.approx(v_after, rel=1e-12)
        assert row.net_gain == pytest.approx((1 - fee) * v_now - v_after, rel=1e-12)
        assert row.net_gain < 0.0

    def test_gross_signal_triggers_withdrawal(self):
        config = managed_config(horizon=10)
        report = run_strategic_withdrawal_attack(config, ratios=[1.0, 1.02])
        assert report.rows[0].gross_gain == 0.0
        assert report.rows[1].gross_gain > 0.0
        assert report.manager_fee_credit == pytest.approx(
            report.fee_rate * report.rows[1].v_now, rel=1e-12
        )


class TestReplay:
    def test_k_delay_scenario_changes_manager_exactly_on_time(self):
        trace = replay_auction(str(DATA / "k_delay.jsonl"))
        usurps = [
            row
            for row in trace.rows
            if row.origin == "auction" and row.action == "usurped"
        ]
        assert [(u.block, u.bidder) for u in usurps] == [(4, "alice"), (13, "bob")]
        assert usurps[1].detail == "outbid"

    def test_rejections_surface_in_trace(self):
        trace = replay_auction(str(DATA / "k_delay.jsonl"))
        rejected = [row for row in trace.rows if row.status.startswith("rejected")]
        assert len(rejected) == 1
        assert rejected[0].bidder == "carol"
        assert rejected[0].status == "rejected:increment-too-small"

    def test_depletion_scenario_promotes_at_computed_block(self):
        # bob usurps at 8 with three blocks of deposit and depletes at 10;
        # alice's remaining 60 then carries her exactly to block 16
        trace = replay_auction(str(DATA / "depletion.jsonl"))
        depleted = [r for r in trace.rows if r.action == "depleted"]
        assert [(r.block, r.bidder) for r in depleted] == [(10, "bob"), (16, "alice")]
        promoted = [r for r in trace.rows if r.action == "usurped" and r.detail == "depletion"]
        assert [(r.block, r.bidder) for r in promoted] == [(10, "alice")]

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ReplayParseError, match="line 3"):
            replay_auction(str(DATA / "malformed.jsonl"))

    def test_byte_stable_trace(self):
        a = replay_auction(str(DATA / "depletion.jsonl"))
        b = replay_auction(str(DATA / "depletion.jsonl"))
        assert a.rows == b.rows
        assert a.final_state_json == b.final_state_json

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"block": 1, "action": "advance"}\n')
        with pytest.raises(ReplayParseError, match="first line"):
            replay_auction(str(path))

    def test_blocks_must_not_go_backwards(self, tmp_path):
        path = tmp_path / "retro.jsonl"
        path.write_text(
            '{"k_delay": 2, "fee_cap": 0.05}\n'
            '{"block": 5, "action": "advance"}\n'
            '{"block": 3, "action": "advance"}\n'
        )
        with pytest.raises(ReplayParseError, match="precedes"):
            replay_auction(str(path))

    def test_boolean_block_rejected(self, tmp_path):
        path = tmp_path / "bool.jsonl"
        path.write_text(
            '{"k_delay": 2, "fee_cap": 0.05}\n'
            '{"block": true, "action": "advance"}\n'
        )
        with pytest.raises(ReplayParseError, match="line 2: missing integer 'block'"):
            replay_auction(str(path))

    @pytest.mark.parametrize("shares", ['"x"', "true", "[1]", "0", "-3"])
    def test_lp_total_shares_checked_in_header(self, tmp_path, shares):
        # no bid ever pays rent here, so the value would never be read
        path = tmp_path / "shares.jsonl"
        path.write_text(
            "\n"
            f'{{"k_delay": 2, "fee_cap": 0.05, "lp_total_shares": {shares}}}\n'
            '{"block": 3, "action": "advance"}\n'
        )
        with pytest.raises(ReplayParseError, match="line 2: .*lp_total_shares"):
            replay_auction(str(path))

    @pytest.mark.parametrize(
        "header",
        [
            '"k_delay": 2.7, "fee_cap": 0.05',
            '"k_delay": true, "fee_cap": 0.05',
            '"k_delay": "2", "fee_cap": 0.05',
            '"k_delay": 2, "fee_cap": true',
            '"k_delay": 2, "fee_cap": "0.05"',
            '"k_delay": 2, "fee_cap": NaN',
            '"k_delay": 2, "fee_cap": Infinity',
            # an integer past the largest double
            pytest.param(f'"k_delay": 2, "fee_cap": {10**400}', id="fee_cap-10^400"),
            '"k_delay": 2, "fee_cap": 0.05, "min_increment_factor": true',
            '"k_delay": 2, "fee_cap": 0.05, "min_increment_factor": null',
            '"k_delay": 2, "fee_cap": 0.05, "default_fee": false',
            '"k_delay": 2, "fee_cap": 0.05, "default_fee": [0.01]',
        ],
    )
    def test_auction_params_checked_in_header(self, tmp_path, header):
        # no value may be coerced (2.7 to 2, true to 1) or passed through
        path = tmp_path / "params.jsonl"
        path.write_text(
            "\n"
            f"{{{header}}}\n"
            '{"block": 3, "action": "advance"}\n'
        )
        with pytest.raises(ReplayParseError, match="line 2: .*must be a"):
            replay_auction(str(path))

    @pytest.mark.parametrize("key", ["min_incremnt_factor", "lp_total_share"])
    def test_unknown_header_key_refused(self, tmp_path, key):
        # dropped, the typo would leave the default in force: a 20% raise
        # passes a factor of 1.10 where the intended 3.0 refuses it
        path = tmp_path / "typo.jsonl"
        path.write_text(
            "\n"
            f'{{"k_delay": 2, "fee_cap": 0.05, "{key}": 3.0}}\n'
            '{"block": 1, "action": "submit_bid", "bidder": "a", "rent": 1, "deposit": 10}\n'
            '{"block": 2, "action": "submit_bid", "bidder": "b", "rent": 1.2, "deposit": 12}\n'
        )
        with pytest.raises(ReplayParseError, match=rf"line 2: unknown keys in .*\['{key}'\]"):
            replay_auction(str(path))

    def test_rent_rows_state_their_span(self):
        # alice is seated at 4 and pays through 12; the actions at 10 and 11
        # end stretches; bob outbids her at 13 and pays to the end at 16
        trace = replay_auction(str(DATA / "k_delay.jsonl"))
        rent = [
            (r.line, r.block, r.bidder, r.amount, r.detail)
            for r in trace.rows
            if r.action == "rent"
        ]
        assert rent == [
            (3, 4, "alice", "10", "4-4"),
            (3, 10, "alice", "60", "5-10"),
            (4, 11, "alice", "10", "11-11"),
            (5, 12, "alice", "10", "12-12"),
            (5, 13, "bob", "20", "13-13"),
            (5, 16, "bob", "60", "14-16"),
        ]
