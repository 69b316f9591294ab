import builtins
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import resource
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ammauction import cli, market
from ammauction.cli import main
from ammauction.equilibrium import FEE_GRID
from ammauction.pool import withdrawal_fee_required
from ammauction.replay import replay_auction

from auction_driver import every_action_scenario, many_lp_scenario

DATA = pathlib.Path(__file__).parent / "data"


def sim_config_dict(horizon=2_000):
    return {
        "schema_version": 1,
        "horizon_blocks": horizon,
        "seed": 21,
        "market": {
            "sigma": 0.05,
            "delta_t": 0.01,
            "r": 1e-4,
            "f_max": 0.05,
            "c0": 25.0,
            "c1": 120.0,
            "alpha": 0.5,
        },
        "manager_policy": "fixed",
        "manager_fee": 0.003,
        "initial_liquidity": 1.0,
        "initial_bids": [{"bidder": "mgr", "rent": 1e-6, "deposit": 0.01}],
    }


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# manifest ")
    manifest = json.loads(lines[0][len("# manifest "):])
    rows = list(csv.reader(lines[1:]))
    return manifest, rows[0], rows[1:]


class TestFormulas:
    def test_stdout_table(self, capsys):
        assert main(["formulas", "--fees", "0,0.003"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("# manifest ")
        assert out[1] == "f,ap0,ae0,ratio,H0"
        zero_row = out[2].split(",")
        assert float(zero_row[1]) == float(zero_row[2])  # ap0 == ae0 at f = 0
        assert float(zero_row[3]) == 1.0

    def test_ratio_column_identity(self, tmp_path, capsys):
        assert main(["formulas", "--grid", "16", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _, header, rows = read_csv(tmp_path / "formulas.csv")
        assert header == ["f", "ap0", "ae0", "ratio", "H0"]
        sigma, dt = 0.05, 0.01
        for row in rows:
            f, ap0, ae0, ratio = map(float, row[:4])
            kappa = f / (sigma * math.sqrt(dt / 2.0))
            assert ratio == pytest.approx((1.0 + kappa) * math.exp(-kappa), rel=1e-12)
            assert ae0 == pytest.approx(ratio * ap0, rel=1e-12)

    def test_matches_golden(self, tmp_path, capsys):
        fees = ",".join(repr(0.05 * i / 8) for i in range(9))
        assert main(["formulas", "--fees", fees, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _, _, rows = read_csv(tmp_path / "formulas.csv")
        with open(DATA / "formulas_golden.csv") as fh:
            golden = list(csv.reader(fh))[1:]
        assert len(rows) == len(golden)
        for got, want in zip(rows, golden):
            for g, w in zip(got, want):
                assert float(g) == pytest.approx(float(w), rel=1e-9)

    def test_bad_params_exit_2(self, capsys):
        assert main(["formulas", "--sigma", "-1"]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_config_file_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"schema_version": 1, "sigma": 0.02, "delta_t": 0.005}))
        assert main(["formulas", "--config", str(cfg), "--fees", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        expected = (0.02**2 / 8.0) / (1.0 - 0.02**2 * 0.005 / 8.0)
        assert float(out[2].split(",")[1]) == pytest.approx(expected, rel=1e-12)

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"schema_version": 1, "sgima": 0.02}))
        assert main(["formulas", "--config", str(cfg)]) == 2
        assert "sgima" in capsys.readouterr().err


def assert_one_line_error(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err


class TestGridFloor:
    @pytest.mark.parametrize("argv", [["formulas"], ["mc-validate", "--samples", "20000"]])
    @pytest.mark.parametrize("grid", ["1", "0", "-3"])
    def test_grid_below_two_exit_2(self, argv, grid, capsys):
        assert main(argv + ["--grid", grid]) == 2
        assert_one_line_error(capsys, "--grid must be at least 2")

    @pytest.mark.parametrize("grid", ["15", "5", "1"])
    def test_equilibrium_grid_below_sixteen_exit_2(self, grid, capsys):
        assert main(["equilibrium", "--grid", grid]) == 2
        assert_one_line_error(capsys, f"--grid must be at least 16, got {grid}")

    def test_fees_override_grid(self, capsys):
        assert main(["formulas", "--grid", "0", "--fees", "0.003"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_two_point_grid_spans_the_range(self, capsys):
        assert main(["formulas", "--grid", "2", "--f-max", "0.04"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.04]


class TestBadFees:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "-0.001"])
    def test_formulas_exit_2(self, token, capsys):
        assert main(["formulas", "--fees", f"0.003,{token}"]) == 2
        assert_one_line_error(capsys, f"--fees must list finite non-negative fees, got {token}")

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    def test_mc_validate_exit_2_before_any_work(self, token, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("mc_rates ran")

        monkeypatch.setattr(market, "mc_rates", no_work)
        assert main(["mc-validate", "--samples", "20000", "--fees", f"0.003,{token}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --fees must list finite non-negative fees, got {token}\n"

    def test_empty_list_exit_2(self, capsys):
        assert main(["formulas", "--fees", " , "]) == 2
        assert_one_line_error(capsys, "--fees must list at least one fee")

    @pytest.mark.parametrize("argv", [["formulas"], ["mc-validate", "--samples", "20000"]],
                             ids=["formulas", "mc-validate"])
    def test_empty_string_exit_2(self, argv, capsys):
        # an empty --fees lists no fee; it does not fall back to the --grid fees
        assert main([*argv, "--fees", ""]) == 2
        assert_one_line_error(capsys, "--fees must list at least one fee")

    @pytest.mark.parametrize(
        "argv",
        [["formulas", "--fees", "1e308"],
         ["mc-validate", "--samples", "20000", "--fees", "0.003,2000"],
         ["equilibrium", "--grid", "16", "--f-max", "2000"]],
        ids=["formulas", "mc-validate", "equilibrium"],
    )
    def test_overflowing_fee_exit_2_before_any_work(self, argv, monkeypatch, capsys):
        # cosh(f / 2) in the closed forms overflows above a fee of about 1420,
        # which numpy raises under errstate; mc-validate evaluates them before
        # its Monte-Carlo run, and equilibrium's fee grid runs to f_max
        def no_work(*args, **kwargs):
            raise AssertionError("mc_rates ran")

        monkeypatch.setattr(market, "mc_rates", no_work)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: too large to compute: overflow encountered in cosh\n"

    def test_unallocatable_chain_count_exit_2(self, capsys):
        # 10^13 chains ask for a 73 TiB row of band bounds, which is refused
        # at once. The address-space cap of 64 TiB makes sure of that on a
        # machine that overcommits memory; the run itself uses a tiny part of
        # it. (A large --samples count allocates nothing that grows with it:
        # it only runs long.)
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 2**46
        if soft == resource.RLIM_INFINITY or soft > cap:
            resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            code = main(["mc-validate", "--samples", "10000", "--chains", "10000000000000",
                         "--fees", "0.003"])
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert code == 2
        assert_one_line_error(capsys, "error: too large to compute: Unable to allocate")


class TestBadMarketParams:
    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"sigma": "0.05"}, "sigma"),
            ({"sigma": True}, "sigma"),
            ({"delta_t": False}, "delta_t"),
            ({"r": math.nan}, "r"),
            ({"c0": math.nan}, "c0"),
            ({"alpha": None}, "alpha"),
            ({"f_max": math.inf}, "f_max"),
        ],
    )
    def test_config_file_values_exit_2(self, raw, key, tmp_path, capsys):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"schema_version": 1, **raw}))  # NaN/Infinity literals
        assert main(["formulas", "--config", str(cfg), "--fees", "0"]) == 2
        assert_one_line_error(capsys, f"{key} must be a finite real number")

    @pytest.mark.parametrize("flag", ["--r", "--c0", "--sigma", "--f-max"])
    def test_nan_flag_exit_2(self, flag, capsys):
        assert main(["formulas", flag, "nan", "--fees", "0"]) == 2
        assert_one_line_error(capsys, "must be a finite real number")

    def test_overflowing_sigma_exit_2(self, capsys):
        assert main(["formulas", "--sigma", "1e300", "--fees", "0"]) == 2
        assert_one_line_error(capsys, "validity condition")

    @pytest.mark.parametrize("liquidity", ["nan", "inf", "-1"])
    def test_bad_liquidity_exit_2(self, liquidity, capsys):
        assert main(["formulas", "--liquidity", liquidity, "--fees", "0.003"]) == 2
        assert_one_line_error(capsys, "--liquidity must be positive and finite")

    def test_simulate_market_section_exit_2(self, tmp_path, capsys):
        raw = sim_config_dict()
        raw["market"]["sigma"] = True
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", str(path)]) == 2
        assert_one_line_error(capsys, "sigma must be a finite real number")


class TestBadSimConfig:
    @pytest.mark.parametrize(
        "patch, needle",
        [
            ({"initial_bids": [{"bidder": "mgr", "deposit": 0.01}]}, "initial_bids[0] must be"),
            ({"initial_bids": ["mgr"]}, "initial_bids[0] must be"),
            ({"initial_bids": {"bidder": "mgr"}}, "initial_bids must be a list"),
            ({"initial_bids": [{"bidder": "m", "rent": True, "deposit": 1}]},
             "initial_bids[0].rent must be a finite number"),
            ({"initial_bids": [{"bidder": "m", "rent": 1e-6, "deposit": "0.01"}]},
             "initial_bids[0].deposit must be a finite number"),
            ({"default_fee": "0.01"}, "default_fee must be a finite number"),
            ({"manager_fee": math.inf}, "manager_fee must be a finite number"),
            ({"initial_liquidity": math.nan}, "initial_liquidity must be a finite number"),
            ({"initial_liquidity": None}, "initial_liquidity must be a finite number"),
            ({"min_increment_factor": False}, "min_increment_factor must be a finite number"),
            ({"horizon_blocks": 2.7}, "horizon_blocks must be an integer"),
            ({"horizon_blocks": True}, "horizon_blocks must be an integer"),
            ({"seed": "7"}, "seed must be an integer"),
            ({"k_delay": 5.0}, "k_delay must be an integer"),
            ({"initial_bids": [{"bidder": "lp", "rent": 1e-6, "deposit": 0.01}]},
             "bidder name 'lp' is an agent of pnl_by_agent"),
        ],
    )
    def test_field_values_exit_2(self, patch, needle, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**sim_config_dict(), **patch}))  # NaN/Infinity literals
        assert main(["simulate", str(path)]) == 2
        assert_one_line_error(capsys, needle)

    @pytest.mark.parametrize("seed", [-3, 2**128])
    def test_seed_out_of_range_writes_nothing(self, seed, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**sim_config_dict(), "seed": seed}))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, f"seed must be in [0, 2**128), got {seed}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch, needle",
        [
            ({"k_delay": 0}, "k_delay must be >= 1, got 0"),
            ({"min_increment_factor": 0.9}, "min_increment_factor must be >= 1, got 0.9"),
            ({"default_fee": 0.5}, "default_fee 0.5 outside [0, 0.05]"),
            ({"initial_bids": [{"bidder": "mgr", "rent": 3e-6, "deposit": 0.01}]},
             "initial bid for 'mgr' violates the deposit rules"),
            ({"lp_policy": "zero_profit",
              "market": {**sim_config_dict()["market"], "sigma": 0.0, "r": 0.0}},
             "zero_profit lp_policy needs ap0(0) + r > 0"),
            # not coerced to "None", which would merge with a bid of that name
            ({"initial_bids": [{"bidder": None, "rent": 1e-6, "deposit": 0.01}]},
             "initial_bids[0].bidder must be a string, got None"),
            ({"initial_bids": [{"bidder": 5, "rent": 1e-6, "deposit": 0.01}]},
             "initial_bids[0].bidder must be a string, got 5"),
            # a typo'd key is refused at every level, not dropped for its default
            ({"initial_bids": [{"bidder": "m", "rent": 0.001, "deposit": 1.0, "depositt": 5}]},
             "unknown keys in initial_bids[0]: ['depositt']"),
            ({"market": {**sim_config_dict()["market"], "sigmaa": 0.05}},
             "unknown keys in market: ['sigmaa']"),
        ],
        ids=["k_delay", "increment", "default_fee", "deposit", "zero_profit", "bidder-null",
             "bidder-number", "bid-unknown-key", "market-unknown-key"],
    )
    def test_setup_checks_write_nothing(self, patch, needle, tmp_path, capsys):
        # checked when the config is built, before --out is created
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**sim_config_dict(), **patch}))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, needle)
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch, needle",
        [
            ({"initial_liquidity": 1e308}, "initial_liquidity must lie in [1e-150, 1e+150]"),
            ({"initial_liquidity": 1e-320}, "initial_liquidity must lie in [1e-150, 1e+150]"),
            ({"lp_policy": "zero_profit",
              "initial_bids": [{"bidder": "mgr", "rent": 1e-300, "deposit": 5e-300}]},
             "zero_profit liquidity must lie in [1e-150, 1e+150]"),
        ],
        ids=["huge", "subnormal", "zero_profit"],
    )
    def test_liquidity_out_of_range_writes_nothing(self, patch, needle, tmp_path, capsys):
        # at the float limits the run would overflow to NaN or lose its digits
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**sim_config_dict(), **patch}))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, needle)
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_override_out_of_range_writes_nothing(self, seed, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sim_config_dict()))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--seed", seed, "--out", str(out)]) == 2
        assert_one_line_error(capsys, f"seed must be in [0, 2**128), got {seed}")
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**sim_config_dict(horizon=50), "seed": 2**128 - 1}))
        assert main(["simulate", str(path)]) == 0

    def test_integer_amounts_and_null_fees_parse(self, tmp_path, capsys):
        raw = sim_config_dict(horizon=50)
        raw.update(initial_liquidity=2, default_fee=None, withdrawal_fee=None,
                   initial_bids=[{"bidder": "mgr", "rent": 1, "deposit": 100}])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["simulate", str(path)]) == 0


class TestMCValidate:
    def test_sample_floor_is_usage_error(self, capsys):
        assert main(["mc-validate", "--samples", "5000"]) == 2
        assert "10000" in capsys.readouterr().err

    def test_passes_at_reference_point(self, capsys):
        code = main(["mc-validate", "--samples", "50000", "--fees", "0,0.003", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validation: pass" in out

    def test_corrupted_closed_form_fails(self, capsys):
        code = main(
            [
                "mc-validate",
                "--samples",
                "50000",
                "--fees",
                "0.003",
                "--corrupt-closed-form",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_csv_report(self, tmp_path, capsys):
        main(["mc-validate", "--samples", "20000", "--fees", "0", "--out", str(tmp_path)])
        capsys.readouterr()
        manifest, header, rows = read_csv(tmp_path / "mc_validate.csv")
        assert manifest["command"] == "mc_validate"
        assert header[0] == "f" and header[-1] == "pass"
        assert len(rows) == 1

    def test_manifest_names_numpy_alone(self, tmp_path, capsys):
        # the draws are numpy's samplers, so numpy is the one library named
        main(["mc-validate", "--samples", "20000", "--fees", "0", "--out", str(tmp_path)])
        capsys.readouterr()
        manifest = read_csv(tmp_path / "mc_validate.csv")[0]
        assert sorted(manifest) == [
            "command", "config_hash", "numpy", "outputs", "python", "seed", "version"
        ]
        assert manifest["numpy"] == np.__version__


    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_out_of_range_exit_2(self, seed, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["mc-validate", "--samples", "20000", "--fees", "0", "--seed", seed]
        assert main(argv + ["--out", str(out)]) == 2
        assert_one_line_error(capsys, f"seed must be in [0, 2**128), got {seed}")
        assert not out.exists()

    def test_one_chain_exit_2_writes_nothing(self, tmp_path, capsys):
        # checked beside --samples, before --out is created
        out = tmp_path / "out"
        argv = ["mc-validate", "--samples", "10000", "--fees", "0", "--chains", "1"]
        assert main(argv + ["--out", str(out)]) == 2
        assert_one_line_error(capsys, "--chains must be at least 2, got 1")
        assert not out.exists()

    def test_out_is_an_existing_file_exit_2_before_any_work(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("keep\n")
        argv = ["mc-validate", "--samples", "10000", "--fees", "0,0.003", "--out", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "f=" not in captured.out
        assert captured.err.startswith("error: ") and "File exists" in captured.err
        assert path.read_text() == "keep\n"

    def test_fee_rows_match_single_fee_runs(self, tmp_path, capsys):
        # one Monte-Carlo call serves every fee, with the bits of a run per fee
        argv = ["mc-validate", "--samples", "20000", "--seed", "3"]
        assert main(argv + ["--fees", "0.01,0,0.003", "--out", str(tmp_path / "all")]) == 0
        _, header, rows = read_csv(tmp_path / "all" / "mc_validate.csv")
        singles = []
        for i, fee in enumerate(("0.01", "0", "0.003")):
            out = tmp_path / f"one{i}"
            assert main(argv + ["--fees", fee, "--out", str(out)]) == 0
            one_header, one_rows = read_csv(out / "mc_validate.csv")[1:]
            assert one_header == header and len(one_rows) == 1
            singles.append(one_rows[0])
        capsys.readouterr()
        assert rows == singles
        assert not any("np.float64(" in cell for row in rows for cell in row)


class TestEquilibrium:
    def test_dominance_pass(self, tmp_path, capsys):
        assert main(["equilibrium", "--grid", "16", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dominated=True" in out
        _, header, rows = read_csv(tmp_path / "equilibrium.csv")
        assert header == ["f", "L_ff", "L_star", "R_star", "f_star", "f_opt", "margin"]
        assert len(rows) == 16

    @pytest.mark.parametrize(
        "flags, cause",
        [
            (["--f-max", "0"], "at fee 0: the fee revenue vanishes at every fee up to f_max = 0"),
            (["--sigma", "0", "--r", "0"], "at fee 2.44141e-05: the fee revenue vanishes, or so "
             "does the arbitrage rate plus r (no price motion and no capital charge)"),
            # ap0 + r > 0, but the root's exponent 1/(1 - alpha) is 1e9
            (["--alpha", "0.999999999"], "at fee 4.88281e-05: the fee revenue over the "
             "arbitrage rate plus r, raised to 1/(1 - alpha) = 1e+09, overflows a double"),
        ],
        ids=["no-fee", "no-cost", "overflow"],
    )
    def test_no_equilibrium_exit_3(self, flags, cause, capsys):
        assert main(["equilibrium", *flags]) == 3
        assert capsys.readouterr().err == f"solver failure: no positive finite root {cause}\n"

    def test_underflowing_fees_hold_no_liquidity(self, tmp_path, capsys):
        # at c1 = 1e4 the liquidity of fees from about 0.038 up is below the
        # smallest double; the best fee is near 1/c1
        assert main(["equilibrium", "--c1", "1e4", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dominated=True" in out
        f_star = float(re.search(r"\bf_star=(\S+)", out).group(1))
        assert abs(f_star - 1e-4) <= 0.05 / FEE_GRID
        _, _, rows = read_csv(tmp_path / "equilibrium.csv")
        assert float(rows[-1][0]) == 0.05 and float(rows[-1][1]) == 0.0


class TestSimulate:
    def test_missing_config_exit_2(self, capsys):
        assert main(["simulate", "/nonexistent/config.json"]) == 2
        assert "/nonexistent/config.json" in capsys.readouterr().err

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        raw = sim_config_dict()
        del raw["schema_version"]
        path.write_text(json.dumps(raw))
        assert main(["simulate", str(path)]) == 2

    def test_seed_repetition_reproduces_bytes(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sim_config_dict()))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(path), "--out", str(out_a)]) == 0
        assert main(["simulate", str(path), "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "blocks.csv").read_bytes() == (out_b / "blocks.csv").read_bytes()

    def test_report_carries_manifest(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sim_config_dict(horizon=500)))
        assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "run" / "report.json").read_text())
        manifest = payload["manifest"]
        assert sorted(manifest) == [
            "command", "config_hash", "numpy", "outputs", "python", "seed", "version"
        ]
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 21
        # byte identity rests on numpy's Philox and samplers
        assert manifest["python"] == "{}.{}.{}".format(*sys.version_info[:3])
        assert manifest["numpy"] == np.__version__
        assert read_csv(tmp_path / "run" / "blocks.csv")[0] == manifest
        assert payload["report"]["horizon_blocks"] == 500

    def test_huge_fee_cap_warns_nothing(self, tmp_path, capsys):
        # an unmanaged pool at a fee cap of 1000 never trades; the lanes the
        # trade discards once overflowed exp and expm1 with three warnings.
        # Only the capital charge reads the drawn block times
        raw = sim_config_dict()
        raw["market"]["f_max"] = 1000.0
        raw["initial_bids"] = []
        del raw["manager_fee"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "run" / "report.json").read_text())["report"]
        counts = {"horizon_blocks": 2000, "no_trade_blocks": 2000, "unmanaged_blocks": 2000,
                  "depletions": 0, "usurps": 0, "seed": 21}
        assert report == {
            **{name: 0.0 for name in report if name not in counts},
            **counts,
            "fee_effective_mean": 1000.0,
            "lp_capital_charge": 0.004098699776505673,
            "pnl_by_agent": {"external_arb": 0.0, "lp": 0.0, "noise_traders": 0.0},
        }

    def test_one_block_horizon_exit_2_writes_nothing(self, tmp_path, capsys):
        # one block has no standard error; the report would carry NaN
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sim_config_dict(horizon=1)))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, "simulate needs horizon_blocks >= 2, got 1")
        assert not out.exists()

    def test_two_block_horizon_is_strict_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sim_config_dict(horizon=2)))
        assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()

        def reject(token):
            raise ValueError(token)

        text = (tmp_path / "run" / "report.json").read_text()
        assert json.loads(text, parse_constant=reject)["report"]["horizon_blocks"] == 2

    @pytest.mark.parametrize(
        "patch, field",
        [({"ap0_se": math.nan}, "ap0_se"), ({"accounting_drift": -math.inf}, "accounting_drift"),
         ({"pnl_by_agent": {"lp": math.inf}}, "pnl_by_agent.lp")],
        ids=["nan", "-inf", "pnl-map"],
    )
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_non_finite_report_field_exit_2(self, patch, field, to_file, monkeypatch,
                                            tmp_path, capsys):
        real = cli.run_sim
        monkeypatch.setattr(cli, "run_sim", lambda *a, **kw: replace(real(*a, **kw), **patch))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sim_config_dict(horizon=50)))
        out = tmp_path / "out"
        argv = ["simulate", str(path)] + (["--out", str(out)] if to_file else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"report field {field} is not finite" in captured.err
        assert not (out / "report.json").exists()

    def test_seed_override_changes_stream(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sim_config_dict(horizon=500)))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(path), "--out", str(a)]) == 0
        assert main(["simulate", str(path), "--seed", "99", "--out", str(b)]) == 0
        capsys.readouterr()
        assert (a / "blocks.csv").read_bytes() != (b / "blocks.csv").read_bytes()


class TestAttack:
    def test_sweep_is_non_positive(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sim_config_dict(horizon=10)))
        assert main(["attack", str(path), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "max_net_gain" in out
        _, header, rows = read_csv(tmp_path / "out" / "attack.csv")
        assert header[0] == "ratio"
        assert all(float(r[4]) <= 0.0 for r in rows)

    @pytest.mark.parametrize("f_max", [10.0, 1000.0])
    def test_rounding_gain_at_a_wide_cap_exit_0(self, f_max, tmp_path, capsys):
        # with the required fee the gain is zero up to rounding: it reads
        # 8.9e-16 at f_max 10 and 2.8e-14 at f_max 1000, on positions worth
        # about 12 and 1002
        config = sim_config_dict(horizon=10)
        config["market"]["f_max"] = f_max
        config["initial_bids"] = []
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["attack", str(path)]) == 0
        gain = re.search(r"max_net_gain=(\S+)", capsys.readouterr().out).group(1)
        assert 0.0 < float(gain) < 1e-13

    @pytest.mark.parametrize("factor", [0.0, 0.5, 1.0 - 1e-9])
    def test_withdrawal_fee_below_the_required_fee_exit_1(self, factor, tmp_path, capsys):
        config = sim_config_dict(horizon=10)
        config["withdrawal_fee"] = factor * withdrawal_fee_required(1.0 + 0.05)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["attack", str(path)]) == 1
        gain = re.search(r"max_net_gain=(\S+)", capsys.readouterr().out).group(1)
        assert float(gain) > 0.0


class TestReplay:
    def test_trace_output(self, tmp_path, capsys):
        assert main(["replay", str(DATA / "k_delay.jsonl"), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _, header, rows = read_csv(tmp_path / "trace.csv")
        assert header[0] == "line"
        assert any(r[3] == "usurped" and r[1] == "13" for r in rows)
        assert (tmp_path / "final_state.json").exists()

    def test_malformed_scenario_exit_2(self, capsys):
        assert main(["replay", str(DATA / "malformed.jsonl")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["replay", "/nope/scenario.jsonl"]) == 2
        assert "/nope/scenario.jsonl" in capsys.readouterr().err

    def test_config_hash_follows_content_not_path(self, tmp_path, capsys):
        text = (DATA / "k_delay.jsonl").read_text()
        traces = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "scenario.jsonl").write_text(text)
            assert main(["replay", str(tmp_path / name / "scenario.jsonl"),
                         "--out", str(tmp_path / name / "out")]) == 0
            traces.append((tmp_path / name / "out" / "trace.csv").read_bytes())
        assert traces[0] == traces[1]
        lines = text.splitlines(keepends=True)
        action = json.loads(lines[1])
        action["block"] += 1
        lines[1] = json.dumps(action) + "\n"
        (tmp_path / "a" / "scenario.jsonl").write_text("".join(lines))
        assert main(["replay", str(tmp_path / "a" / "scenario.jsonl"),
                     "--out", str(tmp_path / "a" / "edited")]) == 0
        capsys.readouterr()
        hashes = [read_csv(tmp_path / "a" / d / "trace.csv")[0]["config_hash"]
                  for d in ("out", "edited")]
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize(
        "action, needle",
        [
            ('"action": "set_fee", "bidder": "a", "fee": "0.01"', "fee must be a number"),
            ('"action": "set_fee", "bidder": "a", "fee": false', "fee must be a number"),
            ('"action": "set_fee", "bidder": "a", "fee": [0.01]', "fee must be a number"),
            ('"action": "set_fee", "bidder": 7, "fee": 0.01', "bidder must be a string"),
            ('"action": "register_lp", "lp": {"x": 1}, "shares": 1', "lp must be a string"),
            ('"action": "submit_bid", "bidder": null, "rent": 1, "deposit": 10',
             "bidder must be a string"),
            ('"action": "claim_rent", "lp": true', "lp must be a string"),
            ('"action": "claim_rent"', "action 'claim_rent' needs ['lp']"),
            ('"action": "register_lp", "lp": "x\\ry", "shares": 1',
             "lp must not contain control characters, got 'x\\ry'"),
            ('"action": "claim_rent", "lp": "x\\ny"', "lp must not contain control characters"),
            ('"action": "submit_bid", "bidder": "a\\u0000", "rent": 1, "deposit": 10',
             "bidder must not contain control characters"),
            ('"action": "top_up", "bidder": "a\\u007f", "amount": 1',
             "bidder must not contain control characters"),
            ('"action": "set_fee", "bidder": "\\u001fa", "fee": 0.01',
             "bidder must not contain control characters"),
            ('"action": "reduce_deposit", "bidder": "a", "amount": "1\\r"',
             "amount must not contain control characters"),
            ('"action": "advance", "bidder": "x\\ry"', "bidder must not contain control characters"),
            ('"action": ["advance"]', "unknown action ['advance']"),
        ],
        ids=["fee-string", "fee-bool", "fee-list", "bidder-number", "lp-object",
             "bidder-null", "lp-bool", "missing", "lp-cr", "lp-lf", "bidder-nul",
             "bidder-del", "bidder-unit-separator", "amount-cr", "echoed-bidder-cr",
             "action-list"],
    )
    def test_action_field_types_exit_2_writes_nothing(self, action, needle, tmp_path, capsys):
        # the third line is fine: the bad field is refused at parse time, with
        # its own line number, before any output
        path = tmp_path / "scenario.jsonl"
        path.write_text(
            '{"k_delay": 2, "fee_cap": 0.05}\n'
            f'{{"block": 0, {action}}}\n'
            '{"block": 1, "action": "advance"}\n'
        )
        out = tmp_path / "out"
        assert main(["replay", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, f"line 2: {needle}")
        assert not out.exists()

    def test_manifest_names_no_library(self, tmp_path, capsys):
        # exact Fraction arithmetic computes a replay: numpy computes nothing
        assert main(["replay", str(DATA / "depletion.jsonl"), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        manifest = read_csv(tmp_path / "trace.csv")[0]
        assert sorted(manifest) == ["command", "config_hash", "outputs", "python", "seed", "version"]

    def test_replay_keeps_its_bytes(self, tmp_path, capsys):
        # trace.csv below its manifest line, and final_state.json, pinned
        many = tmp_path / "many_lps.jsonl"
        many.write_text("".join(json.dumps(line) + "\n" for line in many_lp_scenario()))
        every = tmp_path / "every_action.jsonl"
        every.write_text("".join(json.dumps(line) + "\n" for line in every_action_scenario()))
        want = {
            DATA / "depletion.jsonl": (
                "a57dc8300b3e94c35b571e1cb81af1adb581dcfef3cecff881c3c454676b18b2",
                "fda5742401343a6ca24f1261ce07e5a8df8e618e56e95475224cebb2bc971f33",
            ),
            DATA / "k_delay.jsonl": (
                "a6e33a3823a0d5656ceb0697939ab47ea523447257c717c91ff39694d069f20b",
                "3e0bdd883fc4696362f136e0a26d93cbe2a4e24753495000d527f76f8ec51506",
            ),
            many: (
                "5ab072088ed6da4e84ae033220fc30b41ddd7e914411118e65017196031b90f2",
                "d7bcedbd3c79c7688f449b3b919b4360ade5743dec9cb5bd0dc02a7c3a6f9224",
            ),
            every: (
                "a511ab69e083e9e1355825cbaa2a4f6ca178eecd1a4d3786743966853f850a01",
                "19f5f50da037e5050ca9356e7dbc5fd736a5f58606e99ff64bc314a61025c776",
            ),
        }
        for scenario, (trace, final) in want.items():
            out = tmp_path / scenario.stem
            assert main(["replay", str(scenario), "--out", str(out)]) == 0
            body = (out / "trace.csv").read_bytes().split(b"\n", 1)[1]
            assert hashlib.sha256(body).hexdigest() == trace, scenario.name
            digest = hashlib.sha256((out / "final_state.json").read_bytes()).hexdigest()
            assert digest == final, scenario.name
        capsys.readouterr()

    def test_integer_default_fee_reads_as_a_float(self, tmp_path, capsys):
        states = []
        for default_fee in ("0", "0.0"):
            path = tmp_path / f"{default_fee}.jsonl"
            path.write_text(f'{{"k_delay": 2, "fee_cap": 1, "default_fee": {default_fee}}}\n')
            assert main(["replay", str(path), "--out", str(tmp_path / default_fee)]) == 0
            states.append((tmp_path / default_fee / "final_state.json").read_text())
        capsys.readouterr()
        assert states[0] == states[1]
        assert '"default_fee":0.0' in states[0] and '"effective_fee":0.0' in states[0]

    @pytest.mark.parametrize("name", ["depletion.jsonl", "k_delay.jsonl", "crlf"])
    def test_manifest_hashes_the_scenario_bytes(self, tmp_path, capsys, name):
        # the bytes as read, not the decoded text: a CRLF copy hashes apart
        data = (DATA / ("k_delay.jsonl" if name == "crlf" else name)).read_bytes()
        if name == "crlf":
            data = data.replace(b"\n", b"\r\n")
        path = tmp_path / "scenario.jsonl"
        path.write_bytes(data)
        digest = hashlib.sha256(data).hexdigest()
        assert replay_auction(str(path)).scenario_sha256 == digest
        assert main(["replay", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        config = json.dumps({"scenario_sha256": digest}, separators=(",", ":"))
        want = hashlib.sha256(config.encode()).hexdigest()[:16]
        assert read_csv(tmp_path / "out" / "trace.csv")[0]["config_hash"] == want

    def test_replay_reads_its_scenario_once(self, tmp_path, monkeypatch, capsys):
        # the manifest's scenario_sha256 hashes the bytes the parser decoded
        scenario = str(DATA / "depletion.jsonl")
        reads = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if str(file) == scenario:
                reads.append(file)
            return real_open(file, *args, **kwargs)

        # pathlib opens through io.open, everything else through builtins.open
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(["replay", scenario, "--out", str(tmp_path / "out")]) == 0
        monkeypatch.undo()
        assert len(reads) == 1
        capsys.readouterr()

    def test_nan_fee_reaches_the_auction(self, tmp_path, capsys):
        path = tmp_path / "scenario.jsonl"
        path.write_text(
            '{"k_delay": 2, "fee_cap": 0.05}\n'
            '{"block": 0, "action": "submit_bid", "bidder": "a", "rent": 1, "deposit": 10}\n'
            '{"block": 3, "action": "set_fee", "bidder": "a", "fee": NaN}\n'
        )
        assert main(["replay", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _, header, rows = read_csv(tmp_path / "trace.csv")
        status = header.index("status")
        assert rows[-1][status] == "rejected:fee-above-cap"


def csv_rows(path):
    """Header and rows of an output CSV, parsed as RFC 4180 after its manifest line."""
    with open(path, newline="") as fh:
        assert fh.readline().startswith("# manifest ")
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestCSVFields:
    def test_every_csv_is_as_wide_as_its_header(self, tmp_path, capsys):
        # a field with a comma or a quote is quoted, not split
        scenario = tmp_path / "scenario.jsonl"
        scenario.write_text(
            '{"k_delay": 2, "fee_cap": 0.05}\n'
            '{"block": 0, "action": "submit_bid", "bidder": "a,b", "rent": 1, "deposit": 10}\n'
            '{"block": 3, "action": "set_fee", "bidder": "a,b", "fee": 0.1}\n'
            '{"block": 4, "action": "set_fee", "bidder": "say \\"hi\\"", "fee": 0.01}\n'
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(sim_config_dict(horizon=10)))
        runs = {
            "formulas.csv": ["formulas", "--grid", "5"],
            "equilibrium.csv": ["equilibrium", "--grid", "16"],
            "attack.csv": ["attack", str(config)],
            "mc_validate.csv": ["mc-validate", "--fees", "0,0.01", "--samples", "10000",
                                "--chains", "2"],
            "trace.csv": ["replay", str(scenario)],
        }
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / name)]) in (0, 1)  # 1: a failed check
            header, rows = csv_rows(tmp_path / name / name)
            assert rows and all(len(row) == len(header) for row in rows), name
        capsys.readouterr()
        header, rows = csv_rows(tmp_path / "trace.csv" / "trace.csv")
        detail, bidder = header.index("detail"), header.index("bidder")
        assert rows[5][detail] == "fee-above-cap: fee 0.1 outside [0, 0.05]"
        assert {row[bidder] for row in rows} == {"a,b", 'say "hi"'}

    @pytest.mark.parametrize("to_files", [False, True], ids=["stdout", "out"])
    def test_no_numpy_repr_in_any_output(self, to_files, tmp_path, capsys):
        # numpy 2 writes a float64 as np.float64(x) and an array as array([...]);
        # the closed forms and solvers compute with numpy, so every value they
        # hand to an output must be a built-in float by then
        config = tmp_path / "config.json"
        raw = {**sim_config_dict(horizon=200), "manager_policy": "optimal",
               "lp_policy": "zero_profit"}
        del raw["manager_fee"]
        config.write_text(json.dumps(raw))
        runs = [
            ["formulas", "--grid", "5"],
            ["mc-validate", "--fees", "0,0.01", "--samples", "10000", "--chains", "2"],
            ["equilibrium", "--grid", "16"],
            ["simulate", str(config)],
            ["attack", str(config)],
        ]
        for i, argv in enumerate(runs):
            out = tmp_path / f"out{i}"
            assert main(argv + (["--out", str(out)] if to_files else [])) in (0, 1), argv
            texts = [capsys.readouterr().out]
            if to_files:
                texts += [path.read_text() for path in sorted(out.iterdir())]
                assert len(texts) > 1, argv
            for text in texts:
                for leak in ("np.float64(", "np.", "array("):
                    assert leak not in text, (argv, leak)


class TestUnusablePaths:
    @pytest.mark.parametrize(
        "argv", [["simulate", "{dir}"], ["replay", "{dir}"], ["formulas", "--config", "{dir}"]]
    )
    def test_directory_for_a_file_exit_2(self, argv, tmp_path, capsys):
        assert main([a.format(dir=tmp_path) for a in argv]) == 2
        assert_one_line_error(capsys, "Is a directory")

    def test_out_is_an_existing_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("keep\n")
        assert main(["formulas", "--fees", "0.003", "--out", str(path)]) == 2
        assert_one_line_error(capsys, "File exists")
        assert path.read_text() == "keep\n"


class TestParser:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "ammauction" in capsys.readouterr().out


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on the package source; its stdout."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# each command that samples, with the module it draws with
SAMPLING_COMMANDS = pytest.mark.parametrize(
    "argv, sampler",
    [
        (["simulate", "{config}"], "numpy.random"),
        (["mc-validate", "--samples", "10000", "--fees", "0"], "numpy.random"),
    ],
    ids=["simulate", "mc-validate"],
)


# the package modules that importing each module loads, itself included
_NUMERIC = {"_numpy", "auction", "pool", "market"}
IMPORT_GRAPH = {
    "auction": {"auction"},
    "replay": {"auction", "replay"},
    "pool": {"_numpy", "pool"},
    "market": _NUMERIC,
    "equilibrium": _NUMERIC | {"equilibrium"},
    "_floatrepr": {"_numpy", "_floatrepr"},
    "sim": _NUMERIC | {"equilibrium", "_floatrepr", "sim"},
}


class TestImportCost:
    def test_cli_import_leaves_out_scipy_optimize(self):
        # scipy.optimize alone costs a few tenths of a second per interpreter
        code = "import sys, ammauction.cli; print('scipy.optimize' in sys.modules)"
        assert run_python(code).strip() == "False"

    def test_cli_import_leaves_out_scipy_special(self):
        # so does scipy.special, which no command needs
        code = "import sys, ammauction.cli; print('scipy.special' in sys.modules)"
        assert run_python(code).strip() == "False"

    @pytest.mark.parametrize("module", [*IMPORT_GRAPH, "cli"])
    def test_a_module_loads_only_its_own_imports(self, module):
        # the package root imports no module, and a numeric module binds
        # numpy unexecuted; cli imports every module
        package = pathlib.Path(__file__).resolve().parent.parent / "src" / "ammauction"
        every = {path.stem for path in package.glob("*.py")} - {"__init__"}
        code = (
            "import json, sys\n"
            f"import ammauction.{module}\n"
            "loaded = [m.split('.', 1)[1] for m in sys.modules if m.startswith('ammauction.')]\n"
            "print(json.dumps([sorted(loaded), 'numpy._core' in sys.modules]))\n"
        )
        loaded, executed = json.loads(run_python(code))
        assert (set(loaded), executed) == (IMPORT_GRAPH.get(module, every), False)

    def test_replay_module_loads_neither_numpy_nor_the_simulator(self):
        # nor does a replay load them
        scenario = str(DATA / "depletion.jsonl")
        absent = ["numpy", "ammauction._numpy", "ammauction.sim", "ammauction.market",
                  "ammauction.pool", "ammauction.equilibrium"]
        code = (
            "import json, sys\n"
            "import ammauction.replay\n"
            f"trace = ammauction.replay.replay_auction({scenario!r})\n"
            f"loaded = [m for m in {absent!r} if m in sys.modules]\n"
            "print(json.dumps([loaded, trace.final_state_json]))\n"
        )
        loaded, final_state = json.loads(run_python(code))
        assert loaded == []
        assert final_state == replay_auction(scenario).final_state_json

    def test_commands_that_do_not_sample_leave_out_scipy_special(self, tmp_path):
        # nor scipy itself: these commands compute with numpy and the
        # standard library alone
        (tmp_path / "config.json").write_text(json.dumps(sim_config_dict(horizon=10)))
        argvs = [
            ["replay", str(DATA / "depletion.jsonl")],
            ["formulas"],
            ["equilibrium", "--grid", "16"],
            ["attack", str(tmp_path / "config.json")],
        ]
        code = (
            "import contextlib, io, sys\n"
            "from ammauction.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print('scipy.special' in sys.modules, 'scipy' in sys.modules)\n"
        )
        assert run_python(code).strip() == "False False"

    def test_simulate_leaves_out_scipy(self, tmp_path):
        # the simulator draws with numpy's own samplers
        (tmp_path / "config.json").write_text(json.dumps(sim_config_dict(horizon=10)))
        code = (
            "import contextlib, io, sys\n"
            "from ammauction.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['simulate', {str(tmp_path / 'config.json')!r}]) == 0\n"
            "print('scipy' in sys.modules, 'scipy.special' in sys.modules)\n"
        )
        assert run_python(code).strip() == "False False"

    def test_mc_validate_leaves_out_scipy(self):
        # mc-validate draws with the simulator's sampler, so no scipy
        # module is loaded
        argv = ["mc-validate", "--samples", "10000", "--fees", "0,0.003"]
        code = (
            "import contextlib, io, sys\n"
            "from ammauction.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert run_python(code).strip() == "[]"

    def test_numpy_executes_on_first_use(self, tmp_path):
        # import and replay leave numpy unexecuted; simulate executes it in
        # set-up, before run_sim (marked as ammbench/child.py marks it), into
        # the one module object every ammauction module bound at import
        (tmp_path / "config.json").write_text(json.dumps(sim_config_dict(horizon=10)))
        replay = ["replay", str(DATA / "depletion.jsonl"), "--out", str(tmp_path / "out")]
        code = (
            "import contextlib, io, sys\n"
            "import ammauction, ammauction.cli as cli\n"
            "seen = ['numpy._core' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({replay!r}) == 0\n"
            "seen.append('numpy._core' in sys.modules)\n"
            "run_sim = cli.run_sim\n"
            "def marked(*args, **kwargs):\n"
            "    seen.append('numpy.random' in sys.modules)\n"
            "    return run_sim(*args, **kwargs)\n"
            "cli.run_sim = marked\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['simulate', {str(tmp_path / 'config.json')!r}]) == 0\n"
            "np = ammauction.market.np\n"
            "seen.append(np is sys.modules['numpy'] and type(np) is type(sys))\n"
            "print(seen)\n"
        )
        assert run_python(code).strip() == "[False, False, True, True]"

    @pytest.mark.parametrize(
        "argv", [["formulas"], ["equilibrium", "--grid", "16"], ["attack", "{config}"]],
        ids=["formulas", "equilibrium", "attack"],
    )
    def test_commands_that_compute_with_numpy_execute_it_in_setup(self, argv, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps(sim_config_dict(horizon=10)))
        argv = [a.format(config=tmp_path / "config.json") for a in argv]
        command = "cmd_" + argv[0]
        code = (
            "import contextlib, io, sys\n"
            "import ammauction.cli as cli\n"
            "seen = []\n"
            f"command = cli.{command}\n"
            "def probed(args):\n"
            "    seen.append('numpy._core' in sys.modules)\n"
            "    return command(args)\n"
            f"cli.{command} = probed\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print(seen)\n"
        )
        assert run_python(code).strip() == "[True]"

    def test_a_second_thread_waits_for_numpy_to_execute(self):
        # the first use executes numpy under a lock: a thread that touches
        # numpy meanwhile gets the whole module, not a half-built one
        code = (
            "import sys, threading, time\n"
            "import ammauction.market\n"
            "started = threading.Event()\n"
            "class Pause:\n"
            "    def find_spec(self, name, path, target=None):\n"
            "        if name == 'numpy.version':\n"
            "            started.set()\n"
            "            time.sleep(0.5)\n"
            "sys.meta_path.insert(0, Pause())\n"
            "first = threading.Thread(target=lambda: ammauction.pool.np.ndarray)\n"
            "first.start()\n"
            "started.wait()\n"
            "print(ammauction.market.np.ndarray.__name__)\n"
            "first.join()\n"
        )
        assert run_python(code).strip() == "ndarray"

    @SAMPLING_COMMANDS
    def test_sampling_commands_load_their_sampler_before_the_work(self, argv, sampler, tmp_path):
        # in set-up: the import's time must not count as the run's
        (tmp_path / "config.json").write_text(json.dumps(sim_config_dict(horizon=10)))
        argv = [a.format(config=tmp_path / "config.json") for a in argv]
        code = (
            "import contextlib, io, sys\n"
            "import ammauction.cli as cli\n"
            f"assert {sampler!r} not in sys.modules\n"
            "seen = []\n"
            "def probe(fn):\n"
            "    def probed(*args, **kwargs):\n"
            f"        seen.append({sampler!r} in sys.modules)\n"
            "        return fn(*args, **kwargs)\n"
            "    return probed\n"
            "cli.run_sim = probe(cli.run_sim)\n"
            "cli.market.mc_rates = probe(cli.market.mc_rates)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print(seen)\n"
        )
        assert run_python(code).strip() == "[True]"

    @SAMPLING_COMMANDS
    def test_sampling_commands_freeze_their_sampler_with_the_import_time_heap(
        self, argv, sampler, tmp_path
    ):
        # gc.get_objects() lists every generation but the permanent one, so a
        # frozen module dict is not in it: shutdown's collections skip it
        (tmp_path / "config.json").write_text(json.dumps(sim_config_dict(horizon=10)))
        argv = [a.format(config=tmp_path / "config.json") for a in argv]
        code = (
            "import contextlib, gc, io, sys\n"
            "from ammauction.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            f"module = vars(sys.modules[{sampler!r}])\n"
            "print(any(obj is module for obj in gc.get_objects()))\n"
        )
        assert run_python(code).strip() == "False"

    def test_heap_is_frozen_once_per_process(self):
        # a second call must not freeze the first call's garbage
        code = (
            "import contextlib, gc, io\n"
            "from ammauction.cli import main\n"
            "counts = []\n"
            "for _ in range(2):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert main(['replay', {str(DATA / 'depletion.jsonl')!r}]) == 0\n"
            "    counts.append(gc.get_freeze_count())\n"
            "print(counts[0] > 0, counts[1] == counts[0])\n"
        )
        assert run_python(code).strip() == "True True"

    def test_sampling_commands_keep_their_bytes(self, tmp_path, capsys):
        # outputs of the commands that sample, pinned: the manifest line
        # aside, which names the installed versions
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sim_config_dict()))
        assert main(["simulate", str(path), "--out", str(tmp_path / "sim")]) == 0
        argv = ["mc-validate", "--samples", "20000", "--fees", "0,0.003", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "mc")]) == 0
        capsys.readouterr()
        want = {
            "sim/blocks.csv": "e8af1699c2d2cd8d7f1aa22c2cd44b884cc4adcef085c370cd890da65c5c9844",
            "mc/mc_validate.csv": "a49553f19c314a0b35de934ee3a21c463e61e02ee493b4ce3fdabd5ede8eaf6e",
        }
        for name, digest in want.items():
            body = (tmp_path / name).read_bytes().split(b"\n", 1)[1]
            assert hashlib.sha256(body).hexdigest() == digest, name
        payload = json.loads((tmp_path / "sim" / "report.json").read_text())
        report = json.dumps(payload["report"], sort_keys=True, indent=2).encode()
        assert hashlib.sha256(report).hexdigest() == (
            "d09bbba17fa0640e621b6f2932cf0f9339e21ba19df5cde419dd249ec1f5bbba"
        )
        hashes = [payload["manifest"]["config_hash"],
                  read_csv(tmp_path / "mc" / "mc_validate.csv")[0]["config_hash"]]
        assert hashes == ["490a054fee752c13", "ff47fc316938ebb5"]


class TestTracerHooks:
    def test_benchmark_child_finds_every_marked_name(self):
        # ammbench/child.py marks these names on cli right after importing
        # it; a refactor that drops one would fail only inside a benchmark run
        for name in ("run_sim", "replay_auction", "dominance_report"):
            assert callable(getattr(cli, name)), name
        assert cli.market is market
        assert callable(cli.market.mc_rates)

    def test_benchmark_tracer_finds_every_wrapped_name(self):
        # ammbench/spans.py rebinds package functions by name; a refactor that
        # drops one of those module attributes must fail here
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        code = "import ammbench.spans as s, ammauction.cli as c; s.install(s.Tracer(), c)"
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
