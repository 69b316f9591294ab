"""Self-tests of the benchmark; not part of the package's test suite.

Run from the repository root::

    python3 -m pytest -q ammbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(name, trace=False, mutate=None):
    return run.run_workload(name, seed=0, seconds=0, trace=trace, size="smoke",
                            min_passes=2, mutate=mutate)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_workload_passes_its_checks(name):
    result = smoke(name)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] > 10
    metrics = result["metrics"]
    for key in run.END_TO_END:
        assert metrics[key] > 0, key
    assert metrics["failed_frac"] == 0
    named = {"rates": ("samples_per_s", "solves_per_s")}.get(name, ("blocks_per_s",))
    for key in named:
        assert metrics[key] > 0, key


def test_corrupt_closed_form_counts_as_failed():
    def corrupt(wl):
        for argv in wl.argvs:
            if argv[0] == "mc-validate":
                argv.append("--corrupt-closed-form")

    result = smoke("rates", mutate=corrupt)
    assert not result["correct"]
    assert result["metrics"]["failed_frac"] > 0
    assert any("mc-validate exited 1" in f for f in result["failures"])


def test_traced_run_emits_every_layer_metric():
    result = smoke("sim-depleting", trace=True)
    assert result["correct"], result["failures"]
    metrics = result["metrics"]
    assert set(spans.LAYER_METRICS) <= set(metrics)
    # the layers this workload runs read nonzero
    for key in (
        "pool.arb_trade_to_band.calls", "pool.trade_ratio", "auction.advance_block.calls",
        "auction.events", "market.sample_blocks.draws", "market.draw_bytes",
        "equilibrium.manager_optimal_fee.self_s", "equilibrium.scalar_rate_evals",
        "sim.run_sim.self_s", "sim.run_sim.us_per_block", "sim.unmanaged_blocks",
        "cli.import_s", "cli.main.self_s", "cli.write_s", "cli.output_bytes",
    ):
        assert metrics[key] > 0, key
    # and the ones it does not run read zero
    for key in ("market.mc_rates.self_s", "equilibrium.solve_ff_liquidity.calls",
                "sim.replay_auction.self_s", "sim.trace_rows"):
        assert metrics[key] == 0, key


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == spans.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, name):
    def files(seed, where):
        workloads.generate(name, seed, where, "smoke")
        return {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    assert files(3, tmp_path / "a") == files(3, tmp_path / "b")
    if name != "rates":  # rates runs fixed inputs; see workloads.MC_SEED
        assert files(3, tmp_path / "c") != files(4, tmp_path / "d")


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "ammbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "ammbench/run.py", "--workload", "sim-managed", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.xfail(strict=True, reason="known defect: mc-validate's standard error is "
                   "too small in the rare-event cell, so seed 2 fails |z| <= 3")
def test_rare_event_cell_at_another_seed():
    from ammauction.market import MarketParams, ae0, mc_rates

    params = MarketParams(sigma=0.02, delta_t=0.005, r=1e-4, f_max=0.05)
    est = mc_rates(0.01, params, 1_000_000, seed=2)
    assert abs(est.ae0_hat - ae0(0.01, params)) <= 3.0 * est.ae0_se
