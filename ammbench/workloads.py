"""Seeded inputs for the benchmark workloads.

:func:`generate` writes the config and scenario files one workload reads and
returns a :class:`Workload`: the ``ammauction`` command lines of one pass,
the number of items a pass processes and what the output checks expect.
The same seed always gives the same files; nothing else about the machine or
the run enters them.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sim-managed", "sim-depleting", "replay-gaps", "rates")

# Placeholder in a command line for the pass's own output directory.
OUT = "{out}"

REF_MARKET = {
    "sigma": 0.05,
    "delta_t": 0.01,
    "r": 1e-4,
    "f_max": 0.05,
    "c0": 25.0,
    "c1": 120.0,
    "alpha": 0.5,
}
# The acceptance suite's parameter sets: sigma x delta_t.
RATE_SETS = ((0.02, 0.005), (0.02, 0.01), (0.05, 0.005), (0.05, 0.01))
MC_FEES = "0,0.001,0.003,0.01"
# Monte-Carlo seed of the rates workload: the one acceptance criterion 1
# validates. At other seeds the rare-event cell (sigma 0.02, delta_t 0.005,
# fee 0.01) can fail mc-validate's own |z| <= 3 check on correct closed
# forms; README.md records this as a known defect.
MC_SEED = 0
K_DELAY = 5

SIZES = {
    "full": {"horizon": 20_000, "rounds": 16, "gap_lo": 1_000, "gap_hi": 4_000,
             "samples": 1_000_000, "grid": 64},
    # the rare-event rates cell needs about 1e6 samples for its z-scores to hold
    "smoke": {"horizon": 2_000, "rounds": 4, "gap_lo": 200, "gap_hi": 400,
              "samples": 1_000_000, "grid": 64},
}


@dataclass
class Workload:
    name: str
    argvs: list[list[str]]  # one ammauction.cli.main call each, OUT unexpanded
    items: int  # blocks per pass, or parameter sets for rates
    blocks: int = 0
    samples: int = 0  # Monte-Carlo samples per pass
    solves: int = 0  # dominance solves per pass
    expect: dict = field(default_factory=dict)

    def pass_argvs(self, out_dir: Path) -> list[list[str]]:
        return [[a.replace(OUT, str(out_dir)) for a in argv] for argv in self.argvs]


def generate(name: str, seed: int, in_dir: Path, size: str = "full") -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``in_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    in_dir.mkdir(parents=True, exist_ok=True)
    sz = SIZES[size]
    rng = random.Random(f"{name}:{seed}")
    if name == "sim-managed":
        return _sim_managed(seed, in_dir, sz["horizon"])
    if name == "sim-depleting":
        return _sim_depleting(seed, rng, in_dir, sz["horizon"])
    if name == "replay-gaps":
        return _replay_gaps(rng, in_dir, sz["rounds"], sz["gap_lo"], sz["gap_hi"])
    return _rates(in_dir, sz["samples"], sz["grid"])


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def _exact(value: float) -> Fraction:
    # the simulator reads config floats through their shortest decimal form
    return Fraction(Decimal(repr(value)))


def _bid(bidder: str, rent_micro: int, blocks: int) -> dict:
    rent = rent_micro / 1e6
    deposit = rent_micro * blocks / 1e6
    if _exact(deposit) != _exact(rent) * blocks:
        raise AssertionError(f"deposit {deposit!r} is not {blocks} x rent {rent!r}")
    return {"bidder": bidder, "rent": rent, "deposit": deposit}


def _sim_config(seed: int, horizon: int, bids: list[dict], **policy) -> dict:
    return {
        "schema_version": 1,
        "horizon_blocks": horizon,
        "seed": seed,
        "market": REF_MARKET,
        "k_delay": K_DELAY,
        **policy,
        "initial_bids": bids,
    }


def _simulate(name: str, config_path: Path, horizon: int, expect: dict) -> Workload:
    return Workload(
        name=name,
        argvs=[["simulate", str(config_path), "--out", OUT]],
        items=horizon,
        blocks=horizon,
        expect={"horizon_blocks": horizon, **expect},
    )


def _sim_managed(seed: int, in_dir: Path, horizon: int) -> Workload:
    # acceptance criterion 8's config: one manager whose deposit outlasts the run
    config = _sim_config(
        seed, horizon, [_bid("mgr", 1, horizon + 10)],
        manager_policy="fixed", manager_fee=0.003,
    )
    path = in_dir / "sim_config.json"
    _write_json(path, config)
    return _simulate("sim-managed", path, horizon,
                     {"usurps": 0, "depletions": 0, "unmanaged_blocks": 0})


def _sim_depleting(seed: int, rng: random.Random, in_dir: Path, horizon: int) -> Workload:
    # top runs out a quarter of the way in, the runner-up at half way; the
    # rest of the run is unmanaged at the default fee
    quarter = horizon // 4
    top = rng.randint(2, 9)
    runner = rng.randint(1, top - 1)
    config = _sim_config(
        seed, horizon,
        [_bid("top", top, quarter), _bid("runner_up", runner, quarter)],
        manager_policy="optimal",
    )
    path = in_dir / "sim_config.json"
    _write_json(path, config)
    return _simulate("sim-depleting", path, horizon, {
        "usurps": 1,  # the runner-up's promotion when the top depletes
        "depletions": 2,
        "unmanaged_blocks": horizon - 2 * quarter,
    })


def _replay_gaps(rng: random.Random, in_dir: Path, rounds: int, gap_lo: int,
                 gap_hi: int) -> Workload:
    """Rounds of rising bids separated by long gaps.

    Every round starts with the seat vacant and leaves it vacant: its bids
    activate, usurp and deplete inside the gap, so the expected events follow
    from the generated amounts. Gaps come in pairs summing to
    ``gap_lo + gap_hi`` and bids pay rent for 3/5 of each gap, so every seed
    replays the same number of blocks with nearly the same managed share.
    """
    half = [rng.randint(gap_lo, gap_hi) for _ in range(rounds // 2)]
    gaps = half + [gap_lo + gap_hi - g for g in half]
    rng.shuffle(gaps)

    lines: list[dict] = [{"k_delay": K_DELAY, "fee_cap": 0.05}]
    events: Counter = Counter()
    rent_total = refunds = posted = 0
    rent = 10
    start = 10

    def act(block: int, action: str, **kw) -> None:
        lines.append({"block": block, "action": action, **kw})

    def rising() -> int:
        nonlocal rent
        current, rent = rent, math.ceil(rent * 6 / 5)
        return current

    for i, gap in enumerate(gaps):
        managed = gap * 3 // 5
        lp = f"lp{i % 3}"
        step = max(1, gap // 100)
        top_up, cut = rng.randint(1, step), rng.randint(1, step)
        fee = rng.choice((0.001, 0.002, 0.003, 0.005, 0.01))
        act(start, "register_lp", lp=lp, shares=rng.randint(1, 9))
        if i % 2 == 0:
            # one bid: activates into the vacant seat, tops up, trims, depletes
            r = rising()
            seated = start + K_DELAY
            act(start, "submit_bid", bidder=f"b{i}", rent=r, deposit=r * (managed - top_up + cut))
            act(seated + 1, "set_fee", bidder=f"b{i}", fee=fee)
            act(seated + 2, "top_up", bidder=f"b{i}", amount=r * top_up)
            act(seated + 3, "reduce_deposit", bidder=f"b{i}", amount=r * cut)
            act(seated + 4, "claim_rent", lp=lp)
            events.update(activated=1, usurped=1, depleted=1)
            rent_total += r * managed
            refunds += r * cut
            posted += r * (managed + cut)
        else:
            # two bids: the second outbids the first, which waits in the
            # runner-up slot, trims its deposit there and is promoted when the
            # second depletes
            r1, r2 = rising(), rising()
            wait = rng.randint(1, max(1, gap // 200))
            left = rng.randint(gap // 40, gap // 20)
            cut1 = rng.randint(1, max(1, left // 3))
            first_seated = start + K_DELAY
            second_submitted = first_seated + wait
            second_seated = second_submitted + K_DELAY
            d1 = K_DELAY + wait + left
            m2 = managed - (K_DELAY + wait) - (left - cut1)
            act(start, "submit_bid", bidder=f"b{i}", rent=r1, deposit=r1 * d1)
            act(first_seated + 1, "set_fee", bidder=f"b{i}", fee=fee)
            act(second_submitted, "submit_bid", bidder=f"c{i}", rent=r2,
                deposit=r2 * (m2 - top_up + cut))
            act(second_seated + 1, "set_fee", bidder=f"c{i}", fee=fee)
            act(second_seated + 2, "top_up", bidder=f"c{i}", amount=r2 * top_up)
            act(second_seated + 3, "reduce_deposit", bidder=f"c{i}", amount=r2 * cut)
            act(second_seated + 4, "claim_rent", lp=lp)
            act(second_seated + 5, "reduce_deposit", bidder=f"b{i}", amount=r1 * cut1)
            events.update(activated=2, usurped=3, demoted=1, depleted=2)
            rent_total += r1 * (d1 - cut1) + r2 * m2
            refunds += r1 * cut1 + r2 * cut
            posted += r1 * d1 + r2 * (m2 + cut)
        start += gap
    act(start, "advance")

    path = in_dir / "scenario.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return Workload(
        name="replay-gaps",
        argvs=[["replay", str(path), "--out", OUT]],
        items=start,
        blocks=start,
        expect={
            "final_block": start,
            "actions": len(lines) - 1,
            "events": dict(sorted(events.items())),
            "rent_distributed": str(rent_total),
            "refunds": str(refunds),
            "deposits_posted": str(posted),
        },
    )


def _rates(in_dir: Path, samples: int, grid: int) -> Workload:
    argvs = []
    ref_set = None
    for j, (sigma, delta_t) in enumerate(RATE_SETS):
        path = in_dir / f"params_{j}.json"
        _write_json(path, {"schema_version": 1, **REF_MARKET, "sigma": sigma, "delta_t": delta_t})
        if (sigma, delta_t) == (REF_MARKET["sigma"], REF_MARKET["delta_t"]):
            ref_set = j
        out = f"{OUT}/set{j}"
        argvs.append(["mc-validate", "--config", str(path), "--fees", MC_FEES,
                      "--samples", str(samples), "--seed", str(MC_SEED), "--out", out])
        argvs.append(["equilibrium", "--config", str(path), "--grid", str(grid), "--out", out])
    n_sets = len(RATE_SETS)
    return Workload(
        name="rates",
        argvs=argvs,
        items=n_sets,
        samples=n_sets * len(MC_FEES.split(",")) * samples,
        solves=n_sets,
        expect={"sets": n_sets, "ref_set": ref_set, "grid": grid},
    )
