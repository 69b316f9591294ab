"""Output checks of one benchmark pass.

Every check reads what the ``ammauction`` CLI wrote and compares it with
what the workload generator expects. The checks are semantic: they parse
values out of the outputs and never pin today's byte layout, except that
two passes of the same inputs must write identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

from workloads import RATE_SETS, Workload

# primary outputs per workload, relative to a pass's output directory
PRIMARY = {
    "sim-managed": ("report.json", "blocks.csv"),
    "sim-depleting": ("report.json", "blocks.csv"),
    "replay-gaps": ("trace.csv", "final_state.json"),
    "rates": tuple(
        f"set{j}/{name}"
        for j in range(len(RATE_SETS))
        for name in ("mc_validate.csv", "equilibrium.csv")
    ),
}


class Checks:
    """Counts attempted and failed checks and keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def run(self, fn, *args, what: str) -> None:
        """Run a group of checks; an exception inside counts as one failure."""
        try:
            fn(self, *args)
        except Exception as exc:  # a malformed or missing output is a failed check
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def output_hashes(workload: str, out_dir: Path) -> dict[str, str]:
    hashes = {}
    for rel in PRIMARY[workload]:
        path = out_dir / rel
        hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
    return hashes


def check_pass(c: Checks, wl: Workload, out_dir: Path, exit_codes: list[int],
               golden: Path) -> None:
    """Check the outputs of one pass of ``wl`` written under ``out_dir``."""
    for argv0, rc in zip((a[0] for a in wl.argvs), exit_codes):
        c.check(rc == 0, f"{argv0} exited {rc}")
    if wl.name.startswith("sim-"):
        c.run(_check_sim, wl, out_dir, what="report.json")
    elif wl.name == "replay-gaps":
        c.run(_check_replay, wl, out_dir, what="replay outputs")
    else:
        for j in range(wl.expect["sets"]):
            c.run(_check_mc, out_dir / f"set{j}", what=f"set{j} mc_validate.csv")
            c.run(_check_dominance, out_dir / f"set{j}", wl.expect["grid"],
                  what=f"set{j} equilibrium.csv")
        c.run(_check_golden, out_dir / f"set{wl.expect['ref_set']}", golden,
              what="dominance golden")


def check_identical(c: Checks, first: dict[str, str], again: dict[str, str]) -> None:
    for rel, digest in first.items():
        c.check(bool(digest) and again.get(rel) == digest,
                f"{rel} differs between two passes of the same inputs")


def _check_sim(c: Checks, wl: Workload, out_dir: Path) -> None:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["report"]
    c.check(abs(report["accounting_drift"]) <= 1e-9,
            f"|accounting_drift| = {abs(report['accounting_drift']):.3e} > 1e-9")
    c.check(report["max_end_mispricing"] <= 1e-12,
            f"max_end_mispricing = {report['max_end_mispricing']:.3e} > 1e-12")
    for key, want in wl.expect.items():
        c.check(report[key] == want, f"{key} = {report[key]}, expected {want}")


def _check_replay(c: Checks, wl: Workload, out_dir: Path) -> None:
    exp = wl.expect
    rows = _read_csv(out_dir / "trace.csv")
    state = json.loads((out_dir / "final_state.json").read_text(encoding="utf-8"))
    actions = [r for r in rows if r["origin"] == "scenario"]
    c.check(len(actions) == exp["actions"],
            f"{len(actions)} scenario rows, expected {exp['actions']}")
    refused = [r for r in actions if r["status"] != "ok"]
    c.check(not refused, f"{len(refused)} scenario actions refused, first: {refused[:1]}")
    events = Counter(r["action"] for r in rows if r["origin"] == "auction" and r["action"] != "rent")
    c.check(dict(sorted(events.items())) == exp["events"],
            f"auction events {dict(events)}, expected {exp['events']}")

    # rent rows may be coalesced; only their sum is fixed
    rent_rows = sum((Fraction(r["amount"]) for r in rows if r["action"] == "rent"), Fraction(0))
    distributed = Fraction(state["rent_distributed"])
    c.check(rent_rows == distributed, f"rent rows sum to {rent_rows}, state has {distributed}")
    c.check(distributed == Fraction(exp["rent_distributed"]),
            f"rent_distributed {distributed}, expected {exp['rent_distributed']}")
    c.check(Fraction(state["refunds"]) == Fraction(exp["refunds"]),
            f"refunds {state['refunds']}, expected {exp['refunds']}")

    live = sum(
        (Fraction(b["deposit"]) for b in [state["top"], state["next"], *state["pending"]] if b),
        Fraction(0),
    )
    posted = Fraction(state["deposits_posted"])
    gap = posted - (distributed + Fraction(state["refunds"]) + live)
    c.check(gap == 0, f"conservation gap {gap}")
    c.check(posted == Fraction(exp["deposits_posted"]),
            f"deposits_posted {posted}, expected {exp['deposits_posted']}")
    c.check(state["current_block"] == exp["final_block"],
            f"final block {state['current_block']}, expected {exp['final_block']}")


def _check_mc(c: Checks, out_dir: Path) -> None:
    rows = _read_csv(out_dir / "mc_validate.csv")
    c.check(len(rows) > 0, "mc_validate.csv has no rows")
    for row in rows:
        for col in ("z_ap0", "z_ae0"):
            z = float(row[col])
            c.check(abs(z) <= 3.0, f"fee {row['f']}: |{col}| = {abs(z):.2f} > 3")


def _check_dominance(c: Checks, out_dir: Path, grid: int) -> None:
    rows = _read_csv(out_dir / "equilibrium.csv")
    c.check(len(rows) == grid, f"{len(rows)} dominance rows, expected {grid}")
    worst = max(float(r["L_ff"]) - float(r["L_star"]) for r in rows)
    c.check(worst < 0.0, f"a fixed fee reaches L_ff - L_star = {worst:.6g} >= 0")


def _check_golden(c: Checks, out_dir: Path, golden: Path) -> None:
    got, want = _read_csv(out_dir / "equilibrium.csv"), _read_csv(golden)
    c.check(len(got) == len(want), f"{len(got)} rows, golden has {len(want)}")
    bad = [
        (i, key)
        for i, (g, w) in enumerate(zip(got, want))
        for key in w
        if not math.isclose(float(g[key]), float(w[key]), rel_tol=1e-9, abs_tol=1e-15)
    ]
    c.check(not bad, f"{len(bad)} cells off the golden table by more than rel 1e-9: {bad[:3]}")
