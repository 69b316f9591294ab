"""Spans around the calls into ammauction's layers, recorded from outside.

:func:`install` rebinds each traced public function where its caller looks
it up, so the package itself is unchanged. A span is (name, parent span,
start, end) in monotonic nanoseconds; spans stay in memory and
:meth:`Tracer.dump` writes them once, when the pass ends. Counters are taken
at the same boundaries from the arguments and results of the calls.
:func:`layer_metrics` turns a dumped pass into the per-layer metrics.
"""

from __future__ import annotations

import builtins
import pathlib
import time
from array import array
from collections import defaultdict

clock = time.monotonic_ns

# (unit, better) of every per-layer metric, in report order
LAYER_METRICS = {
    "pool.arb_trade_to_band.calls": ("count", "lower"),
    "pool.arb_trade_to_band.self_s": ("s", "lower"),
    "pool.trade_ratio": ("ratio", "higher"),
    "auction.advance_block.calls": ("count", "lower"),
    "auction.advance_block.self_s": ("s", "lower"),
    "auction.advance_block.us_per_call": ("us", "lower"),
    "auction.events": ("count", "lower"),
    "auction.event_ratio": ("ratio", "higher"),
    "market.sample_blocks.self_s": ("s", "lower"),
    "market.sample_blocks.draws": ("count", "lower"),
    "market.mc_rates.self_s": ("s", "lower"),
    "market.mc_rates.ns_per_sample": ("ns", "lower"),
    "market.draw_bytes": ("B", "lower"),
    "equilibrium.dominance_report.self_s": ("s", "lower"),
    "equilibrium.solve_am_equilibrium.self_s": ("s", "lower"),
    "equilibrium.solve_ff_liquidity.calls": ("count", "lower"),
    "equilibrium.manager_optimal_fee.self_s": ("s", "lower"),
    "equilibrium.scalar_rate_evals": ("count", "lower"),
    "sim.run_sim.self_s": ("s", "lower"),
    "sim.run_sim.us_per_block": ("us", "lower"),
    "sim.replay_auction.self_s": ("s", "lower"),
    "sim.trace_rows": ("count", "lower"),
    "sim.unmanaged_blocks": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.rec = array("q")  # four int64 per span: name id, parent index, start, end
        self.stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def traced(self, fn, name: str, after=None):
        """``fn`` wrapped in a span; ``after(counters, result)`` counts results."""
        nid = self.name_id(name)
        rec, stack, counters = self.rec, self.stack, self.counters

        def traced_call(*args, **kwargs):
            idx = len(rec) >> 2
            rec.extend((nid, stack[-1], clock(), 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4 * idx + 3] = clock()
            if after is not None:
                after(counters, result)
            return result

        return traced_call

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        setattr(owner, attr, self.traced(getattr(owner, attr), name, after))

    def count_inside(self, owner, attr: str, counter: str, prefix: str) -> None:
        """Count calls to ``owner.attr`` made while a ``prefix`` span is innermost."""
        fn = getattr(owner, attr)
        rec, stack, counters, names = self.rec, self.stack, self.counters, self.names

        def counted(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[rec[4 * top]].startswith(prefix):
                counters[counter] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def dump(self, path: pathlib.Path) -> None:
        with open(path, "wb") as fh:
            self.rec.tofile(fh)


class _TracedFile:
    """A file object whose ``write`` calls are spans."""

    def __init__(self, fh, write) -> None:
        self._fh = fh
        self.write = write

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _count(name: str):
    def after(counters, result) -> None:
        if result is not None:
            counters[name] += 1
    return after


def _auction_events(counters, events) -> None:
    counters["auction.events"] += sum(ev.kind != "rent" for ev in events)


def _draws(counters, result) -> None:
    tau, z = result
    counters["market.sample_blocks.draws"] += len(tau)
    counters["market.draw_bytes"] += tau.nbytes + z.nbytes


def _mc_samples(counters, result) -> None:
    counters["market.mc_rates.samples"] += result.n_samples


def _sim_report(counters, report) -> None:
    counters["sim.run_sim.blocks"] += report.horizon_blocks
    counters["sim.unmanaged_blocks"] += report.unmanaged_blocks


def _replay_trace(counters, trace) -> None:
    counters["sim.trace_rows"] += len(trace.rows)


def install(tracer: Tracer, cli) -> None:
    """Trace the layers under ``ammauction.cli`` (already imported)."""
    from ammauction import auction, equilibrium, market, sim

    # names the caller imported into its own namespace are wrapped there
    tracer.wrap(cli, "run_sim", "sim.run_sim", _sim_report)
    tracer.wrap(cli, "replay_auction", "sim.replay_auction", _replay_trace)
    tracer.wrap(cli, "dominance_report", "equilibrium.dominance_report")
    tracer.wrap(sim, "arb_trade_to_band", "pool.arb_trade_to_band", _count("pool.trades"))
    # module attributes cover both outside callers and calls inside the module
    for attr in ("solve_am_equilibrium", "solve_ff_liquidity", "manager_optimal_fee"):
        tracer.wrap(equilibrium, attr, f"equilibrium.{attr}")
    tracer.wrap(market, "mc_rates", "market.mc_rates", _mc_samples)
    tracer.wrap(market, "sample_blocks", "market.sample_blocks", _draws)
    for attr in ("ap0", "ae0"):
        tracer.count_inside(market, attr, "equilibrium.scalar_rate_evals", "equilibrium.")
    tracer.wrap(auction.AuctionState, "advance_block", "auction.advance_block", _auction_events)

    # output writes: files cli opens, and the JSON it writes through Path
    def traced_open(*args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        return _TracedFile(fh, tracer.traced(fh.write, "cli.write"))

    write_text = tracer.traced(pathlib.Path.write_text, "cli.write")

    class TracedPath(type(pathlib.Path())):
        def write_text(self, *args, **kwargs):
            return write_text(self, *args, **kwargs)

    cli.open = traced_open
    cli.Path = TracedPath


def layer_metrics(names: list[str], spans_path: pathlib.Path, counters: dict,
                  import_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace_overhead_frac`` excluded).

    A span's self time is its duration minus the durations of its child spans.
    """
    import numpy as np

    rec = np.fromfile(spans_path, dtype=np.int64).reshape(-1, 4)
    nid, parent = rec[:, 0], rec[:, 1]
    dur = (rec[:, 3] - rec[:, 2]).astype(float)
    nested = parent >= 0
    self_ns = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(rec))
    n = len(names)
    calls = np.bincount(nid, minlength=n)
    total_s = np.bincount(nid, weights=dur, minlength=n) / 1e9
    self_s = np.bincount(nid, weights=self_ns, minlength=n) / 1e9

    def get(arr, name: str) -> float:
        return float(arr[names.index(name)]) if name in names else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    arb_calls = get(calls, "pool.arb_trade_to_band")
    adv_calls = get(calls, "auction.advance_block")
    mc_samples = counters.get("market.mc_rates.samples", 0)
    run_sim_blocks = counters.get("sim.run_sim.blocks", 0)
    return {
        "pool.arb_trade_to_band.calls": arb_calls,
        "pool.arb_trade_to_band.self_s": get(self_s, "pool.arb_trade_to_band"),
        "pool.trade_ratio": ratio(counters.get("pool.trades", 0), arb_calls),
        "auction.advance_block.calls": adv_calls,
        "auction.advance_block.self_s": get(self_s, "auction.advance_block"),
        "auction.advance_block.us_per_call":
            ratio(get(total_s, "auction.advance_block") * 1e6, adv_calls),
        "auction.events": counters.get("auction.events", 0),
        "auction.event_ratio": ratio(counters.get("auction.events", 0), adv_calls),
        "market.sample_blocks.self_s": get(self_s, "market.sample_blocks"),
        "market.sample_blocks.draws": counters.get("market.sample_blocks.draws", 0),
        "market.mc_rates.self_s": get(self_s, "market.mc_rates"),
        "market.mc_rates.ns_per_sample": ratio(get(total_s, "market.mc_rates") * 1e9, mc_samples),
        "market.draw_bytes": counters.get("market.draw_bytes", 0),
        "equilibrium.dominance_report.self_s": get(self_s, "equilibrium.dominance_report"),
        "equilibrium.solve_am_equilibrium.self_s": get(self_s, "equilibrium.solve_am_equilibrium"),
        "equilibrium.solve_ff_liquidity.calls": get(calls, "equilibrium.solve_ff_liquidity"),
        "equilibrium.manager_optimal_fee.self_s": get(self_s, "equilibrium.manager_optimal_fee"),
        "equilibrium.scalar_rate_evals": counters.get("equilibrium.scalar_rate_evals", 0),
        "sim.run_sim.self_s": get(self_s, "sim.run_sim"),
        "sim.run_sim.us_per_block": ratio(get(total_s, "sim.run_sim") * 1e6, run_sim_blocks),
        "sim.replay_auction.self_s": get(self_s, "sim.replay_auction"),
        "sim.trace_rows": counters.get("sim.trace_rows", 0),
        "sim.unmanaged_blocks": counters.get("sim.unmanaged_blocks", 0),
        "cli.import_s": import_s,
        "cli.main.self_s": get(self_s, "cli.main"),
        "cli.write_s": get(total_s, "cli.write"),
        "cli.output_bytes": output_bytes,
    }
