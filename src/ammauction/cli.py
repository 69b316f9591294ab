"""Operator command line: closed-form tables, Monte-Carlo validation,
equilibrium reports, simulation runs, and auction scenario replay.

Outputs are plot-tool-agnostic CSV (and JSON for simulation reports). Every
output file embeds a manifest header carrying the command, tool version,
Python version, the versions of the libraries that compute it (numpy's,
except in ``replay``'s ``trace.csv``, which exact ``Fraction`` arithmetic
computes; and scipy's in ``mc_validate.csv``, the one output scipy computes),
seed, and a hash of the effective configuration, so a run can be reproduced
from its artifacts alone. Exit codes are a stable contract for CI:

    0  success / validation passed
    1  validation failed (Monte Carlo vs closed form, or dominance)
    2  usage, config, or parse error (``simulate`` needs ``horizon_blocks``
       of at least 2), an unusable path, a simulation report with a
       non-finite field (no ``report.json`` is written), a value too large
       to compute (a fee that overflows the closed forms), or a sample count
       whose buffers cannot be allocated
    3  no positive finite equilibrium
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence, TextIO

from . import __version__, market
from ._numpy import np
from .auction import read_json_object, read_utf8
from .equilibrium import BracketError, DominanceReport, dominance_report
from .market import MarketParams
from .replay import TRACE_HEADER, replay_auction
from .sim import ConfigError, SimConfig, check_seed, run_sim, run_strategic_withdrawal_attack

_DEFAULTS = {
    "sigma": 0.05,
    "delta_t": 0.01,
    "r": 1e-4,
    "f_max": 0.05,
    "c0": 25.0,
    "c1": 120.0,
    "alpha": 0.5,
}

PARAMS_SCHEMA_VERSION = 1


# Seed-for-seed byte identity rests on numpy's Philox stream and samplers,
# and in mc-validate on scipy's ndtri too, so the manifest names the versions
# that produced an output.
_PYTHON_VERSION = "{}.{}.{}".format(*sys.version_info[:3])


def _manifest(
    command: str, config: dict, seed: int | None, outputs: list[str],
    libraries: Sequence[str] = ("numpy",),
) -> dict:
    """The manifest of an output; ``libraries`` are the packages that compute
    it, each named with its version."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "version": __version__,
        "python": _PYTHON_VERSION,
        "seed": seed,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:16],
        "outputs": outputs,
    }
    for name in libraries:
        manifest[name] = importlib.import_module(name).__version__
    return manifest


def _write_manifest(fh: TextIO, manifest: dict) -> None:
    fh.write("# manifest " + json.dumps(manifest, sort_keys=True) + "\n")


def _emit_csv(
    out: Path | None, name: str, manifest: dict, header: Sequence[str], rows: Iterable[tuple]
) -> Path | None:
    """Write a CSV under its manifest line to ``out / name``, or to stdout when
    ``out`` is None; the path written, if any. Floats are written as ``repr``,
    and a field with a comma, quote or line feed is quoted."""
    path = None if out is None else out / name
    with (
        nullcontext(sys.stdout)
        if path is None
        else open(path, "w", encoding="utf-8", newline="\n")
    ) as fh:
        _write_manifest(fh, manifest)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _read_json_file(path: str) -> object:
    """The value of a JSON file; text that is not UTF-8, or an integer past
    Python's digit limit, is an error naming the file."""
    text = read_utf8(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer past Python's digit limit
        raise ConfigError(f"{path}: unreadable number ({exc})")


def _add_params_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("market parameters")
    group.add_argument("--config", metavar="PATH", help="JSON file with market parameters")
    for name in _DEFAULTS:
        group.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)


def _load_params(args: argparse.Namespace) -> MarketParams:
    values = dict(_DEFAULTS)
    if args.config:
        raw = _read_json_file(args.config)
        read_json_object(raw, MarketParams, "params config", extra=("schema_version",), required=())
        version = raw.pop("schema_version", PARAMS_SCHEMA_VERSION)
        if version != PARAMS_SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {PARAMS_SCHEMA_VERSION}, got {version!r}")
        values.update(raw)
    for name in _DEFAULTS:
        override = getattr(args, name)
        if override is not None:
            values[name] = override
    return MarketParams(**values)


def _parse_fees(args: argparse.Namespace, params: MarketParams) -> list[float]:
    if args.fees:
        tokens = [tok.strip() for tok in args.fees.split(",") if tok.strip()]
        try:
            fees = [float(tok) for tok in tokens]
        except ValueError:
            raise ConfigError(f"--fees must be a comma-separated float list, got {args.fees!r}")
        if not fees:
            raise ConfigError(f"--fees must list at least one fee, got {args.fees!r}")
        for tok, f in zip(tokens, fees):
            if not (math.isfinite(f) and f >= 0.0):
                raise ConfigError(f"--fees must list finite non-negative fees, got {tok}")
        return fees
    n = args.grid
    if n < 2:  # the grid spans [0, f_max] end to end
        raise ConfigError(f"--grid must be at least 2, got {n}")
    return [params.f_max * i / (n - 1) for i in range(n)]


def _out_dir(args: argparse.Namespace) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_formulas(args: argparse.Namespace) -> int:
    params = _load_params(args)
    fees = _parse_fees(args, params)
    if not (args.liquidity > 0.0 and math.isfinite(args.liquidity)):
        raise ConfigError(f"--liquidity must be positive and finite, got {args.liquidity}")
    fee = np.array(fees)
    # .tolist() gives built-in floats, which the CSV writer writes as repr
    columns = [
        market.ap0(fee, params).tolist(),
        market.ae0(fee, params).tolist(),
        market.excess_ratio(fee, params).tolist(),
        market.noise_volume_per_value(fee, args.liquidity, params).tolist(),
    ]
    rows = zip(fees, *columns)
    header = ("f", "ap0", "ae0", "ratio", "H0")
    manifest = _manifest(
        "formulas",
        {"params": params.__dict__, "fees": fees, "liquidity": args.liquidity},
        None,
        ["formulas.csv"],
    )
    path = _emit_csv(_out_dir(args), "formulas.csv", manifest, header, rows)
    if path is not None:
        print(f"wrote {path}")
    return 0


def _zscore(estimate: float, reference: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if estimate == reference else math.inf
    return (estimate - reference) / se


def cmd_mc_validate(args: argparse.Namespace) -> int:
    params = _load_params(args)
    if args.samples < 10_000:
        raise ConfigError(f"--samples must be at least 10000, got {args.samples}")
    if args.chains < 2:  # the profit estimator's SE is taken across chains
        raise ConfigError(f"--chains must be at least 2, got {args.chains}")
    fees = _parse_fees(args, params)
    check_seed(args.seed)
    closed = params
    if args.corrupt_closed_form:  # negative-control hook: skews the reference only
        closed = replace(params, sigma=params.sigma * 1.5)
    out = _out_dir(args)  # an unusable --out fails here, before the estimate
    header = ("f", "ap0_hat", "ap0_se", "ap0_ref", "z_ap0", "ae0_hat", "ae0_se", "ae0_ref", "z_ae0", "pass")
    fee = np.array(fees)
    # the references first: a fee they cannot evaluate fails before the estimate
    refs = (market.ap0(fee, closed).tolist(), market.ae0(fee, closed).tolist())
    # one call for every fee; .tolist() gives built-in floats, which the CSV
    # writer writes as repr
    est = market.mc_rates(fee, params, args.samples, seed=args.seed, chains=args.chains)
    estimates = zip(fees, *refs, est.ap0_hat.tolist(), est.ap0_se.tolist(), est.ae0_hat.tolist(),
                    est.ae0_se.tolist())
    rows = []
    all_pass = True
    for f, ap_ref, ae_ref, ap_hat, ap_se, ae_hat, ae_se in estimates:
        z_ap = _zscore(ap_hat, ap_ref, ap_se)
        z_ae = _zscore(ae_hat, ae_ref, ae_se)
        ok = abs(z_ap) <= 3.0 and abs(z_ae) <= 3.0
        all_pass = all_pass and ok
        rows.append((f, ap_hat, ap_se, ap_ref, z_ap, ae_hat, ae_se, ae_ref, z_ae, int(ok)))
        print(
            f"f={f:<8g} z_ap0={z_ap:+6.2f} z_ae0={z_ae:+6.2f} "
            f"[{'pass' if ok else 'FAIL'}]"
        )
    manifest = _manifest(
        "mc_validate",
        {"params": params.__dict__, "fees": fees, "samples": args.samples, "chains": args.chains},
        args.seed,
        ["mc_validate.csv"],
        libraries=("numpy", "scipy"),  # the estimates rest on scipy's ndtri
    )
    if out is not None:
        _emit_csv(out, "mc_validate.csv", manifest, header, rows)
    print("validation:", "pass" if all_pass else "FAIL")
    return 0 if all_pass else 1


def cmd_equilibrium(args: argparse.Namespace) -> int:
    params = _load_params(args)
    if args.grid < 16:  # the floor of dominance_report's fee grid
        raise ConfigError(f"--grid must be at least 16, got {args.grid}")
    report = dominance_report(params, n_grid=args.grid)
    manifest = _manifest(
        "equilibrium", {"params": params.__dict__, "grid": args.grid}, None, ["equilibrium.csv"]
    )
    _emit_csv(
        _out_dir(args), "equilibrium.csv", manifest, DominanceReport.CSV_HEADER,
        report.to_csv_rows(),
    )
    am = report.am
    print(
        f"L_star={am.L_star!r} R_star={am.R_star!r} f_star={am.f_star!r} "
        f"f_opt={am.f_opt!r} L_max={am.L_max!r} ff_best_fee={am.ff_best_fee!r}"
    )
    print(f"proof_margin={report.proof_margin!r} dominated={report.dominated}")
    if report.flagged:
        print("note: best fixed fee is zero; strict dominance not asserted")
    return 0 if report.dominated else 1


def _report_json(manifest: dict, report) -> str:
    """``simulate``'s JSON payload; a non-finite report field is an error
    naming the field, as strict JSON has no NaN or infinity."""
    fields = report.to_dict()
    values = {**fields, **{f"pnl_by_agent.{k}": v for k, v in fields["pnl_by_agent"].items()}}
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"report field {name} is not finite: {value!r}")
    payload = {"manifest": manifest, "report": fields}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def cmd_simulate(args: argparse.Namespace) -> int:
    raw = _read_json_file(args.config_path)
    config = SimConfig.from_dict(raw)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    # SimConfig allows one block (the attack sweep builds one), but the
    # report's standard errors divide by horizon_blocks - 1
    if config.horizon_blocks < 2:
        raise ConfigError(f"simulate needs horizon_blocks >= 2, got {config.horizon_blocks}")
    out = _out_dir(args)
    manifest = _manifest(
        "simulate", config.to_dict(), config.seed, ["report.json", "blocks.csv"]
    )
    if out is None:
        print(_report_json(manifest, run_sim(config)))
        return 0
    blocks_path = out / "blocks.csv"
    with open(blocks_path, "w", encoding="utf-8", newline="\n") as fh:
        _write_manifest(fh, manifest)
        report = run_sim(config, block_log=fh)
    (out / "report.json").write_text(_report_json(manifest, report) + "\n", encoding="utf-8")
    print(f"wrote {out / 'report.json'} and {blocks_path}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    raw = _read_json_file(args.config_path)
    config = SimConfig.from_dict(raw)
    report = run_strategic_withdrawal_attack(config)
    manifest = _manifest("attack", config.to_dict(), config.seed, ["attack.csv"])
    _emit_csv(_out_dir(args), "attack.csv", manifest, report.CSV_HEADER, report.to_csv_rows())
    print(
        f"withdrawal_fee={report.fee_rate!r} max_net_gain={report.max_net_gain!r} "
        f"gain_at_cap={report.gain_at_cap!r}"
    )
    return 0 if report.max_net_gain <= 0.0 else 1


def cmd_replay(args: argparse.Namespace) -> int:
    trace = replay_auction(args.scenario_path)
    # keyed by the scenario's content, not its path: a copy elsewhere hashes
    # the same. Exact Fraction arithmetic: numpy computes nothing in a replay
    manifest = _manifest(
        "replay", {"scenario_sha256": trace.scenario_sha256}, None, ["trace.csv"], libraries=()
    )
    out = _out_dir(args)
    path = _emit_csv(out, "trace.csv", manifest, TRACE_HEADER, trace.to_csv_rows())
    if path is not None:
        (out / "final_state.json").write_text(trace.final_state_json + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ammauction",
        description="Auction-managed AMM toolkit: formulas, validation, equilibria, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formulas", help="closed-form rate table over a fee grid")
    _add_params_options(p)
    p.add_argument("--fees", help="comma-separated fee list (overrides --grid)")
    p.add_argument("--grid", type=int, default=64, help="fee grid size over [0, f_max]")
    p.add_argument("--liquidity", type=float, default=1.0, help="liquidity for the H0 column")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=cmd_formulas)

    p = sub.add_parser("mc-validate", help="Monte-Carlo check of the closed-form rates")
    _add_params_options(p)
    p.add_argument("--fees", help="comma-separated fee list (overrides --grid)")
    p.add_argument("--grid", type=int, default=5, help="fee grid size over [0, f_max]")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--chains", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="DIR")
    p.add_argument("--corrupt-closed-form", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_mc_validate)

    p = sub.add_parser("equilibrium", help="solve both designs and emit the dominance table")
    _add_params_options(p)
    p.add_argument("--grid", type=int, default=64, help="fee grid size for the comparison")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("simulate", help="run the block simulator from a JSON config")
    p.add_argument("config_path", metavar="CONFIG")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack", help="strategic-withdrawal sweep from a JSON config")
    p.add_argument("config_path", metavar="CONFIG")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("replay", help="replay an auction scenario file to a trace")
    p.add_argument("scenario_path", metavar="SCENARIO")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=cmd_replay)

    return parser


# The module each command computes with, executed by main in set-up so that
# its import does not count as the command's work. The package binds numpy
# unexecuted (see _numpy), and numpy loads numpy.random on first use;
# market.mc_rates imports scipy.special (for ndtri), a few tenths of a second
# that no other command pays. replay computes with Fractions alone, so it
# never executes numpy.
_SETUP_IMPORTS = {
    "formulas": "numpy",
    "mc-validate": "scipy.special",
    "equilibrium": "numpy",
    "simulate": "numpy.random",
    "attack": "numpy",
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    module = _SETUP_IMPORTS.get(args.command)
    if module is not None:
        importlib.import_module(module)
    # Freeze the import-time heap, once per process: the cyclic collector,
    # interpreter shutdown's collections included, then skips the tens of
    # thousands of objects numpy (and in mc-validate scipy) leaves tracked. A
    # later call must not freeze the earlier call's garbage, which would never
    # be collected.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    try:
        return args.func(args)
    except BracketError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory for a file, an --out that is a file, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a fee past cosh's range (numpy raises FloatingPointError), a buffer past memory
    except (OverflowError, FloatingPointError, MemoryError) as exc:
        print(f"error: too large to compute: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
