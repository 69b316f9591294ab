"""Benchmark of the ammauction toolkit: end-to-end and per-layer metrics.

One workload, as ``BENCHMARK.json`` runs it::

    python3 ammbench/run.py --workload sim-managed --seed 1 --seconds 25 --trace 0

Every workload, untraced and traced, with a table of all metrics::

    python3 ammbench/run.py --workload all --seed 1 --seconds 25

A run generates the workload's inputs from the seed, then repeats passes
until ``--seconds`` are used (at least three). Each pass is a fresh
interpreter (``child.py``) that runs the workload's ``ammauction`` command
lines, so every pass pays the set-up a user pays. Metrics are medians over
passes. With ``--trace 1`` untraced and traced passes alternate: traced
passes give the per-layer metrics, and their wall time over the untraced
passes' gives the tracing overhead. Every pass's outputs are checked. The
last line of standard output is one JSON object with the checks' counts and
the metrics. See README.md for every metric.

End-to-end times are scaled to a reference speed. The speed of a fixed
interpreter loop on a shared machine drifts by tens of percent over minutes.
Each pass times a calibration loop (``child.calibrate``) on its own CPU
before and after its imports and after each command. Each stretch between
two calibrations (set-up, then each command) is multiplied by
``CALIBRATION_REF_NS`` over the mean of those two calibration times. The
results file keeps the unscaled times too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import child
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "dominance_golden.csv"
RUNS = ROOT / ".ammbench_runs"

# metric: (unit, better); reported by every workload with --trace 0
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed and stored beside the end-to-end metrics where they apply
NAMED = {
    "blocks_per_s": "blocks/s",
    "samples_per_s": "samples/s",
    "solves_per_s": "solves/s",
    "failed_frac": "ratio",
}

MIN_PASSES = 3
# a run stops starting passes after RUN_LIMIT_S and kills a pass still
# running at DEADLINE_S, so it ends well inside three minutes
RUN_LIMIT_S = 120
DEADLINE_S = 165

clock = time.monotonic_ns


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, or the wrong package)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def warm_up(env: dict) -> None:
    """Import the package once, untimed, and check it is this checkout's."""
    if not (SRC / "ammauction" / "cli.py").is_file() or not GOLDEN.is_file():
        raise SetupError(f"{ROOT} lacks src/ammauction or {GOLDEN.relative_to(ROOT)}")
    proc = subprocess.run(
        [sys.executable, "-c", "import ammauction.cli as c; print(c.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise SetupError(f"cannot import ammauction.cli:\n{proc.stderr}")
    imported = Path(proc.stdout.strip()).resolve()
    if SRC.resolve() not in imported.parents:
        raise SetupError(f"ammauction imports from {imported}, not from {SRC}")


def fingerprint() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ammauction").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_pass(wl: workloads.Workload, pass_dir: Path, traced: bool, env: dict,
             c: checks.Checks, timeout: float) -> dict:
    """Run one pass in a fresh interpreter, check its outputs, return its timings."""
    out = pass_dir / "out"
    out.mkdir(parents=True)
    job = {
        "argvs": wl.pass_argvs(out),
        "trace": traced,
        "stats": str(pass_dir / "stats.json"),
        "spans": str(pass_dir / "spans.bin"),
    }
    job_path = pass_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(pass_dir / "stdout.txt", "wb") as so, open(pass_dir / "stderr.txt", "wb") as se:
        start = clock()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                cwd=ROOT, env=env, stdout=so, stderr=se)
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait()
        end = clock()

    result = {"traced": traced, "rc": rc, "elapsed_s": (end - start) / 1e9}
    c.check(rc == 0, f"pass process exited {rc}; see {pass_dir / 'stderr.txt'}")
    stats_path = Path(job["stats"])
    stats = json.loads(stats_path.read_text(encoding="utf-8")) if stats_path.exists() else None
    checks.check_pass(c, wl, out, [m["rc"] for m in stats["mains"]] if stats else [], GOLDEN)
    result["hashes"] = checks.output_hashes(wl.name, out)
    if stats is None or stats["first_work"] is None:
        return result

    # calibrations: before and after the imports, then after each command;
    # stretch i lies between calibrations i and i + 1
    cal = stats["calibration"]
    mains = stats["mains"]
    scales = [2 * child.CALIBRATION_REF_NS / (a + b) for a, b in zip(cal, cal[1:])]
    setup = stats["first_work"] - start - cal[0] - cal[1]
    spans_ns = [mains[0]["end"] - stats["first_work"]] + [m["end"] - m["begin"] for m in mains[1:]]
    raw = {"wall_s": end - start - sum(cal), "setup_s": setup, "work_s": sum(spans_ns)}
    timed = {"setup_s": setup * scales[0]}
    for m, ns, scale in zip(mains, spans_ns, scales[1:]):
        key = f"{m['command']}_s"
        raw[key] = raw.get(key, 0) + ns
        timed[key] = timed.get(key, 0) + ns * scale
    timed["work_s"] = sum(ns * scale for ns, scale in zip(spans_ns, scales[1:]))
    # the rest of the wall time (between commands, and the exit) at the pass's mean scale
    timed["wall_s"] = timed["setup_s"] + timed["work_s"] + (
        (raw["wall_s"] - setup - raw["work_s"]) * sum(scales) / len(scales))
    timed = {k: v / 1e9 for k, v in timed.items()}
    result["raw"] = {k: v / 1e9 for k, v in raw.items()}
    result["scales"] = scales
    result.update(
        wall_s=timed["wall_s"],
        setup_s=timed["setup_s"],
        work_s=timed["work_s"],
        items_per_s=wl.items / timed["work_s"],
        peak_rss_mb=stats["maxrss_kb"] * 1024 / 1e6,
    )
    if wl.blocks:
        result["blocks_per_s"] = wl.blocks / timed["work_s"]
    if wl.samples:
        result["samples_per_s"] = wl.samples / timed["mc-validate_s"]
    if wl.solves:
        result["solves_per_s"] = wl.solves / timed["equilibrium_s"]
    if traced:
        output_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        result["layers"] = spans.layer_metrics(
            stats["span_names"], Path(job["spans"]), stats["counters"],
            (stats["import_end"] - stats["import_start"]) / 1e9, output_bytes,
        )
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
                 min_passes: int = MIN_PASSES, mutate=None) -> dict:
    """Repeat passes of one workload for ``seconds``; return metrics and check counts.

    ``mutate(workload)`` may alter the generated command lines before the
    first pass (the self-tests use it for the negative control).
    """
    env = child_env()
    warm_up(env)
    run_dir = RUNS / name
    shutil.rmtree(run_dir, ignore_errors=True)
    wl = workloads.generate(name, seed, run_dir / "inputs", size)
    if mutate is not None:
        mutate(wl)
    c = checks.Checks()
    passes: list[dict] = []
    start = clock()
    while True:
        pass_dir = run_dir / f"pass{len(passes)}"
        traced = trace and len(passes) % 2 == 1
        timeout = max(1.0, DEADLINE_S - (clock() - start) / 1e9)
        passes.append(run_pass(wl, pass_dir, traced, env, c, timeout))
        if len(passes) > 1:
            checks.check_identical(c, passes[0]["hashes"], passes[-1]["hashes"])
            shutil.rmtree(run_dir / f"pass{len(passes) - 2}")
        elapsed = (clock() - start) / 1e9
        next_pass = max(p["elapsed_s"] for p in passes[-2:])
        if elapsed > RUN_LIMIT_S or (len(passes) >= min_passes and elapsed + next_pass > seconds):
            break

    plain = [p for p in passes if not p["traced"] and "work_s" in p]
    metrics: dict[str, float] = {}
    for key in (*END_TO_END, "blocks_per_s", "samples_per_s", "solves_per_s"):
        values = [p[key] for p in plain if key in p]
        if values:
            metrics[key] = statistics.median(values)
    metrics["failed_frac"] = c.failed / c.attempted
    if trace:
        layered = [p for p in passes if "layers" in p]
        for key in spans.LAYER_METRICS:
            values = [p["layers"][key] for p in layered if key in p["layers"]]
            if values:
                metrics[key] = statistics.median(values)
        traced_walls = [p["wall_s"] for p in layered if "wall_s" in p]
        if traced_walls and plain:
            metrics["trace_overhead_frac"] = (
                statistics.median(traced_walls) / statistics.median(p["wall_s"] for p in plain) - 1
            )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "correct": c.failed == 0,
        "attempted": c.attempted,
        "failed": c.failed,
        "failures": c.failures[:20],
        "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k != "hashes"} for p in passes],
    }


def unit_of(key: str) -> str:
    if key in END_TO_END:
        return END_TO_END[key][0]
    if key in NAMED:
        return NAMED[key]
    return spans.LAYER_METRICS[key][0]


def save(result: dict, stem: str) -> Path:
    path = RUNS / "results" / f"{stem}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fingerprint": fingerprint(), **result}, indent=1) + "\n",
                    encoding="utf-8")
    return path


def print_metrics(result: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{len(result['passes'])} passes, {result['attempted']} checks, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for key, value in result["metrics"].items():
        print(f"  {key:<42} {value:>16.6g} {unit_of(key)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"ammbench: {exc}", file=sys.stderr)
        return 2
    path = save(result, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print_metrics(result)
    print(f"results: {path.relative_to(ROOT)}")
    wanted = spans.LAYER_METRICS if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": unit_of(k)}
                    for k in wanted if k in result["metrics"]},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    results = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed, seconds, trace)
            print_metrics(result)
            results.append(result)
    path = save({"runs": results}, f"all-seed{seed}")
    print(f"results: {path.relative_to(ROOT)}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
