"""One benchmark pass in a fresh interpreter.

Usage: ``python3 child.py JOB.json``. The job names the ``ammauction.cli``
argument lists to run, whether to trace, and where to write the pass's
timings (and, traced, its spans). All times are CLOCK_MONOTONIC
nanoseconds, which the parent process shares.

The pass stays on the CPU it starts on and times a fixed calibration loop
before and after importing the package and after each command, so the
parent can scale each stretch of the pass to a reference speed (see run.py).
"""

import json
import math
import os
import resource
import sys
import time

clock = time.monotonic_ns

CALIBRATION_ITERATIONS = 250_000
# the reference speed: the calibration loop takes 0.1 s
CALIBRATION_REF_NS = 100_000_000


def pin_to_current_cpu() -> None:
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    os.sched_setaffinity(0, {cpu})


def calibrate() -> int:
    """Duration of a fixed interpreter loop that uses nothing from ammauction."""
    begin = clock()
    table = {}
    acc = 0.0
    for i in range(CALIBRATION_ITERATIONS):
        x = i * 2654435761 % 1000003
        table[x & 1023] = x
        acc += math.sqrt(x)
    return clock() - begin


def main(job_path: str) -> int:
    pin_to_current_cpu()
    calibration = [calibrate()]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import_start = clock()
    import ammauction.cli as cli
    import_end = clock()
    calibration.append(calibrate())

    tracer = None
    run_main = cli.main
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, cli)
        run_main = tracer.traced(cli.main, "cli.main")

    # setup ends where the first call that does work begins
    first_work: list[int] = []

    def mark(owner, attr: str) -> None:
        fn = getattr(owner, attr)

        def marked(*args, **kwargs):
            if not first_work:
                first_work.append(clock())
            return fn(*args, **kwargs)

        setattr(owner, attr, marked)

    for attr in ("run_sim", "replay_auction", "dominance_report"):
        mark(cli, attr)
    mark(cli.market, "mc_rates")

    mains = []
    for argv in job["argvs"]:
        begin = clock()
        rc = run_main(argv)
        mains.append({"command": argv[0], "begin": begin, "end": clock(), "rc": rc})
        calibration.append(calibrate())

    stats = {
        "calibration": calibration,
        "import_start": import_start,
        "import_end": import_end,
        "first_work": first_work[0] if first_work else None,
        "mains": mains,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.dump(job["spans"])
        stats["span_names"] = tracer.names
        stats["counters"] = dict(tracer.counters)
    with open(job["stats"], "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
