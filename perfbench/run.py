#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload drag --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` runs the same workload with spans and counter deltas
around each layer's entry points and prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
under test is imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; setup_s is their median.  The drag desktop takes
#: seconds to build, the others milliseconds, hence more repeats there.
SETUPS = {"drag": 3, "session": 7, "remote": 9}

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_p50_us": "us",
    "op_p99_us": "us", "manage_p50_us": "us", "migrate_p50_ms": "ms",
    "recover_p50_ms": "ms", "failover_p50_ms": "ms", "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default="",
                        help="traced runs: where to write the span dump"
                        " (default: .perfbench_out/ in the checkout)")
    return parser.parse_args(argv)


def make_bench(name, seed, work, recorder, small=False):
    """The workload object; *small* shrinks populations for tests."""
    if name == "drag":
        from wl_drag import DragBench

        return DragBench(seed, work, recorder, **({"windows": 24} if small else {}))
    if name == "session":
        from wl_session import SessionBench

        return SessionBench(seed, work, recorder,
                            **({"shard_clients": 4} if small else {}))
    from wl_remote import RemoteBench

    return RemoteBench(seed, work, recorder, **({"background": 2} if small else {}))


def end_to_end(bench, recorder, setup_times):
    from harness import loop_metrics, median, peak_rss_mb

    metrics = {"setup_s": median(setup_times)}
    metrics.update(loop_metrics(recorder, bench.loop_kinds))
    samples = bench.metric_samples()
    metrics["manage_p50_us"] = median(samples["manage"]) / 1e3
    for kind in ("migrate", "recover", "failover"):
        metrics[f"{kind}_p50_ms"] = median(samples[kind]) / 1e6
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def run(opts, small=False, out=sys.stdout, root=ROOT):
    """One run; returns the result dict (also printed as the last
    line of *out*).  On-disk state lives under *root*."""
    from harness import Recorder, SetupTimer, WorkDir, closed_loop

    recorder = Recorder()
    work = WorkDir(root, opts.workload)
    bench = make_bench(opts.workload, opts.seed, work, recorder, small)
    try:
        setup_times = []
        for attempt in range(SETUPS[opts.workload]):
            timer = SetupTimer()
            bench.setup(attempt, timer)
            setup_times.append(timer.seconds())
        if opts.trace:
            from tracer import traced_run

            metrics = traced_run(bench, recorder, opts, root)
        else:
            closed_loop(recorder, opts.seconds, bench.round)
            bench.drills()
            bench.final_checks()
            metrics = end_to_end(bench, recorder, setup_times)
    finally:
        bench.close()
        work.close()
    for line in recorder.report_lines():
        print(line, file=out)
    for problem in recorder.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=out)
    for error in recorder.errors:
        print(f"OPERATION FAILED: {error}", file=out)
    result = {
        "correct": not recorder.problems,
        "attempted": recorder.total_attempted(),
        "failed": recorder.total_failed(),
        "metrics": metrics,
    }
    print(json.dumps(result), file=out)
    out.flush()
    return result


def main(argv=None) -> int:
    opts = parse_args(argv)
    # One CPU for the whole process: the remote workload's client thread
    # and the wire's loop thread then hand the interpreter lock over on
    # one core.  Across two cores every request paid two cross-CPU
    # wakeups, which halved its throughput and made it vary by a
    # fifth from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        # Never fall back to a copy of the program installed elsewhere.
        print(f"perfbench: no program under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, src)
    # The drills and the session workload crash WMs on purpose; the
    # supervisor's warning for each is expected.
    logging.getLogger("repro").setLevel(logging.ERROR)
    run(opts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
