#!/usr/bin/env python3
"""Regenerate the reference figures of README.md.

    python3 perfbench/reference.py --seeds 401-410 --seconds 10

Runs every workload once per seed untraced and once (first seed)
traced, each in its own process, and prints Markdown tables: per
end-to-end metric the median over the seeds and the spread (distance
between the first and third quartile over the median), then every
per-layer metric of the traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("drag", "session", "remote")


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="401-410", help="FIRST-LAST")
    parser.add_argument("--seconds", type=int, default=10)
    opts = parser.parse_args(argv)
    first, last = (int(part) for part in opts.seeds.split("-"))
    seeds = list(range(first, last + 1))
    untraced = {w: [one_run(w, s, opts.seconds, 0) for s in seeds] for w in WORKLOADS}
    traced = {w: one_run(w, seeds[0], opts.seconds, 1) for w in WORKLOADS}

    print(f"End to end, {len(seeds)} seeds ({opts.seeds}), median (spread):\n")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    names = list(untraced[WORKLOADS[0]][0]["metrics"])
    for name in names:
        unit = untraced[WORKLOADS[0]][0]["metrics"][name]["unit"]
        cells = []
        for w in WORKLOADS:
            values = [r["metrics"][name]["value"] for r in untraced[w]]
            cells.append(f"{statistics.median(values):.4g} ({spread(values):.3f})")
        print(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    runs = [r for w in WORKLOADS for r in untraced[w]]
    print(f"\nAll {len(runs)} runs correct: {all(r['correct'] for r in runs)};"
          f" failed operations: {sum(r['failed'] for r in runs)}"
          f" of {sum(r['attempted'] for r in runs)}.")

    print(f"\nPer layer, traced run of seed {seeds[0]}:\n")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name, entry in traced[WORKLOADS[0]]["metrics"].items():
        cells = [f"{traced[w]['metrics'][name]['value']:.4g}" for w in WORKLOADS]
        print(f"| `{name}` | {entry['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
