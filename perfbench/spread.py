"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py [--seeds N] [--first-seed K] [WORKLOAD ...]

Runs ``perfbench/run.py --trace 0`` once per seed on each workload
(default: all of ``BENCHMARK.json``) and prints, per metric, the
median and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread above the metric's bound is marked ``OVER``; the
benchmark aims for spreads below a third of each bound.  Exit code 1
when a run fails or a spread other than ``setup_s``'s exceeds its bound.
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = args.workloads or [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    status = 0
    for workload in names:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(declared["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            over = spread > bounds[name]
            if over and name != "setup_s":
                status = 1
            print(
                f"{workload:14} {name:12} median={median:<12.6g} "
                f"spread={spread:.3f} bound={bounds[name]}"
                f"{'  OVER' if over else ''}  values={[round(v, 4) for v in vals]}"
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
