"""Run one workload over several seeds and print each end-to-end
metric's median and quartile spread (IQR over median).

    python3 perfbench/spread.py --workload dem-churn --seeds 1 2 3 4 5

Runs are sequential, so no two compete for the CPU they are pinned to.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        result = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        report = json.loads(result.stdout.splitlines()[-1])
        if not report["correct"]:
            print(f"seed {seed}: {report['failed']} failed ops")
        for name, metric in report["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in report["metrics"].items()), flush=True)
    for name, series in values.items():
        spread = measure.quartile_spread(series)
        print(f"{name:16s} median {statistics.median(series):10.4g}  "
              f"spread {spread:6.3f}  bound/3 {bounds[name] / 3:6.3f}"
              + ("" if spread < bounds[name] / 3 else "  WIDE"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
