"""Check that two traced runs with the same seed report identical
``exact`` per-layer metrics (program counts over a fixed window).

    python3 perfbench/exact.py --workload outofcore-proximity --seed 5

Exits 1 and names the metrics that differ, or any failed answer.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def traced(workload: str, seed: int, seconds: float) -> dict:
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1"], capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args(argv)
    first, second = (traced(args.workload, args.seed, args.seconds)
                     for _ in range(2))
    differ = [name for name in sorted(metrics.EXACT)
              if first["metrics"][name] != second["metrics"][name]]
    for name in sorted(metrics.EXACT):
        print(f"{name:28s} {first['metrics'][name]['value']!r:>22} "
              f"{second['metrics'][name]['value']!r:>22}"
              + ("  DIFFERS" if name in differ else ""))
    failed = first["failed"] + second["failed"]
    print(f"{len(differ)} exact metrics differ; {failed} failed ops")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
