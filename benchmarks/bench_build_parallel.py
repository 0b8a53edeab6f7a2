"""Build-time scaling benchmark: serial vs multiprocess oracle builds.

Builds the same SE oracle workload once per ``--jobs`` value, reports
build-seconds vs worker count, and *gates on parity*: every parallel
build must be bit-identical to the serial reference (same pair-run
keys, same float64 distance bytes, same tree columns, same SSAD effort
counters).  The
process exits non-zero when parity breaks, which is what lets CI use
this script as a perf-regression smoke gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_build_parallel.py \
        --scale tiny --jobs 1 2 --out BENCH_build.json

The JSON report records the workload shape, per-jobs timings and
speedups, the parity verdicts, and the serial reference build's
breakdown: its stage seconds (tree, enhanced, pairs, hash) and its
SSAD effort counters (``ssad_calls``, ``settled_nodes``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import SEOracle  # noqa: E402
from repro.geodesic import GeodesicEngine  # noqa: E402
from repro.terrain import make_terrain, sample_uniform  # noqa: E402

# Workload shapes.  "medium" is the scaling target: large enough that
# per-SSAD work dominates pool startup and snapshot pickling.
SCALES = {
    "tiny": {
        "exponent": 3,
        "extent": (100.0, 100.0),
        "relief": 15.0,
        "pois": 16,
        "epsilon": 0.5,
    },
    "small": {
        "exponent": 4,
        "extent": (200.0, 160.0),
        "relief": 30.0,
        "pois": 40,
        "epsilon": 0.25,
    },
    "medium": {
        "exponent": 5,
        "extent": (400.0, 400.0),
        "relief": 60.0,
        "pois": 90,
        "epsilon": 0.25,
    },
    "large": {
        "exponent": 6,
        "extent": (800.0, 800.0),
        "relief": 90.0,
        "pois": 160,
        "epsilon": 0.25,
    },
}


def build_workload(scale: str, density: int, seed: int):
    spec = SCALES[scale]
    mesh = make_terrain(
        grid_exponent=spec["exponent"],
        extent=spec["extent"],
        relief=spec["relief"],
        seed=seed,
    )
    pois = sample_uniform(mesh, spec["pois"], seed=seed + 1)
    engine = GeodesicEngine(mesh, pois, points_per_edge=density)
    return engine, spec["epsilon"]


def build_once(engine, epsilon: float, jobs: int, seed: int):
    started = time.perf_counter()
    oracle = SEOracle(engine, epsilon, seed=seed, jobs=jobs).build()
    return oracle, time.perf_counter() - started


def run_record(jobs: int, seconds: float, speedup: float, problems: list) -> dict:
    return {
        "jobs": jobs,
        "seconds": seconds,
        "speedup": speedup,
        "parity": not problems,
        "mismatches": problems,
    }


def check_parity(reference: SEOracle, candidate: SEOracle) -> list:
    """Bitwise serial-vs-parallel comparison; returns mismatch notes."""
    problems = []
    ref_run = reference.pair_hash.frozen_arrays()
    cand_run = candidate.pair_hash.frozen_arrays()
    ref_keys, cand_keys = ref_run["keys"], cand_run["keys"]
    if ref_keys.tobytes() != cand_keys.tobytes():
        problems.append(f"pair keys differ: {len(ref_keys)} vs {len(cand_keys)}")
    else:
        same = ref_run["values"].view(np.uint64) == cand_run["values"].view(np.uint64)
        drifted = int((~same).sum())
        if drifted:
            problems.append(f"{drifted} pair distances differ bitwise")
    for column in ("table", "radii"):
        ref_column = getattr(reference.tree, column)
        if ref_column.tobytes() != getattr(candidate.tree, column).tobytes():
            problems.append(f"compressed tree {column} columns differ")
    for counter in ("pairs_considered", "ssad_calls", "settled_nodes", "heap_pushes"):
        ref_value = getattr(reference.stats, counter)
        cand_value = getattr(candidate.stats, counter)
        if ref_value != cand_value:
            problems.append(f"{counter}: {ref_value} vs {cand_value}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    parser.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="worker counts to sweep; 1 is always prepended as reference",
    )
    parser.add_argument("--density", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None, help="JSON report path")
    args = parser.parse_args(argv)

    engine, epsilon = build_workload(args.scale, args.density, args.seed)
    print(
        f"workload: scale={args.scale} pois={engine.num_pois} "
        f"nodes={engine.graph.csr.num_static} epsilon={epsilon}"
    )

    reference, serial_seconds = build_once(engine, epsilon, 1, args.seed)
    print(
        f"jobs= 1  {serial_seconds:7.2f}s  (reference: "
        f"{reference.num_pairs} pairs, {reference.stats.ssad_calls} SSADs)"
    )

    runs = [run_record(1, serial_seconds, 1.0, [])]
    parity_ok = True
    for jobs in args.jobs:
        if jobs <= 1:
            continue
        oracle, seconds = build_once(engine, epsilon, jobs, args.seed)
        problems = check_parity(reference, oracle)
        parity_ok = parity_ok and not problems
        speedup = serial_seconds / seconds if seconds > 0 else float("inf")
        verdict = "ok" if not problems else "PARITY BROKEN: " + "; ".join(problems)
        print(f"jobs={jobs:2d}  {seconds:7.2f}s  x{speedup:4.2f}  {verdict}")
        runs.append(run_record(jobs, seconds, speedup, problems))

    report = {
        "benchmark": "bench_build_parallel",
        "scale": args.scale,
        "epsilon": epsilon,
        "num_pois": engine.num_pois,
        "graph_nodes": engine.graph.csr.num_static,
        "density": args.density,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "serial_seconds": serial_seconds,
        "pairs": reference.num_pairs,
        "stage_seconds": {
            "tree": reference.stats.tree_seconds,
            "enhanced": reference.stats.enhanced_seconds,
            "pairs": reference.stats.pairs_seconds,
            "hash": reference.stats.hash_seconds,
        },
        "ssad_calls": reference.stats.ssad_calls,
        "settled_nodes": reference.stats.settled_nodes,
        "parity": parity_ok,
        "runs": runs,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[report written to {args.out}]")

    if not parity_ok:
        print("FAILED: parallel build is not bit-identical to serial")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
