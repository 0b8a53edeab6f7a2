"""Persistence benchmark: JSON load vs binary store open.

For each workload scale this script builds one SE oracle, saves it
both ways — the v3 JSON document (with compiled section) and the v4
binary store — and measures what a serving process pays to go from a
cold file to answered queries:

* ``json_load_seconds`` — parse + Python reconstruction
  (``load_oracle``, fingerprint check skipped for both sides);
* ``store_open_seconds`` — zero-copy mmap open (``open_oracle``),
  best of ``--repeats``: a reopen, which the process-wide zip
  directory memo answers without parsing the directory or the meta;
* ``store_first_open_seconds`` — the first open of the freshly packed
  file, which parses them (a memo miss);
* first-query latency after each fresh load (includes the JSON path's
  on-demand compile + hash freeze, and the store path's nothing);
* the on-disk byte sizes of both formats.

It *gates on equivalence*: every store-served distance must be
bit-identical to the in-memory oracle's batched answers (non-zero exit
otherwise), and optionally on a minimum JSON/store load speedup via
``--min-speedup`` — which is what lets CI use it as a persistence
regression smoke gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py \
        --scales tiny medium --min-speedup 5 --out BENCH_store.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import SEOracle, load_oracle, save_oracle  # noqa: E402
from repro.core.store import open_oracle, pack_oracle  # noqa: E402
from repro.geodesic import GeodesicEngine  # noqa: E402
from repro.terrain import make_terrain, sample_uniform  # noqa: E402

# Workload shapes shared with bench_query_throughput.py.
from bench_query_throughput import SCALES, pair_workload  # noqa: E402


def build_oracle(scale: str, density: int, seed: int) -> SEOracle:
    spec = SCALES[scale]
    mesh = make_terrain(
        grid_exponent=spec["exponent"],
        extent=spec["extent"],
        relief=spec["relief"],
        seed=seed,
    )
    pois = sample_uniform(mesh, spec["pois"], seed=seed + 1)
    engine = GeodesicEngine(mesh, pois, points_per_edge=density)
    return SEOracle(engine, spec["epsilon"], seed=seed).build()


def measure_scale(scale: str, queries: int, density: int, seed: int,
                  repeats: int = 5) -> dict:
    oracle = build_oracle(scale, density, seed)
    engine = oracle.engine
    num_pois = engine.num_pois
    sources, targets = pair_workload(num_pois, queries, seed + 2)
    reference = oracle.query_batch(sources, targets)

    with tempfile.TemporaryDirectory() as tmp:
        json_path = os.path.join(tmp, "oracle.json")
        store_path = os.path.join(tmp, "oracle.store")
        save_oracle(oracle, json_path, compiled=True)
        pack_oracle(oracle, store_path)
        json_bytes = os.path.getsize(json_path)
        store_bytes = os.path.getsize(store_path)

        # Load timings (fingerprint hashing skipped on both sides: a
        # serving process trusts its terrain registry).  The first open
        # of the packed file parses its zip directory and meta; every
        # later one is answered from the process's directory memo.
        tick = time.perf_counter()
        open_oracle(store_path).close()
        first_store = time.perf_counter() - tick
        best_json = best_store = float("inf")
        json_first = store_first = float("inf")
        for _ in range(repeats):
            tick = time.perf_counter()
            loaded = load_oracle(json_path, engine, strict=False)
            best_json = min(best_json, time.perf_counter() - tick)
            tick = time.perf_counter()
            loaded.query_batch(sources[:1], targets[:1])
            json_first = min(json_first, time.perf_counter() - tick)

            tick = time.perf_counter()
            stored = open_oracle(store_path)
            best_store = min(best_store, time.perf_counter() - tick)
            tick = time.perf_counter()
            stored.query_batch(sources[:1], targets[:1])
            store_first = min(store_first, time.perf_counter() - tick)

        # Equivalence gate: the mapped tables answer bit-identically.
        stored = open_oracle(store_path)
        served = stored.query_batch(sources, targets)
        mismatches = int(np.sum(served != reference))

    return {
        "scale": scale,
        "num_pois": num_pois,
        "height": oracle.height,
        "pairs_stored": oracle.num_pairs,
        "queries": queries,
        "json_bytes": json_bytes,
        "store_bytes": store_bytes,
        "json_load_seconds": best_json,
        "store_open_seconds": best_store,
        "store_first_open_seconds": first_store,
        "json_first_query_seconds": json_first,
        "store_first_query_seconds": store_first,
        "load_speedup": best_json / best_store,
        "equivalent": mismatches == 0,
        "mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", nargs="+", default=["tiny", "medium"],
                        choices=sorted(SCALES),
                        help="workload scales to sweep, smallest first")
    parser.add_argument("--queries", type=int, default=20000,
                        help="random query pairs for the equivalence gate")
    parser.add_argument("--density", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5,
                        help="load repetitions (best-of timing)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the largest scale's JSON/store "
                             "load ratio is at least this")
    parser.add_argument("--out", default=None, help="JSON report path")
    args = parser.parse_args(argv)

    runs = []
    for scale in args.scales:
        run = measure_scale(scale, args.queries, args.density, args.seed,
                            repeats=args.repeats)
        runs.append(run)
        verdict = "ok" if run["equivalent"] else (
            f"EQUIVALENCE BROKEN: {run['mismatches']} mismatches")
        print(f"{scale:7s} n={run['num_pois']:4d} "
              f"pairs={run['pairs_stored']:6d}  "
              f"json {run['json_load_seconds'] * 1e3:8.2f} ms "
              f"({run['json_bytes'] / 1024:7.1f}KB)  "
              f"store {run['store_open_seconds'] * 1e3:7.2f} ms "
              f"(first {run['store_first_open_seconds'] * 1e3:6.2f} ms, "
              f"{run['store_bytes'] / 1024:7.1f}KB)  "
              f"x{run['load_speedup']:5.1f}  {verdict}")

    equivalent = all(run["equivalent"] for run in runs)
    final_speedup = runs[-1]["load_speedup"]
    report = {
        "benchmark": "bench_store",
        "queries": args.queries,
        "density": args.density,
        "seed": args.seed,
        "repeats": args.repeats,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "equivalent": equivalent,
        "min_speedup_required": args.min_speedup,
        "final_speedup": final_speedup,
        "runs": runs,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[report written to {args.out}]")

    if not equivalent:
        print("FAILED: store-served queries are not bit-identical")
        return 1
    if args.min_speedup is not None and final_speedup < args.min_speedup:
        print(f"FAILED: load speedup x{final_speedup:.1f} below required "
              f"x{args.min_speedup:.1f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
