"""Tiled sharding benchmark: build fan-out, stitching cost, paging.

For each workload scale this script builds the same terrain twice —
one monolithic SE oracle and one ``--tiles N`` sharded oracle — packs
both as v4 stores, and measures what tiling costs and buys:

* build seconds, monolithic vs tiled serial vs tiled ``--jobs 2``
  (per-tile builds fan out across processes);
* query throughput through the packed tiled store, split into
  intra-tile batches (one compiled table plus escape-pruned
  stitching) and cross-tile batches (stitching from the POI×portal
  blocks through the boundary matrix), timed twice: all tiles
  resident, and at a *bounded* tile residency
  (``--max-resident-tiles``, LRU paging churn on the direct legs);
* the deterministic paging footprint: peak resident tile bytes under
  the bound plus the always-resident POI×portal blocks, vs the whole
  monolithic store.

It *gates* (non-zero exit) on five invariants, which is what lets CI
run it as a sharding regression smoke test:

1. paged answers are **bit-identical** to the all-resident tiled
   oracle on the full mixed workload, and at the bounded residency
   RNN for every source answers the same through the store's
   nearest-neighbour column as through the matrix path
   (``num_pois=n``), whose per-RNN milliseconds the report records
   side by side;
2. tiled and monolithic answers agree within the shared ``(1 + eps)``
   envelope (both sides hold the SE guarantee against the same exact
   metric, so their ratio is bounded by ``(1+eps)/(1-eps)``);
3. cross-tile QPS stays within ``--max-cross-ratio`` of intra-tile
   QPS at the bounded residency (largest scale; only when the flag is
   given);
4. the paged peak footprint stays below the monolithic store's bytes;
5. all-resident intra-tile QPS stays within ``MAX_INTRA_MONO_RATIO``
   (3x) of the monolithic store's QPS at the largest scale.

Usage::

    PYTHONPATH=src python benchmarks/bench_tiled.py \
        --scales tiny small --tiles 4 --max-resident-tiles 2 \
        --max-cross-ratio 5 --out BENCH_tiled.json
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

from repro.core import (  # noqa: E402
    SEOracle,
    build_tiled_oracle,
    open_oracle,
    pack_oracle,
    pack_tiled,
)
from repro.geodesic import GeodesicEngine  # noqa: E402
from repro.terrain import make_terrain, sample_uniform  # noqa: E402

# Workload shapes shared with the other smoke benchmarks.
from bench_query_throughput import SCALES, pair_workload  # noqa: E402
from bench_paged import rnn_leg  # noqa: E402

#: Gate 5: monolithic QPS over all-resident intra-tile QPS.
MAX_INTRA_MONO_RATIO = 3.0


def make_workload(scale: str, density: int, seed: int):
    """The shared mesh shapes, with 3x the POIs.

    Tiling is a trade of per-tile portal overhead against per-tile POI
    savings: each tile's oracle covers its owned POIs *plus* its
    portals, so the footprint win only materialises once POIs dominate
    the cut length.  The shared ``SCALES`` counts are portal-dominated
    at smoke sizes; tripling them benchmarks the regime tiling is for.
    """
    spec = SCALES[scale]
    mesh = make_terrain(
        grid_exponent=spec["exponent"],
        extent=spec["extent"],
        relief=spec["relief"],
        seed=seed,
    )
    pois = sample_uniform(mesh, 3 * spec["pois"], seed=seed + 1)
    return mesh, pois, spec["epsilon"]


def split_pairs(owner: np.ndarray, sources: np.ndarray,
                targets: np.ndarray):
    """Partition a pair workload into intra- and cross-tile halves."""
    same = owner[sources] == owner[targets]
    return ((sources[same], targets[same]),
            (sources[~same], targets[~same]))


def timed_qps(oracle, sources, targets, repeats: int) -> float:
    if sources.size == 0:
        return float("nan")
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        oracle.query_batch(sources, targets)
        best = min(best, time.perf_counter() - tick)
    return sources.size / best if best > 0 else float("inf")


def measure_scale(scale: str, tiles: int, max_resident_tiles: int,
                  queries: int, density: int, seed: int,
                  repeats: int) -> dict:
    mesh, pois, epsilon = make_workload(scale, density, seed)
    engine = GeodesicEngine(mesh, pois, points_per_edge=density)

    tick = time.perf_counter()
    mono = SEOracle(engine, epsilon, seed=seed).build()
    mono_build = time.perf_counter() - tick

    tick = time.perf_counter()
    build = build_tiled_oracle(mesh, pois, epsilon, tiles=tiles,
                               seed=seed, points_per_edge=density,
                               jobs=1)
    tiled_build = time.perf_counter() - tick

    tick = time.perf_counter()
    build_tiled_oracle(mesh, pois, epsilon, tiles=tiles, seed=seed,
                       points_per_edge=density, jobs=2)
    tiled_build_jobs2 = time.perf_counter() - tick

    sources, targets = pair_workload(len(pois), queries, seed + 2)
    sources = np.asarray(sources, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    (intra_s, intra_t), (cross_s, cross_t) = split_pairs(
        np.asarray(build.owner), sources, targets)
    # Always resident, outside the tile bound: counted in the footprint.
    block_bytes = sum(int(tile["poi_portal"].nbytes)
                      for tile in build.sections)

    with tempfile.TemporaryDirectory() as tmp:
        mono_path = os.path.join(tmp, "mono.store")
        tiled_path = os.path.join(tmp, "tiled.store")
        pack_oracle(mono, mono_path)
        pack_tiled(build, tiled_path)
        mono_bytes = os.path.getsize(mono_path)
        tiled_bytes = os.path.getsize(tiled_path)

        with (open_oracle(tiled_path) as full,
              open_oracle(tiled_path,
                          max_resident_tiles=max_resident_tiles) as paged,
              open_oracle(mono_path) as mono_stored):
            # Gate 1: paging is invisible to answers.
            expected = full.query_batch(sources, targets)
            answered = paged.query_batch(sources, targets)
            mismatches = int(np.sum(answered != expected))

            # Gate 2: tiled and monolithic agree within the shared
            # (1 + eps) envelope around the same exact metric.
            mono_answers = mono.query_batch(sources, targets)
            finite = np.isfinite(mono_answers) & (mono_answers > 0)
            envelope = (1.0 + epsilon) / (1.0 - epsilon)
            ratio = np.ones_like(mono_answers)
            ratio[finite] = answered[finite] / mono_answers[finite]
            worst_ratio = float(np.max(np.maximum(ratio, 1.0 / ratio)))

            # Best-of timing per leg: all resident, then at the bound.
            unpaged_intra_qps = timed_qps(full, intra_s, intra_t, repeats)
            unpaged_cross_qps = timed_qps(full, cross_s, cross_t, repeats)
            intra_qps = timed_qps(paged, intra_s, intra_t, repeats)
            cross_qps = timed_qps(paged, cross_s, cross_t, repeats)
            mono_qps = timed_qps(mono_stored, sources, targets, repeats)

            ledger = paged.tile_counters()
            peak_paged_bytes = paged.peak_resident_bytes + block_bytes
            rnn = rnn_leg(paged)
            mismatches += rnn["rnn_mismatches"]

    cross_ratio = (intra_qps / cross_qps
                   if cross_qps and np.isfinite(cross_qps) else
                   float("inf"))
    intra_mono_ratio = (mono_qps / unpaged_intra_qps
                        if unpaged_intra_qps
                        and np.isfinite(unpaged_intra_qps) else
                        float("inf"))
    return {
        "scale": scale,
        "num_pois": len(pois),
        "tiles": tiles,
        "portals": build.meta["tiles"]["portals"],
        "epsilon": epsilon,
        "max_resident_tiles": max_resident_tiles,
        "queries": queries,
        "intra_pairs": int(intra_s.size),
        "cross_pairs": int(cross_s.size),
        "mono_build_seconds": mono_build,
        "tiled_build_seconds": tiled_build,
        "tiled_build_jobs2_seconds": tiled_build_jobs2,
        "mono_store_bytes": mono_bytes,
        "tiled_store_bytes": tiled_bytes,
        "poi_portal_bytes": block_bytes,
        "peak_paged_bytes": int(peak_paged_bytes),
        "mono_qps": mono_qps,
        "unpaged_intra_qps": unpaged_intra_qps,
        "unpaged_cross_qps": unpaged_cross_qps,
        "intra_mono_ratio": intra_mono_ratio,
        "intra_qps": intra_qps,
        "cross_qps": cross_qps,
        "cross_ratio": cross_ratio,
        "tile_loads": ledger["loads"],
        "tile_evictions": ledger["evictions"],
        "tile_hits": ledger["hits"],
        **rnn,
        "worst_envelope_ratio": worst_ratio,
        "envelope_bound": envelope,
        "equivalent": mismatches == 0,
        "mismatches": mismatches,
        "within_envelope": worst_ratio <= envelope * (1 + 1e-9),
        "paged_under_mono": peak_paged_bytes < mono_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", nargs="+", default=["tiny", "small"],
                        choices=sorted(SCALES),
                        help="workload scales to sweep, smallest first")
    parser.add_argument("--tiles", type=int, default=4)
    parser.add_argument("--max-resident-tiles", type=int, default=2,
                        help="tile LRU bound for the paged QPS legs")
    parser.add_argument("--queries", type=int, default=20000,
                        help="random query pairs for the gates")
    parser.add_argument("--density", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5,
                        help="per-leg repetitions (best-of timing)")
    parser.add_argument("--max-cross-ratio", type=float, default=None,
                        help="fail if the largest scale's intra/cross "
                             "QPS ratio exceeds this")
    parser.add_argument("--out", default=None, help="JSON report path")
    args = parser.parse_args(argv)

    runs = []
    for scale in args.scales:
        run = measure_scale(scale, args.tiles, args.max_resident_tiles,
                            args.queries, args.density, args.seed,
                            args.repeats)
        runs.append(run)
        verdict = "ok"
        if not run["equivalent"]:
            verdict = (f"PAGING BROKEN: {run['mismatches']} "
                       "mismatches")
        elif not run["within_envelope"]:
            worst = run["worst_envelope_ratio"]
            verdict = (f"ENVELOPE BROKEN: x{worst:.3f} > "
                       f"x{run['envelope_bound']:.3f}")
        elif not run["paged_under_mono"]:
            verdict = "FOOTPRINT BROKEN: paged peak >= monolithic"
        print(f"{scale:7s} n={run['num_pois']:4d} tiles={run['tiles']} "
              f"portals={run['portals']:4d}  "
              f"build mono {run['mono_build_seconds']:6.2f}s "
              f"tiled {run['tiled_build_seconds']:6.2f}s "
              f"(x2 {run['tiled_build_jobs2_seconds']:6.2f}s)  "
              f"qps mono {run['mono_qps']:>10,.0f}  "
              f"unpaged intra {run['unpaged_intra_qps']:>10,.0f} "
              f"cross {run['unpaged_cross_qps']:>10,.0f} "
              f"(mono x{run['intra_mono_ratio']:4.1f})  "
              f"paged intra {run['intra_qps']:>10,.0f} "
              f"cross {run['cross_qps']:>10,.0f} "
              f"(ratio x{run['cross_ratio']:4.1f})  "
              f"peak {run['peak_paged_bytes'] / 1024:7.1f}KB / "
              f"{run['mono_store_bytes'] / 1024:7.1f}KB  "
              f"rnn {run['rnn_column_ms']:6.2f}ms "
              f"(matrix {run['rnn_matrix_ms']:6.2f}ms)  {verdict}")

    healthy = all(run["equivalent"] and run["within_envelope"]
                  and run["paged_under_mono"] for run in runs)
    final_ratio = runs[-1]["cross_ratio"]
    final_mono_ratio = runs[-1]["intra_mono_ratio"]
    report = {
        "benchmark": "bench_tiled",
        "tiles": args.tiles,
        "max_resident_tiles": args.max_resident_tiles,
        "queries": args.queries,
        "density": args.density,
        "seed": args.seed,
        "repeats": args.repeats,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "healthy": healthy,
        "max_cross_ratio_required": args.max_cross_ratio,
        "final_cross_ratio": final_ratio,
        "max_intra_mono_ratio_required": MAX_INTRA_MONO_RATIO,
        "final_intra_mono_ratio": final_mono_ratio,
        "runs": runs,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[report written to {args.out}]")

    if not healthy:
        print("FAILED: a tiled-sharding gate broke (see verdicts)")
        return 1
    if args.max_cross_ratio is not None and \
            final_ratio > args.max_cross_ratio:
        print(f"FAILED: cross-tile QPS x{final_ratio:.1f} slower than "
              f"intra-tile; required within x{args.max_cross_ratio:.1f}")
        return 1
    if final_mono_ratio > MAX_INTRA_MONO_RATIO:
        print(f"FAILED: unpaged intra-tile QPS x{final_mono_ratio:.1f} "
              "slower than monolithic; required within "
              f"x{MAX_INTRA_MONO_RATIO:.1f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
