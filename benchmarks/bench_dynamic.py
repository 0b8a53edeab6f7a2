"""Dynamic-oracle benchmark: compiled-overlay batches vs scalar loops.

PR 5 made ``DynamicSEOracle`` compiled-aware: batched queries resolve
base-base rows through the compiled tables and only overlay-touching
rows through the SSAD kernel, with no recompile per update.  This
script measures what that buys under a realistic *interleaved*
workload, per scale:

1. build a dynamic oracle, apply a seeded update mix (inserts into the
   overlay + deletes), keeping the overlay non-empty (no amortised
   rebuild triggers), and record **update latency** (mean seconds per
   insert / delete — graph surgery only, never a recompile);
2. answer the same seeded query workload over the live ids two ways —
   a scalar ``query`` loop and one ``query_batch`` call — on two
   *independently churned* oracle instances, so neither path warms the
   other's delta caches.  Each path first runs the workload once
   unmeasured (reported as its ``warmup_seconds``: the base-table
   compile and the per-overlay-POI delta SSADs are declared one-time
   costs, exactly like ``bench_query_throughput``'s compile), then the
   measured pass gives the steady-state serving QPS;
3. **gate on equivalence**: every batched distance must be
   bit-identical to the scalar answer (non-zero exit otherwise), and
   optionally on a minimum batch/scalar speedup via ``--min-speedup``
   (applied to the largest scale), which is what lets CI use this as
   a serving-regression smoke gate for mutable terrains.

PR 8 adds the **flush-latency-vs-churn curve**: per ``--flush-scales``
scale, per churn mix (pure deletes; deletes+inserts) and per
``--flush-churn`` fraction, two identically-churned oracles fold their
overlay back into the base — one through the incremental flush
(cross-rebuild SSAD memo), one through the from-scratch reference
rebuild — and the sweep records both latencies.  Every point is
equivalence-gated (the spliced tables must match the reference
array-for-array), and ``--min-flush-speedup`` demands that the
incremental path beat the full rebuild on the *delete* mix at every
churn fraction at or below ``--flush-gate-churn`` (default 5%), on
every flush scale — see :func:`measure_flush_curve` for why insert
churn legitimately degrades toward full-rebuild cost.

Usage::

    PYTHONPATH=src python benchmarks/bench_dynamic.py \
        --scales tiny medium --min-speedup 5 \
        --flush-scales small medium --min-flush-speedup 1.0 \
        --out BENCH_dynamic.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import DynamicSEOracle  # noqa: E402
from repro.terrain import make_terrain, sample_uniform  # noqa: E402

# Workload shapes shared with the query-throughput benchmark.
from bench_query_throughput import SCALES  # noqa: E402


def build_dynamic(scale: str, density: int, seed: int) -> DynamicSEOracle:
    spec = SCALES[scale]
    mesh = make_terrain(
        grid_exponent=spec["exponent"],
        extent=spec["extent"],
        relief=spec["relief"],
        seed=seed,
    )
    pois = sample_uniform(mesh, spec["pois"], seed=seed + 1)
    # A large rebuild factor keeps every update in the overlay: the
    # benchmark measures the delta path, not an amortised rebuild.
    return DynamicSEOracle(
        mesh,
        pois,
        spec["epsilon"],
        rebuild_factor=100.0,
        points_per_edge=density,
        seed=seed,
    ).build()


def apply_updates(
    oracle: DynamicSEOracle, inserts: int, deletes: int, seed: int
) -> dict:
    """The seeded update mix; returns per-kind mean latencies."""
    rng = random.Random(seed)
    mesh = oracle.engine.mesh
    low, high = mesh.bounding_box()
    insert_seconds = 0.0
    applied_inserts = 0
    while applied_inserts < inserts:
        x = rng.uniform(float(low[0]), float(high[0]))
        y = rng.uniform(float(low[1]), float(high[1]))
        if mesh.locate_face(x, y) < 0:
            continue
        tick = time.perf_counter()
        oracle.insert(x, y)
        insert_seconds += time.perf_counter() - tick
        applied_inserts += 1
    delete_seconds = 0.0
    for _ in range(deletes):
        victim = int(rng.choice(oracle.live_ids()[:-1]))
        tick = time.perf_counter()
        oracle.delete(victim)
        delete_seconds += time.perf_counter() - tick
    assert oracle.overlay_size > 0, "updates must leave a live overlay"
    return {
        "insert_seconds_mean": insert_seconds / max(applied_inserts, 1),
        "delete_seconds_mean": delete_seconds / max(deletes, 1),
        "overlay_size": oracle.overlay_size,
        "rebuilds": oracle.rebuild_count - 1,
    }


def query_workload(
    oracle: DynamicSEOracle, queries: int, seed: int
) -> tuple:
    """Seeded random pairs over the live external ids."""
    rng = random.Random(seed)
    live = [int(poi) for poi in oracle.live_ids()]
    sources = [rng.choice(live) for _ in range(queries)]
    targets = [rng.choice(live) for _ in range(queries)]
    return (
        np.array(sources, dtype=np.intp),
        np.array(targets, dtype=np.intp),
    )


def measure_scale(
    scale: str,
    queries: int,
    inserts: int,
    deletes: int,
    density: int,
    seed: int,
) -> dict:
    # Two independently churned instances: the scalar loop must not
    # warm the batch instance's delta rows (or vice versa).
    scalar_oracle = build_dynamic(scale, density, seed)
    batch_oracle = build_dynamic(scale, density, seed)
    updates = apply_updates(scalar_oracle, inserts, deletes, seed + 1)
    updates_b = apply_updates(batch_oracle, inserts, deletes, seed + 1)
    assert updates["overlay_size"] == updates_b["overlay_size"]

    sources, targets = query_workload(scalar_oracle, queries, seed + 2)

    # Warm pass per instance (one-time costs: memo caches and delta
    # rows on the scalar side; base-table compile and delta rows on
    # the batch side), then the measured steady-state pass.
    tick = time.perf_counter()
    for source, target in zip(sources, targets):
        scalar_oracle.query(int(source), int(target))
    scalar_warmup = time.perf_counter() - tick
    tick = time.perf_counter()
    scalar_answers = [
        scalar_oracle.query(int(source), int(target))
        for source, target in zip(sources, targets)
    ]
    scalar_seconds = time.perf_counter() - tick

    tick = time.perf_counter()
    batch_oracle.query_batch(sources, targets)
    batch_warmup = time.perf_counter() - tick
    tick = time.perf_counter()
    batched = batch_oracle.query_batch(sources, targets)
    batch_seconds = time.perf_counter() - tick

    mismatches = int(
        np.sum(batched != np.asarray(scalar_answers, dtype=np.float64))
    )
    scalar_qps = queries / scalar_seconds if scalar_seconds > 0 else 0.0
    batch_qps = (
        queries / batch_seconds if batch_seconds > 0 else float("inf")
    )
    return {
        "scale": scale,
        "num_pois": scalar_oracle.num_pois,
        "overlay_size": scalar_oracle.overlay_size,
        "inserts": inserts,
        "deletes": deletes,
        "queries": queries,
        "insert_seconds_mean": updates["insert_seconds_mean"],
        "delete_seconds_mean": updates["delete_seconds_mean"],
        "scalar_warmup_seconds": scalar_warmup,
        "batch_warmup_seconds": batch_warmup,
        "scalar_seconds": scalar_seconds,
        "batch_seconds": batch_seconds,
        "scalar_qps": scalar_qps,
        "batch_qps": batch_qps,
        "speedup": scalar_seconds / batch_seconds
        if batch_seconds > 0
        else float("inf"),
        "equivalent": mismatches == 0,
        "mismatches": mismatches,
    }


def _sections_identical(left, right) -> bool:
    """Array-for-array equality of two built oracles' section sets."""
    from repro.core.store import oracle_sections

    left_sections = oracle_sections(left)
    right_sections = oracle_sections(right)
    if left_sections.keys() != right_sections.keys():
        return False
    return all(
        left_sections[name].dtype == right_sections[name].dtype
        and np.array_equal(left_sections[name], right_sections[name])
        for name in left_sections
    )


def _apply_churn(
    oracle: DynamicSEOracle, touched: int, mix: str, seed: int
) -> dict:
    """Touch ``touched`` POIs: ``"delete"`` churn removes them,
    ``"mixed"`` churn alternates deletes and inserts."""
    rng = random.Random(seed)
    mesh = oracle.engine.mesh
    low, high = mesh.bounding_box()
    deletes = touched if mix == "delete" else (touched + 1) // 2
    inserts = touched - deletes
    for _ in range(deletes):
        oracle.delete(int(rng.choice(oracle.live_ids()[:-1])))
    applied = 0
    while applied < inserts:
        x = rng.uniform(float(low[0]), float(high[0]))
        y = rng.uniform(float(low[1]), float(high[1]))
        if mesh.locate_face(x, y) < 0:
            continue
        oracle.insert(x, y)
        applied += 1
    return {"inserts": inserts, "deletes": deletes}


def measure_flush_curve(
    scale: str, churn_fractions: list, density: int, seed: int
) -> list:
    """Incremental vs full flush latency per churn fraction and mix.

    Both oracles receive the identical seeded churn; the incremental
    flush replays the memo, the reference does a from-scratch rebuild,
    and the point only counts if the resulting tables are
    array-for-array identical.  Two churn mixes are swept because they
    stress opposite ends of the memo: *deletes* are metrically inert
    (sites detach without moving any surviving distance), so almost
    every row replays; *inserts* land inside the wide ``l * r`` radii
    of the shallow enhanced-edge rows — exactly the expensive SSADs —
    so reuse degrades toward a full rebuild.  The speedup gate is
    applied to the delete mix (the sublinear case the design targets);
    the mixed curve is reported alongside to document the insert cost
    honestly.
    """
    points = []
    for mix in ("delete", "mixed"):
        for fraction in churn_fractions:
            incremental = build_dynamic(scale, density, seed)
            reference = build_dynamic(scale, density, seed)
            touched = max(1, round(fraction * incremental.num_pois))
            churn = _apply_churn(incremental, touched, mix, seed + 3)
            _apply_churn(reference, touched, mix, seed + 3)

            tick = time.perf_counter()
            stats = incremental.flush()
            incremental_seconds = time.perf_counter() - tick
            tick = time.perf_counter()
            reference.force_rebuild()
            full_seconds = time.perf_counter() - tick

            points.append({
                "scale": scale,
                "mix": mix,
                "churn_fraction": fraction,
                "touched": touched,
                "inserts": churn["inserts"],
                "deletes": churn["deletes"],
                "incremental_seconds": incremental_seconds,
                "full_seconds": full_seconds,
                "flush_speedup": full_seconds / incremental_seconds
                if incremental_seconds > 0 else float("inf"),
                "reused_rows": stats["reused_rows"],
                "computed_rows": stats["computed_rows"],
                "equivalent": _sections_identical(incremental.oracle,
                                                  reference.oracle),
            })
    return points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales",
        nargs="+",
        default=["tiny", "medium"],
        choices=sorted(SCALES),
        help="workload scales to sweep, smallest first",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=20000,
        help="interleaved query count per scale",
    )
    parser.add_argument(
        "--inserts", type=int, default=8, help="POI inserts per scale"
    )
    parser.add_argument(
        "--deletes", type=int, default=3, help="POI deletes per scale"
    )
    parser.add_argument("--density", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the largest scale's batch/scalar speedup is "
        "at least this",
    )
    parser.add_argument(
        "--flush-scales",
        nargs="*",
        default=["small", "medium"],
        choices=sorted(SCALES),
        help="scales for the flush-latency-vs-churn curve "
        "(pass no values to skip the sweep)",
    )
    parser.add_argument(
        "--flush-churn",
        nargs="+",
        type=float,
        default=[0.01, 0.05, 0.20],
        help="churn fractions (touched POIs / terrain POIs) to sweep",
    )
    parser.add_argument(
        "--min-flush-speedup",
        type=float,
        default=None,
        help="fail unless incremental flush beats full rebuild by at "
        "least this factor on the delete-churn mix at every fraction "
        "at or below --flush-gate-churn, on every flush scale",
    )
    parser.add_argument(
        "--flush-gate-churn",
        type=float,
        default=0.05,
        help="largest churn fraction the flush-speedup gate applies to",
    )
    parser.add_argument("--out", default=None, help="JSON report path")
    args = parser.parse_args(argv)

    runs = []
    for scale in args.scales:
        run = measure_scale(
            scale,
            args.queries,
            args.inserts,
            args.deletes,
            args.density,
            args.seed,
        )
        runs.append(run)
        verdict = (
            "ok"
            if run["equivalent"]
            else f"EQUIVALENCE BROKEN: {run['mismatches']} mismatches"
        )
        print(
            f"{scale:7s} n={run['num_pois']:4d} "
            f"overlay={run['overlay_size']:2d}  "
            f"insert {run['insert_seconds_mean'] * 1e3:6.2f} ms  "
            f"scalar {run['scalar_qps']:9,.0f} q/s  "
            f"batch {run['batch_qps']:11,.0f} q/s  "
            f"x{run['speedup']:5.1f}  {verdict}"
        )

    flush_curve = []
    for scale in args.flush_scales:
        points = measure_flush_curve(
            scale, args.flush_churn, args.density, args.seed
        )
        flush_curve.extend(points)
        for point in points:
            verdict = (
                "ok" if point["equivalent"]
                else "EQUIVALENCE BROKEN: spliced tables diverge"
            )
            print(
                f"flush {scale:7s} {point['mix']:6s} churn "
                f"{point['churn_fraction']:4.0%} "
                f"({point['touched']:2d} touched)  "
                f"incremental {point['incremental_seconds'] * 1e3:7.1f} ms  "
                f"full {point['full_seconds'] * 1e3:7.1f} ms  "
                f"x{point['flush_speedup']:4.1f}  "
                f"reuse {point['reused_rows']}/"
                f"{point['reused_rows'] + point['computed_rows']}  "
                f"{verdict}"
            )

    equivalent = all(run["equivalent"] for run in runs) and all(
        point["equivalent"] for point in flush_curve
    )
    final_speedup = runs[-1]["speedup"]
    gated_points = [
        point for point in flush_curve
        if point["mix"] == "delete"
        and point["churn_fraction"] <= args.flush_gate_churn
    ]
    report = {
        "benchmark": "bench_dynamic",
        "queries": args.queries,
        "inserts": args.inserts,
        "deletes": args.deletes,
        "density": args.density,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "equivalent": equivalent,
        "min_speedup_required": args.min_speedup,
        "final_speedup": final_speedup,
        "min_flush_speedup_required": args.min_flush_speedup,
        "flush_gate_churn": args.flush_gate_churn,
        "runs": runs,
        "flush_curve": flush_curve,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[report written to {args.out}]")

    if not equivalent:
        print("FAILED: dynamic batch queries are not bit-identical to "
              "the scalar path")
        return 1
    if args.min_speedup is not None and final_speedup < args.min_speedup:
        print(
            f"FAILED: batch speedup x{final_speedup:.1f} below required "
            f"x{args.min_speedup:.1f}"
        )
        return 1
    if args.min_flush_speedup is not None:
        for point in gated_points:
            if point["flush_speedup"] < args.min_flush_speedup:
                print(
                    f"FAILED: incremental flush x"
                    f"{point['flush_speedup']:.2f} below required x"
                    f"{args.min_flush_speedup:.2f} at "
                    f"{point['churn_fraction']:.0%} churn on "
                    f"{point['scale']}"
                )
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
