"""Serving benchmark: coalesced batching vs per-request dispatch.

PR 6 put :class:`OracleService` behind an asyncio NDJSON server whose
hot path coalesces concurrent point queries into ``query_batch``
probes of the compiled tables.  This script measures what that buys
under network load, per scale:

1. build and pack an oracle, start a loopback server, and drive a
   seeded (source, target) workload through N **closed-loop** client
   threads twice — once against a server with ``max_batch=1``
   (per-request dispatch: every query is its own ``query_batch`` row)
   and once with coalescing enabled — reporting QPS and p50/p95/p99
   latency for both, plus the server-side mean batch size and
   coalesce ratio the load actually achieved;
2. run an **open-loop** leg at a fixed arrival rate (a fraction of the
   measured coalesced QPS) on a single pipelined connection, which
   shows queueing latency at a controlled offered load instead of
   letting slow responses throttle arrivals;
3. **gate on equivalence**: every distance that came back over the
   wire — both modes, both loops — must be bit-identical to a direct
   ``OracleService.query_batch`` replay of the same workload, and
   optionally on a minimum coalesced/per-request QPS ratio via
   ``--min-speedup`` (applied to the largest scale), which is what
   lets CI use this as a serving-regression gate.  ``--baseline``
   additionally sanity-checks QPS and p95 latency against a committed
   report with generous machine-variance factors.

``--smoke`` shrinks the workload to a start/query/shutdown check with
no speed gate — the no-scipy CI leg uses it to prove the server stack
imports and serves without the optional dependencies.

``--scenario-store`` switches to the scenario-replay mode instead:
seeded :mod:`repro.serving.workloads` scenarios (moving-agent kNN,
range alerts, coverage audits) are generated against the given packed
store (e.g. one built by ``repro ingest`` from a real DEM) and
replayed against a live server, gating replay byte-identity,
wire==direct equivalence, and a per-scenario p95 ceiling.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py \
        --scales tiny medium --clients 16 --min-speedup 2 \
        --out BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --scenario-store real.store --out BENCH_serve_scenarios.json
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

from repro.core import SEOracle, pack_oracle  # noqa: E402
from repro.geodesic import GeodesicEngine  # noqa: E402
from repro.core import open_oracle  # noqa: E402
from repro.serving import OracleService, TerrainSpec, ThreadedServer  # noqa: E402
from repro.serving.loadgen import (  # noqa: E402
    closed_loop,
    open_loop,
    replay_direct,
    replay_workload,
    sample_pairs,
)
from repro.serving.workloads import (  # noqa: E402
    SCENARIOS,
    generate_workload,
)
from repro.terrain import make_terrain, sample_uniform  # noqa: E402

# Workload shapes shared with the query-throughput benchmark.
from bench_query_throughput import SCALES  # noqa: E402


def pack_scale(scale: str, directory: str, density: int, seed: int) -> str:
    """Build one scale's oracle and pack it; returns the store path."""
    spec = SCALES[scale]
    mesh = make_terrain(
        grid_exponent=spec["exponent"],
        extent=spec["extent"],
        relief=spec["relief"],
        seed=seed,
    )
    pois = sample_uniform(mesh, spec["pois"], seed=seed + 1)
    engine = GeodesicEngine(mesh, pois, points_per_edge=density)
    oracle = SEOracle(engine, spec["epsilon"], seed=seed).build()
    path = os.path.join(directory, f"{scale}.store")
    pack_oracle(oracle, path)
    return path


def _summarise_leg(reports: list, stats: dict, max_batch: int,
                   linger_us: float) -> dict:
    ordered = sorted(reports, key=lambda report: report.qps)
    median = ordered[len(ordered) // 2]
    return {
        "max_batch": max_batch,
        "linger_us": linger_us,
        "repeats": len(reports),
        "qps": median.qps,
        "latency_ms": median.latency_ms,
        "errors": sum(report.errors for report in reports),
        "mean_server_batch": round(stats["mean_server_batch"], 3),
        "coalesce_ratio": round(stats["coalesce_ratio"], 4),
        "distances": [report.distances for report in reports],
    }


def closed_loop_legs(
    store_path: str,
    terrain: str,
    pairs: list,
    clients: int,
    max_batch: int,
    linger_us: float,
    warmup: int,
    repeats: int,
) -> tuple:
    """Interleaved closed-loop runs; returns (per_request, coalesced).

    Both servers stay up for the whole sweep and the repeats alternate
    between them (A B A B ...), so an environmental slowdown hits both
    legs instead of silently skewing the ratio.  The reported figure
    per leg is the median repeat by QPS — symmetric across legs,
    unlike best-of, which would reward whichever leg drew the luckiest
    scheduling window.  Every repeat's distances are kept for
    equivalence gating.
    """
    service_single = OracleService(max_resident=2)
    service_single.register(terrain, TerrainSpec(store_path))
    service_coalesced = OracleService(max_resident=2)
    service_coalesced.register(terrain, TerrainSpec(store_path))
    single_reports = []
    coalesced_reports = []
    with ThreadedServer(service_single, max_batch=1) as single_server:
        with ThreadedServer(
            service_coalesced, max_batch=max_batch, linger_us=linger_us
        ) as coalesced_server:
            for server in (single_server, coalesced_server):
                if warmup:
                    closed_loop(
                        server.host, server.port, terrain,
                        pairs[:warmup], clients,
                    )
            for _ in range(max(1, repeats)):
                single_reports.append(
                    closed_loop(
                        single_server.host, single_server.port,
                        terrain, pairs, clients,
                    )
                )
                coalesced_reports.append(
                    closed_loop(
                        coalesced_server.host, coalesced_server.port,
                        terrain, pairs, clients,
                    )
                )
            single_stats = service_single.stats()[terrain]
            coalesced_stats = service_coalesced.stats()[terrain]
    return (
        _summarise_leg(single_reports, single_stats, 1, 0.0),
        _summarise_leg(
            coalesced_reports, coalesced_stats, max_batch, linger_us
        ),
    )


def measure_scale(
    scale: str,
    store_path: str,
    queries: int,
    clients: int,
    max_batch: int,
    linger_us: float,
    open_rate_fraction: float,
    seed: int,
    repeats: int,
) -> dict:
    service = OracleService(max_resident=2)
    service.register(scale, TerrainSpec(store_path))
    num_pois = SCALES[scale]["pois"]
    pairs = sample_pairs(num_pois, queries, seed=seed + 2)
    reference = np.asarray(
        service.query_batch(
            scale,
            [source for source, _ in pairs],
            [target for _, target in pairs],
        ),
        dtype=np.float64,
    )
    warmup = min(queries // 4, 512)

    single, coalesced = closed_loop_legs(
        store_path, scale, pairs, clients, max_batch, linger_us, warmup,
        repeats,
    )

    mismatches = 0
    for leg in (single, coalesced):
        for distances in leg.pop("distances"):
            answers = np.asarray(
                [d if d is not None else np.nan for d in distances],
                dtype=np.float64,
            )
            mismatches += int(np.sum(answers != reference))

    # Open loop: offered load well inside the measured capacity, so the
    # percentiles describe queueing, not saturation collapse.
    open_rate = max(100.0, coalesced["qps"] * open_rate_fraction)
    open_pairs = pairs[: min(queries, 2000)]
    service_open = OracleService(max_resident=2)
    service_open.register(scale, TerrainSpec(store_path))
    with ThreadedServer(
        service_open, max_batch=max_batch, linger_us=linger_us
    ) as server:
        open_report = open_loop(
            server.host, server.port, scale, open_pairs, open_rate
        )
    answers = np.asarray(
        [d if d is not None else np.nan for d in open_report.distances],
        dtype=np.float64,
    )
    mismatches += int(np.sum(answers != reference[: len(open_pairs)]))

    speedup = (
        coalesced["qps"] / single["qps"] if single["qps"] > 0 else 0.0
    )
    return {
        "scale": scale,
        "num_pois": int(num_pois),
        "queries": queries,
        "clients": clients,
        "per_request": single,
        "coalesced": coalesced,
        "open_loop": {
            "rate": round(open_rate, 1),
            "requests": open_report.requests,
            "qps": round(open_report.qps, 2),
            "latency_ms": open_report.latency_ms,
            "errors": open_report.errors,
        },
        "speedup": speedup,
        "equivalent": mismatches == 0,
        "mismatches": mismatches,
    }


def measure_scenarios(
    store_path: str,
    scenarios: list,
    events: int,
    seed: int,
    p95_ceiling_ms: float,
) -> list:
    """Replay seeded scenario workloads against a live server.

    Per scenario, three gates:

    1. **byte identity** — replaying the same workload twice yields
       byte-identical response streams (the replay path is
       deterministic end to end);
    2. **wire == direct** — every decoded wire result equals a direct
       ``OracleService`` replay of the same events (the network layer
       adds no drift);
    3. **latency** — the replay's p95 stays under ``p95_ceiling_ms``
       (generous: catches a lost fast path, not a few-percent drift).
    """
    stored = open_oracle(store_path)
    num_pois = stored.num_pois
    matrix = stored.query_matrix()
    off_diagonal = matrix[~np.eye(num_pois, dtype=bool)]
    radius = round(float(np.median(off_diagonal)), 3)

    terrain = "real"
    service = OracleService(max_resident=2)
    service.register(terrain, TerrainSpec(store_path))
    runs = []
    with ThreadedServer(service) as server:
        for scenario in scenarios:
            workload = generate_workload(
                scenario, terrain, num_pois, events, seed=seed,
                radius=radius,
            )
            first = replay_workload(
                server.host, server.port, terrain, workload.events
            )
            second = replay_workload(
                server.host, server.port, terrain, workload.events
            )
            byte_identical = first.response_bytes == second.response_bytes
            reference = replay_direct(service, terrain, workload.events)
            wire_matches_direct = first.results == reference
            p95 = first.latency_ms["p95"]
            runs.append({
                "scenario": scenario,
                "events": len(workload.events),
                "seed": seed,
                "num_pois": int(num_pois),
                "params": workload.params,
                "qps": round(first.qps, 2),
                "latency_ms": first.latency_ms,
                "op_latency_ms": first.op_latency_ms,
                "errors": first.errors,
                "byte_identical_replay": byte_identical,
                "wire_matches_direct": wire_matches_direct,
                "p95_ceiling_ms": p95_ceiling_ms,
                "p95_ok": p95 <= p95_ceiling_ms,
            })
    return runs


def check_baseline(report: dict, baseline_path: str) -> list:
    """Generous sanity gates against a committed baseline report.

    CI machines differ wildly from the machine that committed the
    baseline, so the factors are wide: they catch an order-of-magnitude
    serving regression (a lost fast path, an accidental per-request
    sleep), not a few-percent drift.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    base_runs = {run["scale"]: run for run in baseline["runs"]}
    for run in report["runs"]:
        base = base_runs.get(run["scale"])
        if base is None:
            continue
        floor = base["coalesced"]["qps"] * 0.2
        if run["coalesced"]["qps"] < floor:
            failures.append(
                f"{run['scale']}: coalesced QPS "
                f"{run['coalesced']['qps']:,.0f} below baseline floor "
                f"{floor:,.0f}"
            )
        ceiling = base["coalesced"]["latency_ms"]["p95"] * 8.0
        if run["coalesced"]["latency_ms"]["p95"] > ceiling:
            failures.append(
                f"{run['scale']}: coalesced p95 "
                f"{run['coalesced']['latency_ms']['p95']:.2f} ms above "
                f"baseline ceiling {ceiling:.2f} ms"
            )
    return failures


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
        default=6000,
        help="closed-loop queries per scale",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=16,
        help="concurrent closed-loop client connections",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="coalescing batch cap for the batched leg",
    )
    parser.add_argument(
        "--linger-us",
        type=float,
        default=0.0,
        help="batching linger for the batched leg (microseconds)",
    )
    parser.add_argument(
        "--open-rate-fraction",
        type=float,
        default=0.5,
        help="open-loop offered load as a fraction of coalesced QPS",
    )
    parser.add_argument("--density", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="closed-loop repeats per leg; the best is reported "
        "(tames scheduling noise when clients and server share cores)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the largest scale's coalesced/per-request QPS "
        "ratio is at least this",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_serve.json to sanity-gate QPS and p95 "
        "against",
    )
    parser.add_argument(
        "--scenario-store",
        default=None,
        metavar="STORE",
        help="packed oracle store (e.g. from 'repro ingest'): run the "
        "scenario-replay legs against it instead of the synthetic "
        "scale sweep",
    )
    parser.add_argument(
        "--scenarios",
        nargs="+",
        default=list(SCENARIOS),
        choices=sorted(SCENARIOS),
        help="scenario workloads to replay (with --scenario-store)",
    )
    parser.add_argument(
        "--scenario-events",
        type=int,
        default=200,
        help="events per scenario workload",
    )
    parser.add_argument(
        "--scenario-p95-ms",
        type=float,
        default=50.0,
        help="per-scenario replay p95 latency ceiling (milliseconds)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="minimal start/query/shutdown run: tiny scale, few "
        "clients, no speed gate",
    )
    parser.add_argument("--out", default=None, help="JSON report path")
    args = parser.parse_args(argv)

    if args.smoke:
        args.scales = ["tiny"]
        args.queries = min(args.queries, 400)
        args.clients = min(args.clients, 4)
        args.repeats = 1
        args.min_speedup = None

    if args.scenario_store:
        return _scenario_main(args)

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_serve_") as tmp:
        for scale in args.scales:
            tick = time.perf_counter()
            store_path = pack_scale(scale, tmp, args.density, args.seed)
            build_seconds = time.perf_counter() - tick
            run = measure_scale(
                scale,
                store_path,
                args.queries,
                args.clients,
                args.max_batch,
                args.linger_us,
                args.open_rate_fraction,
                args.seed,
                args.repeats,
            )
            run["build_seconds"] = build_seconds
            runs.append(run)
            verdict = (
                "ok"
                if run["equivalent"]
                else f"EQUIVALENCE BROKEN: {run['mismatches']} mismatches"
            )
            print(
                f"{scale:7s} n={run['num_pois']:4d} x{args.clients:<3d} "
                f"per-req {run['per_request']['qps']:8,.0f} q/s  "
                f"coalesced {run['coalesced']['qps']:8,.0f} q/s "
                f"(batch {run['coalesced']['mean_server_batch']:5.1f}, "
                f"p95 {run['coalesced']['latency_ms']['p95']:6.2f} ms)  "
                f"x{run['speedup']:4.1f}  {verdict}"
            )

    equivalent = all(run["equivalent"] for run in runs)
    final_speedup = runs[-1]["speedup"]
    report = {
        "benchmark": "bench_serve",
        "queries": args.queries,
        "clients": args.clients,
        "max_batch": args.max_batch,
        "linger_us": args.linger_us,
        "density": args.density,
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
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
        print(
            "FAILED: networked answers are not bit-identical to the "
            "direct service replay"
        )
        return 1
    if args.min_speedup is not None and final_speedup < args.min_speedup:
        print(
            f"FAILED: coalescing speedup x{final_speedup:.1f} below "
            f"required x{args.min_speedup:.1f}"
        )
        return 1
    if args.baseline:
        failures = check_baseline(report, args.baseline)
        for failure in failures:
            print(f"FAILED baseline gate: {failure}")
        if failures:
            return 1
    return 0


def _scenario_main(args) -> int:
    """``--scenario-store`` mode: replay scenario workloads only."""
    runs = measure_scenarios(
        args.scenario_store,
        args.scenarios,
        args.scenario_events,
        args.seed,
        args.scenario_p95_ms,
    )
    ok = True
    for run in runs:
        checks = []
        if not run["byte_identical_replay"]:
            checks.append("REPLAY BYTES DIFFER")
        if not run["wire_matches_direct"]:
            checks.append("WIRE != DIRECT")
        if not run["p95_ok"]:
            checks.append(
                f"p95 {run['latency_ms']['p95']:.2f} ms over "
                f"{run['p95_ceiling_ms']:.0f} ms ceiling"
            )
        if run["errors"]:
            checks.append(f"{run['errors']} error replies")
        ok = ok and not checks
        verdict = "; ".join(checks) if checks else "ok"
        print(
            f"{run['scenario']:15s} {run['events']:5d} events  "
            f"{run['qps']:8,.0f} q/s  "
            f"p50 {run['latency_ms']['p50']:6.3f} ms  "
            f"p95 {run['latency_ms']['p95']:6.3f} ms  "
            f"p99 {run['latency_ms']['p99']:6.3f} ms  {verdict}"
        )
    report = {
        "benchmark": "bench_serve_scenarios",
        "store": args.scenario_store,
        "events": args.scenario_events,
        "seed": args.seed,
        "p95_ceiling_ms": args.scenario_p95_ms,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ok": ok,
        "runs": runs,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[report written to {args.out}]")
    if not ok:
        print("FAILED: scenario replay gates broken (see above)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
