"""``dem-churn``: ingest a DEM, build, then serve reads beside writes.

All in this process: a seeded geographic DEM is written as ESRI ASCII,
ingested (``read_dem`` -> ``dem_to_mesh`` -> ``place_pois``), built
with ``jobs=1``, packed and reopened (DEM file to reopened store is
``build_s``), and registered mutable in an ``OracleService``.  The
measured phase replays trials of ``TRIAL_OPS`` seeded operations —
inserts (each followed by a read of the new POI, which pays its SSAD),
deletes, point queries and kNN — each trial closed by a synchronous
``flush``.  A trial makes fewer
updates than the overlay's rebuild threshold, so the measured flushes
are the only rebuilds.

Each set-up ingests a different DEM drawn from the seed, so
``build_s``, a median over set-ups, is not the build time of one
random partition tree; the churn runs on the last set-up's store.
"""

from __future__ import annotations

import math
import os
import random
import time
from typing import Dict, List

import numpy as np

import inputs
import measure

SIZE, CELL_DEG, LAT0, LON0 = 33, 0.0009, 46.4, 7.6
RELIEF, POIS, EPSILON = 400.0, 64, 0.25
INSERTS, DELETES, KNN, K = 6, 6, 40, 5
TRIAL_OPS = 300
QUERIES = TRIAL_OPS - 2 * INSERTS - DELETES - KNN
#: flush counters are read over the first EXACT_FLUSHES trials
EXACT_FLUSHES = 3
TAIL = 0.99
#: enough trials for the exact window and for >= 10 samples past p99
MIN_TRIALS = max(EXACT_FLUSHES, math.ceil(
    measure.MIN_BEYOND / (1 - TAIL) / TRIAL_OPS))
SAMPLE = 200
REBUILD_FACTOR = 0.25
# A trial's updates must stay under the overlay's amortised-rebuild
# threshold, or a rebuild would land inside a measured operation.
if INSERTS + DELETES >= REBUILD_FACTOR * (POIS - DELETES):
    raise ValueError("a trial's updates would trigger an overlay rebuild")
#: cell-centre extent of the written DEM
LATS = (LAT0 + CELL_DEG / 2, LAT0 + CELL_DEG / 2 + (SIZE - 1) * CELL_DEG)
LONS = (LON0 + CELL_DEG / 2, LON0 + CELL_DEG / 2 + (SIZE - 1) * CELL_DEG)


def _setup(ctx, dem_path: str, latlons, store_path: str):
    """Ingest, build, pack, reopen, register; returns (build seconds,
    a dict)."""
    from repro.core import SEOracle, store
    from repro.serving import OracleService, TerrainSpec
    from repro.terrain import ingest

    began = time.perf_counter()
    with ctx.span("setup.build"):
        grid = ingest.read_dem(dem_path)
        mesh, projection = ingest.dem_to_mesh(grid)
        pois = ingest.place_pois(mesh, projection, latlons)
        engine = ctx.engine(mesh, pois)
        oracle = SEOracle(engine, EPSILON, seed=0, jobs=1).build()
        store.pack_oracle(oracle, store_path)
        stored = store.open_oracle(store_path)
    build_s = time.perf_counter() - began
    service = OracleService(max_resident=1)
    service.register("d", TerrainSpec(store_path, mutable=True,
                                      engine=engine,
                                      rebuild_factor=REBUILD_FACTOR))
    service.query_batch("d", list(range(POIS)), list(range(POIS))[::-1])
    service.k_nearest("d", 0, K)
    return build_s, {"oracle": oracle, "stored": stored,
                     "service": service, "projection": projection}


def _plan(rng: random.Random) -> List[str]:
    kinds = (["insert"] * INSERTS + ["delete"] * DELETES
             + ["knn"] * KNN + ["query"] * QUERIES)
    rng.shuffle(kinds)
    return kinds


def _dem(seed: int, setup: int, path: str):
    """Write set-up ``setup``'s seeded DEM to ``path``; returns the
    lat/lon of its POIs."""
    rng = np.random.default_rng((seed, setup))
    inputs.write_asc(path, inputs.heightfield(rng, SIZE, RELIEF) + 800,
                     LAT0, LON0, CELL_DEG)
    return [(LATS[0] + (LATS[1] - LATS[0]) * u,
             LONS[0] + (LONS[1] - LONS[0]) * v)
            for u, v in inputs.jittered_grid(rng, POIS)]


def run(ctx):
    from repro.core.dynamic import DynamicSEOracle

    dem_path = ctx.path("dem.asc")
    store_path = ctx.path("d.store")

    # Flushes run inside the service; keep each flushed overlay and its
    # returned counters so answers and counts can be read afterwards.
    flushed: List[tuple] = []
    original_flush = DynamicSEOracle.flush

    def keep(self, *args, **kwargs):
        counts = original_flush(self, *args, **kwargs)
        flushed.append((self, counts, self.oracle.stats))
        return counts

    DynamicSEOracle.flush = keep
    try:
        return _run(ctx, dem_path, store_path, flushed)
    finally:
        DynamicSEOracle.flush = original_flush


def _run(ctx, dem_path, store_path, flushed):
    from repro.terrain import ingest

    for setup in range(ctx.setups):
        latlons = _dem(ctx.seed, setup, dem_path)
        state = ctx.set_up(
            lambda: _setup(ctx, dem_path, latlons, store_path))
    graph_rss = ctx.graph_rss_mb
    store_bytes = os.path.getsize(store_path)
    store_payload = measure.payload_bytes(store_path)
    service, oracle, stored = (state["service"], state["oracle"],
                               state["stored"])
    projection = state["projection"]

    # -- set-up answers: reopened store vs in-memory oracle, haversine
    failed = 0
    rng = random.Random(ctx.seed)
    sample = [(rng.randrange(POIS), rng.randrange(POIS))
              for _ in range(SAMPLE)]
    reopened = stored.query_batch([a for a, _ in sample],
                                  [b for _, b in sample])
    failed += sum(float(value) != oracle.query(a, b)
                  for value, (a, b) in zip(reopened, sample))
    gate = ingest.haversine_gate(stored, latlons, EPSILON)
    failed += len(gate["failures"])

    # -- measured phase ------------------------------------------------
    live = list(range(POIS))
    latencies: List[float] = []
    by_kind: Dict[str, List[float]] = {}
    trials_s: List[float] = []
    #: latencies recorded by the end of each trial
    trial_ends: List[int] = []
    #: speed factor of each trial, from reference runs on either side
    factors: List[float] = []
    flushes_s: List[float] = []
    attempted = 0

    def timed(kind: str, call):
        nonlocal attempted, failed
        attempted += 1
        tick = time.perf_counter()
        try:
            result = call()
        except (KeyError, ValueError, RuntimeError):
            failed += 1
            result = None
        elapsed = time.perf_counter() - tick
        latencies.append(elapsed)
        by_kind.setdefault(kind, []).append(elapsed)
        return result

    steal0 = measure.steal_seconds()
    cpu0 = time.process_time()
    deadline = time.perf_counter() + ctx.seconds
    window = time.perf_counter_ns()
    while len(trials_s) < MIN_TRIALS or time.perf_counter() < deadline:
        plan = _plan(rng)
        # Reads address POIs of the flushed base; only the read right
        # after an insert touches the new POI, so every trial pays
        # exactly INSERTS overlay SSADs.
        base = list(live)
        before = measure.reference_ns()
        began = time.perf_counter()
        with ctx.span("churn"):
            for kind in plan:
                if kind == "insert":
                    x, y = projection.to_xy(rng.uniform(*LATS),
                                            rng.uniform(*LONS))
                    new = timed(kind, lambda: service.insert_poi("d", x, y))
                    if new is not None:
                        live.append(new)
                        other = rng.choice(base)
                        timed("fresh-read", lambda: service.query_batch(
                            "d", [new], [other]))
                elif kind == "delete":
                    victim = base.pop(rng.randrange(len(base)))
                    live.remove(victim)
                    timed(kind, lambda: service.delete_poi("d", victim))
                elif kind == "knn":
                    source = rng.choice(base)
                    timed(kind, lambda: service.k_nearest("d", source, K))
                else:
                    a, b = rng.choice(base), rng.choice(base)
                    timed(kind, lambda: service.query_batch("d", [a], [b]))
        trials_s.append(time.perf_counter() - began)
        trial_ends.append(len(latencies))
        factors.append(measure.speed_factor(before, measure.reference_ns()))
        tick = time.perf_counter()
        with ctx.span("flush"):
            service.flush("d")
        flushes_s.append(time.perf_counter() - tick)
        failed += _check_flush(service, store_path, live, rng,
                               flushed[-1][0])
        if len(trials_s) == EXACT_FLUSHES:
            exact_end = time.perf_counter_ns()
    window_end = time.perf_counter_ns()
    cpu_s = time.process_time() - cpu0
    steal1 = measure.steal_seconds()
    peak = measure.peak_rss_mb(os.getpid())

    timed_values, unscaled, samples = measure.timings(
        TRIAL_OPS, trials_s, latencies, trial_ends, factors, TAIL)
    values = {
        **timed_values,
        **ctx.setup_values(),
        "peak_rss_mb": peak,
        "store_mb": store_bytes / 1e6,
    }
    window_flushes = flushed[:EXACT_FLUSHES]
    exact = {
        "build.pairs_stored": oracle.stats.pairs_stored,
        "geodesic.ssad_calls": oracle.stats.ssad_calls + sum(
            stats.ssad_calls for _, _, stats in window_flushes),
        "geodesic.settled_nodes": oracle.stats.settled_nodes + sum(
            stats.settled_nodes for _, _, stats in window_flushes),
        "flush.reused_rows": sum(counts["reused_rows"]
                                 for _, counts, _ in window_flushes),
        "flush.computed_rows": sum(counts["computed_rows"]
                                   for _, counts, _ in window_flushes),
        "store_payload_bytes": store_payload,
    }
    counters = {key: value for key, value in exact.items()
                if key != "store_payload_bytes"}
    counters.update({
        "flush.flush_s": measure.median_or_zero(flushes_s),
        "geodesic.graph_rss_mb": graph_rss,
    })
    diagnostics = {
        "tail_percentile": TAIL, "samples": samples,
        "trials": len(trials_s), "steal_s": steal1 - steal0,
        "process_cpu_us_per_op": cpu_s / attempted * 1e6,
        "flushes_s": flushes_s, "unscaled": unscaled,
        "trial_speed_factors": factors, **ctx.setup_diagnostics(),
        "haversine_min_ratio": gate["min_ratio"],
        "build_stats_s": measure.stage_seconds(oracle.stats),
        "op_ms": {kind: {"count": len(times),
                         "mean": 1e3 * sum(times) / len(times),
                         "p50": 1e3 * measure.percentile(times, 0.5)}
                  for kind, times in sorted(by_kind.items())},
    }
    return ctx.outcome(values=values, counters=counters, exact=exact,
                       attempted=attempted, failed=failed,
                       diagnostics=diagnostics,
                       window=(window, window_end),
                       exact_window=(window, exact_end), ops=attempted)


def _check_flush(service, store_path: str, live: List[int],
                 rng: random.Random, overlay) -> int:
    """Repacked store vs the live overlay on a sample of live pairs:
    the served answers, the store file reopened and the rebuilt
    oracle's scalar walk must agree bit for bit."""
    from repro.core import store

    ordered = sorted(live)
    slot = {poi: i for i, poi in enumerate(ordered)}
    pairs = [(rng.choice(ordered), rng.choice(ordered))
             for _ in range(SAMPLE)]
    served = service.query_batch("d", [a for a, _ in pairs],
                                 [b for _, b in pairs])
    sources = [slot[a] for a, _ in pairs]
    targets = [slot[b] for _, b in pairs]
    on_disk = store.open_oracle(store_path).query_batch(sources, targets)
    scalar = np.array([overlay.oracle.query(a, b)
                       for a, b in zip(sources, targets)])
    return int(np.sum((served != on_disk) | (served != scalar)))
