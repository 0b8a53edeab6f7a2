"""``outofcore-proximity``: proximity scans over out-of-core probes.

One server process holds more than any of its caches:

* ``tiled`` — a tiled store (4 tiles) at ``max_resident_tiles`` 2;
* ``paged`` — a monolithic store paged at a quarter of its pair and
  hash columns;
* ``m0``..``m2`` — unpinned monolithic terrains, one more than the
  ``max_resident`` slots the two pinned terrains leave, so the
  terrain LRU evicts.

The tiled and paged terrains are pinned: ``stats`` reports only the
resident instance's ledger, and an eviction would reset it.  The
generator replays, one request outstanding, seeded ``moving-agents``
kNN, ``range-alerts`` and ``coverage-audit`` RNN events interleaved
across the terrains in fixed-composition cycles.  Tiled RNN (a full
distance matrix through stitching) is 2% of requests and sets p99;
paged and monolithic kNN and range set p50.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Dict, List, Tuple

import client
import inputs
import measure

GRID, EXTENT, RELIEF, EPSILON = 17, 1000.0, 150.0, 0.25
TILED_POIS, MONO_POIS, TILES, RESIDENT_TILES = 32, 48, 4, 2
MONO = ("m0", "m1", "m2")
MAX_RESIDENT = 4
K, RADIUS = 5, 250.0
#: events of each (terrain, op) per cycle of 100; one cycle = one trial
PER_CYCLE: Dict[Tuple[str, str], int] = {
    ("tiled", "knn"): 6, ("tiled", "range"): 6, ("tiled", "rnn"): 2,
    ("paged", "knn"): 16, ("paged", "range"): 16, ("paged", "rnn"): 6,
    **{(name, op): count for name in MONO
       for op, count in (("knn", 6), ("range", 6), ("rnn", 4))}}
CYCLE = sum(PER_CYCLE.values())
CYCLES = 60
#: exact counts are read over the first EXACT_TRIALS trials
EXACT_TRIALS = 8
TAIL = 0.99
#: enough trials for the exact window and for >= 10 samples past p99
MIN_TRIALS = max(EXACT_TRIALS, math.ceil(
    measure.MIN_BEYOND / (1 - TAIL) / CYCLE))
SCENARIOS = {"knn": "moving-agents", "range": "range-alerts",
             "rnn": "coverage-audit"}


def _events(seed: int, num_pois: Dict[str, int]):
    from repro.serving.workloads import generate_workload

    streams = {}
    for (terrain, op), count in PER_CYCLE.items():
        workload = generate_workload(
            SCENARIOS[op], terrain, num_pois[terrain], count * CYCLES,
            seed=seed + len(streams), k=K, radius=RADIUS)
        streams[(terrain, op)] = workload.events
    return inputs.interleave(seed, streams, PER_CYCLE, CYCLES)


def _lines(events) -> List[bytes]:
    from repro.serving import protocol

    return [protocol.encode(protocol.request(
        event["op"], request_id=index, terrain=terrain,
        **{key: value for key, value in event.items() if key != "op"}))
        for index, (terrain, event) in enumerate(events)]


def _build(ctx, terrains, paths):
    """Build and pack every store; returns (seconds, exact counts)."""
    from repro.core import store, tiled

    mesh, pois = terrains["tiled"]
    began = time.perf_counter()
    with ctx.span("setup.build"):
        build = tiled.build_tiled_oracle(mesh, pois, EPSILON, tiles=TILES,
                                         seed=0)
        tiled.pack_tiled(build, paths["tiled"])
        store.open_oracle(paths["tiled"])
    seconds = time.perf_counter() - began
    counts = {"build.pairs_stored": build.meta["stats"]["pairs_stored"]}
    for name in ("paged",) + MONO:
        mesh, pois = terrains[name]
        built, oracle = ctx.build_store(mesh, pois, paths[name], EPSILON)
        seconds += built
        for key, value in (("build.pairs_stored", oracle.stats.pairs_stored),
                           ("geodesic.ssad_calls", oracle.stats.ssad_calls),
                           ("geodesic.settled_nodes",
                            oracle.stats.settled_nodes)):
            counts[key] = counts.get(key, 0) + value
    return seconds, counts


def _page_budget(path: str) -> int:
    from repro.core.store import section_layouts

    _, layouts = section_layouts(path)
    columns = sum(shape[0] * dtype.itemsize
                  for name, (_, dtype, shape) in layouts.items()
                  if name.startswith(("pair_", "hash_level2_", "hash_slots")))
    return columns // 4


def _ledger(stats) -> Dict[str, float]:
    """The program's counters this workload reads, summed."""
    terrains = stats.values()
    return {
        "loads": sum(entry["loads"] for entry in terrains),
        "evictions": sum(entry["evictions"] for entry in terrains),
        "tile_loads": stats["tiled"]["tiles"]["loads"],
        "tile_hits": stats["tiled"]["tiles"]["hits"],
        "page_loads": stats["paged"]["paging"]["loads"],
        "page_hits": stats["paged"]["paging"]["hits"],
        "page_peak": stats["paged"]["paging"]["peak_resident_bytes"],
    }


def run(ctx):
    terrains = {
        "tiled": inputs.terrain(ctx.seed, GRID, EXTENT, RELIEF, TILED_POIS),
        **{name: inputs.terrain(ctx.seed + 1 + i, GRID, EXTENT, RELIEF,
                                MONO_POIS)
           for i, name in enumerate(("paged",) + MONO)}}
    num_pois = {name: len(pois) for name, (_, pois) in terrains.items()}
    events = _events(ctx.seed, num_pois)
    lines = _lines(events)
    warmup = _lines(_events(ctx.seed + 1000, num_pois)[:CYCLE])
    paths = {name: ctx.path(f"{name}.store") for name in terrains}

    def build(setup: int):
        build_s, counts = _build(ctx, terrains, paths)
        specs = [{"id": "tiled", "path": paths["tiled"], "pin": True,
                  "max_resident_tiles": RESIDENT_TILES},
                 {"id": "paged", "path": paths["paged"], "pin": True,
                  "max_resident_bytes": _page_budget(paths["paged"])}]
        specs += [{"id": name, "path": paths[name]} for name in MONO]
        return build_s, counts, specs

    counts, server, sock = ctx.serve(
        build, lambda sock: client.sequential(sock, warmup, 0.0, CYCLE, 1),
        max_resident=MAX_RESIDENT, max_batch=64)

    exact_stats: Dict[str, dict] = {}
    exact_end = [0]

    def after_trial(trials: int) -> None:
        if trials == EXACT_TRIALS:
            exact_end[0] = time.perf_counter_ns()
            exact_stats.update(ctx.stats(server.port))

    try:
        before = ctx.stats(server.port)
        cpu0, steal0 = measure.cpu_seconds(server.pid), measure.steal_seconds()
        window = time.perf_counter_ns()
        loop = client.sequential(sock, lines, ctx.seconds, CYCLE,
                                 MIN_TRIALS, after_trial)
        window_end = time.perf_counter_ns()
        cpu1, steal1 = measure.cpu_seconds(server.pid), measure.steal_seconds()
        peak = measure.peak_rss_mb(server.pid)
    finally:
        sock.close()
        server.stop()

    # -- answers, outside every timed phase ---------------------------
    from repro.serving import OracleService, TerrainSpec
    from repro.serving.loadgen import replay_direct

    resident = OracleService(max_resident=len(paths))
    for name, path in paths.items():
        resident.register(name, TerrainSpec(path))
    executed = min(loop.sent, len(events))
    reference: List[object] = [None] * executed
    for name in terrains:
        positions = [i for i in range(executed) if events[i][0] == name]
        answers = replay_direct(resident, name,
                                [events[i][1] for i in positions])
        for position, answer in zip(positions, answers):
            reference[position] = answer
    failed = loop.sent - len(loop.replies)
    for position, raw in enumerate(loop.replies):
        reply = json.loads(raw)
        expected = reference[position % len(events)]
        if (not reply.get("ok") or reply.get("id") != position % len(events)
                or expected is None or reply["result"] != expected):
            failed += 1

    ops = loop.sent
    timed, unscaled, samples = loop.timings(CYCLE, TAIL)
    server_cpu_us = (cpu1 - cpu0) / ops * 1e6
    store_bytes = sum(os.path.getsize(path) for path in paths.values())
    values = {
        **timed,
        **ctx.setup_values(),
        "peak_rss_mb": peak,
        "store_mb": store_bytes / 1e6,
    }
    start, end = _ledger(before), _ledger(exact_stats)
    delta = {key: end[key] - start[key] for key in start}
    exact = {
        "service.terrain_loads": delta["loads"],
        "service.terrain_evictions": delta["evictions"],
        "tiled.tile_loads": delta["tile_loads"],
        "tiled.tile_hit_ratio": measure.mean_or_zero(
            delta["tile_hits"], delta["tile_hits"] + delta["tile_loads"]),
        "paged.page_loads": delta["page_loads"],
        "paged.page_hit_ratio": measure.mean_or_zero(
            delta["page_hits"], delta["page_hits"] + delta["page_loads"]),
        "paged.peak_resident_mb": end["page_peak"] / 1e6,
        "tiled.store_mb": measure.payload_bytes(paths["tiled"]) / 1e6,
        **counts,
    }
    counters = {**exact,
                "server.cpu_us_per_op": server_cpu_us,
                "geodesic.graph_rss_mb": ctx.graph_rss_mb,
                "loadgen.cpu_us_per_op": loop.cpu_s / ops * 1e6}
    exact["store_payload_bytes"] = sum(
        measure.payload_bytes(path) for path in paths.values())
    diagnostics = {
        "tail_percentile": TAIL, "samples": samples,
        "trials": len(loop.trials_s), "steal_s": steal1 - steal0,
        "generator_cpu_us_per_op": loop.cpu_s / ops * 1e6,
        "server_cpu_us_per_op": server_cpu_us,
        "unscaled": unscaled, **ctx.setup_diagnostics(),
        "reference_ms": [ref / 1e6 for ref in loop.refs_ns],
    }
    return ctx.outcome(values=values, counters=counters, exact=exact,
                       attempted=ops, failed=failed,
                       diagnostics=diagnostics,
                       window=(window, window_end),
                       exact_window=(window, exact_end[0]), ops=ops,
                       trace_path=server.trace_path)
