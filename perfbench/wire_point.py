"""``wire-point``: windows of point queries against one resident store.

One server process (one worker, ``max_batch`` 64) serves one small
monolithic store that fits in every cache.  A single-threaded
generator on the server's CPU sends ``WINDOW`` pre-encoded ``query``
requests at once on one connection, and the next window when all
their replies are in.  The index probe is a few percent of server
time here, so the protocol, the batcher and socket writes do nearly
all the work.

Each set-up builds the store of a different terrain drawn from the
seed, so ``build_s``, a median over set-ups, is not the build time of
one random partition tree; the last set-up's store is served.
"""

from __future__ import annotations

import json
import os
import time


import client
import inputs
import measure

GRID, EXTENT, RELIEF, POIS, EPSILON = 33, 1000.0, 150.0, 64, 0.25
WINDOW = 64
MAX_BATCH = 64
POOL = 40_000
WARMUP = 96 * WINDOW
TRIAL_OPS = 32 * WINDOW
MIN_TRIALS = 5
TAIL = 0.90


def run(ctx):
    sources, targets = inputs.point_pairs(ctx.seed + 1, POIS, POOL)
    lines = inputs.query_lines(sources, targets, "w")
    path = ctx.path("w.store")

    def build(setup: int):
        mesh, pois = inputs.terrain((ctx.seed, setup), GRID, EXTENT, RELIEF,
                                    POIS)
        build_s, oracle = ctx.build_store(mesh, pois, path, EPSILON)
        return build_s, oracle, [{"id": "w", "path": path}]

    oracle, server, sock = ctx.serve(
        build, lambda sock: client.windowed(sock, lines, WINDOW, 0.0,
                                            WARMUP, 1),
        max_resident=1, max_batch=MAX_BATCH)

    try:
        before = ctx.stats(server.port)["w"]
        cpu0, steal0 = measure.cpu_seconds(server.pid), measure.steal_seconds()
        window = time.perf_counter_ns()
        loop = client.windowed(sock, lines, WINDOW, ctx.seconds,
                               TRIAL_OPS, MIN_TRIALS)
        window_end = time.perf_counter_ns()
        cpu1, steal1 = measure.cpu_seconds(server.pid), measure.steal_seconds()
        peak = measure.peak_rss_mb(server.pid)
        after = ctx.stats(server.port)["w"]
    finally:
        sock.close()
        server.stop()

    # -- answers, outside every timed phase ---------------------------
    from repro.core import store

    reference = store.open_oracle(path).query_batch(sources, targets)
    failed = 0
    replies = loop.reply_lines()
    for position, raw in enumerate(replies):
        reply = json.loads(raw)
        slot = position % POOL
        if (not reply.get("ok") or reply.get("id") != slot
                or reply["result"]["distance"] != float(reference[slot])):
            failed += 1
    failed += loop.sent - len(replies)

    ops = loop.sent
    timed, unscaled, samples = loop.timings(TRIAL_OPS, TAIL)
    server_cpu_us = (cpu1 - cpu0) / ops * 1e6
    values = {
        **timed,
        **ctx.setup_values(),
        "peak_rss_mb": peak,
        "store_mb": os.path.getsize(path) / 1e6,
    }
    batches = after["server_batches"] - before["server_batches"]
    batched = after["server_batched_queries"] - before["server_batched_queries"]
    counters = {
        "server.cpu_us_per_op": server_cpu_us,
        "server.batch_mean": measure.mean_or_zero(batched, batches),
        "service.terrain_loads": after["loads"] - before["loads"],
        "service.terrain_evictions": after["evictions"] - before["evictions"],
        "build.pairs_stored": oracle.stats.pairs_stored,
        "geodesic.ssad_calls": oracle.stats.ssad_calls,
        "geodesic.settled_nodes": oracle.stats.settled_nodes,
        "geodesic.graph_rss_mb": ctx.graph_rss_mb,
        "loadgen.cpu_us_per_op": loop.cpu_s / ops * 1e6,
    }
    exact = {name: counters[name] for name in
             ("service.terrain_loads", "service.terrain_evictions",
              "build.pairs_stored", "geodesic.ssad_calls",
              "geodesic.settled_nodes")}
    exact["store_payload_bytes"] = measure.payload_bytes(path)
    diagnostics = {
        "tail_percentile": TAIL, "samples": samples,
        "trials": len(loop.trials_s), "window": WINDOW,
        "steal_s": steal1 - steal0,
        "generator_cpu_us_per_op": loop.cpu_s / ops * 1e6,
        "generator_turnaround_us": measure.mean_or_zero(
            loop.turnaround_ns / 1e3, loop.turnarounds),
        "server_cpu_us_per_op": server_cpu_us,
        "unscaled": unscaled, **ctx.setup_diagnostics(),
        "reference_ms": [ref / 1e6 for ref in loop.refs_ns],
        "build_stats_s": measure.stage_seconds(oracle.stats),
    }
    return ctx.outcome(values=values, counters=counters, exact=exact,
                       attempted=ops, failed=failed,
                       diagnostics=diagnostics,
                       window=(window, window_end), ops=ops,
                       trace_path=server.trace_path)
