"""Every metric the benchmark reports, with its unit and kind.

``exact`` metrics are program counts over a fixed window of work
(ledgers, build counters, store bytes): two runs with the same seed
must report identical values, so later count-based claims can rest on
them.  ``timed`` metrics are clock or memory readings and vary from
run to run.  ``BENCHMARK.json`` lists the same names; a test keeps the
two in step.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "throughput_ops": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "build_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "store_mb": ("MB", "lower"),
}

#: name -> (unit, kind)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "protocol.decode_us": ("us", "timed"),
    "protocol.validate_us": ("us", "timed"),
    "protocol.encode_us": ("us", "timed"),
    "server.cpu_us_per_op": ("us", "timed"),
    "server.batch_mean": ("count", "timed"),
    "server.batcher_wait_us": ("us", "timed"),
    "server.write_calls_per_op": ("count", "exact"),
    "server.write_us": ("us", "timed"),
    "server.unattributed_us": ("us", "timed"),
    "service.call_us": ("us", "timed"),
    "service.residency_us": ("us", "timed"),
    "service.terrain_loads": ("count", "exact"),
    "service.terrain_evictions": ("count", "exact"),
    "store.open_ms": ("ms", "timed"),
    "store.pack_s": ("s", "timed"),
    "compiled.probe_ns_per_query": ("ns", "timed"),
    "paged.probe_ns_per_query": ("ns", "timed"),
    "paged.page_loads": ("count", "exact"),
    "paged.page_hit_ratio": ("ratio", "exact"),
    "paged.peak_resident_mb": ("MB", "exact"),
    "tiled.probe_ns_per_query": ("ns", "timed"),
    "tiled.hash_keys_per_query": ("count", "exact"),
    "tiled.tile_loads": ("count", "exact"),
    "tiled.tile_hit_ratio": ("ratio", "exact"),
    "tiled.store_mb": ("MB", "exact"),
    "proximity.knn_us": ("us", "timed"),
    "proximity.range_us": ("us", "timed"),
    "proximity.rnn_ms": ("ms", "timed"),
    "proximity.probes_per_op": ("count", "exact"),
    "ingest.read_s": ("s", "timed"),
    "ingest.mesh_s": ("s", "timed"),
    "ingest.poi_s": ("s", "timed"),
    "geodesic.graph_s": ("s", "timed"),
    "geodesic.graph_rss_mb": ("MB", "timed"),
    "geodesic.ssad_calls": ("count", "exact"),
    "geodesic.settled_nodes": ("count", "exact"),
    "build.tree_s": ("s", "timed"),
    "build.enhanced_s": ("s", "timed"),
    "build.pairs_s": ("s", "timed"),
    "build.hash_s": ("s", "timed"),
    "build.pairs_stored": ("count", "exact"),
    "dynamic.insert_us": ("us", "timed"),
    "dynamic.delete_us": ("us", "timed"),
    "dynamic.read_p50_ms": ("ms", "timed"),
    "dynamic.read_p99_ms": ("ms", "timed"),
    "flush.flush_s": ("s", "timed"),
    "flush.rebuild_s": ("s", "timed"),
    "flush.reused_rows": ("count", "exact"),
    "flush.computed_rows": ("count", "exact"),
    "loadgen.cpu_us_per_op": ("us", "timed"),
    "reconcile.denominator_us_per_op": ("us", "timed"),
    "reconcile.layer_sum_us_per_op": ("us", "timed"),
    "reconcile.unattributed_us_per_op": ("us", "timed"),
    "overhead.throughput_ratio": ("ratio", "timed"),
    "overhead.build_ratio": ("ratio", "timed"),
}

EXACT = frozenset(name for name, (_, kind) in PER_LAYER.items()
                  if kind == "exact")


def report(values: Dict[str, float], trace: bool) -> Dict[str, dict]:
    """The ``metrics`` object: every metric of the requested set, in
    registry order, each ``{"value", "unit"}``."""
    registry = PER_LAYER if trace else END_TO_END
    missing = [name for name in registry if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {name: {"value": float(values[name]), "unit": spec[0]}
            for name, spec in registry.items()}
