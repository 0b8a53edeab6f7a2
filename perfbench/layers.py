"""Per-layer numbers from recorded spans.

A layer's time is the self time of its spans: span duration minus
what its traced children cover.  Ratios are taken over the work the
layer saw (requests, probes, distances) inside the measured window.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import numpy as np

import measure
from spans import SpanTable

INDEX_LAYERS = ("compiled", "paged", "tiled", "dynamic")


def _mean_self_us(table: SpanTable, mask: np.ndarray) -> float:
    count = int(mask.sum())
    return table.self_us(mask) / count if count else 0.0


def _per_distance_ns(table: SpanTable, layer: str,
                     window: np.ndarray) -> float:
    owned = table.layer(layer) & window
    distances = table.items[table.top_of((layer,)) & window].sum()
    return float(table.self_ns[owned].sum()) / distances if distances else 0.0


def per_root(table: SpanTable, root_name: str, mask: np.ndarray
             ) -> List[float]:
    """Seconds of self time of ``mask`` spans under each root span
    called ``root_name``, one entry per root."""
    roots = np.flatnonzero(table.named(root_name))
    return [float(table.self_ns[mask & (table.root == root)].sum()) / 1e9
            for root in roots]


def server(table: SpanTable, window: Tuple[int, int], ops: int,
           exact_window: Tuple[int, int], cpu_us_per_op: float
           ) -> Dict[str, float]:
    """Layers of the server process over the measured window."""
    inside = table.within(*window)
    exact = table.within(*exact_window)
    out: Dict[str, float] = {}
    for metric, name in (("protocol.decode_us", "protocol.decode"),
                         ("protocol.validate_us", "protocol.validate"),
                         ("protocol.encode_us", "protocol.encode")):
        out[metric] = _mean_self_us(table, table.named(name) & inside)
    writes = table.named("server.write") & inside
    out["server.write_calls_per_op"] = int(
        (table.named("server.write") & exact).sum()) / max(
        1, int((table.named("protocol.decode") & exact).sum()))
    out["server.write_us"] = table.self_us(writes) / ops
    out["service.call_us"] = _mean_self_us(table,
                                           table.layer("service") & inside)
    out["service.residency_us"] = _mean_self_us(
        table, table.layer("residency") & inside)
    opens = table.named("store.open") & inside
    out["store.open_ms"] = (float(table.duration[opens].mean()) / 1e6
                            if opens.any() else 0.0)
    for layer in ("compiled", "paged", "tiled"):
        out[f"{layer}.probe_ns_per_query"] = _per_distance_ns(
            table, layer, inside)
    tiled_keys = table.items[table.named("hash.get_batch")
                             & table.layer("tiled") & exact].sum()
    tiled_distances = table.items[table.top_of(("tiled",)) & exact].sum()
    out["tiled.hash_keys_per_query"] = (
        float(tiled_keys) / tiled_distances if tiled_distances else 0.0)
    out["proximity.knn_us"] = _mean_self_us(
        table, table.named("proximity.knn") & inside)
    out["proximity.range_us"] = _mean_self_us(
        table, table.named("proximity.range") & inside)
    out["proximity.rnn_ms"] = _mean_self_us(
        table, table.named("proximity.rnn") & inside) / 1e3
    out["proximity.probes_per_op"] = probes_per_op(table, exact)

    # Point queries: decode end -> start of the batch probe carrying
    # them.  Batcher probes are the service.query_batch spans no traced
    # request handler encloses.
    decodes = table.named("protocol.decode") & inside & (table.items == 1)
    ready = np.sort(table.end[decodes]).tolist()
    batches = (table.named("service.query_batch") & inside
               & (table.parent < 0))
    order = np.argsort(table.start[batches])
    waits = measure.fifo_waits(
        ready, table.start[batches][order].tolist(),
        table.items[batches][order].tolist())
    out["server.batcher_wait_us"] = (
        statistics.fmean(waits) / 1e3 if waits else 0.0)

    traced_us = table.self_us(inside) / ops
    out["reconcile.denominator_us_per_op"] = cpu_us_per_op
    out["reconcile.layer_sum_us_per_op"] = traced_us
    out["reconcile.unattributed_us_per_op"] = cpu_us_per_op - traced_us
    out["server.unattributed_us"] = cpu_us_per_op - traced_us
    return out


def probes_per_op(table: SpanTable, mask: np.ndarray) -> float:
    """Distances requested from the index per proximity op."""
    proximity = table.layer("proximity") & mask
    if not proximity.any():
        return 0.0
    member = np.zeros(table.code.size, dtype=bool)
    for layer in INDEX_LAYERS:
        member |= table.layer(layer)
    nested = table.parent >= 0
    direct = np.zeros(table.code.size, dtype=bool)
    direct[nested] = proximity[table.parent[nested]]
    return float(table.items[member & direct].sum()) / int(proximity.sum())


def build(table: SpanTable) -> Dict[str, float]:
    """Build stages per set-up (median over set-ups)."""
    out = {}
    for metric, name in (("build.tree_s", "build.tree"),
                         ("build.enhanced_s", "build.enhanced"),
                         ("build.pairs_s", "build.pairs"),
                         ("build.hash_s", "build.hash"),
                         ("store.pack_s", "store.pack"),
                         ("geodesic.graph_s", "geodesic.graph")):
        out[metric] = measure.median_or_zero(
            per_root(table, "setup", table.named(name)))
    return out


def build_crosscheck(table: SpanTable, stats_s: Dict[str, float]
                     ) -> Dict[str, List[float]]:
    """Per build stage of the last set-up: [span seconds, the
    oracle's own ``BuildStats`` seconds]."""
    return {stage: [per_root(table, "setup",
                             table.named(f"build.{stage}"))[-1], seconds]
            for stage, seconds in stats_s.items()}


def in_process(table: SpanTable, ops: int,
               exact_window: Tuple[int, int]) -> Dict[str, float]:
    """Layers of the churn phase of an in-process workload: spans
    under the benchmark's ``churn`` (operations) and ``flush`` roots."""
    churn = table.under("churn")
    if not churn.any():
        return {}
    out: Dict[str, float] = {}
    for metric, name in (("ingest.read_s", "ingest.read"),
                         ("ingest.mesh_s", "ingest.mesh"),
                         ("ingest.poi_s", "ingest.poi")):
        out[metric] = measure.median_or_zero(
            per_root(table, "setup", table.named(name)))
    out["dynamic.insert_us"] = _mean_self_us(
        table, table.named("dynamic.insert") & churn)
    out["dynamic.delete_us"] = _mean_self_us(
        table, table.named("dynamic.delete") & churn)
    reads = table.self_ns[table.named("dynamic.query_batch") & churn]
    if reads.size:
        out["dynamic.read_p50_ms"] = measure.percentile(
            reads.tolist(), 0.5) / 1e6
        out["dynamic.read_p99_ms"] = measure.percentile(
            reads.tolist(), 0.99) / 1e6
    rebuilds = table.named("flush.rebuild") & table.under("flush")
    out["flush.rebuild_s"] = measure.median_or_zero(
        (table.duration[rebuilds] / 1e9).tolist())
    out["service.call_us"] = _mean_self_us(table,
                                           table.layer("service") & churn)
    opens = table.named("store.open")
    out["store.open_ms"] = (float(table.duration[opens].mean()) / 1e6
                            if opens.any() else 0.0)
    out["compiled.probe_ns_per_query"] = _per_distance_ns(
        table, "compiled", churn)
    out["proximity.knn_us"] = _mean_self_us(
        table, table.named("proximity.knn") & churn)
    out["proximity.probes_per_op"] = probes_per_op(
        table, churn & table.within(*exact_window))
    roots = table.named("churn")
    wall_us = float(table.duration[roots].sum()) / 1e3 / ops
    traced_us = table.self_us(churn & ~table.layer("bench")) / ops
    out["reconcile.denominator_us_per_op"] = wall_us
    out["reconcile.layer_sum_us_per_op"] = traced_us
    out["reconcile.unattributed_us_per_op"] = wall_us - traced_us
    return out
