"""SQL analytics mirror: a v4 store's tables as a sqlite3 database.

Ad-hoc analytics — error panels, pair-count-by-layer histograms,
coverage joins — should not require writing NumPy against the packed
columns.  :func:`mirror_store` streams a store's pair table, tree
rows, and ancestor chains into a stdlib :mod:`sqlite3` database
(page-sized chunks: the mirror itself never materialises an O(#pairs)
array), :func:`mirror_service_stats` adds a service's per-terrain
counters, and a set of **canned views** answers the common questions
as plain SQL.  The ``repro analyze`` CLI verb wraps all of it.

Schema
------
``meta(key, value)``
    Flattened store metadata (``epsilon``, ``seed``, ``stats.*`` …).
``tree_nodes(node_id, center, layer, parent, origin, radius)``
    One row per compressed-tree node (``tree_table`` + ``tree_radii``).
``pairs(pair_index, source_node, target_node, distance)``
    The node-pair set, keys unpacked into their two node ids.
``chains(poi, layer, node)``
    Occupied ancestor-chain entries (the ``-1`` padding is dropped).
``terrain_counters(terrain, metric, value)``
    Numeric leaves of :meth:`~repro.serving.service.OracleService.
    stats`, dotted-path metric names (``paging.peak_resident_bytes``).

Canned views
------------
``error_stats``
    One-row integrity/error panel: pair counts, self-pair zero-
    distance violations (must be 0), distance extrema, the ε budget.
``pair_count_by_layer``
    Pairs grouped by the source node's tree layer, with distance
    min/mean/max — the layer histogram behind the size model.
``poi_coverage``
    Per POI: occupied chain layers and the number of stored pairs
    whose source node lies on the POI's chain — exactly the candidate
    set a batched probe scans from that source.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.store import PathLike, StoreFile

__all__ = ["mirror_store", "mirror_service_stats", "run_view",
           "run_sql", "CANNED_VIEWS"]

_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT);
CREATE TABLE tree_nodes (
    node_id INTEGER PRIMARY KEY, center INTEGER, layer INTEGER,
    parent INTEGER, origin INTEGER, radius REAL);
CREATE TABLE pairs (
    pair_index INTEGER PRIMARY KEY, source_node INTEGER,
    target_node INTEGER, distance REAL);
CREATE TABLE chains (poi INTEGER, layer INTEGER, node INTEGER);
CREATE TABLE terrain_counters (
    terrain TEXT, metric TEXT, value REAL);
CREATE INDEX pairs_source ON pairs (source_node);
CREATE INDEX chains_node ON chains (node);
"""

_VIEWS = {
    "error_stats": """
CREATE VIEW error_stats AS SELECT
    (SELECT COUNT(*) FROM pairs) AS pairs,
    (SELECT COUNT(*) FROM pairs
        WHERE source_node = target_node) AS self_pairs,
    (SELECT COUNT(*) FROM pairs
        WHERE source_node = target_node
          AND distance != 0.0) AS nonzero_self_distances,
    (SELECT MIN(distance) FROM pairs
        WHERE source_node != target_node) AS min_cross_distance,
    (SELECT AVG(distance) FROM pairs) AS mean_distance,
    (SELECT MAX(distance) FROM pairs) AS max_distance,
    (SELECT value FROM meta WHERE key = 'epsilon') AS epsilon
""",
    "pair_count_by_layer": """
CREATE VIEW pair_count_by_layer AS
SELECT t.layer AS layer, COUNT(*) AS pairs,
       MIN(p.distance) AS min_distance,
       AVG(p.distance) AS mean_distance,
       MAX(p.distance) AS max_distance
FROM pairs p JOIN tree_nodes t ON t.node_id = p.source_node
GROUP BY t.layer ORDER BY t.layer
""",
    "poi_coverage": """
CREATE VIEW poi_coverage AS
SELECT c.poi AS poi,
       COUNT(DISTINCT c.layer) AS chain_layers,
       COUNT(p.pair_index) AS covering_pairs
FROM chains c LEFT JOIN pairs p ON p.source_node = c.node
GROUP BY c.poi ORDER BY c.poi
""",
}

#: Names accepted by :func:`run_view` and ``repro analyze --view``.
CANNED_VIEWS = tuple(_VIEWS)

_PAIR_SHIFT = np.uint64(32)
_PAIR_MASK = np.uint64(0xFFFFFFFF)


def _flat_meta(meta: Dict[str, Any], prefix: str = ""
               ) -> Iterable[Tuple[str, str]]:
    for key, value in meta.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _flat_meta(value, prefix=name + ".")
        else:
            yield name, json.dumps(value)


def mirror_store(store_path: PathLike,
                 db_path: PathLike,
                 chunk_rows: int = 8192,
                 service_stats: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """Mirror a monolithic v4 store into a fresh sqlite3 database.

    ``db_path`` is replaced if it exists.  The pair and chain columns
    stream through in ``chunk_rows``-row slices read straight from the
    section offsets — resident memory stays O(chunk), not O(#pairs).
    ``service_stats`` optionally mirrors an
    :meth:`~repro.serving.service.OracleService.stats` report into
    ``terrain_counters``.  Returns a report of per-table row counts.
    """
    with StoreFile(store_path) as store:
        if "tiles" in store.meta:
            raise ValueError(
                f"{store_path}: tiled stores are not mirrorable yet; "
                "mirror the per-tile stores instead"
            )
        if chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        db_path = os.fspath(db_path)
        if os.path.exists(db_path):
            os.unlink(db_path)
        connection = sqlite3.connect(db_path)
        try:
            connection.executescript(_SCHEMA)
            for statement in _VIEWS.values():
                connection.execute(statement)
            connection.executemany(
                "INSERT INTO meta VALUES (?, ?)", list(_flat_meta(store.meta))
            )

            table = store.array("tree_table", mmap=False)
            radii = store.array("tree_radii", mmap=False)
            connection.executemany(
                "INSERT INTO tree_nodes VALUES (?, ?, ?, ?, ?, ?)",
                ((node_id, *map(int, row), float(radius))
                 for node_id, (row, radius)
                 in enumerate(zip(table.tolist(), radii.tolist()))))

            num_pairs = store.layout("pair_keys")[2][0]
            for start in range(0, num_pairs, chunk_rows):
                count = min(chunk_rows, num_pairs - start)
                keys = store.rows("pair_keys", start, count)
                distances = store.rows("pair_distances", start, count)
                sources = (keys >> _PAIR_SHIFT).astype(np.int64)
                targets = (keys & _PAIR_MASK).astype(np.int64)
                connection.executemany(
                    "INSERT INTO pairs VALUES (?, ?, ?, ?)",
                    zip(range(start, start + count), sources.tolist(),
                        targets.tolist(), distances.tolist()))

            num_pois = store.layout("chains")[2][0]
            for start in range(0, num_pois, chunk_rows):
                count = min(chunk_rows, num_pois - start)
                chunk = store.rows("chains", start, count)
                pois, list_layers = np.nonzero(chunk != -1)
                connection.executemany(
                    "INSERT INTO chains VALUES (?, ?, ?)",
                    zip((pois + start).tolist(), list_layers.tolist(),
                        chunk[pois, list_layers].tolist()))

            if service_stats:
                mirror_service_stats(connection, service_stats)
            connection.commit()
            report = {"db_path": db_path, "views": list(CANNED_VIEWS), "tables": {}}
            for name in ("meta", "tree_nodes", "pairs", "chains", "terrain_counters"):
                ((count,),) = connection.execute(f"SELECT COUNT(*) FROM {name}")  # noqa: S608
                report["tables"][name] = count
            return report
        finally:
            connection.close()


def mirror_service_stats(connection: sqlite3.Connection,
                         stats: Dict[str, Dict[str, Any]]) -> int:
    """Insert the numeric leaves of a service ``stats()`` report.

    Nested ledgers flatten to dotted metric paths
    (``paging.peak_resident_bytes``, ``tiles.loads`` …); non-numeric
    leaves (paths, flags-as-strings) are skipped.  Returns the number
    of counter rows inserted.
    """
    rows: List[Tuple[str, str, float]] = []

    def walk(terrain: str, prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key, child in value.items():
                walk(terrain, f"{prefix}.{key}" if prefix else str(key),
                     child)
        elif isinstance(value, bool):
            rows.append((terrain, prefix, float(value)))
        elif isinstance(value, (int, float)):
            rows.append((terrain, prefix, float(value)))

    for terrain, entry in stats.items():
        walk(terrain, "", entry)
    connection.executemany(
        "INSERT INTO terrain_counters VALUES (?, ?, ?)", rows)
    return len(rows)


def run_view(db_path: PathLike, view: str
             ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    """Rows of one canned view: ``(column_names, rows)``."""
    if view not in _VIEWS:
        raise ValueError(
            f"unknown view {view!r}; canned views: {CANNED_VIEWS}")
    return run_sql(db_path, f"SELECT * FROM {view}")  # noqa: S608


def run_sql(db_path: PathLike, sql: str
            ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    """Run one (read-only) SQL statement against a mirror database."""
    connection = sqlite3.connect(
        f"file:{os.fspath(db_path)}?mode=ro", uri=True)
    try:
        cursor = connection.execute(sql)
        columns = [name for name, *_ in cursor.description or []]
        return columns, cursor.fetchall()
    finally:
        connection.close()
