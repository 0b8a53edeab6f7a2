"""Oracle persistence: save/build once, load and query many times.

A distance oracle's whole point is amortising construction across many
queries — which usually means across *processes* too.  This module
serialises a built :class:`~repro.core.oracle.SEOracle` to a compact,
versioned document (and back) without pickling arbitrary objects:

* the compressed partition tree (centres, layers, radii, parents);
* the node pair set (ordered id pairs + distances, in the pair hash's
  order: key order for a build);
* the construction metadata (ε, strategy, seed, stats).

The terrain/POI workload is *not* embedded — the loader receives the
(cheap to rebuild or separately stored) :class:`~repro.geodesic.engine.
GeodesicEngine` and re-attaches it, validating a workload fingerprint
so an oracle cannot silently be loaded against the wrong terrain.

Format history
--------------
v1
    The original JSON document: tree + pairs + ε/strategy/seed/stats.
v2
    Added the ``build`` metadata block (executor kind + jobs of the
    construction pipeline).
v3
    Added the optional ``compiled`` section: the query-serving chain
    matrix of a compiled oracle, so a serving process can load
    straight into the batched query path.
v4
    The **binary store** (:mod:`~repro.core.store`): an mmap-friendly
    ``.npz``-style container of flat NumPy sections — tree arrays,
    pair key/distance arrays, frozen perfect-hash tables, compiled
    chain matrix — that :func:`~repro.core.store.open_oracle` maps
    zero-copy into a :class:`~repro.core.compiled.CompiledOracle`.
    Not a JSON schema: v4 files start with zip magic and are routed
    to the store reader automatically.

Every older version keeps loading; :func:`load_oracle` sniffs the
format, and ``python -m repro pack`` (or :func:`save_oracle` with a
binary target) upgrades any v1–v3 document to v4 losslessly.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional, Union

import numpy as np

from ..datastructures.perfect_hash import (PerfectHashMap, pack_pair,
                                           unpack_pair)
from ..geodesic.engine import GeodesicEngine
from .compiled import CompiledOracle
from .compressed_tree import CompressedPartitionTree
from .oracle import SEOracle

__all__ = ["save_oracle", "load_oracle", "workload_fingerprint",
           "FORMAT_VERSION", "JSON_FORMAT_VERSION", "SUPPORTED_VERSIONS"]

#: The current on-disk format: the v4 binary store (core/store.py).
FORMAT_VERSION = 4
#: The newest *JSON document* schema (v4 is binary-only).
JSON_FORMAT_VERSION = 3
SUPPORTED_VERSIONS = (1, 2, 3, 4)

#: Path suffixes that select the binary store in :func:`save_oracle`.
BINARY_SUFFIXES = (".store", ".npz", ".bin")

_ZIP_MAGIC = b"PK\x03\x04"

PathLike = Union[str, os.PathLike]


def workload_fingerprint(engine: GeodesicEngine) -> str:
    """A stable hash of the terrain + POI workload an oracle belongs to."""
    digest = hashlib.sha256()
    mesh = engine.mesh
    digest.update(mesh.vertices.tobytes())
    digest.update(mesh.faces.tobytes())
    digest.update(engine.pois.positions.tobytes())
    digest.update(str(engine.graph.points_per_edge).encode())
    return digest.hexdigest()[:16]


def save_oracle(oracle: SEOracle, path: PathLike,
                compiled: Optional[bool] = None,
                binary: Optional[bool] = None) -> None:
    """Serialise a built oracle to ``path`` (JSON or binary store).

    Parameters
    ----------
    oracle:
        A built (and optionally compiled) oracle.
    compiled:
        Whether to embed the compiled-table section (format v3):
        ``True`` compiles now if needed, ``False`` omits the section,
        and the default ``None`` embeds it exactly when the oracle has
        already been compiled.  Ignored for binary targets (the v4
        store always carries the compiled tables).
    binary:
        ``True`` writes the v4 binary store
        (:func:`~repro.core.store.pack_oracle`), ``False`` the JSON
        document; the default ``None`` picks binary when the path
        suffix is one of ``BINARY_SUFFIXES``.
    """
    if not oracle.is_built:
        raise ValueError("cannot save an unbuilt oracle")
    if binary is None:
        binary = os.fspath(path).endswith(BINARY_SUFFIXES)
    if binary:
        from .store import pack_oracle
        pack_oracle(oracle, path)
        return
    if compiled is None:
        compiled = oracle.is_compiled
    tree = oracle.tree
    nodes = zip(tree.table.tolist(), tree.radii.tolist())
    document: Dict[str, Any] = {
        "format": "repro-se-oracle",
        "version": JSON_FORMAT_VERSION,
        "epsilon": oracle.epsilon,
        "strategy": oracle.strategy,
        "method": oracle.method,
        "seed": oracle.seed,
        "build": {
            "executor": oracle.stats.executor,
            "jobs": oracle.stats.jobs,
        },
        "fingerprint": workload_fingerprint(oracle.engine),
        "tree": {
            "root_id": tree.root_id,
            "height": tree.height,
            "root_radius": tree.root_radius,
            "nodes": [
                [node_id, center, layer, radius, parent, origin]
                for node_id, ((center, layer, parent, origin), radius)
                in enumerate(nodes)
            ],
        },
        "pairs": [
            [*unpack_pair(key), distance]
            for key, distance in oracle.pair_hash.items()
        ],
        "stats": {
            "height": oracle.stats.height,
            "pairs_stored": oracle.stats.pairs_stored,
            "total_seconds": oracle.stats.total_seconds,
        },
    }
    if compiled:
        tables = oracle.compiled()
        document["compiled"] = {
            "height": tables.height,
            "chains": tables.chains.tolist(),
        }
    with open(path, "w") as handle:
        json.dump(document, handle)


def _json_version_guard(document: Dict[str, Any],
                        source: str = "load_oracle") -> None:
    """Reject non-oracle documents and unknown JSON schema versions."""
    if document.get("format") != "repro-se-oracle":
        raise ValueError(f"{source}: not a serialized SE oracle")
    version = document.get("version")
    if version not in SUPPORTED_VERSIONS or version > JSON_FORMAT_VERSION:
        raise ValueError(
            f"{source}: unsupported JSON format version {version}"
        )


def _document_tree(document: Dict[str, Any]) -> CompressedPartitionTree:
    """The compressed tree of a v1–v3 JSON document, as its columns.

    Node rows are ``[node_id, center, layer, radius, parent, origin]``
    in id order; every id and layer is far below 2^53, so one float64
    parse holds them and the radii exactly.
    """
    rows = np.array(document["tree"]["nodes"],
                    dtype=np.float64).reshape(-1, 6)
    return CompressedPartitionTree(
        table=rows[:, [1, 2, 4, 5]].astype(np.int64),
        radii=rows[:, 3].copy(),
        root_id=document["tree"]["root_id"],
        height=document["tree"]["height"],
        root_radius=document["tree"]["root_radius"],
    )


def _document_pairs(document: Dict[str, Any]) -> PerfectHashMap:
    """The pair hash of a v1–v3 JSON document, in its pair order.

    A repeated pair is refused (``ValueError``), as at pack time.
    """
    return PerfectHashMap(
        [(pack_pair(a, b), distance)
         for a, b, distance in document["pairs"]],
        seed=document["seed"])


def _is_binary_store(path: PathLike) -> bool:
    with open(path, "rb") as handle:
        return handle.read(4) == _ZIP_MAGIC


def load_oracle(path: PathLike, engine: GeodesicEngine,
                strict: bool = True) -> SEOracle:
    """Load an oracle saved by :func:`save_oracle` (JSON or binary).

    The format is sniffed from the file itself: a v4 binary store is
    opened zero-copy (:func:`~repro.core.store.open_oracle`) and
    rehydrated against the engine; anything else is parsed as a v1–v3
    JSON document.

    Parameters
    ----------
    path:
        File produced by :func:`save_oracle`.
    engine:
        The workload the oracle was built for.  With ``strict`` the
        stored fingerprint must match the engine's; pass
        ``strict=False`` only when you know the workload is equivalent.
    """
    if _is_binary_store(path):
        from .store import open_oracle
        return open_oracle(path, mmap=True).to_oracle(engine,
                                                      strict=strict)
    with open(path) as handle:
        document = json.load(handle)
    _json_version_guard(document, source=str(path))
    if strict and document["fingerprint"] != workload_fingerprint(engine):
        raise ValueError(
            f"{path}: oracle was built for a different workload "
            "(terrain / POIs / Steiner density mismatch)"
        )

    pair_hash = _document_pairs(document)
    oracle = SEOracle(engine, document["epsilon"],
                      strategy=document["strategy"],
                      method=document["method"], seed=document["seed"])
    oracle._tree = _document_tree(document)
    oracle._pair_hash = pair_hash
    oracle._built = True
    compiled_section = document.get("compiled")
    if compiled_section is not None:
        oracle._compiled = CompiledOracle(
            np.asarray(compiled_section["chains"], dtype=np.int64),
            pair_hash, document["epsilon"],
        )
    oracle.stats.height = document["stats"]["height"]
    oracle.stats.pairs_stored = document["stats"]["pairs_stored"]
    oracle.stats.total_seconds = document["stats"]["total_seconds"]
    build_info = document.get("build", {})
    oracle.stats.executor = build_info.get("executor", "serial")
    oracle.stats.jobs = build_info.get("jobs", 1)
    return oracle
