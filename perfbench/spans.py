"""Span tracing from outside the program.

A :class:`Tracer` replaces public callables of the layers with
wrappers that record a span (name, start, end, parent span, request
id, item count) around each call.  Each wrapper is installed where the
caller looks the callable up — a module attribute such as
``repro.serving.protocol.encode`` or a class attribute such as
``OracleService.query_batch`` — so the program runs unchanged.  Spans
stay in memory, in flat integer arrays, and are analysed (or written
to disk by the server launcher) when the run ends.

Layer attribution: a hash lookup is work of the probe that issues it,
and a compiled-table probe that runs inside a tiled or paged probe is
work of that tiled or paged layer, so such spans are counted against
the enclosing layer.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: (owner, attribute, span name, layer, item counter, request-id getter)
Target = Tuple[Any, str, str, str, Optional[Callable], Optional[Callable]]


def _rows_of(position: int) -> Callable:
    return lambda args, kwargs, result: len(args[position])


def _matrix_items(args, kwargs, result) -> int:
    return int(np.asarray(result).size)


def _keys(args, kwargs, result) -> int:
    return len(args[1])


def _is_query(args, kwargs, result) -> int:
    return int(isinstance(result, dict) and result.get("op") == "query")


def _message_id(args, kwargs, result) -> int:
    value = args[0].get("id") if isinstance(args[0], dict) else None
    return value if isinstance(value, int) else -1


def _result_id(args, kwargs, result) -> int:
    value = result.get("id") if isinstance(result, dict) else None
    return value if isinstance(value, int) else -1


def targets() -> List[Target]:
    """Every traced callable, by layer (the repo's modules)."""
    from repro.core import oracle, store
    from repro.core.compiled import CompiledOracle
    from repro.core.dynamic import DynamicSEOracle
    from repro.core.paged import PagedOracle
    from repro.core.store import StoredOracle
    from repro.core.tiled import TiledOracle
    from repro.datastructures.perfect_hash import PerfectHashMap
    from repro.serving import protocol, service
    from repro.serving.service import OracleService
    from repro.terrain import ingest

    return [
        (protocol, "decode_line", "protocol.decode", "protocol",
         _is_query, _result_id),
        (protocol, "validate_request", "protocol.validate", "protocol",
         None, _message_id),
        (protocol, "encode", "protocol.encode", "protocol",
         None, _message_id),
        (asyncio.StreamWriter, "write", "server.write", "server",
         None, None),
        (OracleService, "query_batch", "service.query_batch", "service",
         _rows_of(2), None),
        (OracleService, "k_nearest", "service.k_nearest", "service",
         None, None),
        (OracleService, "range_query", "service.range_query", "service",
         None, None),
        (OracleService, "reverse_nearest", "service.reverse_nearest",
         "service", None, None),
        (OracleService, "insert_poi", "service.insert_poi", "service",
         None, None),
        (OracleService, "delete_poi", "service.delete_poi", "service",
         None, None),
        (OracleService, "flush", "service.flush", "service", None, None),
        (OracleService, "oracle", "service.residency", "residency",
         None, None),
        (service, "open_oracle", "store.open", "store.open", None, None),
        (store, "open_oracle", "store.open", "store.open", None, None),
        (service, "pack_oracle", "store.pack", "store.pack", None, None),
        (store, "pack_oracle", "store.pack", "store.pack", None, None),
        (service, "k_nearest_neighbors", "proximity.knn", "proximity",
         None, None),
        (service, "range_query", "proximity.range", "proximity",
         None, None),
        (service, "reverse_nearest_neighbors", "proximity.rnn",
         "proximity", None, None),
        (StoredOracle, "query_batch", "compiled.query_batch", "compiled",
         _rows_of(1), None),
        (StoredOracle, "query_matrix", "compiled.query_matrix",
         "compiled", _matrix_items, None),
        (CompiledOracle, "query_batch", "compiled.query_batch",
         "compiled", _rows_of(1), None),
        (CompiledOracle, "query_matrix", "compiled.query_matrix",
         "compiled", _matrix_items, None),
        (PagedOracle, "query_batch", "paged.query_batch", "paged",
         _rows_of(1), None),
        (PagedOracle, "query_matrix", "paged.query_matrix", "paged",
         _matrix_items, None),
        (TiledOracle, "query_batch", "tiled.query_batch", "tiled",
         _rows_of(1), None),
        (TiledOracle, "query_matrix", "tiled.query_matrix", "tiled",
         _matrix_items, None),
        (PerfectHashMap, "get_batch", "hash.get_batch", "hash",
         _keys, None),
        (ingest, "read_dem", "ingest.read", "ingest", None, None),
        (ingest, "dem_to_mesh", "ingest.mesh", "ingest", None, None),
        (ingest, "sample_poi_latlons", "ingest.poi", "ingest",
         None, None),
        (ingest, "place_pois", "ingest.poi", "ingest", None, None),
        (oracle, "build_partition_tree", "build.tree", "build",
         None, None),
        (oracle, "compress_tree", "build.tree", "build", None, None),
        (oracle, "build_enhanced_edges", "build.enhanced", "build",
         None, None),
        (oracle, "generate_node_pairs_batched", "build.pairs", "build",
         None, None),
        (oracle, "PerfectHashMap", "build.hash", "build", None, None),
        (DynamicSEOracle, "insert", "dynamic.insert", "dynamic",
         None, None),
        (DynamicSEOracle, "delete", "dynamic.delete", "dynamic",
         None, None),
        (DynamicSEOracle, "query_batch", "dynamic.query_batch", "dynamic",
         _rows_of(1), None),
        (DynamicSEOracle, "flush", "flush.rebuild", "flush", None, None),
    ]


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self._codes: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.code = array("q")
        self.rid = array("q")
        self.items = array("q")
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def _code(self, name: str, layer: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return code

    def _open(self, code: int) -> int:
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.code.append(code)
        self.rid.append(-1)
        self.items.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench") -> Iterator[int]:
        """A span around the benchmark's own code (phases, set-up)."""
        index = self._open(self._code(name, layer))
        try:
            yield index
        finally:
            self._close(index)

    def wrap(self, owner: Any, attribute: str, name: str, layer: str,
             count: Optional[Callable] = None,
             request_id: Optional[Callable] = None) -> None:
        original = getattr(owner, attribute)
        code = self._code(name, layer)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(code)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                tracer.items[index] = count(args, kwargs, result)
            if request_id is not None:
                tracer.rid[index] = request_id(args, kwargs, result)
            return result

        own = attribute in getattr(owner, "__dict__", {})
        self._undo.append((owner, attribute, original if own else None))
        setattr(owner, attribute, traced)

    def install(self) -> "Tracer":
        for owner, attribute, name, layer, count, rid in targets():
            self.wrap(owner, attribute, name, layer, count, rid)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is None:
                delattr(owner, attribute)  # it was inherited
            else:
                setattr(owner, attribute, original)

    def _arrays(self) -> Dict[str, np.ndarray]:
        return {field: np.frombuffer(getattr(self, field),
                                     dtype=np.int64).copy()
                for field in ("start", "end", "parent", "code", "rid",
                              "items")}

    def table(self) -> "SpanTable":
        return SpanTable(names=list(self.names), layers=list(self.layers),
                         **self._arrays())

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 layers=np.array(self.layers), **self._arrays())


class SpanTable:
    """Recorded spans plus derived self time, owner layer and root."""

    def __init__(self, *, names, layers, start, end, parent, code, rid,
                 items) -> None:
        self.names = list(names)
        self.start, self.end = start, end
        self.parent, self.code = parent, code
        self.rid, self.items = rid, items
        self.duration = end - start
        child = np.zeros_like(self.duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], self.duration[nested])
        self.self_ns = self.duration - child
        layer_names = sorted(set(layers))
        layer_code = {name: i for i, name in enumerate(layer_names)}
        own = np.array([layer_code[layers[c]] for c in range(len(names))],
                       dtype=np.int64)
        owner = own[code] if code.size else np.zeros(0, dtype=np.int64)
        # Walk every span up to its root, one tree level per pass.
        root = np.arange(code.size, dtype=np.int64)
        while True:
            up = parent[root]
            climbing = up >= 0
            if not climbing.any():
                break
            root[climbing] = up[climbing]
        # Absorb hash lookups into their caller, and compiled probes into
        # an enclosing tiled or paged probe, until nothing moves.
        hash_layer = layer_code.get("hash", -1)
        compiled = layer_code.get("compiled", -1)
        absorbing = [layer_code[name] for name in ("tiled", "paged")
                     if name in layer_code]
        parent_of = np.where(nested, parent, 0)
        while True:
            theirs = owner[parent_of]
            move = nested & (owner != theirs) & (
                (owner == hash_layer)
                | ((owner == compiled) & np.isin(theirs, absorbing)))
            if not move.any():
                break
            owner = np.where(move, theirs, owner)
        self.layer_names = layer_names
        self.owner = owner
        self.root = root

    @classmethod
    def load(cls, path: str) -> "SpanTable":
        with np.load(path) as data:
            return cls(names=data["names"].tolist(),
                       layers=data["layers"].tolist(),
                       start=data["start"], end=data["end"],
                       parent=data["parent"], code=data["code"],
                       rid=data["rid"], items=data["items"])

    # -- selection -----------------------------------------------------
    def named(self, name: str) -> np.ndarray:
        """Mask of spans with this span name."""
        if name not in self.names:
            return np.zeros(self.code.size, dtype=bool)
        return self.code == self.names.index(name)

    def layer(self, layer: str) -> np.ndarray:
        """Mask of spans owned by a layer (after absorption)."""
        if layer not in self.layer_names:
            return np.zeros(self.code.size, dtype=bool)
        return self.owner == self.layer_names.index(layer)

    def within(self, begin_ns: int, end_ns: int) -> np.ndarray:
        """Spans that started inside the window."""
        return (self.start >= begin_ns) & (self.start < end_ns)

    def under(self, root_name: str) -> np.ndarray:
        """Mask of spans whose root span carries ``root_name``."""
        roots = self.named(root_name)
        return roots[self.root] if self.code.size else roots

    def top_of(self, layers: Tuple[str, ...]) -> np.ndarray:
        """Spans of these layers whose parent belongs to none of them:
        the outermost call into a group of layers (counted once)."""
        member = np.zeros(self.code.size, dtype=bool)
        for layer in layers:
            member |= self.layer(layer)
        parent_member = np.zeros(self.code.size, dtype=bool)
        nested = self.parent >= 0
        parent_member[nested] = member[self.parent[nested]]
        return member & ~parent_member

    def self_us(self, mask: np.ndarray) -> float:
        return float(self.self_ns[mask].sum()) / 1e3
