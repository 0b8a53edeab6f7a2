"""Binary oracle store: mmap-friendly v4 container + zero-copy open.

JSON persistence (:mod:`~repro.core.serialize`) is convenient but a
serving process pays a full parse plus Python object reconstruction on
every load — tens of milliseconds for a medium oracle, all of it
avoidable.  This module is the build-once/serve-many half of the
persistence story:

* :func:`pack_oracle` writes **format version 4**: a standard
  uncompressed ``.npz``-style zip whose members are flat NumPy
  sections — the compressed-tree arrays, the node-pair key/distance
  arrays, the perfect hash's frozen multiply-shift tables, the
  compiled ancestor-chain matrix — plus one ``meta.json`` member
  carrying the workload fingerprint and build metadata.  The file is
  readable by plain ``numpy.load`` (it *is* an npz).
* :func:`open_oracle` maps every section straight off disk
  (``numpy.memmap``, read-only) and assembles a
  :class:`~repro.core.compiled.CompiledOracle` around the mapped
  tables — no JSON parse, no per-pair Python objects, no hash
  construction.  Load cost is a few zip directory reads plus the
  O(n·h) key-plane derivation; the O(#pairs) tables are never copied.
* :func:`pack_document` converts a v1–v3 JSON document to v4 without
  needing the terrain (the document is self-contained), so existing
  oracle files upgrade losslessly: ``python -m repro pack``.

On-disk layout (format version 4)
---------------------------------
``meta.json``
    ``{format, version, epsilon, strategy, method, seed, fingerprint,
    build {executor, jobs}, stats {height, pairs_stored,
    total_seconds}, tree {root_id, height, root_radius}}``.
``tree_table.npy``
    int64 ``(num_nodes, 4)``: center, original layer, parent id
    (``-1`` for the root), origin id — row index is the node id.
``tree_radii.npy``
    float64 ``(num_nodes,)`` node radii (0 at leaves).
``pair_keys.npy`` / ``pair_distances.npy``
    uint64 / float64 ``(num_pairs,)``: the node pair set as packed
    ordered-pair keys (:func:`~repro.datastructures.perfect_hash.
    pack_pair`) with their centre distances, in hash insertion order —
    these double as the frozen hash's key/value columns.
``hash_level1.npy`` … ``hash_slots.npy``
    The perfect hash's frozen multiply-shift tables
    (:meth:`~repro.datastructures.perfect_hash.PerfectHashMap.
    frozen_arrays`): ``hash_level1`` is the ``(a, shift)`` pair,
    ``hash_level2_a`` / ``hash_level2_shift`` / ``hash_level2_offset``
    the per-bucket parameters, ``hash_slots`` the slot -> pair-index
    table.
``chains.npy``
    int64 ``(num_pois, height+1)`` compiled ancestor-chain matrix
    (:func:`~repro.core.compiled.chain_matrix`), ``-1``-padded.

Every member is ZIP_STORED, so each array's bytes sit contiguously at
a fixed file offset and :func:`open_oracle` can hand ``numpy.memmap``
views to the query tables; the OS page cache then shares one physical
copy across every serving process on the host.
"""

from __future__ import annotations

import io
import json
import os
import time
import warnings
import zipfile
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..datastructures.perfect_hash import PerfectHashMap, unpack_pair
from ..geodesic.engine import GeodesicEngine
from .compiled import CompiledOracle, chain_matrix
from .compressed_tree import CompressedPartitionTree, CompressedTreeNode
from .node_pairs import NodePairSet
from .oracle import SEOracle

__all__ = ["pack_oracle", "pack_document", "open_oracle", "StoredOracle",
           "StoreHandle", "CompiledStore", "STORE_VERSION", "compile_sections",
           "file_signature", "oracle_sections", "section_layouts"]

PathLike = Union[str, os.PathLike]

STORE_VERSION = 4
_FORMAT_NAME = "repro-se-oracle"
_META_MEMBER = "meta.json"

_HASH_SECTIONS = {
    "hash_level1": "level1",
    "pair_keys": "keys",
    "pair_distances": "values",
    "hash_level2_a": "level2_a",
    "hash_level2_shift": "level2_shift",
    "hash_level2_offset": "level2_offset",
    "hash_slots": "slots",
}

_REQUIRED_SECTIONS = ("tree_table", "tree_radii", "chains",
                      *_HASH_SECTIONS)


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def _member_info(name: str) -> zipfile.ZipInfo:
    """A ZIP_STORED member header with a pinned timestamp.

    Packing the same oracle twice must produce byte-identical stores
    (the fixture and CI artifact diffs rely on it), so the member
    date_time is the DOS epoch rather than the wall clock.
    """
    info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
    info.compress_type = zipfile.ZIP_STORED
    info.create_system = 3  # pinned (platform-dependent by default)
    info.external_attr = 0o644 << 16
    return info


def _write_store(path: PathLike, meta: Dict[str, Any],
                 sections: Dict[str, np.ndarray],
                 raw_members: Optional[Dict[str, bytes]] = None) -> None:
    """Write a v4 store; ``raw_members`` short-circuits serialization.

    ``raw_members`` maps a section name to the ready-made ``.npy``
    member bytes of a previous store generation — the incremental
    repack path: sections the flush left untouched flow straight from
    the old file into the new one.  Because the member format is fully
    deterministic (pinned timestamps, ZIP_STORED, canonical npy
    headers), the output is byte-identical to re-serializing.
    """
    raw_members = raw_members or {}
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        archive.writestr(_member_info(_META_MEMBER),
                         json.dumps(meta, sort_keys=True, indent=1))
        for name, array in sections.items():
            raw = raw_members.get(name)
            if raw is None:
                buffer = io.BytesIO()
                np.lib.format.write_array(
                    buffer, np.ascontiguousarray(array),
                    allow_pickle=False)
                raw = buffer.getvalue()
            archive.writestr(_member_info(name + ".npy"), raw)


def _tree_sections(tree: CompressedPartitionTree
                   ) -> Dict[str, np.ndarray]:
    table = np.empty((tree.num_nodes, 4), dtype=np.int64)
    radii = np.empty(tree.num_nodes, dtype=np.float64)
    for node in tree.nodes:
        table[node.node_id] = (
            node.center, node.layer,
            -1 if node.parent is None else node.parent, node.origin_id)
        radii[node.node_id] = node.radius
    return {"tree_table": table, "tree_radii": radii}


def _meta_document(*, epsilon: float, strategy: str, method: str,
                   seed: int, fingerprint: str, build: Dict[str, Any],
                   stats: Dict[str, Any],
                   tree: CompressedPartitionTree) -> Dict[str, Any]:
    return {
        "format": _FORMAT_NAME,
        "version": STORE_VERSION,
        "epsilon": epsilon,
        "strategy": strategy,
        "method": method,
        "seed": seed,
        "fingerprint": fingerprint,
        "build": dict(build),
        "stats": dict(stats),
        "tree": {
            "root_id": tree.root_id,
            "height": tree.height,
            "root_radius": tree.root_radius,
        },
    }


def oracle_sections(oracle: SEOracle) -> Dict[str, np.ndarray]:
    """A built oracle's complete v4 section set (compiling it if that
    has not happened yet): tree tables, compiled chains, frozen hash.

    Shared by :func:`pack_oracle` (one section set per store) and the
    tiled builder (one section set per tile, prefixed).
    """
    if not oracle.is_built:
        raise ValueError("cannot pack an unbuilt oracle")
    compiled = oracle.compiled()
    sections = _tree_sections(oracle.tree)
    sections["chains"] = compiled.chains
    frozen = oracle.pair_hash.frozen_arrays()
    for section, name in _HASH_SECTIONS.items():
        sections[section] = frozen[name]
    return sections


def _reusable_members(previous: PathLike,
                      sections: Dict[str, np.ndarray]
                      ) -> Dict[str, bytes]:
    """Raw ``.npy`` member bytes of ``previous`` for every section the
    new build left unchanged (same dtype/shape/values).

    The incremental-repack half of the sublinear flush: dirty sections
    serialize fresh, clean ones are copied byte-for-byte from the old
    generation — ``np.array_equal`` bails out at the first differing
    element, so comparing a dirty section costs almost nothing.
    """
    reusable: Dict[str, bytes] = {}
    try:
        _, old_sections = read_store(previous, mmap=True)
        with zipfile.ZipFile(previous) as archive:
            for name, array in sections.items():
                old = old_sections.get(name)
                if (old is None or old.dtype != array.dtype
                        or old.shape != array.shape
                        or not np.array_equal(old, array)):
                    continue
                reusable[name] = archive.read(name + ".npy")
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return {}  # unreadable / incompatible previous: full write
    return reusable


def pack_oracle(oracle: SEOracle, path: PathLike,
                canonical: bool = False,
                previous: Optional[PathLike] = None) -> Dict[str, Any]:
    """Write a built oracle as a format-v4 binary store.

    Compiles the oracle (chain matrix + frozen hash tables) if that has
    not happened yet — packing is the natural one-time cost point, so
    an :func:`open_oracle` load never pays it.

    ``canonical=True`` pins the meta document's wall-clock field
    (``stats.total_seconds``) to zero, so two builds of the *same*
    oracle content — e.g. an incremental flush and a from-scratch
    rebuild over the same live POI set — pack to byte-identical files.
    ``previous`` names an earlier store generation to splice unchanged
    section bytes from (see :func:`_reusable_members`); the output is
    byte-identical either way.  Returns a small report:
    ``{"sections": total, "reused": copied-from-previous}``.
    """
    from .serialize import workload_fingerprint
    sections = oracle_sections(oracle)
    meta = _meta_document(
        epsilon=oracle.epsilon, strategy=oracle.strategy,
        method=oracle.method, seed=oracle.seed,
        fingerprint=workload_fingerprint(oracle.engine),
        build={"executor": oracle.stats.executor,
               "jobs": oracle.stats.jobs},
        stats={"height": oracle.stats.height,
               "pairs_stored": oracle.stats.pairs_stored,
               "total_seconds": 0.0 if canonical
               else oracle.stats.total_seconds},
        tree=oracle.tree,
    )
    raw_members: Dict[str, bytes] = {}
    if previous is not None and os.path.exists(previous):
        raw_members = _reusable_members(previous, sections)
    _write_store(path, meta, sections, raw_members=raw_members)
    return {"sections": len(sections), "reused": len(raw_members)}


def pack_document(document: Dict[str, Any], path: PathLike) -> None:
    """Convert a parsed v1–v3 JSON document to a v4 store, losslessly.

    The JSON document is self-contained (tree + pairs + metadata), so
    no terrain engine is needed: the chain matrix is re-derived from
    the tree and the hash tables from the pair list with the stored
    seed — exactly what :func:`~repro.core.serialize.load_oracle`
    followed by :func:`pack_oracle` would produce.
    """
    from .serialize import _document_tree, _json_version_guard
    _json_version_guard(document, source="pack_document")
    tree = _document_tree(document)
    num_pois = len(tree.leaf_of_poi)
    from ..datastructures.perfect_hash import pack_pair
    entries = [(pack_pair(a, b), distance)
               for a, b, distance in document["pairs"]]
    pair_hash = PerfectHashMap(entries, seed=document["seed"])
    sections = _tree_sections(tree)
    sections["chains"] = chain_matrix(tree, num_pois)
    frozen = pair_hash.frozen_arrays()
    for section, name in _HASH_SECTIONS.items():
        sections[section] = frozen[name]
    stats = document.get("stats", {})
    meta = _meta_document(
        epsilon=document["epsilon"], strategy=document["strategy"],
        method=document["method"], seed=document["seed"],
        fingerprint=document["fingerprint"],
        build=document.get("build", {"executor": "serial", "jobs": 1}),
        stats={"height": stats.get("height", tree.height),
               "pairs_stored": stats.get("pairs_stored", len(entries)),
               "total_seconds": stats.get("total_seconds", 0.0)},
        tree=tree,
    )
    _write_store(path, meta, sections)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def _member_layout(handle, info: zipfile.ZipInfo
                   ) -> Tuple[int, np.dtype, Tuple[int, ...], bool]:
    """Payload layout ``(offset, dtype, shape, fortran)`` of one
    ZIP_STORED npy member.

    A ZIP_STORED member's bytes sit verbatim at a fixed offset: skip
    the local file header (30 bytes + name + extra, read from the
    header itself — the central directory copy can differ), parse the
    npy header, and report where the raw array bytes start.
    """
    handle.seek(info.header_offset)
    local = handle.read(30)
    name_length = int.from_bytes(local[26:28], "little")
    extra_length = int.from_bytes(local[28:30], "little")
    handle.seek(info.header_offset + 30 + name_length + extra_length)
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
    else:  # pragma: no cover - we only ever write 1.0/2.0 headers
        raise ValueError(f"unsupported npy header version {version}")
    return handle.tell(), dtype, shape, fortran


def _mmap_member(path: PathLike, handle,
                 info: zipfile.ZipInfo) -> np.ndarray:
    """Memory-map one ZIP_STORED npy member in place."""
    offset, dtype, shape, fortran = _member_layout(handle, info)
    return np.memmap(path, dtype=dtype, mode="r", offset=offset,
                     shape=shape, order="F" if fortran else "C")


def section_layouts(path: PathLike
                    ) -> Tuple[Dict[str, Any],
                               Dict[str, Tuple[int, np.dtype,
                                               Tuple[int, ...]]]]:
    """``(meta, layouts)`` where ``layouts`` maps each section name to
    the absolute file ``(offset, dtype, shape)`` of its raw array
    bytes — what the paged backend reads pages from, in place of a
    whole-section mmap.  Only ZIP_STORED members have an in-place
    layout; a compressed member raises (the paged backend cannot seek
    into a deflate stream).
    """
    layouts: Dict[str, Tuple[int, np.dtype, Tuple[int, ...]]] = {}
    with open(path, "rb") as handle:
        with zipfile.ZipFile(handle) as archive:
            meta = _read_meta_member(archive, path)
            for info in archive.infolist():
                if not info.filename.endswith(".npy"):
                    continue
                name = info.filename[:-4]
                if info.compress_type != zipfile.ZIP_STORED:
                    raise ValueError(
                        f"{path}: section {name} is compressed; "
                        "paged access needs ZIP_STORED members")
                offset, dtype, shape, fortran = _member_layout(
                    handle, info)
                if fortran:  # pragma: no cover - we only write C order
                    raise ValueError(
                        f"{path}: section {name} is Fortran-ordered")
                layouts[name] = (offset, dtype, shape)
    return meta, layouts


def _read_meta_member(archive: zipfile.ZipFile,
                      path: PathLike) -> Dict[str, Any]:
    """Read + validate the meta member (format name and version)."""
    try:
        meta = json.loads(archive.read(_META_MEMBER))
    except KeyError:
        raise ValueError(
            f"{path}: no {_META_MEMBER} member; not an oracle store"
        ) from None
    if meta.get("format") != _FORMAT_NAME:
        raise ValueError(f"{path}: not a serialized SE oracle store")
    if meta.get("version") != STORE_VERSION:
        raise ValueError(
            f"{path}: unsupported store version {meta.get('version')}")
    return meta


def read_store(path: PathLike, mmap: bool = True
               ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Raw access: the meta document plus every section array.

    The returned meta gains a ``sections`` entry recording, per
    section, whether it was handed out as a zero-copy mmap
    (``{"zero_copy": bool}``).  A compressed (non-ZIP_STORED) member
    cannot be mapped in place; when ``mmap`` was requested and one is
    found the eager fallback is no longer silent — one
    ``RuntimeWarning`` names the affected sections.
    """
    sections: Dict[str, np.ndarray] = {}
    section_meta: Dict[str, Dict[str, bool]] = {}
    with open(path, "rb") as handle:
        with zipfile.ZipFile(handle) as archive:
            meta = _read_meta_member(archive, path)
            for info in archive.infolist():
                if not info.filename.endswith(".npy"):
                    continue
                name = info.filename[:-4]
                if mmap and info.compress_type == zipfile.ZIP_STORED:
                    sections[name] = _mmap_member(path, handle, info)
                    section_meta[name] = {"zero_copy": True}
                else:
                    with archive.open(info.filename) as member:
                        sections[name] = np.lib.format.read_array(
                            member, allow_pickle=False)
                    section_meta[name] = {"zero_copy": False}
    meta["sections"] = section_meta
    if mmap:
        eager = sorted(name for name, info in section_meta.items()
                       if not info["zero_copy"])
        if eager:
            warnings.warn(
                f"{path}: sections {eager} are compressed and were "
                "loaded eagerly (no zero-copy mmap); repack with "
                "pack_oracle for in-place serving",
                RuntimeWarning, stacklevel=2)
    if "tiles" not in meta:  # tiled stores keep sections per tile
        missing = [name for name in _REQUIRED_SECTIONS
                   if name not in sections]
        if missing:
            raise ValueError(
                f"{path}: store is missing sections {missing}")
    return meta, sections


def file_signature(path: PathLike) -> Optional[Tuple[int, int, int]]:
    """A cheap identity of the store *file generation*: ``(inode,
    size, mtime_ns)``.

    The atomic repack path publishes a new store by ``os.replace`` —
    a fresh inode — so comparing signatures is how long-lived readers
    notice a new generation without re-reading ``meta.json``.  Returns
    ``None`` when the file is (transiently) absent.
    """
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


def read_store_meta(path: PathLike) -> Dict[str, Any]:
    """Only the meta document — no array section is touched.

    Validates format name *and* version, so a registration that
    succeeds is a store :func:`open_oracle` can actually serve.
    """
    with zipfile.ZipFile(path) as archive:
        return _read_meta_member(archive, path)


def compile_sections(sections, *, seed: int,
                     epsilon: float) -> CompiledOracle:
    """The query tables over one v4 section set (arrays, mmap'd or not,
    or lazy page-pool columns): the one construction behind
    :func:`open_oracle`, the tile loader and the paged backend."""
    pair_hash = PerfectHashMap.from_frozen(
        **{name: sections[section]
           for section, name in _HASH_SECTIONS.items()}, seed=seed)
    return CompiledOracle(sections["chains"], pair_hash, epsilon)


class _ClosedTables:
    """A closed store's tables and sections: any use raises."""

    def __init__(self, path) -> None:
        self._path = path

    def __getattr__(self, name: str):
        raise ValueError(f"{self._path}: store is closed")

    __getitem__ = __getattr__


class StoreHandle:
    """What every opened store shares: the file it serves
    (``path``), the file generation it opened (``stat_signature``),
    the workload it was packed for (``fingerprint``), and an
    idempotent :meth:`close`, also run on leaving a ``with`` block.
    Subclasses release their resources in :meth:`_release`."""

    closed = False

    @property
    def supports_updates(self) -> bool:
        """A store is immutable; a dynamic overlay adds updates."""
        return False

    @property
    def is_compiled(self) -> bool:
        return True

    def is_stale(self) -> bool:
        """True when the file on disk is a newer generation than the
        one this handle opened.  A replaced file (atomic repack =
        ``os.replace`` = new inode) flips this; a missing file does
        not — there is nothing newer to re-open."""
        if self.stat_signature is None or self.path is None:
            return False
        current = file_signature(self.path)
        return current is not None and current != self.stat_signature

    def size_bytes(self) -> int:
        """The store's on-disk footprint."""
        return os.path.getsize(self.path)

    def check_fingerprint(self, engine: GeodesicEngine) -> None:
        """Raise unless the store was packed for ``engine``'s workload."""
        from .serialize import workload_fingerprint
        if self.fingerprint != workload_fingerprint(engine):
            raise ValueError(
                f"{self.path}: oracle was built for a different workload "
                "(terrain / POIs / Steiner density mismatch)"
            )

    def close(self) -> None:
        """Release the tables and any file handle; later queries raise
        ``ValueError``.  Closing twice is a no-op."""
        if not self.closed:
            self.closed = True
            self._release()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CompiledStore(StoreHandle):
    """A store that answers through one :class:`CompiledOracle`
    (``self.compiled``): the whole-mmap and the paged backends."""

    @property
    def num_pois(self) -> int:
        return self.compiled.num_pois

    @property
    def num_pairs(self) -> int:
        return len(self.compiled.pair_hash)

    @property
    def height(self) -> int:
        return self.compiled.height

    # Queries delegate to the compiled tables (bit-identical to the
    # scalar SEOracle.query by the compiled oracle's contract).
    def query(self, source: int, target: int) -> float:
        return self.compiled.query(source, target)

    def query_batch(self, sources, targets) -> np.ndarray:
        return self.compiled.query_batch(sources, targets)

    def query_matrix(self, pois=None) -> np.ndarray:
        return self.compiled.query_matrix(pois)


class _MappedPairSet(NodePairSet):
    """A :class:`NodePairSet` over the store's mapped key/distance
    columns.

    The per-pair Python dict is exactly the reconstruction cost the
    store exists to avoid, and the rehydrated oracle's query path
    never touches it (queries go through the frozen pair hash) — so
    it materialises lazily, on the first access to ``pairs`` /
    ``distance_of`` (e.g. ``covering_pair`` or a JSON re-save).
    """

    def __init__(self, keys: np.ndarray, distances: np.ndarray,
                 epsilon: float):
        # Deliberately skips the dataclass __init__: `pairs` is the
        # lazy property below, `considered`/`epsilon` plain attributes.
        self._keys = keys
        self._distances = distances
        self._pairs: Optional[Dict[Tuple[int, int], float]] = None
        self.considered = int(keys.shape[0])
        self.epsilon = epsilon

    @property
    def pairs(self) -> Dict[Tuple[int, int], float]:
        if self._pairs is None:
            self._pairs = {
                unpack_pair(int(key)): float(distance)
                for key, distance in zip(
                    np.asarray(self._keys).tolist(),
                    np.asarray(self._distances).tolist())
            }
        return self._pairs

    def __len__(self) -> int:
        return int(self._keys.shape[0])


@dataclass
class StoredOracle(CompiledStore):
    """An opened v4 store: compiled query tables + build metadata.

    The compiled tables are live immediately (queries need no engine);
    :meth:`to_oracle` rehydrates a full :class:`~repro.core.oracle.
    SEOracle` against a terrain engine when the scalar/tree API is
    needed — e.g. for a binary -> JSON conversion.  :meth:`close`
    drops the maps; tables already handed out (an overlay's base, a
    rehydrated oracle) keep their own references.
    """

    path: str
    epsilon: float
    strategy: str
    method: str
    seed: int
    fingerprint: str
    build: Dict[str, Any]
    stats: Dict[str, Any]
    tree_meta: Dict[str, Any]
    compiled: CompiledOracle
    load_seconds: float
    _sections: Dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    #: file generation the maps were opened from (None: unknown)
    stat_signature: Optional[Tuple[int, int, int]] = None

    def _release(self) -> None:
        self._sections = self.compiled = _ClosedTables(self.path)

    def tree(self) -> CompressedPartitionTree:
        """Rebuild the compressed partition tree from the table section."""
        table = np.asarray(self._sections["tree_table"])
        radii = np.asarray(self._sections["tree_radii"])
        nodes = []
        for node_id in range(table.shape[0]):
            center, layer, parent, origin = (int(v) for v in table[node_id])
            nodes.append(CompressedTreeNode(
                node_id=node_id, center=center, layer=layer,
                radius=float(radii[node_id]),
                parent=None if parent == -1 else parent,
                origin_id=origin,
            ))
        for node in nodes:
            if node.parent is not None:
                nodes[node.parent].children.append(node.node_id)
        return CompressedPartitionTree(
            nodes=nodes,
            root_id=self.tree_meta["root_id"],
            height=self.tree_meta["height"],
            root_radius=self.tree_meta["root_radius"],
        )

    def to_oracle(self, engine: GeodesicEngine,
                  strict: bool = True) -> SEOracle:
        """Full :class:`SEOracle` over ``engine`` (tree + pairs + hash).

        The pair hash is the store's frozen map, so batch queries keep
        running off the mapped tables; the scalar hash structures and
        the per-pair dict both materialise lazily, on first scalar
        probe / ``pairs`` access — rehydration itself stays O(tree),
        not O(#pairs).
        """
        if strict:
            self.check_fingerprint(engine)
        pair_set = _MappedPairSet(self._sections["pair_keys"],
                                  self._sections["pair_distances"],
                                  self.epsilon)
        oracle = SEOracle(engine, self.epsilon, strategy=self.strategy,
                          method=self.method, seed=self.seed)
        oracle._tree = self.tree()
        oracle._pair_set = pair_set
        oracle._pair_hash = self.compiled.pair_hash
        oracle._compiled = self.compiled
        oracle._built = True
        oracle.stats.height = self.stats.get("height", 0)
        oracle.stats.pairs_stored = self.stats.get("pairs_stored",
                                                   len(pair_set))
        oracle.stats.total_seconds = self.stats.get("total_seconds", 0.0)
        oracle.stats.executor = self.build.get("executor", "serial")
        oracle.stats.jobs = self.build.get("jobs", 1)
        return oracle


def open_oracle(path: PathLike, engine: Optional[GeodesicEngine] = None,
                strict: bool = True, mmap: bool = True,
                max_resident_tiles: Optional[int] = None,
                max_resident_bytes: Optional[int] = None):
    """Open a v4 store with memory-mapped query tables.

    Returns a :class:`StoredOracle` — or, when the store's meta
    carries a tile directory (``python -m repro build --tiles``), a
    :class:`~repro.core.tiled.TiledOracle` whose tile tables page
    lazily; or, with ``max_resident_bytes``, a
    :class:`~repro.core.paged.PagedOracle` that pages the pair/hash
    columns through a bounded pool.  All serve the ``DistanceIndex``
    protocol.

    Parameters
    ----------
    path:
        File written by :func:`pack_oracle` / :func:`pack_document` /
        :func:`~repro.core.tiled.pack_tiled`.
    engine:
        Optional workload to validate against (``strict``).  Serving
        processes that trust their terrain registry pass ``None`` and
        skip the mesh hash entirely — the whole point of the store is
        that queries never need the terrain.
    strict:
        With ``engine``: raise on a workload fingerprint mismatch.
    mmap:
        Map sections read-only straight off disk (default).  ``False``
        reads copies instead — only useful when the file will be
        replaced while open.
    max_resident_tiles:
        Tiled stores only: bound on concurrently resident tile tables
        (``None``: unbounded).  Ignored for monolithic stores.
    max_resident_bytes:
        Monolithic stores only: serve the O(#pairs) pair/hash columns
        through a fixed-size page pool of at most this many bytes
        instead of whole-section mmaps (``None``: unbounded mmaps).
        Queries are bit-identical at any bound.  Tiled stores page at
        tile granularity — combining both is an error.
    """
    started = time.perf_counter()
    if "tiles" in read_store_meta(path):
        if max_resident_bytes is not None:
            raise ValueError(
                f"{path}: tiled stores page at tile granularity; use "
                "max_resident_tiles instead of max_resident_bytes")
        from .tiled import open_tiled_oracle
        stored = open_tiled_oracle(
            path, mmap=mmap, max_resident_tiles=max_resident_tiles)
    elif max_resident_bytes is not None:
        from .paged import PagedOracle
        stored = PagedOracle(path, max_resident_bytes=max_resident_bytes)
    else:
        stored = _open_mapped(path, mmap, started)
    if engine is not None and strict:
        try:
            stored.check_fingerprint(engine)
        except ValueError:
            stored.close()
            raise
    return stored


def _open_mapped(path: PathLike, mmap: bool,
                 started: float) -> StoredOracle:
    """The whole-section :class:`StoredOracle` half of
    :func:`open_oracle` (``started``: when the open began)."""
    signature = file_signature(path)
    meta, sections = read_store(path, mmap=mmap)
    compiled = compile_sections(sections, seed=meta["seed"],
                                epsilon=meta["epsilon"])
    # Surface the zero-copy ledger: sections that could not be mapped
    # in place (compressed members) are a serving-performance smell.
    stats = dict(meta.get("stats", {}))
    stats["non_zero_copy_sections"] = sorted(
        name for name, info in meta.get("sections", {}).items()
        if not info.get("zero_copy", True))
    return StoredOracle(
        path=os.fspath(path),
        epsilon=meta["epsilon"],
        strategy=meta["strategy"],
        method=meta["method"],
        seed=meta["seed"],
        fingerprint=meta["fingerprint"],
        build=meta.get("build", {}),
        stats=stats,
        tree_meta=meta["tree"],
        compiled=compiled,
        # The open itself, not the cost of hashing the terrain.
        load_seconds=time.perf_counter() - started,
        _sections=sections,
        stat_signature=signature,
    )
