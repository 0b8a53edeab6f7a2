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
* :class:`StoreFile` is the one reader, with one descriptor per open
  store: every read (maps, copies, rows, pages, raw members) goes
  through it, and ``close()`` (or collection) releases it.
  :func:`open_oracle` opens one and hands it to the backend.  The
  default backend maps every section straight off disk
  (``numpy.memmap``, read-only) and assembles a
  :class:`~repro.core.compiled.CompiledOracle` around the mapped
  tables — no JSON parse, no per-pair Python objects, no hash
  construction.  Load cost is one zip directory read plus the
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

import errno
import io
import json
import os
import threading
import time
import warnings
import weakref
import zipfile
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
           "file_signature", "oracle_sections", "section_layouts", "StoreFile"]

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
        with StoreFile(previous) as store:
            for name, array in sections.items():
                old = store.array(name)
                if (old.dtype != array.dtype or old.shape != array.shape
                        or not np.array_equal(old, array)):
                    continue
                reusable[name] = store.member(name)
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


def _signature(stat: os.stat_result) -> Tuple[int, int, int]:
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


class StoreFile:
    """One open v4 store file: the reader behind every backend.

    Opening reads the zip directory and the validated meta document
    once; each section's npy header is parsed once, on first use.
    Every read goes through the one descriptor opened here — section
    maps and copies (:meth:`array`), positional row and page reads
    (:meth:`rows`, :meth:`read`), raw members (:meth:`member`) — so a
    reader keeps reading the generation it opened after an
    ``os.replace``.  :meth:`close` (or leaving a ``with`` block)
    releases the descriptor, as does collecting an unclosed reader (a
    raw descriptor: no ``ResourceWarning``).  Maps already handed out
    hold their own reference to the file and stay valid.
    """

    def __init__(self, path: PathLike):
        self.opened = time.perf_counter()
        self.path = os.fspath(path)
        self._fd = fd = os.open(self.path, os.O_RDONLY)
        self._finalizer = weakref.finalize(self, os.close, fd)
        self._lock = threading.Lock()
        self._layouts: Dict[str, Tuple[int, np.dtype, Tuple[int, ...]]] = {}
        self._warned = False
        try:
            #: the file generation opened (see :func:`file_signature`)
            self.signature = _signature(os.fstat(fd))
            # The seeking side (zip reader, np.memmap, header parses)
            # shares the descriptor but never owns it.
            self._file = open(fd, "rb", closefd=False)
            self._archive = zipfile.ZipFile(self._file)
            self._members = {info.filename[:-4]: info
                             for info in self._archive.infolist()
                             if info.filename.endswith(".npy")}
            self.meta = _read_meta_member(self._archive, self.path)
        except BaseException:
            self._finalizer()
            raise
        #: section names, in file order
        self.names = tuple(self._members)

    @classmethod
    def of(cls, source: Union["StoreFile", PathLike]) -> "StoreFile":
        """``source`` itself if it is an open reader, else a new one."""
        return source if isinstance(source, cls) else cls(source)

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Release the descriptor; closing twice is a no-op."""
        with self._lock:
            self._archive.close()
            self._file.close()
            self._fd = -1
            self._finalizer()

    def __enter__(self) -> "StoreFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def layout(self, name: str) -> Tuple[int, np.dtype, Tuple[int, ...]]:
        """``(offset, dtype, shape)``: where a section's raw array bytes
        start in the file.  Only a ZIP_STORED member has one; a
        compressed member raises."""
        layout = self._layouts.get(name)
        if layout is not None:
            return layout
        info = self._members[name]
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(
                f"{self.path}: section {name} is compressed; in-place "
                "reads need ZIP_STORED members")
        with self._lock:
            handle = self._file
            handle.seek(info.header_offset)
            local = handle.read(30)
            # Skip the local header by its own name/extra lengths —
            # the central directory's copy can differ.
            handle.seek(info.header_offset + 30
                        + int.from_bytes(local[26:28], "little")
                        + int.from_bytes(local[28:30], "little"))
            if np.lib.format.read_magic(handle) == (1, 0):
                header = np.lib.format.read_array_header_1_0(handle)
            else:  # 2.0: a header too long for 1.0's 2-byte length
                header = np.lib.format.read_array_header_2_0(handle)
            shape, fortran, dtype = header
            offset = handle.tell()
        if fortran:  # pragma: no cover - we only write C order
            raise ValueError(f"{self.path}: section {name} is Fortran-ordered")
        layout = self._layouts[name] = (offset, dtype, shape)
        return layout

    def array(self, name: str, mmap: bool = True) -> np.ndarray:
        """One whole section: a read-only ``np.memmap`` with ``mmap``,
        else a private copy.  A compressed member cannot be mapped in
        place and loads as a copy; the first time that happens with
        ``mmap``, one ``RuntimeWarning`` names every compressed section
        of the file."""
        if self._members[name].compress_type != zipfile.ZIP_STORED:
            if mmap and not self._warned:
                self._warned = True
                compressed = sorted(
                    section for section, info in self._members.items()
                    if info.compress_type != zipfile.ZIP_STORED)
                warnings.warn(
                    f"{self.path}: sections {compressed} are compressed and "
                    "load eagerly (no zero-copy mmap); repack with "
                    "pack_oracle for in-place serving",
                    RuntimeWarning, stacklevel=2)
            with self._lock, self._archive.open(name + ".npy") as member:
                return np.lib.format.read_array(member, allow_pickle=False)
        offset, dtype, shape = self.layout(name)
        if not mmap:
            return self.rows(name, 0, shape[0])
        with self._lock:
            return np.memmap(self._file, dtype=dtype, mode="r",
                             offset=offset, shape=shape)

    def rows(self, name: str, start: int, count: int) -> np.ndarray:
        """Rows ``start .. start + count`` of a section, in one
        positional read."""
        offset, dtype, shape = self.layout(name)
        row_bytes = dtype.itemsize * int(np.prod(shape[1:], dtype=np.int64))
        raw = self.read(offset + start * row_bytes, count * row_bytes)
        return np.frombuffer(raw, dtype=dtype).reshape((count, *shape[1:]))

    def read(self, offset: int, size: int) -> bytes:
        """``size`` bytes at file ``offset``, in one positional read
        (no shared file position).  A short read means the file was
        truncated under the reader: a store I/O error."""
        raw = os.pread(self._fd, size, offset)
        if len(raw) != size:
            raise OSError(
                errno.EIO, f"{self.path}: short read at byte {offset} "
                f"({len(raw)} of {size} bytes); was the store truncated?")
        return raw

    def member(self, name: str) -> bytes:
        """A section's whole ``.npy`` member bytes, header included."""
        with self._lock:
            return self._archive.read(name + ".npy")


def section_layouts(path: PathLike
                    ) -> Tuple[Dict[str, Any],
                               Dict[str, Tuple[int, np.dtype,
                                               Tuple[int, ...]]]]:
    """``(meta, layouts)`` where ``layouts`` maps each section name to
    the absolute file ``(offset, dtype, shape)`` of its raw array
    bytes (:meth:`StoreFile.layout`).  Only ZIP_STORED members have an
    in-place layout; a compressed member raises (nothing can seek into
    a deflate stream).
    """
    with StoreFile(path) as store:
        return store.meta, {name: store.layout(name)
                            for name in store.names}


def read_store(path: Union[StoreFile, PathLike], mmap: bool = True
               ) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Raw access: the meta document plus every section array, read
    from ``path`` (a store file, or an open :class:`StoreFile`, which
    is closed once the sections are read; maps stay valid).

    The returned meta gains a ``sections`` entry recording, per
    section, whether it was handed out as a zero-copy mmap
    (``{"zero_copy": bool}``).  A compressed (non-ZIP_STORED) member
    cannot be mapped in place; when ``mmap`` was requested and one is
    found the eager fallback is no longer silent — one
    ``RuntimeWarning`` names the affected sections.
    """
    with StoreFile.of(path) as store:
        sections = {name: store.array(name, mmap) for name in store.names}
    meta = dict(store.meta)
    meta["sections"] = {
        name: {"zero_copy": isinstance(array, np.memmap)}
        for name, array in sections.items()}
    if "tiles" not in meta:  # tiled stores keep sections per tile
        missing = [name for name in _REQUIRED_SECTIONS
                   if name not in sections]
        if missing:
            raise ValueError(
                f"{store.path}: store is missing sections {missing}")
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
        return _signature(os.stat(path))
    except OSError:
        return None


def read_store_meta(path: PathLike) -> Dict[str, Any]:
    """Only the meta document — no array section is touched.

    Validates format name *and* version, so a registration that
    succeeds is a store :func:`open_oracle` can actually serve.
    """
    with StoreFile(path) as store:
        return store.meta


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
    its build identity read from the meta document (:meth:`_identify`:
    ``fingerprint`` names the workload it was packed for), and an
    idempotent :meth:`close`, also run on leaving a ``with`` block.
    Subclasses release their resources in :meth:`_release`."""

    closed = False

    def _identify(self, meta: Dict[str, Any],
                  store: Optional[StoreFile] = None) -> None:
        """Set the build identity from ``meta`` (epsilon, strategy,
        method, seed, fingerprint, build, stats, tree_meta), and the
        file and generation ``store`` opened (``None``: an in-memory
        build)."""
        self.meta = meta
        self.epsilon = meta["epsilon"]
        self.strategy = meta["strategy"]
        self.method = meta["method"]
        self.seed = meta["seed"]
        self.fingerprint = meta["fingerprint"]
        self.build: Dict[str, Any] = meta.get("build", {})
        self.stats: Dict[str, Any] = dict(meta.get("stats", {}))
        self.tree_meta: Dict[str, Any] = meta["tree"]
        self.path = None if store is None else store.path
        self.stat_signature = None if store is None else store.signature

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


class StoredOracle(CompiledStore):
    """An opened v4 store: compiled query tables + build metadata.

    ``path`` is a store file or an open :class:`StoreFile`, which the
    oracle takes over.  Every section is mapped read-only (``mmap``)
    or copied at open, and a map keeps its own reference to the file,
    so the reader closes as soon as the tables exist.  The compiled
    tables are live immediately (queries need no engine);
    :meth:`to_oracle` rehydrates a full :class:`~repro.core.oracle.
    SEOracle` against a terrain engine when the scalar/tree API is
    needed — e.g. for a binary -> JSON conversion.  :meth:`close`
    drops the maps; tables already handed out (an overlay's base, a
    rehydrated oracle) keep their own references.
    """

    def __init__(self, path: Union[StoreFile, PathLike], mmap: bool = True):
        store = StoreFile.of(path)
        meta, self._sections = read_store(store, mmap)
        self._identify(store.meta, store)
        # Surface the zero-copy ledger: sections that could not be mapped
        # in place (compressed members) are a serving-performance smell.
        self.stats["non_zero_copy_sections"] = sorted(
            name for name, entry in meta["sections"].items()
            if not entry["zero_copy"])
        self.compiled = compile_sections(self._sections, seed=self.seed,
                                         epsilon=self.epsilon)
        # The open itself, not the cost of hashing the terrain.
        self.load_seconds = time.perf_counter() - store.opened

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
    protocol.  The file is opened once, as one :class:`StoreFile`
    that the returned backend reads through and owns.

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
        reads copies instead.  Every backend reads the descriptor it
        opened, so an ``os.replace`` of the file is safe either way;
        copies matter only when the file may be truncated or rewritten
        in place, where touching a mapped page raises SIGBUS.
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
    store = StoreFile(path)
    if max_resident_bytes is not None:
        from .paged import PagedOracle
        stored = PagedOracle(store, max_resident_bytes=max_resident_bytes)
    elif "tiles" in store.meta:
        from .tiled import open_tiled_oracle
        stored = open_tiled_oracle(
            store, mmap=mmap, max_resident_tiles=max_resident_tiles)
    else:
        stored = StoredOracle(store, mmap=mmap)
    if engine is not None and strict:
        try:
            stored.check_fingerprint(engine)
        except ValueError:
            stored.close()
            raise
    return stored
