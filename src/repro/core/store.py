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
  store: every read (maps, copies, rows, pages) goes
  through it, and ``close()`` (or collection) releases it.
  :func:`open_oracle` opens one and hands it to the backend.  The
  default backend maps the whole store read-only straight off disk,
  once (one ``mmap``, each section an array view of it), and
  assembles a :class:`~repro.core.compiled.CompiledOracle` around the
  mapped tables — no JSON parse, no per-pair Python objects, no hash
  construction.  Load cost is one or two positional reads of the
  file's tail, one map, and the O(n·h) key-plane derivation; the
  O(#pairs) tables are never copied.  What an open parses — the
  member table, the validated meta document and the section layouts —
  is memoised per process, keyed by the exact bytes of the zip central
  directory and its end record (:class:`StoreFile`), so only the first
  open of a file generation parses its directory, reads ``meta.json``
  and reads one header per section (each npy preamble parsed once per
  process, memoised by its bytes).
* :func:`pack_document` converts a v1–v3 JSON document to v4 without
  needing the terrain (the document is self-contained), so existing
  oracle files upgrade losslessly: ``python -m repro pack``.

On-disk layout (format version 4)
---------------------------------
``meta.json``
    ``{format, version, epsilon, strategy, method, seed, fingerprint,
    pair_order, build {executor, jobs}, stats {height, pairs_stored,
    total_seconds}, tree {root_id, height, root_radius}}``.
    ``pair_order`` is ``"key"`` (:data:`PAIR_ORDER`); stores packed
    before it keep their pairs in hash insertion order and carry no
    entry.
``tree_table.npy``
    int64 ``(num_nodes, 4)``: center, original layer, parent id
    (``-1`` for the root), origin id — row index is the node id.
``tree_radii.npy``
    float64 ``(num_nodes,)`` node radii (0 at leaves).
``pair_keys.npy`` / ``pair_distances.npy``
    uint64 / float64 ``(num_pairs,)``: the node pair set as packed
    ordered-pair keys (:func:`~repro.datastructures.perfect_hash.
    pack_pair`) with their centre distances, keys strictly ascending —
    a sorted run that doubles as the frozen hash's key/value columns
    and that the paged backend searches by key
    (:mod:`~repro.core.paged`).
``hash_level1.npy`` … ``hash_slots.npy``
    The perfect hash's frozen multiply-shift tables
    (:meth:`~repro.datastructures.perfect_hash.PerfectHashMap.
    frozen_arrays`): ``hash_level1`` is the ``(a, shift)`` pair,
    ``hash_level2_a`` / ``hash_level2_shift`` / ``hash_level2_offset``
    the per-bucket parameters, ``hash_slots`` the slot -> pair-index
    table, its indices remapped at pack to the key-ordered run
    (:func:`_hash_sections`).  The draws depend only on the key set
    and the seed, so every section depends only on the pair set, not
    on the order the build generated pairs in.
``chains.npy``
    int64 ``(num_pois, height+1)`` compiled ancestor-chain matrix
    (:meth:`~repro.core.compressed_tree.CompressedPartitionTree.chains`),
    ``-1``-padded.
``nn_distance.npy``
    The nearest-distance column (:func:`nearest_distances`): float64
    ``(num_pois,)``, each POI's nearest finite distance to another
    POI (``inf`` when none is reachable).  RNN on an opened store
    reads it (:meth:`StoreHandle.nearest_column`: mapped with the
    other tables by :class:`StoredOracle`, read resident by the paged
    and tiled backends).  Stores packed before it derive it on first
    use.  An earlier layout packed ``(num_pois, 2)`` nearest and
    second-nearest distances beside an int64 nearest-POI member; such
    a store serves from a contiguous copy of the first column and
    ignores the rest.

Every member is ZIP_STORED, so each array's bytes sit contiguously at
a fixed file offset and :func:`open_oracle` can hand views of one map
to the query tables; the OS page cache then shares one physical copy
across every serving process on the host.  Every writer publishes
atomically (:func:`_write_store`: temp file, fsync, ``os.replace``), so
a reader that has a store mapped keeps its generation when a new one
is packed over the path.
"""

from __future__ import annotations

import errno
import functools
import io
import json
import math
import mmap as _mmap
import os
import threading
import time
import warnings
import weakref
import zipfile
from typing import Any, Dict, Iterable, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..datastructures.perfect_hash import PerfectHashMap
from ..geodesic.engine import GeodesicEngine
from .compiled import CompiledOracle
from .compressed_tree import CompressedPartitionTree
from .oracle import SEOracle
from .residency import Residency

__all__ = ["pack_oracle", "pack_document", "open_oracle", "StoredOracle",
           "StoreHandle", "CompiledStore", "STORE_VERSION", "compile_sections",
           "file_signature", "oracle_sections", "section_layouts", "StoreFile",
           "nearest_distances", "PAIR_ORDER"]

PathLike = Union[str, os.PathLike]

STORE_VERSION = 4
_FORMAT_NAME = "repro-se-oracle"
_META_MEMBER = "meta.json"

#: ``meta.json``'s ``pair_order`` entry: every writer packs the pair
#: run in key order (:func:`_hash_sections`).
PAIR_ORDER = "key"

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

#: The nearest-distance column; a tiled store prefixes it ``tiles/``.
_NEAREST_SECTION = "nn_distance"

#: Pairs per row chunk of :func:`nearest_distances`: bounds the probe's
#: intermediates without changing any result bit.
_NEAREST_CHUNK_PAIRS = 1 << 14

#: Bytes read at a member's local zip header: its fixed 30 bytes, name,
#: extra field and npy preamble (128 bytes as written here) fit in one
#: positional read; a longer preamble takes a second.
_HEAD_READ = 512

#: Bytes read at a file's tail for its zip central directory and end
#: record: a store of up to about 60 members (a 4-tile store has 54)
#: fits in one positional read; a larger directory takes a second.
_TAIL_READ = 4096

#: The zip end-of-central-directory record, without a comment.
_END_RECORD = 22

#: Zip directories a process remembers (:class:`StoreFile`): an LRU
#: bound, in directories.
_DIRECTORY_MEMO = 64


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
                 sections: Dict[str, np.ndarray]) -> None:
    """Write a v4 store.

    The member format is deterministic (pinned timestamps, ZIP_STORED,
    canonical npy headers), so the same sections write the same bytes.
    The store is published atomically: the members go to a temp file
    in the target's directory, which is fsync'd and ``os.replace``'d
    over ``path``; the directory is then fsync'd so the rename is
    durable.  A reader with the old file mapped keeps its generation
    (the replaced inode lives while it is mapped), where a rewrite in
    place would kill it with SIGBUS on its next touch of a truncated
    page.  A failed write unlinks the temp file and leaves ``path`` as
    it was.
    """
    target = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(target))
    temp = os.path.join(directory, f".{os.path.basename(target)}."
                        f"{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(temp, "wb") as handle:
            with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED) as archive:
                archive.writestr(_member_info(_META_MEMBER),
                                 json.dumps(meta, sort_keys=True, indent=1))
                for name, array in sections.items():
                    buffer = io.BytesIO()
                    np.lib.format.write_array(
                        buffer, np.ascontiguousarray(array),
                        allow_pickle=False)
                    archive.writestr(_member_info(name + ".npy"),
                                     buffer.getvalue())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _tree_sections(tree: CompressedPartitionTree
                   ) -> Dict[str, np.ndarray]:
    return {"tree_table": tree.table, "tree_radii": tree.radii}


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
        "pair_order": PAIR_ORDER,
        "build": dict(build),
        "stats": dict(stats),
        "tree": {
            "root_id": tree.root_id,
            "height": tree.height,
            "root_radius": tree.root_radius,
        },
    }


def _hash_sections(pair_hash: PerfectHashMap) -> Dict[str, np.ndarray]:
    """The frozen pair hash as store sections, its pairs in key order.

    ``pair_keys`` ascends, ``pair_distances`` follows it, and every
    filled ``hash_slots`` entry is remapped to its pair's new position,
    so a hash probe reads the same pair it reads in memory.  The level
    tables are the map's own.  A build's hash already holds its run in
    key order (the remap is then the identity); a hash loaded from a
    document or store written before the key order is repacked here.
    """
    frozen = pair_hash.frozen_arrays()
    order = np.argsort(frozen["keys"])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    slots = frozen["slots"].copy()
    filled = slots >= 0
    slots[filled] = rank[slots[filled]]
    sections = {section: frozen[name]
                for section, name in _HASH_SECTIONS.items()}
    sections.update(pair_keys=frozen["keys"][order],
                    pair_distances=frozen["values"][order],
                    hash_slots=slots)
    return sections


def oracle_sections(oracle: SEOracle) -> Dict[str, np.ndarray]:
    """A built oracle's complete v4 section set (compiling it if that
    has not happened yet): tree tables, compiled chains, frozen hash
    with its pairs in key order.

    Shared by :func:`pack_oracle` (one section set per store) and the
    tiled builder (one section set per tile, prefixed).
    """
    if not oracle.is_built:
        raise ValueError("cannot pack an unbuilt oracle")
    compiled = oracle.compiled()
    sections = _tree_sections(oracle.tree)
    sections["chains"] = compiled.chains
    sections.update(_hash_sections(oracle.pair_hash))
    return sections


def nearest_distances(index, count: int) -> np.ndarray:
    """Each of POIs ``0 .. count-1``'s nearest finite distance to
    another of them: float64 ``(count,)``, ``inf`` for a POI that
    reaches none.

    Rows are masked as the RNN matrix path masks them — the POI itself
    excluded, non-finite distances as ``inf`` — and probed in row
    chunks off ``index.query_batch``, so every entry is the float that
    query returns.
    """
    ids = np.arange(count, dtype=np.intp)
    nearest = np.full(count, np.inf)
    step = max(1, _NEAREST_CHUNK_PAIRS // max(count, 1))
    for start in range(0, count, step):
        rows = ids[start:start + step]
        block = np.array(index.query_batch(np.repeat(rows, count),
                                           np.tile(ids, rows.size)),
                         dtype=np.float64).reshape(rows.size, count)
        block[~np.isfinite(block)] = np.inf
        block[np.arange(rows.size), rows] = np.inf
        nearest[rows] = block.min(axis=1)
    return nearest


def _nearest_column(column: np.ndarray) -> np.ndarray:
    """The nearest distances of a packed column: the section itself,
    or a contiguous copy of the first column of the earlier two-column
    layout (nearest and second-nearest distances)."""
    return column if column.ndim == 1 else np.ascontiguousarray(column[:, 0])


def pack_oracle(oracle: SEOracle, path: PathLike,
                canonical: bool = False) -> None:
    """Write a built oracle as a format-v4 binary store.

    Compiles the oracle (its chain matrix) if that has not happened
    yet, and writes the pair hash's tables as the build drew them, so
    an :func:`open_oracle` load never pays either.

    ``canonical=True`` pins the meta document's wall-clock field
    (``stats.total_seconds``) to zero, so two builds of the *same*
    oracle content — e.g. an incremental flush and a from-scratch
    rebuild over the same live POI set — pack to byte-identical files.
    """
    from .serialize import workload_fingerprint
    sections = oracle_sections(oracle)
    compiled = oracle.compiled()
    sections[_NEAREST_SECTION] = nearest_distances(compiled,
                                                   compiled.num_pois)
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
    _write_store(path, meta, sections)


def pack_document(document: Dict[str, Any], path: PathLike) -> None:
    """Convert a parsed v1–v3 JSON document to a v4 store, losslessly.

    The JSON document is self-contained (tree + pairs + metadata), so
    no terrain engine is needed: the chain matrix is re-derived from
    the tree and the hash tables from the pair list with the stored
    seed, and the nearest-distance column from those tables — exactly
    what :func:`~repro.core.serialize.load_oracle` followed by
    :func:`pack_oracle` would produce.
    """
    from .serialize import (_document_pairs, _document_tree,
                            _json_version_guard)
    _json_version_guard(document, source="pack_document")
    tree = _document_tree(document)
    pair_hash = _document_pairs(document)
    sections = _tree_sections(tree)
    sections["chains"] = tree.chains()
    sections.update(_hash_sections(pair_hash))
    sections[_NEAREST_SECTION] = nearest_distances(
        compile_sections(sections, epsilon=document["epsilon"]),
        tree.num_pois)
    stats = document.get("stats", {})
    meta = _meta_document(
        epsilon=document["epsilon"], strategy=document["strategy"],
        method=document["method"], seed=document["seed"],
        fingerprint=document["fingerprint"],
        build=document.get("build", {"executor": "serial", "jobs": 1}),
        stats={"height": stats.get("height", tree.height),
               "pairs_stored": stats.get("pairs_stored", len(pair_hash)),
               "total_seconds": stats.get("total_seconds", 0.0)},
        tree=tree,
    )
    _write_store(path, meta, sections)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def _read_meta_member(archive: zipfile.ZipFile, path: PathLike) -> bytes:
    """Read + validate the meta member (format name and version); its
    bytes."""
    try:
        raw = archive.read(_META_MEMBER)
    except KeyError:
        raise ValueError(
            f"{path}: no {_META_MEMBER} member; not an oracle store"
        ) from None
    meta = json.loads(raw)
    if meta.get("format") != _FORMAT_NAME:
        raise ValueError(f"{path}: not a serialized SE oracle store")
    if meta.get("version") != STORE_VERSION:
        raise ValueError(
            f"{path}: unsupported store version {meta.get('version')}")
    return raw


def _signature(stat: os.stat_result) -> Tuple[int, int, int]:
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


@functools.lru_cache(maxsize=1024)
def _npy_header(preamble: bytes) -> Tuple[Tuple[int, ...], bool, np.dtype]:
    """``(shape, fortran_order, dtype)`` of one npy preamble (magic
    through header), parsed by NumPy's own reader.  The memo is keyed
    by the preamble bytes themselves, so a hit is never stale and
    reopening a store parses nothing."""
    handle = io.BytesIO(preamble)
    if np.lib.format.read_magic(handle) == (1, 0):
        return np.lib.format.read_array_header_1_0(handle)
    # 2.0: a header too long for 1.0's 2-byte length
    return np.lib.format.read_array_header_2_0(handle)


class _Directory(NamedTuple):
    """What an open parses, remembered by :class:`StoreFile`."""

    #: section name -> (local header offset, compression), in file order
    members: Dict[str, Tuple[int, int]]
    #: the validated ``meta.json`` member's bytes
    meta: bytes
    #: section name -> :meth:`StoreFile.layout`, filled as sections are read
    layouts: Dict[str, Tuple[int, np.dtype, Tuple[int, ...]]]


#: The directory memo, keyed by directory bytes (:func:`_directory_key`).
_directories = Residency(_DIRECTORY_MEMO)
_directories_lock = threading.Lock()


def _directory_key(fd: int, size: int) -> Optional[bytes]:
    """The file's zip central directory and end record, taken with one
    or two positional reads of its tail: the directory memo's key.

    Those bytes carry every member's name, CRC-32, sizes, compression
    and offset, so two files share a key only when their members agree
    in all of these.  ``None`` — no memo, a parse at every open —
    unless the end record is the file's last 22 bytes and the
    directory ends where it begins: a zip comment or zip64 records
    move it, and this module's writers produce neither.
    """
    want = min(size, _TAIL_READ)
    tail = os.pread(fd, want, size - want)
    end = tail[-_END_RECORD:]
    if (len(tail) != want or len(end) != _END_RECORD
            or end[:4] != b"PK\x05\x06" or end[20:] != b"\0\0"):
        return None
    length = int.from_bytes(end[12:16], "little") + _END_RECORD
    if int.from_bytes(end[16:20], "little") + length != size:
        return None
    if length > want:
        tail = os.pread(fd, length, size - length)
        if len(tail) != length:
            return None
    return tail[-length:]


class StoreFile:
    """One open v4 store file: the reader behind every backend.

    Opening reads the file's zip central directory and end record with
    one or two positional reads of its tail.  What the first open of
    those bytes parses — the member table, the validated meta member
    and, as sections are read, their layouts — is memoised per process
    in an LRU of at most :data:`_DIRECTORY_MEMO` directories, keyed by
    the directory bytes themselves.  They carry every member's CRC-32,
    sizes and offset, so a hit is never stale: a new generation (a pack
    or a flush) or a rewrite in place changes the key and parses again,
    and a truncated file has lost its end record and fails as it always
    did.  A file whose end record is not its last 22 bytes (a zip
    comment, zip64) parses at every open.  Each open decodes its own
    ``meta`` from the remembered bytes.  The memo holds no descriptor,
    file object or map: a :class:`zipfile.ZipFile` is built only to
    parse, or to inflate a compressed member, on this reader's
    descriptor.

    A section's layout costs one positional read of its local header
    and npy preamble, whose bytes parse once per process
    (:func:`_npy_header`).  Every read goes through the one descriptor
    opened here — maps and copies of sections (:meth:`arrays`),
    positional row and page reads (:meth:`rows`, :meth:`read`) — so a
    reader keeps reading the generation it opened after an
    ``os.replace``.  One :meth:`arrays` call takes one read-only map
    over the byte span of the sections it names and hands each out as
    an array view of it.  :meth:`close` (or leaving a ``with`` block)
    releases the descriptor, as does collecting an unclosed reader (a
    raw descriptor: no ``ResourceWarning``).  A map already handed out
    holds its own descriptor and stays valid until its last view goes.
    """

    def __init__(self, path: PathLike):
        self.opened = time.perf_counter()
        self.path = os.fspath(path)
        self._fd = fd = os.open(self.path, os.O_RDONLY)
        self._finalizer = weakref.finalize(self, os.close, fd)
        self._lock = threading.Lock()
        self._file = self._archive = None
        self._warned = False
        try:
            stat = os.fstat(fd)
            #: the file generation opened (see :func:`file_signature`)
            self.signature = _signature(stat)
            key = _directory_key(fd, stat.st_size)
            with _directories_lock:
                directory = None if key is None else _directories.get(key)
            if directory is None:
                directory = self._parse()
                if key is not None:
                    with _directories_lock:
                        if key not in _directories:
                            _directories.admit(key, directory)
            self.meta = json.loads(directory.meta)
        except BaseException:
            self.close()
            raise
        self._members = directory.members
        self._layouts = directory.layouts
        #: section names, in file order
        self.names = tuple(self._members)

    def _zip(self) -> zipfile.ZipFile:
        """The zip reader over this descriptor, built on first use; the
        seeking side shares the descriptor but never owns it."""
        if self._archive is None:
            if self.closed:
                raise ValueError(f"{self.path}: store is closed")
            self._file = open(self._fd, "rb", closefd=False)
            self._archive = zipfile.ZipFile(self._file)
        return self._archive

    def _parse(self) -> _Directory:
        """Parse the zip directory and the meta member, as a memo miss."""
        archive = self._zip()
        members = {info.filename[:-4]: (info.header_offset,
                                        info.compress_type)
                   for info in archive.infolist()
                   if info.filename.endswith(".npy")}
        return _Directory(members, _read_meta_member(archive, self.path), {})

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
            if self._archive is not None:
                self._archive.close()
            if self._file is not None:
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
        at, compress = self._members[name]
        if compress != zipfile.ZIP_STORED:
            raise ValueError(
                f"{self.path}: section {name} is compressed; in-place "
                "reads need ZIP_STORED members")
        head = os.pread(self._fd, _HEAD_READ, at)
        # Skip the local header by its own name/extra lengths — the
        # central directory's copy can differ.
        start = (30 + int.from_bytes(head[26:28], "little")
                 + int.from_bytes(head[28:30], "little"))
        # The npy preamble: magic and version (8 bytes), the header
        # length (2 bytes in 1.0, 4 in 2.0), then the header itself.
        if len(head) < start + 12:
            head = self.read(at, start + 12)
        width = 2 if head[start + 6] == 1 else 4
        end = (start + 8 + width
               + int.from_bytes(head[start + 8:start + 8 + width], "little"))
        # A garbled length must not send a huge read (NumPy refuses
        # headers over 10,000 bytes anyway).
        if head[start:start + 6] != b"\x93NUMPY" or end - start > 1 << 16:
            raise ValueError(f"{self.path}: section {name} is not an npy array")
        if len(head) < end:
            head = self.read(at, end)
        shape, fortran, dtype = _npy_header(head[start:end])
        if fortran:  # pragma: no cover - we only write C order
            raise ValueError(f"{self.path}: section {name} is Fortran-ordered")
        # Shared by every open of this directory: racing readers store
        # equal values.
        layout = self._layouts[name] = (at + end, dtype, shape)
        return layout

    def arrays(self, names: Iterable[str], mmap: bool = True
               ) -> Dict[str, np.ndarray]:
        """The named sections, each whole, by name.

        With ``mmap``, one read-only map covers the byte span of the
        named ZIP_STORED sections and each comes back as an array view
        of it (read-only, owning no data, ``.base`` the map); the map
        and its descriptor live until the last view goes.  Without,
        each section is a private copy in one positional read.  A
        compressed member cannot be mapped in place and loads as a
        copy; the first time that happens with ``mmap``, one
        ``RuntimeWarning`` names every compressed section of the file.
        """
        names = tuple(names)
        out: Dict[str, np.ndarray] = {}
        mapped = {}
        for name in names:
            if self._members[name][1] != zipfile.ZIP_STORED:
                out[name] = self._inflate(name, warn=mmap)
            elif mmap:
                mapped[name] = self.layout(name)
            else:
                out[name] = self.rows(name, 0, self.layout(name)[2][0])
        if mapped:
            first = min(offset for offset, _, _ in mapped.values())
            base = first - first % _mmap.ALLOCATIONGRANULARITY
            end = max(offset + dtype.itemsize * math.prod(shape)
                      for offset, dtype, shape in mapped.values())
            with self._lock:
                if self.closed:
                    raise ValueError(f"{self.path}: store is closed")
                # At least one byte: an empty map is an error, and the
                # zip directory always follows the last section.
                region = _mmap.mmap(self._fd, max(end - base, 1),
                                    access=_mmap.ACCESS_READ, offset=base)
            for name, (offset, dtype, shape) in mapped.items():
                out[name] = np.ndarray(shape, dtype, buffer=region,
                                       offset=offset - base)
        return {name: out[name] for name in names}

    def array(self, name: str, mmap: bool = True) -> np.ndarray:
        """One whole section (:meth:`arrays`)."""
        return self.arrays((name,), mmap)[name]

    def _inflate(self, name: str, warn: bool) -> np.ndarray:
        """A compressed section's copy, warning once per file when a
        map was asked for."""
        if warn and not self._warned:
            self._warned = True
            compressed = sorted(
                section for section, (_, compress) in self._members.items()
                if compress != zipfile.ZIP_STORED)
            warnings.warn(
                f"{self.path}: sections {compressed} are compressed and "
                "load eagerly (no zero-copy mmap); repack with "
                "pack_oracle for in-place serving",
                RuntimeWarning, stacklevel=3)
        with self._lock, self._zip().open(name + ".npy") as member:
            return np.lib.format.read_array(member, allow_pickle=False)

    def rows(self, name: str, start: int, count: int) -> np.ndarray:
        """Rows ``start .. start + count`` of a section, in one
        positional read."""
        offset, dtype, shape = self.layout(name)
        row_bytes = dtype.itemsize * math.prod(shape[1:])
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

    With ``mmap`` every section is a view of one map of the store
    (:meth:`StoreFile.arrays`).  The returned meta gains a ``sections``
    entry recording, per section, whether it was handed out as such a
    zero-copy view (``{"zero_copy": bool}``).  A compressed
    (non-ZIP_STORED) member cannot be mapped in place; when ``mmap``
    was requested and one is found the eager fallback is no longer
    silent — one ``RuntimeWarning`` names the affected sections.
    """
    with StoreFile.of(path) as store:
        sections = store.arrays(store.names, mmap)
    meta = dict(store.meta)
    meta["sections"] = {
        name: {"zero_copy": isinstance(array.base, _mmap.mmap)}
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


def compile_sections(sections, *, epsilon: float) -> CompiledOracle:
    """The query tables over one v4 section set (arrays, mmap'd or
    not): the one construction behind :func:`open_oracle` and the tile
    loader."""
    pair_hash = PerfectHashMap.from_frozen(
        **{name: sections[section]
           for section, name in _HASH_SECTIONS.items()})
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
    idempotent :meth:`close`, also run on leaving a ``with`` block,
    and the nearest-distance column RNN reads
    (:meth:`nearest_column`).  Subclasses release their resources in
    :meth:`_release`."""

    closed = False
    _nearest: Optional[np.ndarray] = None

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

    def _read_nearest(self, store: StoreFile, prefix: str = "") -> None:
        """Read the packed nearest-distance column resident, if
        ``store`` has one (stores packed before it do not)."""
        name = prefix + _NEAREST_SECTION
        if name in store.names:
            self._nearest = _nearest_column(store.array(name, mmap=False))

    def nearest_column(self) -> np.ndarray:
        """Each POI's nearest finite distance to another POI, ``inf``
        when it reaches none (:func:`nearest_distances`).

        Read at open, or — for a store packed before the column —
        derived once here, on first use, off this store's own
        ``query_batch``.  Whole-universe RNN answers from it
        (:func:`~repro.queries.proximity.reverse_nearest_neighbors`).
        """
        if self._nearest is None:
            # Unlocked: racing first calls derive the same array, and
            # it is published by one assignment.
            self._nearest = nearest_distances(self, self.num_pois)
        return self._nearest

    def nearest_probes(self) -> int:
        """Distances the next :meth:`nearest_column` call asks this
        store for: none once the column is resident, ``num_pois**2``
        while a store packed without it has not derived it yet."""
        return 0 if self._nearest is not None else self.num_pois ** 2

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
        """Release the tables, the nearest-distance column and any
        file handle; later queries (and :meth:`nearest_column`) raise
        ``ValueError``.  Closing twice is a no-op."""
        if not self.closed:
            self.closed = True
            self._nearest = None
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


class StoredOracle(CompiledStore):
    """An opened v4 store: compiled query tables + build metadata.

    ``path`` is a store file or an open :class:`StoreFile`, which the
    oracle takes over.  Every section is a view of one read-only map of
    the store (``mmap``) or a copy read at open, and the map holds its
    own descriptor, so the reader closes as soon as the tables exist.
    The compiled tables are live immediately (queries need no engine);
    :meth:`to_oracle` wraps the same sections as a full
    :class:`~repro.core.oracle.SEOracle` against a terrain engine when
    the scalar/tree API is needed — e.g. for a binary -> JSON
    conversion.  :meth:`close` drops its views of the map; tables
    already handed out (an overlay's base, a rehydrated oracle) keep
    their own references.
    """

    def __init__(self, path: Union[StoreFile, PathLike], mmap: bool = True):
        store = StoreFile.of(path)
        meta, self._sections = read_store(store, mmap)
        self._identify(store.meta, store)
        if _NEAREST_SECTION in self._sections:
            # A view of the store's map (or a copy): no second read.
            self._nearest = _nearest_column(self._sections[_NEAREST_SECTION])
        # Surface the zero-copy ledger: sections that could not be mapped
        # in place (compressed members) are a serving-performance smell.
        self.stats["non_zero_copy_sections"] = sorted(
            name for name, entry in meta["sections"].items()
            if not entry["zero_copy"])
        self.compiled = compile_sections(self._sections, epsilon=self.epsilon)
        # The open itself, not the cost of hashing the terrain.
        self.load_seconds = time.perf_counter() - store.opened

    def _release(self) -> None:
        self._sections = self.compiled = _ClosedTables(self.path)

    def to_oracle(self, engine: GeodesicEngine,
                  strict: bool = True) -> SEOracle:
        """Full :class:`SEOracle` over ``engine``: the store's sections,
        wrapped.

        The tree is the mapped (or copied) ``tree_table`` and
        ``tree_radii`` sections and the pair hash the store's own
        mapped tables, so scalar and batch queries both probe the map;
        nothing is copied or rebuilt per node or per pair.
        """
        if strict:
            self.check_fingerprint(engine)
        oracle = SEOracle(engine, self.epsilon, strategy=self.strategy,
                          method=self.method, seed=self.seed)
        meta = self.tree_meta
        oracle._tree = CompressedPartitionTree(
            self._sections["tree_table"], self._sections["tree_radii"],
            meta["root_id"], meta["height"], meta["root_radius"])
        oracle._pair_hash = self.compiled.pair_hash
        oracle._compiled = self.compiled
        oracle._built = True
        oracle.stats.height = self.stats.get("height", 0)
        oracle.stats.pairs_stored = self.stats.get("pairs_stored",
                                                   self.num_pairs)
        oracle.stats.total_seconds = self.stats.get("total_seconds", 0.0)
        oracle.stats.executor = self.build.get("executor", "serial")
        oracle.stats.jobs = self.build.get("jobs", 1)
        return oracle


def open_oracle(path: PathLike, engine: Optional[GeodesicEngine] = None,
                mmap: bool = True,
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
        Optional workload to validate against: raise on a workload
        fingerprint mismatch.  Serving processes that trust their
        terrain registry pass ``None`` and skip the mesh hash
        entirely — the whole point of the store is that queries never
        need the terrain.
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
    if engine is not None:
        try:
            stored.check_fingerprint(engine)
        except ValueError:
            stored.close()
            raise
    return stored
