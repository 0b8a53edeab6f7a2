"""Tiled terrain sharding: per-tile SE oracles + boundary stitching.

Every build path so far constructs **one** partition tree over the
whole POI set — fine for city-sized terrains, an Amdahl ceiling for
country-sized ones (the cover passes are inherently sequential, see
:mod:`~repro.core.parallel`).  This module shards the *terrain*
instead of the distance work:

1. :func:`plan_tiles` cuts the mesh into ``T`` spatial tiles by
   recursive median bisection over face centroids — every face belongs
   to exactly one tile, tiles share only boundary vertices/edges.
2. :func:`build_tiled_oracle` builds one independent SE oracle per
   tile (``jobs=N`` fans whole tile builds across processes via
   :func:`~repro.core.parallel.map_jobs`, sidestepping the sequential
   partition tree entirely) and precomputes one dense **boundary
   matrix** (graph-exact distances between every pair of *portals*)
   plus, per tile, a dense **POI×portal block**: every owned POI's
   oracle distance to every portal of its tile — the access legs of
   Transit Node Routing (Bast et al., 2007).
3. :class:`TiledOracle` serves the ``DistanceIndex`` protocol over the
   shards: intra-tile queries route to the owning tile's
   :class:`~repro.core.compiled.CompiledOracle`; cross-tile queries
   stitch ``d̂(s, b₁) + B[b₁, b₂] + d̂(b₂, t)`` minimised over the two
   tiles' portal sets: a gather of block rows and a min-plus product
   whose inner minimum is computed once per distinct source.

Portals — why the stitch is within (1 ± ε)
------------------------------------------
A *portal* is a geodesic-graph node lying on the tile cut: a mesh
vertex whose incident faces span ≥ 2 tiles, or a Steiner point on a
*cut edge* (a mesh edge whose incident faces span ≥ 2 tiles).  Every
graph edge lies within one face's boundary clique, and every face
belongs to exactly one tile — so any path that leaves a tile passes
through a portal.  Each tile's oracle includes its portals as extra
sites (attached at the *exact* node position, so they alias the
tile-local node), and the boundary matrix ``B`` holds full-graph
Dijkstra distances.  Splitting the true path at its first-exit /
last-entry portals and bounding each leg gives

    (1 − ε)·d(s, t) ≤ min stitch ≤ (1 + ε)·d(s, t).

Because the true geodesic between two same-tile POIs may still leave
and re-enter the tile, intra-tile answers are
``min(direct, same-tile stitch)`` — pruned by each POI's *escape
distance* (its oracle distance to the nearest portal, the row minimum
of its block): when ``direct ≤ escape[s] + escape[t]`` no stitch can
be shorter, and the prune is exact (bit-identical to the unpruned
minimum).

Determinism and paging
----------------------
Tile extraction is order-preserving (faces ascending, vertices via
``np.unique``), so Steiner placement inside a tile reproduces the
full-mesh positions bitwise, a single-tile build is **bit-identical**
to the monolithic oracle, and parallel tile builds are bit-identical
to serial ones.  Every block cell is the tile oracle's own answer, so
stitching from the blocks is bit-identical to probing the tile tables
per query.  Cross-tile stitching therefore touches no tile table: only
the intra-tile direct legs read the per-tile query tables (chains +
frozen hash), which page through a :class:`~repro.core.residency.
Residency` LRU (``max_resident_tiles``) — bit-identically at any
bound, down to one resident tile.  Stores packed before the blocks
existed carry no ``poi_portal`` section; opening one derives the
blocks once from the tile tables.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..geodesic.engine import GeodesicEngine
from ..terrain.mesh import TriangleMesh
from ..terrain.poi import POI, POISet
from .compiled import CompiledOracle
from .index import DistanceIndexMixin, aligned_id_arrays
from .oracle import SEOracle
from .parallel import map_jobs
from .residency import Counts, Residency
from .store import (
    _FORMAT_NAME,
    _HASH_SECTIONS,
    _write_store,
    STORE_VERSION,
    StoreFile,
    StoreHandle,
    compile_sections,
)

__all__ = [
    "plan_tiles",
    "build_tiled_oracle",
    "pack_tiled",
    "open_tiled_oracle",
    "TiledBuild",
    "TiledOracle",
]

#: The sections a tile needs resident for its direct legs (the portal
#: maps and the POI×portal block are small and always loaded).
_TILE_QUERY_SECTIONS = ("chains",) + tuple(_HASH_SECTIONS)

#: Source-row chunk of the min-plus stitch: bounds the (chunk, Pa, Pb)
#: broadcast intermediate without changing any result bit.
_STITCH_CHUNK = 128


def _tile_prefix(tile: int) -> str:
    return f"tiles/{tile:04d}/"


def _position_key(position: Sequence[float]) -> Tuple[float, ...]:
    """The 9-decimal rounding key :class:`POISet` dedups on.

    Portals are pre-deduped against owned POIs with the same key, so a
    POI sitting exactly on a boundary vertex maps onto the portal's
    tile-local site instead of silently shifting every later index."""
    return tuple(round(float(c), 9) for c in position)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def plan_tiles(mesh: TriangleMesh, tiles: int) -> np.ndarray:
    """Assign every face to one of ``tiles`` spatial tiles.

    Recursive median bisection over face centroids: split the face set
    along its longer planar (xy) axis with a stable argsort, sized
    proportionally when ``tiles`` is odd.  Purely deterministic —
    identical meshes plan identical tilings on every platform.
    Returns an int64 array of length ``mesh.num_faces``.
    """
    tiles = int(tiles)
    if tiles < 1:
        raise ValueError("tiles must be >= 1")
    if tiles > mesh.num_faces:
        raise ValueError(
            f"cannot cut {mesh.num_faces} faces into {tiles} tiles")
    centroids = mesh.vertices[mesh.faces].mean(axis=1)[:, :2]
    face_tile = np.empty(mesh.num_faces, dtype=np.int64)

    def split(face_ids: np.ndarray, count: int, first: int) -> None:
        if count == 1:
            face_tile[face_ids] = first
            return
        left = count // 2
        points = centroids[face_ids]
        spans = points.max(axis=0) - points.min(axis=0)
        axis = 0 if spans[0] >= spans[1] else 1
        order = np.argsort(points[:, axis], kind="stable")
        take = (len(face_ids) * left) // count
        take = max(left, min(take, len(face_ids) - (count - left)))
        split(face_ids[order[:take]], left, first)
        split(face_ids[order[take:]], count - left, first + left)

    split(np.arange(mesh.num_faces), tiles, 0)
    return face_tile


# ----------------------------------------------------------------------
# portals
# ----------------------------------------------------------------------
@dataclass
class _Portal:
    """One cut-crossing node: full-graph id, exact position, the mesh
    vertex it aliases (``None`` for Steiner portals) and, per adjacent
    tile, one global face of that tile it sits on."""

    node: int
    position: Tuple[float, ...]
    vertex: Optional[int]
    faces: Dict[int, int]


def _find_portals(mesh: TriangleMesh, graph,
                  face_tile: np.ndarray) -> List[_Portal]:
    portals: List[_Portal] = []
    for vertex, faces in enumerate(mesh.vertex_faces):
        tiles_of: Dict[int, int] = {}
        for face in faces:
            tiles_of.setdefault(int(face_tile[face]), int(face))
        if len(tiles_of) < 2:
            continue
        portals.append(_Portal(
            node=int(vertex),
            position=tuple(float(c) for c in mesh.vertices[vertex]),
            vertex=int(vertex), faces=tiles_of))
    for edge in mesh.edges:  # sorted -> deterministic portal order
        tiles_of = {}
        for face in mesh.edge_faces[edge]:
            tiles_of.setdefault(int(face_tile[face]), int(face))
        if len(tiles_of) < 2:
            continue
        for node in graph.edge_steiner_nodes(*edge):
            portals.append(_Portal(
                node=int(node),
                position=tuple(float(c) for c in graph.position(node)),
                vertex=None, faces=tiles_of))
    portals.sort(key=lambda portal: portal.node)
    return portals


def _boundary_matrix(engine: GeodesicEngine,
                     portal_nodes: Sequence[int]) -> np.ndarray:
    """Full-graph portal×portal distances (one Dijkstra per portal).

    Computed on the *complete* engine, so cut-straddling legs are
    graph-exact; POI sites cannot shorten these paths (a site's edges
    stay inside one face's clique, where the direct edge is never
    longer by the triangle inequality).  Symmetric by construction:
    each upper-triangle entry comes from the lower-index portal's
    search and is mirrored (the reverse search can differ in the last
    bit).  Every portal's whole row comes from one batch of
    :meth:`~repro.geodesic.engine.GeodesicEngine.node_rows`.
    """
    upper = np.triu(engine.node_rows(portal_nodes, portal_nodes), 1)
    return upper + upper.T


# ----------------------------------------------------------------------
# per-tile build (worker side)
# ----------------------------------------------------------------------
def _poi_portal(compiled: CompiledOracle, owned: int,
                portal_local: np.ndarray) -> np.ndarray:
    """The tile's POI×portal block: row ``i`` holds owned POI ``i``'s
    distances to every tile portal, off one batched probe — so each
    cell is bit-identical to the scalar query it stands for."""
    width = portal_local.shape[0]
    return compiled.query_batch(
        np.repeat(np.arange(owned), width),
        np.tile(portal_local, owned),
    ).reshape(owned, width)


def _build_tile(workload: Dict[str, Any]
                ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Build one tile's oracle from a self-contained picklable
    workload; runs in a worker process under :func:`map_jobs`."""
    from .store import oracle_sections
    mesh = TriangleMesh(workload["vertices"], workload["faces"])
    pois = POISet([
        POI(index=i, position=tuple(position), face_id=face,
            vertex_id=vertex)
        for i, (position, face, vertex)
        in enumerate(workload["sites"])
    ])
    if len(pois) != len(workload["sites"]):
        raise RuntimeError(
            f"tile {workload['tile']}: site dedup shifted local ids")
    engine = GeodesicEngine(mesh, pois,
                            points_per_edge=workload["density"])
    oracle = SEOracle(engine, workload["epsilon"],
                      strategy=workload["strategy"],
                      method=workload["method"],
                      seed=workload["seed"]).build()
    sections = oracle_sections(oracle)
    portal_local = workload["portal_local"]
    sections["poi_portal"] = _poi_portal(
        oracle.compiled(), workload["owned"], portal_local)
    stats = {
        "pois": int(workload["owned"]),
        "sites": len(pois),
        "portals": int(portal_local.size),
        "pairs": oracle.stats.pairs_stored,
        "height": oracle.stats.height,
        "root_radius": oracle.tree.root_radius,
        "faces": int(workload["faces"].shape[0]),
        "vertices": int(workload["vertices"].shape[0]),
        "seconds": oracle.stats.total_seconds,
    }
    return sections, stats


def _tile_workloads(mesh: TriangleMesh, pois: POISet,
                    face_tile: np.ndarray, portals: List[_Portal],
                    num_tiles: int, params: Dict[str, Any]):
    """Cut the build into one picklable workload per tile.

    Extraction is order-preserving — faces ascending, vertices via
    ``np.unique`` — so ``u < v`` globally implies ``u < v`` locally
    and the tile's Steiner placement reproduces the full-mesh
    positions bitwise.  Owned POIs come first (local ids ``0 ..
    owned-1`` = the global POIs of the tile, ascending), then the
    tile's non-coinciding portals in global portal order.
    """
    faces = np.asarray(mesh.faces)
    owner = np.array([int(face_tile[poi.face_id]) for poi in pois],
                     dtype=np.int64)
    local = np.full(len(pois), -1, dtype=np.int64)
    workloads = []
    portal_locals: List[np.ndarray] = []
    portal_globals: List[np.ndarray] = []
    for tile in range(num_tiles):
        face_ids = np.flatnonzero(face_tile == tile)
        tile_faces = faces[face_ids]
        vert_ids = np.unique(tile_faces)
        local_faces = np.searchsorted(vert_ids, tile_faces)
        vertex_map = {int(v): i for i, v in enumerate(vert_ids)}
        face_map = {int(f): i for i, f in enumerate(face_ids)}
        sites: List[Tuple[Tuple[float, ...], int, Optional[int]]] = []
        key_to_local: Dict[Tuple[float, ...], int] = {}
        for index in np.flatnonzero(owner == tile):
            poi = pois[int(index)]
            rank = len(sites)
            local[index] = rank
            vertex = (None if poi.vertex_id is None
                      else vertex_map[int(poi.vertex_id)])
            sites.append((tuple(poi.position),
                          face_map[int(poi.face_id)], vertex))
            key_to_local[_position_key(poi.position)] = rank
        tile_portal_local: List[int] = []
        tile_portal_global: List[int] = []
        for g, portal in enumerate(portals):
            if tile not in portal.faces:
                continue
            key = _position_key(portal.position)
            rank = key_to_local.get(key)
            if rank is None:
                rank = len(sites)
                vertex = (None if portal.vertex is None
                          else vertex_map[portal.vertex])
                sites.append((portal.position,
                              face_map[portal.faces[tile]], vertex))
                key_to_local[key] = rank
            tile_portal_local.append(rank)
            tile_portal_global.append(g)
        if not sites:
            raise ValueError(
                f"tile {tile} has no POIs and no portals; use fewer "
                "tiles or place a POI in every region")
        portal_locals.append(np.asarray(tile_portal_local,
                                        dtype=np.int64))
        portal_globals.append(np.asarray(tile_portal_global,
                                         dtype=np.int64))
        workloads.append({
            "tile": tile,
            "vertices": np.ascontiguousarray(mesh.vertices[vert_ids]),
            "faces": np.ascontiguousarray(local_faces.astype(np.int64)),
            "sites": sites,
            "owned": int(np.count_nonzero(owner == tile)),
            "portal_local": portal_locals[-1],
            **params,
        })
    return workloads, owner, local, portal_locals, portal_globals


# ----------------------------------------------------------------------
# build entry point
# ----------------------------------------------------------------------
@dataclass
class TiledBuild:
    """An in-memory tiled build: meta + routing arrays + per-tile
    sections (``poi_portal`` included).  :meth:`oracle` serves it
    directly; :func:`pack_tiled` writes it as one v4 store.
    ``portal_local`` (each tile's portal site ids, the block columns)
    is not packed: the blocks already hold every leg it indexes."""

    meta: Dict[str, Any]
    owner: np.ndarray
    local: np.ndarray
    boundary: np.ndarray
    portal_local: List[np.ndarray]
    portal_global: List[np.ndarray]
    sections: List[Dict[str, np.ndarray]]

    def oracle(self, max_resident_tiles: Optional[int] = None
               ) -> "TiledOracle":
        sections = self.sections

        def loader(tile: int) -> Dict[str, np.ndarray]:
            return {name: sections[tile][name]
                    for name in _TILE_QUERY_SECTIONS}

        return TiledOracle(
            meta=self.meta, owner=self.owner, local=self.local,
            boundary=self.boundary, portal_global=self.portal_global,
            poi_portal=[tile["poi_portal"] for tile in sections],
            loader=loader, max_resident_tiles=max_resident_tiles)


def build_tiled_oracle(mesh: TriangleMesh, pois: POISet,
                       epsilon: float, *, tiles: int,
                       strategy: str = "random",
                       method: str = "efficient", seed: int = 0,
                       points_per_edge: int = 1,
                       jobs: Optional[int] = 1) -> TiledBuild:
    """Shard ``mesh`` into ``tiles`` tiles and build one SE oracle per
    tile (every tile uses the same ``seed``), plus the portal boundary
    matrix.  ``jobs`` parallelises *across tiles* — whole independent
    builds per worker, no sequential-tree bottleneck — and is
    bit-identical to a serial build.
    """
    started = time.perf_counter()
    face_tile = plan_tiles(mesh, tiles)
    num_tiles = int(face_tile.max()) + 1 if face_tile.size else 1
    engine = GeodesicEngine(mesh, pois, points_per_edge=points_per_edge)
    portals = _find_portals(mesh, engine.graph, face_tile)
    params = {"epsilon": float(epsilon), "strategy": strategy,
              "method": method, "seed": int(seed),
              "density": int(points_per_edge)}
    workloads, owner, local, portal_locals, portal_globals = \
        _tile_workloads(mesh, pois, face_tile, portals, num_tiles,
                        params)
    results = map_jobs(_build_tile, workloads, jobs=jobs)
    boundary = _boundary_matrix(
        engine, [portal.node for portal in portals])
    from .serialize import workload_fingerprint
    tile_stats = [stats for _, stats in results]
    height = max(stats["height"] for stats in tile_stats)
    meta = {
        "format": _FORMAT_NAME,
        "version": STORE_VERSION,
        "epsilon": float(epsilon),
        "strategy": strategy,
        "method": method,
        "seed": int(seed),
        "fingerprint": workload_fingerprint(engine),
        "build": {"executor": "tiled", "jobs": int(jobs or 1)},
        # Aggregates, so every meta consumer (CLI prints, describe)
        # keeps working: height is the max tile height, pairs the sum.
        "stats": {
            "height": height,
            "pairs_stored": sum(s["pairs"] for s in tile_stats),
            "total_seconds": time.perf_counter() - started,
        },
        "tree": {
            "root_id": -1,
            "height": height,
            "root_radius": max(s["root_radius"] for s in tile_stats),
        },
        "tiles": {
            "count": num_tiles,
            "portals": len(portals),
            "density": int(points_per_edge),
            "pois": len(pois),
            "tile": tile_stats,
        },
    }
    return TiledBuild(
        meta=meta, owner=owner, local=local, boundary=boundary,
        portal_local=portal_locals, portal_global=portal_globals,
        sections=[sections for sections, _ in results])


# ----------------------------------------------------------------------
# store glue
# ----------------------------------------------------------------------
def pack_tiled(build: TiledBuild, path) -> None:
    """Write a :class:`TiledBuild` as one v4 store.

    Same container as :func:`~repro.core.store.pack_oracle` — an
    uncompressed npz-style zip — with each tile its own section set
    under ``tiles/NNNN/`` plus three global routing sections; the tile
    directory lives under the ``"tiles"`` key of ``meta.json``.
    """
    sections: Dict[str, np.ndarray] = {
        "tiles/owner": build.owner,
        "tiles/local": build.local,
        "tiles/boundary": build.boundary,
    }
    for tile, tile_sections in enumerate(build.sections):
        prefix = _tile_prefix(tile)
        for name, array in tile_sections.items():
            sections[prefix + name] = array
        sections[prefix + "portal_global"] = build.portal_global[tile]
    _write_store(path, build.meta, sections)


def open_tiled_oracle(path, mmap: bool = True,
                      max_resident_tiles: Optional[int] = None
                      ) -> "TiledOracle":
    """Open a tiled store with *lazily paged* tile tables.

    ``path`` is a store file or an open :class:`~repro.core.store.
    StoreFile`, which the oracle takes over: every read, tile loads
    included, goes through its one descriptor.  Only the small routing
    arrays (owner/local maps, global portal ids, POI×portal blocks —
    plus the mmap'd boundary matrix) are touched up front; each tile's
    query tables are mapped on first use and page through the oracle's
    internal LRU.  A store packed before the blocks existed has no
    ``poi_portal`` section: its blocks are derived here, once, from
    each tile's tables, outside the tile ledger.  Prefer
    :func:`~repro.core.store.open_oracle`, which dispatches here on the
    meta tile directory.
    """
    store = StoreFile.of(path)
    try:
        meta = store.meta
        if "tiles" not in meta:
            raise ValueError(f"{store.path}: not a tiled oracle store")

        def loader(tile: int) -> Dict[str, np.ndarray]:
            prefix = _tile_prefix(tile)
            return {name: store.array(prefix + name, mmap)
                    for name in _TILE_QUERY_SECTIONS}

        portal_global = []
        poi_portal: List[np.ndarray] = []
        owner = store.array("tiles/owner", mmap)
        for tile in range(int(meta["tiles"]["count"])):
            prefix = _tile_prefix(tile)
            portal_global.append(
                store.array(prefix + "portal_global", mmap=False))
            if prefix + "poi_portal" in store.names:
                poi_portal.append(
                    store.array(prefix + "poi_portal", mmap=False))
            else:  # packed before the blocks existed
                compiled = compile_sections(loader(tile), seed=meta["seed"],
                                            epsilon=meta["epsilon"])
                poi_portal.append(_poi_portal(
                    compiled, int(np.count_nonzero(owner == tile)),
                    store.array(prefix + "portal_local", mmap=False)))
        oracle = TiledOracle(
            meta=meta, owner=owner, local=store.array("tiles/local", mmap),
            boundary=store.array("tiles/boundary", mmap),
            portal_global=portal_global, poi_portal=poi_portal,
            loader=loader, store=store,
            max_resident_tiles=max_resident_tiles)
    except BaseException:
        store.close()  # no caller will get to close it
        raise
    oracle.load_seconds = time.perf_counter() - store.opened
    return oracle


# ----------------------------------------------------------------------
# the tiled index
# ----------------------------------------------------------------------
def _min_plus(legs: np.ndarray, sources: np.ndarray, middle: np.ndarray,
              right: np.ndarray) -> np.ndarray:
    """Row-wise stitch minimum ``min_{j,k}((legs[sources[i], j] +
    middle[j, k]) + right[i, k])``.

    The inner ``min_j`` depends on the source row alone, so it runs
    once per distinct source, chunked so the (chunk, Pa, Pb) broadcast
    stays bounded; the rows then gather it.  Neither step changes a
    bit of the result."""
    distinct, inverse = np.unique(sources, return_inverse=True)
    through = np.empty((distinct.shape[0], middle.shape[1]))
    for start in range(0, distinct.shape[0], _STITCH_CHUNK):
        stop = start + _STITCH_CHUNK
        through[start:stop] = (legs[distinct[start:stop], :, None]
                               + middle).min(axis=1)
    return (through[inverse] + right).min(axis=1)


class TiledOracle(StoreHandle, DistanceIndexMixin):
    """``DistanceIndex`` over tile shards with LRU tile paging.

    Global POI ids are the build POI set's indices; the routing arrays
    map each id to its owning tile and tile-local site id.  Stitching
    reads only the always-resident POI×portal blocks and boundary
    matrix.  The per-tile query tables (chains + frozen hash) serve
    the intra-tile direct legs: they load lazily through ``loader``
    (from ``store``, which the oracle closes with itself) and at most
    ``max_resident_tiles`` stay resident (``None``: unbounded) in a
    :class:`~repro.core.residency.Residency`; loads, evictions and hits
    are counted per tile for the serving layer's ``stats``.

    Thread-safe: one re-entrant lock serialises paging and queries, so
    an eviction can never tear an in-flight batch.  Results are
    independent of the residency bound (and of eviction timing): a
    direct leg reads one tile's tables, and a stitch reads none.
    """

    def __init__(self, *, meta: Dict[str, Any], owner, local, boundary,
                 portal_global: Sequence, poi_portal: Sequence,
                 loader: Callable[[int], Dict[str, np.ndarray]],
                 store: Optional[StoreFile] = None,
                 max_resident_tiles: Optional[int] = None):
        self._identify(meta, store)
        self._store = store
        self.load_seconds = 0.0
        self._owner = np.asarray(owner)
        self._local = np.asarray(local)
        # A plain view: slicing an np.memmap costs a Python call.
        self._boundary = np.asarray(boundary)
        self._portal_global = [np.asarray(p) for p in portal_global]
        self._poi_portal = [np.asarray(b) for b in poi_portal]
        self._escape = [block.min(axis=1, initial=np.inf)
                        for block in self._poi_portal]
        self._loader = loader
        self._num_tiles = len(self._poi_portal)
        if max_resident_tiles is not None:
            max_resident_tiles = int(max_resident_tiles)
            if max_resident_tiles < 1:
                raise ValueError("max_resident_tiles must be >= 1")
        self._counts = [Counts() for _ in range(self._num_tiles)]
        self._resident = Residency(max_resident_tiles,
                                   counts=self._counts.__getitem__)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    @property
    def num_pois(self) -> int:
        return int(self._owner.shape[0])

    @property
    def num_tiles(self) -> int:
        return self._num_tiles

    @property
    def num_portals(self) -> int:
        return int(self._boundary.shape[0])

    @property
    def num_pairs(self) -> int:
        return int(self.stats.get("pairs_stored", 0))

    @property
    def height(self) -> int:
        return int(self.stats.get("height", 0))

    @property
    def max_resident_tiles(self) -> Optional[int]:
        return self._resident.capacity

    def size_bytes(self) -> int:
        """On-disk footprint (store-backed) or the routing + resident
        table bytes (in-memory build)."""
        if self.path is not None:
            return super().size_bytes()
        routing = (int(self._boundary.nbytes)
                   + int(self._owner.nbytes) + int(self._local.nbytes)
                   + sum(int(b.nbytes) for b in self._poi_portal))
        return routing + self.resident_bytes()

    def _release(self) -> None:
        with self._lock:
            self._resident.clear()
            if self._store is not None:
                self._store.close()

    # ------------------------------------------------------------------
    # paging
    # ------------------------------------------------------------------
    def _tile(self, tile: int) -> CompiledOracle:
        with self._lock:
            compiled = self._resident.get(tile)
            if compiled is None:
                sections = self._loader(tile)
                compiled = compile_sections(sections, seed=self.seed,
                                            epsilon=self.epsilon)
                nbytes = sum(int(array.nbytes)
                             for array in sections.values())
                self._resident.admit(tile, compiled, nbytes)
            return compiled

    def resident_tiles(self) -> List[int]:
        with self._lock:
            return self._resident.keys()

    def resident_bytes(self) -> int:
        """Bytes of per-tile query tables currently resident — the
        deterministic footprint ``max_resident_tiles`` bounds (the
        process RSS also carries the interpreter, NumPy, and the
        always-resident routing arrays)."""
        return self._resident.resident_bytes

    @property
    def peak_resident_bytes(self) -> int:
        return self._resident.peak_resident_bytes

    def evict_tile(self, tile: int) -> bool:
        """Drop one tile's tables; a later query transparently
        reloads them.  Returns whether the tile was resident."""
        with self._lock:
            return self._resident.drop(tile)

    def tile_counters(self) -> Dict[str, Any]:
        """Paging ledger for ``OracleService.stats``: totals plus the
        per-tile load/eviction/hit counts and the resident set."""
        with self._lock:
            resident = self._resident
            return {
                "resident": resident.keys(),
                "loads": resident.loads,
                "evictions": resident.evictions,
                "hits": resident.hits,
                "tile": [dict(vars(counts)) for counts in self._counts],
            }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_batch(self, sources, targets) -> np.ndarray:
        sources, targets = aligned_id_arrays(sources, targets)
        out = np.empty(sources.shape[0], dtype=np.float64)
        if not sources.shape[0]:
            return out
        count = self.num_pois
        for ids in (sources, targets):
            if int(ids.min()) < 0 or int(ids.max()) >= count:
                raise IndexError("POI id out of range")
        with self._lock:
            if self.closed:
                raise ValueError(f"{self.path}: store is closed")
            tile_s = self._owner[sources]
            tile_t = self._owner[targets]
            local_s = self._local[sources]
            local_t = self._local[targets]
            # Group rows by (source tile, target tile), sorted — the
            # sequential tile access pattern an LRU of 1 can serve.
            group = tile_s * self._num_tiles + tile_t
            order = np.argsort(group, kind="stable")
            starts = np.flatnonzero(np.diff(group[order])) + 1
            for rows in np.split(order, starts):
                source_tile = int(tile_s[rows[0]])
                target_tile = int(tile_t[rows[0]])
                if source_tile == target_tile:
                    out[rows] = self._intra(
                        source_tile, local_s[rows], local_t[rows])
                else:
                    out[rows] = self._cross(
                        source_tile, target_tile,
                        local_s[rows], local_t[rows])
        return out

    def _intra(self, tile: int, local_s, local_t) -> np.ndarray:
        direct = self._tile(tile).query_batch(local_s, local_t)
        legs = self._poi_portal[tile]
        if not legs.shape[1]:
            return direct
        # Escape prune: any stitch is >= escape[s] + escape[t], so
        # rows at or under that bound keep the direct answer — the
        # prune is exact, not approximate.
        escape = self._escape[tile]
        need = direct > escape[local_s] + escape[local_t]
        if not need.any():
            return direct
        rows = np.flatnonzero(need)
        portals = self._portal_global[tile]
        block = self._boundary[portals[:, None], portals]
        stitched = _min_plus(legs, local_s[rows], block,
                             legs[local_t[rows]])
        direct[rows] = np.minimum(direct[rows], stitched)
        return direct

    def _cross(self, source_tile: int, target_tile: int,
               local_s, local_t) -> np.ndarray:
        legs_s = self._poi_portal[source_tile]
        legs_t = self._poi_portal[target_tile]
        if not legs_s.shape[1] or not legs_t.shape[1]:
            # Disconnected tile pair: no portal joins them.
            return np.full(local_s.shape[0], np.inf)
        block = self._boundary[self._portal_global[source_tile][:, None],
                               self._portal_global[target_tile]]
        return _min_plus(legs_s, local_s, block, legs_t[local_t])
