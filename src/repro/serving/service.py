"""Multi-terrain oracle service over packed binary stores.

The store (:mod:`~repro.core.store`) makes one oracle's load cost
near-zero; this module turns that into a *serving* abstraction: a
single :class:`OracleService` fronts any number of terrains, each
registered as a packed store file, and dispatches batched distance /
proximity queries to the right compiled tables.

Design
------
* **One registration entry point.**  ``register`` takes a
  :class:`TerrainSpec` — a frozen declarative description (``path``,
  ``mutable=``, ``engine=``, ``track_generation=``, ``pin=``,
  ``max_resident_tiles=``, ``max_resident_bytes=``) that the CLI and
  :class:`~repro.serving.server.ServerConfig` both construct.
* **Registration is free.**  ``register`` reads only the store's
  ``meta.json`` member (a few hundred bytes) — no array section is
  touched, so a service can register thousands of terrains at startup.
* **Residency is LRU-bounded.**  Opened stores live in a
  :class:`~repro.core.residency.Residency`: they materialise on first
  query and at most ``max_resident`` terrains stay open; the least
  recently used unpinned one is evicted when the bound would be
  exceeded (``pin=True`` terrains count toward the bound but are never
  victims).  Every path that drops an open store — LRU eviction,
  :meth:`evict`, a generation refresh, re-registration,
  :meth:`unregister`, :meth:`close` — counts one eviction and closes
  it, so ``loads - evictions`` is the number of resident stores and a
  store's file descriptor never outlives its residency.
* **Tiled and paged terrains page inside the store.**  A store packed
  by ``build --tiles`` opens as a :class:`~repro.core.tiled.
  TiledOracle` whose own residency pages tile tables under
  ``TerrainSpec.max_resident_tiles``; ``max_resident_bytes`` opens a
  monolithic store as a :class:`~repro.core.paged.PagedOracle` whose
  page pool is one more residency.  :meth:`stats` and
  :meth:`describe` surface either ledger, so a terrain larger than RAM
  serves with bounded residency.
* **Mutable terrains.**  ``TerrainSpec(mutable=True, engine=...)``
  pairs a store with its terrain workload and wraps it in a
  :class:`~repro.core.dynamic.DynamicSEOracle` overlay
  (:class:`MutableRegistration`): the mmap sections stay read-only and
  shared while inserts/deletes accrue copy-on-write delta state on
  top.  ``insert_poi`` / ``delete_poi`` mutate the overlay;
  ``flush`` rebuilds over the active POI set and atomically repacks
  the store file through :mod:`~repro.core.store`, then re-adopts the
  fresh maps.  Queries route through the same
  :class:`~repro.core.index.DistanceIndex` protocol as static
  terrains — proximity scans derive the live external ids from the
  index itself (:mod:`~repro.queries.proximity`).
* **Counters per terrain.**  Every terrain tracks queries, batches,
  resident-table hits, loads, evictions, updates, flushes, and
  cumulative load/query seconds (:class:`TerrainCounters`), so an
  operator can see which terrains are hot and what the residency
  bound costs in re-loads.

The service is deliberately transport-agnostic: the CLI wraps it in a
line-oriented REPL (``python -m repro serve --repl``), and an HTTP or
RPC front-end would wrap the same object the same way.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dynamic import DynamicSEOracle
from ..core.index import DistanceIndex, ensure_index
from ..core.paged import PagedOracle, check_pageable
from ..core.residency import Residency
from ..core.store import (
    StoreHandle,
    open_oracle,
    pack_oracle,
    read_store_meta,
)
from ..core.tiled import TiledOracle
from ..geodesic.engine import GeodesicEngine
from ..queries import (
    k_nearest_neighbors,
    range_query,
    reverse_nearest_neighbors,
)

__all__ = ["OracleService", "TerrainSpec", "TerrainCounters",
           "MutableRegistration"]


@dataclass(frozen=True)
class TerrainSpec:
    """Declarative terrain registration: everything
    :meth:`OracleService.register` needs to know, in one immutable
    value the CLI, :class:`~repro.serving.server.ServerConfig` and
    tests all construct the same way.

    Parameters
    ----------
    path:
        The packed store file (monolithic or tiled).
    mutable:
        Wrap the store in a :class:`~repro.core.dynamic.
        DynamicSEOracle` overlay; requires ``engine``.  Mutable
        terrains are implicitly pinned.  Tiled stores cannot be
        mutable (each tile's tables are immutable shards).
    engine:
        The workload the store was packed for — the surface update
        SSADs run on.  Mutable registrations only.
    track_generation:
        Follow the store file across atomic repacks: accesses
        re-check the file signature and re-mmap new generations
        (the reader half of the multi-worker story).
    pin:
        Exclude the terrain from LRU eviction once resident.
    rebuild_factor:
        Overlay rebuild threshold (mutable only), as in
        :meth:`~repro.core.dynamic.DynamicSEOracle.from_store`.
    max_resident_tiles:
        Tiled stores: bound on concurrently resident tile tables
        (``None``: all tiles may stay resident).
    max_resident_bytes:
        Monolithic stores packed in key order: serve through a
        :class:`~repro.core.paged.PagedOracle` whose sorted pair run
        pages through a pool capped at this many bytes (``None``:
        unbounded whole-section mmaps).  Queries are bit-identical at
        any bound; the paging ledger surfaces in :meth:`OracleService.
        stats` / :meth:`OracleService.describe`.  :meth:`OracleService.
        register` refuses a store that cannot be paged
        (:func:`~repro.core.paged.check_pageable`).
    """

    path: str
    mutable: bool = False
    engine: Optional[GeodesicEngine] = None
    track_generation: bool = False
    pin: bool = False
    rebuild_factor: float = 0.25
    max_resident_tiles: Optional[int] = None
    max_resident_bytes: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "path", os.fspath(self.path))
        if self.mutable and self.engine is None:
            raise ValueError(
                "TerrainSpec(mutable=True) requires engine= — updates "
                "need a terrain workload to run SSADs on")
        if self.mutable and self.track_generation:
            raise ValueError(
                "mutable terrains are the writer side; "
                "track_generation is for reader registrations")
        if self.mutable and self.max_resident_bytes is not None:
            raise ValueError(
                "mutable terrains serve through an in-memory overlay; "
                "max_resident_bytes applies to static registrations")
        if (self.max_resident_bytes is not None
                and self.max_resident_tiles is not None):
            raise ValueError(
                "max_resident_tiles pages tiled stores, "
                "max_resident_bytes pages monolithic ones — a store "
                "is one or the other")


@dataclass
class TerrainCounters:
    """Per-terrain serving statistics."""

    queries: int = 0          # individual distances answered
    batches: int = 0          # query_batch / proximity dispatches
    hits: int = 0             # dispatches served by resident tables
    loads: int = 0            # store opens (cold + post-eviction)
    evictions: int = 0        # open stores dropped (and closed)
    refreshes: int = 0        # generation re-mmaps (tracked terrains)
    updates: int = 0          # POI inserts + deletes (mutable only)
    flushes: int = 0          # rebuild + repack cycles (mutable only)
    server_batches: int = 0   # coalesced dispatches (network server)
    server_batched_queries: int = 0  # point queries they carried
    load_seconds: float = 0.0
    query_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        mean_query = (self.query_seconds / self.batches
                      if self.batches else 0.0)
        mean_batch = (self.server_batched_queries / self.server_batches
                      if self.server_batches else 0.0)
        # Fraction of coalesced point queries that rode along in an
        # already-dispatched batch instead of paying their own probe.
        coalesce = (1.0 - self.server_batches / self.server_batched_queries
                    if self.server_batched_queries else 0.0)
        return {
            "queries": self.queries,
            "batches": self.batches,
            "hits": self.hits,
            "loads": self.loads,
            "evictions": self.evictions,
            "refreshes": self.refreshes,
            "updates": self.updates,
            "flushes": self.flushes,
            "server_batches": self.server_batches,
            "server_batched_queries": self.server_batched_queries,
            "mean_server_batch": mean_batch,
            "coalesce_ratio": coalesce,
            "load_seconds": self.load_seconds,
            "query_seconds": self.query_seconds,
            "mean_batch_seconds": mean_query,
        }


@dataclass
class _Registration:
    path: str
    meta: Dict[str, Any]
    counters: TerrainCounters = field(default_factory=TerrainCounters)
    #: re-open the store when its on-disk generation changes (used by
    #: reader workers following a writer's atomic repacks)
    track_generation: bool = False
    #: never evict this terrain once resident
    pin: bool = False
    #: tiled stores: residency bound passed through to the tile LRU
    max_resident_tiles: Optional[int] = None
    #: monolithic stores: page-pool byte budget for the paged backend
    max_resident_bytes: Optional[int] = None

    @property
    def mutable(self) -> bool:
        return False


@dataclass
class MutableRegistration(_Registration):
    """A mutable terrain: mmap'd store base + copy-on-write overlay.

    The overlay (a :class:`~repro.core.dynamic.DynamicSEOracle` built
    via :meth:`~repro.core.dynamic.DynamicSEOracle.from_store`) serves
    every query; its base tables are the store's read-only maps, so
    the store file keeps being shared across processes while updates
    accrue only private delta state.  ``dirty`` tracks divergence
    between the in-memory overlay and the on-disk store — ``flush``
    clears it by rebuilding and repacking.
    """

    overlay: Optional[DynamicSEOracle] = None
    dirty: bool = False
    #: a background flush is in flight: updates and further flushes
    #: must wait for it (queries keep flowing while it builds)
    flushing: bool = False

    @property
    def mutable(self) -> bool:
        return True


def _locked(method):
    """Serialise a public entry point on the service's re-entrant lock.

    The service is shared between transports (the asyncio server's
    loop thread, the CLI REPL, test harnesses) and its registry /
    LRU / counters are plain Python structures — one coarse lock keeps
    every interleaving equivalent to *some* serial order, which is the
    contract the concurrency tests pin down.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


class OracleService:
    """Batched query dispatch across many registered terrain oracles.

    Parameters
    ----------
    max_resident:
        Upper bound on simultaneously resident (opened) terrains.
        Must be >= 1; the least recently *used* unpinned terrain is
        evicted first.

    :meth:`close` (or leaving a ``with`` block) closes every open
    store.

    Example
    -------
    >>> service = OracleService(max_resident=2)
    >>> service.register("alps", TerrainSpec("alps.store"))  # doctest: +SKIP
    >>> service.query_batch("alps", [0, 3], [7, 9])  # doctest: +SKIP
    """

    def __init__(self, max_resident: int = 4):
        if max_resident < 1:
            raise ValueError("max_resident must be at least 1")
        self.max_resident = max_resident
        self._registry: Dict[str, _Registration] = {}
        self._resident = Residency(
            max_resident,
            pinned=lambda terrain_id: self._registry[terrain_id].pin,
            counts=lambda terrain_id: self._registry[terrain_id].counters)
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    @_locked
    def register(self, terrain_id: str, spec: TerrainSpec
                 ) -> Dict[str, Any]:
        """Register a terrain from a :class:`TerrainSpec`; returns its
        store meta.

        Only the store's metadata member is read for static terrains —
        the tables become resident lazily, on first query (mutable
        specs map their base immediately; that *is* the overlay's
        base).  Re-registering an id replaces the spec and drops any
        resident tables for it; a mutable registration with unflushed
        updates refuses to be replaced (flush or unregister it first).

        ``TerrainSpec.track_generation`` makes the registration follow
        the file across atomic repacks: every access re-checks the
        store's :func:`~repro.core.store.file_signature` and re-opens
        when a writer has published a new generation (counted as a
        ``refresh``).  This is the reader half of the multi-worker
        single-writer story.
        """
        if not isinstance(spec, TerrainSpec):
            raise TypeError(
                f"register takes a TerrainSpec, not {type(spec).__name__}"
                "; wrap the path: TerrainSpec(path, ...)")
        previous = self._registry.get(terrain_id)
        if previous is not None and previous.mutable and previous.dirty:
            # Re-registration must not silently drop unflushed updates.
            raise ValueError(
                f"terrain {terrain_id!r} has unflushed updates; "
                "flush or unregister it before re-registering")
        if spec.mutable:
            return self._register_overlay(terrain_id, spec)
        meta = read_store_meta(spec.path)
        if spec.max_resident_bytes is not None:
            check_pageable(meta, spec.path)
        self._install(terrain_id, _Registration(
            path=spec.path, meta=meta,
            track_generation=spec.track_generation, pin=spec.pin,
            max_resident_tiles=spec.max_resident_tiles,
            max_resident_bytes=spec.max_resident_bytes))
        return meta

    def _register_overlay(self, terrain_id: str,
                          spec: TerrainSpec) -> Dict[str, Any]:
        """The mutable half of :meth:`register`.

        ``spec.engine`` is the workload the store was packed for
        (checked via the fingerprint) — it is what gives update
        operations a surface to run SSADs on, which a bare store
        cannot provide.  The store's sections are mapped read-only
        immediately and become the overlay's base tables; the terrain
        is pinned (it never participates in the LRU — evicting it
        would discard unflushed updates).
        """
        meta = read_store_meta(spec.path)
        if "tiles" in meta:
            raise ValueError(
                f"{spec.path}: tiled stores cannot be registered "
                "mutable — tile shards are immutable; rebuild with "
                "--tiles after editing the POI set")
        # The overlay keeps its own references to the mapped tables;
        # the store handle itself is closed here.
        with open_oracle(spec.path, engine=spec.engine) as stored:
            overlay = DynamicSEOracle.from_store(
                stored, spec.engine, rebuild_factor=spec.rebuild_factor)
        ensure_index(overlay)
        registration = MutableRegistration(
            path=spec.path, meta=meta, overlay=overlay, pin=True)
        self._install(terrain_id, registration)
        return registration.meta

    def _install(self, terrain_id: str,
                 registration: _Registration) -> None:
        """Replace ``terrain_id``'s registration, carrying its counters
        over.  A resident store of the old registration is dropped
        (closed, and counted as an eviction) first."""
        self._resident.drop(terrain_id)
        previous = self._registry.get(terrain_id)
        if previous is not None:
            registration.counters = previous.counters
        self._registry[terrain_id] = registration

    @_locked
    def unregister(self, terrain_id: str) -> None:
        """Drop a registration (unflushed overlay updates are lost)
        and close its open store."""
        self._registration(terrain_id)
        self._resident.drop(terrain_id)
        del self._registry[terrain_id]

    @_locked
    def close(self) -> None:
        """Drop and close every open store (each counted as an
        eviction).  Idempotent; registrations stay, so a later query
        re-opens its store lazily."""
        self._resident.clear()

    def __enter__(self) -> "OracleService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @_locked
    def terrains(self) -> List[str]:
        """Registered terrain ids, registration order."""
        return list(self._registry)

    @_locked
    def describe(self, terrain_id: str) -> Dict[str, Any]:
        """Store metadata of one terrain (no arrays touched)."""
        registration = self._registration(terrain_id)
        meta = dict(registration.meta)
        meta["path"] = registration.path
        meta["mutable"] = registration.mutable
        if registration.mutable:
            meta["resident"] = True  # pinned: the overlay holds the maps
            meta["overlay_size"] = registration.overlay.overlay_size
            meta["num_pois"] = registration.overlay.num_pois
            meta["dirty"] = registration.dirty
        else:
            meta["resident"] = terrain_id in self._resident
            ledger = self._paging_ledger(terrain_id)
            if "tiles" in ledger:
                meta["tile_paging"] = ledger.pop("tiles")
            meta.update(ledger)
        return meta

    def _paging_ledger(self, terrain_id: str) -> Dict[str, Any]:
        """The open store's own paging ledger, keyed as :meth:`stats`
        reports it: ``tiles`` for a tiled store's tile residency,
        ``paging`` for a paged store's page pool, nothing otherwise."""
        stored = self._resident.peek(terrain_id)
        if isinstance(stored, TiledOracle):
            return {"tiles": stored.tile_counters()}
        if isinstance(stored, PagedOracle):
            return {"paging": stored.page_counters()}
        return {}

    def _registration(self, terrain_id: str) -> _Registration:
        try:
            return self._registry[terrain_id]
        except KeyError:
            raise KeyError(
                f"unknown terrain id {terrain_id!r}; registered: "
                f"{sorted(self._registry)}"
            ) from None

    # ------------------------------------------------------------------
    # residency
    # ------------------------------------------------------------------
    @_locked
    def oracle(self, terrain_id: str) -> StoreHandle:
        """The terrain's open store (a ``StoredOracle``, ``PagedOracle``
        or ``TiledOracle``), opening it (and possibly evicting another
        terrain) as needed.  Mutable terrains serve through their
        overlay instead — see :meth:`_index`."""
        registration = self._registration(terrain_id)
        if registration.mutable:
            raise ValueError(
                f"terrain {terrain_id!r} is mutable; it serves through "
                "its overlay, not a bare StoredOracle"
            )
        if registration.track_generation:
            current = self._resident.peek(terrain_id)
            if current is not None and current.is_stale():
                # A writer published a new store generation (atomic
                # rename): close the old one and fall through to a
                # fresh open.  No query is in flight on it — every
                # query holds the service lock.
                self._resident.drop(terrain_id)
                registration.counters.refreshes += 1
        stored = self._resident.get(terrain_id)
        if stored is None:
            stored = open_oracle(
                registration.path,
                max_resident_tiles=registration.max_resident_tiles,
                max_resident_bytes=registration.max_resident_bytes)
            registration.meta = stored.meta
            registration.counters.load_seconds += stored.load_seconds
            self._resident.admit(terrain_id, stored)
        return stored

    @_locked
    def resident_terrains(self) -> List[str]:
        """Terrain ids currently resident, least recently used first.

        Mutable terrains are pinned outside the LRU and not listed.
        """
        return self._resident.keys()

    @_locked
    def evict(self, terrain_id: str) -> bool:
        """Drop and close a terrain's open store; True if it was open.

        Mutable terrains cannot be evicted (their overlay would lose
        unflushed updates) and pinned terrains refuse too; evicting
        either returns False.
        """
        if self._registration(terrain_id).pin:
            return False
        return self._resident.drop(terrain_id)

    # ------------------------------------------------------------------
    # protocol routing
    # ------------------------------------------------------------------
    def _index(self, terrain_id: str) -> DistanceIndex:
        """The terrain's :class:`DistanceIndex` — the one routing
        point.  Static terrains serve their (possibly freshly loaded)
        stored oracle, mutable terrains their overlay; consumers never
        branch on the family again — the proximity functions derive
        the candidate universe from the index itself."""
        registration = self._registration(terrain_id)
        if registration.mutable:
            return registration.overlay
        return self.oracle(terrain_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, terrain_id: str, source: int, target: int) -> float:
        """One ε-approximate distance on one terrain."""
        return float(self.query_batch(terrain_id, [source], [target])[0])

    @_locked
    def query_batch(self, terrain_id: str, sources: Sequence[int],
                    targets: Sequence[int]) -> np.ndarray:
        """Aligned batched distances on one terrain (float64 array)."""
        index = self._index(terrain_id)
        counters = self._registry[terrain_id].counters
        started = time.perf_counter()
        result = index.query_batch(sources, targets)
        counters.query_seconds += time.perf_counter() - started
        counters.batches += 1
        counters.queries += int(result.shape[0])
        return result

    @_locked
    def query_matrix(self, terrain_id: str,
                     pois: Optional[Sequence[int]] = None) -> np.ndarray:
        """All-pairs matrix on one terrain (default: every POI; on a
        mutable terrain the default id set is the live ids)."""
        index = self._index(terrain_id)
        counters = self._registry[terrain_id].counters
        started = time.perf_counter()
        result = index.query_matrix(pois)
        counters.query_seconds += time.perf_counter() - started
        counters.batches += 1
        counters.queries += int(result.size)
        return result

    # ------------------------------------------------------------------
    # proximity queries
    # ------------------------------------------------------------------
    @_locked
    def k_nearest(self, terrain_id: str, source: int, k: int
                  ) -> List[Tuple[int, float]]:
        """kNN by geodesic distance on one terrain."""
        index = self._index(terrain_id)
        return self._timed_proximity(
            terrain_id, index.num_pois - 1,
            lambda: k_nearest_neighbors(index, source, k))

    @_locked
    def range_query(self, terrain_id: str, source: int, radius: float
                    ) -> List[Tuple[int, float]]:
        """All POIs within a geodesic radius on one terrain."""
        index = self._index(terrain_id)
        return self._timed_proximity(
            terrain_id, index.num_pois - 1,
            lambda: range_query(index, source, radius))

    @_locked
    def reverse_nearest(self, terrain_id: str, source: int) -> List[int]:
        """Monochromatic RNN on one terrain: the n−1 pairs ``(q,
        source)`` against each POI's nearest distance, packed in a
        static store; the n×n matrix on a mutable overlay.  A store
        packed without the column derives it on the first RNN after
        each open, and that RNN counts the n×n distances it asks for."""
        index = self._index(terrain_id)
        count = index.num_pois
        probes = (count - 1 + index.nearest_probes()
                  if hasattr(index, "nearest_column") else count * count)
        return self._timed_proximity(
            terrain_id, probes,
            lambda: reverse_nearest_neighbors(index, source))

    def _timed_proximity(self, terrain_id: str, probes: int, run):
        """Run one proximity op, counting the ``probes`` distances it
        requests from the index."""
        counters = self._registry[terrain_id].counters
        started = time.perf_counter()
        result = run()
        counters.query_seconds += time.perf_counter() - started
        counters.batches += 1
        counters.queries += probes
        return result

    # ------------------------------------------------------------------
    # updates (mutable terrains)
    # ------------------------------------------------------------------
    def _mutable(self, terrain_id: str) -> MutableRegistration:
        registration = self._registration(terrain_id)
        if not registration.mutable:
            raise ValueError(
                f"terrain {terrain_id!r} is not mutable; register it "
                "with TerrainSpec(path, mutable=True, engine=...) to "
                "accept updates"
            )
        return registration

    @_locked
    def insert_poi(self, terrain_id: str, x: float, y: float) -> int:
        """Insert the surface POI above planar ``(x, y)``; returns its
        stable external id.  The insert lands in the terrain's overlay
        — the on-disk store is untouched until :meth:`flush`."""
        registration = self._mutable(terrain_id)
        self._refuse_mid_flush(terrain_id, registration, "insert_poi")
        new_id = registration.overlay.insert(x, y)
        registration.counters.updates += 1
        registration.dirty = True
        return new_id

    @_locked
    def delete_poi(self, terrain_id: str, poi_id: int) -> None:
        """Tombstone a POI; subsequent queries on it raise
        ``KeyError``.  On-disk state is untouched until
        :meth:`flush`."""
        registration = self._mutable(terrain_id)
        self._refuse_mid_flush(terrain_id, registration, "delete_poi")
        registration.overlay.delete(poi_id)
        registration.counters.updates += 1
        registration.dirty = True

    @_locked
    def flush(self, terrain_id: str) -> Dict[str, Any]:
        """Persist a mutable terrain: rebuild + repack + re-adopt.

        Rebuilds the base oracle over the active POI set (compacting
        tombstones and folding the overlay in), repacks the store file
        *atomically* (temp file + rename, so concurrent readers of the
        old maps stay valid), re-opens it and re-adopts the fresh
        read-only maps as the overlay's base.  No-op when the overlay
        matches the on-disk store already.  Returns the (possibly
        refreshed) store meta.

        The rebuild replays the overlay's cross-rebuild SSAD memo, so
        only churn-damaged rows recompute; it is bit-identical to the
        from-scratch reference,
        :meth:`~repro.core.dynamic.DynamicSEOracle.force_rebuild`.  For
        a flush that builds without the service lock, see
        :meth:`flush_background`.
        """
        registration = self._mutable(terrain_id)
        self._refuse_mid_flush(terrain_id, registration, "flush")
        overlay = registration.overlay
        if not registration.dirty:
            return registration.meta
        if overlay.has_pending_updates:
            overlay.flush()
        return self._publish_flush(registration)

    def _publish_flush(self, registration: MutableRegistration
                       ) -> Dict[str, Any]:
        """Pack + atomic-replace + re-adopt one flushed generation.

        The pack is canonical (wall-clock meta pinned), so a flushed
        store equals a from-scratch rebuild's pack byte for byte.  It
        publishes atomically; a failed pack leaves the store as it
        was, the registration dirty and the (already rebuilt) overlay
        serving.
        """
        overlay = registration.overlay
        pack_oracle(overlay.oracle, registration.path, canonical=True)
        with open_oracle(registration.path,
                         engine=overlay.engine) as stored:
            overlay.adopt_store(stored)
        registration.meta = stored.meta
        registration.counters.flushes += 1
        registration.dirty = False
        return registration.meta

    def flush_background(self, terrain_id: str) -> threading.Thread:
        """:meth:`flush` on a worker thread, building off the lock;
        returns the thread.

        The worker takes the service lock to run :meth:`~repro.core.
        dynamic.DynamicSEOracle.prepare_flush`, releases it for the
        build, and takes it again to install the fresh base and
        publish one generation (atomic repack + re-adopt), exactly as
        a synchronous flush would.  Readers keep answering from the
        pre-flush generation for the whole build.  Updates and other
        flushes on the terrain are refused while the flush is in
        flight; join the returned thread to wait for completion.
        Errors are recorded on the thread's ``flush_outcome`` dict
        under ``"error"``.
        """
        with self._lock:
            registration = self._mutable(terrain_id)
            self._refuse_mid_flush(terrain_id, registration,
                                   "flush_background")
            registration.flushing = True
        overlay = registration.overlay
        outcome: Dict[str, Any] = {}

        def runner() -> None:
            try:
                with self._lock:
                    build = (overlay.prepare_flush()
                             if registration.dirty
                             and overlay.has_pending_updates else None)
                fresh = None if build is None else build()
                with self._lock:
                    if fresh is not None:
                        overlay.install_flush(fresh)
                    if registration.dirty:
                        outcome["meta"] = self._publish_flush(
                            registration)
            except BaseException as error:
                outcome["error"] = error
            finally:
                with self._lock:
                    registration.flushing = False

        thread = threading.Thread(
            target=runner, name=f"flush-{terrain_id}", daemon=True)
        thread.flush_outcome = outcome  # type: ignore[attr-defined]
        thread.start()
        return thread

    def _refuse_mid_flush(self, terrain_id: str,
                          registration: MutableRegistration,
                          operation: str) -> None:
        if registration.flushing:
            raise RuntimeError(
                f"terrain {terrain_id!r} has a background flush in "
                f"flight; {operation} must wait for it to finish")

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @_locked
    def counters(self, terrain_id: str) -> TerrainCounters:
        return self._registration(terrain_id).counters

    @_locked
    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-terrain serving statistics, keyed by terrain id."""
        report = {}
        for terrain_id, registration in self._registry.items():
            entry = registration.counters.as_dict()
            entry["path"] = registration.path
            entry["mutable"] = registration.mutable
            entry["num_pois"] = None
            if registration.mutable:
                entry["resident"] = True  # pinned
                entry["num_pois"] = registration.overlay.num_pois
                entry["overlay_size"] = registration.overlay.overlay_size
                entry["dirty"] = registration.dirty
            else:
                stored = self._resident.peek(terrain_id)
                entry["resident"] = stored is not None
                if stored is not None:
                    entry["num_pois"] = stored.num_pois
                    entry.update(self._paging_ledger(terrain_id))
            report[terrain_id] = entry
        return report
