"""Dynamic POI updates on top of SE — the paper's future-work direction.

The conclusion singles out "how to efficiently update the distance
oracle when there is an update on some POIs" as an open problem.  This
module implements the *overlay + periodic rebuild* design, in the
incremental-maintenance spirit of the updates-under-queries literature
(Berkholz et al., FO+MOD queries under updates): keep a small delta
structure current instead of rebuilding, while queries stay on the
fast compiled tables.

* **base**: a built SE oracle frozen into a
  :class:`~repro.core.compiled.CompiledOracle` — possibly the
  memory-mapped tables of a binary store (:meth:`DynamicSEOracle.
  from_store`), which stay read-only and shared across processes;
* **insert**: the new POI joins a small overlay set.  Its *delta row*
  — exact engine-metric distances to every base POI, plus cache
  entries against the other overlay POIs — is computed by **one**
  whole-row SSAD on first touch (over the graph with its overlay) and
  memoised, so an insert itself is O(1) graph surgery and queries
  never trigger a full recompile;
* **delete**: the POI is tombstoned in an alive mask; querying it
  raises ``KeyError``;
* once the overlay + tombstones exceed ``rebuild_factor`` times the
  active POI count, the SE oracle is rebuilt from scratch over the
  active set — amortising the rebuild cost over many updates.

Batched queries (:meth:`DynamicSEOracle.query_batch`) are the reason
for the delta design: rows whose endpoints both live in the base
resolve through ``CompiledOracle.query_batch`` (vectorized, bit-equal
to the scalar tree walk by the compiled oracle's contract); only rows
touching the overlay go through the delta rows / SSAD kernel — and
those answers are shared with the scalar path, so batch and scalar
stay bit-identical whatever the overlay and tombstone state.

External POI ids are stable across rebuilds.
"""

from __future__ import annotations

import math
import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..geodesic.engine import GeodesicEngine
from ..terrain.mesh import TriangleMesh
from ..terrain.poi import POI, POISet
from .incremental import FlushAborted, FlushMemo, SliceGate
from .index import aligned_id_arrays
from .oracle import SEOracle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compiled import CompiledOracle
    from .store import StoredOracle

__all__ = ["DynamicSEOracle"]


class DynamicSEOracle:
    """SE oracle with insert/delete support via a compiled-aware overlay.

    Satisfies the :class:`~repro.core.index.DistanceIndex` protocol
    with ``supports_updates = True``: queries address POIs by *stable
    external id* (dense ``0..n-1`` at construction; inserts append new
    ids, deletes tombstone old ones, so the live id set may be sparse).

    Parameters
    ----------
    mesh:
        Terrain surface.
    pois:
        Initial POI set.
    epsilon:
        Error parameter of the underlying SE oracle.
    rebuild_factor:
        Rebuild once ``overlay + tombstones > factor * active``.
    points_per_edge:
        Steiner density of the metric graph.
    jobs:
        Build-fan-out worker processes for the underlying SE oracle
        (applies to the initial build *and* every amortised rebuild);
        see :class:`~repro.core.oracle.SEOracle`.
    """

    def __init__(
        self,
        mesh: TriangleMesh,
        pois: POISet,
        epsilon: float,
        rebuild_factor: float = 0.25,
        points_per_edge: int = 1,
        seed: int = 0,
        jobs: int = 1,
    ):
        if rebuild_factor <= 0:
            raise ValueError("rebuild_factor must be positive")
        self._mesh = mesh
        self.epsilon = epsilon
        self.rebuild_factor = rebuild_factor
        self._points_per_edge = points_per_edge
        self._seed = seed
        self.jobs = jobs
        self.rebuild_count = 0

        # External id -> current POI record; stable across rebuilds.
        self._records: Dict[int, POI] = {
            index: poi for index, poi in enumerate(pois)
        }
        self._next_id = len(self._records)
        self._deleted: set = set()
        self._overlay: set = set()
        # Site key -> external id of every live POI.  The rebuild's
        # POISet merges co-located POIs, so an insert on top of a live
        # POI is refused instead of colliding in the next flush.
        self._sites: Dict[Tuple[float, ...], int] = {
            poi.site_key: index for index, poi in self._records.items()
        }

        self._engine: Optional[GeodesicEngine] = None
        self._oracle: Optional[SEOracle] = None
        self._compiled: Optional["CompiledOracle"] = None
        self._base_index: Dict[int, int] = {}
        self._overlay_nodes: Dict[int, int] = {}
        # The delta structure: a tombstone/alive mask and a base-slot
        # map over external ids, one dense distance row per overlay POI
        # (lazily computed, exact on the engine metric), and a pair
        # cache for overlay-overlay distances.  Scalar and batched
        # queries both read these tables, which is what keeps them
        # bit-identical.
        self._alive = np.zeros(0, dtype=bool)
        self._base_slot = np.zeros(0, dtype=np.int64)
        self._delta_rows: Dict[int, np.ndarray] = {}
        self._overlay_cache: Dict[Tuple[int, int], float] = {}
        # Cross-rebuild SSAD memo (see :mod:`~repro.core.incremental`):
        # every rebuild recaptures it; an incremental flush replays it.
        self._memo = FlushMemo()
        #: row reuse/recompute counts of the most recent rebuild
        self.last_flush_stats: Dict[str, int] = {}
        self._built = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def build(self) -> "DynamicSEOracle":
        self._rebuild()
        self._built = True
        return self

    @classmethod
    def from_store(
        cls,
        stored: "StoredOracle",
        engine: GeodesicEngine,
        rebuild_factor: float = 0.25,
        jobs: int = 1,
        strict: bool = True,
    ) -> "DynamicSEOracle":
        """A dynamic oracle whose base is an opened binary store.

        The store's memory-mapped compiled tables become the base —
        they stay read-only and shared with every other consumer of the
        store — and the delta overlay grows on top (copy-on-write:
        updates only ever allocate delta state).  ``engine`` must be
        the workload the store was packed for (checked via the
        fingerprint unless ``strict=False``); its POI set seeds the
        external ids ``0..n-1``.

        No build happens here: the oracle is ready immediately, and the
        first amortised rebuild (or an explicit :meth:`force_rebuild`)
        replaces the mapped base with a freshly built one.
        """
        dynamic = cls(
            engine.mesh,
            engine.pois,
            stored.epsilon,
            rebuild_factor=rebuild_factor,
            points_per_edge=engine.graph.points_per_edge,
            seed=stored.seed,
            jobs=jobs,
        )
        dynamic._engine = engine
        dynamic._oracle = stored.to_oracle(engine, strict=strict)
        dynamic._compiled = stored.compiled
        dynamic._base_index = {i: i for i in range(engine.num_pois)}
        dynamic._reset_delta()
        dynamic._built = True
        return dynamic

    def _active_ids(self) -> List[int]:
        return [
            i for i in sorted(self._records) if i not in self._deleted
        ]

    def _insert_blocked_radius(self) -> Dict[int, float]:
        """Per base POI: distance of its nearest *inserted* (overlay)
        POI — the memo's row-invalidation data.

        Read straight off the overlay delta rows (one SSAD per
        inserted POI, usually already memoised by queries): a cached
        SSAD row of source ``c`` with bound ``r`` is only replayable
        when every inserted POI is farther than ``r`` from ``c``,
        since the fresh row would otherwise contain it.
        """
        nearest = np.minimum.reduce([
            self._ensure_delta_row(inserted)
            for inserted in sorted(self._overlay)
        ])
        externals = list(self._base_index)
        slots = list(self._base_index.values())
        return dict(zip(externals, nearest[slots].tolist()))

    def _build_fresh(self, reuse: bool, gate: Optional[SliceGate] = None
                     ) -> Tuple[List[int], GeodesicEngine, SEOracle, Any]:
        """Build a fresh base over the active set, without installing.

        The deterministic replay: construction runs the exact pipeline
        a from-scratch build would run, through the memo executor —
        with ``reuse`` the memo substitutes rows that are provably
        bit-equal to fresh ones, without it every row recomputes (and
        is captured all the same).  No ``self`` state is mutated, so a
        sliced background flush can interleave with readers and only
        :meth:`_install_fresh` needs the caller's lock.
        """
        active_ids = self._active_ids()
        if not active_ids:
            raise ValueError("cannot build over zero active POIs")
        blocked: Dict[int, float] = {}
        if reuse and self._overlay and self._memo.rows:
            blocked = self._insert_blocked_radius()
        cache = self._memo.begin(active_ids, blocked_radius=blocked,
                                 allow_reuse=reuse, gate=gate)
        base_pois = POISet([self._records[i] for i in active_ids])
        if len(base_pois) != len(active_ids):
            raise RuntimeError("active POIs collided after dedup")
        engine = GeodesicEngine(
            self._mesh, base_pois, points_per_edge=self._points_per_edge
        )
        oracle = SEOracle(
            engine, self.epsilon, seed=self._seed, jobs=self.jobs,
            ssad_cache=cache,
        ).build()
        return active_ids, engine, oracle, cache

    def _install_fresh(self, active_ids: List[int],
                       engine: GeodesicEngine, oracle: SEOracle,
                       cache: Any) -> None:
        """Adopt a freshly built base; the only state-mutating half."""
        if active_ids != self._active_ids():
            raise RuntimeError(
                "POI set changed while an incremental flush was in "
                "flight; rerun the flush"
            )
        self._engine = engine
        self._oracle = oracle
        self._compiled = None  # recompiled lazily, on the first batch
        self._base_index = {
            external: i for i, external in enumerate(active_ids)
        }
        self._overlay = set()
        self._overlay_nodes = {}
        # Tombstoned ids are physically gone now.
        for dead in self._deleted:
            self._records.pop(dead, None)
        self._deleted = set()
        self._reset_delta()
        self._memo.commit(cache)
        self.last_flush_stats = cache.stats()
        self.rebuild_count += 1

    def _rebuild(self, reuse: bool = False) -> None:
        self._install_fresh(*self._build_fresh(reuse))

    def _reset_delta(self) -> None:
        """Rebuild the alive mask / base-slot map; drop delta tables."""
        self._alive = np.zeros(self._next_id, dtype=bool)
        self._base_slot = np.full(self._next_id, -1, dtype=np.int64)
        for external in self._records:
            if external not in self._deleted:
                self._alive[external] = True
        for external, slot in self._base_index.items():
            self._base_slot[external] = slot
        self._delta_rows = {}
        self._overlay_cache = {}

    def force_rebuild(self) -> None:
        """Rebuild the base oracle from scratch — the reference path.

        Every SSAD recomputes on the fresh engine; the incremental
        :meth:`flush` must produce bit-identical tables to this, which
        is exactly what the rebuild-equivalence fuzz wall asserts.
        (The build still recaptures the memo, so a later incremental
        flush starts from this generation.)
        """
        self._require_built()
        self._rebuild(reuse=False)

    def flush(self, incremental: bool = True) -> Dict[str, int]:
        """Fold the overlay and tombstones into a fresh base.

        With ``incremental=True`` (default) the rebuild replays the
        cross-rebuild SSAD memo: only rows damaged by the churn — and
        the splice bookkeeping around them — are recomputed, making
        flush cost proportional to the damage rather than the terrain.
        The resulting tables are bit-identical to
        :meth:`force_rebuild` on the same live POI set.  With
        ``incremental=False`` this *is* a ``force_rebuild``.  Returns
        the reuse/recompute counters of the run.
        """
        self._require_built()
        self._rebuild(reuse=incremental)
        return dict(self.last_flush_stats)

    def flush_steps(self, incremental: bool = True,
                    slice_ssads: int = 8) -> Iterator[Dict[str, Any]]:
        """:meth:`flush`, delivered as bounded work slices.

        A generator: each ``next()`` performs at most ``slice_ssads``
        SSAD computations of the rebuild and then returns control, so
        a serving layer can interleave queries between slices (run
        each slice under its lock, answer readers between slices) and
        publish one generation at the end.  The final slice installs
        the fresh base — until then every query keeps answering from
        the pre-flush state.  The POI set must not change while the
        generator is being driven (the install re-checks and raises).

        The rebuild itself runs on a private worker thread that is
        parked at a gate between slices; abandoning the generator
        aborts the worker cleanly.
        """
        self._require_built()
        if slice_ssads < 1:
            raise ValueError("slice_ssads must be at least 1")
        gate = SliceGate(slice_ssads)
        outcome: Dict[str, Any] = {}

        def worker() -> None:
            try:
                gate.pause(0)  # wait for the first slice grant
                outcome["result"] = self._build_fresh(
                    reuse=incremental, gate=gate)
            except FlushAborted:
                pass
            except BaseException as error:  # propagated to the driver
                outcome["error"] = error
            finally:
                gate.finish()

        thread = threading.Thread(
            target=worker, name="se-flush-builder", daemon=True)
        thread.start()
        slice_number = 0
        try:
            while not gate.run_slice():
                if "error" in outcome:
                    break
                slice_number += 1
                yield {"slice": slice_number, "done": False}
            thread.join()
            if "error" in outcome:
                raise outcome["error"]
            self._install_fresh(*outcome["result"])
            yield {
                "slice": slice_number + 1,
                "done": True,
                **self.last_flush_stats,
            }
        finally:
            gate.abort()
            thread.join(timeout=60.0)

    def adopt_store(self, stored: "StoredOracle") -> None:
        """Swap the base tables for a freshly packed store's (mmap).

        Used after ``flush``: the rebuilt oracle was packed to disk and
        re-opened, and serving should run off the shared read-only maps
        rather than the private in-memory tables.  The store must have
        been packed from this oracle's current base, so answers are
        bit-identical by the store's round-trip contract — checked via
        the workload fingerprint *and* the build identity (epsilon /
        strategy / method / seed), since the fingerprint alone cannot
        tell apart two different oracles over the same workload.
        """
        self._require_built()
        if self.has_pending_updates:
            raise RuntimeError(
                "cannot adopt a store while updates are pending; "
                "call force_rebuild() first"
            )
        stored.check_fingerprint(self._engine)
        base = self._oracle
        mismatched = [
            name
            for name, ours, theirs in (
                ("epsilon", base.epsilon, stored.epsilon),
                ("strategy", base.strategy, stored.strategy),
                ("method", base.method, stored.method),
                ("seed", base.seed, stored.seed),
            )
            if ours != theirs
        ]
        if mismatched:
            raise ValueError(
                "store was packed from a different oracle over this "
                f"workload (mismatched: {', '.join(mismatched)})"
            )
        self._compiled = stored.compiled

    @property
    def num_active(self) -> int:
        return len(self._records) - len(self._deleted)

    @property
    def num_pois(self) -> int:
        """Live POI count (``DistanceIndex`` protocol).

        Note the live *ids* may be sparse after deletes; use
        :meth:`live_ids` to enumerate them.
        """
        return self.num_active

    @property
    def overlay_size(self) -> int:
        return len(self._overlay)

    @property
    def has_pending_updates(self) -> bool:
        """True when overlay inserts or tombstones await a rebuild."""
        return bool(self._overlay) or bool(self._deleted)

    @property
    def supports_updates(self) -> bool:
        return True

    @property
    def is_compiled(self) -> bool:
        """True once the base tables are compiled (first batch, or a
        store-backed base)."""
        return self._compiled is not None

    @property
    def oracle(self) -> SEOracle:
        if self._oracle is None:
            raise RuntimeError("oracle not built; call build() first")
        return self._oracle

    @property
    def engine(self) -> GeodesicEngine:
        if self._engine is None:
            raise RuntimeError("oracle not built; call build() first")
        return self._engine

    def live_ids(self) -> np.ndarray:
        """The live external ids, ascending (intp array)."""
        self._require_built()
        return np.flatnonzero(self._alive).astype(np.intp)

    def compiled_base(self) -> "CompiledOracle":
        """The base oracle's flat tables (compiled lazily, cached).

        Invalidated by every rebuild; a store-backed base keeps serving
        the memory-mapped tables instead of recompiling.
        """
        self._require_built()
        if self._compiled is None:
            self._compiled = self._oracle.compiled()
        return self._compiled

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, x: float, y: float) -> int:
        """Insert the surface POI above planar ``(x, y)``; returns its id.

        Raises ``ValueError`` when ``(x, y)`` is outside the terrain or
        is the site of a live POI.
        """
        self._require_built()
        face_id = self._mesh.locate_face(x, y)
        if face_id < 0:
            raise ValueError(f"({x}, {y}) is outside the terrain")
        point = self._mesh.project_onto_surface(x, y)
        external = self._next_id
        record = POI(
            index=external,
            position=tuple(float(c) for c in point),
            face_id=face_id,
        )
        if record.site_key in self._sites:
            raise ValueError(
                f"({x}, {y}) is the site of live POI "
                f"{self._sites[record.site_key]}"
            )
        self._next_id += 1
        self._records[external] = record
        self._sites[record.site_key] = external
        self._overlay.add(external)
        node = self._engine.graph.attach_site(record.position, face_id)
        self._overlay_nodes[external] = node
        self._grow_delta()
        self._alive[external] = True
        self._base_slot[external] = -1
        self._maybe_rebuild()
        return external

    def _grow_delta(self) -> None:
        """Capacity-doubling growth of the alive/base-slot arrays.

        Keeps an insert amortized O(1) bookkeeping instead of an O(n)
        reallocation per call; entries beyond ``_next_id`` stay
        ``False`` / ``-1`` and are unreachable (id validation bounds
        on ``_next_id``).
        """
        capacity = self._alive.shape[0]
        if self._next_id <= capacity:
            return
        grown = max(2 * capacity, self._next_id, 16)
        alive = np.zeros(grown, dtype=bool)
        alive[:capacity] = self._alive
        slots = np.full(grown, -1, dtype=np.int64)
        slots[:capacity] = self._base_slot
        self._alive = alive
        self._base_slot = slots

    def delete(self, poi_id: int) -> None:
        """Delete a POI; subsequent queries on it raise ``KeyError``."""
        self._require_built()
        if poi_id not in self._records or poi_id in self._deleted:
            raise KeyError(f"unknown POI id: {poi_id}")
        del self._sites[self._records[poi_id].site_key]
        self._deleted.add(poi_id)
        self._alive[poi_id] = False
        self._overlay.discard(poi_id)
        self._overlay_nodes.pop(poi_id, None)
        self._delta_rows.pop(poi_id, None)
        self._maybe_rebuild()

    def _maybe_rebuild(self) -> None:
        pending = len(self._overlay) + len(self._deleted)
        if pending > self.rebuild_factor * max(self.num_active, 1):
            # Amortised rebuilds ride the same incremental machinery as
            # an explicit flush: bit-identical to a from-scratch build,
            # but only churn-damaged SSAD rows recompute.
            self._rebuild(reuse=True)

    # ------------------------------------------------------------------
    # the delta tables
    # ------------------------------------------------------------------
    def _ensure_delta_row(self, poi_id: int) -> np.ndarray:
        """The overlay POI's exact distance row over base slots.

        Computed by one whole-row SSAD from the overlay node, gathered
        at every base POI node, then memoised.  Both the scalar and the
        batched query path read this same row, which is what makes
        them bit-identical — and since the search always runs *from*
        the overlay node, the value of a pair never depends on query
        history or argument order.
        """
        row = self._delta_rows.get(poi_id)
        if row is None:
            row = self._engine.poi_distances_from_node(
                self._overlay_nodes[poi_id])
            self._delta_rows[poi_id] = row
        return row

    def _overlay_pair_distance(self, poi_a: int, poi_b: int) -> float:
        """Exact distance for a pair with >= 1 overlay endpoint.

        Overlay-overlay pairs are canonical — always searched from the
        lower external id and memoised under the sorted key — so the
        stored float is a pure function of the pair, never of which
        query (or which batch grouping) happened to run first.
        """
        if poi_a in self._overlay and poi_b in self._overlay:
            key = (min(poi_a, poi_b), max(poi_a, poi_b))
            if key not in self._overlay_cache:
                target_node = self._overlay_nodes[key[1]]
                result = self._engine.distances_from_node(
                    self._overlay_nodes[key[0]], targets=[target_node]
                )
                self._overlay_cache[key] = result.distances.get(
                    target_node, math.inf
                )
            return self._overlay_cache[key]
        owner = poi_a if poi_a in self._overlay else poi_b
        other = poi_b if owner == poi_a else poi_a
        row = self._ensure_delta_row(owner)
        return float(row[self._base_slot[other]])

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _check_live(self, poi_id: int) -> None:
        if poi_id not in self._records or poi_id in self._deleted:
            raise KeyError(f"unknown or deleted POI id: {poi_id}")

    def query(self, poi_a: int, poi_b: int) -> float:
        """ε-approximate geodesic distance between two live POIs."""
        self._require_built()
        poi_a, poi_b = int(poi_a), int(poi_b)
        self._check_live(poi_a)
        self._check_live(poi_b)
        if poi_a == poi_b:
            return 0.0
        if poi_a not in self._overlay and poi_b not in self._overlay:
            return self._oracle.query(
                self._base_index[poi_a], self._base_index[poi_b]
            )
        # At least one endpoint is fresh: answer from the delta tables.
        return self._overlay_pair_distance(poi_a, poi_b)

    def query_batch(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> np.ndarray:
        """Batched :meth:`query` over aligned external-id arrays.

        Base-base rows resolve through the compiled base tables in one
        vectorized pass (bit-identical to the scalar tree walk by the
        compiled oracle's contract); rows touching the overlay resolve
        through the delta rows — the same memoised values the scalar
        path reads — so the whole result is bit-identical to a scalar
        loop, with no full recompile ever triggered by an update.
        """
        self._require_built()
        source_ids, target_ids = aligned_id_arrays(sources, targets)
        count = source_ids.shape[0]
        if count == 0:
            return np.empty(0, dtype=np.float64)
        for ids in (source_ids, target_ids):
            bad = (ids < 0) | (ids >= self._next_id)
            if bad.any() or not self._alive[ids].all():
                for poi_id in ids.tolist():
                    if (
                        poi_id < 0
                        or poi_id >= self._next_id
                        or not self._alive[poi_id]
                    ):
                        raise KeyError(
                            f"unknown or deleted POI id: {poi_id}"
                        )
        result = np.zeros(count, dtype=np.float64)
        slot_s = self._base_slot[source_ids]
        slot_t = self._base_slot[target_ids]
        same = source_ids == target_ids
        base = (slot_s >= 0) & (slot_t >= 0) & ~same
        if base.any():
            result[base] = self.compiled_base().query_batch(
                slot_s[base], slot_t[base]
            )
        overlay_rows = np.flatnonzero(~base & ~same)
        if overlay_rows.size:
            # Mixed rows (one overlay, one base endpoint) gather from
            # the owner's delta row — one vectorized pass per distinct
            # overlay POI, the same array the scalar path reads.
            src_is_overlay = slot_s[overlay_rows] < 0
            tgt_is_overlay = slot_t[overlay_rows] < 0
            both = src_is_overlay & tgt_is_overlay
            mixed = overlay_rows[~both]
            if mixed.size:
                owners = np.where(
                    src_is_overlay[~both],
                    source_ids[mixed],
                    target_ids[mixed],
                )
                other_slots = np.where(
                    src_is_overlay[~both], slot_t[mixed], slot_s[mixed]
                )
                for owner in np.unique(owners).tolist():
                    row = self._ensure_delta_row(int(owner))
                    chosen = owners == owner
                    result[mixed[chosen]] = row[other_slots[chosen]]
            # Overlay-overlay rows resolve through the pair cache.
            for position in overlay_rows[both].tolist():
                result[position] = self._overlay_pair_distance(
                    int(source_ids[position]), int(target_ids[position])
                )
        return result

    def query_matrix(
        self, pois: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """All-pairs matrix over external ids (default: the live ids).

        ``result[i, j]`` is the distance from ``ids[i]`` to ``ids[j]``
        where ``ids`` is the (possibly sparse) id list — callers index
        the matrix *positionally*, not by external id.
        """
        self._require_built()
        ids = (
            self.live_ids()
            if pois is None
            else np.asarray(pois, dtype=np.intp)
        )
        count = ids.shape[0]
        grid_s = np.repeat(ids, count)
        grid_t = np.tile(ids, count)
        return self.query_batch(grid_s, grid_t).reshape(count, count)

    def _node_of(self, poi_id: int) -> int:
        """Metric-graph node hosting a live external id (test hook)."""
        if poi_id in self._overlay:
            return self._overlay_nodes[poi_id]
        return self._engine.poi_node(int(self._base_slot[poi_id]))

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("oracle not built; call build() first")
