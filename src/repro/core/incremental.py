"""Cross-rebuild SSAD memoisation — the sublinear incremental flush.

``DynamicSEOracle.flush`` used to be a synonym for ``force_rebuild``:
every flush reconstructed the whole oracle, making maintenance cost
proportional to the terrain instead of to the damage (the Berkholz et
al. update-time/query-time trade-off this repo keeps citing).  This
module makes the rebuild a *deterministic replay*: an incremental
flush runs the exact construction pipeline a fresh build would run —
same partition tree, same enhanced edges, same node pairs, same hash
seeds — but substitutes memoised SSAD rows wherever the cached row is
provably bit-equal to what a fresh computation would return.  The
output tables are therefore bit-identical to ``force_rebuild`` *by
construction* (the fuzz wall in ``tests/test_incremental_flush.py``
checks it array-for-array), while the dominant cost — the SSAD bulk,
around 80% of build time — shrinks to the rows the churn actually
damaged.

Why a memoised row is safe to splice
------------------------------------
POI sites are *metrically inert*:
:meth:`~repro.geodesic.graph.GeodesicGraph.attach_site` connects a
site only to its face's boundary clique (plus same-face sites), and
every boundary pair already has a direct edge no longer than any
two-hop path through the site — so adding or removing sites never
changes the shortest-path distance between surviving graph nodes.  A
row computed from source ``c`` on the previous build's engine stays
exact, entry for entry, on the rebuilt engine — *unless* the churn put
a new POI inside the row's search radius, in which case the fresh row
would contain an entry the memo cannot supply.  Invalidation is
exactly that test, run against the overlay's delta rows (distances
from each inserted POI to every previous base POI, already computed
for queries) with a small conservative relative slack; rows computed
in cover-all mode (no radius bound) are invalidated by *any* insert.

Rows are :class:`~repro.geodesic.engine.PoiRow` arrays keyed in
**external-id** space — the stable identity that survives rebuild
renumbering.  Capture maps a row's dense POI ids to external ids with
one gather; reuse maps them back to the new build's dense ids with
another, and entries whose target was deleted drop out there.  Every
rebuild (memoised or not) recaptures the memo wholesale, so the memo
always describes exactly one generation.  A build asks for one row per
centre per stage (the partition tree's and the enhanced-edge sweep's,
each at the centre's first layer), so a generation holds at most two
rows per POI, and a replayed row serves every layer of its centre.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geodesic.engine import PoiRow
from .parallel import BuildExecutor

__all__ = ["FlushMemo", "MemoExecutor"]

#: Conservative relative slack on the insert-inside-radius test: a row
#: is only reused when every inserted POI is *clearly* outside its
#: search radius, so float noise near the boundary always recomputes.
_SLACK = 1e-9

#: One memo key: ``(source external id, radius bound)`` with ``None``
#: meaning cover-all mode.  The bound is the exact float the build
#: passes to the engine, so a changed root radius misses cleanly.
_RowKey = Tuple[int, Optional[float]]


class FlushMemo:
    """One generation of SSAD rows, keyed by stable external ids.

    Owned by a :class:`~repro.core.dynamic.DynamicSEOracle`;
    :meth:`begin` binds it to one rebuild (producing the
    :class:`MemoExecutor` the build pipeline runs through) and
    :meth:`commit` adopts that rebuild's captured rows as the next
    generation.
    """

    def __init__(self):
        #: (source ext, bound) -> row over target external ids
        self.rows: Dict[_RowKey, PoiRow] = {}
        #: external ids that were base POIs when ``rows`` was captured
        self.members: frozenset = frozenset()

    def begin(self, active_ids: Sequence[int],
              blocked_radius: Optional[Dict[int, float]] = None,
              allow_reuse: bool = True) -> "MemoExecutor":
        """Bind the memo's current generation to one rebuild over
        ``active_ids``.

        ``blocked_radius`` maps a previous-generation member external
        id to the distance of its nearest *inserted* POI — the
        invalidation data; omit it (or pass ``allow_reuse=False``) to
        disable reuse while still capturing the build's rows.
        """
        return MemoExecutor(self.rows, self.members, list(active_ids),
                            blocked_radius or {}, allow_reuse)

    def commit(self, executor: "MemoExecutor") -> None:
        """Adopt one finished rebuild's rows as the new generation."""
        self.rows = executor.captured_rows
        self.members = frozenset(executor.active_ids)


class MemoExecutor(BuildExecutor):
    """A :class:`BuildExecutor` wrapper that replays memoised rows.

    Wraps the rebuild's real executor (bound by ``bind``): every SSAD
    task first consults the memo generation it was begun with — a
    valid hit is re-slotted from external ids into the new build's
    dense ids and returned without touching the engine — and misses
    are computed through the inner executor, then captured in
    external-id space for the *next* generation.  It reads no shared
    state after construction, so a build can run off the owner's
    lock.  ``name``/``jobs`` mirror the inner executor so build stats
    and store metadata stay byte-comparable between memoised and
    from-scratch builds.
    """

    def __init__(self, rows: Dict[_RowKey, PoiRow], members: frozenset,
                 active_ids: List[int], blocked_radius: Dict[int, float],
                 allow_reuse: bool):
        self._rows = rows
        self.active_ids = active_ids
        self._ext_of = active_ids  # new slot -> ext
        self._ext_array = np.asarray(active_ids, dtype=np.int64)
        # ext -> new slot, -1 for ids outside the active set.
        span = max(max(active_ids, default=-1), max(members, default=-1))
        self._slot_of = np.full(span + 1, -1, dtype=np.int64)
        self._slot_of[self._ext_array] = np.arange(len(active_ids))
        self._blocked = blocked_radius
        self._inserted = [ext for ext in active_ids if ext not in members]
        self._allow_reuse = allow_reuse
        self._inner: Optional[BuildExecutor] = None
        self.captured_rows: Dict[_RowKey, PoiRow] = {}
        self.reused_rows = 0
        self.computed_rows = 0

    # ------------------------------------------------------------------
    # BuildExecutor surface
    # ------------------------------------------------------------------
    @property
    def jobs(self) -> int:  # type: ignore[override]
        return self._inner.jobs if self._inner is not None else 1

    @property
    def name(self) -> str:  # type: ignore[override]
        return self._inner.name if self._inner is not None else "serial"

    def attach(self, inner: BuildExecutor) -> "MemoExecutor":
        self._inner = inner
        return self

    def bind(self, engine) -> None:
        if self._inner is None:
            raise RuntimeError("memo executor has no inner executor")
        self._inner.bind(engine)

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()

    # ------------------------------------------------------------------
    # the memoised maps
    # ------------------------------------------------------------------
    def ssad(self, center: int, radius: Optional[float] = None) -> PoiRow:
        """Point-wise memoised SSAD (the partition-tree build hook)."""
        return self.map_ssad([(center, radius)])[0]

    def map_ssad(self, tasks) -> List[PoiRow]:
        results: List[Optional[PoiRow]] = [None] * len(tasks)
        misses: List[int] = []
        for position, (slot, radius) in enumerate(tasks):
            row = self._cached_row(int(slot), radius)
            if row is None:
                misses.append(position)
            else:
                results[position] = row
                self.reused_rows += 1
        if misses:
            fresh = self._inner.map_ssad(
                [tasks[position] for position in misses])
            if len(fresh) != len(misses):
                raise ValueError("executor returned a misaligned batch")
            for position, row in zip(misses, fresh):
                slot, radius = tasks[position]
                self._capture_row(int(slot), radius, row)
                results[position] = row
                self.computed_rows += 1
        return results  # type: ignore[return-value]

    def map_pair_distances(self, pairs) -> List[float]:
        """Forwarded to the inner executor (the efficient build asks
        for pair distances only on a Lemma 4 miss)."""
        return self._inner.map_pair_distances(pairs)

    def stats(self) -> Dict[str, int]:
        return {
            "reused_rows": self.reused_rows,
            "computed_rows": self.computed_rows,
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cached_row(self, slot: int, radius: Optional[float]) -> Optional[PoiRow]:
        """A valid memoised row, re-slotted — or ``None`` to compute.

        Validity: cover-all rows (``radius=None``) die with any
        insert; a bounded row dies when some inserted POI sits within
        ``radius * (1 + slack)`` of its source, because the fresh row
        would then contain that POI.  Deleted targets are dropped by
        the re-slot itself (their external ids have no new slot).
        """
        if not self._allow_reuse:
            return None
        ext = self._ext_of[slot]
        key = (ext, None if radius is None else float(radius))
        cached = self._rows.get(key)
        if cached is None:
            return None
        if self._inserted:
            if radius is None:
                return None
            nearest = self._blocked.get(ext, math.inf)
            if nearest <= float(radius) * (1.0 + _SLACK):
                return None
        slots = self._slot_of[cached.ids]
        kept = slots >= 0
        self.captured_rows[key] = PoiRow(cached.ids[kept], cached.dists[kept])
        return PoiRow(slots[kept], cached.dists[kept])

    def _capture_row(self, slot: int, radius: Optional[float], row: PoiRow) -> None:
        key = (self._ext_of[slot], None if radius is None else float(radius))
        self.captured_rows[key] = PoiRow(self._ext_array[row.ids], row.dists)
