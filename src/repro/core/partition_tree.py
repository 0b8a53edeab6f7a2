"""The partition tree — SE oracle component 1 (Section 3.2).

A partition tree indexes the POI set ``P`` by a hierarchy of geodesic
disks: Layer ``i`` consists of nodes whose disks have radius
``r0 / 2**i`` and whose centres are at geodesic distance at least
``r0 / 2**i`` from each other (*Separation*), jointly covering all of
``P`` (*Covering*); every descendant's centre stays within twice a
node's radius (*Distance*).

The top-down construction builds the tree of the paper's Steps 1-2,
including the two point-selection strategies of Implementation
Detail 1 (*random* and *greedy*, the latter backed by the grid /
per-cell set / max-heap combination in
:class:`~repro.datastructures.grid_index.GridDensityIndex`, whose
heap tie order is part of every greedy tree) and the
two SSAD stopping rules of Implementation Detail 2 (provided by
:class:`~repro.geodesic.engine.GeodesicEngine`).  It departs from the
steps as written in one place, not in their output: Step 2(b)(ii)
runs an SSAD per node, but Step 2(b)(i) selects every previous-layer
centre again, so a POI that first heads a node at layer ``i`` heads
one at every deeper layer, and each of its deeper SSADs would be its
first row cut at a smaller radius.  The builder runs one SSAD per
centre — the root's cover-all row, any other centre's ``2 * r_i``
row at its first layer — and cuts that row with ``dists <= bound``
at every deeper layer.  Dijkstra settles a node at the same distance
under any larger limit, so the cut equals a fresh row bit for bit.
The root's row is also the enhanced-edge sweep's root row, so the
tree keeps it (``PartitionTree.root_row``) and no build runs it twice.

The tree is built as int64 columns, three ints appended per node
(centre, layer, parent) plus the first id of each layer: the layout
of the compressed tree's own columns
(:mod:`~repro.core.compressed_tree`), so compression and the
enhanced-edge sweep read arrays and no node objects exist.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Callable, Dict, List, Literal, Optional

import numpy as np

from ..datastructures.grid_index import GridDensityIndex
from ..geodesic.engine import GeodesicEngine, PoiRow

__all__ = ["PartitionTree", "build_partition_tree"]

SelectionStrategy = Literal["random", "greedy"]

#: SSAD hook: ``(center, radius) -> PoiRow``.  Defaults to the
#: engine's own :meth:`~repro.geodesic.engine.GeodesicEngine.
#: distances_from_poi`; the incremental flush substitutes a memoised
#: wrapper so unchanged rows are replayed instead of recomputed.
SSADHook = Callable[[int, Optional[float]], PoiRow]

# Radius-boundary comparisons happen between two floating-point geodesic
# distances computed along different paths; a tiny relative slack keeps
# borderline points from being dropped by both sides of a boundary.
_EPS = 1e-9

#: Safety bound on tree depth; Lemma 2 bounds the real height by
#: ``log2(d_max / d_min) + 1``, < 60 for any physical terrain.
_MAX_LAYERS = 64


class PartitionTree:
    """The original (uncompressed) partition tree ``T_org``, as columns.

    Parameters
    ----------
    table:
        int64 ``(num_nodes, 3)``: centre, layer and parent id (``-1``
        at the root); row index = node id.  Nodes are numbered layer by
        layer in selection order, so the root is node 0 — the layout of
        the compressed tree's first three ``table`` columns.
    layer_starts:
        int64 ``(height + 2,)``: layer ``i`` is node ids
        ``layer_starts[i]:layer_starts[i + 1]``.
    root_radius:
        ``r0``; layer ``i``'s radius is ``r0 / 2**i``.

    root_row:
        The root centre's cover-all SSAD row, which the builder ran
        for ``r0``; the enhanced-edge sweep reuses it as its root row
        instead of running it again.  ``None`` when no SSAD ran (a
        single POI).

    ``first_layer`` (int64, one per POI) is the shallowest layer at
    which each POI heads a node — the "chain top" the enhanced-edge
    lookup starts from.
    """

    def __init__(self, table: np.ndarray, layer_starts: np.ndarray,
                 root_radius: float, root_row: Optional[PoiRow] = None):
        self.table = table
        self.layer_starts = layer_starts
        self.root_radius = float(root_radius)
        self.root_row = root_row
        # Ids ascend by layer and the leaf layer heads every POI, so
        # each POI's first row is its first layer.
        _, first = np.unique(self.centers, return_index=True)
        self.first_layer = self.layers[first]

    @property
    def centers(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def layers(self) -> np.ndarray:
        return self.table[:, 1]

    @property
    def parents(self) -> np.ndarray:
        return self.table[:, 2]

    @property
    def height(self) -> int:
        """h: the deepest layer number."""
        return int(self.layer_starts.shape[0]) - 2

    @property
    def num_nodes(self) -> int:
        return int(self.table.shape[0])

    def layer_radius(self, layer: int) -> float:
        """``r_i = r0 / 2**i``."""
        return self.root_radius / (1 << layer)

    def check_structure(self) -> None:
        """Assert the column bookkeeping (used by tests): contiguous
        layers from a single root, every parent one layer up, and one
        leaf per POI."""
        starts = self.layer_starts
        sizes = np.diff(starts)
        assert starts[0] == 0 and starts[-1] == self.num_nodes
        assert sizes[0] == 1, "root layer must be singleton"
        assert (sizes > 0).all()
        assert np.array_equal(self.layers,
                              np.repeat(np.arange(sizes.size), sizes))
        parents = self.parents
        assert parents[0] == -1 and (parents[1:] >= 0).all()
        assert (self.layers[parents[1:]] == self.layers[1:] - 1).all()
        leaves = self.centers[starts[-2]:]
        assert np.array_equal(np.sort(leaves), np.arange(leaves.size))


def _position_priorities(engine: GeodesicEngine, seed: int) -> List[int]:
    """Seeded per-POI selection priorities, keyed by *surface position*.

    The "random" strategy used to draw its picks from a ``Random``
    stream, which made every selection depend on ``n`` and on draw
    order — so any insert or delete reshuffled the whole tree and an
    incremental flush could reuse nothing.  Instead each POI gets a
    uniform 64-bit priority ``blake2b(seed ‖ position)``: priorities
    are i.i.d. uniform over the POI set (so argmin/ordered selection
    is distributionally the same as uniform random picks), but a POI
    keeps its priority across rebuilds because its identity is its
    position — churn leaves every surviving pick decision unchanged.
    """
    return [
        int.from_bytes(
            hashlib.blake2b(
                struct.pack("<q3d", seed, *poi.position),
                digest_size=8,
            ).digest(),
            "big",
        )
        for poi in engine.pois
    ]


def build_partition_tree(engine: GeodesicEngine,
                         strategy: SelectionStrategy = "random",
                         seed: int = 0,
                         ssad: Optional[SSADHook] = None) -> PartitionTree:
    """Build the partition tree over ``engine``'s POI set (Section 3.2).

    Parameters
    ----------
    engine:
        Geodesic engine whose POI set is to be indexed.
    strategy:
        Point-selection strategy for non-centre picks: ``"random"`` or
        ``"greedy"`` (densest grid cell first).
    seed:
        Randomness seed (point selection).
    ssad:
        Optional SSAD provider replacing ``engine.distances_from_poi``
        — the incremental-flush memo hook.  Must return exactly what
        the engine would.  It is asked once per centre, at the
        centre's first layer (see the module docstring).
    """
    n = engine.num_pois
    if n == 0:
        raise ValueError("cannot build a partition tree over zero POIs")
    rng = random.Random(seed)
    if ssad is None:
        ssad = engine.distances_from_poi

    if n == 1:
        return PartitionTree(np.array([[0, 0, -1]], dtype=np.int64),
                             np.array([0, 1], dtype=np.int64), 0.0)

    priorities = _position_priorities(engine, seed)

    # ------------------------------------------------------------------
    # Step 1: root node construction.
    # ------------------------------------------------------------------
    root_center = min(range(n), key=lambda poi: (priorities[poi], poi))
    distances = ssad(root_center, None)  # SSAD version 1
    # Each centre's first row, cut for its deeper layers.
    first_rows: Dict[int, PoiRow] = {root_center: distances}
    if len(distances) < n:
        raise ValueError("POI set is not geodesically connected")
    r0 = float(distances.dists.max())
    if r0 <= 0.0:
        raise ValueError("all POIs are co-located; deduplicate first")

    # Three ints per node (centre, layer, parent), in node id order.
    rows: List[int] = [root_center, 0, -1]
    layer_starts: List[int] = [0, 1]

    # ------------------------------------------------------------------
    # Step 2: non-root layers.
    # ------------------------------------------------------------------
    xy = engine.pois.xy()
    for layer_number in range(1, _MAX_LAYERS + 1):
        radius = r0 / (1 << layer_number)
        previous = layer_starts[-2]
        previous_centers = rows[3 * previous::3]
        # Position in the previous layer per centre POI (for parenting).
        previous_slot = np.full(n, -1, dtype=np.int64)
        previous_slot[previous_centers] = np.arange(len(previous_centers))

        uncovered = set(range(n))
        grid: Optional[GridDensityIndex] = None
        if strategy == "greedy":
            grid = GridDensityIndex(
                {i: (float(xy[i, 0]), float(xy[i, 1])) for i in range(n)},
                cell_width=max(radius, _EPS), rng=rng,
            )
        # Centres of the previous layer are selected first (Step 2(b)(i)),
        # in priority order (the queue is popped from its tail).
        center_queue = sorted(previous_centers,
                              key=lambda poi: (priorities[poi], poi),
                              reverse=True)

        while uncovered:
            center = _select_point(center_queue, uncovered, grid,
                                   priorities)
            # Step 2(b)(ii): SSAD bounded by 2 * radius — enough both to
            # cover D(center, radius) and to reach the nearest previous-
            # layer centre (within r_{i-1} = 2 * radius by Covering).
            bound = 2.0 * radius * (1.0 + _EPS)
            first = first_rows.get(center)
            if first is None:
                reached = first_rows[center] = ssad(center, bound)
            else:
                cut = first.dists <= bound
                reached = PoiRow(first.ids[cut], first.dists[cut])
            inside = reached.ids[reached.dists <= radius * (1.0 + _EPS)]
            # Ascending POI order: the greedy grid's heap breaks density
            # ties by update order, so the removal order is part of
            # the tree's identity.
            covered = sorted(uncovered.intersection(inside.tolist()))
            uncovered.difference_update(covered)
            if grid is not None:
                grid.remove_all(covered)
            rows += (center, layer_number,
                     previous + _nearest_parent(previous_slot, reached))

        layer_starts.append(len(rows) // 3)
        if layer_starts[-1] - layer_starts[-2] == n:
            return PartitionTree(
                np.array(rows, dtype=np.int64).reshape(-1, 3),
                np.array(layer_starts, dtype=np.int64), r0, distances)

    raise RuntimeError(
        f"partition tree did not terminate within {_MAX_LAYERS} layers; "
        "check for (near-)duplicate POIs"
    )


def _select_point(center_queue: List[int], uncovered: set,
                  grid: Optional[GridDensityIndex],
                  priorities: List[int]) -> int:
    """Step 2(b)(i): previous-layer centres first, then the strategy."""
    while center_queue:
        candidate = center_queue.pop()
        if candidate in uncovered:
            return candidate
    if grid is not None:
        return grid.pick_from_densest()
    # Random strategy: the minimum-priority uncovered point — the
    # churn-stable equivalent of a uniform draw (every POI's priority
    # is an i.i.d. uniform hash of its position, so the argmin is a
    # uniformly distributed choice).
    return min(uncovered, key=lambda poi: (priorities[poi], poi))


def _nearest_parent(previous_slot: np.ndarray, reached: PoiRow) -> int:
    """Step 2(b)(iii): previous-layer node with minimum centre distance.

    Returns the node's position in the previous layer; ties go to the
    earliest position.
    """
    slots = previous_slot[reached.ids]
    hit = slots >= 0
    if not hit.any():
        raise RuntimeError(
            "no previous-layer centre within the search radius; the "
            "Covering property is violated (inconsistent geodesic metric?)"
        )
    slots = slots[hit]
    dists = reached.dists[hit]
    return int(slots[dists == dists.min()].min())
