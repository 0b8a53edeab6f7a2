"""The partition tree — SE oracle component 1 (Section 3.2).

A partition tree indexes the POI set ``P`` by a hierarchy of geodesic
disks: Layer ``i`` consists of nodes whose disks have radius
``r0 / 2**i`` and whose centres are at geodesic distance at least
``r0 / 2**i`` from each other (*Separation*), jointly covering all of
``P`` (*Covering*); every descendant's centre stays within twice a
node's radius (*Distance*).

The top-down construction follows the paper's Steps 1-2 exactly,
including the two point-selection strategies of Implementation
Detail 1 (*random* and *greedy*, the latter backed by the grid /
B+-tree / max-heap combination in
:class:`~repro.datastructures.grid_index.GridDensityIndex`) and the
two SSAD stopping rules of Implementation Detail 2 (provided by
:class:`~repro.geodesic.engine.GeodesicEngine`).
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Literal, Optional

import numpy as np

from ..datastructures.grid_index import GridDensityIndex
from ..geodesic.engine import GeodesicEngine, PoiRow

__all__ = ["PartitionTreeNode", "PartitionTree", "build_partition_tree"]

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


@dataclass
class PartitionTreeNode:
    """A node of the (original) partition tree.

    Attributes
    ----------
    node_id:
        Dense id within the tree (index into ``tree.nodes``).
    center:
        POI index of the node centre ``c_O``.
    layer:
        Layer number (0 = root).
    radius:
        ``r_O = r0 / 2**layer``.
    parent:
        Parent node id, or ``None`` for the root.
    children:
        Child node ids (next layer).
    """

    node_id: int
    center: int
    layer: int
    radius: float
    parent: Optional[int]
    children: List[int] = field(default_factory=list)


class PartitionTree:
    """The original (uncompressed) partition tree ``T_org``.

    Nodes are stored in a flat list; layers are lists of node ids.  The
    tree keeps, per POI, the id of its layer-``h`` (leaf) node and the
    shallowest layer at which the POI first became a centre — the
    "chain top", used by the enhanced-edge lookup.
    """

    def __init__(self, nodes: List[PartitionTreeNode],
                 layers: List[List[int]], root_radius: float):
        self.nodes = nodes
        self.layers = layers
        self.root_radius = root_radius

        self.leaf_of_center: Dict[int, int] = {}
        self.first_layer_of_center: Dict[int, int] = {}
        for node in nodes:
            current = self.first_layer_of_center.get(node.center)
            if current is None or node.layer < current:
                self.first_layer_of_center[node.center] = node.layer
            if node.layer == self.height:
                self.leaf_of_center[node.center] = node.node_id

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """h: the deepest layer number."""
        return len(self.layers) - 1

    @property
    def root(self) -> PartitionTreeNode:
        return self.nodes[self.layers[0][0]]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> PartitionTreeNode:
        return self.nodes[node_id]

    def layer_radius(self, layer: int) -> float:
        """``r_i = r0 / 2**i``."""
        return self.root_radius / (1 << layer)

    def ancestor_at_layer(self, node_id: int, layer: int) -> int:
        """The ancestor of ``node_id`` living in ``layer`` (<= its own)."""
        node = self.nodes[node_id]
        while node.layer > layer:
            if node.parent is None:
                raise ValueError("layer above the root")
            node = self.nodes[node.parent]
        if node.layer != layer:
            raise ValueError(f"node {node_id} has no ancestor at layer {layer}")
        return node.node_id

    # ------------------------------------------------------------------
    # invariant checks (used by tests)
    # ------------------------------------------------------------------
    def check_structure(self) -> None:
        """Assert parent/child and layer bookkeeping consistency."""
        for node in self.nodes:
            if node.parent is None:
                assert node.layer == 0, "non-root without parent"
            else:
                parent = self.nodes[node.parent]
                assert parent.layer == node.layer - 1
                assert node.node_id in parent.children
            for child_id in node.children:
                assert self.nodes[child_id].parent == node.node_id
        for layer_number, layer in enumerate(self.layers):
            for node_id in layer:
                assert self.nodes[node_id].layer == layer_number
        assert len(self.layers[0]) == 1, "root layer must be singleton"
        assert len(self.layers[-1]) == len(self.leaf_of_center)


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
                         max_layers: int = 64,
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
    max_layers:
        Safety bound on tree depth; Lemma 2 bounds the real height by
        ``log2(d_max / d_min) + 1``, < 60 for any physical terrain.
    ssad:
        Optional SSAD provider replacing ``engine.distances_from_poi``
        — the incremental-flush memo hook.  Must return exactly what
        the engine would.
    """
    n = engine.num_pois
    if n == 0:
        raise ValueError("cannot build a partition tree over zero POIs")
    rng = random.Random(seed)
    if ssad is None:
        ssad = engine.distances_from_poi

    if n == 1:
        root = PartitionTreeNode(node_id=0, center=0, layer=0, radius=0.0,
                                 parent=None)
        return PartitionTree([root], [[0]], root_radius=0.0)

    priorities = _position_priorities(engine, seed)

    # ------------------------------------------------------------------
    # Step 1: root node construction.
    # ------------------------------------------------------------------
    root_center = min(range(n), key=lambda poi: (priorities[poi], poi))
    distances = ssad(root_center, None)  # SSAD version 1
    if len(distances) < n:
        raise ValueError("POI set is not geodesically connected")
    r0 = float(distances.dists.max())
    if r0 <= 0.0:
        raise ValueError("all POIs are co-located; deduplicate first")

    nodes: List[PartitionTreeNode] = [
        PartitionTreeNode(node_id=0, center=root_center, layer=0,
                          radius=r0, parent=None)
    ]
    layers: List[List[int]] = [[0]]

    # ------------------------------------------------------------------
    # Step 2: non-root layers.
    # ------------------------------------------------------------------
    xy = engine.pois.xy()
    for layer_number in range(1, max_layers + 1):
        radius = r0 / (1 << layer_number)
        previous_layer = layers[-1]
        # Position in the previous layer per centre POI (for parenting).
        previous_slot = np.full(n, -1, dtype=np.int64)
        previous_slot[[nodes[i].center for i in previous_layer]] = \
            np.arange(len(previous_layer))

        uncovered = set(range(n))
        grid: Optional[GridDensityIndex] = None
        if strategy == "greedy":
            grid = GridDensityIndex(
                {i: (float(xy[i, 0]), float(xy[i, 1])) for i in range(n)},
                cell_width=max(radius, _EPS), rng=rng,
            )
        # Centres of the previous layer are selected first (Step 2(b)(i)),
        # in priority order (the queue is popped from its tail).
        center_queue = [nodes[i].center for i in previous_layer]
        center_queue.sort(key=lambda poi: (priorities[poi], poi),
                          reverse=True)
        new_layer: List[int] = []

        while uncovered:
            center = _select_point(center_queue, uncovered, grid,
                                   priorities)
            # Step 2(b)(ii): SSAD bounded by 2 * radius — enough both to
            # cover D(center, radius) and to reach the nearest previous-
            # layer centre (within r_{i-1} = 2 * radius by Covering).
            reached = ssad(center, 2.0 * radius * (1.0 + _EPS))
            inside = reached.ids[reached.dists <= radius * (1.0 + _EPS)]
            # Ascending POI order: the greedy grid's heap breaks density
            # ties by update order, so the removal order is part of
            # the tree's identity.
            covered = sorted(uncovered.intersection(inside.tolist()))
            uncovered.difference_update(covered)
            if grid is not None:
                grid.remove_all(covered)

            parent_id = previous_layer[_nearest_parent(previous_slot,
                                                       reached)]
            node_id = len(nodes)
            node = PartitionTreeNode(node_id=node_id, center=center,
                                     layer=layer_number, radius=radius,
                                     parent=parent_id)
            nodes.append(node)
            nodes[parent_id].children.append(node_id)
            new_layer.append(node_id)

        layers.append(new_layer)
        if len(new_layer) == n:
            return PartitionTree(nodes, layers, r0)

    raise RuntimeError(
        f"partition tree did not terminate within {max_layers} layers; "
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
