"""Node pair set (WSPD) and enhanced edges — SE component 2 (§3.3, §3.5).

Two nodes of the compressed tree are *well-separated* when the geodesic
distance between their centres is at least ``(2/ε + 2)`` times the
larger of their enlarged-disk radii.  The node pair set is generated by
recursively splitting non-well-separated pairs starting from
``(root, root)``; Theorem 1 guarantees that exactly one resulting pair
*contains* any ordered POI pair ``(p, q)``, and that the centre
distance stored with that pair ε-approximates ``d_g(p, q)``.

Every considered pair needs the geodesic distance between its centres.
The *naive* construction runs one SSAD per pair; the *efficient*
construction (Section 3.5) instead precomputes **enhanced edges**: for
every node ``O`` of the original partition tree, one radius-bounded
SSAD from ``c_O`` records the distance to every same-layer centre
within ``l * r_O`` where ``l = 8/ε + 10``.  Lemma 4 proves that every
pair the generator considers finds its centre distance on some
enhanced edge, discoverable in O(h) by walking both centre chains
bottom-up through the layers.

Enhanced edges are keyed by ``(layer, centre_a, centre_b)`` — exactly
the identity of a same-layer node pair in ``T_org``, since a node of
``T_org`` is determined by its layer and centre.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datastructures.perfect_hash import PerfectHashMap
from ..geodesic.engine import GeodesicEngine
from .compressed_tree import CompressedPartitionTree
from .parallel import BuildExecutor, SerialExecutor
from .partition_tree import PartitionTree

__all__ = [
    "EnhancedEdgeIndex",
    "build_enhanced_edges",
    "NodePairSet",
    "generate_node_pairs",
    "generate_node_pairs_batched",
    "well_separated_threshold",
]

DistanceProvider = Callable[[int, int], float]

#: Batched centre-distance provider: one call answers a whole round of
#: pair candidates (``[(center_a, center_b), ...] -> [distance, ...]``),
#: which is what lets the naive construction fan its SSADs out across
#: a build executor.
BatchDistanceProvider = Callable[[Sequence[Tuple[int, int]]], List[float]]

_EPS = 1e-9


def well_separated_threshold(epsilon: float) -> float:
    """The separation factor ``2/ε + 2``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 2.0 / epsilon + 2.0


def enhanced_edge_factor(epsilon: float) -> float:
    """``l = 8/ε + 10`` (about 4x the well-separated factor)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 8.0 / epsilon + 10.0


class EnhancedEdgeIndex:
    """Perfect-hash index of enhanced edges with O(h) pair lookup.

    The key of an edge between same-layer nodes centred ``a`` and ``b``
    is ``(layer, min(a,b), max(a,b))`` packed into one integer.
    """

    def __init__(self, table: PerfectHashMap, tree: PartitionTree,
                 num_pois: int, edge_count: int):
        self._table = table
        self._tree = tree
        self._n = num_pois
        self.edge_count = edge_count
        self.lookup_failures = 0

    def _key(self, layer: int, center_a: int, center_b: int) -> int:
        if center_a > center_b:
            center_a, center_b = center_b, center_a
        return (layer * self._n + center_a) * self._n + center_b

    def edge_distance(self, layer: int, center_a: int,
                      center_b: int) -> Optional[float]:
        """Distance of the enhanced edge at ``layer``, if present."""
        return self._table.get(self._key(layer, center_a, center_b))

    def pair_distance(self, center_a: int, center_b: int) -> Optional[float]:
        """Centre distance via the deepest enhanced edge on both chains.

        Walks layers bottom-up (Step 4's traversal).  A key only exists
        at layers where *both* centres already head their own node, so
        the first hit is guaranteed to connect nodes centred exactly at
        ``center_a`` / ``center_b`` (see Lemma 4 discussion).
        """
        if center_a == center_b:
            return 0.0
        start = max(self._tree.first_layer_of_center[center_a],
                    self._tree.first_layer_of_center[center_b])
        for layer in range(self._tree.height, start - 1, -1):
            distance = self.edge_distance(layer, center_a, center_b)
            if distance is not None:
                return distance
        return None

    def size_bytes(self) -> int:
        return self._table.size_bytes(value_bytes=8)


def build_enhanced_edges(engine: GeodesicEngine, tree: PartitionTree,
                         epsilon: float, seed: int = 0,
                         executor: Optional[BuildExecutor] = None
                         ) -> EnhancedEdgeIndex:
    """Step 2 of the efficient construction: one SSAD per tree node.

    For every node ``O`` of ``T_org`` run a radius-bounded SSAD from
    ``c_O`` out to ``l * r_O`` and record an edge to every same-layer
    centre found inside.  The root layer (radius ``r_0``) covers all of
    ``P`` by construction, so its SSAD runs in cover-all mode.

    This is the fan-out stage of the build pipeline: each layer is one
    SSAD batch handed to ``executor`` (default: a
    :class:`~repro.core.parallel.SerialExecutor` on the live engine),
    and the per-node results are reduced in layer/node order — the
    entry insertion order, and hence the index, is identical whichever
    executor ran the batch.
    """
    if executor is None:
        executor = SerialExecutor()
        executor.bind(engine)
    factor = enhanced_edge_factor(epsilon)
    n = engine.num_pois
    edge_keys: List[np.ndarray] = []
    edge_dists: List[np.ndarray] = []
    for layer_number, layer in enumerate(tree.layers):
        nodes = [tree.node(node_id) for node_id in layer]
        in_layer = np.zeros(n, dtype=bool)
        in_layer[[node.center for node in nodes]] = True
        bounds = [factor * node.radius * (1.0 + _EPS) for node in nodes]
        radii = [None] * len(nodes) if layer_number == 0 else bounds
        reached_per_node = executor.map_ssad(
            list(zip((node.center for node in nodes), radii)))
        if len(reached_per_node) != len(nodes):
            raise ValueError("executor returned a misaligned batch")
        keys: List[np.ndarray] = []
        dists: List[np.ndarray] = []
        for node, bound, reached in zip(nodes, bounds, reached_per_node):
            keep = (in_layer[reached.ids] & (reached.ids != node.center)
                    & (reached.dists <= bound))
            others = reached.ids[keep]
            low = np.minimum(others, node.center)
            high = np.maximum(others, node.center)
            keys.append((layer_number * n + low) * n + high)
            dists.append(reached.dists[keep])
        # An edge found from both ends keeps the distance found from
        # the end first in layer order (the two can differ in the last
        # bit); edges stay in first-found order.
        layer_keys = np.concatenate(keys)
        _, first = np.unique(layer_keys, return_index=True)
        first.sort()
        edge_keys.append(layer_keys[first])
        edge_dists.append(np.concatenate(dists)[first])

    keys_all = np.concatenate(edge_keys).tolist()
    table = PerfectHashMap(
        list(zip(keys_all, np.concatenate(edge_dists).tolist())), seed=seed)
    return EnhancedEdgeIndex(table, tree, n, edge_count=len(keys_all))


@dataclass
class NodePairSet:
    """The generated node pair set with its distances.

    ``pairs`` maps ordered compressed-node-id pairs ``(o1, o2)`` to the
    geodesic distance between their centres.  ``considered`` counts all
    pairs examined by the generator (Theorem 2's bound).
    """

    pairs: Dict[Tuple[int, int], float]
    considered: int
    epsilon: float

    def __len__(self) -> int:
        return len(self.pairs)

    def distance_of(self, node_a: int, node_b: int) -> Optional[float]:
        return self.pairs.get((node_a, node_b))


def generate_node_pairs(tree: CompressedPartitionTree,
                        epsilon: float,
                        distance_provider: DistanceProvider) -> NodePairSet:
    """Generate the node pair set (the Section 3.3 procedure).

    Starting from ``(root, root)``, repeatedly split the node with the
    larger radius (ties: smaller node id) of any non-well-separated
    pair, until all pairs are well-separated.

    ``distance_provider(center_a, center_b)`` supplies geodesic centre
    distances: the enhanced-edge index for the efficient construction,
    or per-pair SSAD for the naive one.  This is a convenience wrapper
    over :func:`generate_node_pairs_batched` for callers with a
    point-wise provider.
    """
    def batch(center_pairs: Sequence[Tuple[int, int]]) -> List[float]:
        return [distance_provider(a, b) for a, b in center_pairs]

    return generate_node_pairs_batched(tree, epsilon, batch)


def generate_node_pairs_batched(tree: CompressedPartitionTree,
                                epsilon: float,
                                batch_provider: BatchDistanceProvider
                                ) -> NodePairSet:
    """The Section 3.3 generator, wavefront-staged for bulk providers.

    Pairs are expanded in rounds: every pair of the current frontier
    needs its centre distance before the split test can run, so each
    round issues *one* batched distance request covering the whole
    frontier, then splits in frontier order.  Whether a pair is split
    depends only on its own distance, so the generated pair set — and
    the ``considered`` count — are exactly those of the depth-first
    reference formulation, independent of round structure or of how a
    build executor chunks the batch.
    """
    threshold = well_separated_threshold(epsilon)
    root = tree.root_id
    pairs: Dict[Tuple[int, int], float] = {}
    considered = 0
    frontier: List[Tuple[int, int]] = [(root, root)]

    while frontier:
        distances = batch_provider(
            [(tree.node(a).center, tree.node(b).center)
             for a, b in frontier])
        if len(distances) != len(frontier):
            raise ValueError("batch provider returned a misaligned batch")
        next_frontier: List[Tuple[int, int]] = []
        for pair, distance in zip(frontier, distances):
            considered += 1
            node_a = tree.node(pair[0])
            node_b = tree.node(pair[1])
            larger = max(node_a.enlarged_radius, node_b.enlarged_radius)
            if distance >= threshold * larger * (1.0 - _EPS):
                # Well-separated (leaf self-pairs land here with 0 >= 0).
                pairs[pair] = distance
                continue
            # Split the node with the larger radius; ties -> smaller id.
            if (node_a.radius, -node_a.node_id) \
                    >= (node_b.radius, -node_b.node_id):
                split, split_first = node_a, True
            else:
                split, split_first = node_b, False
            if split.is_leaf:
                # Both leaves and not separated: only possible for
                # identical centres, which dedup rules out; guard anyway.
                raise RuntimeError(
                    f"cannot split leaf pair {pair}; duplicate POIs present?"
                )
            for child in split.children:
                next_frontier.append(
                    (child, pair[1]) if split_first else (pair[0], child))
        frontier = next_frontier

    return NodePairSet(pairs=pairs, considered=considered, epsilon=epsilon)
