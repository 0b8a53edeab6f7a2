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
``T_org`` is determined by its layer and centre.  Only the build reads
them, so :class:`EnhancedEdgeIndex` holds them as one sorted key run
rather than a perfect hash: the generator hands it each wavefront of
centre pairs at once, and it resolves them with one ``searchsorted``
per layer.  The perfect hash indexes the node pair set alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geodesic.engine import GeodesicEngine
from .compressed_tree import CompressedPartitionTree
from .parallel import BuildExecutor, SerialExecutor
from .partition_tree import PartitionTree

__all__ = [
    "EnhancedEdgeIndex",
    "build_enhanced_edges",
    "NodePairSet",
    "generate_node_pairs_batched",
    "well_separated_threshold",
]

#: Batched centre-distance provider: one call answers a whole round of
#: pair candidates (``[(center_a, center_b), ...] -> [distance, ...]``),
#: which is what lets the naive construction fan its SSADs out across
#: a build executor and the efficient one probe its enhanced edges
#: once per round.
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
    """The enhanced edges as a sorted key run, probed per wavefront.

    The key of an edge between same-layer nodes centred ``a`` and ``b``
    is ``(layer * n + min(a, b)) * n + max(a, b)``; ``keys`` (int64)
    ascend and ``distances`` (float64) are aligned with them.  The
    index lives only while the build runs, so a sorted run and one
    ``np.searchsorted`` per layer serve it; no hash is built for it.
    """

    def __init__(self, keys: np.ndarray, distances: np.ndarray,
                 tree: PartitionTree, num_pois: int):
        self.keys = keys
        self.distances = distances
        self._n = num_pois
        self._height = tree.height
        self._first_layer = np.zeros(num_pois, dtype=np.int64)
        for center, layer in tree.first_layer_of_center.items():
            self._first_layer[center] = layer
        self.edge_count = int(keys.shape[0])

    def pair_distances(self, centers_a, centers_b) -> np.ndarray:
        """Centre distances of a wavefront of centre pairs, via the
        deepest enhanced edge on both chains (NaN where none is found).

        Walks layers bottom-up (Step 4's traversal), for every pair at
        once: at each layer, one ``searchsorted`` over the still
        unresolved pairs whose start layer — the later first layer of
        the two centres — is at or above it.  A key only exists at
        layers where *both* centres already head their own node, so a
        pair's first hit connects nodes centred exactly at its two
        centres (see Lemma 4 discussion).  Equal centres answer 0.
        """
        a = np.asarray(centers_a, dtype=np.int64)
        b = np.asarray(centers_b, dtype=np.int64)
        low = np.minimum(a, b)
        high = np.maximum(a, b)
        start = np.maximum(self._first_layer[a], self._first_layer[b])
        result = np.where(a == b, 0.0, np.nan)
        pending = np.flatnonzero(a != b)
        for layer in range(self._height, -1, -1):
            if not (pending.size and self.keys.size):
                break
            probe = pending[start[pending] <= layer]
            keys = (layer * self._n + low[probe]) * self._n + high[probe]
            at = np.searchsorted(self.keys, keys)
            hit = self.keys.take(at, mode="clip") == keys
            result[probe[hit]] = self.distances[at[hit]]
            pending = pending[np.isnan(result[pending])]
        return result


def build_enhanced_edges(engine: GeodesicEngine, tree: PartitionTree,
                         epsilon: float,
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
    and the per-node results are reduced in layer/node order, so the
    index is identical whichever executor ran the batch.
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
        # bit).  Keys ascend by layer first, so the per-layer sorted
        # runs concatenate into one.
        layer_keys, first = np.unique(np.concatenate(keys),
                                      return_index=True)
        edge_keys.append(layer_keys)
        edge_dists.append(np.concatenate(dists)[first])

    return EnhancedEdgeIndex(np.concatenate(edge_keys).astype(np.int64),
                             np.concatenate(edge_dists), tree, n)


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
