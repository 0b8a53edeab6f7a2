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
every node ``O`` of the original partition tree, the distance from
``c_O`` to every same-layer centre within ``l * r_O`` where
``l = 8/ε + 10``.  Lemma 4 proves that every pair the generator
considers finds its centre distance on some enhanced edge,
discoverable in O(h) by walking both centre chains bottom-up through
the layers.  The paper runs one radius-bounded SSAD per node; a
centre heads a node at every layer from its first one down, and its
deeper rows are its first-layer row cut at smaller radii, so the
build runs one SSAD per distinct centre and reads every layer's
edges from those rows (:func:`build_enhanced_edges`).

Enhanced edges are keyed by ``(layer, centre_a, centre_b)`` — exactly
the identity of a same-layer node pair in ``T_org``, since a node of
``T_org`` is determined by its layer and centre.  Only the build reads
them, so :class:`EnhancedEdgeIndex` holds them as one sorted key run
rather than a perfect hash: the generator hands it each wavefront of
centre pairs at once, and it resolves them with one ``searchsorted``
per layer.

The generator itself (:func:`generate_node_pairs_batched`) runs over
the compressed tree's columns — centres, radii and the children index
— one NumPy wavefront per round, and returns the node pair set in the
form every store holds it: an ascending run of packed pair keys with
their distances.  The perfect hash indexes that run in order, so its
key and value columns are the store's ``pair_keys`` and
``pair_distances`` as built.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..geodesic.engine import GeodesicEngine
from .compressed_tree import CompressedPartitionTree
from .parallel import BuildExecutor, SerialExecutor
from .partition_tree import PartitionTree

__all__ = [
    "EnhancedEdgeIndex",
    "build_enhanced_edges",
    "generate_node_pairs_batched",
    "well_separated_threshold",
]

#: Batched centre-distance provider: one call answers a whole round of
#: pair candidates (``(centers_a, centers_b) -> distances``, aligned
#: int64 arrays in, float64 out), which is what lets the naive
#: construction fan its SSADs out across a build executor and the
#: efficient one probe its enhanced edges once per round.
BatchDistanceProvider = Callable[[np.ndarray, np.ndarray], np.ndarray]

_EPS = 1e-9

#: :func:`~repro.datastructures.perfect_hash.pack_pair`'s id shift.
_PAIR_SHIFT = np.uint64(32)


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
                 tree: PartitionTree):
        self.keys = keys
        self.distances = distances
        self._first_layer = tree.first_layer
        self._n = int(tree.first_layer.shape[0])
        self._height = tree.height
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
    """Step 2 of the efficient construction: one SSAD per centre.

    For every node ``O`` of ``T_org``, record an edge to every
    same-layer centre within ``l * r_O`` of ``c_O``.  A POI heads a
    node at every layer from its first one down, so one radius-bounded
    SSAD per distinct centre, out to ``l * r`` of its first layer,
    holds every row its nodes need: a deeper node's row is that row's
    ``dists <= l * r_O`` cut, bit for bit.  The root layer (radius
    ``r_0``) covers all of ``P`` by construction, so the root centre's
    row is its cover-all row: the one the tree build ran for ``r_0``
    (``tree.root_row``), reused here.

    This is the fan-out stage of the build pipeline: the other
    ``n - 1`` SSADs, in node order of the centres' first nodes, are one
    batch handed to ``executor`` (default: a
    :class:`~repro.core.parallel.SerialExecutor` on the live engine).
    Each layer (ids ``layer_starts[i]:layer_starts[i + 1]`` of the
    tree's columns) is then reduced from its centres' rows in one pass
    in node order, so the index is identical whichever executor ran
    the batch.
    """
    if executor is None:
        executor = SerialExecutor()
        executor.bind(engine)
    factor = enhanced_edge_factor(epsilon)
    n = engine.num_pois
    starts = tree.layer_starts.tolist()
    bounds = [factor * tree.layer_radius(layer) * (1.0 + _EPS)
              for layer in range(tree.height + 1)]
    # Node ids ascend by layer, so each POI's first node sits at its
    # first layer and the first nodes in id order run layer by layer.
    first_nodes = np.sort(np.unique(tree.centers, return_index=True)[1])
    firsts = tree.centers[first_nodes].tolist()
    tasks = [(center, None if layer == 0 else bounds[layer])
             for center, layer in zip(firsts,
                                      tree.layers[first_nodes].tolist())]
    if tree.root_row is None:
        rows = executor.map_ssad(tasks)
    else:
        # The root (node 0) leads; its cover-all row is the tree's own.
        rows = [tree.root_row] + executor.map_ssad(tasks[1:])
    if len(rows) != len(firsts):
        raise ValueError("executor returned a misaligned batch")
    row_of = dict(zip(firsts, rows))
    edge_keys: List[np.ndarray] = []
    edge_dists: List[np.ndarray] = []
    for layer in range(tree.height + 1):
        centers = tree.centers[starts[layer]:starts[layer + 1]]
        bound = bounds[layer]
        layer_rows = [row_of[center] for center in centers.tolist()]
        ids = np.concatenate([row.ids for row in layer_rows])
        dists = np.concatenate([row.dists for row in layer_rows])
        source = np.repeat(centers, [row.ids.size for row in layer_rows])
        in_layer = np.zeros(n, dtype=bool)
        in_layer[centers] = True
        keep = in_layer[ids] & (ids != source) & (dists <= bound)
        low = np.minimum(ids[keep], source[keep])
        high = np.maximum(ids[keep], source[keep])
        # An edge found from both ends keeps the distance found from
        # the end first in node order (the two can differ in the last
        # bit).  Keys ascend by layer first, so the per-layer sorted
        # runs concatenate into one.
        layer_keys, first = np.unique((layer * n + low) * n + high,
                                      return_index=True)
        edge_keys.append(layer_keys)
        edge_dists.append(dists[keep][first])

    return EnhancedEdgeIndex(np.concatenate(edge_keys).astype(np.int64),
                             np.concatenate(edge_dists), tree)


def generate_node_pairs_batched(tree: CompressedPartitionTree,
                                epsilon: float,
                                batch_provider: BatchDistanceProvider
                                ) -> Tuple[np.ndarray, np.ndarray, int]:
    """The Section 3.3 generator, as a wavefront over the tree columns.

    Returns ``(keys, distances, considered)``: the node pair set as an
    ascending uint64 run of packed ``(o1, o2)`` keys
    (:func:`~repro.datastructures.perfect_hash.pack_pair`), the float64
    centre distances aligned with it, and the number of pairs the
    generator examined (Theorem 2's bound).

    Pairs are expanded in rounds starting from ``(root, root)``: each
    round asks ``batch_provider`` for the centre distances of the whole
    frontier at once, keeps the well-separated pairs, and replaces
    every other pair by the pairs of its larger-radius node's children
    (ties split the smaller id) with the other node, in frontier order.
    Whether a pair splits depends only on its own distance, so the pair
    set, its distances and ``considered`` are those of the depth-first
    formulation, whatever the round structure.
    """
    threshold = well_separated_threshold(epsilon)
    starts, children = tree.child_index
    fanout = np.diff(starts)
    centers = tree.centers
    radii = tree.radii
    first = np.array([tree.root_id], dtype=np.int64)
    second = first
    keys: List[np.ndarray] = []
    distances: List[np.ndarray] = []
    considered = 0

    while first.size:
        found = np.asarray(batch_provider(centers[first], centers[second]),
                           dtype=np.float64)
        if found.shape != first.shape:
            raise ValueError("batch provider returned a misaligned batch")
        considered += int(first.size)
        radius_a = radii[first]
        radius_b = radii[second]
        larger = np.maximum(2.0 * radius_a, 2.0 * radius_b)
        # Well-separated (leaf self-pairs land here with 0 >= 0).
        kept = found >= threshold * larger * (1.0 - _EPS)
        keys.append((first[kept].astype(np.uint64) << _PAIR_SHIFT)
                    | second[kept].astype(np.uint64))
        distances.append(found[kept])

        split = ~kept
        first, second = first[split], second[split]
        radius_a, radius_b = radius_a[split], radius_b[split]
        split_first = (radius_a > radius_b) | (
            (radius_a == radius_b) & (first <= second))
        node = np.where(split_first, first, second)
        count = fanout[node]
        if (count == 0).any():
            # Both leaves and not separated: only possible for
            # identical centres, which dedup rules out; guard anyway.
            bad = int(np.flatnonzero(count == 0)[0])
            raise RuntimeError(
                f"cannot split leaf pair ({int(first[bad])}, "
                f"{int(second[bad])}); duplicate POIs present?")
        # Each split pair fans out into one pair per child, in order.
        begin = np.repeat(starts[node] + count - np.cumsum(count), count)
        child = children[begin + np.arange(begin.size)]
        stay = np.repeat(np.where(split_first, second, first), count)
        split_first = np.repeat(split_first, count)
        first = np.where(split_first, child, stay)
        second = np.where(split_first, stay, child)

    keys = np.concatenate(keys)
    order = np.argsort(keys)
    return keys[order], np.concatenate(distances)[order], considered
