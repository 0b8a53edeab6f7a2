"""The compressed partition tree — SE oracle component 1 (Section 3.2).

The compressed tree removes every internal single-child node of the
partition tree (re-parenting the child to its grandparent) and zeroes
the radius of the leaves.  The result has at most ``2n - 1`` nodes
(Lemma 9), which is what makes SE space-efficient: every structure the
oracle stores afterwards is linear in ``n``, not in ``n * h``.

Compressed nodes remember their *original* layer number — the layer of
the corresponding node in ``T_org`` — because the query algorithm's
layer arithmetic (Observation 1) is expressed in original layers.

The tree is held as the store's own columns from :func:`compress_tree`
on: one int64 ``table`` row per node (centre, original layer, parent,
origin id) and a float64 ``radii`` column, row index = node id.  A
fresh build, a JSON document and a mapped store all wrap the same two
arrays; the children index, the leaf of every POI and the ancestor
chains are derived from them in vectorised passes.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .partition_tree import PartitionTree

__all__ = ["CompressedPartitionTree", "compress_tree"]


class CompressedPartitionTree:
    """Compressed partition tree over flat node columns.

    Parameters
    ----------
    table:
        int64 ``(num_nodes, 4)``: centre, original layer, parent id
        (``-1`` at the root) and the node id in ``T_org`` it came from.
    radii:
        float64 ``(num_nodes,)`` original radii, 0 at the leaves.
    root_id, height, root_radius:
        The root's id, the original tree's height ``h`` and ``r_0``.
    """

    def __init__(self, table: np.ndarray, radii: np.ndarray, root_id: int,
                 height: int, root_radius: float):
        self.table = table
        self.radii = radii
        self.root_id = int(root_id)
        self.height = int(height)
        self.root_radius = float(root_radius)

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------
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
    def num_nodes(self) -> int:
        return int(self.table.shape[0])

    @cached_property
    def child_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, children)``: node ``v``'s children, in ascending
        id order, are ``children[starts[v]:starts[v + 1]]``."""
        parents = self.parents
        non_root = np.flatnonzero(parents >= 0)
        children = non_root[np.argsort(parents[non_root], kind="stable")]
        starts = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(parents[non_root], minlength=self.num_nodes),
                  out=starts[1:])
        return starts, children

    @cached_property
    def leaf_of_poi(self) -> np.ndarray:
        """int64 ``(num_pois,)``: the leaf node whose centre is each POI."""
        starts, _ = self.child_index
        leaves = np.flatnonzero(starts[1:] == starts[:-1])
        leaf_of_poi = np.empty(leaves.size, dtype=np.int64)
        leaf_of_poi[self.centers[leaves]] = leaves
        return leaf_of_poi

    @property
    def num_pois(self) -> int:
        return int(self.leaf_of_poi.shape[0])

    # ------------------------------------------------------------------
    # ancestor chains
    # ------------------------------------------------------------------
    @cached_property
    def _walk(self) -> Tuple[List[int], List[int], List[int]]:
        # Python lists: the scalar walk would pay a NumPy scalar
        # conversion per step otherwise.
        return (self.parents.tolist(), self.layers.tolist(),
                self.leaf_of_poi.tolist())

    def layer_array(self, poi: int) -> List[Optional[int]]:
        """The query algorithm's ``A_s`` array for a POI.

        ``array[i]`` is the node id at original layer ``i`` along the
        path from the POI's leaf to the root, or ``None`` when the
        (compressed) path skips that layer — one parent-pointer walk,
        the scalar query's reference.
        """
        parents, layers, leaves = self._walk
        array: List[Optional[int]] = [None] * (self.height + 1)
        node = leaves[poi]
        while node >= 0:
            array[layers[node]] = node
            node = parents[node]
        return array

    def parent_layer(self, node_id: int) -> Optional[int]:
        """The original layer of ``node_id``'s parent (``None`` at the
        root): the first layer of the span the node covers."""
        parents, layers, _ = self._walk
        parent = parents[node_id]
        return None if parent < 0 else layers[parent]

    def chains(self) -> np.ndarray:
        """:meth:`layer_array` for every POI as one ``-1``-padded int64
        ``(num_pois, height + 1)`` matrix, one vectorised step up the
        parent column per pass (at most ``h + 1`` passes)."""
        rows = np.arange(self.num_pois)
        chains = np.full((rows.size, self.height + 1), -1, dtype=np.int64)
        node = self.leaf_of_poi
        while rows.size:
            chains[rows, self.layers[node]] = node
            node = self.parents[node]
            up = node >= 0
            rows, node = rows[up], node[up]
        return chains

    def size_bytes(self) -> int:
        """Byte model: 6 8-byte fields per node (id, centre, layer,
        radius, parent, child-slot); every node but the root fills one
        child slot."""
        return 8 * (6 * self.num_nodes - 1)

    # ------------------------------------------------------------------
    # invariants (tests)
    # ------------------------------------------------------------------
    def check_structure(self, num_pois: int) -> None:
        """Assert Lemma 9's shape: n leaves, >=2 children internally."""
        starts, _ = self.child_index
        fanout = np.diff(starts)
        leaves = fanout == 0
        assert int(leaves.sum()) == num_pois, "one leaf per POI required"
        assert np.array_equal(np.sort(self.centers[leaves]),
                              np.arange(num_pois))
        assert (self.radii[leaves] == 0.0).all()
        parents = self.parents
        non_root = np.arange(self.num_nodes) != self.root_id
        assert parents[self.root_id] == -1
        assert (parents[non_root] >= 0).all()
        assert (self.layers[parents[non_root]]
                < self.layers[non_root]).all()
        assert (fanout[non_root & ~leaves] >= 2).all(), (
            "an internal node kept a single child")
        assert self.num_nodes <= 2 * num_pois - 1 or num_pois == 1


def compress_tree(tree: PartitionTree) -> CompressedPartitionTree:
    """Compress a partition tree (Section 3.2's three-step procedure)."""
    height = tree.height
    centers, layers, parents = tree.centers, tree.layers, tree.parents

    # Decide which original nodes survive: the root (node 0), every
    # leaf, and every internal node with at least two children.
    fanout = np.bincount(parents[1:], minlength=tree.num_nodes)
    survives = (layers == height) | (fanout >= 2)
    survives[0] = True
    new_id = np.cumsum(survives) - 1

    # Re-parent: walk every survivor's parent pointer up past the
    # nodes that do not survive, all survivors at once, one layer per
    # pass.
    kept = np.flatnonzero(survives)
    ancestor = parents[kept]
    while True:
        climbing = np.flatnonzero(ancestor >= 0)
        climbing = climbing[~survives[ancestor[climbing]]]
        if not climbing.size:
            break
        ancestor[climbing] = parents[ancestor[climbing]]

    table = np.column_stack((
        centers[kept], layers[kept],
        np.where(ancestor >= 0, new_id[ancestor], -1), kept))
    return CompressedPartitionTree(
        table=table.astype(np.int64, copy=False),
        radii=np.where(layers[kept] == height, 0.0,
                       tree.root_radius / (1 << layers[kept])),
        root_id=0,  # the root survives first
        height=height,
        root_radius=tree.root_radius,
    )
