"""Tests for the partition tree: Lemma 1's three properties and Lemma 2."""

import math

import numpy as np
import pytest

from repro.core import build_partition_tree, compress_tree
from repro.geodesic import GeodesicEngine
from repro.terrain import sample_uniform


@pytest.fixture(scope="module", params=["random", "greedy"])
def tree_and_engine(request, medium_engine):
    tree = build_partition_tree(medium_engine, strategy=request.param,
                                seed=5)
    return tree, medium_engine


def _center_distances(engine, center, radius=None):
    return engine.distances_from_poi(center, radius=radius)


class TestStructure:
    def test_basic_shape(self, tree_and_engine):
        tree, engine = tree_and_engine
        tree.check_structure()
        assert tree.root.layer == 0
        assert tree.root.radius == tree.root_radius

    def test_leaf_layer_has_n_nodes(self, tree_and_engine):
        tree, engine = tree_and_engine
        assert len(tree.layers[-1]) == engine.num_pois
        leaf_centers = {tree.node(i).center for i in tree.layers[-1]}
        assert leaf_centers == set(range(engine.num_pois))

    def test_layer_radii_halve(self, tree_and_engine):
        tree, _ = tree_and_engine
        for layer_number in range(tree.height + 1):
            expected = tree.root_radius / (1 << layer_number)
            for node_id in tree.layers[layer_number]:
                assert tree.node(node_id).radius == pytest.approx(expected)

    def test_every_node_has_child_chain(self, tree_and_engine):
        """Each node's centre re-appears as a child centre (chain)."""
        tree, _ = tree_and_engine
        for node in tree.nodes:
            if node.layer == tree.height:
                continue
            child_centers = {tree.node(c).center for c in node.children}
            assert node.center in child_centers

    def test_first_layer_of_center(self, tree_and_engine):
        tree, _ = tree_and_engine
        for node in tree.nodes:
            assert tree.first_layer_of_center[node.center] <= node.layer

    def test_ancestor_at_layer(self, tree_and_engine):
        tree, _ = tree_and_engine
        leaf = tree.layers[-1][0]
        for layer in range(tree.height, -1, -1):
            ancestor = tree.ancestor_at_layer(leaf, layer)
            assert tree.node(ancestor).layer == layer


class TestSeparationProperty:
    def test_same_layer_centers_are_separated(self, tree_and_engine):
        """Separation: centres in Layer i are >= r0/2^i apart."""
        tree, engine = tree_and_engine
        for layer_number in (1, 2, min(3, tree.height)):
            radius = tree.layer_radius(layer_number)
            centers = [tree.node(i).center
                       for i in tree.layers[layer_number]]
            for center in centers[:8]:  # spot-check a prefix
                reached = _center_distances(engine, center,
                                            radius=radius * 0.999)
                others = [c for c in centers
                          if c != center and c in reached
                          and reached[c] < radius * 0.999]
                assert others == [], (
                    f"layer {layer_number} centres too close: "
                    f"{center} vs {others}"
                )


class TestCoveringProperty:
    def test_every_poi_covered_per_layer(self, tree_and_engine):
        tree, engine = tree_and_engine
        n = engine.num_pois
        for layer_number in range(tree.height + 1):
            radius = tree.layer_radius(layer_number)
            covered = set()
            for node_id in tree.layers[layer_number]:
                center = tree.node(node_id).center
                reached = _center_distances(engine, center,
                                            radius=radius * (1 + 1e-6))
                covered.update(p for p, d in reached.items()
                               if d <= radius * (1 + 1e-6))
            assert covered == set(range(n)), (
                f"layer {layer_number} fails covering"
            )


class TestDistanceProperty:
    def test_descendant_centers_within_double_radius(self, tree_and_engine):
        tree, engine = tree_and_engine
        # For a few internal nodes, check all descendants.
        internal = [n for n in tree.nodes if n.children][:6]
        for node in internal:
            reached = _center_distances(engine, node.center,
                                        radius=2.0 * node.radius * (1 + 1e-6))
            stack = list(node.children)
            while stack:
                child = tree.node(stack.pop())
                assert reached.get(child.center, math.inf) \
                    <= 2.0 * node.radius * (1 + 1e-6)
                stack.extend(child.children)


class TestHeightBound:
    def test_lemma2_height_bound(self, tree_and_engine):
        """h <= log2(d_max / d_min) + 1 (Lemma 2)."""
        tree, engine = tree_and_engine
        n = engine.num_pois
        d_max = 0.0
        d_min = math.inf
        for i in range(n):
            reached = engine.distances_from_poi(i)
            for j, d in reached.items():
                if j != i:
                    d_max = max(d_max, d)
                    d_min = min(d_min, d)
        bound = math.log2(d_max / d_min) + 1
        assert tree.height <= bound + 1e-9

    def test_height_is_small(self, tree_and_engine):
        tree, _ = tree_and_engine
        assert tree.height < 30  # the paper's empirical claim


class TestEdgeCases:
    def test_single_poi(self, small_terrain):
        pois = sample_uniform(small_terrain, 1, seed=1)
        engine = GeodesicEngine(small_terrain, pois, points_per_edge=0)
        tree = build_partition_tree(engine)
        assert tree.height == 0
        assert tree.num_nodes == 1
        assert tree.root_radius == 0.0

    def test_zero_pois_rejected(self, small_terrain):
        from repro.terrain import POISet
        engine = GeodesicEngine(small_terrain, POISet([]), points_per_edge=0)
        with pytest.raises(ValueError):
            build_partition_tree(engine)

    def test_two_pois(self, small_terrain):
        pois = sample_uniform(small_terrain, 2, seed=3)
        engine = GeodesicEngine(small_terrain, pois, points_per_edge=0)
        tree = build_partition_tree(engine)
        assert len(tree.layers[-1]) == 2
        tree.check_structure()

    def test_deterministic_given_seed(self, medium_engine):
        t1 = build_partition_tree(medium_engine, seed=9)
        t2 = build_partition_tree(medium_engine, seed=9)
        assert [(n.center, n.layer) for n in t1.nodes] \
            == [(n.center, n.layer) for n in t2.nodes]

    def test_strategies_build_valid_trees(self, medium_engine):
        for strategy in ("random", "greedy"):
            tree = build_partition_tree(medium_engine, strategy=strategy,
                                        seed=1)
            tree.check_structure()


class TestCompression:
    def test_compressed_shape(self, tree_and_engine):
        tree, engine = tree_and_engine
        compressed = compress_tree(tree)
        compressed.check_structure(engine.num_pois)

    def test_linear_size(self, tree_and_engine):
        """Lemma 9: at most 2n - 1 nodes."""
        tree, engine = tree_and_engine
        compressed = compress_tree(tree)
        assert compressed.num_nodes <= 2 * engine.num_pois - 1
        assert compressed.num_nodes < tree.num_nodes

    def test_leaf_radius_zero(self, tree_and_engine):
        tree, _ = tree_and_engine
        compressed = compress_tree(tree)
        starts, _ = compressed.child_index
        leaves = starts[1:] == starts[:-1]
        assert (compressed.radii[leaves] == 0.0).all()
        assert (compressed.radii[~leaves] > 0.0).all()

    def test_layers_preserved_from_original(self, tree_and_engine):
        """Compressed nodes keep their original layer number."""
        tree, _ = tree_and_engine
        compressed = compress_tree(tree)
        for center, layer, _, origin in compressed.table.tolist():
            original = tree.node(origin)
            assert original.layer == layer
            assert original.center == center

    def test_columns_match_node_walk(self, tree_and_engine):
        """The vectorised compression equals the node-by-node procedure:
        survivors in original id order, each re-parented to its nearest
        surviving ancestor, leaf radii zeroed."""
        tree, _ = tree_and_engine
        survives = [node.layer == tree.height or len(node.children) >= 2
                    or node.parent is None for node in tree.nodes]
        new_id = {}
        rows, radii = [], []
        for node in tree.nodes:
            if not survives[node.node_id]:
                continue
            new_id[node.node_id] = len(rows)
            ancestor = node.parent
            while ancestor is not None and not survives[ancestor]:
                ancestor = tree.node(ancestor).parent
            rows.append([node.center, node.layer, ancestor, node.node_id])
            radii.append(0.0 if node.layer == tree.height else node.radius)
        for row in rows:
            row[2] = -1 if row[2] is None else new_id[row[2]]
        compressed = compress_tree(tree)
        assert compressed.table.dtype == np.int64
        assert compressed.table.tolist() == rows
        assert compressed.radii.tobytes() == np.array(radii).tobytes()
        assert compressed.root_id == new_id[tree.root.node_id]

    def test_leaf_lookup(self, tree_and_engine):
        tree, engine = tree_and_engine
        compressed = compress_tree(tree)
        starts, _ = compressed.child_index
        for poi in range(engine.num_pois):
            leaf = compressed.leaf_of_poi[poi]
            assert compressed.centers[leaf] == poi
            assert starts[leaf] == starts[leaf + 1]

    def test_representative_sets_partition_pois(self, tree_and_engine):
        tree, engine = tree_and_engine
        compressed = compress_tree(tree)
        starts, children = compressed.child_index

        def leaf_centers(node):
            stack, found = [node], []
            while stack:
                node = stack.pop()
                below = children[starts[node]:starts[node + 1]].tolist()
                if below:
                    stack.extend(below)
                else:
                    found.append(int(compressed.centers[node]))
            return found

        root_rs = leaf_centers(compressed.root_id)
        assert sorted(root_rs) == list(range(engine.num_pois))
        root_children = children[starts[compressed.root_id]:
                                 starts[compressed.root_id + 1]]
        for child in root_children.tolist():
            assert set(leaf_centers(child)) <= set(root_rs)

    def test_layer_array(self, tree_and_engine):
        tree, engine = tree_and_engine
        compressed = compress_tree(tree)
        array = compressed.layer_array(0)
        assert array[compressed.layers[compressed.root_id]] \
            == compressed.root_id
        leaf_id = compressed.leaf_of_poi[0]
        assert array[compressed.layers[leaf_id]] == leaf_id
        # Entries must lie on the leaf-to-root path.
        path, node = set(), int(leaf_id)
        while node >= 0:
            path.add(node)
            node = int(compressed.parents[node])
        assert all(entry in path for entry in array if entry is not None)

    def test_single_poi_compression(self, small_terrain):
        pois = sample_uniform(small_terrain, 1, seed=1)
        engine = GeodesicEngine(small_terrain, pois, points_per_edge=0)
        compressed = compress_tree(build_partition_tree(engine))
        assert compressed.num_nodes == 1
        assert compressed.leaf_of_poi.tolist() == [compressed.root_id]
        compressed.check_structure(1)
