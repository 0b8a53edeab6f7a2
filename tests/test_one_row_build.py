"""The one-row build equals the paper's steps as written.

The tree builder and the enhanced-edge sweep run one SSAD per centre
and cut that row for every deeper layer.  The references here run one
fresh SSAD per node of ``T_org`` (Step 2(b)(ii) at ``2 * r_i``, §3.5's
sweep at ``l * r_i``), one batch per layer.  Both must give the same
tree columns and the same enhanced-edge keys and distance bytes, with
SciPy and with the pure-Python rows; and an efficient build makes
exactly two SSAD rows per POI on either kernel, less the root's
cover-all row, which the tree hands to the sweep.
"""

import contextlib
import importlib
import random
from typing import List
from unittest import mock

import numpy as np
import pytest

from repro.core import SEOracle, build_enhanced_edges, build_partition_tree
from repro.core.node_pairs import enhanced_edge_factor
from repro.core.partition_tree import (
    _EPS,
    _MAX_LAYERS,
    PartitionTree,
    _nearest_parent,
    _position_priorities,
    _select_point,
)
from repro.datastructures.grid_index import GridDensityIndex
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, sample_uniform

dijkstra_module = importlib.import_module("repro.geodesic.dijkstra")


def reference_tree(engine, strategy, seed) -> PartitionTree:
    """Steps 1-2 with one SSAD per node: every selected centre runs a
    fresh ``2 * r_i`` search at every layer it heads a node in."""
    n = engine.num_pois
    rng = random.Random(seed)
    priorities = _position_priorities(engine, seed)
    root_center = min(range(n), key=lambda poi: (priorities[poi], poi))
    r0 = float(engine.distances_from_poi(root_center).dists.max())
    rows: List[int] = [root_center, 0, -1]
    layer_starts: List[int] = [0, 1]
    xy = engine.pois.xy()
    for layer_number in range(1, _MAX_LAYERS + 1):
        radius = r0 / (1 << layer_number)
        previous = layer_starts[-2]
        previous_centers = rows[3 * previous :: 3]
        previous_slot = np.full(n, -1, dtype=np.int64)
        previous_slot[previous_centers] = np.arange(len(previous_centers))
        uncovered = set(range(n))
        grid = None
        if strategy == "greedy":
            grid = GridDensityIndex(
                {i: (float(xy[i, 0]), float(xy[i, 1])) for i in range(n)},
                cell_width=max(radius, _EPS),
                rng=rng,
            )
        center_queue = sorted(
            previous_centers, key=lambda poi: (priorities[poi], poi), reverse=True
        )
        while uncovered:
            center = _select_point(center_queue, uncovered, grid, priorities)
            reached = engine.distances_from_poi(center, 2.0 * radius * (1.0 + _EPS))
            inside = reached.ids[reached.dists <= radius * (1.0 + _EPS)]
            covered = sorted(uncovered.intersection(inside.tolist()))
            uncovered.difference_update(covered)
            if grid is not None:
                grid.remove_all(covered)
            parent = previous + _nearest_parent(previous_slot, reached)
            rows += (center, layer_number, parent)
        layer_starts.append(len(rows) // 3)
        if layer_starts[-1] - layer_starts[-2] == n:
            table = np.array(rows, dtype=np.int64).reshape(-1, 3)
            starts = np.array(layer_starts, dtype=np.int64)
            return PartitionTree(table, starts, r0)
    raise AssertionError("reference tree did not terminate")


def reference_enhanced_edges(engine, tree, epsilon):
    """§3.5 as written: one ``l * r_i`` SSAD per node, one batch per
    layer; returns ``(keys, distances)``."""
    factor = enhanced_edge_factor(epsilon)
    n = engine.num_pois
    starts = tree.layer_starts.tolist()
    keys, distances = [], []
    for layer in range(tree.height + 1):
        centers = tree.centers[starts[layer] : starts[layer + 1]]
        bound = factor * tree.layer_radius(layer) * (1.0 + _EPS)
        radius = None if layer == 0 else bound
        rows = engine.distances_many(centers.tolist(), radius=radius)
        ids = np.concatenate([row.ids for row in rows])
        dists = np.concatenate([row.dists for row in rows])
        source = np.repeat(centers, [row.ids.size for row in rows])
        in_layer = np.zeros(n, dtype=bool)
        in_layer[centers] = True
        keep = in_layer[ids] & (ids != source) & (dists <= bound)
        low = np.minimum(ids[keep], source[keep])
        high = np.maximum(ids[keep], source[keep])
        layer_keys, first = np.unique((layer * n + low) * n + high, return_index=True)
        keys.append(layer_keys)
        distances.append(dists[keep][first])
    return np.concatenate(keys).astype(np.int64), np.concatenate(distances)


def kernel(hide_scipy):
    if hide_scipy:
        return mock.patch.object(dijkstra_module, "_scipy_dijkstra", None)
    return contextlib.nullcontext()


@pytest.fixture(scope="module")
def mesh():
    return make_terrain(grid_exponent=4, seed=11)  # 17 x 17 vertices


# Every strategy meets both epsilons; the POI counts span 24-96.
CASES = [
    ("random", 0.25, 24),
    ("greedy", 0.25, 64),
    ("random", 0.1, 96),
    ("greedy", 0.1, 48),
]


@pytest.mark.parametrize("hide_scipy", [False, True], ids=["scipy", "pure-python"])
@pytest.mark.parametrize("strategy,epsilon,num_pois", CASES)
def test_one_row_build_matches_per_node_reference(
    mesh, strategy, epsilon, num_pois, hide_scipy
):
    pois = sample_uniform(mesh, num_pois, seed=num_pois)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    with kernel(hide_scipy):
        tree = build_partition_tree(engine, strategy=strategy, seed=5)
        expected_tree = reference_tree(engine, strategy, seed=5)
        index = build_enhanced_edges(engine, tree, epsilon)
        keys, distances = reference_enhanced_edges(engine, expected_tree, epsilon)
    for column in ("table", "layer_starts", "first_layer"):
        got = getattr(tree, column)
        want = getattr(expected_tree, column)
        assert got.dtype == want.dtype, column
        assert got.tobytes() == want.tobytes(), column
    assert tree.root_radius == expected_tree.root_radius
    assert tree.height >= 2
    assert index.keys.tobytes() == keys.tobytes()
    assert index.distances.tobytes() == distances.tobytes()


@pytest.mark.parametrize("hide_scipy", [False, True], ids=["scipy", "pure-python"])
@pytest.mark.parametrize("strategy", ["random", "greedy"])
@pytest.mark.parametrize("num_pois", [2, 3, 30])
def test_efficient_build_makes_two_rows_per_poi(mesh, strategy, num_pois, hide_scipy):
    """The counter twin: one tree row and one enhanced-edge row per
    POI, on either kernel, but one cover-all row for the root, which
    both stages use."""
    pois = sample_uniform(mesh, num_pois, seed=7)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    with kernel(hide_scipy):
        oracle = SEOracle(engine, 0.25, strategy=strategy, seed=3).build()
    assert oracle.stats.ssad_calls == 2 * num_pois - 1
    assert oracle.stats.enhanced_lookup_fallbacks == 0
