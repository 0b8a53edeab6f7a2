"""One tree and pair form: the build's tree columns and key-ordered pair
run are the store's sections.

* The node pair set comes out of the build as an ascending key run,
  and the perfect hash indexes it in that order, so the hash's seven
  columns are the store's ``pair_*``/``hash_*`` sections byte for byte.
* The wavefront generator reproduces a depth-first reference of the
  Section 3.3 recursion — same pair keys, distance bytes and
  ``considered`` count — for both build methods.
* A fresh, a JSON-loaded and a store-rehydrated oracle hold the same
  tree columns, byte for byte, and report the same size.
"""

import numpy as np
import pytest

from repro.core import (
    SEOracle,
    build_enhanced_edges,
    build_partition_tree,
    generate_node_pairs_batched,
    load_oracle,
    open_oracle,
    pack_oracle,
    save_oracle,
    well_separated_threshold,
)
from repro.core.store import oracle_sections
from repro.datastructures.perfect_hash import pack_pair
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, sample_uniform

METHODS = ("efficient", "naive")

#: store section -> ``PerfectHashMap.frozen_arrays`` column
HASH_COLUMNS = {
    "pair_keys": "keys",
    "pair_distances": "values",
    "hash_level1": "level1",
    "hash_level2_a": "level2_a",
    "hash_level2_shift": "level2_shift",
    "hash_level2_offset": "level2_offset",
    "hash_slots": "slots",
}


@pytest.fixture(scope="module", params=[1, 2, 48], ids=lambda n: f"{n}poi")
def engine(request):
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0), relief=15.0, seed=61)
    pois = sample_uniform(mesh, request.param, seed=62)
    return GeodesicEngine(mesh, pois, points_per_edge=0)


def reference_pairs(tree, epsilon, distance):
    """Section 3.3's recursion, depth first from ``(root, root)``, one
    pair at a time over a children map built from the parent column:
    ``({(o1, o2): distance}, considered)``."""
    threshold = well_separated_threshold(epsilon)
    children = {}
    for node, parent in enumerate(tree.parents.tolist()):
        children.setdefault(parent, []).append(node)
    centers = tree.centers.tolist()
    radii = tree.radii.tolist()
    pairs, considered = {}, 0
    stack = [(tree.root_id, tree.root_id)]
    while stack:
        a, b = stack.pop()
        considered += 1
        found = distance(centers[a], centers[b])
        larger = max(2.0 * radii[a], 2.0 * radii[b])
        if found >= threshold * larger * (1.0 - 1e-9):
            pairs[(a, b)] = found
            continue
        split_first = (radii[a], -a) >= (radii[b], -b)
        for child in children[a if split_first else b]:
            stack.append((child, b) if split_first else (a, child))
    return pairs, considered


class CentreDistance:
    """The build method's scalar centre distance, memoised."""

    def __init__(self, oracle, engine):
        self.engine = engine
        self.index = None
        if oracle.method == "efficient":
            tree = build_partition_tree(
                engine, strategy=oracle.strategy, seed=oracle.seed
            )
            self.index = build_enhanced_edges(engine, tree, oracle.epsilon)
        self.memo = {}

    def __call__(self, a, b):
        if (a, b) not in self.memo:
            self.memo[(a, b)] = self.compute(a, b)
        return self.memo[(a, b)]

    def compute(self, a, b):
        if self.index is not None:
            return float(self.index.pair_distances(np.array([a]), np.array([b]))[0])
        return 0.0 if a == b else self.engine.distance(min(a, b), max(a, b))

    def batch(self, centers_a, centers_b):
        pairs = zip(centers_a.tolist(), centers_b.tolist())
        return np.array([self(a, b) for a, b in pairs])


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("epsilon", [0.1, 0.25, 1.0])
def test_wavefront_matches_depth_first_reference(engine, method, epsilon):
    oracle = SEOracle(engine, epsilon, method=method, seed=1).build()
    assert oracle.stats.enhanced_lookup_fallbacks == 0
    distance = CentreDistance(oracle, engine)
    pairs, considered = reference_pairs(oracle.tree, epsilon, distance)
    order = sorted(pairs, key=lambda pair: pack_pair(*pair))
    keys = np.array([pack_pair(*pair) for pair in order], dtype=np.uint64)
    distances = np.array([pairs[pair] for pair in order])

    frozen = oracle.pair_hash.frozen_arrays()
    assert frozen["keys"].tobytes() == keys.tobytes()
    assert frozen["values"].tobytes() == distances.tobytes()
    assert oracle.stats.pairs_considered == considered
    assert oracle.stats.pairs_stored == len(pairs)

    run = generate_node_pairs_batched(oracle.tree, epsilon, distance.batch)
    assert run[0].dtype == np.uint64
    assert run[0].tobytes() == keys.tobytes()
    assert run[1].tobytes() == distances.tobytes()
    assert run[2] == considered


@pytest.mark.parametrize("method", METHODS)
def test_fresh_pair_run_is_the_store_run(engine, method):
    """Keys strictly ascend as built, so the store's key-order remap has
    nothing to move: all seven hash columns are the sections."""
    oracle = SEOracle(engine, 0.25, method=method, seed=1).build()
    frozen = oracle.pair_hash.frozen_arrays()
    keys = frozen["keys"]
    assert (keys[1:] > keys[:-1]).all()
    sections = oracle_sections(oracle)
    for section, column in HASH_COLUMNS.items():
        assert sections[section].dtype == frozen[column].dtype, section
        assert sections[section].tobytes() == frozen[column].tobytes(), section


def test_generator_refuses_a_misaligned_provider(engine):
    oracle = SEOracle(engine, 0.25, seed=1).build()
    with pytest.raises(ValueError, match="misaligned"):
        generate_node_pairs_batched(
            oracle.tree, 0.25, lambda a, b: np.zeros(a.size + 1)
        )


class TestTreeColumns:
    """The 48-POI oracle of ROADMAP's measurements, three ways."""

    @pytest.fixture(scope="class")
    def oracles(self, tmp_path_factory):
        mesh = make_terrain(grid_exponent=4, extent=(1000, 1000), relief=150, seed=3)
        engine = GeodesicEngine(mesh, sample_uniform(mesh, 48, seed=4))
        fresh = SEOracle(engine, 0.25).build()
        tmp = tmp_path_factory.mktemp("columns")
        save_oracle(fresh, tmp / "oracle.json", binary=False)
        pack_oracle(fresh, tmp / "oracle.store")
        with open_oracle(tmp / "oracle.store") as stored:
            rehydrated = stored.to_oracle(engine)
        return [fresh, load_oracle(tmp / "oracle.json", engine), rehydrated]

    def test_columns_are_byte_identical(self, oracles):
        fresh = oracles[0].tree
        for tree in (oracle.tree for oracle in oracles[1:]):
            for name in ("table", "radii"):
                column, expected = getattr(tree, name), getattr(fresh, name)
                assert column.dtype == expected.dtype, name
                assert column.shape == expected.shape, name
                assert column.tobytes() == expected.tobytes(), name
            shape = (tree.root_id, tree.height, tree.root_radius)
            assert shape == (fresh.root_id, fresh.height, fresh.root_radius)
            assert tree.chains().tobytes() == fresh.chains().tobytes()

    def test_same_size_model(self, oracles):
        pairs = oracles[0].num_pairs
        assert [oracle.size_bytes() for oracle in oracles] == [39_768] * 3
        trees = [oracle.tree.size_bytes() for oracle in oracles]
        assert trees == [39_768 - 16 * pairs] * 3
