"""Query-equivalence harness: compiled vs scalar vs ground truth.

The compiled oracle's whole claim is that ``query_batch`` is the
*same function* as ``SEOracle.query``, just vectorized — so this suite
asserts bit-identity (not approximate closeness) between the two
across an epsilon × terrain-size × POI-layout grid, on seeded random
pair workloads plus the degenerate cases (source == target, adjacent
leaves, a single-POI terrain).  Against :class:`FullAPSPBaseline`
ground truth the assertion is Theorem 1's ε bound, since the oracle is
approximate by design.
"""

import numpy as np
import pytest

from repro.baselines import FullAPSPBaseline
from repro.core import CompiledOracle, SEOracle
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, sample_clustered, sample_uniform

# (name, grid_exponent, poi_count, layout, epsilon)
GRID = [
    ("small-uniform-loose", 3, 14, "uniform", 0.5),
    ("small-uniform-tight", 3, 14, "uniform", 0.1),
    ("small-clustered", 3, 18, "clustered", 0.25),
    ("medium-uniform", 4, 30, "uniform", 0.25),
    ("medium-clustered-tight", 4, 24, "clustered", 0.1),
]


def build_workload(exponent: int, poi_count: int, layout: str,
                   epsilon: float, seed: int = 71):
    mesh = make_terrain(grid_exponent=exponent,
                        extent=(120.0 * exponent, 100.0 * exponent),
                        relief=20.0 * exponent, seed=seed)
    sampler = sample_uniform if layout == "uniform" else sample_clustered
    pois = sampler(mesh, poi_count, seed=seed + 1)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    oracle = SEOracle(engine, epsilon, seed=seed + 2).build()
    return engine, oracle


def random_pairs(num_pois: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, num_pois, size=count).astype(np.intp)
    targets = rng.integers(0, num_pois, size=count).astype(np.intp)
    return sources, targets


@pytest.mark.parametrize(
    "name,exponent,poi_count,layout,epsilon",
    GRID, ids=[row[0] for row in GRID])
class TestGridEquivalence:
    def test_batch_bit_identical_to_scalar(self, name, exponent,
                                           poi_count, layout, epsilon):
        _, oracle = build_workload(exponent, poi_count, layout, epsilon)
        sources, targets = random_pairs(poi_count, 400, seed=17)
        batched = oracle.query_batch(sources, targets)
        scalar = np.array([oracle.query(int(s), int(t))
                           for s, t in zip(sources, targets)])
        # Bitwise, not approx: the compiled path must return the very
        # float the scalar walk returns.
        assert (batched == scalar).all()

    def test_full_product_bit_identical(self, name, exponent, poi_count,
                                        layout, epsilon):
        _, oracle = build_workload(exponent, poi_count, layout, epsilon)
        matrix = oracle.query_matrix()
        for source in range(poi_count):
            for target in range(poi_count):
                assert matrix[source, target] \
                    == oracle.query(source, target)

    def test_within_epsilon_of_ground_truth(self, name, exponent,
                                            poi_count, layout, epsilon):
        engine, oracle = build_workload(exponent, poi_count, layout,
                                        epsilon)
        exact = FullAPSPBaseline(engine).build()
        sources, targets = random_pairs(poi_count, 150, seed=23)
        batched = oracle.query_batch(sources, targets)
        truth = exact.query_batch(sources, targets)
        nonzero = truth > 0
        errors = np.abs(batched[nonzero] - truth[nonzero]) \
            / truth[nonzero]
        assert errors.max() <= epsilon + 1e-9
        assert (batched[~nonzero] == truth[~nonzero]).all()


class TestDegenerateCases:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload(3, 16, "uniform", 0.25, seed=91)

    def test_source_equals_target(self, workload):
        _, oracle = workload
        ids = np.arange(16, dtype=np.intp)
        batched = oracle.query_batch(ids, ids)
        assert (batched == 0.0).all()
        for poi in range(16):
            assert oracle.query(poi, poi) == 0.0

    def test_adjacent_leaves(self, workload):
        """The closest POI pair (adjacent leaves) resolves identically."""
        engine, oracle = workload
        exact = FullAPSPBaseline(engine).build()
        matrix = exact.matrix().copy()
        np.fill_diagonal(matrix, np.inf)
        source, target = np.unravel_index(np.argmin(matrix), matrix.shape)
        batched = oracle.query_batch(
            np.array([source, target]), np.array([target, source]))
        assert batched[0] == oracle.query(int(source), int(target))
        assert batched[1] == oracle.query(int(target), int(source))

    def test_empty_batch(self, workload):
        _, oracle = workload
        result = oracle.query_batch(np.empty(0, dtype=np.intp),
                                    np.empty(0, dtype=np.intp))
        assert result.shape == (0,)

    def test_out_of_range_ids_rejected(self, workload):
        _, oracle = workload
        with pytest.raises(IndexError):
            oracle.query_batch(np.array([0]), np.array([99]))
        with pytest.raises(IndexError):
            oracle.query_batch(np.array([-1]), np.array([0]))

    def test_misaligned_batch_rejected(self, workload):
        _, oracle = workload
        with pytest.raises(ValueError):
            oracle.query_batch(np.array([0, 1]), np.array([1]))

    def test_single_poi_terrain(self):
        mesh = make_terrain(grid_exponent=2, extent=(50.0, 50.0),
                            relief=8.0, seed=5)
        pois = sample_uniform(mesh, 1, seed=6)
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        oracle = SEOracle(engine, epsilon=0.25, seed=7).build()
        assert oracle.query(0, 0) == 0.0
        batched = oracle.query_batch(np.array([0]), np.array([0]))
        assert batched[0] == 0.0
        assert oracle.query_matrix().shape == (1, 1)


class TestCompiledLifecycle:
    def test_compile_is_cached(self):
        _, oracle = build_workload(3, 12, "uniform", 0.5, seed=51)
        assert not oracle.is_compiled
        first = oracle.compiled()
        assert oracle.is_compiled
        assert oracle.compiled() is first

    def test_rebuild_invalidates_cache(self):
        _, oracle = build_workload(3, 12, "uniform", 0.5, seed=52)
        stale = oracle.compiled()
        oracle.build()
        assert not oracle.is_compiled
        assert oracle.compiled() is not stale

    def test_unbuilt_oracle_rejected(self):
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=53)
        pois = sample_uniform(mesh, 8, seed=54)
        oracle = SEOracle(GeodesicEngine(mesh, pois), epsilon=0.25)
        with pytest.raises(RuntimeError):
            CompiledOracle.from_oracle(oracle)

    def test_chain_matrix_matches_layer_arrays(self):
        """The vectorised chains (the compiled path's input) equal the
        scalar query's parent-pointer walk for every POI."""
        for _, exponent, count, layout, epsilon in GRID[:3]:
            engine, oracle = build_workload(exponent, count, layout,
                                            epsilon, seed=55)
            tree = oracle.tree
            chains = oracle.compiled().chains
            assert chains.shape == (engine.num_pois, tree.height + 1)
            assert np.array_equal(chains, tree.chains())
            for poi in range(engine.num_pois):
                expected = [-1 if node is None else node
                            for node in tree.layer_array(poi)]
                assert chains[poi].tolist() == expected

    def test_chains_view_is_read_only(self):
        _, oracle = build_workload(3, 12, "uniform", 0.5, seed=56)
        compiled = oracle.compiled()
        with pytest.raises(ValueError):
            compiled.chains[0, 0] = 7

    def test_size_bytes_positive(self):
        _, oracle = build_workload(3, 12, "uniform", 0.5, seed=57)
        assert oracle.compiled().size_bytes() > 0

    def test_raw_constructor_rejects_bad_chains(self):
        _, oracle = build_workload(3, 12, "uniform", 0.5, seed=58)
        with pytest.raises(ValueError):
            CompiledOracle(np.zeros(4, dtype=np.int64),
                           oracle.pair_hash, 0.5)
