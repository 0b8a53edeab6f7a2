"""Tests for the SE oracle: node pairs, Theorem 1, queries, ε-guarantee."""

import importlib
import itertools
from unittest import mock

import pytest

from repro.core import SEOracle, well_separated_threshold
from repro.core.store import oracle_sections
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, sample_uniform


@pytest.fixture(scope="module")
def oracle(medium_engine):
    return SEOracle(medium_engine, epsilon=0.25, seed=3).build()


@pytest.fixture(scope="module")
def exact(medium_engine):
    """Ground-truth distance matrix on the same metric."""
    n = medium_engine.num_pois
    matrix = {}
    for i in range(n):
        reached = medium_engine.distances_from_poi(i)
        for j in range(n):
            matrix[(i, j)] = reached[j]
    return matrix


class TestConstructionValidation:
    def test_epsilon_validation(self, medium_engine):
        with pytest.raises(ValueError):
            SEOracle(medium_engine, epsilon=0.0)
        with pytest.raises(ValueError):
            SEOracle(medium_engine, epsilon=-1.0)

    def test_method_validation(self, medium_engine):
        with pytest.raises(ValueError):
            SEOracle(medium_engine, epsilon=0.1, method="magic")

    def test_query_before_build_raises(self, medium_engine):
        fresh = SEOracle(medium_engine, epsilon=0.2)
        with pytest.raises(RuntimeError):
            fresh.query(0, 1)
        with pytest.raises(RuntimeError):
            fresh.size_bytes()

    def test_build_populates_stats(self, oracle):
        stats = oracle.stats
        assert stats.total_seconds > 0
        assert stats.height == oracle.height
        assert stats.compressed_nodes <= stats.original_nodes
        assert stats.pairs_stored <= stats.pairs_considered
        assert stats.ssad_calls > 0
        assert stats.enhanced_lookup_fallbacks == 0  # Lemma 4 holds

    def test_well_separated_threshold(self):
        assert well_separated_threshold(2.0) == pytest.approx(3.0)
        assert well_separated_threshold(0.1) == pytest.approx(22.0)
        with pytest.raises(ValueError):
            well_separated_threshold(0.0)


class TestNodePairProperties:
    def test_all_pairs_well_separated(self, oracle, exact):
        """Theorem 1, part 1: every stored pair is well-separated."""
        tree = oracle.tree
        threshold = well_separated_threshold(oracle.epsilon)
        for (a, b), stored in oracle.pair_set.pairs.items():
            node_a, node_b = tree.node(a), tree.node(b)
            true_distance = exact[(node_a.center, node_b.center)]
            larger = max(node_a.enlarged_radius, node_b.enlarged_radius)
            assert true_distance >= threshold * larger * (1 - 1e-6)

    def test_stored_distance_is_center_distance(self, oracle, exact):
        tree = oracle.tree
        for (a, b), stored in oracle.pair_set.pairs.items():
            centers = (tree.node(a).center, tree.node(b).center)
            assert stored == pytest.approx(exact[centers], rel=1e-6)

    def test_unique_node_pair_match(self, oracle, medium_engine):
        """Theorem 1, part 2: exactly one pair covers every (p, q)."""
        n = medium_engine.num_pois
        sample = list(itertools.product(range(0, n, 5), range(0, n, 7)))
        for source, target in sample:
            a, b, _ = oracle.covering_pair(source, target)  # asserts ==1

    def test_pair_count_linear_in_n(self, medium_engine):
        """Theorem 2 flavour: pairs = O(n h / eps^2beta)."""
        oracle = SEOracle(medium_engine, epsilon=0.5, seed=1).build()
        n = medium_engine.num_pois
        budget = n * (oracle.height + 1) * (1 / 0.5) ** 4 * 64
        assert oracle.num_pairs < budget

    def test_smaller_epsilon_means_more_pairs(self, medium_engine):
        loose = SEOracle(medium_engine, epsilon=1.0, seed=1).build()
        tight = SEOracle(medium_engine, epsilon=0.1, seed=1).build()
        assert tight.num_pairs > loose.num_pairs
        # Size is dominated by the pair hash; with a 10x epsilon gap the
        # FKS slot-count variance cannot mask the growth.
        assert tight.size_bytes() > loose.size_bytes()


class TestQueries:
    def test_self_distance_zero(self, oracle, medium_engine):
        for poi in range(0, medium_engine.num_pois, 4):
            assert oracle.query(poi, poi) == 0.0

    def test_epsilon_guarantee_all_pairs(self, oracle, exact,
                                         medium_engine):
        """|d_oracle - d| <= eps * d for every POI pair."""
        n = medium_engine.num_pois
        eps = oracle.epsilon
        for source in range(n):
            for target in range(n):
                if source == target:
                    continue
                approx = oracle.query(source, target)
                true = exact[(source, target)]
                assert abs(approx - true) <= eps * true * (1 + 1e-6), (
                    f"({source},{target}): {approx} vs {true}"
                )

    def test_efficient_equals_naive_query(self, oracle, medium_engine):
        n = medium_engine.num_pois
        for source in range(0, n, 3):
            for target in range(0, n, 5):
                assert oracle.query(source, target) \
                    == oracle.query_naive(source, target)

    def test_query_matches_covering_pair(self, oracle):
        for source, target in [(0, 7), (3, 12), (20, 5)]:
            _, _, distance = oracle.covering_pair(source, target)
            assert oracle.query(source, target) == distance

    def test_symmetric_queries_within_epsilon(self, oracle, exact):
        """query(s,t) and query(t,s) may use different pairs but both
        ε-approximate the same distance."""
        eps = oracle.epsilon
        for source, target in [(1, 9), (4, 30), (17, 2)]:
            forward = oracle.query(source, target)
            backward = oracle.query(target, source)
            true = exact[(source, target)]
            assert abs(forward - true) <= eps * true * (1 + 1e-6)
            assert abs(backward - true) <= eps * true * (1 + 1e-6)


class TestNaiveConstruction:
    def test_naive_build_same_answers(self, medium_engine, exact):
        """SE(Naive) must produce an equivalent oracle (same tree seed)."""
        efficient = SEOracle(medium_engine, epsilon=0.25, seed=3).build()
        naive = SEOracle(medium_engine, epsilon=0.25, seed=3,
                         method="naive").build()
        assert naive.num_pairs == efficient.num_pairs
        n = medium_engine.num_pois
        for source in range(0, n, 3):
            for target in range(1, n, 7):
                d_naive = naive.query(source, target)
                d_eff = efficient.query(source, target)
                assert d_naive == pytest.approx(d_eff, rel=1e-9)

    def test_naive_uses_no_enhanced_edges(self, medium_engine):
        naive = SEOracle(medium_engine, epsilon=0.3, seed=2,
                         method="naive").build()
        assert naive.stats.enhanced_edges == 0
        assert naive.stats.enhanced_seconds == 0.0


class TestGreedyVariant:
    def test_greedy_build_guarantee(self, medium_engine, exact):
        oracle = SEOracle(medium_engine, epsilon=0.25, strategy="greedy",
                          seed=4).build()
        eps = oracle.epsilon
        n = medium_engine.num_pois
        for source in range(0, n, 4):
            for target in range(2, n, 6):
                if source == target:
                    continue
                approx = oracle.query(source, target)
                true = exact[(source, target)]
                assert abs(approx - true) <= eps * true * (1 + 1e-6)


class TestEffortCountersAcrossKernels:
    """SciPy only speeds up the whole-row searches: a build with SciPy
    hidden reports the same effort counters and packs the same bytes."""

    @pytest.mark.parametrize("strategy", ["random", "greedy"])
    def test_counters_and_sections_do_not_depend_on_scipy(self, strategy):
        mesh = make_terrain(grid_exponent=4, seed=5)  # 17 x 17 vertices
        pois = sample_uniform(mesh, 30, seed=5)
        kernel = importlib.import_module("repro.geodesic.dijkstra")

        def build():
            engine = GeodesicEngine(mesh, pois, points_per_edge=1)
            return SEOracle(engine, epsilon=0.5, strategy=strategy,
                            seed=2).build()

        fast = build()
        with mock.patch.object(kernel, "_scipy_dijkstra", None):
            slow = build()
        for counter in ("ssad_calls", "settled_nodes", "heap_pushes"):
            assert getattr(fast.stats, counter) \
                == getattr(slow.stats, counter), counter
        fast_sections = oracle_sections(fast)
        slow_sections = oracle_sections(slow)
        assert fast_sections.keys() == slow_sections.keys()
        for name, array in fast_sections.items():
            other = slow_sections[name]
            assert (array.dtype, array.shape) == (other.dtype, other.shape)
            assert array.tobytes() == other.tobytes(), name


class TestSmallCases:
    def test_single_poi_oracle(self, small_terrain):
        pois = sample_uniform(small_terrain, 1, seed=1)
        engine = GeodesicEngine(small_terrain, pois, points_per_edge=0)
        oracle = SEOracle(engine, epsilon=0.1).build()
        assert oracle.query(0, 0) == 0.0

    def test_two_poi_oracle(self, small_terrain):
        pois = sample_uniform(small_terrain, 2, seed=5)
        engine = GeodesicEngine(small_terrain, pois, points_per_edge=1)
        oracle = SEOracle(engine, epsilon=0.1).build()
        true = engine.distance(0, 1)
        assert oracle.query(0, 1) == pytest.approx(true, rel=0.1)
        assert oracle.query(0, 0) == 0.0

    def test_various_epsilons_small(self, small_engine):
        n = small_engine.num_pois
        exact = {}
        for i in range(n):
            reached = small_engine.distances_from_poi(i)
            for j, d in reached.items():
                exact[(i, j)] = d
        for epsilon in (0.05, 0.1, 0.25, 0.5, 1.0):
            oracle = SEOracle(small_engine, epsilon=epsilon, seed=7).build()
            for source in range(0, n, 2):
                for target in range(1, n, 3):
                    if source == target:
                        continue
                    approx = oracle.query(source, target)
                    true = exact[(source, target)]
                    assert abs(approx - true) <= epsilon * true * (1 + 1e-6)


class TestSizeModel:
    def test_size_components(self, oracle):
        assert oracle.size_bytes() > 0
        assert oracle.tree.size_bytes() < oracle.size_bytes()

    def test_size_grows_with_n(self, medium_terrain):
        sizes = []
        for count in (10, 40):
            pois = sample_uniform(medium_terrain, count, seed=8)
            engine = GeodesicEngine(medium_terrain, pois, points_per_edge=0)
            oracle = SEOracle(engine, epsilon=0.25, seed=1).build()
            sizes.append(oracle.size_bytes())
        assert sizes[1] > sizes[0]
