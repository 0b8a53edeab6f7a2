"""Golden tests: vectorized proximity queries == scalar references.

The public kNN / range / RNN functions dispatch to a batched path when
the oracle supports ``query_batch``; the ``*_scalar`` functions remain
the executable specification.  This suite pins exact (set *and* order
*and* tie-break) agreement between both paths on real oracles, plus
the explicit unreachable-POI semantics and the RNN self/edge cases on
synthetic distance matrices.
"""

import math

import numpy as np
import pytest

from repro.baselines import FullAPSPBaseline
from repro.core import SEOracle
from repro.geodesic import GeodesicEngine
from repro.queries import (
    k_nearest_neighbors,
    k_nearest_neighbors_scalar,
    nearest_neighbor,
    range_query,
    range_query_scalar,
    reverse_nearest_neighbors,
    reverse_nearest_neighbors_scalar,
)
from repro.terrain import make_terrain, sample_uniform


class MatrixOracle:
    """Batched oracle over an explicit distance matrix (test double)."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)

    def query(self, source: int, target: int) -> float:
        return float(self.matrix[source, target])

    def query_batch(self, sources, targets) -> np.ndarray:
        return self.matrix[np.asarray(sources, dtype=np.intp),
                           np.asarray(targets, dtype=np.intp)]


class ScalarOnlyOracle:
    """The same matrix without a batch path (exercises the fallback)."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)

    def query(self, source: int, target: int) -> float:
        return float(self.matrix[source, target])


@pytest.fixture(scope="module")
def setup():
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=61)
    pois = sample_uniform(mesh, 14, seed=62)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    exact = FullAPSPBaseline(engine).build()
    oracle = SEOracle(engine, epsilon=0.1, seed=3).build()
    oracle.compiled()
    return len(pois), exact, oracle


class TestGoldenAgainstScalar:
    """Vectorized path == scalar reference on real oracles."""

    def test_knn_golden(self, setup):
        n, exact, oracle = setup
        for backend in (exact, oracle):
            for source in range(n):
                for k in (0, 1, 3, n - 1, n + 5):
                    assert k_nearest_neighbors(backend, source, k, n) \
                        == k_nearest_neighbors_scalar(backend, source,
                                                      k, n)

    def test_range_golden(self, setup):
        n, exact, oracle = setup
        radii = [0.0, exact.query(0, 5), exact.query(0, 5) * 0.999,
                 1e12]
        for backend in (exact, oracle):
            for source in range(n):
                for radius in radii:
                    assert range_query(backend, source, radius, n) \
                        == range_query_scalar(backend, source, radius, n)

    def test_rnn_golden(self, setup):
        n, exact, oracle = setup
        for backend in (exact, oracle):
            for source in range(n):
                assert reverse_nearest_neighbors(backend, source, n) \
                    == reverse_nearest_neighbors_scalar(backend, source, n)

    def test_rnn_golden_with_restricted_scope(self, setup):
        """num_pois below the oracle's n scopes the query: POIs outside
        the prefix must not act as disqualifying third POIs."""
        n, exact, oracle = setup
        scope = n - 6
        for backend in (exact, oracle):
            for source in range(scope):
                assert reverse_nearest_neighbors(backend, source, scope) \
                    == reverse_nearest_neighbors_scalar(backend, source,
                                                        scope)

    def test_knn_and_range_with_restricted_scope(self, setup):
        n, exact, oracle = setup
        scope = n - 6
        radius = exact.query(0, 5)
        for backend in (exact, oracle):
            for source in range(scope):
                assert k_nearest_neighbors(backend, source, 3, scope) \
                    == k_nearest_neighbors_scalar(backend, source, 3,
                                                  scope)
                assert range_query(backend, source, radius, scope) \
                    == range_query_scalar(backend, source, radius, scope)

    def test_scalar_fallback_matches_batched(self, setup):
        """A no-batch oracle over the same matrix returns the same."""
        n, exact, _ = setup
        batched = MatrixOracle(exact.matrix())
        plain = ScalarOnlyOracle(exact.matrix())
        for source in range(0, n, 3):
            assert k_nearest_neighbors(plain, source, 4, n) \
                == k_nearest_neighbors(batched, source, 4, n)
            assert reverse_nearest_neighbors(plain, source, n) \
                == reverse_nearest_neighbors(batched, source, n)

    def test_range_boundary_is_inclusive(self, setup):
        n, exact, _ = setup
        radius = exact.query(0, 5)
        result = range_query(exact, 0, radius, n)
        assert 5 in {poi for poi, _ in result}


class TestTieBreaking:
    """argpartition's arbitrary boundary must not leak into results."""

    @pytest.fixture()
    def tied(self):
        # d(0, .) = [-, 2, 1, 2, 2, 3]: three-way tie at distance 2
        # straddles every k in {2, 3}.
        matrix = np.full((6, 6), 9.0)
        np.fill_diagonal(matrix, 0.0)
        matrix[0, 1:] = [2.0, 1.0, 2.0, 2.0, 3.0]
        return MatrixOracle(matrix)

    def test_knn_tie_break_by_poi_index(self, tied):
        for k in range(7):
            got = k_nearest_neighbors(tied, 0, k, 6)
            want = k_nearest_neighbors_scalar(tied, 0, k, 6)
            assert got == want
        assert k_nearest_neighbors(tied, 0, 2, 6) == [(2, 1.0), (1, 2.0)]
        assert k_nearest_neighbors(tied, 0, 3, 6) \
            == [(2, 1.0), (1, 2.0), (3, 2.0)]

    def test_range_tie_order(self, tied):
        assert range_query(tied, 0, 2.0, 6) \
            == [(2, 1.0), (1, 2.0), (3, 2.0), (4, 2.0)]


class TestUnreachableSemantics:
    """Non-finite distances: excluded from kNN/range, inert in RNN."""

    @pytest.fixture()
    def split_world(self):
        # POIs {0,1,2} and {3,4} live on disconnected components;
        # 4 additionally reports nan towards 2 (defective backend).
        matrix = np.array([
            [0.0, 1.0, 4.0, np.inf, np.inf],
            [1.0, 0.0, 2.0, np.inf, np.inf],
            [4.0, 2.0, 0.0, np.inf, np.inf],
            [np.inf, np.inf, np.inf, 0.0, 5.0],
            [np.inf, np.inf, np.nan, 5.0, 0.0],
        ])
        return MatrixOracle(matrix)

    def test_knn_excludes_unreachable(self, split_world):
        assert k_nearest_neighbors(split_world, 0, 10, 5) \
            == [(1, 1.0), (2, 4.0)]
        assert k_nearest_neighbors(split_world, 4, 10, 5) == [(3, 5.0)]

    def test_knn_matches_scalar_reference(self, split_world):
        plain = ScalarOnlyOracle(split_world.matrix)
        for source in range(5):
            for k in (1, 3, 5):
                assert k_nearest_neighbors(split_world, source, k, 5) \
                    == k_nearest_neighbors_scalar(plain, source, k, 5)

    def test_nearest_neighbor_raises_when_all_unreachable(self):
        matrix = np.full((3, 3), np.inf)
        np.fill_diagonal(matrix, 0.0)
        oracle = MatrixOracle(matrix)
        with pytest.raises(ValueError):
            nearest_neighbor(oracle, 0, 3)

    def test_range_excludes_unreachable(self, split_world):
        assert range_query(split_world, 0, 1e12, 5) \
            == [(1, 1.0), (2, 4.0)]
        assert range_query(split_world, 4, math.inf, 5) == [(3, 5.0)]

    def test_range_rejects_nan_radius(self, split_world):
        # NaN compares false both ways: `radius < 0` let it through
        # and it matched no POI.
        plain = ScalarOnlyOracle(split_world.matrix)
        with pytest.raises(ValueError, match="non-negative"):
            range_query(split_world, 0, math.nan, 5)
        with pytest.raises(ValueError, match="non-negative"):
            range_query_scalar(plain, 0, math.nan, 5)

    def test_rnn_excludes_unreachable_candidates(self, split_world):
        # 3 and 4 cannot reach 0: never in RNN(0).  1's NN is 0.
        assert reverse_nearest_neighbors(split_world, 0, 5) == [1]
        # Unreachable "others" never disqualify: RNN(3) keeps 4 even
        # though 4's distances to 0..2 are inf/nan.
        assert reverse_nearest_neighbors(split_world, 3, 5) == [4]

    def test_rnn_matches_scalar_reference(self, split_world):
        plain = ScalarOnlyOracle(split_world.matrix)
        for source in range(5):
            assert reverse_nearest_neighbors(split_world, source, 5) \
                == reverse_nearest_neighbors_scalar(plain, source, 5)


class TestRNNEdgeCases:
    def test_two_poi_world_is_mutual(self):
        """With one candidate and no third POI, RNN always holds."""
        matrix = np.array([[0.0, 7.0], [7.0, 0.0]])
        oracle = MatrixOracle(matrix)
        assert reverse_nearest_neighbors(oracle, 0, 2) == [1]
        assert reverse_nearest_neighbors(oracle, 1, 2) == [0]

    def test_candidate_self_distance_is_ignored(self):
        """A POI is its own nearest candidate (d=0 on the diagonal) —
        the zero must not disqualify it from every RNN set."""
        matrix = np.array([
            [0.0, 2.0, 9.0],
            [2.0, 0.0, 8.0],
            [9.0, 8.0, 0.0],
        ])
        oracle = MatrixOracle(matrix)
        # 1's nearest other POI is 0 (2 < 8): 1 in RNN(0) despite
        # d(1, 1) == 0 being the row minimum; 2 is out (8 < 9).
        assert reverse_nearest_neighbors(oracle, 0, 3) == [1]
        assert reverse_nearest_neighbors_scalar(oracle, 0, 3) == [1]

    def test_equidistant_other_keeps_candidate(self):
        """Strict comparison: a tie with a third POI does not disqualify."""
        matrix = np.array([
            [0.0, 3.0, 3.0],
            [3.0, 0.0, 3.0],
            [3.0, 3.0, 0.0],
        ])
        oracle = MatrixOracle(matrix)
        assert reverse_nearest_neighbors(oracle, 0, 3) == [1, 2]
        assert reverse_nearest_neighbors_scalar(oracle, 0, 3) == [1, 2]

    @pytest.mark.parametrize("source_of", [lambda n: -1, lambda n: -n,
                                           lambda n: n],
                             ids=["-1", "-n", "n"])
    def test_source_outside_table_raises_like_scalar(self, setup,
                                                     source_of):
        """A source outside [0, n) is an error on the dense path too,
        not a row counted from the end of the table."""
        n, _, oracle = setup
        compiled = oracle.compiled()
        source = source_of(n)
        with pytest.raises(IndexError) as scalar:
            reverse_nearest_neighbors_scalar(compiled, source)
        with pytest.raises(IndexError) as vectorised:
            reverse_nearest_neighbors(compiled, source)
        assert str(vectorised.value) == str(scalar.value) \
            == f"POI ids out of range [0, {n})"


class TestScalarOracleFallbackGolden:
    """Golden coverage for the kernel-backed oracle families.

    DynamicSEOracle and KAlgo now satisfy the ``DistanceIndex``
    protocol, so the public proximity functions route them through the
    batched path; the results must still match the ``*_scalar``
    executable spec exactly — including a dynamic oracle whose overlay
    (freshly inserted POIs) answers via delta-row SSADs rather than
    the SE pair set.
    """

    @pytest.fixture(scope="class")
    def dynamic_oracle(self):
        from repro.core import DynamicSEOracle
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=63)
        pois = sample_uniform(mesh, 10, seed=64)
        oracle = DynamicSEOracle(mesh, pois, epsilon=0.25,
                                 rebuild_factor=2.0, seed=5).build()
        # Two overlay POIs: proximity scans now mix base pairs (SE
        # lookups) with overlay pairs (exact SSAD answers).
        low, high = mesh.bounding_box()
        span_x = float(high[0]) - float(low[0])
        span_y = float(high[1]) - float(low[1])
        for fx, fy in ((0.3, 0.6), (0.7, 0.2)):
            oracle.insert(float(low[0]) + fx * span_x,
                          float(low[1]) + fy * span_y)
        assert oracle.overlay_size == 2
        return oracle

    @pytest.fixture(scope="class")
    def kalgo_oracle(self):
        from repro.baselines import KAlgo
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=65)
        pois = sample_uniform(mesh, 12, seed=66)
        return KAlgo(mesh, pois, epsilon=0.5, points_per_edge=1).build()

    def test_dynamic_oracle_serves_the_protocol(self, dynamic_oracle):
        """The PR-5 refactor: the dynamic oracle answers batches too,
        bit-identically to its scalar path (overlay included)."""
        from repro.core import DistanceIndex
        assert isinstance(dynamic_oracle, DistanceIndex)
        assert dynamic_oracle.supports_updates
        ids = dynamic_oracle.live_ids()
        sources = np.repeat(ids, ids.size)
        targets = np.tile(ids, ids.size)
        batched = dynamic_oracle.query_batch(sources, targets)
        for index in range(sources.size):
            assert batched[index] == dynamic_oracle.query(
                int(sources[index]), int(targets[index]))

    def test_dynamic_knn_golden(self, dynamic_oracle):
        n = dynamic_oracle.num_active
        for source in range(n):
            for k in (1, 3, n + 2):
                assert k_nearest_neighbors(dynamic_oracle, source, k, n) \
                    == k_nearest_neighbors_scalar(dynamic_oracle,
                                                  source, k, n)

    def test_dynamic_range_golden(self, dynamic_oracle):
        n = dynamic_oracle.num_active
        radius = dynamic_oracle.query(0, 1)
        for source in range(n):
            assert range_query(dynamic_oracle, source, radius, n) \
                == range_query_scalar(dynamic_oracle, source, radius, n)

    def test_dynamic_rnn_golden(self, dynamic_oracle):
        n = dynamic_oracle.num_active
        for source in range(n):
            assert reverse_nearest_neighbors(dynamic_oracle, source, n) \
                == reverse_nearest_neighbors_scalar(dynamic_oracle,
                                                    source, n)

    def test_dynamic_knn_includes_overlay_pois(self, dynamic_oracle):
        """An inserted POI can appear as a neighbour of a base POI."""
        n = dynamic_oracle.num_active
        overlay_ids = {10, 11}  # external ids of the two inserts
        seen = set()
        for source in range(10):
            seen |= {poi for poi, _ in
                     k_nearest_neighbors(dynamic_oracle, source,
                                         n - 1, n)}
        assert overlay_ids <= seen

    def test_kalgo_knn_golden(self, kalgo_oracle):
        n = kalgo_oracle.engine.num_pois
        for source in range(n):
            for k in (1, 4, n + 1):
                assert k_nearest_neighbors(kalgo_oracle, source, k, n) \
                    == k_nearest_neighbors_scalar(kalgo_oracle,
                                                  source, k, n)

    def test_kalgo_range_golden(self, kalgo_oracle):
        n = kalgo_oracle.engine.num_pois
        radius = kalgo_oracle.query(0, 1) * 1.5
        for source in range(n):
            assert range_query(kalgo_oracle, source, radius, n) \
                == range_query_scalar(kalgo_oracle, source, radius, n)

    def test_kalgo_rnn_golden(self, kalgo_oracle):
        n = kalgo_oracle.engine.num_pois
        for source in range(n):
            assert reverse_nearest_neighbors(kalgo_oracle, source, n) \
                == reverse_nearest_neighbors_scalar(kalgo_oracle,
                                                    source, n)

    def test_kalgo_matches_exact_backend(self, kalgo_oracle):
        """K-Algo's searches are exact on its metric graph, so its
        proximity results equal a full-APSP backend over the same
        graph — cross-validating the scalar route end to end."""
        engine = kalgo_oracle.engine
        n = engine.num_pois
        exact = FullAPSPBaseline(engine).build()
        for source in range(n):
            assert k_nearest_neighbors(kalgo_oracle, source, 3, n) \
                == k_nearest_neighbors(exact, source, 3, n)
            assert reverse_nearest_neighbors(kalgo_oracle, source, n) \
                == reverse_nearest_neighbors(exact, source, n)
