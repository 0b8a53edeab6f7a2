"""Tests for the SP-Oracle, K-Algo and full-materialization baselines."""

import numpy as np
import pytest

from repro.baselines import (
    FullAPSPBaseline,
    KAlgo,
    SPOracle,
    steiner_density_for_epsilon,
)
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, pois_from_vertices, sample_uniform


@pytest.fixture(scope="module")
def terrain():
    return make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=51)


@pytest.fixture(scope="module")
def pois(terrain):
    return sample_uniform(terrain, 15, seed=52)


@pytest.fixture(scope="module")
def reference_engine(terrain, pois):
    return GeodesicEngine(terrain, pois, points_per_edge=2)


@pytest.fixture(scope="module")
def sp(terrain):
    return SPOracle(terrain, epsilon=0.25, points_per_edge=1).build()


class TestSteinerDensity:
    def test_rate(self):
        assert steiner_density_for_epsilon(1.0) == 1
        assert steiner_density_for_epsilon(0.25) == 2
        assert steiner_density_for_epsilon(0.05) >= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            steiner_density_for_epsilon(0.0)


class TestSPOracle:
    def test_epsilon_validation(self, terrain):
        with pytest.raises(ValueError):
            SPOracle(terrain, epsilon=-0.1)

    def test_query_before_build_raises(self, terrain):
        fresh = SPOracle(terrain, epsilon=0.25)
        with pytest.raises(RuntimeError):
            fresh.query_xy((0, 0), (1, 1))
        with pytest.raises(RuntimeError):
            fresh.size_bytes()

    def test_size_is_quadratic_in_sites(self, sp):
        assert sp.size_bytes() == 8 * sp.num_sites ** 2

    def test_stats(self, sp):
        assert sp.stats.total_seconds > 0
        assert sp.stats.num_sites == sp.num_sites

    def test_p2p_accuracy(self, sp, pois, reference_engine):
        for source, target in [(0, 7), (3, 12), (14, 1)]:
            approx = sp.query_p2p(pois, source, target)
            true = reference_engine.distance(source, target)
            assert approx == pytest.approx(true, rel=0.35)
            assert approx >= true * 0.75

    def test_p2p_same_poi(self, sp, pois):
        assert sp.query_p2p(pois, 4, 4) == 0.0

    def test_v2v_query(self, sp, terrain):
        reference = GeodesicEngine(terrain, pois_from_vertices(terrain, [5, 40]),
                                   points_per_edge=2)
        approx = sp.query_vertex(5, 40)
        true = reference.distance(0, 1)
        assert approx == pytest.approx(true, rel=0.35)

    def test_v2v_same_vertex(self, sp):
        assert sp.query_vertex(3, 3) == 0.0

    def test_xy_outside_raises(self, sp):
        with pytest.raises(ValueError):
            sp.query_xy((1e9, 1e9), (0.0, 0.0))

    def test_symmetry(self, sp):
        forward = sp.query_xy((20.0, 30.0), (70.0, 60.0))
        backward = sp.query_xy((70.0, 60.0), (20.0, 30.0))
        assert forward == pytest.approx(backward, rel=1e-5)


class TestKAlgo:
    def test_epsilon_validation(self, terrain, pois):
        with pytest.raises(ValueError):
            KAlgo(terrain, pois, epsilon=0.0)

    def test_no_index(self, terrain, pois):
        algo = KAlgo(terrain, pois, epsilon=0.25)
        assert algo.size_bytes() == 0
        assert algo.build() is algo

    def test_query_matches_engine(self, terrain, pois):
        algo = KAlgo(terrain, pois, epsilon=0.25, points_per_edge=2)
        reference = GeodesicEngine(terrain, pois, points_per_edge=2)
        for source, target in [(0, 5), (2, 11), (9, 3)]:
            assert algo.query(source, target) \
                == pytest.approx(reference.distance(source, target))

    def test_query_matches_whole_row(self, terrain, pois):
        # The early-exit search stops at the target with the distance
        # a whole-row search settles it at.
        algo = KAlgo(terrain, pois, epsilon=0.25, points_per_edge=1)
        engine = algo.engine
        for source, target in [(0, 5), (7, 13)]:
            row = engine.node_rows([engine.poi_node(source)],
                                   [engine.poi_node(target)])
            assert algo.query(source, target) == row[0, 0]

    def test_same_poi(self, terrain, pois):
        algo = KAlgo(terrain, pois, epsilon=0.25)
        assert algo.query(6, 6) == 0.0

    def test_query_xy_detaches(self, terrain, pois):
        algo = KAlgo(terrain, pois, epsilon=0.25, points_per_edge=1)
        nodes_before = algo.engine.graph.num_nodes
        distance = algo.query_xy((20.0, 20.0), (80.0, 80.0))
        assert distance > 0
        assert algo.engine.graph.num_nodes == nodes_before


class TestFullAPSP:
    def test_query_before_build(self, reference_engine):
        fresh = FullAPSPBaseline(reference_engine)
        with pytest.raises(RuntimeError):
            fresh.query(0, 1)

    def test_matrix_matches_pairwise(self, terrain, pois):
        engine = GeodesicEngine(terrain, pois, points_per_edge=1)
        baseline = FullAPSPBaseline(engine).build()
        for source, target in [(0, 3), (7, 12), (14, 14)]:
            assert baseline.query(source, target) \
                == pytest.approx(engine.distance(source, target))

    def test_size_quadratic(self, terrain, pois):
        engine = GeodesicEngine(terrain, pois, points_per_edge=0)
        baseline = FullAPSPBaseline(engine).build()
        assert baseline.size_bytes() == 8 * len(pois) ** 2

    def test_matrix_is_symmetric(self, terrain, pois):
        engine = GeodesicEngine(terrain, pois, points_per_edge=0)
        baseline = FullAPSPBaseline(engine).build()
        matrix = baseline.matrix()
        np.testing.assert_allclose(matrix, matrix.T, rtol=1e-9)
        assert (np.diag(matrix) == 0).all()

    def test_matrix_readonly(self, terrain, pois):
        engine = GeodesicEngine(terrain, pois, points_per_edge=0)
        baseline = FullAPSPBaseline(engine).build()
        with pytest.raises(ValueError):
            baseline.matrix()[0, 0] = 5.0

    def test_stats(self, terrain, pois):
        engine = GeodesicEngine(terrain, pois, points_per_edge=0)
        baseline = FullAPSPBaseline(engine).build()
        assert baseline.stats.ssad_calls == len(pois)
        assert baseline.stats.total_seconds > 0


class TestCrossMethodConsistency:
    def test_all_methods_agree_within_tolerance(self, terrain, pois,
                                                reference_engine):
        """SE, SP-Oracle, K-Algo and APSP must tell one coherent story."""
        from repro.core import SEOracle
        epsilon = 0.25
        se = SEOracle(GeodesicEngine(terrain, pois, points_per_edge=2),
                      epsilon=epsilon, seed=1).build()
        sp = SPOracle(terrain, epsilon=epsilon, points_per_edge=2).build()
        kalgo = KAlgo(terrain, pois, epsilon=epsilon, points_per_edge=2)
        for source, target in [(0, 8), (5, 13), (2, 10)]:
            true = reference_engine.distance(source, target)
            assert se.query(source, target) \
                == pytest.approx(true, rel=epsilon + 1e-6)
            assert kalgo.query(source, target) == pytest.approx(true)
            assert sp.query_p2p(pois, source, target) \
                == pytest.approx(true, rel=0.3)
