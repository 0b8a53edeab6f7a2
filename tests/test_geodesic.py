"""Tests for the geodesic substrate: Steiner placement, graph, Dijkstra."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastructures import CSRGraph
from repro.geodesic import (
    GeodesicEngine,
    GeodesicGraph,
    bidirectional_distance,
    dijkstra,
    place_steiner_points,
)
from repro.terrain import (
    TriangleMesh,
    make_terrain,
    pois_from_vertices,
    sample_uniform,
)


@pytest.fixture(scope="module")
def flat_square():
    """A flat 2x2-cell square of side 2 in the z=0 plane."""
    import numpy as np
    xs = np.linspace(0.0, 2.0, 3)
    vertices = []
    for x in xs:
        for y in xs:
            vertices.append([x, y, 0.0])
    vertices = np.asarray(vertices)

    def vid(i, j):
        return i * 3 + j

    faces = []
    for i in range(2):
        for j in range(2):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            faces.append((a, b, c))
            faces.append((a, c, d))
    return TriangleMesh(vertices, np.asarray(faces))


@pytest.fixture(scope="module")
def hilly():
    return make_terrain(grid_exponent=4, extent=(100.0, 100.0),
                        relief=20.0, seed=7)


class TestSteinerPlacement:
    def test_zero_density(self, flat_square):
        placement = place_steiner_points(flat_square, 0)
        assert placement.count == 0
        assert placement.edge_points == {}

    def test_negative_density_rejected(self, flat_square):
        with pytest.raises(ValueError):
            place_steiner_points(flat_square, -1)

    def test_count(self, flat_square):
        placement = place_steiner_points(flat_square, 3)
        assert placement.count == 3 * flat_square.num_edges

    def test_numbering_is_edge_major(self, flat_square):
        # The geodesic graph's array builder relies on this numbering.
        k = 3
        placement = place_steiner_points(flat_square, k)
        for i, edge in enumerate(flat_square.edges):
            assert placement.edge_points[edge] == list(range(i * k, i * k + k))

    def test_points_lie_on_edges(self, flat_square):
        placement = place_steiner_points(flat_square, 2)
        for (u, v), point_ids in placement.edge_points.items():
            start = flat_square.vertices[u]
            end = flat_square.vertices[v]
            for rank, pid in enumerate(point_ids, start=1):
                expected = start + rank / 3 * (end - start)
                np.testing.assert_allclose(placement.positions[pid], expected)


class TestGeodesicGraph:
    def test_vertex_graph_edges(self, flat_square):
        graph = GeodesicGraph(flat_square, points_per_edge=0)
        assert graph.num_nodes == flat_square.num_vertices
        assert graph.num_edges == flat_square.num_edges

    def test_steiner_graph_is_bigger(self, flat_square):
        sparse = GeodesicGraph(flat_square, points_per_edge=0)
        dense = GeodesicGraph(flat_square, points_per_edge=2)
        assert dense.num_nodes > sparse.num_nodes
        assert dense.num_edges > sparse.num_edges

    def test_adjacency_is_symmetric(self, flat_square):
        graph = GeodesicGraph(flat_square, points_per_edge=1)
        neighbors, weights = graph.csr.to_lists()
        for u in range(graph.num_nodes):
            for v, w in zip(neighbors[u], weights[u]):
                index = neighbors[v].index(u)
                assert weights[v][index] == pytest.approx(w)

    def test_weights_are_euclidean(self, flat_square):
        graph = GeodesicGraph(flat_square, points_per_edge=1)
        neighbors, weights = graph.csr.to_lists()
        for u in range(graph.num_nodes):
            for v, w in zip(neighbors[u], weights[u]):
                delta = graph.position(u) - graph.position(v)
                assert w == pytest.approx(float(np.linalg.norm(delta)))

    def test_attach_site_connects_to_face(self, flat_square):
        graph = GeodesicGraph(flat_square, points_per_edge=1)
        node = graph.attach_site((0.5, 0.25, 0.0), face_id=0)
        neighbors, _ = graph.neighbors(node)
        assert set(neighbors) == set(graph.face_boundary_nodes(0))

    def test_attach_vertex_poi_reuses_node(self, flat_square):
        graph = GeodesicGraph(flat_square, points_per_edge=1)
        before = graph.num_nodes
        node = graph.attach_site(tuple(flat_square.vertices[4]), face_id=0,
                                 vertex_id=4)
        assert node == 4
        assert graph.num_nodes == before

    def test_detach_restores_graph(self, flat_square):
        graph = GeodesicGraph(flat_square, points_per_edge=1)
        nodes_before = graph.num_nodes
        edges_before = graph.num_edges
        graph.attach_site((0.5, 0.25, 0.0), face_id=0)
        graph.attach_site((0.6, 0.2, 0.0), face_id=0)
        graph.detach_last_sites(2)
        assert graph.num_nodes == nodes_before
        assert graph.num_edges == edges_before

    def test_detach_non_site_rejected(self, flat_square):
        graph = GeodesicGraph(flat_square, points_per_edge=0)
        with pytest.raises(ValueError):
            graph.detach_last_sites(1)

    def test_two_sites_same_face_connected(self, flat_square):
        graph = GeodesicGraph(flat_square, points_per_edge=0)
        a = graph.attach_site((0.5, 0.25, 0.0), face_id=0)
        b = graph.attach_site((0.6, 0.2, 0.0), face_id=0)
        neighbors, _ = graph.neighbors(b)
        assert a in neighbors

    def test_size_bytes_positive(self, flat_square):
        assert GeodesicGraph(flat_square, 1).size_bytes() > 0


class TestSingleFace:
    """Known answers on one triangle: the graph is its boundary clique."""

    @pytest.fixture(scope="class")
    def triangle(self):
        vertices = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 1.0],
                             [0.5, 2.0, 2.0]])
        return TriangleMesh(vertices, np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("points_per_edge", [0, 1, 3])
    def test_clique_of_straight_lines(self, triangle, points_per_edge):
        graph = GeodesicGraph(triangle, points_per_edge=points_per_edge)
        size = 3 + 3 * points_per_edge
        assert graph.num_nodes == size
        assert graph.num_edges == math.comb(size, 2)
        for u in range(size):
            settled = dijkstra(graph.csr, u).distances
            for v in range(size):
                line = float(np.linalg.norm(graph.position(u)
                                            - graph.position(v)))
                assert settled[v] == line


class TestDijkstra:
    def _line_graph(self, weights):
        n = len(weights) + 1
        neighbors = [[] for _ in range(n)]
        edge_weights = [[] for _ in range(n)]
        for i, w in enumerate(weights):
            neighbors[i].append(i + 1)
            edge_weights[i].append(w)
            neighbors[i + 1].append(i)
            edge_weights[i + 1].append(w)
        return CSRGraph.from_lists(neighbors, edge_weights)

    def test_line_distances(self):
        adjacency = self._line_graph([1.0, 2.0, 3.0])
        result = dijkstra(adjacency, 0)
        assert result.distances == {0: 0.0, 1: 1.0, 2: 3.0, 3: 6.0}

    def test_radius_stopping(self):
        adjacency = self._line_graph([1.0] * 10)
        result = dijkstra(adjacency, 0, radius=3.5)
        assert set(result.distances) == {0, 1, 2, 3}
        assert result.frontier_min == pytest.approx(4.0)

    def test_targets_stopping(self):
        adjacency = self._line_graph([1.0] * 10)
        result = dijkstra(adjacency, 0, targets=[2, 4])
        assert 4 in result.distances
        assert 10 not in result.distances

    def test_single_target_early_exit(self):
        adjacency = self._line_graph([1.0] * 10)
        result = dijkstra(adjacency, 0, single_target=3)
        assert result.distances[3] == pytest.approx(3.0)
        assert result.settled_count == 4

    def test_source_in_targets(self):
        adjacency = self._line_graph([1.0])
        result = dijkstra(adjacency, 0, targets=[0])
        assert result.distances == {0: 0.0}

    def test_disconnected_targets_drain(self):
        neighbors = [[1], [0], [3], [2]]
        weights = [[1.0], [1.0], [1.0], [1.0]]
        result = dijkstra(CSRGraph.from_lists(neighbors, weights), 0,
                          targets=[3])
        assert 3 not in result.distances
        assert math.isinf(result.frontier_min)

    def test_path_reconstruction(self):
        adjacency = self._line_graph([1.0, 1.0, 1.0])
        result = dijkstra(adjacency, 0, return_parents=True)
        assert result.path_to(3) == [0, 1, 2, 3]

    def test_path_without_parents_raises(self):
        adjacency = self._line_graph([1.0])
        result = dijkstra(adjacency, 0)
        with pytest.raises(ValueError):
            result.path_to(1)

    def test_bidirectional_matches_unidirectional(self):
        adjacency = self._line_graph([2.0, 1.0, 4.0, 1.5])
        for target in range(5):
            expected = dijkstra(adjacency, 0).distances[target]
            assert bidirectional_distance(adjacency, 0, target) \
                == pytest.approx(expected)

    def test_bidirectional_disconnected(self):
        neighbors = [[1], [0], [], []]
        weights = [[1.0], [1.0], [], []]
        assert math.isinf(bidirectional_distance(
            CSRGraph.from_lists(neighbors, weights), 0, 3))

    def test_bidirectional_same_node(self):
        adjacency = self._line_graph([1.0])
        assert bidirectional_distance(adjacency, 1, 1) == 0.0


class TestGeodesicAccuracy:
    def test_flat_plane_distance_close_to_euclidean(self, flat_square):
        """On a flat surface the geodesic equals the Euclidean distance.

        Graph distances over every vertex pair stay within 10% of the
        straight line, never below it, and the worst ratio falls as the
        Steiner density grows (1.0797, 1.0541, 1.0198 at k = 1, 2, 4).
        """
        pois = pois_from_vertices(flat_square,
                                  range(flat_square.num_vertices))
        worst = []
        for density in (1, 2, 4):
            engine = GeodesicEngine(flat_square, pois,
                                    points_per_edge=density)
            ratios = [
                engine.distance(a, b) / float(np.linalg.norm(
                    pois.positions[a] - pois.positions[b]))
                for a, b in itertools.combinations(range(engine.num_pois), 2)
            ]
            assert len(ratios) == 36
            assert 1.0 - 1e-12 <= min(ratios)
            assert max(ratios) <= 1.1
            worst.append(max(ratios))
        assert worst[0] > worst[1] > worst[2]

    def test_steiner_density_improves_accuracy(self, flat_square):
        pois = pois_from_vertices(flat_square, [1, 3])
        exact = float(np.linalg.norm(
            flat_square.vertices[1] - flat_square.vertices[3]))
        errors = {}
        for density in (0, 4):
            engine = GeodesicEngine(flat_square, pois, points_per_edge=density)
            errors[density] = engine.distance(0, 1) - exact
        # Graph distances always overestimate; densification tightens them.
        assert errors[0] >= errors[4] >= -1e-9
        assert errors[4] < 0.05 * exact

    def test_geodesic_at_least_euclidean(self, hilly):
        pois = sample_uniform(hilly, 10, seed=3)
        engine = GeodesicEngine(hilly, pois, points_per_edge=1)
        for i in range(0, 8, 2):
            geodesic = engine.distance(i, i + 1)
            euclidean = float(np.linalg.norm(
                pois.positions[i] - pois.positions[i + 1]))
            assert geodesic >= euclidean - 1e-9

    def test_triangle_inequality(self, hilly):
        pois = sample_uniform(hilly, 6, seed=4)
        engine = GeodesicEngine(hilly, pois, points_per_edge=1)
        d01 = engine.distance(0, 1)
        d12 = engine.distance(1, 2)
        d02 = engine.distance(0, 2)
        assert d02 <= d01 + d12 + 1e-9

    def test_symmetry(self, hilly):
        pois = sample_uniform(hilly, 4, seed=5)
        engine = GeodesicEngine(hilly, pois, points_per_edge=1)
        assert engine.distance(0, 3) == pytest.approx(engine.distance(3, 0))


class TestEngine:
    def test_distances_from_poi_cover_all(self, hilly):
        pois = sample_uniform(hilly, 12, seed=1)
        engine = GeodesicEngine(hilly, pois, points_per_edge=1)
        distances = engine.distances_from_poi(0)
        assert set(distances) == set(range(len(pois)))
        assert distances[0] == 0.0

    def test_distances_from_poi_radius(self, hilly):
        pois = sample_uniform(hilly, 12, seed=1)
        engine = GeodesicEngine(hilly, pois, points_per_edge=1)
        full = engine.distances_from_poi(0)
        radius = sorted(full.values())[5]
        limited = engine.distances_from_poi(0, radius=radius + 1e-9)
        assert all(dist <= radius + 1e-9 for dist in limited.values())
        for poi, dist in limited.items():
            assert dist == pytest.approx(full[poi])

    def test_pairwise_matches_ssad(self, hilly):
        pois = sample_uniform(hilly, 8, seed=2)
        engine = GeodesicEngine(hilly, pois, points_per_edge=1)
        full = engine.distances_from_poi(3)
        for j in (0, 5, 7):
            assert engine.distance(3, j) == pytest.approx(full[j])

    def test_counters(self, hilly):
        pois = sample_uniform(hilly, 5, seed=2)
        engine = GeodesicEngine(hilly, pois, points_per_edge=0)
        engine.reset_counters()
        engine.distance(0, 1)
        engine.distances_from_poi(2)
        assert engine.ssad_calls == 2
        assert engine.settled_nodes > 0

    def test_shortest_path_geometry(self, flat_square):
        pois = pois_from_vertices(flat_square, [0, 8])
        engine = GeodesicEngine(flat_square, pois, points_per_edge=3)
        dist, path = engine.shortest_path(0, 1)
        assert len(path) >= 2
        np.testing.assert_allclose(path[0], flat_square.vertices[0])
        np.testing.assert_allclose(path[-1], flat_square.vertices[8])
        segment_sum = sum(
            float(np.linalg.norm(path[i + 1] - path[i]))
            for i in range(len(path) - 1)
        )
        assert segment_sum == pytest.approx(dist)

    def test_attach_point_and_distance(self, hilly):
        pois = sample_uniform(hilly, 3, seed=6)
        engine = GeodesicEngine(hilly, pois, points_per_edge=1)
        node = engine.attach_point(50.0, 50.0)
        distance = engine.node_distance(node, engine.poi_node(0))
        assert distance > 0
        engine.detach_points(1)

    def test_attach_point_outside_raises(self, hilly):
        pois = sample_uniform(hilly, 3, seed=6)
        engine = GeodesicEngine(hilly, pois, points_per_edge=0)
        with pytest.raises(ValueError):
            engine.attach_point(1e9, 1e9)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 30))
def test_random_pair_respects_metric_axioms(seed):
    mesh = make_terrain(grid_exponent=3, extent=(50.0, 50.0),
                        relief=10.0, seed=seed)
    pois = sample_uniform(mesh, 4, seed=seed)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    d = [[engine.distance(i, j) for j in range(4)] for i in range(4)]
    for i in range(4):
        assert d[i][i] == 0.0
        for j in range(4):
            assert d[i][j] == pytest.approx(d[j][i], rel=1e-9)
            for k in range(4):
                assert d[i][j] <= d[i][k] + d[k][j] + 1e-6
