"""Tests for the TriangleMesh substrate."""

import math
import warnings

import numpy as np
import pytest

from repro.terrain import MeshError, TriangleMesh


@pytest.fixture
def unit_square():
    """Two triangles forming the unit square in the z=0 plane."""
    vertices = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
    ])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    return TriangleMesh(vertices, faces)


@pytest.fixture
def tetra():
    """A tetrahedron (closed surface, every edge has two faces)."""
    vertices = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, 1.0, 0.0],
        [0.5, 0.5, 1.0],
    ])
    faces = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 2, 3]])
    return TriangleMesh(vertices, faces)


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(MeshError):
            TriangleMesh(np.zeros((3, 2)), np.array([[0, 1, 2]]))
        with pytest.raises(MeshError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2, 0]]))

    def test_out_of_range_face_rejected(self):
        with pytest.raises(MeshError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))
        with pytest.raises(MeshError):
            TriangleMesh(np.zeros((3, 3)), np.array([[-1, 1, 2]]))

    def test_degenerate_face_rejected(self):
        with pytest.raises(MeshError):
            TriangleMesh(np.zeros((3, 3)), np.array([[0, 0, 1]]))

    def test_vertices_read_only(self, unit_square):
        with pytest.raises(ValueError):
            unit_square.vertices[0, 0] = 5.0

    def test_empty_faces_allowed(self):
        mesh = TriangleMesh(np.zeros((2, 3)), np.zeros((0, 3), dtype=int))
        assert mesh.num_faces == 0
        assert mesh.num_edges == 0

    def test_repr(self, unit_square):
        assert "vertices=4" in repr(unit_square)


class TestTopology:
    def test_edge_set(self, unit_square):
        assert unit_square.edges == [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        assert unit_square.num_edges == 5

    def test_edge_faces(self, unit_square):
        assert unit_square.edge_faces[(0, 2)] == [0, 1]  # shared diagonal
        assert unit_square.edge_faces[(0, 1)] == [0]

    def test_tetra_all_edges_interior(self, tetra):
        assert all(len(f) == 2 for f in tetra.edge_faces.values())
        assert tetra.num_edges == 6

    def test_vertex_neighbors(self, unit_square):
        assert sorted(unit_square.vertex_neighbors[0]) == [1, 2, 3]
        assert sorted(unit_square.vertex_neighbors[1]) == [0, 2]

    def test_vertex_faces(self, unit_square):
        assert unit_square.vertex_faces[0] == [0, 1]
        assert unit_square.vertex_faces[1] == [0]

    def test_faces_adjacent_to(self, unit_square):
        assert unit_square.faces_adjacent_to(0) == [0, 1]


class TestGeometry:
    def test_edge_length(self, unit_square):
        assert unit_square.edge_length(0, 1) == pytest.approx(1.0)
        assert unit_square.edge_length(0, 2) == pytest.approx(math.sqrt(2))

    def test_edge_lengths_alignment(self, unit_square):
        lengths = unit_square.edge_lengths()
        for (u, v), length in zip(unit_square.edges, lengths):
            assert length == pytest.approx(unit_square.edge_length(u, v))

    def test_face_area(self, unit_square):
        assert unit_square.face_area(0) == pytest.approx(0.5)
        assert unit_square.surface_area() == pytest.approx(1.0)

    def test_face_areas_vectorised(self, tetra):
        areas = tetra.face_areas()
        expected = [tetra.face_area(i) for i in range(4)]
        np.testing.assert_allclose(areas, expected)

    def test_face_angles_sum_to_pi(self, tetra):
        for face_id in range(tetra.num_faces):
            assert sum(tetra.face_angles(face_id)) == pytest.approx(math.pi)

    def test_min_inner_angle(self, unit_square):
        assert unit_square.min_inner_angle() == pytest.approx(math.pi / 4)

    def test_bounding_box_and_extent(self, unit_square):
        low, high = unit_square.bounding_box()
        np.testing.assert_allclose(low, [0, 0, 0])
        np.testing.assert_allclose(high, [1, 1, 0])
        assert unit_square.xy_extent() == (1.0, 1.0)

    def test_face_centroid(self, unit_square):
        np.testing.assert_allclose(unit_square.face_centroid(0),
                                   [2 / 3, 1 / 3, 0])


class TestPointLocation:
    def test_locate_inside(self, unit_square):
        face = unit_square.locate_face(0.75, 0.25)
        assert face == 0
        face = unit_square.locate_face(0.25, 0.75)
        assert face == 1

    def test_locate_outside(self, unit_square):
        assert unit_square.locate_face(2.0, 2.0) == -1
        assert unit_square.locate_face(-0.5, 0.5) == -1

    @pytest.mark.parametrize("x,y", [
        (1e308, 0.5), (-1e308, 0.5), (0.5, 1e308), (math.inf, 0.5),
        (0.5, -math.inf), (math.nan, 0.5), (0.5, math.nan)])
    def test_locate_far_outside_or_nan(self, unit_square, x, y):
        # No overflow warning and no exception: just "in no face".
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert unit_square.locate_face(x, y) == -1
            assert unit_square.project_onto_surface(x, y) is None

    def test_locate_on_shared_edge(self, unit_square):
        assert unit_square.locate_face(0.5, 0.5) in (0, 1)

    def test_project_interpolates_height(self):
        vertices = np.array([
            [0.0, 0.0, 0.0],
            [2.0, 0.0, 2.0],
            [0.0, 2.0, 0.0],
        ])
        mesh = TriangleMesh(vertices, np.array([[0, 1, 2]]))
        point = mesh.project_onto_surface(1.0, 0.0)
        np.testing.assert_allclose(point, [1.0, 0.0, 1.0])

    def test_project_outside_returns_none(self, unit_square):
        assert unit_square.project_onto_surface(5.0, 5.0) is None

    def test_barycentric_weights_sum_to_one(self, unit_square):
        weights = unit_square.barycentric_weights(0, 0.6, 0.2)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights >= -1e-12).all()

    def test_contains_point_2d(self, unit_square):
        assert unit_square.contains_point_2d(0, 0.9, 0.05)
        assert not unit_square.contains_point_2d(0, 0.05, 0.9)

    def test_locate_on_larger_terrain(self):
        from repro.terrain import make_terrain
        mesh = make_terrain(grid_exponent=4, extent=(100.0, 100.0), seed=5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.uniform(1, 99, 2)
            face = mesh.locate_face(float(x), float(y))
            assert face >= 0
            assert mesh.contains_point_2d(face, float(x), float(y))
