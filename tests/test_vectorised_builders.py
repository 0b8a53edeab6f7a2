"""The array builders of the mesh, the Steiner placement and the face
grid equal the per-element loops they replaced, byte for byte.

The loops are kept here as references: the sorted edge list and each
edge's ascending face list (in the order the faces first reach the
edges), the Steiner positions, each face-grid cell's face list, and
the geodesic CSR priced over the reference placement.  They run on
the DEM fixture and on 2^3+1 to 2^6+1 grids, at 0 to 3 Steiner points
per edge.
"""

import math
import pathlib

import numpy as np
import pytest

from repro.geodesic import GeodesicGraph, place_steiner_points
from repro.geodesic.graph import _clique_csr
from repro.terrain import make_terrain
from repro.terrain.ingest import dem_to_mesh, read_dem
from repro.terrain.mesh import _FaceLocationGrid

DEM_FIXTURE = pathlib.Path(__file__).parent / "data" / "dem_fixture.asc"


def reference_edges(mesh):
    """The per-face loop that built ``edges`` and ``edge_faces``."""
    edge_faces = {}
    for face_id, (a, b, c) in enumerate(mesh.faces):
        for u, v in ((a, b), (b, c), (a, c)):
            key = (int(u), int(v)) if u < v else (int(v), int(u))
            edge_faces.setdefault(key, []).append(face_id)
    return sorted(edge_faces), edge_faces


def reference_positions(mesh, edges, points_per_edge):
    """The per-edge loop that placed the Steiner points."""
    if points_per_edge == 0:
        return np.zeros((0, 3))
    positions = []
    vertices = mesh.vertices
    fractions = np.arange(1, points_per_edge + 1) / (points_per_edge + 1)
    for u, v in edges:
        start, end = vertices[u], vertices[v]
        for fraction in fractions:
            positions.append(start + fraction * (end - start))
    return np.asarray(positions)


def reference_buckets(grid):
    """The per-face loop (four reductions per face) that filled the
    face grid's cells."""
    buckets = {}
    xy = grid._mesh.vertices[:, :2]
    for face_id, face in enumerate(grid._mesh.faces):
        corners = xy[face]
        min_cx, min_cy = grid._cell(corners[:, 0].min(), corners[:, 1].min())
        max_cx, max_cy = grid._cell(corners[:, 0].max(), corners[:, 1].max())
        for cell_x in range(min_cx, max_cx + 1):
            for cell_y in range(min_cy, max_cy + 1):
                buckets.setdefault((cell_x, cell_y), []).append(face_id)
    return buckets


def reference_boundaries(mesh, edges, k):
    """Sorted face boundary ids, edges looked up in the reference list."""
    n = mesh.num_vertices
    corners = np.sort(mesh.faces.astype(np.int64), axis=1)
    keys = np.array([u * n + v for u, v in edges], dtype=np.int64)
    sides = corners[:, [0, 0, 1]] * n + corners[:, [1, 2, 2]]
    edge_ids = np.sort(np.searchsorted(keys, sides), axis=1)
    steiner = n + edge_ids[:, :, None] * k + np.arange(k)
    return np.hstack([corners, steiner.reshape(len(corners), 3 * k)])


@pytest.fixture(scope="module", params=["dem", 3, 4, 5, 6])
def mesh(request):
    """The DEM fixture's mesh, or a 2^e+1 grid."""
    if request.param == "dem":
        return dem_to_mesh(read_dem(DEM_FIXTURE))[0]
    return make_terrain(grid_exponent=request.param, seed=request.param)


class TestMeshEdges:
    def test_edges_and_edge_faces_match_the_face_loop(self, mesh):
        edges, edge_faces = reference_edges(mesh)
        assert mesh.edges == edges
        assert mesh.num_edges == len(edges)
        assert mesh.edge_array.dtype == np.int64
        assert mesh.edge_array.tolist() == [list(edge) for edge in edges]
        # Same keys in the same order, each face list ascending.
        assert list(mesh.edge_faces.items()) == list(edge_faces.items())
        assert all(type(u) is int and type(v) is int for u, v in mesh.edges[:5])


class TestSteinerPlacement:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_positions_match_the_edge_loop(self, mesh, k):
        edges, _ = reference_edges(mesh)
        placement = place_steiner_points(mesh, k)
        expected = reference_positions(mesh, edges, k)
        assert placement.positions.shape == expected.shape
        assert placement.positions.tobytes() == expected.tobytes()
        assert placement.count == k * len(edges)
        # The derived edge map is the edge-major rule.
        expected_points = {
            edge: list(range(i * k, i * k + k)) for i, edge in enumerate(edges)
        }
        assert list(placement.edge_points) == (edges if k else [])
        assert placement.edge_points == (expected_points if k else {})

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_graph_csr_matches_reference_placement(self, mesh, k):
        """The CSR priced over the reference loops' edges and positions
        is the graph's, byte for byte."""
        edges, _ = reference_edges(mesh)
        positions = reference_positions(mesh, edges, k)
        points = np.vstack([mesh.vertices, positions])
        boundary = reference_boundaries(mesh, edges, k)
        expected = _clique_csr(boundary, points, None)
        csr = GeodesicGraph(mesh, k).csr
        for name in ("indptr", "indices", "weights"):
            got, want = getattr(csr, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name


class TestFaceGrid:
    def test_cells_match_the_face_loop(self, mesh):
        grid = _FaceLocationGrid(mesh)
        buckets = reference_buckets(grid)
        for cell_x in range(grid._nx):
            for cell_y in range(grid._ny):
                expected = buckets.get((cell_x, cell_y), [])
                assert grid.cell_faces(cell_x, cell_y) == expected

    def test_locate_finds_face_centroids(self, mesh):
        step = max(1, mesh.num_faces // 50)
        for face_id in range(0, mesh.num_faces, step):
            x, y = mesh.face_centroid(face_id)[:2]
            assert mesh.locate_face(float(x), float(y)) == face_id
        low, high = mesh.bounding_box()
        far = float(high[0]) + 3.0 * float(high[0] - low[0]) + 1.0
        assert mesh.locate_face(far, float(low[1])) == -1
        assert mesh.locate_face(math.nan, 0.0) == -1
