"""The array builders of the mesh, the Steiner placement, the face
grid and the raster triangulator equal the per-element loops they
replaced, byte for byte.

The loops are kept here as references: the sorted edge list and each
edge's ascending face list (in the order the faces first reach the
edges), the Steiner positions, each face-grid cell's face list, the
geodesic CSR priced over the reference placement, and the per-cell
triangle loops of ``heightfield_to_mesh`` and ``dem_to_mesh``.  They
run on the DEM fixture and on 2^3+1 to 2^6+1 grids, at 0 to 3 Steiner
points per edge; the triangle loops on full grids and on random
nodata masks.
"""

import math
import pathlib

import numpy as np
import pytest

from repro.core.serialize import workload_fingerprint
from repro.geodesic import GeodesicEngine, GeodesicGraph, place_steiner_points
from repro.geodesic.graph import _clique_csr
from repro.terrain import make_terrain
from repro.terrain.generation import grid_faces, heightfield_to_mesh
from repro.terrain.ingest import (
    DEMGrid,
    IngestError,
    dem_to_mesh,
    place_pois,
    read_dem,
    read_poi_csv,
)
from repro.terrain.mesh import _FaceLocationGrid

DATA = pathlib.Path(__file__).parent / "data"
DEM_FIXTURE = DATA / "dem_fixture.asc"
POI_FIXTURE = DATA / "dem_pois.csv"


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


def reference_heightfield_faces(rows, cols):
    """The per-cell loop of ``heightfield_to_mesh``."""
    faces = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            a, b = i * cols + j, (i + 1) * cols + j
            c, d = (i + 1) * cols + j + 1, i * cols + j + 1
            if (i + j) % 2 == 0:
                faces += [(a, b, c), (a, c, d)]
            else:
                faces += [(a, b, d), (b, c, d)]
    return np.asarray(faces, dtype=np.int64)


def reference_dem_faces(vertex_id):
    """The per-cell loop of ``dem_to_mesh``: a triangle only where all
    three corners carry an id (``-1`` marks nodata)."""
    faces = []

    def emit(*corners):
        ids = [int(vertex_id[corner]) for corner in corners]
        if min(ids) >= 0:
            faces.append(tuple(ids))

    nrows, ncols = vertex_id.shape
    for r in range(nrows - 1):
        for c in range(ncols - 1):
            nw, sw, se, ne = (r, c), (r + 1, c), (r + 1, c + 1), (r, c + 1)
            if (r + c) % 2 == 0:
                emit(nw, sw, se)
                emit(nw, se, ne)
            else:
                emit(nw, sw, ne)
                emit(sw, se, ne)
    return np.asarray(faces, dtype=np.int64).reshape(-1, 3)


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


class TestGridFaces:
    @pytest.mark.parametrize("rows", [2, 3, 8, 33])
    @pytest.mark.parametrize("cols", [2, 5, 17, 33])
    def test_full_grid_matches_the_heightfield_loop(self, rows, cols):
        heights = np.random.default_rng(rows * 100 + cols).random((rows, cols))
        mesh = heightfield_to_mesh(heights, 10.0, 12.0)
        expected = reference_heightfield_faces(rows, cols)
        assert mesh.faces.dtype == np.int64
        assert mesh.faces.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_nodata_masks_match_the_dem_loop(self, seed):
        rng = np.random.default_rng(seed)
        nrows, ncols = rng.integers(3, 24, size=2)
        heights = rng.random((nrows, ncols)) * 100.0
        heights[rng.random((nrows, ncols)) < rng.uniform(0.0, 0.4)] = np.nan
        valid = np.isfinite(heights)
        vertex_id = np.full(heights.shape, -1, dtype=np.int64)
        vertex_id[valid] = np.arange(valid.sum())
        expected = reference_dem_faces(vertex_id)
        assert grid_faces(vertex_id).tobytes() == expected.tobytes()
        lats = np.linspace(46.1, 46.0, nrows)
        lons = np.linspace(7.0, 7.1, ncols)
        grid = DEMGrid(heights, lats, lons)
        if not len(expected):
            with pytest.raises(IngestError):
                dem_to_mesh(grid)
            return
        mesh, _ = dem_to_mesh(grid)
        assert mesh.faces.dtype == np.int64
        assert mesh.faces.tobytes() == expected.tobytes()

    def test_dem_fixture_keeps_its_fingerprint(self):
        """``workload_fingerprint`` hashes the faces, so a reordered
        face list would fail the fingerprint check of every store
        built from the fixture; this is its value under the loops."""
        mesh, projection = dem_to_mesh(read_dem(DEM_FIXTURE))
        _, latlons = read_poi_csv(POI_FIXTURE)
        pois = place_pois(mesh, projection, latlons)
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        assert workload_fingerprint(engine) == "e0564ddbc42bb59b"
