"""Triangulated irregular network (TIN) terrain surface.

The paper's terrain model (Section 2): a set ``V`` of vertices with 3D
coordinates, a set ``E`` of edges and a set of triangular faces; ``N =
|V|``.  :class:`TriangleMesh` stores vertices and faces as numpy arrays
and derives everything else lazily: the undirected edge set, edge
lengths (3D Euclidean), vertex/face adjacency, and a planar face-location
grid used to drop arbitrary ``(x, y)`` points onto the surface (the
paper's A2A query generation does exactly this projection).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["TriangleMesh", "MeshError"]


class MeshError(ValueError):
    """Raised for structurally invalid mesh input."""


class TriangleMesh:
    """An immutable triangle mesh (terrain surface).

    Parameters
    ----------
    vertices:
        ``(N, 3)`` float array of vertex coordinates.
    faces:
        ``(M, 3)`` int array of vertex indices, counter-clockwise when
        viewed from above for terrains (not enforced).

    Notes
    -----
    The mesh is validated on construction: indices must be in range and
    faces non-degenerate (three distinct vertices).  Use
    :mod:`repro.terrain.validation` for deeper diagnostics.
    """

    def __init__(self, vertices: np.ndarray, faces: np.ndarray):
        vertices = np.asarray(vertices, dtype=float)
        faces = np.asarray(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError(f"vertices must be (N, 3), got {vertices.shape}")
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshError(f"faces must be (M, 3), got {faces.shape}")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise MeshError("face indices out of range")
        degenerate = (
            (faces[:, 0] == faces[:, 1])
            | (faces[:, 1] == faces[:, 2])
            | (faces[:, 0] == faces[:, 2])
        )
        if degenerate.any():
            raise MeshError(
                f"{int(degenerate.sum())} degenerate faces (repeated vertex)"
            )
        self._vertices = vertices
        self._vertices.setflags(write=False)
        self._faces = faces
        self._faces.setflags(write=False)
        # Lazy caches.
        self._edge_array: Optional[np.ndarray] = None
        self._edges: Optional[List[Tuple[int, int]]] = None
        self._edge_faces: Optional[Dict[Tuple[int, int], List[int]]] = None
        self._vertex_neighbors: Optional[List[List[int]]] = None
        self._vertex_faces: Optional[List[List[int]]] = None
        self._location_grid: Optional["_FaceLocationGrid"] = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> np.ndarray:
        """``(N, 3)`` read-only vertex coordinates."""
        return self._vertices

    @property
    def faces(self) -> np.ndarray:
        """``(M, 3)`` read-only face vertex indices."""
        return self._faces

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_faces(self) -> int:
        return len(self._faces)

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def __repr__(self) -> str:
        return (
            f"TriangleMesh(vertices={self.num_vertices}, "
            f"faces={self.num_faces})"
        )

    # ------------------------------------------------------------------
    # derived topology
    # ------------------------------------------------------------------
    @property
    def edge_array(self) -> np.ndarray:
        """``(E, 2)`` int64 undirected edges ``(u, v)``, ``u < v``, in
        sorted order: :attr:`edges` as one read-only array."""
        if self._edge_array is None:
            low, high = self._face_sides()
            keys = np.unique(low * self.num_vertices + high)
            edges = np.stack(np.divmod(keys, self.num_vertices), axis=1)
            edges.setflags(write=False)
            self._edge_array = edges
        return self._edge_array

    @property
    def edges(self) -> List[Tuple[int, int]]:
        """Sorted list of undirected edges as ``(u, v)`` with ``u < v``."""
        if self._edges is None:
            self._edges = list(map(tuple, self.edge_array.tolist()))
        return self._edges

    @property
    def edge_faces(self) -> Dict[Tuple[int, int], List[int]]:
        """Map from undirected edge to the list of incident face ids.

        Each list ascends by face id; the keys run in the order the
        faces first reach each edge (face by face, sides ``ab``, ``bc``,
        ``ac``).
        """
        if self._edge_faces is None:
            low, high = self._face_sides()
            keys = low * self.num_vertices + high
            # Sides grouped by edge (in :attr:`edges` order), each group
            # in face order.
            order = np.argsort(keys, kind="stable")
            _, starts = np.unique(keys[order], return_index=True)
            faces = (order // 3).tolist()
            bounds = starts.tolist() + [order.size]
            lists = [faces[a:b] for a, b in zip(bounds, bounds[1:])]
            edges = self.edges
            self._edge_faces = {edges[i]: lists[i]
                                for i in np.argsort(order[starts]).tolist()}
        return self._edge_faces

    def _face_sides(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every face's sides ``ab``, ``bc``, ``ac`` as ``(low, high)``
        vertex id arrays, face-major (side ``s`` is on face ``s // 3``)."""
        u = self._faces[:, [0, 1, 0]].ravel()
        v = self._faces[:, [1, 2, 2]].ravel()
        return np.minimum(u, v), np.maximum(u, v)

    @property
    def vertex_neighbors(self) -> List[List[int]]:
        """Adjacency list: neighbouring vertex ids per vertex."""
        if self._vertex_neighbors is None:
            neighbors: List[List[int]] = [[] for _ in range(self.num_vertices)]
            for u, v in self.edges:
                neighbors[u].append(v)
                neighbors[v].append(u)
            self._vertex_neighbors = neighbors
        return self._vertex_neighbors

    @property
    def vertex_faces(self) -> List[List[int]]:
        """Incidence list: face ids touching each vertex."""
        if self._vertex_faces is None:
            incident: List[List[int]] = [[] for _ in range(self.num_vertices)]
            for face_id, face in enumerate(self._faces):
                for vertex in face:
                    incident[int(vertex)].append(face_id)
            self._vertex_faces = incident
        return self._vertex_faces

    def faces_adjacent_to(self, face_id: int) -> List[int]:
        """Face ids sharing an edge or a vertex with ``face_id`` (incl. it)."""
        result = set()
        for vertex in self._faces[face_id]:
            result.update(self.vertex_faces[int(vertex)])
        return sorted(result)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def edge_length(self, u: int, v: int) -> float:
        """3D Euclidean length of the edge ``(u, v)``."""
        delta = self._vertices[u] - self._vertices[v]
        return float(math.sqrt(float(delta @ delta)))

    def edge_lengths(self) -> np.ndarray:
        """Lengths of all edges, aligned with :attr:`edges`."""
        edge_array = self.edge_array
        if edge_array.size == 0:
            return np.zeros(0)
        delta = self._vertices[edge_array[:, 0]] - self._vertices[edge_array[:, 1]]
        return np.sqrt((delta * delta).sum(axis=1))

    def face_area(self, face_id: int) -> float:
        """3D area of a face."""
        a, b, c = self._faces[face_id]
        ab = self._vertices[b] - self._vertices[a]
        ac = self._vertices[c] - self._vertices[a]
        return 0.5 * float(np.linalg.norm(np.cross(ab, ac)))

    def face_areas(self) -> np.ndarray:
        """3D areas of all faces."""
        a = self._vertices[self._faces[:, 0]]
        b = self._vertices[self._faces[:, 1]]
        c = self._vertices[self._faces[:, 2]]
        cross = np.cross(b - a, c - a)
        return 0.5 * np.sqrt((cross * cross).sum(axis=1))

    def surface_area(self) -> float:
        """Total 3D surface area."""
        return float(self.face_areas().sum())

    def face_angles(self, face_id: int) -> Tuple[float, float, float]:
        """Interior angles (radians) at the three corners of a face."""
        corners = self._vertices[self._faces[face_id]]
        angles = []
        for i in range(3):
            u = corners[(i + 1) % 3] - corners[i]
            v = corners[(i + 2) % 3] - corners[i]
            denom = np.linalg.norm(u) * np.linalg.norm(v)
            cosine = float(np.clip(u @ v / denom, -1.0, 1.0))
            angles.append(math.acos(cosine))
        return tuple(angles)  # type: ignore[return-value]

    def min_inner_angle(self) -> float:
        """Minimum interior angle θ over all faces (paper's θ parameter)."""
        best = math.pi
        for face_id in range(self.num_faces):
            best = min(best, min(self.face_angles(face_id)))
        return best

    def bounding_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(min_corner, max_corner)`` of the vertex cloud."""
        return self._vertices.min(axis=0), self._vertices.max(axis=0)

    def xy_extent(self) -> Tuple[float, float]:
        """Planar extent ``(width_x, width_y)`` of the covered region."""
        low, high = self.bounding_box()
        return float(high[0] - low[0]), float(high[1] - low[1])

    def face_centroid(self, face_id: int) -> np.ndarray:
        """3D centroid of a face."""
        return self._vertices[self._faces[face_id]].mean(axis=0)

    # ------------------------------------------------------------------
    # point location / surface projection
    # ------------------------------------------------------------------
    def locate_face(self, x: float, y: float) -> int:
        """Face whose planar projection contains ``(x, y)``, or ``-1``.

        Used by A2A query generation: "computed the point on the terrain
        surface whose projection on the x-y plane is (x, y)".
        """
        if self._location_grid is None:
            self._location_grid = _FaceLocationGrid(self)
        return self._location_grid.locate(x, y)

    def project_onto_surface(self, x: float, y: float) -> Optional[np.ndarray]:
        """Lift planar ``(x, y)`` to the surface point above it, or None.

        The z value is barycentric interpolation over the containing
        face, which is exactly the terrain height at ``(x, y)``.
        """
        face_id = self.locate_face(x, y)
        if face_id < 0:
            return None
        weights = self.barycentric_weights(face_id, x, y)
        corners = self._vertices[self._faces[face_id]]
        return weights @ corners

    def barycentric_weights(self, face_id: int, x: float, y: float) -> np.ndarray:
        """Planar barycentric weights of ``(x, y)`` within ``face_id``."""
        (ax, ay), (bx, by), (cx, cy) = self._vertices[self._faces[face_id]][:, :2]
        det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
        if abs(det) < 1e-30:
            raise MeshError(f"face {face_id} is planar-degenerate")
        w0 = ((by - cy) * (x - cx) + (cx - bx) * (y - cy)) / det
        w1 = ((cy - ay) * (x - cx) + (ax - cx) * (y - cy)) / det
        return np.array([w0, w1, 1.0 - w0 - w1])

    def contains_point_2d(self, face_id: int, x: float, y: float,
                          tolerance: float = 1e-9) -> bool:
        """Whether the planar projection of ``face_id`` covers ``(x, y)``."""
        try:
            weights = self.barycentric_weights(face_id, x, y)
        except MeshError:
            return False
        return bool((weights >= -tolerance).all())


class _FaceLocationGrid:
    """Uniform planar grid over face bounding boxes for point location.

    Cell ``(x, y)`` lists every face whose bounding box overlaps it, in
    ascending face id: ``faces[starts[c]:starts[c + 1]]`` for ``c = x *
    ny + y``.
    """

    def __init__(self, mesh: TriangleMesh, target_faces_per_cell: float = 2.0):
        self._mesh = mesh
        low, high = mesh.bounding_box()
        self._x0, self._y0 = float(low[0]), float(low[1])
        width = max(high[0] - low[0], 1e-12)
        height = max(high[1] - low[1], 1e-12)
        # A point farther than the mesh's own extent outside its box is
        # in no face; barycentric tests on it could overflow.
        self._reach = (self._x0 - width, float(high[0]) + width,
                       self._y0 - height, float(high[1]) + height)
        cells = max(1, int(math.sqrt(max(mesh.num_faces, 1)
                                     / target_faces_per_cell)))
        self._nx = self._ny = cells
        self._dx = width / cells
        self._dy = height / cells
        corners = mesh.vertices[:, :2][mesh.faces]  # (M, 3, 2)
        min_cx, min_cy = self._cells(corners.min(axis=1))
        max_cx, max_cy = self._cells(corners.max(axis=1))
        # Each face spans a rectangle of cells, visited column-major.
        span_y = max_cy - min_cy + 1
        count = (max_cx - min_cx + 1) * span_y
        face = np.repeat(np.arange(mesh.num_faces), count)
        rank = np.arange(face.size) - np.repeat(np.cumsum(count) - count,
                                                count)
        cell = ((min_cx[face] + rank // span_y[face]) * self._ny
                + min_cy[face] + rank % span_y[face])
        self._faces = face[np.argsort(cell, kind="stable")]
        self._starts = np.zeros(self._nx * self._ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell, minlength=self._nx * self._ny),
                  out=self._starts[1:])

    def _cell(self, x: float, y: float) -> Tuple[int, int]:
        cell_x = int((x - self._x0) / self._dx)
        cell_y = int((y - self._y0) / self._dy)
        return (min(max(cell_x, 0), self._nx - 1),
                min(max(cell_y, 0), self._ny - 1))

    def _cells(self, xy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_cell` of every row of ``xy``."""
        cell_x = ((xy[:, 0] - self._x0) / self._dx).astype(np.int64)
        cell_y = ((xy[:, 1] - self._y0) / self._dy).astype(np.int64)
        return (np.clip(cell_x, 0, self._nx - 1),
                np.clip(cell_y, 0, self._ny - 1))

    def cell_faces(self, cell_x: int, cell_y: int) -> List[int]:
        """Face ids whose bounding box overlaps the cell, ascending."""
        cell = cell_x * self._ny + cell_y
        return self._faces[self._starts[cell]:self._starts[cell + 1]].tolist()

    def locate(self, x: float, y: float) -> int:
        low_x, high_x, low_y, high_y = self._reach
        if not (low_x <= x <= high_x and low_y <= y <= high_y):
            return -1  # also NaN
        for face_id in self.cell_faces(*self._cell(x, y)):
            if self._mesh.contains_point_2d(face_id, x, y):
                return face_id
        return -1
