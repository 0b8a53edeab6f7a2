"""The geodesic graph: terrain vertices + Steiner points + attached sites.

``GeodesicGraph`` is the weighted graph on which every shortest-path
computation in this repository runs.  Its nodes are:

* the mesh vertices (ids ``0 .. N-1``),
* the Steiner points (ids ``N .. N+S-1``),
* dynamically *attached sites* — POIs or arbitrary query points —
  appended after construction (ids ``N+S ..``).

Within every face, all nodes on the face boundary (3 corners plus the
Steiner points of its 3 edges) form a clique weighted by 3D Euclidean
distance; consecutive nodes along each edge are chained as well.  A
shortest path in this graph corresponds to a path on the surface that
crosses faces through boundary points, the classic ε-approximation of
the geodesic metric (see :mod:`repro.geodesic.steiner`).

Attached sites connect to every boundary node of their containing face
(and to other sites on the same face), which is how the paper's SSAD
handles POIs: "all points in P on each face expanded together with the
vertex are computed with their geodesic distances".

Graph representation (CSR + overlay)
------------------------------------
``self.csr`` — a :class:`~repro.datastructures.csr.CSRGraph` — holds
every edge.  The mesh + Steiner section is built straight into its
``indptr`` / ``indices`` / ``weights`` arrays: each face's sorted
boundary ids give ``C(3+3k, 2)`` pairs, the first occurrence of each
pair becomes an edge, lengths are priced in one NumPy call, and rows
list neighbours in first-occurrence order.  Sites enter through the
CSR's overlay; :meth:`freeze_sites` merges a stable batch (the engine's
POI set) into the static arrays, so build-time SSADs run on flat arrays
and only sites attached later can be detached.

Everything before the first site — the Steiner placement, the node
positions, the face boundaries, the site-free CSR arrays and the weight
model — is one immutable :class:`GraphCore` (:attr:`GeodesicGraph.core`).
:meth:`GeodesicGraph.from_core` starts a new graph on an existing core
without placing or pricing anything again; the dynamic oracle's
rebuilds attach their POI sets that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datastructures.csr import CSRGraph
from ..terrain.mesh import TriangleMesh
from ..terrain.poi import POISet
from .dijkstra import load_scipy
from .steiner import SteinerPlacement, place_steiner_points

__all__ = ["GeodesicGraph", "GraphCore"]


@dataclass(frozen=True)
class GraphCore:
    """The site-free part of a :class:`GeodesicGraph`, shared read-only.

    Attributes
    ----------
    mesh, placement:
        The terrain and its Steiner points.
    points:
        ``(N + S, 3)`` positions of the vertex then Steiner nodes.
    face_boundary:
        ``(M, 3+3k)`` sorted boundary node ids of every face.
    indptr, indices, weights:
        The CSR arrays of the face cliques, before any site.
    weight_fn:
        The edge-weight model (``None``: Euclidean length).

    Nothing writes these arrays after construction: sites go to a
    graph's own CSR overlay, and freezing them builds new arrays.
    """

    mesh: TriangleMesh
    placement: SteinerPlacement
    points: np.ndarray
    face_boundary: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    weight_fn: Optional[Callable]


def _face_boundaries(mesh: TriangleMesh, k: int) -> np.ndarray:
    """``(M, 3+3k)`` sorted boundary node ids of every face.

    The corners come first (vertex ids are below every Steiner id),
    then the Steiner points of the face's three edges in edge order:
    edge ``i`` of ``mesh.edges`` holds Steiner ids ``i*k .. i*k+k-1``
    (see :class:`~repro.geodesic.steiner.SteinerPlacement`).
    """
    n = mesh.num_vertices
    corners = np.sort(mesh.faces.astype(np.int64), axis=1)
    edges = mesh.edge_array
    # mesh.edges is sorted, so its u * n + v keys are too.
    sides = corners[:, [0, 0, 1]] * n + corners[:, [1, 2, 2]]
    edge_ids = np.sort(np.searchsorted(edges[:, 0] * n + edges[:, 1],
                                       sides), axis=1)
    steiner = n + edge_ids[:, :, None] * k + np.arange(k)
    return np.hstack([corners, steiner.reshape(len(corners), 3 * k)])


def _clique_csr(boundary: np.ndarray, points: np.ndarray,
                weight_fn: Optional[Callable]) -> CSRGraph:
    """Freeze the per-face boundary cliques into CSR arrays."""
    base = len(points)
    first, second = np.triu_indices(boundary.shape[1], 1)
    us = boundary[:, first].ravel()
    vs = boundary[:, second].ravel()
    # Faces sharing an edge repeat its pairs; keep each pair's first
    # occurrence, in face order.
    _, seen = np.unique(us * base + vs, return_index=True)
    seen.sort()
    us, vs = us[seen], vs[seen]
    weights = _price(points[us], points[vs], weight_fn)
    keep = ~np.isinf(weights)  # weight models may delete edges
    us, vs, weights = us[keep], vs[keep], weights[keep]
    # Both directions of edge e sit at 2e and 2e+1, so every row
    # lists its neighbours in edge order.
    return CSRGraph.from_entries(np.stack([us, vs], axis=1).ravel(),
                                 np.stack([vs, us], axis=1).ravel(),
                                 np.repeat(weights, 2), base)


def _price(a: np.ndarray, b: np.ndarray,
           weight_fn: Optional[Callable]) -> np.ndarray:
    """Weights of the edges ``a[i]``–``b[i]`` (rows of coordinates).

    Lengths must come from NumPy's dot routine (BLAS ``ddot``
    rounding, like the reference loop's ``delta @ delta``); ``einsum``
    or a sum of squares changes the last bit.  ``weight_fn`` is
    called once per edge, in order.
    """
    if weight_fn is None:
        delta = a - b
        return np.sqrt((delta[:, None, :] @ delta[:, :, None]).ravel())
    return np.array([float(weight_fn(p, q)) for p, q in zip(a, b)],
                    dtype=np.float64)


class GeodesicGraph:
    """Weighted graph approximating the geodesic metric of a terrain.

    Parameters
    ----------
    mesh:
        The terrain surface.
    points_per_edge:
        Steiner density; 0 gives the bare vertex graph.

    Notes
    -----
    The edges live in a frozen CSR core plus a dynamic site overlay (see
    the module docstring).  The graph never removes static nodes;
    callers that need a transient attachment (the A2A query path) use
    :meth:`attach_site` + :meth:`detach_last_sites`.
    """

    def __init__(self, mesh: TriangleMesh, points_per_edge: int = 2,
                 weight_fn: Optional[Callable] = None):
        # The process's first graph loads SciPy, so no search pays it.
        load_scipy()
        placement = place_steiner_points(mesh, points_per_edge)
        points = np.vstack([mesh.vertices, placement.positions])
        boundary = _face_boundaries(mesh, placement.points_per_edge)
        csr = _clique_csr(boundary, points, weight_fn)
        self._adopt(GraphCore(mesh, placement, points, boundary,
                              csr.indptr, csr.indices, csr.weights,
                              weight_fn))

    @classmethod
    def from_core(cls, core: GraphCore) -> "GeodesicGraph":
        """A site-free graph on ``core``: equal, array for array, to
        ``GeodesicGraph(core.mesh, k, weight_fn=core.weight_fn)``, but
        nothing is placed or priced again."""
        graph = cls.__new__(cls)
        graph._adopt(core)
        return graph

    def _adopt(self, core: GraphCore) -> None:
        self._core = core
        self._mesh = core.mesh
        self._weight_fn = core.weight_fn
        self._placement = core.placement
        self._num_vertices = core.mesh.num_vertices
        self._num_steiner = core.placement.count
        self._points = core.points
        self._face_boundary = core.face_boundary
        self._site_points: List[np.ndarray] = []
        self._site_faces: List[int] = []
        self._sites_by_face: Dict[int, List[int]] = {}
        self._csr = CSRGraph(core.indptr, core.indices, core.weights)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def mesh(self) -> TriangleMesh:
        return self._mesh

    @property
    def core(self) -> GraphCore:
        """The immutable site-free core (see :class:`GraphCore`)."""
        return self._core

    @property
    def num_nodes(self) -> int:
        return len(self._points) + len(self._site_points)

    @property
    def num_edges(self) -> int:
        return self._csr.num_entries // 2

    @property
    def num_vertices(self) -> int:
        """Terrain vertex count (node ids below this are mesh vertices)."""
        return self._num_vertices

    @property
    def num_steiner(self) -> int:
        return self._num_steiner

    @property
    def points_per_edge(self) -> int:
        return self._placement.points_per_edge

    def position(self, node: int) -> np.ndarray:
        if node < len(self._points):
            return self._points[node]
        return self._site_points[node - len(self._points)]

    def neighbors(self, node: int) -> Tuple[List[int], List[float]]:
        return self._csr.neighbors(node)

    @property
    def csr(self) -> CSRGraph:
        """The CSR core the Dijkstra kernel runs on."""
        return self._csr

    def steiner_nodes(self) -> range:
        """Node ids of the Steiner points."""
        return range(self._num_vertices, self._num_vertices + self._num_steiner)

    def face_boundary_nodes(self, face_id: int) -> List[int]:
        """Corner + Steiner nodes on the boundary of ``face_id``."""
        return self._face_boundary[face_id].tolist()

    def edge_steiner_nodes(self, u: int, v: int) -> List[int]:
        """Graph node ids of the Steiner points on mesh edge ``(u, v)``.

        Ordered from the smaller to the larger endpoint (the placement
        convention); empty when the density is 0 or the edge does not
        exist.  Used by the tiled builder to promote the Steiner points
        of a tile-cut edge to portal sites.
        """
        key = (int(u), int(v)) if u < v else (int(v), int(u))
        offset = self._num_vertices
        return [offset + p
                for p in self._placement.edge_points.get(key, [])]

    def size_bytes(self) -> int:
        """Byte-count model: 8 bytes per node coordinate triple member,
        16 per directed CSR entry (id + weight)."""
        return 24 * self.num_nodes + 16 * 2 * self.num_edges

    # ------------------------------------------------------------------
    # site attachment
    # ------------------------------------------------------------------
    def attach_site(self, position: Sequence[float], face_id: int,
                    vertex_id: Optional[int] = None) -> int:
        """Attach a surface point as a graph node; returns its node id.

        Points coinciding with a mesh vertex reuse the vertex node (no
        new node is created).  Otherwise the new node connects to every
        boundary node of its face and to previously attached sites on
        the same face.
        """
        if vertex_id is not None:
            return int(vertex_id)
        node = self.num_nodes
        position = np.asarray(position, dtype=float)
        targets = self.face_boundary_nodes(face_id)
        targets.extend(self._sites_by_face.get(face_id, []))
        others = np.array([self.position(other) for other in targets])
        weights = _price(np.broadcast_to(position, others.shape), others,
                         self._weight_fn)
        keep = ~np.isinf(weights)
        self._csr.attach_node(np.asarray(targets)[keep], weights[keep])
        self._site_points.append(position)
        self._site_faces.append(face_id)
        self._sites_by_face.setdefault(face_id, []).append(node)
        return node

    def attach_pois(self, pois: POISet) -> List[int]:
        """Attach every POI of a set; returns their node ids in order.

        The batch is assumed stable (POIs are never detached), so the
        CSR overlay is frozen afterwards — subsequent searches run
        entirely on flat arrays.
        """
        nodes = [
            self.attach_site(poi.position, poi.face_id, poi.vertex_id)
            for poi in pois
        ]
        self.freeze_sites()
        return nodes

    def freeze_sites(self) -> None:
        """Merge the CSR overlay into the frozen static section.

        Call after attaching a batch of long-lived sites; transient
        attach/detach cycles (A2A queries) still work afterwards and
        land in a fresh overlay.  Frozen sites can no longer be
        detached.
        """
        if self._csr.num_overlay:
            self._csr = self._csr.frozen()

    def detach_last_sites(self, count: int) -> None:
        """Remove the ``count`` most recently attached site nodes.

        Sites are removed LIFO.  Only overlay sites (attached since the
        last :meth:`freeze_sites`) can go: asking for more raises
        ``ValueError`` and leaves the graph unchanged.  Used by
        transient A2A attachments.
        """
        if count > self._csr.num_overlay:
            raise ValueError("cannot detach mesh, Steiner or frozen nodes")
        for _ in range(count):
            self._csr.detach_last()
            self._site_points.pop()
            self._sites_by_face[self._site_faces.pop()].pop()
