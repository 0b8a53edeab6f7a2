"""SP-Oracle — the Steiner-point-based baseline of Djidjev & Sommer [12].

The paper's strongest competitor.  It is *POI-independent*: it builds a
Steiner graph ``G_eps`` over the whole terrain and indexes exact
distances between Steiner points, so its size scales with ``N`` (and
``1/ε``) regardless of how few POIs there are — the second drawback
Section 1.3 calls out.

Our implementation follows the adapted oracle described in Section
4.2.1 verbatim:

* ``G_eps``: the :class:`~repro.geodesic.graph.GeodesicGraph` with a
  density derived from ε (``points_per_edge ≈ 1/sqrt(ε)``, the paper's
  ``O(1/(sin θ sqrt(ε)) log 1/ε)`` rate with the constants dropped);
* the index stores exact pairwise distances between all Steiner
  points/vertices of ``G_eps`` (computed by repeated Dijkstra — [12]'s
  internal separator compression is replaced by the plain table, which
  can only *flatter* SP-Oracle's query time, making SE's measured win
  conservative; see DESIGN.md substitution 5);
* a query between two surface points gathers the Steiner sets ``X_s`` /
  ``X_t`` on the containing + adjacent faces and returns
  ``min d(s, p_s) + d_index(p_s, p_t) + d(p_t, t)``.

V2V queries go through the same neighbourhood machinery (not a bare
table lookup), matching the adapted-query cost model of [12].
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geodesic.dijkstra import row_block
from ..geodesic.graph import GeodesicGraph
from ..terrain.mesh import TriangleMesh
from ..terrain.poi import POISet

__all__ = ["SPOracle", "steiner_density_for_epsilon"]


def steiner_density_for_epsilon(epsilon: float) -> int:
    """Map ε to a per-edge Steiner density (the ``1/sqrt(ε)`` rate)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return max(1, round(1.0 / math.sqrt(epsilon)))


@dataclass
class SPOracleStats:
    """Build-time breakdown."""

    graph_seconds: float = 0.0
    apsp_seconds: float = 0.0
    total_seconds: float = 0.0
    num_sites: int = 0


class SPOracle:
    """The adapted Steiner-point distance oracle of [12].

    Parameters
    ----------
    mesh:
        Terrain surface.
    epsilon:
        Error parameter; controls the Steiner density.
    points_per_edge:
        Explicit density override (defaults to the ε-derived value).

    Warning
    -------
    The index is Θ(S²) in the number of Steiner sites — this is the
    scalability wall the paper demonstrates.  Keep meshes small.
    """

    def __init__(self, mesh: TriangleMesh, epsilon: float,
                 points_per_edge: Optional[int] = None):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self._mesh = mesh
        self.epsilon = epsilon
        self._density = (points_per_edge if points_per_edge is not None
                         else steiner_density_for_epsilon(epsilon))
        self._graph: Optional[GeodesicGraph] = None
        self._matrix: Optional[np.ndarray] = None
        self.stats = SPOracleStats()
        self._built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> "SPOracle":
        started = time.perf_counter()
        tick = time.perf_counter()
        self._graph = GeodesicGraph(self._mesh, self._density)
        self.stats.graph_seconds = time.perf_counter() - tick

        sites = self._graph.num_nodes
        tick = time.perf_counter()
        matrix = np.empty((sites, sites), dtype=np.float32)
        everything = np.arange(sites)
        for source in range(sites):
            # One search per call: the build stays [12]'s repeated
            # single-source Dijkstra, the cost the figures time.
            block, _ = row_block(self._graph.csr, [source], everything)
            matrix[source] = block[0]
        self._matrix = matrix
        self.stats.apsp_seconds = time.perf_counter() - tick
        self.stats.total_seconds = time.perf_counter() - started
        self.stats.num_sites = sites
        self._built = True
        return self

    @property
    def is_built(self) -> bool:
        return self._built

    @property
    def num_sites(self) -> int:
        self._require_built()
        return self._graph.num_nodes

    def size_bytes(self) -> int:
        """Index size under the 8-bytes-per-stored-distance model."""
        self._require_built()
        return 8 * self._matrix.shape[0] * self._matrix.shape[1]

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("oracle not built; call build() first")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _neighborhood(self, x: float, y: float
                      ) -> Tuple[np.ndarray, List[int]]:
        face_id = self._mesh.locate_face(x, y)
        if face_id < 0:
            raise ValueError(f"({x}, {y}) is outside the terrain")
        point = self._mesh.project_onto_surface(x, y)
        sites: List[int] = []
        seen = set()
        for adjacent in self._mesh.faces_adjacent_to(face_id):
            for node in self._graph.face_boundary_nodes(adjacent):
                if node not in seen:
                    seen.add(node)
                    sites.append(node)
        return point, sites

    def query_xy(self, source_xy: Tuple[float, float],
                 target_xy: Tuple[float, float]) -> float:
        """ε-approximate distance between two surface points (A2A)."""
        self._require_built()
        source, sites_s = self._neighborhood(*source_xy)
        target, sites_t = self._neighborhood(*target_xy)
        matrix = self._matrix
        best = math.inf
        hops_s = [(float(np.linalg.norm(source - self._graph.position(p))), p)
                  for p in sites_s]
        hops_t = [(float(np.linalg.norm(target - self._graph.position(p))), p)
                  for p in sites_t]
        for hop_s, site_s in hops_s:
            if hop_s >= best:
                continue
            row = matrix[site_s]
            for hop_t, site_t in hops_t:
                total = hop_s + float(row[site_t]) + hop_t
                if total < best:
                    best = total
        return best

    def query_p2p(self, pois: POISet, source: int, target: int) -> float:
        """P2P query (the Section 4.2.1 adaptation)."""
        source_poi = pois[source]
        target_poi = pois[target]
        if source == target:
            return 0.0
        return self.query_xy((source_poi.x, source_poi.y),
                             (target_poi.x, target_poi.y))

    def p2p_index(self, pois: POISet):
        """This oracle bound to a POI set as a ``DistanceIndex``.

        See :class:`~repro.core.index.P2PIndexAdapter`: the adapter
        serves the id-based query/query_batch/query_matrix surface over
        :meth:`query_p2p`, so SP-Oracle slots into protocol consumers
        (harness, proximity queries) without per-family dispatch.
        """
        from ..core.index import P2PIndexAdapter
        self._require_built()
        return P2PIndexAdapter(self, pois)

    def query_vertex(self, vertex_a: int, vertex_b: int) -> float:
        """V2V query through the same neighbourhood machinery."""
        if vertex_a == vertex_b:
            return 0.0
        a = self._mesh.vertices[vertex_a]
        b = self._mesh.vertices[vertex_b]
        return self.query_xy((float(a[0]), float(a[1])),
                             (float(b[0]), float(b[1])))
