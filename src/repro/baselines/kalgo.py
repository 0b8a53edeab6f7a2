"""K-Algo — Kaul et al.'s on-the-fly approximate algorithm [19].

The best-known non-oracle competitor: no preprocessing beyond the
Steiner graph itself, every query runs a shortest-path search between
the two endpoints on ``G_eps``.  Its query cost is therefore dominated
by a term linear in ``N`` (with ``1/ε`` factors), which is exactly what
the paper's figures show dwarfing both oracles' query times.

Our implementation: attach the POIs to a Steiner graph whose density is
the ε-derived rate (shared with SP-Oracle), and answer each query with
an early-exit Dijkstra.  ``size_bytes`` is 0
— K-Algo maintains no index; the graph is the input representation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.index import DistanceIndexMixin, aligned_id_arrays
from ..geodesic.engine import GeodesicEngine
from ..terrain.mesh import TriangleMesh
from ..terrain.poi import POISet
from .sp_oracle import steiner_density_for_epsilon

__all__ = ["KAlgo"]


class KAlgo(DistanceIndexMixin):
    """On-the-fly ε-approximate geodesic distances (no oracle).

    Parameters
    ----------
    mesh:
        Terrain surface.
    pois:
        POI set queries refer to.
    epsilon:
        Error parameter; controls the Steiner density.
    points_per_edge:
        Explicit density override.
    """

    def __init__(self, mesh: TriangleMesh, pois: POISet, epsilon: float,
                 points_per_edge: Optional[int] = None):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        density = (points_per_edge if points_per_edge is not None
                   else steiner_density_for_epsilon(epsilon))
        self._engine = GeodesicEngine(mesh, pois, points_per_edge=density)

    @property
    def engine(self) -> GeodesicEngine:
        return self._engine

    @property
    def num_pois(self) -> int:
        return self._engine.num_pois

    # supports_updates / is_compiled / query_matrix come from
    # DistanceIndexMixin: no index exists to update, and every query
    # is an on-the-fly graph search — never compiled.

    def size_bytes(self) -> int:
        """K-Algo stores no index."""
        return 0

    def build(self) -> "KAlgo":
        """No-op (present for harness symmetry)."""
        return self

    def query(self, source: int, target: int) -> float:
        """ε-approximate geodesic distance between two POIs."""
        return self._engine.distance(source, target)

    def query_many(self, pairs) -> list:
        """Batched P2P queries (grouped multi-target searches)."""
        return self._engine.query_many(pairs)

    def query_batch(self, sources: Sequence[int],
                    targets: Sequence[int]) -> np.ndarray:
        """Batched :meth:`query` over aligned id arrays (float64).

        Same ``DistanceIndex`` surface as the compiled oracles; the
        work is still per-query graph searches, grouped so each
        distinct source runs one multi-target search.  Grouping keeps
        the search *direction* of every pair (no symmetric
        canonicalisation — float path sums accumulate per direction),
        so answers are bit-identical to a scalar :meth:`query` loop.
        """
        source_ids, target_ids = aligned_id_arrays(sources, targets)
        engine = self._engine
        by_source = {}
        for a, b in zip(source_ids.tolist(), target_ids.tolist()):
            if a != b:
                by_source.setdefault(a, set()).add(b)
        answers = {}
        for a, poi_bs in by_source.items():
            node_of = {engine.poi_node(b): b for b in poi_bs}
            result = engine.distances_from_node(engine.poi_node(a),
                                                targets=list(node_of))
            distances = result.distances
            for node, b in node_of.items():
                answers[(a, b)] = distances.get(node, math.inf)
        return np.array([0.0 if a == b else answers[(a, b)]
                         for a, b in zip(source_ids.tolist(),
                                         target_ids.tolist())],
                        dtype=np.float64)

    def query_xy(self, source_xy: Tuple[float, float],
                 target_xy: Tuple[float, float]) -> float:
        """A2A query: attach both points transiently and search."""
        node_s = self._engine.attach_point(*source_xy)
        node_t = self._engine.attach_point(*target_xy)
        try:
            return self._engine.node_distance(node_s, node_t)
        finally:
            self._engine.detach_points(2)
