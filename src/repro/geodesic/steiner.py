"""Steiner point placement on terrain edges.

Every algorithm in the paper ultimately runs on a graph over the
terrain: the baselines [12, 19] explicitly introduce "Steiner points"
on faces/edges and connect them into a graph ``G_eps`` whose shortest
paths ε-approximate geodesics; our substitution for the exact C++
geodesic kernels (see DESIGN.md) is Dijkstra over the same kind of
graph, densified until the approximation error is negligible relative
to the oracle's ε.

:func:`place_steiner_points` implements the *fixed placement scheme*
(Lanthier et al.): ``points_per_edge`` evenly spaced subdivision points
on every mesh edge.  The number of points per edge controls the metric
approximation quality: the weighted-graph distance is within a factor
``1 + O(1/k)`` of the true geodesic distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..terrain.mesh import TriangleMesh

__all__ = ["SteinerPlacement", "place_steiner_points"]

Edge = Tuple[int, int]


@dataclass
class SteinerPlacement:
    """Result of Steiner point placement on a mesh.

    Attributes
    ----------
    positions:
        ``(S, 3)`` coordinates of the Steiner points.
    edge_points:
        For every mesh edge ``(u, v)`` (``u < v``), the list of Steiner
        point indices placed on it, ordered from ``u`` to ``v``.
        Indices are *local* to ``positions`` (0-based); the geodesic
        graph offsets them by the mesh vertex count.  Numbering is
        edge-major: edge ``i`` of ``mesh.edges`` holds indices
        ``i*k .. i*k+k-1`` for ``k = points_per_edge``, which the
        geodesic graph's array builder relies on.
    points_per_edge:
        The placement density used.
    """

    positions: np.ndarray
    edge_points: Dict[Edge, List[int]]
    points_per_edge: int

    @property
    def count(self) -> int:
        return len(self.positions)


def place_steiner_points(mesh: TriangleMesh,
                         points_per_edge: int) -> SteinerPlacement:
    """Place ``points_per_edge`` evenly spaced Steiner points per edge.

    With ``points_per_edge == 0`` the placement is empty and the
    geodesic graph degenerates to the plain vertex graph (fastest,
    coarsest metric).
    """
    if points_per_edge < 0:
        raise ValueError("points_per_edge must be non-negative")
    edge_points: Dict[Edge, List[int]] = {}
    positions: List[np.ndarray] = []
    if points_per_edge == 0:
        return SteinerPlacement(np.zeros((0, 3)), {}, 0)
    vertices = mesh.vertices
    fractions = np.arange(1, points_per_edge + 1) / (points_per_edge + 1)
    for edge in mesh.edges:
        u, v = edge
        base = len(positions)
        start, end = vertices[u], vertices[v]
        for fraction in fractions:
            positions.append(start + fraction * (end - start))
        edge_points[edge] = list(range(base, base + points_per_edge))
    return SteinerPlacement(np.asarray(positions), edge_points,
                            points_per_edge)
