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
from functools import cached_property
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
    edges:
        ``(E, 2)`` int64: the mesh's sorted edges
        (:attr:`~repro.terrain.mesh.TriangleMesh.edge_array`).
        Numbering is edge-major: edge ``i`` holds the points
        ``i*k .. i*k+k-1`` of ``positions`` for ``k =
        points_per_edge``, ordered from its smaller to its larger
        endpoint, which the geodesic graph's array builder relies on.
        Indices are *local* to ``positions`` (0-based); the geodesic
        graph offsets them by the mesh vertex count.
    points_per_edge:
        The placement density used.
    """

    positions: np.ndarray
    edges: np.ndarray
    points_per_edge: int

    @property
    def count(self) -> int:
        return len(self.positions)

    @cached_property
    def edge_points(self) -> Dict[Edge, List[int]]:
        """For every mesh edge ``(u, v)`` (``u < v``), the local indices
        of its Steiner points, from ``u`` to ``v`` (the edge-major
        rule); empty at density 0."""
        k = self.points_per_edge
        if k == 0:
            return {}
        return {(u, v): list(range(i * k, i * k + k))
                for i, (u, v) in enumerate(self.edges.tolist())}


def place_steiner_points(mesh: TriangleMesh,
                         points_per_edge: int) -> SteinerPlacement:
    """Place ``points_per_edge`` evenly spaced Steiner points per edge.

    With ``points_per_edge == 0`` the placement is empty and the
    geodesic graph degenerates to the plain vertex graph (fastest,
    coarsest metric).  Point ``j`` of edge ``(u, v)`` is
    ``start + f_j * (end - start)`` with ``f_j = j / (k + 1)``,
    computed for every edge at once.
    """
    if points_per_edge < 0:
        raise ValueError("points_per_edge must be non-negative")
    edges = mesh.edge_array
    if points_per_edge == 0:
        return SteinerPlacement(np.zeros((0, 3)), edges, 0)
    vertices = mesh.vertices
    fractions = np.arange(1, points_per_edge + 1) / (points_per_edge + 1)
    start = vertices[edges[:, 0]][:, None, :]
    end = vertices[edges[:, 1]][:, None, :]
    positions = start + fractions[None, :, None] * (end - start)
    return SteinerPlacement(positions.reshape(-1, 3), edges,
                            points_per_edge)
