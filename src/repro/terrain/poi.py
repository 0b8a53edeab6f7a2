"""Points-of-interest (POIs) on a terrain surface.

The paper's problem setting (Section 2): a set ``P`` of ``n`` POIs on
the surface of the terrain, each with 3D coordinates.  POIs are not
necessarily mesh vertices — they live on faces.  This module provides:

* :class:`POI` / :class:`POISet` — positions plus containing-face /
  vertex bookkeeping (what the geodesic engine needs to attach them);
* :func:`sample_uniform` — area-weighted uniform sampling on the
  surface (our substitute for OpenStreetMap POI extraction);
* :func:`sample_clustered` — the paper's own POI-upsampling recipe
  from Section 5.2.1: draw planar points from a Normal distribution
  fitted to existing POIs, reject points outside the terrain, project
  the rest onto the surface;
* :func:`pois_from_vertices` — the V2V setting ("the original POIs are
  discarded, and we treat all vertices as POIs").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .mesh import TriangleMesh

__all__ = [
    "POI",
    "POISet",
    "sample_uniform",
    "sample_clustered",
    "pois_from_vertices",
    "random_surface_point",
]


@dataclass(frozen=True)
class POI:
    """A point-of-interest on the terrain surface.

    Attributes
    ----------
    index:
        Position of the POI within its :class:`POISet` (0..n-1).
    position:
        3D coordinates on the surface.
    face_id:
        A face containing the POI (any incident face if on an edge or
        vertex).
    vertex_id:
        The mesh vertex the POI coincides with, or ``None``.
    """

    index: int
    position: Tuple[float, float, float]
    face_id: int
    vertex_id: Optional[int] = None

    @property
    def x(self) -> float:
        return self.position[0]

    @property
    def y(self) -> float:
        return self.position[1]

    @property
    def z(self) -> float:
        return self.position[2]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.position)

    @property
    def site_key(self) -> Tuple[float, ...]:
        """Position rounded to 1e-9: POIs with equal keys are merged."""
        return tuple(round(coordinate, 9) for coordinate in self.position)


class POISet:
    """An ordered collection of POIs with de-duplication.

    The paper assumes ``P`` contains no duplicate points (co-located
    POIs are merged in "a simple preprocessing step"); the constructor
    applies that merge.
    """

    def __init__(self, pois: Sequence[POI]):
        deduped: List[POI] = []
        seen = set()
        for poi in pois:
            key = poi.site_key
            if key in seen:
                continue
            seen.add(key)
            deduped.append(POI(index=len(deduped), position=poi.position,
                               face_id=poi.face_id, vertex_id=poi.vertex_id))
        self._pois = deduped
        self._positions = (np.asarray([p.position for p in deduped])
                           if deduped else np.zeros((0, 3)))

    def __len__(self) -> int:
        return len(self._pois)

    def __iter__(self) -> Iterator[POI]:
        return iter(self._pois)

    def __getitem__(self, index: int) -> POI:
        return self._pois[index]

    @property
    def positions(self) -> np.ndarray:
        """``(n, 3)`` array of POI coordinates."""
        return self._positions

    def xy(self) -> np.ndarray:
        """``(n, 2)`` planar coordinates (greedy-grid input)."""
        return self._positions[:, :2]

    def all_on_vertices(self) -> bool:
        """True when every POI coincides with a mesh vertex (V2V mode)."""
        return all(poi.vertex_id is not None for poi in self._pois)

    def subset(self, indices: Sequence[int]) -> "POISet":
        """A new POISet containing the selected POIs (re-indexed)."""
        return POISet([self._pois[i] for i in indices])


def pois_from_vertices(mesh: TriangleMesh,
                       vertex_ids: Optional[Sequence[int]] = None) -> POISet:
    """Treat mesh vertices as POIs (the V2V query setting)."""
    if vertex_ids is None:
        vertex_ids = range(mesh.num_vertices)
    vertex_faces = mesh.vertex_faces
    pois = []
    for index, vertex_id in enumerate(vertex_ids):
        incident = vertex_faces[vertex_id]
        if not incident:
            raise ValueError(f"vertex {vertex_id} belongs to no face")
        position = tuple(float(c) for c in mesh.vertices[vertex_id])
        pois.append(POI(index=index, position=position,
                        face_id=incident[0], vertex_id=int(vertex_id)))
    return POISet(pois)


def random_surface_point(mesh: TriangleMesh, rng: np.random.Generator,
                         face_areas: Optional[np.ndarray] = None
                         ) -> Tuple[Tuple[float, float, float], int]:
    """Uniform random point on the surface; returns (position, face_id)."""
    if face_areas is None:
        face_areas = mesh.face_areas()
    probabilities = face_areas / face_areas.sum()
    face_id = int(rng.choice(len(face_areas), p=probabilities))
    # Uniform barycentric sample on the chosen triangle.
    r1, r2 = rng.random(), rng.random()
    sqrt_r1 = math.sqrt(r1)
    w = (1 - sqrt_r1, sqrt_r1 * (1 - r2), sqrt_r1 * r2)
    corners = mesh.vertices[mesh.faces[face_id]]
    position = w[0] * corners[0] + w[1] * corners[1] + w[2] * corners[2]
    return tuple(float(c) for c in position), face_id


def sample_uniform(mesh: TriangleMesh, count: int, seed: int = 0) -> POISet:
    """Sample ``count`` POIs uniformly (by area) on the surface."""
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(seed)
    areas = mesh.face_areas()
    pois = []
    for index in range(count):
        position, face_id = random_surface_point(mesh, rng, areas)
        pois.append(POI(index=index, position=position, face_id=face_id))
    return POISet(pois)


def sample_clustered(mesh: TriangleMesh, count: int, seed: int = 0,
                     existing: Optional[POISet] = None,
                     max_rejects: int = 100_000) -> POISet:
    """Sample POIs with the paper's Normal-projection recipe.

    Section 5.2.1: fit a Normal distribution ``N(mu, sigma^2)`` per
    planar axis to the existing POIs (or to the terrain extent when no
    POIs are given), draw 2D points, discard points outside the terrain
    and project the survivors onto the surface.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(seed)
    low, high = mesh.bounding_box()
    if existing is not None and len(existing) > 1:
        xy = existing.xy()
        mean = xy.mean(axis=0)
        std = xy.std(axis=0)
        std = np.where(std < 1e-9, (high[:2] - low[:2]) / 6.0, std)
    else:
        mean = (low[:2] + high[:2]) / 2.0
        std = (high[:2] - low[:2]) / 4.0

    pois: List[POI] = list(existing) if existing is not None else []
    start = len(pois)
    rejects = 0
    while len(pois) < start + count:
        x, y = rng.normal(mean, std)
        face_id = mesh.locate_face(float(x), float(y))
        if face_id < 0:
            rejects += 1
            if rejects > max_rejects:
                raise RuntimeError(
                    "too many rejected samples; terrain coverage too sparse"
                )
            continue
        weights = mesh.barycentric_weights(face_id, float(x), float(y))
        corners = mesh.vertices[mesh.faces[face_id]]
        position = tuple(float(c) for c in weights @ corners)
        pois.append(POI(index=len(pois), position=position, face_id=face_id))
    result = POISet(pois)
    if len(result) < start + count:
        # Duplicates were merged; top up with fresh draws.
        deficit = start + count - len(result)
        extra = sample_clustered(mesh, deficit, seed=seed + 1,
                                 existing=result, max_rejects=max_rejects)
        return extra
    return result
