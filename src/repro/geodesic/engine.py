"""High-level geodesic engine: the SSAD service used by the oracle.

``GeodesicEngine`` binds a terrain mesh, a Steiner density and a POI
set into one object exposing exactly the operations the paper's
algorithms need:

* :meth:`distances_from_poi` — the two SSAD variants (cover-all /
  radius-bounded) returning geodesic distances *to POIs* as a
  :class:`PoiRow` of ``(poi ids, distances)`` arrays;
* :meth:`distances_many` / :meth:`query_many` — batched forms of the
  above: many sources per call (build-time SSAD sweeps, one
  :func:`~repro.geodesic.dijkstra.row_block` per run of equal radii),
  or many point-to-point queries grouped so each distinct source runs
  one multi-target search instead of one search per pair;
* :meth:`node_rows` / :meth:`poi_distances_from_node` — whole-row
  searches from arbitrary graph nodes, gathered at given nodes or at
  every POI (tile portal matrices, overlay delta rows);
* :meth:`distances_from_node` — a cover-targets search from a raw
  graph node (K-Algo batches, overlay-overlay pairs);
* :meth:`distance` — a single P2P geodesic distance (ground truth for
  error measurement, and the naive construction's workhorse);
* :meth:`shortest_path` — path reconstruction for examples;
* transient attachment of arbitrary surface points (A2A queries);
* :meth:`snapshot` / :meth:`from_snapshot` — a picklable frozen-CSR
  image of the engine and its rehydration, the mechanism by which the
  parallel build executor (:mod:`repro.core.parallel`) ships the SSAD
  service to worker processes exactly once.

All searches run on the graph's frozen CSR core (the POI set is frozen
into it at construction); see :mod:`repro.geodesic.graph`.  Whole-row
searches (no target stop, no parent tree; cover-all rows included,
which settle the whole component) go through
:func:`~repro.geodesic.dijkstra.row_block`, the rest through the
pure-Python :func:`~repro.geodesic.dijkstra.dijkstra`.  The engine
also counts SSAD invocations (one per row), settled nodes and heap
pushes (targeted searches only), which the benchmark harness reports
as construction-effort metrics; none of them depends on whether SciPy
is installed.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datastructures.csr import CSRGraph
from ..terrain.mesh import TriangleMesh
from ..terrain.poi import POISet
from .dijkstra import DijkstraResult, dijkstra, row_block
from .graph import GeodesicGraph

__all__ = ["GeodesicEngine", "EngineSnapshot", "PoiRow"]


class PoiRow(Mapping):
    """One SSAD row over POIs: parallel ``ids`` / ``dists`` arrays.

    ``ids`` (int64) are the POIs the search reached, in the graph-node
    order of their hosts, and ``dists`` (float64) their distances from
    the row's source.  Build code reads the arrays; the read-only
    ``{poi: distance}`` mapping view serves callers that look entries
    up one at a time.
    """

    __slots__ = ("ids", "dists", "_lookup")

    def __init__(self, ids: np.ndarray, dists: np.ndarray):
        self.ids = ids
        self.dists = dists
        self._lookup: Optional[Dict[int, float]] = None

    def __reduce__(self):
        return PoiRow, (self.ids, self.dists)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids.tolist())

    def __getitem__(self, poi: int) -> float:
        if self._lookup is None:
            self._lookup = dict(zip(self.ids.tolist(), self.dists.tolist()))
        return self._lookup[poi]


@dataclass(frozen=True)
class EngineSnapshot:
    """Picklable frozen-CSR image of a :class:`GeodesicEngine`.

    Carries exactly what the SSAD surface needs — the static CSR
    arrays and the POI -> node mapping — and nothing mesh-shaped, so
    shipping one to a worker process costs a few array pickles instead
    of a terrain rebuild.  Rehydrate with
    :meth:`GeodesicEngine.from_snapshot`.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    poi_nodes: Tuple[int, ...]
    points_per_edge: int

    def rehydrate(self) -> "GeodesicEngine":
        """Shorthand for :meth:`GeodesicEngine.from_snapshot`."""
        return GeodesicEngine.from_snapshot(self)


class _FrozenGraphView:
    """Minimal stand-in for :class:`GeodesicGraph` in worker processes.

    Exposes the two attributes the engine's SSAD surface reads — the
    CSR core and the Steiner density — and nothing geometric; workers
    never reconstruct paths or attach surface points.
    """

    __slots__ = ("csr", "points_per_edge")

    def __init__(self, csr: CSRGraph, points_per_edge: int):
        self.csr = csr
        self.points_per_edge = points_per_edge


def _single_target_distance(result: DijkstraResult, target: int) -> float:
    """Read a single-target search's answer without building the dict.

    The kernel stops immediately after settling ``single_target``, so
    when the target was reached it is the last settled node; otherwise
    the component drained without it.
    """
    ids = result.settled_ids
    if ids and ids[-1] == target:
        return result.settled_dists[-1]
    return math.inf


class GeodesicEngine:
    """Geodesic distance service over a terrain and its POI set.

    Parameters
    ----------
    mesh:
        Terrain surface.
    pois:
        The POI set ``P``; may be empty for pure vertex workloads.
    points_per_edge:
        Steiner density of the underlying graph (0 = vertex graph).
    """

    def __init__(self, mesh: TriangleMesh, pois: POISet,
                 points_per_edge: int = 2, weight_fn=None):
        self._mesh = mesh
        self._pois = pois
        self._graph = GeodesicGraph(mesh, points_per_edge,
                                    weight_fn=weight_fn)
        self._index_pois(self._graph.attach_pois(pois))
        self.ssad_calls = 0
        self.settled_nodes = 0
        self.heap_pushes = 0

    def _index_pois(self, poi_nodes: List[int]) -> None:
        """The POI -> host-node map, plus the node-ordered gather arrays
        every SSAD row reads (a vertex node hosts at most one POI after
        dedup, so host nodes are distinct)."""
        self._poi_nodes = poi_nodes
        nodes = np.asarray(poi_nodes, dtype=np.int64)
        self._row_pois = np.argsort(nodes, kind="stable")
        self._row_nodes = nodes[self._row_pois]

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def mesh(self) -> TriangleMesh:
        return self._mesh

    @property
    def pois(self) -> POISet:
        return self._pois

    @property
    def graph(self) -> GeodesicGraph:
        return self._graph

    @property
    def num_pois(self) -> int:
        # Counted on the node mapping, not the POISet: rehydrated
        # worker engines carry no POISet (see :meth:`from_snapshot`).
        return len(self._poi_nodes)

    def poi_node(self, poi_index: int) -> int:
        """Graph node id hosting POI ``poi_index``."""
        return self._poi_nodes[poi_index]

    def reset_counters(self) -> None:
        self.ssad_calls = 0
        self.settled_nodes = 0
        self.heap_pushes = 0

    def account_external(self, ssad_calls: int, settled_nodes: int,
                         heap_pushes: int) -> None:
        """Fold in search-effort counters measured out-of-process.

        The multiprocess build executor runs SSADs on rehydrated
        worker engines; their counter deltas are reported back and
        added here so construction stats match a serial build exactly.
        """
        self.ssad_calls += ssad_calls
        self.settled_nodes += settled_nodes
        self.heap_pushes += heap_pushes

    # ------------------------------------------------------------------
    # snapshot / rehydrate (parallel build support)
    # ------------------------------------------------------------------
    def snapshot(self) -> EngineSnapshot:
        """A picklable image of the frozen SSAD state.

        Requires every site to be frozen into the static CSR section
        (true after construction; transient A2A attachments must be
        detached first).  The arrays are shared, not copied — the
        snapshot is a cheap view that pickles by value.
        """
        csr = self._graph.csr
        if csr.num_overlay:
            raise RuntimeError(
                "cannot snapshot an engine with transient overlay sites; "
                "detach them first"
            )
        return EngineSnapshot(
            indptr=csr.indptr, indices=csr.indices, weights=csr.weights,
            poi_nodes=tuple(self._poi_nodes),
            points_per_edge=self._graph.points_per_edge,
        )

    @classmethod
    def from_snapshot(cls, snapshot: EngineSnapshot) -> "GeodesicEngine":
        """Rehydrate a worker-side engine from a snapshot.

        The result serves the full SSAD surface (``distances_from_poi``
        / ``distances_many`` / ``distance`` / ``query_many``) on the
        frozen CSR arrays; geometric operations (``shortest_path``,
        ``attach_point``) are unavailable because no mesh travels with
        the snapshot.
        """
        engine = cls.__new__(cls)
        engine._mesh = None
        engine._pois = None
        engine._graph = _FrozenGraphView(
            CSRGraph(snapshot.indptr, snapshot.indices, snapshot.weights),
            snapshot.points_per_edge,
        )
        engine._index_pois(list(snapshot.poi_nodes))
        engine.ssad_calls = 0
        engine.settled_nodes = 0
        engine.heap_pushes = 0
        return engine

    # ------------------------------------------------------------------
    # SSAD variants (Implementation Detail 2)
    # ------------------------------------------------------------------
    def distances_from_poi(self, poi_index: int,
                           radius: Optional[float] = None) -> PoiRow:
        """Geodesic distances from a POI to other POIs.

        With ``radius`` set this is the paper's SSAD *version 2*: the
        search stops once the frontier passes ``radius`` and only POIs
        within the radius appear in the result.  Without it this is
        *version 1*: every POI of the source's component appears.
        """
        return self.distances_many([poi_index], radius=radius)[0]

    def distances_many(self, poi_indices: Sequence[int],
                       radius: Union[None, float,
                                     Sequence[Optional[float]]] = None
                       ) -> List[PoiRow]:
        """Batched :meth:`distances_from_poi` over many sources.

        ``radius`` may be a single value shared by every source or a
        per-source sequence (entries may be ``None`` for cover-all
        mode) — the form the enhanced-edge builder uses to sweep one
        partition-tree layer per call.  Each run of sources sharing a
        radius is one :meth:`node_rows` batch.
        """
        poi_indices = list(poi_indices)
        if radius is None or isinstance(radius, (int, float)):
            radii: List[Optional[float]] = [radius] * len(poi_indices)
        else:
            radii = list(radius)
            if len(radii) != len(poi_indices):
                raise ValueError("radius sequence must match poi_indices")
        rows: List[PoiRow] = []
        for bound, run in groupby(zip(poi_indices, radii), key=itemgetter(1)):
            rows.extend(self._poi_rows([poi for poi, _ in run], bound))
        return rows

    def _poi_rows(self, poi_indices: List[int],
                  radius: Optional[float]) -> List[PoiRow]:
        sources = [self._poi_nodes[poi] for poi in poi_indices]
        rows = []
        for dists in self.node_rows(sources, self._row_nodes, radius=radius):
            reached = np.isfinite(dists)
            rows.append(PoiRow(self._row_pois[reached], dists[reached]))
        return rows

    def node_rows(self, sources: Sequence[int], columns: Sequence[int],
                  radius: Optional[float] = None) -> np.ndarray:
        """Whole-row searches from graph nodes, gathered at graph nodes.

        ``result[i, j]`` is the distance from ``sources[i]`` to
        ``columns[j]`` (``inf`` past ``radius`` or the component), one
        :func:`~repro.geodesic.dijkstra.row_block` search per source.
        """
        block, settled = row_block(self._graph.csr, sources, columns,
                                   radius=radius)
        self.ssad_calls += len(sources)
        self.settled_nodes += int(settled.sum())
        return block

    def poi_distances_from_node(self, node: int) -> np.ndarray:
        """Distances from graph node ``node`` to every POI, by POI index.

        One whole-row search gathered at the POI hosts (``inf`` where
        unreached) — the dynamic oracle's delta row.
        """
        return self.node_rows([node], self._poi_nodes)[0]

    def query_many(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        """Batched P2P distances for many ``(source, target)`` POI pairs.

        Pairs are canonicalized (the metric is symmetric) and grouped
        by source: each distinct source runs one multi-target search
        covering all of its targets, instead of one early-exit search
        per pair.  Returns distances aligned with the input order
        (``inf`` for disconnected pairs).
        """
        pairs = [(int(a), int(b)) for a, b in pairs]
        by_source: Dict[int, set] = {}
        for a, b in pairs:
            if a != b:
                low, high = (a, b) if a < b else (b, a)
                by_source.setdefault(low, set()).add(high)
        answers: Dict[Tuple[int, int], float] = {}
        csr = self._graph.csr
        for a, targets in by_source.items():
            source = self._poi_nodes[a]
            target_nodes = {self._poi_nodes[b]: b for b in targets}
            result = dijkstra(csr, source, targets=list(target_nodes))
            self._account(result)
            distances = result.distances
            for node, b in target_nodes.items():
                answers[(a, b)] = distances.get(node, math.inf)
        return [0.0 if a == b else answers[(a, b) if a < b else (b, a)]
                for a, b in pairs]

    def distances_from_node(self, node: int,
                            targets: Sequence[int]) -> DijkstraResult:
        """A search from graph node ``node`` that stops once every node
        of ``targets`` is settled (whole rows go through
        :meth:`node_rows`)."""
        result = dijkstra(self._graph.csr, node, targets=targets)
        self._account(result)
        return result

    def distance(self, poi_a: int, poi_b: int) -> float:
        """Geodesic distance between two POIs (early-exit search)."""
        if poi_a == poi_b:
            return 0.0
        source = self._poi_nodes[poi_a]
        target = self._poi_nodes[poi_b]
        result = dijkstra(self._graph.csr, source, single_target=target)
        self._account(result)
        return _single_target_distance(result, target)

    def shortest_path(self, poi_a: int, poi_b: int
                      ) -> Tuple[float, np.ndarray]:
        """Distance and polyline of the geodesic path between two POIs."""
        source = self._poi_nodes[poi_a]
        target = self._poi_nodes[poi_b]
        result = dijkstra(self._graph.csr, source,
                          single_target=target, return_parents=True)
        self._account(result)
        if target not in result.distances:
            return math.inf, np.zeros((0, 3))
        nodes = result.path_to(target)
        points = np.asarray([self._graph.position(n) for n in nodes])
        return result.distances[target], points

    # ------------------------------------------------------------------
    # arbitrary surface points (A2A support)
    # ------------------------------------------------------------------
    def attach_point(self, x: float, y: float) -> int:
        """Attach the surface point above planar ``(x, y)``; returns node id.

        Raises ``ValueError`` when ``(x, y)`` is outside the terrain.
        Attachments must be detached LIFO via :meth:`detach_points`.
        """
        face_id = self._mesh.locate_face(x, y)
        if face_id < 0:
            raise ValueError(f"({x}, {y}) is outside the terrain")
        weights = self._mesh.barycentric_weights(face_id, x, y)
        corners = self._mesh.vertices[self._mesh.faces[face_id]]
        position = weights @ corners
        return self._graph.attach_site(tuple(position), face_id)

    def detach_points(self, count: int) -> None:
        """Detach the ``count`` most recently attached points."""
        self._graph.detach_last_sites(count)

    def node_distance(self, node_a: int, node_b: int) -> float:
        """Geodesic distance between two raw graph nodes."""
        if node_a == node_b:
            return 0.0
        result = dijkstra(self._graph.csr, node_a,
                          single_target=node_b)
        self._account(result)
        return _single_target_distance(result, node_b)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _account(self, result: DijkstraResult) -> None:
        self.ssad_calls += 1
        self.settled_nodes += result.settled_count
        self.heap_pushes += result.heap_pushes
