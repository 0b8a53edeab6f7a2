"""Best-first (Dijkstra) search kernel with the paper's stopping rules.

Section 3.2 (Implementation Detail 2) describes two SSAD variants
sharing one principle — expand the unsettled node of minimum tentative
distance — with different stopping criteria:

* **cover-targets**: stop once a given set of target nodes has been
  settled (Step 1(c): "executes until the search region ... covers all
  points in P");
* **radius**: stop once the frontier minimum exceeds a distance
  threshold (Step 2(b)(ii): "until the distance between the boundary
  of the search region and p is greater than r0/2^i").

Running with neither criterion settles the whole connected component.

This kernel is the hot path of the whole repository.  Since the CSR
refactor it runs over :class:`~repro.datastructures.csr.CSRGraph` and
dispatches between two implementations:

* a **SciPy fast path** for every *whole-row* search — full-component
  or radius-bounded, with no target stop and no parent tree — on the
  graph's cached CSR matrix (with an overlay present, the matrix of
  its frozen copy): ``scipy.sparse.csgraph.dijkstra``.  Settled ids
  and distances stay NumPy arrays, and the exact ``frontier_min`` of
  the radius rule is reconstructed on first access by one vectorised
  gather over the matrix's own arrays.  :func:`row_block` runs many
  such rows per SciPy call and hands back only the columns a caller
  asks for.  Distances are bit-identical to the reference kernel:
  both compute the same ``min`` over the same float64 path sums.
* a **pure-Python array kernel** for the cover-targets / single-target
  rules, parent tracking, or when SciPy is missing.  Tentative
  distances, parents and visit labels live in
  preallocated flat arrays borrowed from the graph's scratch pool and
  reset in O(1) by generation stamping, instead of the per-call dicts
  of the original kernel (kept below as :func:`dijkstra_reference` for
  equivalence tests and benchmarks).  Radius-bounded searches prune
  beyond-radius pushes at relaxation time — the lazy-deletion heap no
  longer fills with entries that could only ever be popped after the
  stopping rule fires — while still reporting the exact
  ``frontier_min`` the unpruned kernel would.

``source`` may be a sequence for multi-source searches (the frontier
starts at distance 0 from every source).  Both kernels take a
:class:`~repro.datastructures.csr.CSRGraph` or any object exposing one
as ``.csr`` (e.g. ``GeodesicGraph``).  Only :func:`dijkstra_reference`
reads a ``(neighbors, weights)`` list-of-lists pair; get one from
:meth:`CSRGraph.to_lists <repro.datastructures.csr.CSRGraph.to_lists>`.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datastructures.csr import CSRGraph

try:  # SciPy is optional; the pure-Python kernel covers its absence.
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
except ImportError:  # pragma: no cover - depends on environment
    _scipy_dijkstra = None

__all__ = [
    "DijkstraResult",
    "dijkstra",
    "dijkstra_reference",
    "bidirectional_distance",
    "row_block",
]

#: Distance cells (rows x graph nodes) one multi-source SciPy call of
#: :func:`row_block` may return: 2**22 float64 values, 32 MiB.
_ROW_CELLS = 1 << 22

def _as_csr(graph) -> CSRGraph:
    """The ``CSRGraph`` itself, or the one a graph exposes as ``.csr``."""
    if isinstance(graph, CSRGraph):
        return graph
    csr = getattr(graph, "csr", None)
    if isinstance(csr, CSRGraph):
        return csr
    raise TypeError("expected a CSRGraph or an object with a .csr "
                    f"attribute; got {type(graph).__name__}")


class DijkstraResult:
    """Outcome of a single- or multi-source search.

    Attributes
    ----------
    distances:
        ``{node: distance}`` for every *settled* node (built lazily
        from the settled arrays on first access).
    parents:
        ``{node: predecessor}`` tree (only if requested).
    settled_count:
        Number of settled nodes (search effort measure).
    frontier_min:
        Tentative distance at which the search stopped (``inf`` if the
        frontier drained).  The SciPy path computes it on first access.
    heap_pushes:
        Heap insertions performed by the pure-Python kernel — the
        bookkeeping-effort measure that makes the lazy-deletion pruning
        win visible to benchmarks.  0 for the SciPy fast path, which
        keeps its frontier in C.
    settled_ids / settled_dists:
        Parallel sequences of settled nodes — the raw form array
        consumers (e.g. the SP-Oracle APSP fill) read directly: lists
        in settle order from the Python kernel, NumPy arrays in node
        order from the SciPy path.
    """

    __slots__ = ("_distances", "parents", "settled_count", "_frontier_min",
                 "heap_pushes", "settled_ids", "settled_dists")

    def __init__(self, distances: Optional[Dict[int, float]] = None,
                 parents: Optional[Dict[int, int]] = None,
                 settled_count: Optional[int] = None,
                 frontier_min: Union[float, Callable[[], float]] = math.inf,
                 heap_pushes: int = 0,
                 settled_ids: Optional[Sequence[int]] = None,
                 settled_dists: Optional[Sequence[float]] = None):
        if distances is None and settled_ids is None:
            raise ValueError("need distances or settled_ids/settled_dists")
        self._distances = distances
        self.parents = parents
        if settled_ids is None:
            settled_ids = list(distances)
            settled_dists = list(distances.values())
        self.settled_ids = settled_ids
        self.settled_dists = settled_dists
        self.settled_count = (len(settled_ids) if settled_count is None
                              else settled_count)
        self._frontier_min = frontier_min
        self.heap_pushes = heap_pushes

    @property
    def frontier_min(self) -> float:
        if callable(self._frontier_min):
            self._frontier_min = self._frontier_min()
        return self._frontier_min

    @property
    def distances(self) -> Dict[int, float]:
        if self._distances is None:
            ids, dists = self.settled_ids, self.settled_dists
            if isinstance(ids, np.ndarray):
                ids, dists = ids.tolist(), dists.tolist()
            self._distances = dict(zip(ids, dists))
        return self._distances

    def path_to(self, node: int) -> List[int]:
        """Reconstruct the node path from the source (requires parents)."""
        if self.parents is None:
            raise ValueError("search was run without return_parents")
        if node not in self.distances:
            raise KeyError(f"node {node} was not settled")
        path = [node]
        while self.parents[path[-1]] != -1:
            path.append(self.parents[path[-1]])
        path.reverse()
        return path


def dijkstra(graph: CSRGraph,
             source: Union[int, Sequence[int]],
             *,
             radius: Optional[float] = None,
             targets: Optional[Sequence[int]] = None,
             single_target: Optional[int] = None,
             return_parents: bool = False) -> DijkstraResult:
    """Best-first search from ``source`` with optional stopping rules.

    Parameters
    ----------
    graph:
        A ``CSRGraph``, or an object exposing one as ``.csr``.
    source:
        Start node, or a sequence of start nodes for a multi-source
        search (every source starts at distance 0).
    radius:
        Stop when the frontier minimum exceeds this value (paper's SSAD
        version 2).  Nodes beyond the radius are not settled.
    targets:
        Stop as soon as *all* of these nodes are settled (version 1).
    single_target:
        Stop as soon as this node is settled (point-to-point query).
    return_parents:
        Record the shortest-path tree for path reconstruction.
    """
    csr = _as_csr(graph)
    if hasattr(source, "__iter__"):
        sources: Tuple[int, ...] = tuple(int(s) for s in source)
        if not sources:
            raise ValueError("need at least one source")
    else:
        sources = (int(source),)

    if (_scipy_dijkstra is not None
            and targets is None and single_target is None
            and not return_parents
            and (radius is None or radius >= 0.0)):
        matrix = csr.scipy_matrix()
        if matrix is not None:
            return _dijkstra_scipy(matrix, sources, radius)
    return _dijkstra_python(csr, sources, radius, targets, single_target,
                            return_parents)


def _dijkstra_scipy(matrix, sources: Tuple[int, ...],
                    radius: Optional[float]) -> DijkstraResult:
    """Full-component / radius-bounded search via scipy.sparse.csgraph."""
    limit = math.inf if radius is None else radius
    if len(sources) == 1:
        dist = _scipy_dijkstra(matrix, indices=sources[0], limit=limit)
    else:
        dist = _scipy_dijkstra(matrix, indices=list(sources), limit=limit,
                               min_only=True)
    finite = np.isfinite(dist)
    ids = np.flatnonzero(finite)
    frontier_min: Union[float, Callable[[], float]] = math.inf
    if radius is not None:
        frontier_min = partial(_frontier_min, matrix, dist, finite, ids)
    return DijkstraResult(settled_ids=ids, settled_dists=dist[ids],
                          frontier_min=frontier_min)


def _frontier_min(matrix, dist: np.ndarray, finite: np.ndarray,
                  ids: np.ndarray) -> float:
    """The exact frontier_min of the unbounded kernel: the smallest
    candidate distance leaving the settled region, gathered over the
    matrix's own arrays (which cover the overlay too)."""
    indptr = matrix.indptr
    starts = indptr[ids]
    counts = indptr[ids + 1] - starts
    total = int(counts.sum())
    if not total:
        return math.inf
    base = np.repeat(starts, counts)
    step = np.arange(total, dtype=np.int64) \
        - np.repeat(np.cumsum(counts) - counts, counts)
    positions = base + step
    neighbors = matrix.indices[positions]
    candidates = np.repeat(dist[ids], counts) + matrix.data[positions]
    outside = ~finite[neighbors]
    if not outside.any():
        return math.inf
    return float(candidates[outside].min())


def row_block(graph: CSRGraph, sources: Sequence[int],
              columns: Sequence[int], *,
              radius: Optional[float] = None
              ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Whole-row searches from ``sources``, gathered at ``columns``.

    Each source runs its own search with no target stop and no parent
    tree — the whole component, or out to ``radius`` — many sources to
    one SciPy call (at most :data:`_ROW_CELLS` distances per call).
    Returns ``(block, settled)``: ``block[i, j]`` is the distance from
    ``sources[i]`` to ``columns[j]`` (``inf`` past the radius or the
    component), ``settled[i]`` the node count the ``i``-th search
    settled.  Returns ``None`` when SciPy is missing (or the radius is
    negative); callers then run :func:`dijkstra` per source.
    """
    if _scipy_dijkstra is None or (radius is not None and radius < 0.0):
        return None
    csr = _as_csr(graph)
    matrix = csr.scipy_matrix()
    if matrix is None:
        return None
    sources = np.asarray(sources, dtype=np.int64)
    columns = np.asarray(columns, dtype=np.int64)
    limit = math.inf if radius is None else radius
    per_call = max(1, _ROW_CELLS // max(csr.num_nodes, 1))
    block = np.empty((len(sources), len(columns)), dtype=np.float64)
    settled = np.empty(len(sources), dtype=np.int64)
    for start in range(0, len(sources), per_call):
        stop = start + per_call
        dist = _scipy_dijkstra(matrix, indices=sources[start:stop],
                               limit=limit)
        block[start:stop] = dist[:, columns]
        settled[start:stop] = np.count_nonzero(np.isfinite(dist), axis=1)
    return block, settled


def _dijkstra_python(csr: CSRGraph, sources: Tuple[int, ...],
                     radius: Optional[float],
                     targets: Optional[Sequence[int]],
                     single_target: Optional[int],
                     return_parents: bool) -> DijkstraResult:
    """Generation-stamped array kernel (all stopping rules, overlay)."""
    rows, static_n, ov_rows, extra = csr.kernel_view()
    scratch = csr.acquire_scratch()
    try:
        gen = scratch.next_generation()
        dist = scratch.dist
        parent = scratch.parent
        label = scratch.label
        bound = math.inf if radius is None else radius

        heap: List[Tuple[float, int]] = []
        pushes = 0
        for s in sources:
            if label[s] != gen:
                label[s] = gen
                dist[s] = 0.0
                parent[s] = -1
                heappush(heap, (0.0, s))
                pushes += 1
        pending = set(int(t) for t in targets) if targets is not None else None

        order: List[int] = []
        order_dist: List[float] = []
        frontier_min = math.inf
        # Minimum pruned (beyond-radius) candidate per node; at drain
        # time the survivors reconstruct the frontier_min the unpruned
        # kernel would have popped.
        beyond: Dict[int, float] = {}
        has_extra = bool(extra)
        broke = False
        track = return_parents
        push = heappush
        pop = heappop

        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue  # stale lazy-deletion entry
            if d > bound:
                frontier_min = d
                broke = True
                break
            order.append(u)
            order_dist.append(d)
            if single_target is not None and u == single_target:
                frontier_min = d
                broke = True
                break
            if pending is not None:
                pending.discard(u)
                if not pending:
                    frontier_min = d
                    broke = True
                    break
            if u < static_n:
                row = rows[u]
                if has_extra:
                    pair = extra.get(u)
                    if pair is not None:
                        row = row + pair
            else:
                row = ov_rows[u - static_n]
            for v, w in row:
                c = d + w
                if label[v] == gen and c >= dist[v]:
                    continue  # settled, or no improvement
                if c > bound:
                    b = beyond.get(v)
                    if b is None or c < b:
                        beyond[v] = c
                    continue
                dist[v] = c
                label[v] = gen
                push(heap, (c, v))
                pushes += 1
                if track:
                    parent[v] = u

        if not broke and beyond:
            # A node pushed within the bound is settled once the heap
            # drains, so label[v] == gen marks settledness here.
            frontier_min = min(
                (c for v, c in beyond.items() if label[v] != gen),
                default=math.inf,
            )

        parents: Optional[Dict[int, int]] = None
        if return_parents:
            parents = {u: parent[u] for u in order}
        return DijkstraResult(parents=parents,
                              settled_count=len(order),
                              frontier_min=frontier_min,
                              heap_pushes=pushes,
                              settled_ids=order,
                              settled_dists=order_dist)
    finally:
        csr.release_scratch(scratch)


def dijkstra_reference(adjacency: Tuple[List[List[int]], List[List[float]]],
                       source: int,
                       *,
                       radius: Optional[float] = None,
                       targets: Optional[Sequence[int]] = None,
                       single_target: Optional[int] = None,
                       return_parents: bool = False) -> DijkstraResult:
    """The original dict-based kernel, kept as the equivalence baseline.

    Semantics are identical to :func:`dijkstra`; the implementation is
    the seed repository's, with per-call ``{node: distance}`` dicts and
    an unpruned lazy-deletion heap.  Property tests assert the array
    kernel reproduces its distance maps bit-for-bit; the micro
    benchmark reports the settled-nodes/second ratio between the two.
    """
    neighbors, weights = adjacency
    distances: Dict[int, float] = {}
    parents: Optional[Dict[int, int]] = {source: -1} if return_parents else None
    pending = set(targets) if targets is not None else set()
    heap: List[Tuple[float, int]] = [(0.0, source)]
    best: Dict[int, float] = {source: 0.0}
    frontier_min = math.inf
    pushes = 1

    while heap:
        dist, node = heappop(heap)
        if node in distances:
            continue
        if radius is not None and dist > radius:
            frontier_min = dist
            break
        distances[node] = dist
        if single_target is not None and node == single_target:
            frontier_min = dist
            break
        if targets is not None:
            pending.discard(node)
            if not pending:
                frontier_min = dist
                break
        node_neighbors = neighbors[node]
        node_weights = weights[node]
        for index in range(len(node_neighbors)):
            neighbor = node_neighbors[index]
            if neighbor in distances:
                continue
            candidate = dist + node_weights[index]
            previous = best.get(neighbor)
            if previous is None or candidate < previous:
                best[neighbor] = candidate
                heappush(heap, (candidate, neighbor))
                pushes += 1
                if parents is not None:
                    parents[neighbor] = node

    if parents is not None:
        parents = {node: parents[node] for node in distances}
    return DijkstraResult(distances=distances, parents=parents,
                          settled_count=len(distances),
                          frontier_min=frontier_min,
                          heap_pushes=pushes)


def bidirectional_distance(graph: CSRGraph, source: int,
                           target: int) -> float:
    """Point-to-point distance via bidirectional Dijkstra.

    Roughly halves the settled-node count of a unidirectional search on
    terrain graphs; used by the on-the-fly K-Algo baseline.  Returns
    ``inf`` when the nodes are disconnected.  Runs on the same CSR +
    scratch-pool machinery as :func:`dijkstra` (borrowing one scratch
    buffer per direction).
    """
    if source == target:
        return 0.0
    csr = _as_csr(graph)
    rows, static_n, ov_rows, extra = csr.kernel_view()
    forward = csr.acquire_scratch()
    backward = csr.acquire_scratch()
    try:
        scratches = (forward, backward)
        gens = (forward.next_generation(), backward.next_generation())
        heaps: Tuple[List[Tuple[float, int]], List[Tuple[float, int]]] = (
            [(0.0, source)], [(0.0, target)]
        )
        for side, start in ((0, source), (1, target)):
            scratches[side].dist[start] = 0.0
            scratches[side].label[start] = gens[side]
        best = math.inf
        has_extra = bool(extra)

        while heaps[0] and heaps[1]:
            side = 0 if heaps[0][0][0] <= heaps[1][0][0] else 1
            this = scratches[side]
            other = scratches[1 - side]
            this_gen = gens[side]
            other_gen = gens[1 - side]
            d, u = heappop(heaps[side])
            if this.settled[u] == this_gen:
                continue
            this.settled[u] = this_gen
            if other.settled[u] == other_gen:
                return best
            if d > best:
                return best
            if u < static_n:
                row = rows[u]
                if has_extra:
                    pair = extra.get(u)
                    if pair is not None:
                        row = row + pair
            else:
                row = ov_rows[u - static_n]
            heap = heaps[side]
            this_dist = this.dist
            this_label = this.label
            other_dist = other.dist
            other_label = other.label
            for v, w in row:
                c = d + w
                if this_label[v] != this_gen or c < this_dist[v]:
                    this_dist[v] = c
                    this_label[v] = this_gen
                    heappush(heap, (c, v))
                    if other_label[v] == other_gen:
                        through = c + other_dist[v]
                        if through < best:
                            best = through
        return best
    finally:
        csr.release_scratch(backward)
        csr.release_scratch(forward)
