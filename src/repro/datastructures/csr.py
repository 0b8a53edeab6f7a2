"""Flat CSR (compressed sparse row) graph core with a dynamic overlay.

``CSRGraph`` is the adjacency substrate every shortest-path search in
this repository runs on.  It has two sections:

* a **frozen static section** — the mesh vertices and Steiner points
  (and, once :meth:`~repro.geodesic.graph.GeodesicGraph.attach_pois`
  has merged them in with :meth:`frozen`, the POI sites too) stored as
  three parallel NumPy arrays: ``indptr`` (``int64``), ``indices``
  (``int32``) and ``weights`` (``float64``), the classic CSR layout;
* a small **dynamic overlay** for sites attached after the freeze
  (transient A2A query points, dynamic-oracle inserts).  Overlay nodes
  keep per-node adjacency lists; edges *back* from static nodes into
  the overlay live in a side table consulted only when the overlay is
  non-empty.

The NumPy arrays are the canonical storage: the kernel's whole-row
searches (:func:`~repro.geodesic.dijkstra.row_block`) hand them to
``scipy.sparse.csgraph`` wholesale when SciPy is installed (see
:meth:`scipy_matrix`; with an overlay present, the matrix of
:meth:`frozen`).  The *pure-Python* kernel instead iterates prebuilt
per-node ``(neighbor, weight)`` tuple rows — CPython pays ~5x for
boxed elementwise NumPy access, so the hot loop reads
:meth:`kernel_view`'s list form.  Both views are frozen from the same
data.

The graph also owns a pool of :class:`DijkstraScratch` buffers —
preallocated distance / parent / label arrays the search kernel reuses
across calls instead of allocating per-call dicts.  Generation
stamping makes clearing them O(1): a slot is valid only when its stamp
equals the current generation, so "resetting" is one counter increment.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["CSRGraph", "DijkstraScratch"]

Row = List[Tuple[int, float]]


def _entry_arrays(rows: Iterable[Row]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated ``(neighbor, weight)`` rows as CSR ``indices`` /
    ``weights`` arrays."""
    entries = [entry for row in rows for entry in row]
    return (np.array([v for v, _ in entries], dtype=np.int32),
            np.array([w for _, w in entries], dtype=np.float64))


class DijkstraScratch:
    """Reusable per-search buffers, generation-stamped for O(1) reset.

    ``dist[v]`` / ``parent[v]`` are meaningful only when
    ``label[v] == gen``.  A new search calls
    :meth:`next_generation` instead of clearing.  The buffers are plain
    Python lists: the kernel reads and writes them elementwise millions
    of times, where list access beats both dict hashing and boxed NumPy
    scalar access.
    """

    __slots__ = ("dist", "parent", "label", "gen", "capacity")

    def __init__(self, capacity: int):
        self.capacity = max(capacity, 1)
        self.dist: List[float] = [0.0] * self.capacity
        self.parent: List[int] = [-1] * self.capacity
        self.label: List[int] = [0] * self.capacity
        self.gen = 0

    def ensure(self, capacity: int) -> None:
        if capacity > self.capacity:
            grow = capacity - self.capacity
            self.dist.extend([0.0] * grow)
            self.parent.extend([-1] * grow)
            self.label.extend([0] * grow)
            self.capacity = capacity

    def next_generation(self) -> int:
        self.gen += 1
        return self.gen


class CSRGraph:
    """Undirected weighted graph: frozen CSR arrays + dynamic overlay.

    The constructor takes the static section as ready-made arrays (the
    geodesic graph builds them directly); :meth:`from_lists` freezes a
    hand-written list-of-lists adjacency and :meth:`to_lists` gives one
    back, for the reference kernel.  Later nodes enter through
    :meth:`attach_node` (overlay), leave LIFO via :meth:`detach_last`,
    or become static through :meth:`frozen`.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        if self.indptr.ndim != 1 or len(self.indptr) == 0:
            raise ValueError("indptr must be a non-empty 1-D array")
        if len(self.indices) != len(self.weights):
            raise ValueError("indices and weights must be parallel")
        if int(self.indptr[-1]) != len(self.indices):
            raise ValueError("indptr[-1] must equal the entry count")
        # Per-node (neighbor, weight) rows for the pure-Python kernel,
        # materialised lazily: graphs that only ever run SciPy rows
        # never pay the O(E) tuple build.
        self._rows: Optional[List[Row]] = None
        # Dynamic overlay (nodes with id >= num_static).
        self._ov_rows: List[Row] = []
        # Static node -> edges into the overlay.
        self._extra: Dict[int, Row] = {}
        self._scratch_pool: List[DijkstraScratch] = []
        self._scipy_matrix = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_lists(cls, neighbors: Iterable[Iterable[int]],
                   weights: Iterable[Iterable[float]]) -> "CSRGraph":
        """Freeze a ``(neighbors, weights)`` list-of-lists adjacency."""
        neighbors = list(neighbors)
        weights = list(weights)
        if len(neighbors) != len(weights):
            raise ValueError("neighbors and weights must be parallel")
        indptr = np.zeros(len(neighbors) + 1, dtype=np.int64)
        for node, row in enumerate(neighbors):
            indptr[node + 1] = indptr[node] + len(row)
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int32)
        flat_weights = np.empty(total, dtype=np.float64)
        cursor = 0
        for row, row_weights in zip(neighbors, weights):
            step = len(row)
            indices[cursor:cursor + step] = row
            flat_weights[cursor:cursor + step] = row_weights
            cursor += step
        return cls(indptr, indices, flat_weights)

    @classmethod
    def from_entries(cls, rows: np.ndarray, indices: np.ndarray,
                     weights: np.ndarray, num_nodes: int) -> "CSRGraph":
        """Freeze directed entries ``rows[i] -> indices[i]``.

        A stable sort by row keeps each row's entries in given order.
        """
        order = np.argsort(rows, kind="stable")
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
        return cls(indptr, indices[order], weights[order])

    def frozen(self) -> "CSRGraph":
        """A copy with the overlay merged into the static section.

        Rows keep their order: a static node's overlay edges follow its
        static entries, in attach order (inserted at the end of its
        row; ``np.insert`` keeps equal positions in given order), and
        the overlay rows follow the static ones.
        """
        owners = np.array([node for node, row in self._extra.items()
                           for _ in row], dtype=np.int64)
        at = self.indptr[owners + 1]
        back_ids, back_weights = _entry_arrays(self._extra.values())
        tail_ids, tail_weights = _entry_arrays(self._ov_rows)
        counts = np.concatenate([
            np.diff(self.indptr)
            + np.bincount(owners, minlength=self.num_static),
            np.array([len(row) for row in self._ov_rows], dtype=np.int64)])
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(
            indptr,
            np.concatenate([np.insert(self.indices, at, back_ids),
                            tail_ids]),
            np.concatenate([np.insert(self.weights, at, back_weights),
                            tail_weights]))

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def num_static(self) -> int:
        """Nodes in the frozen section (ids below this are static)."""
        return len(self.indptr) - 1

    @property
    def num_overlay(self) -> int:
        return len(self._ov_rows)

    @property
    def num_nodes(self) -> int:
        return self.num_static + len(self._ov_rows)

    @property
    def num_entries(self) -> int:
        """Directed adjacency entries (static + overlay, both ways)."""
        overlay = sum(len(row) for row in self._ov_rows)
        extra = sum(len(row) for row in self._extra.values())
        return len(self.indices) + overlay + extra

    # ------------------------------------------------------------------
    # overlay mutation
    # ------------------------------------------------------------------
    def attach_node(self, neighbors: Iterable[int],
                    weights: Iterable[float]) -> int:
        """Append an overlay node with the given (undirected) edges."""
        node = self.num_nodes
        row: Row = [(int(v), float(w)) for v, w in zip(neighbors, weights)]
        static_n = self.num_static
        self._scipy_matrix = None
        self._ov_rows.append(row)
        for other, weight in row:
            if other < static_n:
                self._extra.setdefault(other, []).append((node, weight))
            else:
                self._ov_rows[other - static_n].append((node, weight))
        return node

    def detach_last(self) -> None:
        """Remove the most recently attached overlay node."""
        if not self._ov_rows:
            raise ValueError("no overlay nodes to detach")
        node = self.num_nodes - 1
        static_n = self.num_static
        self._scipy_matrix = None
        row = self._ov_rows.pop()
        for other, _ in row:
            if other < static_n:
                back = self._extra[other]
            else:
                back = self._ov_rows[other - static_n]
            for position, (neighbor, _) in enumerate(back):
                if neighbor == node:
                    back.pop(position)
                    break
            if other < static_n and not back:
                del self._extra[other]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> Tuple[List[int], List[float]]:
        """``(neighbors, weights)`` of one node (fresh lists)."""
        static_n = self.num_static
        if node >= static_n:
            row = self._ov_rows[node - static_n]
        else:
            row = self._static_rows()[node] + self._extra.get(node, [])
        return [v for v, _ in row], [w for _, w in row]

    def to_lists(self) -> Tuple[List[List[int]], List[List[float]]]:
        """The whole graph as a ``(neighbors, weights)`` list-of-lists pair.

        Fresh lists, rows as :meth:`neighbors` gives them: the input of
        the reference search kernel.
        """
        rows = [self.neighbors(node) for node in range(self.num_nodes)]
        return [ids for ids, _ in rows], [weights for _, weights in rows]

    def _static_rows(self) -> List[Row]:
        if self._rows is None:
            indices_l = self.indices.tolist()
            weights_l = self.weights.tolist()
            indptr_l = self.indptr.tolist()
            self._rows = [
                list(zip(indices_l[indptr_l[i]:indptr_l[i + 1]],
                         weights_l[indptr_l[i]:indptr_l[i + 1]]))
                for i in range(len(indptr_l) - 1)
            ]
        return self._rows

    def kernel_view(self):
        """The pieces the pure-Python search kernel iterates.

        Returns ``(rows, static_n, overlay_rows, extra)`` where every
        row is a list of ``(neighbor, weight)`` tuples and ``extra``
        maps static node ids to their overlay back-edges.
        """
        return (self._static_rows(), self.num_static, self._ov_rows,
                self._extra)

    def scipy_matrix(self):
        """The whole graph as a cached ``scipy.sparse.csr_matrix``.

        With an overlay present this is the matrix of :meth:`frozen`,
        so searches from or through overlay nodes see every edge;
        :meth:`attach_node` and :meth:`detach_last` drop the cache.
        Needs SciPy; only the kernel's whole-row searches ask for it.
        Explicit zero-weight entries survive the ``(data, indices,
        indptr)`` construction and ``csgraph.dijkstra`` honours them as
        zero-length edges (pinned by an equivalence test).
        """
        if self._scipy_matrix is None:
            from scipy.sparse import csr_matrix
            graph = self.frozen() if self._ov_rows else self
            n = graph.num_static
            self._scipy_matrix = csr_matrix(
                (graph.weights, graph.indices, graph.indptr), shape=(n, n))
        return self._scipy_matrix

    # ------------------------------------------------------------------
    # scratch pool
    # ------------------------------------------------------------------
    def acquire_scratch(self) -> DijkstraScratch:
        """Borrow a scratch buffer sized for the current node count."""
        if self._scratch_pool:
            scratch = self._scratch_pool.pop()
        else:
            scratch = DijkstraScratch(self.num_nodes)
        scratch.ensure(self.num_nodes)
        return scratch

    def release_scratch(self, scratch: DijkstraScratch) -> None:
        """Return a borrowed scratch buffer to the pool."""
        self._scratch_pool.append(scratch)
