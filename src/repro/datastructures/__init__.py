"""Data-structure substrates used by the SE oracle construction.

The paper leans on four classic structures: a max-heap, per-cell
B+-trees, perfect hashing and a grid.  A grid cell holds a few POIs,
so its B+-tree is a Python ``set``; the other three are classes of
this package:

* :class:`~repro.datastructures.binheap.IndexedMaxHeap` — the greedy
  strategy's max-heap of grid cells keyed by size, with key updates;
* :class:`~repro.datastructures.perfect_hash.PerfectHashMap` — FKS
  two-level perfect hashing of the node pair set (scalar and batch
  probes read one set of multiply-shift tables);
* :class:`~repro.datastructures.grid_index.GridDensityIndex` — the
  grid + per-cell set + max-heap combination of Implementation
  Detail 1.

On top of those, :class:`~repro.datastructures.csr.CSRGraph` is the
flat NumPy-backed adjacency substrate (frozen CSR core + dynamic site
overlay) every shortest-path search runs on.
"""

from .binheap import IndexedMaxHeap
from .csr import CSRGraph, DijkstraScratch
from .grid_index import GridDensityIndex
from .perfect_hash import PerfectHashMap, pack_pair, unpack_pair

__all__ = [
    "CSRGraph",
    "DijkstraScratch",
    "IndexedMaxHeap",
    "GridDensityIndex",
    "PerfectHashMap",
    "pack_pair",
    "unpack_pair",
]
