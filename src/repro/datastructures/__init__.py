"""Data-structure substrates used by the SE oracle construction.

The paper leans on four classic structures, all implemented here from
scratch:

* :class:`~repro.datastructures.binheap.IndexedMinHeap` /
  :class:`~repro.datastructures.binheap.IndexedMaxHeap` — priority
  queues with key updates (SSAD search frontier, greedy cell heap);
* :class:`~repro.datastructures.bplustree.BPlusTree` — per-grid-cell
  point index of the greedy selection strategy;
* :class:`~repro.datastructures.perfect_hash.PerfectHashMap` — FKS
  two-level perfect hashing of the node pair set (scalar and batch
  probes read one set of multiply-shift tables);
* :class:`~repro.datastructures.grid_index.GridDensityIndex` — the
  grid + B+-tree + max-heap combination of Implementation Detail 1.

On top of those, :class:`~repro.datastructures.csr.CSRGraph` is the
flat NumPy-backed adjacency substrate (frozen CSR core + dynamic site
overlay) every shortest-path search runs on.
"""

from .binheap import IndexedMaxHeap, IndexedMinHeap
from .bplustree import BPlusTree
from .csr import CSRGraph, DijkstraScratch
from .grid_index import GridDensityIndex
from .perfect_hash import PerfectHashMap, pack_pair, unpack_pair

__all__ = [
    "CSRGraph",
    "DijkstraScratch",
    "IndexedMinHeap",
    "IndexedMaxHeap",
    "BPlusTree",
    "GridDensityIndex",
    "PerfectHashMap",
    "pack_pair",
    "unpack_pair",
]
