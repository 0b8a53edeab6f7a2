"""Full materialization baseline — the strawman of Section 2.

"A full materialization of geodesic distances for all possible pairs of
points in P is not feasible since the complexity of the oracle size and
the oracle building time are O(n²) and O(n N log² N)."  We implement it
anyway: it is the exactness/throughput reference for small ``n`` and
the ablation endpoint the other oracles are judged against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..geodesic.engine import GeodesicEngine

__all__ = ["FullAPSPBaseline"]


@dataclass
class FullAPSPStats:
    total_seconds: float = 0.0
    ssad_calls: int = 0


class FullAPSPBaseline:
    """Exact n x n POI distance matrix via one SSAD per POI."""

    def __init__(self, engine: GeodesicEngine):
        self._engine = engine
        self._matrix: Optional[np.ndarray] = None
        self.stats = FullAPSPStats()

    def build(self) -> "FullAPSPBaseline":
        engine = self._engine
        n = engine.num_pois
        started = time.perf_counter()
        calls_before = engine.ssad_calls
        matrix = np.full((n, n), np.inf)
        rows = engine.distances_many(range(n))
        for source, row in enumerate(rows):
            matrix[source, row.ids] = row.dists
        self._matrix = matrix
        self.stats.total_seconds = time.perf_counter() - started
        self.stats.ssad_calls = engine.ssad_calls - calls_before
        return self

    @property
    def is_built(self) -> bool:
        return self._matrix is not None

    @property
    def num_pois(self) -> int:
        return self._engine.num_pois

    @property
    def supports_updates(self) -> bool:
        """``DistanceIndex`` flag: the matrix is rebuilt, not patched."""
        return False

    @property
    def is_compiled(self) -> bool:
        """Batches are fancy-indexed gathers — a compiled table."""
        return True

    def size_bytes(self) -> int:
        if self._matrix is None:
            raise RuntimeError("baseline not built; call build() first")
        return 8 * self._matrix.size

    def query(self, source: int, target: int) -> float:
        """Exact geodesic distance (O(1) table lookup)."""
        if self._matrix is None:
            raise RuntimeError("baseline not built; call build() first")
        return float(self._matrix[source, target])

    def query_batch(self, sources, targets) -> np.ndarray:
        """Batched :meth:`query`: one fancy-indexed gather (float64).

        Same protocol as the compiled SE oracle's ``query_batch``, so
        the baseline slots into vectorized proximity queries and the
        equivalence harness as the ground-truth comparator.
        """
        if self._matrix is None:
            raise RuntimeError("baseline not built; call build() first")
        source_ids = np.asarray(sources, dtype=np.intp)
        target_ids = np.asarray(targets, dtype=np.intp)
        return self._matrix[source_ids, target_ids].astype(np.float64,
                                                           copy=True)

    def query_matrix(self, pois=None) -> np.ndarray:
        """All-pairs submatrix over ``pois`` (default: all, a copy)."""
        if self._matrix is None:
            raise RuntimeError("baseline not built; call build() first")
        if pois is None:
            return self._matrix.copy()
        ids = np.asarray(pois, dtype=np.intp)
        return self._matrix[np.ix_(ids, ids)].astype(np.float64,
                                                     copy=True)

    def matrix(self) -> np.ndarray:
        """The full distance matrix (read-only view)."""
        if self._matrix is None:
            raise RuntimeError("baseline not built; call build() first")
        view = self._matrix.view()
        view.setflags(write=False)
        return view
