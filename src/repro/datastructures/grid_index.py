"""Grid density index backing the greedy point-selection strategy.

Implementation Detail 1 of Section 3.2: for Layer ``i`` the greedy
strategy builds "a grid on the x-y plane with the cell width equal to
O(r0 / 2^i)", inserts the uncovered points into cells, indexes "all
point IDs in each cell in a B+-tree" and keeps "a max-heap containing
all non-empty cells whose keys are the sizes of their B+-trees".
Selecting a point means reading the densest cell and picking a point
from it; covering a point decrements its cell's key (and drops empty
cells from the heap).

A cell here holds a few POIs, so its point index is a Python ``set``;
a pick reads it ``sorted``, the in-order scan a B+-tree would give.
The cells sit in an :class:`~repro.datastructures.binheap.
IndexedMaxHeap` keyed by size, whose tie order among equally dense
cells is part of every greedy tree.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, Optional, Set, Tuple

from .binheap import IndexedMaxHeap

__all__ = ["GridDensityIndex"]

Cell = Tuple[int, int]


class GridDensityIndex:
    """Uniform x-y grid over point ids with density-ordered cell access.

    Parameters
    ----------
    points:
        ``{point_id: (x, y)}`` planar coordinates of the points to index.
    cell_width:
        Grid cell width; the paper uses ``O(r0 / 2^i)`` for Layer ``i``.
    rng:
        Source of randomness for picking a point within the densest cell.
    """

    def __init__(
        self,
        points: Dict[int, Tuple[float, float]],
        cell_width: float,
        rng: Optional[random.Random] = None,
    ):
        if cell_width <= 0 or not math.isfinite(cell_width):
            raise ValueError(f"cell_width must be positive, got {cell_width}")
        self._width = cell_width
        self._rng = rng if rng is not None else random.Random(0)
        self._cells: Dict[Cell, Set[int]] = {}
        self._cell_of: Dict[int, Cell] = {}
        self._heap = IndexedMaxHeap()
        for point_id, (x, y) in points.items():
            self.insert(point_id, x, y)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cell_of)

    def __bool__(self) -> bool:
        return bool(self._cell_of)

    def __contains__(self, point_id: int) -> bool:
        return point_id in self._cell_of

    @property
    def cell_width(self) -> float:
        return self._width

    def cell_of(self, x: float, y: float) -> Cell:
        """Grid cell containing planar coordinate ``(x, y)``."""
        return (math.floor(x / self._width), math.floor(y / self._width))

    def non_empty_cells(self) -> int:
        return len(self._cells)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, point_id: int, x: float, y: float) -> None:
        """Insert a point; raises ``ValueError`` on duplicate ids."""
        if point_id in self._cell_of:
            raise ValueError(f"duplicate point id: {point_id}")
        cell = self.cell_of(x, y)
        members = self._cells.setdefault(cell, set())
        members.add(point_id)
        self._cell_of[point_id] = cell
        self._heap.push_or_update(cell, len(members))

    def remove(self, point_id: int) -> None:
        """Remove a covered point, decrementing its cell's heap key."""
        cell = self._cell_of.pop(point_id)
        members = self._cells[cell]
        members.remove(point_id)
        if members:
            self._heap.update_key(cell, len(members))
        else:
            del self._cells[cell]
            self._heap.remove(cell)

    def remove_all(self, point_ids: Iterable[int]) -> None:
        """Remove every id in ``point_ids`` that is still present."""
        for point_id in point_ids:
            if point_id in self._cell_of:
                self.remove(point_id)

    # ------------------------------------------------------------------
    # greedy selection
    # ------------------------------------------------------------------
    def densest_cell(self) -> Cell:
        """Cell currently containing the most points."""
        cell, _ = self._heap.peek()
        return cell

    def pick_from_densest(self) -> int:
        """Return a random point id from the densest cell (not removed).

        The draw indexes the cell's ids in ascending order.
        """
        if not self._cell_of:
            raise IndexError("pick from empty index")
        ids = sorted(self._cells[self.densest_cell()])
        return ids[self._rng.randrange(len(ids))]

    def check_invariants(self) -> None:
        """Assert cross-structure consistency (for tests)."""
        total = 0
        for cell, members in self._cells.items():
            assert members, "empty cell retained"
            assert self._heap.key_of(cell) == len(members), "heap key stale"
            total += len(members)
        assert total == len(self._cell_of), "point count out of sync"
        for point_id, cell in self._cell_of.items():
            assert point_id in self._cells[cell], "cell map stale"
        self._heap.check_invariants()
