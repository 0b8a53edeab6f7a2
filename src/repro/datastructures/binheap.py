"""Indexed binary max-heap with key updates in either direction.

The greedy point-selection strategy (Implementation Detail 1, Section
3.2) keeps a *max*-heap over grid cells keyed by the number of
uncovered POIs in the cell, and updates a cell's key every time one
of its points is covered.  Among equally dense cells the heap's array
order decides which cell is read, so that order is part of every
SE(Greedy) tree: the sift rules below (swap only on a strictly larger
key, left child before right, swap-with-last removal) are the
contract, not an implementation detail.
"""

from __future__ import annotations

from typing import Hashable, Tuple

__all__ = ["IndexedMaxHeap"]


class IndexedMaxHeap:
    """An array-backed binary max-heap with O(log n) key updates.

    The heap maps hashable *items* to float *keys*; each item
    appears at most once.  Unlike ``heapq`` it supports changing the
    key of an item already in the heap and removing any item.

    Example
    -------
    >>> heap = IndexedMaxHeap()
    >>> heap.push_or_update("a", 3)
    >>> heap.push_or_update("b", 1)
    >>> heap.update_key("b", 5)
    >>> heap.peek()
    ('b', 5)
    """

    def __init__(self) -> None:
        self._keys: list[float] = []
        self._items: list[Hashable] = []
        self._pos: dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._pos

    def key_of(self, item: Hashable) -> float:
        """Return the current key of ``item``; raises ``KeyError`` if absent."""
        return self._keys[self._pos[item]]

    def peek(self) -> Tuple[Hashable, float]:
        """Return the maximum ``(item, key)`` pair without removing it."""
        if not self._items:
            raise IndexError("peek from empty heap")
        return self._items[0], self._keys[0]

    def push_or_update(self, item: Hashable, key: float) -> None:
        """Insert ``item`` or update its key (either direction)."""
        if item in self._pos:
            self.update_key(item, key)
            return
        self._items.append(item)
        self._keys.append(key)
        self._pos[item] = len(self._items) - 1
        self._sift_up(len(self._items) - 1)

    def update_key(self, item: Hashable, key: float) -> None:
        """Set the key of ``item`` to any value, restoring heap order."""
        index = self._pos[item]
        old = self._keys[index]
        self._keys[index] = key
        if key > old:
            self._sift_up(index)
        elif key < old:
            self._sift_down(index)

    def remove(self, item: Hashable) -> float:
        """Remove an arbitrary item; returns its key.

        The last array slot fills the hole and sifts down, then up.
        """
        index = self._pos[item]
        key = self._keys[index]
        last = len(self._items) - 1
        if index != last:
            self._swap(index, last)
        self._items.pop()
        self._keys.pop()
        del self._pos[item]
        if index < len(self._items):
            self._sift_down(index)
            self._sift_up(index)
        return key

    def _swap(self, i: int, j: int) -> None:
        self._items[i], self._items[j] = self._items[j], self._items[i]
        self._keys[i], self._keys[j] = self._keys[j], self._keys[i]
        self._pos[self._items[i]] = i
        self._pos[self._items[j]] = j

    def _sift_up(self, index: int) -> None:
        while index > 0:
            parent = (index - 1) >> 1
            if self._keys[index] > self._keys[parent]:
                self._swap(index, parent)
                index = parent
            else:
                break

    def _sift_down(self, index: int) -> None:
        size = len(self._items)
        while True:
            left = 2 * index + 1
            right = left + 1
            largest = index
            if left < size and self._keys[left] > self._keys[largest]:
                largest = left
            if right < size and self._keys[right] > self._keys[largest]:
                largest = right
            if largest == index:
                break
            self._swap(index, largest)
            index = largest

    def check_invariants(self) -> None:
        """Assert the heap property and index consistency (for tests)."""
        size = len(self._items)
        assert len(self._keys) == size
        assert len(self._pos) == size
        for index in range(1, size):
            parent = (index - 1) >> 1
            assert self._keys[parent] >= self._keys[index], (
                f"heap order violated at {index}"
            )
        for item, index in self._pos.items():
            assert self._items[index] == item, "position map out of sync"
