"""One LRU residency ledger behind every bounded cache in the stack.

The service keeps opened terrain stores (``max_resident``), a tiled
store keeps per-tile query tables (``max_resident_tiles``), the page
pool keeps column pages (``max_resident_bytes``) and the store reader
remembers parsed zip directories (``store._DIRECTORY_MEMO``) — all in
a :class:`Residency`, which owns four things:

* the LRU order: a hit moves its entry to the recent end;
* the entry bound: pinned entries count toward it but are never
  victims, so when everything resident is pinned the bound overshoots;
* the ledger: ``loads`` / ``evictions`` / ``hits`` in total (and per
  key through ``counts``) plus ``resident_bytes`` and
  ``peak_resident_bytes``.  Every drop counts one eviction, so
  ``loads - evictions == len(residency)`` at every step;
* the close rule: every dropped value that has a ``close()`` is closed.

It is not thread-safe on its own: owners call it under their own lock.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Optional, Tuple

__all__ = ["Residency", "Counts"]


@dataclass
class Counts:
    """Per-key ``loads`` / ``evictions`` / ``hits``."""

    loads: int = 0
    evictions: int = 0
    hits: int = 0


class Residency:
    """An LRU of at most ``capacity`` values (``None``: unbounded).

    ``pinned(key)`` exempts a resident key from eviction;
    ``counts(key)`` returns the :class:`Counts`-like object to bump
    alongside the totals (``None``: totals only, so the bookkeeping
    stays bounded by the resident set).
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        *,
        pinned: Optional[Callable[[Hashable], bool]] = None,
        counts: Optional[Callable[[Hashable], Any]] = None,
    ):
        self.capacity = capacity
        self._pinned = pinned
        self._counts = counts
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self.loads = 0
        self.evictions = 0
        self.hits = 0
        self.resident_bytes = 0
        self.peak_resident_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def keys(self) -> List[Hashable]:
        """Resident keys, least recently used first."""
        return list(self._entries)

    def peek(self, key: Hashable) -> Any:
        """The resident value, with no hit counted and no LRU move."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def get(self, key: Hashable) -> Any:
        """The resident value (counted as a hit), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self._counts is not None:
            self._counts(key).hits += 1
        return entry[0]

    def admit(self, key: Hashable, value: Any, nbytes: int = 0) -> Any:
        """Make a freshly loaded ``value`` resident (counted as a load),
        first evicting the oldest unpinned entries to respect the bound."""
        self.loads += 1
        if self._counts is not None:
            self._counts(key).loads += 1
        if self.capacity is not None:
            while len(self._entries) >= self.capacity:
                victim = self._victim()
                if victim is None:
                    break
                self.drop(victim)
        self._entries[key] = (value, nbytes)
        self.resident_bytes += nbytes
        self.peak_resident_bytes = max(self.peak_resident_bytes, self.resident_bytes)
        return value

    def drop(self, key: Hashable) -> bool:
        """Evict ``key`` (counted) and close its value; False if absent."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        value, nbytes = entry
        self.resident_bytes -= nbytes
        self.evictions += 1
        if self._counts is not None:
            self._counts(key).evictions += 1
        close = getattr(value, "close", None)
        if close is not None:
            close()
        return True

    def clear(self) -> None:
        """Drop every entry, oldest first."""
        for key in list(self._entries):
            self.drop(key)

    def _victim(self) -> Optional[Hashable]:
        if self._pinned is None:
            return next(iter(self._entries))
        return next((key for key in self._entries if not self._pinned(key)), None)
