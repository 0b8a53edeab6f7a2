"""Out-of-core paged query backend: bounded resident memory.

:func:`~repro.core.store.open_oracle` hands whole-section
``numpy.memmap`` views to :class:`~repro.core.compiled.CompiledOracle`
— convenient, but a hot ``query_batch`` can touch the entire packed
pair columns, so the resident set grows with store size rather than
with the working set.  :class:`PagedOracle` answers the same queries
against the same v4 store through a **fixed-size page pool**:

* the O(#pairs) columns — ``pair_keys``, ``pair_distances``,
  ``hash_level2_a/shift/offset``, ``hash_slots`` — are never mapped.
  Each one is a lazy column whose ``column[indices]`` is a pool
  *gather*: indices are grouped by page (``numpy.argsort`` over page
  ids) so every page is touched exactly once per gather, pages load
  with ``read(page_bytes)`` at the section's fixed file offset, and a
  :class:`~repro.core.residency.Residency` LRU bounds how many stay
  resident;
* the small routing state — the ancestor-chain matrix and its derived
  key planes, the tree tables, the two level-1 hash scalars — loads
  once at open (O(n·h) bytes, independent of the pair count) and is
  accounted separately as ``fixed_bytes``;
* the probe is the compiled oracle's own: the lazy columns go into an
  ordinary :class:`~repro.datastructures.perfect_hash.PerfectHashMap`
  via :func:`~repro.core.store.compile_sections`, so
  :meth:`~repro.datastructures.perfect_hash.PerfectHashMap.get_batch`
  is the one multiply-shift probe for mmap'd, tiled and paged stores
  alike.  Paging only changes *where* an element's bytes come from —
  never which element is read — so results are bit-identical to the
  mmap'd ``CompiledOracle`` at any pool bound, down to a single page.

The ledger is the shared residency ledger: page ``loads`` /
``evictions`` / ``hits`` reconcile as ``loads - evictions ==
resident_pages``, and ``resident_bytes`` / ``peak_resident_bytes``
never exceed the configured pool budget.  The pool reads through the
store's one :class:`~repro.core.store.StoreFile` descriptor, one
positional read per page into a private buffer, so a store truncated
in place answers a typed store error (``OSError``), never garbage;
:meth:`PagedOracle.close` (or leaving a ``with`` block) releases the
descriptor.  ``benchmarks/bench_paged.py`` gates both the equivalence
and the memory ceiling in CI.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .residency import Residency
from .store import CompiledStore, PathLike, StoreFile, _ClosedTables, compile_sections

__all__ = ["PagedOracle", "DEFAULT_PAGE_BYTES", "PAGED_SECTIONS"]

#: Default page size: 64 KiB — large enough that sequential gathers
#: amortise the seek, small enough that tiny pool budgets still hold
#: several pages.
DEFAULT_PAGE_BYTES = 64 * 1024

#: The store sections that page through the pool — exactly the
#: O(#pairs) columns ``PerfectHashMap.get_batch`` probes.  Everything
#: else is O(n·h) routing state and loads once at open.
PAGED_SECTIONS = ("pair_keys", "pair_distances", "hash_level2_a",
                  "hash_level2_shift", "hash_level2_offset",
                  "hash_slots")

_RESIDENT_SECTIONS = ("tree_table", "tree_radii", "chains",
                      "hash_level1")


class _PagePool:
    """LRU pool of fixed-size pages over a store file's flat sections.

    One pool serves every paged section; the page key is
    ``(section, page_number)``.  ``gather`` is the only read path:
    element indices are sorted by page id so each distinct page is
    located (and, on a miss, loaded) exactly once per call, whatever
    order the probe produced the indices in.  Pages are positional
    reads through ``store``, the pool's one descriptor (``_handle``).
    """

    def __init__(self, store: StoreFile, page_bytes: int, max_pages: int):
        if page_bytes < 8 or page_bytes % 8:
            raise ValueError("page_bytes must be a positive multiple "
                             "of 8 (all paged sections are 8-byte "
                             "elements)")
        if max_pages < 1:
            raise ValueError("page pool needs at least one page")
        self.page_bytes = int(page_bytes)
        self.max_pages = int(max_pages)
        self._geometry: Dict[str, Tuple[int, np.dtype, int, int]] = {}
        for name in PAGED_SECTIONS:
            offset, dtype, shape = store.layout(name)
            total = int(np.prod(shape, dtype=np.int64)) if shape else 1
            per_page = max(1, self.page_bytes // dtype.itemsize)
            self._geometry[name] = (offset, dtype, total, per_page)
        self.pages = Residency(self.max_pages)
        self._lock = threading.RLock()
        self._handle = store

    def close(self) -> None:
        with self._lock:
            self.pages.clear()
            self._handle.close()

    def gather(self, section: str, indices: np.ndarray) -> np.ndarray:
        """``section_array[indices]`` with page-grouped access.

        ``indices`` must be in-range element indices (any integer
        dtype).  The result dtype is the section's; the element order
        matches ``indices`` — only the *access* order is grouped, so
        the gather is value-equal to a fancy-index on the full array.
        """
        flat = np.ascontiguousarray(indices, dtype=np.int64)
        offset, dtype, total, per_page = self._geometry[section]
        out = np.empty(flat.shape[0], dtype=dtype)
        if flat.shape[0] == 0:
            return out
        page_ids = flat // per_page
        order = np.argsort(page_ids, kind="stable")
        sorted_ids = page_ids[order]
        cuts = np.flatnonzero(np.diff(sorted_ids)) + 1
        with self._lock:
            for group in np.split(order, cuts):
                page_no = int(page_ids[group[0]])
                page = self._page(section, page_no)
                out[group] = page[flat[group] - page_no * per_page]
        return out

    def _page(self, section: str, page_no: int) -> np.ndarray:
        key = (section, page_no)
        page = self.pages.get(key)
        if page is None:
            offset, dtype, total, per_page = self._geometry[section]
            start = page_no * per_page
            size = min(per_page, total - start) * dtype.itemsize
            raw = self._handle.read(offset + start * dtype.itemsize, size)
            page = np.frombuffer(raw, dtype=dtype)
            self.pages.admit(key, page, page.nbytes)
        return page


class _PagedColumn:
    """One paged section as a frozen-hash column: ``column[indices]``
    gathers through the pool, so the section is never read whole."""

    def __init__(self, pool: _PagePool, section: str):
        self._pool = pool
        self._section = section
        _, self.dtype, total, _ = pool._geometry[section]
        self.shape = (total,)

    def __getitem__(self, indices) -> np.ndarray:
        return self._pool.gather(self._section, indices)


class PagedOracle(CompiledStore):
    """A v4 store served through a bounded page pool.

    Implements ``DistanceIndex`` (``query`` / ``query_batch`` /
    ``query_matrix``) with the resident footprint of the pair/hash
    columns capped at ``max_resident_bytes`` (or an explicit
    ``page_bytes`` × ``max_pages`` pool shape).  Bit-identical to the
    mmap'd :class:`~repro.core.compiled.CompiledOracle` at any bound.

    ``path`` is a store file or an open
    :class:`~repro.core.store.StoreFile`, which the oracle takes over.
    Thread-safe: the pool serialises gathers behind an ``RLock``, so
    concurrent service workers share one pool the same way they share
    one tiled-store LRU.
    """

    def __init__(self, path: PathLike, *,
                 max_resident_bytes: Optional[int] = None,
                 page_bytes: Optional[int] = None,
                 max_pages: Optional[int] = None):
        store = StoreFile.of(path)
        try:
            if page_bytes is None:
                if max_resident_bytes is not None:
                    if max_resident_bytes < 8:
                        raise ValueError(
                            "max_resident_bytes must be at least 8 "
                            "(one 8-byte element)"
                        )
                    # Split the budget into at least 8 pages: one probe
                    # round gathers from all six paged sections, so a pool
                    # with fewer pages than sections evicts *within* every
                    # round and can never hit.
                    page_bytes = max(
                        8, min(DEFAULT_PAGE_BYTES, max_resident_bytes // 8 // 8 * 8)
                    )
                else:
                    page_bytes = DEFAULT_PAGE_BYTES
            if max_pages is None:
                if max_resident_bytes is not None:
                    max_pages = max(1, max_resident_bytes // page_bytes)
                else:
                    max_pages = 1 << 30  # effectively unbounded
            if "tiles" in store.meta:
                raise ValueError(
                    f"{store.path}: tiled stores page at tile granularity; "
                    "open with max_resident_tiles instead"
                )
            required = (*_RESIDENT_SECTIONS, *PAGED_SECTIONS)
            missing = [name for name in required if name not in store.names]
            if missing:
                raise ValueError(f"{store.path}: store is missing sections {missing}")
            self._identify(store.meta, store)
            sections: Dict[str, Any] = {
                name: store.array(name, mmap=False) for name in _RESIDENT_SECTIONS
            }
            # Fixed resident state: every resident section plus the four
            # key planes derived from the chains (4 × n·(h+1) × 8 bytes).
            # Reported in the ledger so "bounded" is an auditable claim,
            # not a slogan.
            resident = sum(array.nbytes for array in sections.values())
            self.fixed_bytes = resident + 4 * sections["chains"].nbytes
            self._pool = _PagePool(store, page_bytes, max_pages)
            for name in PAGED_SECTIONS:
                sections[name] = _PagedColumn(self._pool, name)
            self.compiled = compile_sections(
                sections, seed=self.seed, epsilon=self.epsilon
            )
        except BaseException:
            store.close()  # no caller will get to close it
            raise
        self.load_seconds = time.perf_counter() - store.opened

    def _release(self) -> None:
        self.compiled = _ClosedTables(self.path)
        self._pool.close()

    # ------------------------------------------------------------------
    # ledger (the page pool's Residency)
    # ------------------------------------------------------------------
    def page_counters(self) -> Dict[str, Any]:
        """The paging ledger: ``loads - evictions == resident_pages``,
        ``peak_resident_bytes <= page_bytes * max_pages`` always."""
        pool = self._pool
        pages = pool.pages
        return {
            "page_bytes": pool.page_bytes,
            "max_pages": pool.max_pages,
            "budget_bytes": pool.page_bytes * pool.max_pages,
            "loads": pages.loads,
            "evictions": pages.evictions,
            "hits": pages.hits,
            "resident_pages": len(pages),
            "resident_bytes": pages.resident_bytes,
            "peak_resident_bytes": pages.peak_resident_bytes,
            "fixed_bytes": self.fixed_bytes,
        }

    @property
    def peak_resident_bytes(self) -> int:
        return self._pool.pages.peak_resident_bytes
