"""Out-of-core paged query backend: bounded resident memory.

:func:`~repro.core.store.open_oracle` hands views of one whole-store
map to :class:`~repro.core.compiled.CompiledOracle` — convenient, but
a hot ``query_batch`` can touch the entire packed pair columns, so the
resident set grows with store size rather than with the working set.
:class:`PagedOracle` answers the same queries against the same v4
store through a **fixed-size page pool**:

* every writer packs the pair set as a **sorted run**: ``pair_keys``
  strictly ascending, ``pair_distances`` aligned with it
  (``meta.json``'s ``pair_order`` is ``"key"``).  Those two sections
  are the only O(#pairs) bytes the probe reads, and they are never
  mapped: they page through the pool, one positional read of
  ``page_bytes`` per page at the section's fixed file offset, with a
  :class:`~repro.core.residency.Residency` LRU bounding how many pages
  stay resident.  The hash tables are not read at all;
* the first key of every key page stays resident as a **fence
  pointer** (one 8-byte positional read per key page at open, plus
  the run's last key), as SSTables and B+-tree inner levels index a
  sorted run.  A batch resolves with one ``searchsorted`` of the
  fences into its sorted keys, touches each distinct page once, and
  finishes with an in-page ``searchsorted``; a distance page loads
  only when its key page holds a hit.  Sorted by key, one kNN row's keys share their
  source chain node and land in a few adjacent pages, so a pool far
  smaller than the run still hits;
* the small routing state — the ancestor-chain matrix and its derived
  key planes, the fences, the nearest-neighbour column RNN reads —
  loads once at open (O(n·h) bytes plus 8 bytes per key page,
  independent of what queries touch) and is accounted separately as
  ``fixed_bytes``.  The tree tables are never read: the probe needs
  only the chains;
* the query is the compiled oracle's own two-phase probe: the pool is
  the :class:`~repro.core.compiled.CompiledOracle`'s pair table (the
  ``get_batch(keys, default)`` contract).  Each key is found by its
  value in the sorted run, where the mmap'd and tiled stores find it
  by hashing, and both read the same stored float — so results are
  bit-identical to the mmap'd ``CompiledOracle`` at any pool bound,
  down to a single one-element page.

A store whose fences or key pages do not strictly ascend is damaged:
the pool raises a store error (``OSError``), never an answer.  A store
packed before the key order (no ``pair_order`` entry) is refused at
open with a ``ValueError`` naming the fix (:func:`check_pageable`;
the service refuses it at registration).

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

import errno
import threading
import time
from typing import Any, Dict, Mapping, Optional

import numpy as np

from .compiled import CompiledOracle
from .residency import Residency
from .store import PAIR_ORDER, CompiledStore, PathLike, StoreFile, _ClosedTables

__all__ = ["PagedOracle", "DEFAULT_PAGE_BYTES", "PAGED_SECTIONS",
           "check_pageable"]

#: Default page size: 64 KiB — large enough that sequential reads
#: amortise the seek, small enough that tiny pool budgets still hold
#: several pages.
DEFAULT_PAGE_BYTES = 64 * 1024

#: The store sections that page through the pool: the sorted pair
#: run.  Everything else the probe needs is O(n·h) routing state and
#: loads once at open.
PAGED_SECTIONS = ("pair_keys", "pair_distances")



def check_pageable(meta: Mapping[str, Any], path: str) -> None:
    """Raise ``ValueError`` unless a store with this ``meta`` can be
    paged: a monolithic store whose pairs are packed in key order."""
    if "tiles" in meta:
        raise ValueError(
            f"{path}: tiled stores page at tile granularity; use "
            "max_resident_tiles instead of max_resident_bytes")
    if meta.get("pair_order") != PAIR_ORDER:
        raise ValueError(
            f"{path}: the store packs its pairs in build order, and "
            "paging needs them in key order; serve it unpaged (no "
            "max_resident_bytes) or re-pack it from its JSON document "
            "(python -m repro pack) or its terrain (python -m repro "
            "build)")


def _damaged(store: StoreFile, what: str) -> OSError:
    return OSError(errno.EIO, f"{store.path}: {what} is not in strictly "
                   "ascending key order; the store is damaged")


class _PagePool:
    """LRU pool of fixed-size pages over a store's sorted pair run,
    and the pair table the paged :class:`CompiledOracle` probes.

    Key page ``p`` and distance page ``p`` cover the same elements
    (both sections hold 8-byte elements).  The resident ``fences``
    hold the first key of every key page, ``last`` the run's last key.
    Pages are keyed ``(section, page_no)`` in one
    :class:`~repro.core.residency.Residency` and read positionally
    through ``store``, the pool's one descriptor (``_handle``).
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
        self.per_page = self.page_bytes // 8
        self._offsets: Dict[str, int] = {}
        self._dtypes: Dict[str, np.dtype] = {}
        shapes = []
        for name in PAGED_SECTIONS:
            offset, dtype, shape = store.layout(name)
            if dtype.itemsize != 8 or len(shape) != 1:
                raise ValueError(f"{store.path}: section {name} is not a "
                                 "flat column of 8-byte elements")
            self._offsets[name], self._dtypes[name] = offset, dtype
            shapes.append(shape)
        if shapes[0] != shapes[1] or not shapes[0][0]:
            raise ValueError(f"{store.path}: pair_keys and pair_distances "
                             "must be non-empty and of one length")
        self.total = shapes[0][0]
        self._handle = store
        self.pages = Residency(self.max_pages)
        self._lock = threading.RLock()
        at = self._offsets["pair_keys"]
        reads = [*range(at, at + 8 * self.total, self.page_bytes),
                 at + 8 * (self.total - 1)]
        run = np.frombuffer(b"".join(store.read(at, 8) for at in reads),
                            dtype=self._dtypes["pair_keys"])
        self.fences, self.last = run[:-1], run[-1]
        if (np.any(self.fences[1:] <= self.fences[:-1])
                or self.last < self.fences[-1]):
            raise _damaged(store, "the pair run's fence keys")

    @property
    def fixed_bytes(self) -> int:
        """The resident fences and last key."""
        return self.fences.nbytes + 8

    def __len__(self) -> int:
        return self.total

    def close(self) -> None:
        with self._lock:
            self.pages.clear()
            self._handle.close()

    def get_batch(self, keys, default: float = float("nan")) -> np.ndarray:
        """Each packed pair key's stored distance, ``default`` where the
        run holds no such key (``PerfectHashMap.get_batch``'s
        contract).

        The keys are sorted once; one ``searchsorted`` of the fences
        into them cuts them into per-page runs, so each distinct page
        is located (and, on a miss, loaded) once per call, and an
        in-page ``searchsorted`` finishes the lookup.  Keys below the
        first fence or above the run's last key touch no page.
        """
        key_array = np.asarray(keys, dtype=np.uint64)
        flat = key_array.reshape(-1)
        result = np.full(flat.shape[0], default, dtype=np.float64)
        order = np.argsort(flat)
        ordered = flat[order]
        # Key page p holds ordered[bounds[p]:bounds[p + 1]].
        bounds = np.append(np.searchsorted(ordered, self.fences),
                           np.searchsorted(ordered, self.last, side="right"))
        touched = np.flatnonzero(bounds[1:] > bounds[:-1]).tolist()
        bounds = bounds.tolist()
        with self._lock:
            for page_no in touched:
                start, stop = bounds[page_no], bounds[page_no + 1]
                wanted = ordered[start:stop]
                page = self._page("pair_keys", page_no)
                at = np.searchsorted(page, wanted)
                found = page.take(at, mode="clip") == wanted
                if found.any():
                    distances = self._page("pair_distances", page_no)
                    result[order[start:stop][found]] = distances[at[found]]
        return result.reshape(key_array.shape)

    def _page(self, section: str, page_no: int) -> np.ndarray:
        key = (section, page_no)
        page = self.pages.get(key)
        if page is None:
            start = page_no * self.per_page
            count = min(self.per_page, self.total - start)
            raw = self._handle.read(self._offsets[section] + 8 * start,
                                    8 * count)
            page = np.frombuffer(raw, dtype=self._dtypes[section])
            if section == "pair_keys":
                self._check_keys(page, page_no)
            self.pages.admit(key, page, page.nbytes)
        return page

    def _check_keys(self, page: np.ndarray, page_no: int) -> None:
        """A key page must ascend strictly between its own fence and
        the next one (the run's last key for the last page)."""
        bounded = (page[-1] < self.fences[page_no + 1]
                   if page_no + 1 < self.fences.shape[0]
                   else page[-1] == self.last)
        if (page[0] != self.fences[page_no] or not bounded
                or np.any(page[1:] <= page[:-1])):
            raise _damaged(self._handle, f"pair_keys page {page_no}")


class PagedOracle(CompiledStore):
    """A v4 store served through a bounded page pool.

    Implements ``DistanceIndex`` (``query`` / ``query_batch`` /
    ``query_matrix``) with the resident footprint of the sorted pair
    run capped at ``max_resident_bytes`` (or an explicit
    ``page_bytes`` × ``max_pages`` pool shape).  Bit-identical to the
    mmap'd :class:`~repro.core.compiled.CompiledOracle` at any bound.

    ``path`` is a store file or an open
    :class:`~repro.core.store.StoreFile`, which the oracle takes over.
    The store must be pageable (:func:`check_pageable`).  Thread-safe:
    the pool serialises page lookups behind an ``RLock``, so
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
                    # Split the budget into at least 8 pages: a batch
                    # reads key pages and their distance pages, and
                    # its rows' keys fall in several runs of adjacent
                    # pages, so a pool of a few large pages would
                    # evict within every batch.
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
            check_pageable(store.meta, store.path)
            required = ("chains", *PAGED_SECTIONS)
            missing = [name for name in required if name not in store.names]
            if missing:
                raise ValueError(f"{store.path}: store is missing sections {missing}")
            self._identify(store.meta, store)
            self._read_nearest(store)
            chains = store.array("chains", mmap=False)
            self._routing_bytes = 5 * chains.nbytes
            self._pool = _PagePool(store, page_bytes, max_pages)
            self.compiled = CompiledOracle(chains, self._pool, self.epsilon)
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
    def fixed_bytes(self) -> int:
        """Resident state outside the pool: the chain matrix, the four
        key planes derived from it (4 × n·(h+1) × 8 bytes), the fences
        and last key, and the nearest-distance column (n × 8 bytes)
        once read or derived.  Reported in the ledger so "bounded" is
        an auditable claim, not a slogan."""
        column = 0 if self._nearest is None else self._nearest.nbytes
        return self._routing_bytes + self._pool.fixed_bytes + column

    @property
    def peak_resident_bytes(self) -> int:
        return self._pool.pages.peak_resident_bytes
