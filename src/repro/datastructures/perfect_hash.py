"""FKS-style two-level perfect hashing for static key sets.

Section 3.3 of the paper indexes the node pair set with "the perfect
hashing scheme [7]" so that membership and the associated distance are
retrieved in O(1) worst-case time, with linear expected construction
time and linear space.  This module implements the classic
Fredman-Komlós-Szemerédi construction:

* level one hashes the ``n`` keys into ``n`` buckets with a random
  universal hash ``h(x) = ((a*x + b) mod p) mod n``;
* each bucket with ``b_i`` keys gets its own collision-free table of
  size ``b_i**2``, re-drawing its hash parameters until injective.

Keys are non-negative integers.  Node pairs ``(u, v)`` are packed into a
single integer before hashing (see :func:`pack_pair`).  A thin
dict-like wrapper :class:`PerfectHashMap` stores an arbitrary value per
key.

Construction is randomized but deterministic given ``seed``; the
expected total secondary-table size is < 2n (Σ b_i² concentration), so
we retry level one if an unlucky draw exceeds 4n.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["PerfectHashMap", "pack_pair", "unpack_pair"]

# A Mersenne prime comfortably above any packed key we produce.
_PRIME = (1 << 61) - 1

_PAIR_SHIFT = 32
_PAIR_MASK = (1 << _PAIR_SHIFT) - 1


def pack_pair(u: int, v: int) -> int:
    """Pack an ordered id pair into one integer key.

    Ids must fit in 32 bits, which comfortably covers every node id the
    oracle produces (node counts are O(n h)).
    """
    if not (0 <= u <= _PAIR_MASK and 0 <= v <= _PAIR_MASK):
        raise ValueError(f"pair ids out of range: ({u}, {v})")
    return (u << _PAIR_SHIFT) | v


def unpack_pair(key: int) -> Tuple[int, int]:
    """Inverse of :func:`pack_pair`."""
    return key >> _PAIR_SHIFT, key & _PAIR_MASK


# ----------------------------------------------------------------------
# the frozen (batch-lookup) form
# ----------------------------------------------------------------------
# Batch lookups probe a *frozen* twin of the FKS structure: the same
# two-level perfect-hash topology, but with multiply-shift universal
# hashing — ``h_a(x) = (a * x mod 2^64) >> (64 - l)`` with odd ``a``
# into a power-of-two table (Dietzfelbinger et al.) — because a
# wrapping uint64 multiply plus a shift is two NumPy passes, whereas
# the scalar path's ``(a*x + b) mod (2^61 - 1)`` costs dozens of
# passes once big-int arithmetic is emulated overflow-free on uint64.
# The frozen tables are built once (lazily, seeded off the map's seed)
# and hold float64 values, so one probe resolves millions of keys with
# no Python per key.  Lookup results are identical to the scalar
# path's by construction: both address the same key/value arrays.

_FROZEN_FIELDS = ("keys", "values", "level2_a", "level2_shift",
                  "level2_offset", "slots")


class _FrozenTables:
    """Flat NumPy tables for vectorized probes (see module comment)."""

    __slots__ = ("level1_a", "level1_shift", *_FROZEN_FIELDS)

    def __init__(self, level1_a: int, level1_shift: int, **arrays):
        self.level1_a = np.uint64(level1_a)
        self.level1_shift = np.uint64(level1_shift)
        for name in _FROZEN_FIELDS:
            setattr(self, name, arrays[name])


class _Bucket:
    """Second-level table: collision-free within the bucket."""

    __slots__ = ("a", "b", "size", "slots")

    def __init__(self, a: int, b: int, size: int, slots: List[int]):
        self.a = a
        self.b = b
        self.size = size
        self.slots = slots  # slot -> index into the key/value arrays, or -1

    def locate(self, key: int) -> int:
        slot = ((self.a * key + self.b) % _PRIME) % self.size
        return self.slots[slot]


class PerfectHashMap:
    """A static map with O(1) worst-case lookups via FKS perfect hashing.

    Parameters
    ----------
    items:
        Iterable of ``(key, value)`` with distinct non-negative int keys.
    seed:
        Seed for the (re-drawable) universal hash parameters.

    Example
    -------
    >>> table = PerfectHashMap([(10, "x"), (99, "y")])
    >>> table[10]
    'x'
    >>> 7 in table
    False
    """

    _MAX_LEVEL1_RETRIES = 32
    _MAX_BUCKET_RETRIES = 256

    def __init__(self, items: Iterable[Tuple[int, Any]], seed: int = 0):
        pairs = list(items)
        self._keys: List[int] = [key for key, _ in pairs]
        self._values: List[Any] = [value for _, value in pairs]
        if len(set(self._keys)) != len(self._keys):
            raise ValueError("duplicate keys in PerfectHashMap")
        if any(key < 0 for key in self._keys):
            raise ValueError("keys must be non-negative integers")
        self._n = len(self._keys)
        self._seed = seed
        self._rng = random.Random(seed)
        self._buckets: List[Optional[_Bucket]] = []
        self._a = 1
        self._b = 0
        self._frozen: Optional[_FrozenTables] = None
        self._scalar_ready = True
        self._frozen_first = False
        if self._n:
            self._build()

    @classmethod
    def from_frozen(cls, keys, values, level1: Sequence[int], level2_a,
                    level2_shift, level2_offset, slots,
                    seed: int = 0) -> "PerfectHashMap":
        """Rehydrate a map from persisted frozen tables (zero-copy).

        ``keys``/``values``/``level2_*``/``slots`` are the arrays of
        :meth:`frozen_arrays` (possibly memory-mapped read-only) and
        ``level1`` the ``(level1_a, level1_shift)`` pair.  Batch lookups
        run straight off the supplied tables; the scalar FKS structures
        are rebuilt lazily on first scalar access, from ``seed`` and
        the supplied key order.
        """
        self = cls.__new__(cls)
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.float64)
        if keys.shape != values.shape or len(keys.shape) != 1:
            raise ValueError("keys and values must be aligned 1-D arrays")
        self._keys = keys  # materialised to lists by _ensure_scalar
        self._values = values
        self._n = int(keys.shape[0])
        self._seed = seed
        self._rng = random.Random(seed)
        self._buckets = []
        self._a = 1
        self._b = 0
        self._frozen = _FrozenTables(
            int(level1[0]), int(level1[1]),
            keys=keys, values=values,
            level2_a=np.asarray(level2_a, dtype=np.uint64),
            level2_shift=np.asarray(level2_shift, dtype=np.uint64),
            level2_offset=np.asarray(level2_offset, dtype=np.int64),
            slots=np.asarray(slots, dtype=np.int64),
        )
        self._scalar_ready = False
        self._frozen_first = True
        return self

    def _ensure_scalar(self) -> None:
        """Build the scalar FKS structures of a frozen-first map."""
        if self._scalar_ready:
            return
        self._keys = [int(key) for key in self._keys.tolist()]
        self._values = [float(value) for value in self._values.tolist()]
        self._rng = random.Random(self._seed)
        self._scalar_ready = True
        if self._n:
            self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _draw(self) -> Tuple[int, int]:
        return self._rng.randrange(1, _PRIME), self._rng.randrange(0, _PRIME)

    def _build(self) -> None:
        n = self._n
        for _ in range(self._MAX_LEVEL1_RETRIES):
            self._a, self._b = self._draw()
            groups: Dict[int, List[int]] = {}
            for index, key in enumerate(self._keys):
                bucket_id = ((self._a * key + self._b) % _PRIME) % n
                groups.setdefault(bucket_id, []).append(index)
            total = sum(len(group) ** 2 for group in groups.values())
            if total <= 4 * n:
                break
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("perfect hash level-1 failed to converge")

        self._buckets = [None] * n
        for bucket_id, indices in groups.items():
            self._buckets[bucket_id] = self._build_bucket(indices)

    def _build_bucket(self, indices: Sequence[int]) -> _Bucket:
        size = max(1, len(indices) ** 2)
        for _ in range(self._MAX_BUCKET_RETRIES):
            a, b = self._draw()
            slots = [-1] * size
            ok = True
            for index in indices:
                slot = ((a * self._keys[index] + b) % _PRIME) % size
                if slots[slot] != -1:
                    ok = False
                    break
                slots[slot] = index
            if ok:
                return _Bucket(a, b, size, slots)
        raise RuntimeError(  # pragma: no cover - astronomically unlikely
            "perfect hash bucket failed to converge"
        )

    # ------------------------------------------------------------------
    # lookup protocol
    # ------------------------------------------------------------------
    def _locate(self, key: int) -> int:
        if self._n == 0 or key < 0:
            return -1
        self._ensure_scalar()
        bucket = self._buckets[((self._a * key + self._b) % _PRIME) % self._n]
        if bucket is None:
            return -1
        index = bucket.locate(key)
        if index != -1 and self._keys[index] == key:
            return index
        return -1

    def __contains__(self, key: int) -> bool:
        return self._locate(key) != -1

    def __getitem__(self, key: int) -> Any:
        index = self._locate(key)
        if index == -1:
            raise KeyError(key)
        return self._values[index]

    def get(self, key: int, default: Any = None) -> Any:
        index = self._locate(key)
        return self._values[index] if index != -1 else default

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        self._ensure_scalar()
        return iter(self._keys)

    def items(self) -> Iterator[Tuple[int, Any]]:
        self._ensure_scalar()
        return iter(zip(self._keys, self._values))

    # ------------------------------------------------------------------
    # batch lookup (the compiled-oracle fast path)
    # ------------------------------------------------------------------
    def _freeze(self) -> _FrozenTables:
        """Build the frozen multiply-shift tables (lazy, seeded).

        Level one hashes into ``2^ceil(log2 n)`` buckets; every bucket
        with ``b`` keys gets a private power-of-two table of at least
        ``2 b²`` slots, re-drawing its (odd) multiplier until
        injective — the FKS construction with a multiply-shift family.
        Expected total size stays linear (collision probability is
        ``2 / 2^l``).  Only float-valued maps can freeze, which covers
        every distance table the oracle builds.
        """
        if self._frozen is not None:
            return self._frozen
        try:
            values = np.asarray(self._values, dtype=np.float64)
        except (TypeError, ValueError) as error:
            raise TypeError(
                "batch lookup requires float values; this map stores "
                f"{type(self._values[0]).__name__}"
            ) from error
        if values.ndim != 1:  # e.g. sequence values forming a matrix
            raise TypeError("batch lookup requires scalar float values")
        keys = np.asarray(self._keys, dtype=np.uint64)
        n = self._n
        # Independent stream from the scalar build's: offset the seed.
        rng = random.Random(self._seed + 0x5EED_F02E)
        level1_bits = max(1, (n - 1).bit_length())
        level1_shift = 64 - level1_bits
        num_buckets = 1 << level1_bits
        for _ in range(self._MAX_LEVEL1_RETRIES):
            level1_a = rng.randrange(1, 1 << 64) | 1
            buckets = ((np.uint64(level1_a) * keys)
                       >> np.uint64(level1_shift)).astype(np.int64)
            counts = np.bincount(buckets, minlength=num_buckets)
            if int(np.sum(counts * counts)) <= 8 * n:
                break
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("frozen level-1 failed to converge")

        level2_a = np.ones(num_buckets, dtype=np.uint64)
        # Empty buckets share one all-empty 2-slot region at offset 0;
        # a shift of 63 keeps their probed slot inside it.
        level2_shift = np.full(num_buckets, 63, dtype=np.uint64)
        level2_offset = np.zeros(num_buckets, dtype=np.int64)
        order = np.argsort(buckets, kind="stable")
        boundaries = np.searchsorted(buckets[order],
                                     np.arange(num_buckets + 1))
        starts = boundaries[:-1]

        # Singleton buckets — the vast majority — are collision-free
        # under any multiplier, so one shared draw handles them all in
        # a few vectorized passes (2-slot tables each).
        singles = np.flatnonzero(counts == 1)
        multis = np.flatnonzero(counts >= 2)
        single_a = np.uint64(rng.randrange(1, 1 << 64) | 1)
        single_members = order[starts[singles]]
        single_offsets = 2 + 2 * np.arange(singles.size, dtype=np.int64)
        level2_a[singles] = single_a
        level2_offset[singles] = single_offsets
        single_slots = ((single_a * keys[single_members])
                        >> np.uint64(63)).astype(np.int64)

        multi_bits = [
            max(1, int(2 * int(counts[b]) ** 2 - 1).bit_length())
            for b in multis
        ]
        total = 2 + 2 * singles.size + sum(1 << bits
                                           for bits in multi_bits)
        slots = np.full(total, -1, dtype=np.int64)
        slots[single_offsets + single_slots] = single_members
        offset = 2 + 2 * singles.size
        for bucket_id, bits in zip(multis, multi_bits):
            members = order[boundaries[bucket_id]:
                            boundaries[bucket_id + 1]]
            member_keys = keys[members]
            for _ in range(self._MAX_BUCKET_RETRIES):
                a = rng.randrange(1, 1 << 64) | 1
                slot = (np.uint64(a) * member_keys) \
                    >> np.uint64(64 - bits)
                if np.unique(slot).size == members.size:
                    break
            else:  # pragma: no cover - astronomically unlikely
                raise RuntimeError("frozen bucket failed to converge")
            slots[offset + slot.astype(np.int64)] = members
            level2_a[bucket_id] = a
            level2_shift[bucket_id] = 64 - bits
            level2_offset[bucket_id] = offset
            offset += 1 << bits
        self._frozen = _FrozenTables(
            level1_a, level1_shift, keys=keys, values=values,
            level2_a=level2_a, level2_shift=level2_shift,
            level2_offset=level2_offset, slots=slots,
        )
        return self._frozen

    def get_batch(self, keys, default: float = float("nan")) -> np.ndarray:
        """Vectorized :meth:`get` over an array of non-negative int keys.

        Returns a float64 array of ``keys``'s shape holding the stored
        value per present key and ``default`` per absent key; requires
        the map's values to be floats.  Lookups agree with :meth:`get`
        key for key (both address the same key/value arrays); the batch
        path probes the frozen multiply-shift tables, costing ~10 NumPy
        passes for the *whole* batch instead of two modular hash
        evaluations per key in Python.

        Keys outside the stored set — including sentinel-padded pair
        keys beyond the packed-id domain — resolve to ``default``.

        The one multiply-shift probe, shared by the mmap'd and tiled
        stores.
        """
        key_array = np.asarray(keys, dtype=np.uint64)
        if self._n == 0:
            return np.full(key_array.shape, default, dtype=np.float64)
        tables = self._freeze()
        flat = np.ascontiguousarray(key_array).reshape(-1)
        bucket = (tables.level1_a * flat) >> tables.level1_shift
        slot = ((tables.level2_a[bucket] * flat)
                >> tables.level2_shift[bucket]).astype(np.int64)
        index = tables.slots[tables.level2_offset[bucket] + slot]
        guarded = np.where(index >= 0, index, 0)
        found = (index >= 0) & (tables.keys[guarded] == flat)
        result = np.where(found, tables.values[guarded],
                          np.float64(default))
        return result.reshape(key_array.shape)

    def frozen_arrays(self) -> Dict[str, np.ndarray]:
        """The frozen tables as named flat arrays, for persistence.

        Freezes first if needed.  ``level1`` packs the two level-one
        scalars ``(a, shift)``; the remaining entries are the table
        arrays exactly as :meth:`get_batch` probes them, so
        :meth:`from_frozen` round-trips lookups bit-for-bit.
        """
        tables = self._freeze()
        return {
            "level1": np.array([int(tables.level1_a),
                                int(tables.level1_shift)], dtype=np.uint64),
            "keys": tables.keys,
            "values": tables.values,
            "level2_a": tables.level2_a,
            "level2_shift": tables.level2_shift,
            "level2_offset": tables.level2_offset,
            "slots": tables.slots,
        }

    # ------------------------------------------------------------------
    # size accounting (for the oracle's size model)
    # ------------------------------------------------------------------
    def slot_count(self) -> int:
        """Total number of second-level slots (the FKS space bound).

        A frozen-first map (:meth:`from_frozen`) reports the frozen
        table's slot count — the comparable space bound of the
        multiply-shift twin — *regardless* of whether the scalar FKS
        structures have been rebuilt since, so size accounting never
        drifts with access history.
        """
        if self._frozen_first:
            return int(self._frozen.slots.shape[0])
        return sum(bucket.size for bucket in self._buckets if bucket is not None)

    def size_bytes(self, value_bytes: int = 8) -> int:
        """Deterministic byte-count model: 8 bytes per slot/key + values."""
        return 8 * self.slot_count() + (8 + value_bytes) * self._n
