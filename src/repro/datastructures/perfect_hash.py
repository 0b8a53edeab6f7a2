"""FKS-style two-level perfect hashing for static key sets.

Section 3.3 of the paper indexes the node pair set with "the perfect
hashing scheme [7]" so that membership and the associated distance are
retrieved in O(1) worst-case time, with linear expected construction
time and linear space.  This module implements the classic
Fredman-Komlós-Szemerédi construction with multiply-shift universal
hashing — ``h_a(x) = (a * x mod 2^64) >> (64 - l)`` with odd ``a``
into a power-of-two table (Dietzfelbinger et al.):

* level one hashes the ``n`` keys into ``2^ceil(log2 n)`` buckets,
  re-drawing its multiplier until the squared bucket sizes sum to at
  most ``8n``;
* each bucket with ``b_i >= 2`` keys gets its own collision-free table
  of at least ``2 b_i²`` slots (a power of two), re-drawing its
  multiplier until injective; singleton buckets share one draw.

A wrapping uint64 multiply plus a shift is two NumPy passes, so
:meth:`PerfectHashMap.get_batch` resolves a whole batch of keys with
no Python per key; scalar lookups run the same probe in Python ints.
Both read one set of flat tables — the tables a store persists and
maps (:meth:`PerfectHashMap.frozen_arrays` /
:meth:`PerfectHashMap.from_frozen`).

Keys are integers in ``[0, 2^64)`` and values float64.  Node pairs
``(u, v)`` are packed into a single integer before hashing (see
:func:`pack_pair`).  Construction is randomized but deterministic given
``seed``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

__all__ = ["PerfectHashMap", "pack_pair", "unpack_pair"]

_PAIR_SHIFT = 32
_PAIR_MASK = (1 << _PAIR_SHIFT) - 1

_KEY_SPACE = 1 << 64
_WORD_MASK = _KEY_SPACE - 1
_MISSING = object()


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


class PerfectHashMap:
    """A static float-valued map with O(1) worst-case lookups (FKS).

    Parameters
    ----------
    items:
        Iterable of ``(key, value)``: distinct integer keys with
        ``0 <= key < 2**64`` (``ValueError`` otherwise) and real scalar
        values, stored as float64 (``TypeError`` otherwise).
    seed:
        Seed for the (re-drawable) hash multipliers.

    Keys keep their insertion order (iteration, :meth:`items` and the
    ``keys``/``values`` columns of :meth:`frozen_arrays`).

    Example
    -------
    >>> table = PerfectHashMap([(10, 1.5), (99, 2.0)])
    >>> table[10]
    1.5
    >>> 7 in table
    False
    """

    _MAX_LEVEL1_RETRIES = 32
    _MAX_BUCKET_RETRIES = 256

    def __init__(self, items: Iterable[Tuple[int, float]], seed: int = 0):
        pairs = list(items)
        keys = [key for key, _ in pairs]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys in PerfectHashMap")
        if keys and (min(keys) < 0 or max(keys) >= _KEY_SPACE):
            raise ValueError("keys must be integers in [0, 2**64)")
        values = np.asarray([value for _, value in pairs])
        if values.dtype.kind not in "iuf" or values.ndim != 1:
            raise TypeError("PerfectHashMap values must be scalar floats")
        keys = np.array(keys, dtype=np.uint64)
        self._adopt(keys, values, **self._draw(keys, seed))

    @classmethod
    def from_frozen(cls, keys, values, level1: Sequence[int], level2_a,
                    level2_shift, level2_offset,
                    slots) -> "PerfectHashMap":
        """Rehydrate a map from persisted tables (zero-copy).

        ``keys``/``values``/``level2_*``/``slots`` are the arrays of
        :meth:`frozen_arrays` (possibly memory-mapped read-only) and
        ``level1`` the ``(level1_a, level1_shift)`` pair; every lookup
        runs straight off them.
        """
        self = cls.__new__(cls)
        self._adopt(keys, values, level1, level2_a, level2_shift,
                    level2_offset, slots)
        return self

    def _adopt(self, keys, values, level1, level2_a, level2_shift,
               level2_offset, slots) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.float64)
        if keys.shape != values.shape or len(keys.shape) != 1:
            raise ValueError("keys and values must be aligned 1-D arrays")
        self._keys = keys
        self._values = values
        self._n = int(keys.shape[0])
        # Python ints: the scalar probe would pay a NumPy scalar
        # conversion per lookup otherwise.
        self._level1_a = int(level1[0])
        self._level1_shift = int(level1[1])
        self._level2_a = np.asarray(level2_a, dtype=np.uint64)
        self._level2_shift = np.asarray(level2_shift, dtype=np.uint64)
        self._level2_offset = np.asarray(level2_offset, dtype=np.int64)
        self._slots = np.asarray(slots, dtype=np.int64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _draw(self, keys: np.ndarray, seed: int) -> Dict[str, Any]:
        """Draw the two levels of tables over ``keys`` (the tables of
        :meth:`from_frozen`).

        Level one hashes into ``2^ceil(log2 n)`` buckets; every bucket
        with ``b`` keys gets a private power-of-two table of at least
        ``2 b²`` slots, re-drawing its (odd) multiplier until
        injective — the FKS construction with a multiply-shift family.
        Expected total size stays linear (collision probability is
        ``2 / 2^l``).
        """
        n = int(keys.shape[0])
        # The seed offset and the draw order below fix the tables every
        # store persists: changing either changes the hash sections.
        rng = random.Random(seed + 0x5EED_F02E)
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
            raise RuntimeError("perfect hash level-1 failed to converge")

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
                raise RuntimeError("perfect hash bucket failed to converge")
            slots[offset + slot.astype(np.int64)] = members
            level2_a[bucket_id] = a
            level2_shift[bucket_id] = 64 - bits
            level2_offset[bucket_id] = offset
            offset += 1 << bits
        return {"level1": (level1_a, level1_shift), "level2_a": level2_a,
                "level2_shift": level2_shift,
                "level2_offset": level2_offset, "slots": slots}

    # ------------------------------------------------------------------
    # lookup protocol
    # ------------------------------------------------------------------
    def get(self, key: int, default=None):
        """The value stored under ``key``, else ``default``: one
        multiply-shift per level, in Python ints.  Any int may be
        probed; one outside the stored set (negative or ``>= 2**64``
        included) cannot equal the key its slot names, so it misses."""
        bucket = ((self._level1_a * key) & _WORD_MASK) >> self._level1_shift
        slot = (((self._level2_a.item(bucket) * key) & _WORD_MASK)
                >> self._level2_shift.item(bucket))
        index = self._slots.item(self._level2_offset.item(bucket) + slot)
        if index >= 0 and self._keys.item(index) == key:
            return self._values.item(index)
        return default

    def __contains__(self, key: int) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __getitem__(self, key: int) -> float:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys.tolist())

    def items(self) -> Iterator[Tuple[int, float]]:
        return zip(self._keys.tolist(), self._values.tolist())

    # ------------------------------------------------------------------
    # batch lookup (the compiled-oracle fast path)
    # ------------------------------------------------------------------
    def get_batch(self, keys, default: float = float("nan")) -> np.ndarray:
        """Vectorized :meth:`get` over an array of non-negative int keys.

        Returns a float64 array of ``keys``'s shape holding the stored
        value per present key and ``default`` per absent key.  The same
        probe as :meth:`get`, costing ~10 NumPy passes for the *whole*
        batch.

        Keys outside the stored set — including sentinel-padded pair
        keys beyond the packed-id domain — resolve to ``default``.

        The one multiply-shift probe, shared by the mmap'd and tiled
        stores.
        """
        key_array = np.asarray(keys, dtype=np.uint64)
        if self._n == 0:
            return np.full(key_array.shape, default, dtype=np.float64)
        flat = np.ascontiguousarray(key_array).reshape(-1)
        bucket = ((np.uint64(self._level1_a) * flat)
                  >> np.uint64(self._level1_shift))
        slot = ((self._level2_a[bucket] * flat)
                >> self._level2_shift[bucket]).astype(np.int64)
        index = self._slots[self._level2_offset[bucket] + slot]
        guarded = np.where(index >= 0, index, 0)
        found = (index >= 0) & (self._keys[guarded] == flat)
        result = np.where(found, self._values[guarded],
                          np.float64(default))
        return result.reshape(key_array.shape)

    def frozen_arrays(self) -> Dict[str, np.ndarray]:
        """The tables as named flat arrays, for persistence.

        ``level1`` packs the two level-one scalars ``(a, shift)``; the
        remaining entries are the table arrays exactly as the probes
        read them, so :meth:`from_frozen` round-trips lookups
        bit-for-bit.
        """
        return {
            "level1": np.array([self._level1_a, self._level1_shift],
                               dtype=np.uint64),
            "keys": self._keys,
            "values": self._values,
            "level2_a": self._level2_a,
            "level2_shift": self._level2_shift,
            "level2_offset": self._level2_offset,
            "slots": self._slots,
        }
