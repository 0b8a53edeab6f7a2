"""The compiled oracle: flat NumPy query tables over a built SE oracle.

``SEOracle.query`` walks in Python — one parent-pointer walk per
layer array, one scalar perfect-hash probe per candidate pair.  That is
fine for one query but is the bottleneck of a serving workload where
millions of queries arrive in batches.  ``CompiledOracle`` freezes a
built oracle into flat tables:

* the **ancestor-chain matrix** ``chains``: one ``int64`` row per POI
  holding the compressed-node id at each original layer (``-1`` where
  the compressed path skips the layer) — ``tree.layer_array`` for every
  POI at once, padded to the tree height, derived from the tree's
  parent and layer columns in ``O(h)`` vectorised passes
  (:meth:`~repro.core.compressed_tree.CompressedPartitionTree.chains`);
* four **pre-packed key planes** derived from it: the *exact* plane
  (chain node at layer ``k``) and the *spanner* plane (the chain node
  whose compressed span covers layer ``k``, i.e. the node ``B`` with
  ``parent(B).layer <= k < layer(B)``), each split into the high/low
  half of a packed pair key so a batch forms candidate keys with one
  broadcast OR;
* the **pair table**: any table with the ``get_batch(keys, default)``
  contract, probed for a whole batch at once — the oracle's perfect
  hash, whose flat multiply-shift tables and float64 distance column
  the scalar query probes one key at a time
  (:meth:`~repro.datastructures.perfect_hash.PerfectHashMap.
  get_batch`), or the paged backend's sorted pair run
  (:mod:`~repro.core.paged`).

The scalar query algorithm (Section 3.4) probes three candidate
families along the two root chains: same-layer pairs (step 1), then
pairs of an exact source node with a spanning target node (step 2) and
the symmetric family (step 3).  The batch path probes the same-layer
plane for every query first — which resolves the vast majority — and
re-probes only the unresolved rows against the two mixed planes,
``O(h)`` candidate keys per query overall, exactly the scalar
algorithm's candidate set.

Correctness rests on Theorem 1's uniqueness property: exactly one
stored node pair covers an ordered POI pair ``(s, t)``, and every
probed candidate lies on the two chains, so across all planes at most
one probe can hit — whatever the probe order, the result is the
identical stored float the scalar walk returns.  (Ancestor/descendant
pairs are never stored — a parent centre is within ``r`` of its
child's while well-separation demands ``>= (4/ε + 4) r`` — so the only
same-chain stored pairs are leaf self-pairs, which is what makes
``s == t`` resolve to the stored ``0.0``.)

Cost model: a batch of ``m`` queries costs ``m (h+1)`` probed keys
plus ``2 m' (h+1)`` for the unresolved fraction ``m'/m`` (typically
< 10%), all in a handful of NumPy passes — no Python per query.
Compilation is the chain derivation plus the key planes, a handful of
NumPy passes (the pair hash's tables exist from the build on); it pays
off after a few thousand queries (see
``benchmarks/bench_query_throughput.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..datastructures.perfect_hash import PerfectHashMap
from .index import DistanceIndexMixin

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .oracle import SEOracle

__all__ = ["CompiledOracle"]

_ID_MASK = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(32)


class CompiledOracle(DistanceIndexMixin):
    """Flat-table form of a built SE oracle answering queries in batches.

    The scalar ``query``, ``query_matrix`` and ``supports_updates``
    (compiled tables are immutable) come from
    :class:`~repro.core.index.DistanceIndexMixin`, over
    :meth:`query_batch`.

    Construct with :meth:`from_oracle` (or ``oracle.compiled()``); the
    raw constructor takes the chain matrix directly, which is how the
    serializer re-hydrates a format-v3 document — and the binary store
    (:mod:`~repro.core.store`) its memory-mapped v4 sections — without
    re-walking the tree.

    Parameters
    ----------
    chains:
        ``(n, height+1)`` int64 ancestor-chain matrix, ``-1``-padded.
    pair_hash:
        The node pair table: ``get_batch(keys, default)`` answers each
        packed pair key's float distance, ``default`` where absent —
        the oracle's perfect-hashed pair set, or a paged pair run.
    epsilon:
        Error parameter the tables answer within (carried for reports).
    """

    def __init__(self, chains: np.ndarray, pair_hash: PerfectHashMap,
                 epsilon: float):
        chains = np.ascontiguousarray(chains, dtype=np.int64)
        if chains.ndim != 2 or chains.shape[1] < 1:
            raise ValueError("chains must be a 2-D (POI x layer) matrix")
        self._chains = chains
        self._pair_hash = pair_hash
        self.epsilon = epsilon

        # The spanner plane: span[poi, k] is the chain node whose
        # compressed span covers layer k — the node at the first
        # occupied layer strictly greater than k (its parent is the
        # previous occupied node, at a layer <= k).  -1 where no such
        # node exists (k at or above the leaf layer of that chain).
        num_pois, layers = chains.shape
        span = np.full(chains.shape, -1, dtype=np.int64)
        below = np.full(num_pois, -1, dtype=np.int64)
        for k in range(layers - 1, -1, -1):  # O(h) vectorized passes
            span[:, k] = below
            occupied = chains[:, k] != -1
            below = np.where(occupied, chains[:, k], below)

        # Pre-packed key planes: OR-ing a high plane row (source) with
        # a low plane row (target) yields pack_pair(node_s, node_t) for
        # every layer.  -1 padding turns into the 0xFFFFFFFF id, which
        # no stored key contains (ids are < 2^31), so padded
        # combinations probe as guaranteed misses.
        exact = chains.astype(np.uint64) & _ID_MASK
        spans = span.astype(np.uint64) & _ID_MASK
        self._exact_high = exact << _SHIFT
        self._exact_low = exact
        self._span_high = spans << _SHIFT
        self._span_low = spans

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_oracle(cls, oracle: "SEOracle") -> "CompiledOracle":
        """Freeze a built :class:`~repro.core.oracle.SEOracle`."""
        if not oracle.is_built:
            raise RuntimeError("oracle not built; call build() first")
        return cls(oracle.tree.chains(), oracle.pair_hash, oracle.epsilon)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_pois(self) -> int:
        return self._chains.shape[0]

    @property
    def height(self) -> int:
        return self._chains.shape[1] - 1

    @property
    def chains(self) -> np.ndarray:
        """The ancestor-chain matrix (read-only view)."""
        view = self._chains.view()
        view.setflags(write=False)
        return view

    @property
    def pair_hash(self) -> PerfectHashMap:
        return self._pair_hash

    @property
    def is_compiled(self) -> bool:
        return True

    def size_bytes(self) -> int:
        """Byte model: chain matrix + key planes + 16 bytes per stored
        pair (key and distance, as ``SEOracle.size_bytes`` counts it)."""
        planes = (self._exact_high.nbytes + self._exact_low.nbytes
                  + self._span_high.nbytes + self._span_low.nbytes)
        return self._chains.nbytes + planes + 16 * len(self._pair_hash)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_batch(self, sources: Sequence[int],
                    targets: Sequence[int]) -> np.ndarray:
        """ε-approximate distances for aligned source/target id arrays.

        Returns a float64 array with ``result[i] ==
        SEOracle.query(sources[i], targets[i])`` bit-for-bit.  Raises
        ``RuntimeError`` if any query finds no covering pair (the same
        unique-match violation the scalar query raises on) and
        ``IndexError`` on out-of-range POI ids.
        """
        source_ids = np.asarray(sources, dtype=np.intp)
        target_ids = np.asarray(targets, dtype=np.intp)
        if source_ids.shape != target_ids.shape or source_ids.ndim != 1:
            raise ValueError("sources and targets must be aligned 1-D "
                             "id arrays")
        count = source_ids.shape[0]
        if count == 0:
            return np.empty(0, dtype=np.float64)
        n = self.num_pois
        for ids in (source_ids, target_ids):
            if ids.min() < 0 or ids.max() >= n:
                raise IndexError(f"POI ids out of range [0, {n})")

        # Phase 1 — the same-layer plane (the scalar query's step 1),
        # which resolves the vast majority of queries.
        keys = self._exact_high[source_ids] | self._exact_low[target_ids]
        values = self._pair_hash.get_batch(keys, default=np.nan)
        hit = ~np.isnan(values)
        first = hit.argmax(axis=1)
        rows = np.arange(count)
        result = values[rows, first]
        resolved = hit[rows, first]
        if resolved.all():
            return result

        # Phase 2 — the two mixed exact x spanner planes (steps 2-3)
        # for the unresolved rows only.
        pending = np.flatnonzero(~resolved)
        sub_s = source_ids[pending]
        sub_t = target_ids[pending]
        keys = np.concatenate(
            (self._exact_high[sub_s] | self._span_low[sub_t],
             self._span_high[sub_s] | self._exact_low[sub_t]), axis=1)
        values = self._pair_hash.get_batch(keys, default=np.nan)
        hit = ~np.isnan(values)
        first = hit.argmax(axis=1)
        rows = np.arange(pending.size)
        still_missing = ~hit[rows, first]
        if still_missing.any():
            bad = np.flatnonzero(still_missing)[0]
            source, target = int(sub_s[bad]), int(sub_t[bad])
            raise RuntimeError(
                f"no covering node pair for ({source}, {target}); "
                "unique-match property violated"
            )
        result[pending] = values[rows, first]
        return result
