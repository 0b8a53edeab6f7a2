"""Proximity queries built on the distance oracle (Section 1.1 / 1.2).

The paper motivates SE as the substrate for "proximity queries such as
nearest neighbor queries, range queries and reverse nearest neighbor
queries".  This module provides those three query types over any object
answering POI-to-POI distance queries:

* :func:`k_nearest_neighbors` — kNN by geodesic distance;
* :func:`range_query` — all POIs within a geodesic radius;
* :func:`reverse_nearest_neighbors` — monochromatic RNN: POIs whose
  nearest neighbour is the query POI.

Cost model
----------
Every function accepts either protocol and picks the fastest path the
oracle supports:

* **batched** (:class:`BatchDistanceOracleProtocol` — a compiled
  :class:`~repro.core.oracle.SEOracle`, a :class:`~repro.core.compiled.
  CompiledOracle`, or a :class:`~repro.baselines.full_apsp.
  FullAPSPBaseline`): one ``query_batch`` call materialises the whole
  candidate row as a float64 array, so a kNN/range scan costs a few
  NumPy passes over ``n`` distances plus an ``argpartition`` — roughly
  O(n + k log k) selection work instead of a Python loop with a full
  sort.  RNN on a static store costs the same n−1 distances: the
  store packs each POI's nearest distance
  (:meth:`~repro.core.store.StoreHandle.nearest_column`), so only the
  candidates' distances to the query POI are probed.  Any other
  batched RNN resolves the whole n×n matrix (O(n²) distances, one
  ``query_matrix`` call).
* **scalar** (:class:`DistanceOracleProtocol` — a
  :class:`~repro.core.dynamic.DynamicSEOracle`, a
  :class:`~repro.baselines.kalgo.KAlgo`, or any plain ``query``
  object): O(n) individual probes per scan, the design the paper
  enables — cheap probes make scan-based proximity queries practical.

Both paths return identical results (the golden suite in
``tests/test_proximity_vectorized.py`` pins this, tie-breaking
included); the ``*_scalar`` reference implementations stay exported as
the executable specification.

Unreachable POIs
----------------
A POI pair on disconnected terrain components has no geodesic path; an
oracle reports that as ``inf`` (or ``nan`` from a defective backend).
Sorting raw ``(distance, poi)`` tuples would order such entries
nondeterministically under ``nan``, so the semantics are explicit:

* kNN and range queries **exclude** unreachable POIs — a non-finite
  distance is never a neighbour;
* :func:`nearest_neighbor` raises ``ValueError`` when no reachable
  POI exists;
* RNN excludes candidates unreachable from the query POI, and an
  unreachable third POI never disqualifies a candidate (``inf`` loses
  every strict comparison).
"""

from __future__ import annotations

import math
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

__all__ = [
    "DistanceOracleProtocol",
    "BatchDistanceOracleProtocol",
    "k_nearest_neighbors",
    "k_nearest_neighbors_scalar",
    "range_query",
    "range_query_scalar",
    "reverse_nearest_neighbors",
    "reverse_nearest_neighbors_scalar",
    "nearest_neighbor",
]


class DistanceOracleProtocol(Protocol):
    """Anything answering POI-to-POI distance queries one at a time."""

    def query(self, source: int, target: int) -> float: ...


class BatchDistanceOracleProtocol(Protocol):
    """Anything answering aligned batches of distance queries at once."""

    def query_batch(self, sources: Sequence[int],
                    targets: Sequence[int]) -> np.ndarray: ...


def _distance_row(oracle, source: int, targets: np.ndarray) -> np.ndarray:
    """Distances from ``source`` to every id in ``targets`` (float64).

    Dispatches to ``query_batch`` when the oracle has one (one
    vectorised call — every :class:`~repro.core.index.DistanceIndex`
    does), else loops the scalar protocol.
    """
    if hasattr(oracle, "query_batch"):
        sources = np.full(targets.shape, source, dtype=np.intp)
        return np.asarray(oracle.query_batch(sources, targets),
                          dtype=np.float64)
    return np.array([oracle.query(source, int(target))
                     for target in targets], dtype=np.float64)


def _oracle_universe(oracle) -> Optional[np.ndarray]:
    """The id universe an index itself declares, or ``None`` for the
    dense ``range(oracle.num_pois)``.

    An updatable index (``supports_updates``) may hold sparse live ids
    after deletes, where ``range(num_pois)`` would address tombstoned
    POIs — its ``live_ids()`` is the universe.  Everything else is
    dense.
    """
    if (getattr(oracle, "supports_updates", False)
            and hasattr(oracle, "live_ids")):
        return np.asarray(oracle.live_ids(), dtype=np.intp)
    return None


def _dense_count(oracle, num_pois) -> int:
    if num_pois is not None:
        return int(num_pois)
    count = getattr(oracle, "num_pois", None)
    if count is None:
        raise ValueError(
            "oracle exposes no num_pois; pass num_pois= or candidates=")
    return int(count)


def _candidate_ids(oracle, source: int, num_pois,
                   candidates) -> np.ndarray:
    """The candidate target ids of a proximity scan (``source``
    excluded).

    With neither ``num_pois`` nor ``candidates`` the universe comes
    from the index itself (:func:`_oracle_universe`) — any
    :class:`~repro.core.index.DistanceIndex` works unmodified.
    ``candidates`` still overrides with an explicit id universe, and
    ``num_pois`` still scopes the dense prefix, for callers that scan
    a subset of a larger oracle.
    """
    if candidates is None and num_pois is None:
        candidates = _oracle_universe(oracle)
    if candidates is not None:
        ids = np.asarray(candidates, dtype=np.intp)
        return ids[ids != source]
    return np.array([target
                     for target in range(_dense_count(oracle, num_pois))
                     if target != source], dtype=np.intp)


# ----------------------------------------------------------------------
# k nearest neighbors
# ----------------------------------------------------------------------
def k_nearest_neighbors(oracle, source: int, k: int,
                        num_pois: Optional[int] = None,
                        candidates: Optional[Sequence[int]] = None
                        ) -> List[Tuple[int, float]]:
    """The ``k`` POIs nearest to ``source`` (excluding itself).

    Returns ``(poi, distance)`` pairs sorted by distance (ties broken
    by POI index for determinism).  Unreachable POIs (non-finite
    distance) are excluded; fewer than ``k`` results mean fewer than
    ``k`` reachable POIs exist.  ``candidates`` names an explicit id
    universe (sparse live ids of a mutable index) in place of the
    dense ``range(num_pois)``.

    Selection is O(n) oracle probes — one ``query_batch`` on a batched
    oracle — plus an ``argpartition`` restricted to the ``k`` smallest
    distances, so only the winners pay the comparison sort.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    targets = _candidate_ids(oracle, source, num_pois, candidates)
    if k == 0 or targets.size == 0:
        return []
    distances = _distance_row(oracle, source, targets)
    reachable = np.isfinite(distances)
    targets, distances = targets[reachable], distances[reachable]
    if 0 < k < targets.size:
        # Partition on distance alone, then widen to every tie of the
        # cutoff value so the (distance, poi) tie-break below stays
        # exact — argpartition's boundary choice is arbitrary.
        nearest = np.argpartition(distances, k - 1)[:k]
        cutoff = distances[nearest].max()
        keep = distances <= cutoff
        targets, distances = targets[keep], distances[keep]
    order = np.lexsort((targets, distances))[:k]
    return [(int(targets[i]), float(distances[i])) for i in order]


def k_nearest_neighbors_scalar(oracle: DistanceOracleProtocol, source: int,
                               k: int, num_pois: Optional[int] = None,
                               candidates: Optional[Sequence[int]] = None
                               ) -> List[Tuple[int, float]]:
    """Reference implementation of :func:`k_nearest_neighbors`.

    Pure-Python scan with a full sort; the vectorised path must match
    it result-for-result (including tie-breaks).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    hits = [
        (distance, int(target))
        for target in _candidate_ids(oracle, source, num_pois,
                                     candidates)
        if math.isfinite(distance := oracle.query(source, int(target)))
    ]
    hits.sort()
    return [(poi, distance) for distance, poi in hits[:k]]


def nearest_neighbor(oracle, source: int,
                     num_pois: Optional[int] = None,
                     candidates: Optional[Sequence[int]] = None
                     ) -> Tuple[int, float]:
    """The single nearest reachable POI to ``source``.

    Raises ``ValueError`` when no other reachable POI exists.
    """
    result = k_nearest_neighbors(oracle, source, 1, num_pois,
                                 candidates=candidates)
    if not result:
        raise ValueError("no reachable POI exists")
    return result[0]


# ----------------------------------------------------------------------
# range queries
# ----------------------------------------------------------------------
def range_query(oracle, source: int, radius: float,
                num_pois: Optional[int] = None,
                candidates: Optional[Sequence[int]] = None
                ) -> List[Tuple[int, float]]:
    """All POIs within geodesic ``radius`` of ``source`` (excl. itself).

    Results are ``(poi, distance)`` sorted by distance (ties by POI
    index); unreachable POIs are never inside a finite radius.  One
    ``query_batch`` plus a mask on a batched oracle; ``candidates``
    names a sparse id universe as in :func:`k_nearest_neighbors`.
    A negative or NaN ``radius`` raises ``ValueError``.
    """
    if not radius >= 0:
        raise ValueError("radius must be non-negative")
    targets = _candidate_ids(oracle, source, num_pois, candidates)
    if targets.size == 0:
        return []
    distances = _distance_row(oracle, source, targets)
    inside = np.isfinite(distances) & (distances <= radius)
    targets, distances = targets[inside], distances[inside]
    order = np.lexsort((targets, distances))
    return [(int(targets[i]), float(distances[i])) for i in order]


def range_query_scalar(oracle: DistanceOracleProtocol, source: int,
                       radius: float, num_pois: Optional[int] = None,
                       candidates: Optional[Sequence[int]] = None
                       ) -> List[Tuple[int, float]]:
    """Reference implementation of :func:`range_query` (pure Python)."""
    if not radius >= 0:
        raise ValueError("radius must be non-negative")
    hits = [
        (distance, int(target))
        for target in _candidate_ids(oracle, source, num_pois,
                                     candidates)
        if (distance := oracle.query(source, int(target))) <= radius
        and math.isfinite(distance)
    ]
    hits.sort()
    return [(poi, distance) for distance, poi in hits]


# ----------------------------------------------------------------------
# reverse nearest neighbors
# ----------------------------------------------------------------------
def reverse_nearest_neighbors(oracle, source: int,
                              num_pois: Optional[int] = None,
                              candidates: Optional[Sequence[int]] = None
                              ) -> List[int]:
    """Monochromatic RNN: POIs whose nearest neighbour is ``source``.

    Note the asymmetry with kNN: ``q`` is in ``RNN(source)`` iff no
    third POI is strictly closer to ``q`` than ``source`` is.
    Candidates unreachable from ``source`` are excluded; an unreachable
    third POI never disqualifies a candidate.  ``candidates`` scopes
    the whole query to an explicit id universe (candidates *and* the
    disqualifying third POIs — ids outside it do not exist); it must
    contain ``source``.  With neither argument the universe comes from
    the index itself (:func:`_oracle_universe`, dense
    ``range(oracle.num_pois)`` otherwise); ``num_pois`` still scopes
    the query to a dense prefix of a larger oracle, and POIs outside
    the scope must not act as disqualifying third POIs.

    A static store (anything with ``nearest_column``: the mmap'd,
    paged and tiled backends) answers a whole-universe RNN from each
    POI's packed nearest distance, by nearest-neighbour circles (Korn
    & Muthukrishnan, SIGMOD 2000): ``q`` qualifies iff ``d(q,
    source)`` is finite and no farther than ``q``'s nearest distance
    to any other POI, ``source`` included.  The packed distance is a
    float ``query_batch`` returns, so when no third POI is strictly
    closer it is ``d(q, source)`` itself, bit for bit.  That is one
    ``query_batch`` of the n−1 pairs ``(q, source)``.  Every other
    call — a mutable index, ``candidates=`` or ``num_pois=`` — takes
    the matrix path, which stays the reference: one ``query_matrix``
    call on a batched oracle (row-wise ``query_batch`` otherwise);
    plain scalar oracles fall back to the probe-per-pair scan.  Both
    paths read the same floats and mask them alike, so they agree.
    """
    whole = candidates is None and num_pois is None
    if whole:
        candidates = _oracle_universe(oracle)
    if candidates is not None:
        ids = np.asarray(candidates, dtype=np.intp)
        source_pos = np.flatnonzero(ids == source)
        if source_pos.size != 1:
            raise ValueError(
                "candidates must contain the source id exactly once")
        source_pos = int(source_pos[0])
    else:
        ids = np.arange(_dense_count(oracle, num_pois), dtype=np.intp)
        # A negative source would index from the end of the matrix.
        if not 0 <= source < ids.shape[0]:
            raise IndexError(f"POI ids out of range [0, {ids.shape[0]})")
        source_pos = source
    count = ids.shape[0]
    candidate_pos = np.delete(np.arange(count, dtype=np.intp), source_pos)
    if candidate_pos.size == 0:
        return []
    if whole and hasattr(oracle, "nearest_column"):
        to_source = np.asarray(oracle.query_batch(
            candidate_pos, np.full(candidate_pos.shape, source,
                                   dtype=np.intp)), dtype=np.float64)
        # The nearest distance, source included: no nearer than
        # source exactly when no third POI is.
        closest = oracle.nearest_column()[candidate_pos]
    else:
        if hasattr(oracle, "query_matrix"):
            matrix = np.asarray(oracle.query_matrix(ids), dtype=np.float64)
            rows = matrix[candidate_pos]
        elif hasattr(oracle, "query_batch"):
            grid_t = np.tile(ids, candidate_pos.size)
            grid_s = np.repeat(ids[candidate_pos], count)
            rows = np.asarray(oracle.query_batch(grid_s, grid_t),
                              dtype=np.float64).reshape(candidate_pos.size,
                                                        count)
        else:
            return reverse_nearest_neighbors_scalar(
                oracle, source, num_pois, candidates=candidates)
        # Rows/columns are *positions* in the id universe, so the same
        # arithmetic covers dense and sparse id sets.
        to_source = rows[:, source_pos]
        # Third-POI distances: mask out the candidate itself and the
        # query POI, neutralise non-finite entries (they never win a
        # strict comparison), then compare the row minimum against
        # to_source.
        others = rows.copy()
        others[np.arange(candidate_pos.size), candidate_pos] = np.inf
        others[:, source_pos] = np.inf
        others[~np.isfinite(others)] = np.inf
        closest = others.min(axis=1)
    qualified = np.isfinite(to_source) & (closest >= to_source)
    return [int(poi) for poi in ids[candidate_pos[qualified]]]


def reverse_nearest_neighbors_scalar(oracle: DistanceOracleProtocol,
                                     source: int,
                                     num_pois: Optional[int] = None,
                                     candidates: Optional[Sequence[int]]
                                     = None) -> List[int]:
    """Reference implementation of :func:`reverse_nearest_neighbors`."""
    if candidates is None and num_pois is None:
        candidates = _oracle_universe(oracle)
    if candidates is not None:
        ids = [int(poi) for poi in candidates]
    else:
        ids = list(range(_dense_count(oracle, num_pois)))
    result = []
    for candidate in ids:
        if candidate == source:
            continue
        to_source = oracle.query(candidate, source)
        if not math.isfinite(to_source):
            continue
        is_rnn = True
        for other in ids:
            if other in (candidate, source):
                continue
            distance = oracle.query(candidate, other)
            if math.isfinite(distance) and distance < to_source:
                is_rnn = False
                break
        if is_rnn:
            result.append(candidate)
    return result
