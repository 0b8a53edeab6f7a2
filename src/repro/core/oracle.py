"""The SE (Space-Efficient) distance oracle — the paper's contribution.

``SEOracle`` ties the pieces together:

1. build the partition tree over the POI set (Section 3.2),
2. compress it (Section 3.2),
3. generate the well-separated node pair set (Section 3.3) with centre
   distances supplied either by **enhanced edges** (efficient method,
   Section 3.5) or by per-pair SSAD (naive method, the SE(Naive)
   baseline),
4. index the pair set in a perfect hash.

Queries (Section 3.4) locate the unique node pair containing
``(s, t)`` and return its stored distance, in O(h) with the efficient
algorithm or O(h²) with the naive scan.  Theorem 1 guarantees the
result is an ε-approximation of the geodesic distance.

Construction runs as an explicit staged pipeline — **plan** (tree
build + compression, sequential), **fan-out** (the independent SSAD
bulk, batched through a :mod:`~repro.core.parallel` build executor)
and **reduce** (pair generation + perfect hashing, deterministic
order) — so ``jobs=N`` parallelises the dominant stage across worker
processes while staying bit-identical to a serial build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Sequence, Tuple

from ..datastructures.perfect_hash import PerfectHashMap, pack_pair
from ..geodesic.engine import GeodesicEngine
from .compressed_tree import CompressedPartitionTree, compress_tree
from .node_pairs import (
    EnhancedEdgeIndex,
    NodePairSet,
    build_enhanced_edges,
    generate_node_pairs_batched,
)
from .parallel import BuildExecutor, make_executor
from .partition_tree import PartitionTree, build_partition_tree

__all__ = ["SEOracle", "BuildStats"]

BuildMethod = Literal["efficient", "naive"]
Strategy = Literal["random", "greedy"]


@dataclass
class BuildStats:
    """Construction-time breakdown and structure counts.

    The effort counters come from the engine: ``ssad_calls`` counts one
    per SSAD row, also when one SciPy call computes many rows, and
    ``settled_nodes`` sums the nodes each row settled (a cover-all row
    settles its source's whole component).  Rows push no heap entries:
    ``heap_pushes`` counts the targeted searches' pushes only.  None of
    the three depends on whether SciPy is installed.
    """

    tree_seconds: float = 0.0
    enhanced_seconds: float = 0.0
    pairs_seconds: float = 0.0
    hash_seconds: float = 0.0
    total_seconds: float = 0.0
    height: int = 0
    root_radius: float = 0.0
    original_nodes: int = 0
    compressed_nodes: int = 0
    enhanced_edges: int = 0
    pairs_considered: int = 0
    pairs_stored: int = 0
    ssad_calls: int = 0
    settled_nodes: int = 0
    heap_pushes: int = 0
    enhanced_lookup_fallbacks: int = 0
    jobs: int = 1
    executor: str = "serial"


class SEOracle:
    """The Space-Efficient ε-approximate geodesic distance oracle.

    Parameters
    ----------
    engine:
        Geodesic engine holding the terrain and the POI set ``P``.
    epsilon:
        Error parameter ε > 0; queries return distances within
        ``(1 ± ε)`` of the geodesic distance (w.r.t. the engine metric).
    strategy:
        Point-selection strategy of the tree build (``"random"`` /
        ``"greedy"``), the paper's SE(Random) / SE(Greedy) variants.
    method:
        ``"efficient"`` (enhanced edges, Section 3.5) or ``"naive"``
        (per-pair SSAD — the SE(Naive) baseline).
    seed:
        Randomness seed (tree build + hashing).
    jobs:
        Worker processes for the build fan-out stage: ``1`` (default)
        builds serially, ``N >= 2`` fans SSAD batches out across ``N``
        processes, negative means one per CPU.  Parallel builds are
        bit-identical to serial ones.
    executor:
        Explicit :class:`~repro.core.parallel.BuildExecutor` overriding
        ``jobs``; the caller keeps ownership (it is not closed after
        the build), so one process pool can serve several builds.
    ssad_cache:
        Optional :class:`~repro.core.incremental.MemoExecutor` — the
        incremental-flush memo.  When set, every SSAD of the build
        (tree construction and fan-out alike) is routed through it:
        memoised rows replay instead of recomputing, new rows are
        captured for the next generation.  The output is bit-identical
        with or without a cache.

    Example
    -------
    >>> from repro.terrain import make_terrain, sample_uniform
    >>> from repro.geodesic import GeodesicEngine
    >>> mesh = make_terrain(grid_exponent=3, seed=1)
    >>> pois = sample_uniform(mesh, 12, seed=1)
    >>> oracle = SEOracle(GeodesicEngine(mesh, pois), epsilon=0.25)
    >>> oracle.build()
    >>> d = oracle.query(0, 5)
    """

    def __init__(self, engine: GeodesicEngine, epsilon: float,
                 strategy: Strategy = "random",
                 method: BuildMethod = "efficient",
                 seed: int = 0, jobs: int = 1,
                 executor: Optional[BuildExecutor] = None,
                 ssad_cache=None):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if method not in ("efficient", "naive"):
            raise ValueError(f"unknown build method: {method}")
        self._engine = engine
        self.epsilon = epsilon
        self.strategy = strategy
        self.method = method
        self.seed = seed
        self.jobs = jobs
        self._executor = executor
        self._ssad_cache = ssad_cache
        self.stats = BuildStats()
        self._tree: Optional[CompressedPartitionTree] = None
        self._original_tree: Optional[PartitionTree] = None
        self._pair_set: Optional[NodePairSet] = None
        self._pair_hash: Optional[PerfectHashMap] = None
        self._enhanced: Optional[EnhancedEdgeIndex] = None
        self._compiled = None
        self._built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> "SEOracle":
        """Construct the oracle via the staged pipeline; returns ``self``.

        Stage 1 (*plan*) builds and compresses the partition tree —
        sequential by nature, since every cover pass selects from what
        the previous passes left uncovered.  Stage 2 (*fan-out*) runs
        the independent SSAD bulk — enhanced-edge sweeps or naive
        per-pair centre distances — as batches on the build executor.
        Stage 3 (*reduce*) generates the pair set and perfect-hashes
        it in deterministic order.  Output is bit-identical for any
        executor / ``jobs`` setting.
        """
        engine = self._engine
        engine.reset_counters()
        started = time.perf_counter()
        executor = self._executor
        owns_executor = executor is None
        if owns_executor:
            executor = make_executor(self.jobs)
        tree_ssad = None
        if self._ssad_cache is not None:
            # The memo wraps the real executor: valid rows replay in
            # external-id space, misses fan out through the inner
            # executor and are captured for the next generation.
            executor = self._ssad_cache.attach(executor)
            tree_ssad = self._ssad_cache.ssad
        try:
            executor.bind(engine)

            # ----------------------------------------------------------
            # Stage 1: plan — partition tree + compression.
            # ----------------------------------------------------------
            tick = time.perf_counter()
            original = build_partition_tree(engine, strategy=self.strategy,
                                            seed=self.seed,
                                            ssad=tree_ssad)
            tree = compress_tree(original)
            self.stats.tree_seconds = time.perf_counter() - tick

            # ----------------------------------------------------------
            # Stage 2: fan-out — the SSAD-heavy distance bulk.
            # ----------------------------------------------------------
            fallbacks = 0
            if self.method == "efficient":
                tick = time.perf_counter()
                enhanced = build_enhanced_edges(engine, original,
                                                self.epsilon,
                                                seed=self.seed,
                                                executor=executor)
                self.stats.enhanced_seconds = time.perf_counter() - tick
                self._enhanced = enhanced

                def batch_provider(center_pairs: Sequence[Tuple[int, int]]
                                   ) -> List[float]:
                    nonlocal fallbacks
                    distances = []
                    misses = []
                    for position, (a, b) in enumerate(center_pairs):
                        distance = enhanced.pair_distance(a, b)
                        if distance is None:
                            # Lemma 4 says this cannot happen; recover
                            # with an SSAD rather than fail, and
                            # surface it in stats.
                            fallbacks += 1
                            misses.append(position)
                        distances.append(distance)
                    if misses:
                        recovered = executor.map_pair_distances(
                            [center_pairs[i] for i in misses])
                        if len(recovered) != len(misses):
                            raise ValueError(
                                "executor returned a misaligned batch")
                        for position, distance in zip(misses, recovered):
                            distances[position] = distance
                    return distances
            else:
                cache: Dict[Tuple[int, int], float] = {}

                def batch_provider(center_pairs: Sequence[Tuple[int, int]]
                                   ) -> List[float]:
                    # One executor round per wavefront: compute every
                    # distinct uncached centre pair, first-seen order.
                    need: List[Tuple[int, int]] = []
                    for a, b in center_pairs:
                        if a == b:
                            continue
                        key = (a, b) if a < b else (b, a)
                        if key not in cache:
                            cache[key] = None
                            need.append(key)
                    if need:
                        computed = executor.map_pair_distances(need)
                        if len(computed) != len(need):
                            raise ValueError(
                                "executor returned a misaligned batch")
                        for key, distance in zip(need, computed):
                            cache[key] = distance
                    return [0.0 if a == b
                            else cache[(a, b) if a < b else (b, a)]
                            for a, b in center_pairs]

            # ----------------------------------------------------------
            # Stage 3: reduce — pair generation + perfect hashing.
            # ----------------------------------------------------------
            tick = time.perf_counter()
            pair_set = generate_node_pairs_batched(tree, self.epsilon,
                                                   batch_provider)
            self.stats.pairs_seconds = time.perf_counter() - tick

            tick = time.perf_counter()
            entries = [(pack_pair(a, b), distance)
                       for (a, b), distance in pair_set.pairs.items()]
            pair_hash = PerfectHashMap(entries, seed=self.seed)
            self.stats.hash_seconds = time.perf_counter() - tick
        finally:
            if owns_executor:
                executor.close()

        self._original_tree = original
        self._tree = tree
        self._pair_set = pair_set
        self._pair_hash = pair_hash
        self._compiled = None  # stale after a rebuild; recompiled lazily
        self._built = True

        stats = self.stats
        stats.total_seconds = time.perf_counter() - started
        stats.height = tree.height
        stats.root_radius = tree.root_radius
        stats.original_nodes = original.num_nodes
        stats.compressed_nodes = tree.num_nodes
        stats.enhanced_edges = (self._enhanced.edge_count
                                if self._enhanced else 0)
        stats.pairs_considered = pair_set.considered
        stats.pairs_stored = len(pair_set)
        stats.ssad_calls = engine.ssad_calls
        stats.settled_nodes = engine.settled_nodes
        stats.heap_pushes = engine.heap_pushes
        stats.enhanced_lookup_fallbacks = fallbacks
        stats.jobs = executor.jobs
        stats.executor = executor.name
        return self

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def engine(self) -> GeodesicEngine:
        return self._engine

    @property
    def num_pois(self) -> int:
        """POI count of the underlying workload (shared with
        :class:`~repro.core.store.StoredOracle` so batch-serving
        callers need no duck-typing)."""
        return self._engine.num_pois

    @property
    def is_built(self) -> bool:
        return self._built

    @property
    def supports_updates(self) -> bool:
        """Static index (``DistanceIndex`` flag); see
        :class:`~repro.core.dynamic.DynamicSEOracle` for updates."""
        return False

    @property
    def height(self) -> int:
        self._require_built()
        return self._tree.height

    @property
    def tree(self) -> CompressedPartitionTree:
        self._require_built()
        return self._tree

    @property
    def original_tree(self) -> PartitionTree:
        self._require_built()
        return self._original_tree

    @property
    def pair_set(self) -> NodePairSet:
        self._require_built()
        return self._pair_set

    @property
    def pair_hash(self) -> PerfectHashMap:
        self._require_built()
        return self._pair_hash

    @property
    def num_pairs(self) -> int:
        self._require_built()
        return len(self._pair_set)

    def size_bytes(self) -> int:
        """Oracle size under the repository's byte-count model.

        Counts only what must persist to answer queries: the compressed
        tree and the perfect-hashed node pair set.  (``T_org`` and the
        enhanced edges are construction scaffolding, discarded after
        build — mirroring the paper's accounting, where the oracle is
        "the compressed partition tree and the node pair set".)
        """
        self._require_built()
        return self._tree.size_bytes() + self._pair_hash.size_bytes(8)

    def _require_built(self) -> None:
        if not self._built:
            raise RuntimeError("oracle not built; call build() first")

    # ------------------------------------------------------------------
    # queries (Section 3.4)
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> float:
        """ε-approximate geodesic distance between POIs (O(h) method)."""
        self._require_built()
        tree = self._tree
        pair_hash = self._pair_hash
        array_s = tree.layer_array(source)
        array_t = tree.layer_array(target)
        height = tree.height

        # Step 1: same-layer pairs.
        for layer in range(height + 1):
            node_s = array_s[layer]
            node_t = array_t[layer]
            if node_s is not None and node_t is not None:
                distance = pair_hash.get(pack_pair(node_s, node_t))
                if distance is not None:
                    return distance

        # Step 2: first-higher-layer pairs (s-node above t-node).
        for layer in range(1, height + 1):
            node_t = array_t[layer]
            if node_t is None:
                continue
            parent = tree.node(node_t).parent
            if parent is None:
                continue
            for k in range(tree.node(parent).layer, layer):
                node_s = array_s[k]
                if node_s is None:
                    continue
                distance = pair_hash.get(pack_pair(node_s, node_t))
                if distance is not None:
                    return distance

        # Step 3: first-lower-layer pairs (symmetric).
        for layer in range(1, height + 1):
            node_s = array_s[layer]
            if node_s is None:
                continue
            parent = tree.node(node_s).parent
            if parent is None:
                continue
            for k in range(tree.node(parent).layer, layer):
                node_t = array_t[k]
                if node_t is None:
                    continue
                distance = pair_hash.get(pack_pair(node_s, node_t))
                if distance is not None:
                    return distance

        raise RuntimeError(
            f"no covering node pair for ({source}, {target}); "
            "unique-match property violated"
        )

    # ------------------------------------------------------------------
    # batched queries (the compiled serving path)
    # ------------------------------------------------------------------
    def compiled(self, refresh: bool = False) -> "CompiledOracle":
        """The flat-table form of this oracle (compiled lazily, cached).

        See :class:`~repro.core.compiled.CompiledOracle`; the tables
        answer whole query batches with no Python per query and are
        bit-identical to :meth:`query`.  The cache is invalidated by
        ``build()``; pass ``refresh=True`` to force a recompile.
        """
        self._require_built()
        if self._compiled is None or refresh:
            from .compiled import CompiledOracle
            self._compiled = CompiledOracle.from_oracle(self)
        return self._compiled

    @property
    def is_compiled(self) -> bool:
        return self._compiled is not None

    def query_batch(self, sources, targets):
        """Batched :meth:`query` over aligned id arrays (float64 array).

        Compiles the flat tables on first use; afterwards each batch is
        answered in a handful of NumPy passes (~``(h+1)²`` probed keys
        per query, no Python loop).
        """
        return self.compiled().query_batch(sources, targets)

    def query_matrix(self, pois=None):
        """All-pairs distance matrix over ``pois`` (default: all)."""
        return self.compiled().query_matrix(pois)

    def query_naive(self, source: int, target: int) -> float:
        """Same answer via the O(h²) Cartesian scan (SE(Naive) query)."""
        self._require_built()
        tree = self._tree
        pair_hash = self._pair_hash
        nodes_s = [n for n in tree.layer_array(source) if n is not None]
        nodes_t = [n for n in tree.layer_array(target) if n is not None]
        for node_s in nodes_s:
            for node_t in nodes_t:
                distance = pair_hash.get(pack_pair(node_s, node_t))
                if distance is not None:
                    return distance
        raise RuntimeError(
            f"no covering node pair for ({source}, {target}); "
            "unique-match property violated"
        )

    def covering_pair(self, source: int, target: int
                      ) -> Tuple[int, int, float]:
        """The unique node pair containing ``(source, target)``.

        Exposed for tests of Theorem 1; returns ``(o1, o2, distance)``.

        A pair covers ``(s, t)`` exactly when its nodes are
        ancestors-or-self of the two leaves, so the candidates are the
        O(h²) product of the two root chains — probed through the pair
        set's keyed lookup, the same layer arrays the query walks —
        never a scan over every stored pair.
        """
        self._require_built()
        tree = self._tree
        pair_set = self._pair_set
        chain_s = [node for node in tree.layer_array(source)
                   if node is not None]
        chain_t = [node for node in tree.layer_array(target)
                   if node is not None]
        matches = []
        for node_s in chain_s:
            for node_t in chain_t:
                distance = pair_set.distance_of(node_s, node_t)
                if distance is not None:
                    matches.append((node_s, node_t, distance))
        if len(matches) != 1:
            raise RuntimeError(
                f"{len(matches)} pairs cover ({source}, {target}); "
                "expected exactly 1"
            )
        return matches[0]
