"""Experiment harness: build / size / query-time / error measurement.

Replicates the paper's measurement protocol (Section 5.1): for each
method report (1) oracle building time, (2) oracle size, (3) mean query
time over 100 random queries and (4) relative error against the exact
distance on the ground-truth metric.

Methods are registered by name; each entry knows how to construct the
competitor and how to issue a query, so P2P, V2V (POIs = vertices) and
A2A workloads all flow through one code path.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..analysis.error_stats import ErrorStats, measure_errors
from ..baselines.kalgo import KAlgo
from ..baselines.sp_oracle import SPOracle
from ..core.a2a import A2AOracle
from ..core.oracle import SEOracle
from ..geodesic.dijkstra import load_scipy
from ..geodesic.engine import GeodesicEngine
from ..terrain.mesh import TriangleMesh
from ..terrain.poi import POISet

__all__ = [
    "MethodResult",
    "generate_query_pairs",
    "generate_a2a_pairs",
    "run_p2p_experiment",
    "run_a2a_experiment",
    "P2P_METHODS",
]


@dataclass
class MethodResult:
    """One method's measurements on one workload configuration."""

    method: str
    build_seconds: float
    size_bytes: int
    query_seconds_mean: float
    errors: ErrorStats
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def size_mb(self) -> float:
        return self.size_bytes / (1024.0 * 1024.0)

    @property
    def query_ms(self) -> float:
        return self.query_seconds_mean * 1000.0


def generate_query_pairs(num_pois: int, count: int = 100,
                         seed: int = 0) -> List[Tuple[int, int]]:
    """Random P2P/V2V query workload (paper's protocol)."""
    if num_pois < 2:
        raise ValueError("need at least 2 POIs to generate queries")
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        source = rng.randrange(num_pois)
        target = rng.randrange(num_pois)
        if source != target:
            pairs.append((source, target))
    return pairs


def generate_a2a_pairs(mesh: TriangleMesh, count: int = 50, seed: int = 0
                       ) -> List[Tuple[Tuple[float, float],
                                       Tuple[float, float]]]:
    """Random A2A workload: planar points inside the terrain region."""
    rng = random.Random(seed)
    low, high = mesh.bounding_box()
    pairs = []
    while len(pairs) < count:
        points = []
        while len(points) < 2:
            x = rng.uniform(float(low[0]), float(high[0]))
            y = rng.uniform(float(low[1]), float(high[1]))
            if mesh.locate_face(x, y) >= 0:
                points.append((x, y))
        pairs.append((points[0], points[1]))
    return pairs


# ----------------------------------------------------------------------
# P2P method registry
# ----------------------------------------------------------------------

# Cap on the ε-derived Steiner density used by SP-Oracle inside the
# harness.  Uncapped, ε = 0.05 quadruples the site count and the Θ(S²)
# index takes hours in pure Python.  The cap *shrinks* SP-Oracle's build
# time and size, i.e. it can only understate SE's advantage.
SP_DENSITY_CAP = 2


def _capped_density(epsilon: float) -> int:
    from ..baselines.sp_oracle import steiner_density_for_epsilon
    return min(steiner_density_for_epsilon(epsilon), SP_DENSITY_CAP)


def _build_clock() -> float:
    """Start a build's clock after loading the search stack, so the
    first method built in a process does not time SciPy's import."""
    load_scipy()
    return time.perf_counter()


def _time_queries(query: Callable[[int, int], float],
                  pairs: Sequence[Tuple[int, int]]) -> float:
    started = time.perf_counter()
    for source, target in pairs:
        query(source, target)
    return (time.perf_counter() - started) / len(pairs)


def _time_query_batch(query_batch: Callable,
                      pairs: Sequence[Tuple[int, int]]) -> float:
    """Mean seconds/query of one batched call over the workload."""
    sources = np.array([source for source, _ in pairs], dtype=np.intp)
    targets = np.array([target for _, target in pairs], dtype=np.intp)
    started = time.perf_counter()
    query_batch(sources, targets)
    return (time.perf_counter() - started) / len(pairs)


def _se_factory(strategy: str, method: str):
    def run(mesh: TriangleMesh, pois: POISet, epsilon: float,
            points_per_edge: int, seed: int, jobs: int = 1):
        # The clock covers the graph, as SP-Oracle's and K-Algo's do.
        started = _build_clock()
        engine = GeodesicEngine(mesh, pois, points_per_edge=points_per_edge)
        oracle = SEOracle(engine, epsilon, strategy=strategy,
                          method=method, seed=seed, jobs=jobs).build()
        build = time.perf_counter() - started
        extra = {
            "height": float(oracle.height),
            "pairs": float(oracle.num_pairs),
        }
        tick = time.perf_counter()
        oracle.compiled()
        extra["compile_seconds"] = time.perf_counter() - tick
        # Serving-load cost: pack the built oracle to a binary store
        # and time a zero-copy open — what a serving process pays
        # before its first query (see core/store.py).
        import os
        import tempfile

        from ..core.store import open_oracle, pack_oracle
        handle, store_path = tempfile.mkstemp(suffix=".store")
        os.close(handle)
        try:
            tick = time.perf_counter()
            pack_oracle(oracle, store_path)
            extra["pack_seconds"] = time.perf_counter() - tick
            tick = time.perf_counter()
            stored = open_oracle(store_path)
            extra["load_seconds"] = time.perf_counter() - tick
            extra["store_bytes"] = float(stored.size_bytes())
            # Drop the mmap views before unlinking the temp file:
            # unlink-while-mapped fails on Windows and pins the
            # deleted blocks elsewhere.
            del stored
        finally:
            os.unlink(store_path)
        # The naive variant keeps its O(h²) scalar scan for the scalar
        # timing; the compiled tables answer both variants identically.
        scalar = oracle.query_naive if method == "naive" else oracle.query
        return (build, oracle.size_bytes(), scalar, oracle.query_batch,
                extra)
    return run


def _sp_factory():
    def run(mesh: TriangleMesh, pois: POISet, epsilon: float,
            points_per_edge: int, seed: int, jobs: int = 1):
        # SP-Oracle's APSP is not executor-staged (yet); jobs is
        # accepted for registry uniformity and ignored.
        started = _build_clock()
        oracle = SPOracle(mesh, epsilon,
                          points_per_edge=_capped_density(epsilon)).build()
        build = time.perf_counter() - started
        # The P2P adapter serves the DistanceIndex protocol, so the
        # harness reports SP-Oracle through the same query/query_batch
        # surface as every other method (its batch is a per-pair loop
        # — is_compiled stays False — but the *reporting* path is
        # uniform).
        index = oracle.p2p_index(pois)
        return build, oracle.size_bytes(), index.query, \
            index.query_batch, {"sites": float(oracle.num_sites)}
    return run


def _kalgo_factory():
    def run(mesh: TriangleMesh, pois: POISet, epsilon: float,
            points_per_edge: int, seed: int, jobs: int = 1):
        started = _build_clock()
        algo = KAlgo(mesh, pois, epsilon).build()
        build = time.perf_counter() - started
        # query_batch groups per-source multi-target searches; the
        # answers stay bit-identical to the scalar path, so the
        # harness's batch_qps is an honest serving number for K-Algo.
        return build, algo.size_bytes(), algo.query, algo.query_batch, {}
    return run


P2P_METHODS: Dict[str, Callable] = {
    "SE(Random)": _se_factory("random", "efficient"),
    "SE(Greedy)": _se_factory("greedy", "efficient"),
    "SE-Naive": _se_factory("random", "naive"),
    "SP-Oracle": _sp_factory(),
    "K-Algo": _kalgo_factory(),
}


def run_p2p_experiment(mesh: TriangleMesh, pois: POISet, epsilon: float,
                       methods: Sequence[str],
                       num_queries: int = 100,
                       points_per_edge: int = 1,
                       seed: int = 0,
                       jobs: int = 1) -> List[MethodResult]:
    """Run the Section 5 measurement protocol for P2P/V2V queries.

    The exact reference distances are computed once on a shared
    ground-truth engine (same Steiner density as SE's metric graph).
    ``jobs`` parallelises the SE builds' fan-out stage; reported
    build times then measure the parallel pipeline, while results
    stay bit-identical to serial builds.

    Methods exposing a batched query path additionally report serving
    throughput in ``extra``: ``scalar_qps`` (1 / mean scalar query)
    and ``batch_qps`` (queries/second of one ``query_batch`` over the
    whole workload, post-compile).
    """
    pairs = generate_query_pairs(len(pois), num_queries, seed=seed)
    reference = GeodesicEngine(mesh, pois, points_per_edge=points_per_edge)
    exact_cache: Dict[Tuple[int, int], float] = {}

    def exact(source: int, target: int) -> float:
        key = (source, target)
        if key not in exact_cache:
            exact_cache[key] = reference.distance(source, target)
        return exact_cache[key]

    results = []
    for name in methods:
        if name not in P2P_METHODS:
            raise KeyError(f"unknown method {name!r}; choose from "
                           f"{sorted(P2P_METHODS)}")
        build, size, query, query_batch, extra = P2P_METHODS[name](
            mesh, pois, epsilon, points_per_edge, seed, jobs=jobs)
        mean_query = _time_queries(query, pairs)
        if query_batch is not None:
            mean_batched = _time_query_batch(query_batch, pairs)
            extra["scalar_qps"] = (1.0 / mean_query if mean_query > 0
                                   else float("inf"))
            extra["batch_qps"] = (1.0 / mean_batched if mean_batched > 0
                                  else float("inf"))
        errors = measure_errors(query, exact, pairs)
        results.append(MethodResult(
            method=name, build_seconds=build, size_bytes=size,
            query_seconds_mean=mean_query, errors=errors, extra=extra,
        ))
    return results


def run_a2a_experiment(mesh: TriangleMesh, epsilon: float,
                       num_queries: int = 30,
                       sites_per_edge: int = 1,
                       points_per_edge: int = 1,
                       seed: int = 0) -> List[MethodResult]:
    """The Appendix C workload: SE-A2A vs SP-Oracle vs K-Algo on
    arbitrary-point queries."""
    pairs = generate_a2a_pairs(mesh, num_queries, seed=seed)
    reference = GeodesicEngine(mesh, POISet([]),
                               points_per_edge=points_per_edge)

    def exact(pair_index: int, _unused: int) -> float:
        source_xy, target_xy = pairs[pair_index]
        node_s = reference.attach_point(*source_xy)
        node_t = reference.attach_point(*target_xy)
        try:
            return reference.node_distance(node_s, node_t)
        finally:
            reference.detach_points(2)

    index_pairs = [(i, 0) for i in range(len(pairs))]
    results = []

    def evaluate(name: str, build_seconds: float, size_bytes: int,
                 query_xy: Callable, engine=None) -> MethodResult:
        def query(pair_index: int, _unused: int) -> float:
            source_xy, target_xy = pairs[pair_index]
            return query_xy(source_xy, target_xy)

        # Settled-node delta across the timed loop: the structural
        # "does this method run graph searches at query time?" signal
        # (0 for the table-lookup oracles, > 0 for K-Algo), which is
        # what bench assertions should compare instead of wall-clock
        # means that sit within scheduler noise of each other.  A
        # method with no engine owns no search machinery at all, so
        # its query-time search work is structurally zero.
        before = engine.settled_nodes if engine is not None else 0
        mean_query = _time_queries(query, index_pairs)
        settled = (engine.settled_nodes - before if engine is not None
                   else 0)
        errors = measure_errors(query, exact, index_pairs)
        return MethodResult(method=name, build_seconds=build_seconds,
                            size_bytes=size_bytes,
                            query_seconds_mean=mean_query, errors=errors,
                            extra={"query_settled_nodes": settled})

    started = _build_clock()
    se_a2a = A2AOracle(mesh, epsilon, sites_per_edge=sites_per_edge,
                       points_per_edge=points_per_edge, seed=seed).build()
    results.append(evaluate("SE", time.perf_counter() - started,
                            se_a2a.size_bytes(), se_a2a.query,
                            engine=se_a2a.engine))

    started = _build_clock()
    sp = SPOracle(mesh, epsilon,
                  points_per_edge=_capped_density(epsilon)).build()
    results.append(evaluate("SP-Oracle", time.perf_counter() - started,
                            sp.size_bytes(), sp.query_xy))

    kalgo = KAlgo(mesh, POISet([]), epsilon)
    results.append(evaluate("K-Algo", 0.0, 0, kalgo.query_xy,
                            engine=kalgo.engine))
    return results
