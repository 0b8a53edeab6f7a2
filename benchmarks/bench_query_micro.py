"""Micro-benchmarks: single-query latency of each method.

These use pytest-benchmark's calibrated loop (unlike the one-shot
figure sweeps) to measure the per-query cost of SE's O(h) lookup, the
O(h²) naive scan, SP-Oracle's neighbourhood minimisation and K-Algo's
on-the-fly search on a shared workload.

The ``test_kernel_*`` benchmarks compare the whole-row searches of
``row_block`` (the build's SSAD rows) against the seed dict kernel
(kept as ``dijkstra_reference``) on a grid_exponent=5 terrain, and
``test_kernel_settled_rate`` prints the settled-nodes/second
throughput of both, full-component and radius-bounded, so the speedup
lands in the benchmark trajectories.
"""

import itertools
import time

import pytest

from repro.baselines import KAlgo, SPOracle
from repro.core import SEOracle
from repro.experiments import load_dataset
from repro.geodesic import GeodesicEngine, GeodesicGraph, dijkstra_reference
from repro.geodesic.dijkstra import row_block
from repro.terrain import make_terrain

EPSILON = 0.1

try:  # row_block's rows run on SciPy when it imports
    import scipy.sparse.csgraph  # noqa: F401
    HAS_SCIPY = True
except ImportError:
    HAS_SCIPY = False


@pytest.fixture(scope="module")
def setup():
    dataset = load_dataset("sf-small", "small")
    engine = GeodesicEngine(dataset.mesh, dataset.pois, points_per_edge=1)
    se = SEOracle(engine, EPSILON, seed=1).build()
    sp = SPOracle(dataset.mesh, EPSILON, points_per_edge=1).build()
    kalgo = KAlgo(dataset.mesh, dataset.pois, EPSILON, points_per_edge=1)
    pairs = list(itertools.islice(
        ((i, j) for i in range(dataset.num_pois)
         for j in range(dataset.num_pois) if i != j), 64))
    return dataset, se, sp, kalgo, pairs


def _drain(query, pairs):
    total = 0.0
    for source, target in pairs:
        total += query(source, target)
    return total


def test_se_efficient_query(benchmark, setup):
    _, se, _, _, pairs = setup
    benchmark(lambda: _drain(se.query, pairs))


def test_se_naive_query(benchmark, setup):
    _, se, _, _, pairs = setup
    benchmark(lambda: _drain(se.query_naive, pairs))


def test_sp_oracle_query(benchmark, setup):
    dataset, _, sp, _, pairs = setup
    benchmark(lambda: _drain(
        lambda s, t: sp.query_p2p(dataset.pois, s, t), pairs))


def test_kalgo_query(benchmark, setup):
    _, _, _, kalgo, pairs = setup
    benchmark(lambda: _drain(kalgo.query, pairs[:8]))


# ----------------------------------------------------------------------
# whole-row searches (row_block) vs. the seed dict kernel
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kernel_setup():
    mesh = make_terrain(grid_exponent=5, seed=3)
    graph = GeodesicGraph(mesh, points_per_edge=1)
    n = graph.num_nodes
    sources = list(range(0, n, max(1, n // 12)))[:12]
    # The reference kernel reads lists; convert once, outside the timings.
    lists = graph.csr.to_lists()
    full = dijkstra_reference(lists, sources[0])
    radius = sorted(full.distances.values())[len(full.distances) // 3]
    return graph, lists, sources, radius


def _settle_sweep(kernel, graph_arg, sources, radius=None):
    """Settled nodes of one reference search per source."""
    settled = 0
    for source in sources:
        if radius is None:
            settled += kernel(graph_arg, source).settled_count
        else:
            settled += kernel(graph_arg, source, radius=radius).settled_count
    return settled


def _row_sweep(csr, sources, radius=None):
    """Settled nodes of one ``row_block`` batch over ``sources``."""
    _, settled = row_block(csr, sources, sources, radius=radius)
    return int(settled.sum())


def test_kernel_array_full(benchmark, kernel_setup):
    graph, _, sources, _ = kernel_setup
    benchmark(lambda: _row_sweep(graph.csr, sources))


def test_kernel_reference_full(benchmark, kernel_setup):
    _, lists, sources, _ = kernel_setup
    benchmark(lambda: _settle_sweep(dijkstra_reference, lists, sources))


def test_kernel_array_radius(benchmark, kernel_setup):
    graph, _, sources, radius = kernel_setup
    benchmark(lambda: _row_sweep(graph.csr, sources, radius))


def test_kernel_reference_radius(benchmark, kernel_setup):
    _, lists, sources, radius = kernel_setup
    benchmark(lambda: _settle_sweep(dijkstra_reference, lists, sources,
                                    radius))


def test_kernel_settled_rate(kernel_setup):
    """Print settled-nodes/second of ``row_block`` and the dict kernel;
    ``row_block`` must be >= 2x on SciPy."""
    graph, lists, sources, radius = kernel_setup

    def rate(sweep, bound=None):
        best = 0.0
        for _ in range(3):
            tick = time.perf_counter()
            settled = sweep(bound)
            best = max(best, settled / (time.perf_counter() - tick))
        return best

    def rows(bound):
        return _row_sweep(graph.csr, sources, bound)

    def reference(bound):
        return _settle_sweep(dijkstra_reference, lists, sources, bound)

    new_full = rate(rows)
    old_full = rate(reference)
    new_radius = rate(rows, radius)
    old_radius = rate(reference, radius)
    print(f"\nkernel settled-nodes/second (grid_exponent=5, "
          f"{graph.num_nodes} nodes):")
    print(f"  full component: row_block {new_full:12,.0f}/s   "
          f"dict {old_full:12,.0f}/s   speedup {new_full / old_full:.2f}x")
    print(f"  radius-bounded: row_block {new_radius:12,.0f}/s   "
          f"dict {old_radius:12,.0f}/s   speedup "
          f"{new_radius / old_radius:.2f}x")
    if HAS_SCIPY:
        # SciPy rows: the full-component sweep must hold the >= 2x
        # settled-nodes/second acceptance bar (typically 15x or more,
        # so timing noise has ample headroom).  Without SciPy each row
        # is one pure-Python search (~1.3x), reported above but not
        # asserted on — wall-clock ratios that tight are too noisy for
        # a hard gate.
        assert new_full >= 2.0 * old_full
