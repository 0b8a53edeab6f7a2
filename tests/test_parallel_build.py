"""Tests for the staged parallel build pipeline (core.parallel).

The contract under test: a build that fans its SSAD batches out
across worker processes is **bit-identical** to a serial build — same
node pairs, same float64 distances, same compressed tree, same
search-effort counters — for both construction methods, across ε
values, and on both Dijkstra kernels (SciPy and pure-Python).
"""

import multiprocessing
import pickle

import pytest

from repro.core import (
    A2AOracle,
    MultiprocessExecutor,
    SEOracle,
    SerialExecutor,
    make_executor,
)
from repro.geodesic import EngineSnapshot, GeodesicEngine
from repro.terrain import make_terrain, sample_uniform

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def workload():
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=31)
    pois = sample_uniform(mesh, 18, seed=32)
    return GeodesicEngine(mesh, pois, points_per_edge=1)


def assert_bit_identical(serial: SEOracle, parallel: SEOracle) -> None:
    """Bitwise structural equality plus exact effort-counter parity."""
    # Byte equality on purpose: parallel reduction must not change a
    # single bit of any key or distance.
    for name, column in serial.pair_hash.frozen_arrays().items():
        assert parallel.pair_hash.frozen_arrays()[name].tobytes() \
            == column.tobytes(), name
    assert serial.stats.pairs_considered == parallel.stats.pairs_considered
    assert serial.tree.table.tobytes() == parallel.tree.table.tobytes()
    assert serial.tree.radii.tobytes() == parallel.tree.radii.tobytes()
    assert serial.stats.ssad_calls == parallel.stats.ssad_calls
    assert serial.stats.settled_nodes == parallel.stats.settled_nodes
    assert serial.stats.heap_pushes == parallel.stats.heap_pushes
    assert serial.stats.enhanced_edges == parallel.stats.enhanced_edges
    assert serial.stats.enhanced_lookup_fallbacks \
        == parallel.stats.enhanced_lookup_fallbacks


class TestExecutorFactory:
    def test_serial_for_one_or_none(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(None), SerialExecutor)

    def test_multiprocess_for_two(self):
        executor = make_executor(2)
        assert isinstance(executor, MultiprocessExecutor)
        assert executor.jobs == 2
        executor.close()

    def test_negative_means_cpu_count(self):
        executor = make_executor(-1)
        assert executor.jobs >= 1
        executor.close()

    def test_multiprocess_rejects_single_worker(self):
        with pytest.raises(ValueError):
            MultiprocessExecutor(1)

    def test_unbound_executor_raises(self):
        with pytest.raises(RuntimeError):
            SerialExecutor().map_pair_distances([(0, 1)])
        with pytest.raises(RuntimeError):
            MultiprocessExecutor(2).map_ssad([(0, None)])


class TestEngineSnapshot:
    def test_roundtrips_through_pickle(self, workload):
        snapshot = workload.snapshot()
        assert isinstance(snapshot, EngineSnapshot)
        clone = pickle.loads(pickle.dumps(snapshot)).rehydrate()
        for poi in range(0, workload.num_pois, 5):
            assert clone.distances_from_poi(poi) \
                == workload.distances_from_poi(poi)
        assert clone.distance(0, 3) == workload.distance(0, 3)
        assert clone.num_pois == workload.num_pois

    def test_counters_start_clean(self, workload):
        clone = GeodesicEngine.from_snapshot(workload.snapshot())
        assert clone.ssad_calls == 0
        clone.distance(0, 1)
        assert clone.ssad_calls == 1

    def test_rejects_transient_overlay(self):
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=33)
        engine = GeodesicEngine(mesh, sample_uniform(mesh, 5, seed=34),
                                points_per_edge=1)
        engine.attach_point(40.0, 40.0)
        with pytest.raises(RuntimeError):
            engine.snapshot()
        engine.detach_points(1)
        engine.snapshot()  # frozen again -> fine

    def test_account_external_feeds_counters(self, workload):
        before = workload.ssad_calls
        workload.account_external(3, 100, 200)
        assert workload.ssad_calls == before + 3
        workload.account_external(-3, -100, -200)  # restore


class TestSerialExecutorIsReference:
    def test_map_ssad_matches_engine(self, workload):
        executor = SerialExecutor()
        executor.bind(workload)
        results = executor.map_ssad([(0, None), (1, 30.0)])
        assert results[0] == workload.distances_from_poi(0)
        assert results[1] == workload.distances_from_poi(1, radius=30.0)

    def test_map_pair_distances_matches_engine(self, workload):
        executor = SerialExecutor()
        executor.bind(workload)
        pairs = [(0, 1), (2, 5), (3, 3)]
        assert executor.map_pair_distances(pairs) \
            == [workload.distance(a, b) for a, b in pairs]


class TestParallelParity:
    """The acceptance property: parallel == serial, bit for bit."""

    @pytest.mark.parametrize("epsilon", [1.0, 0.25])
    @pytest.mark.parametrize("method", ["efficient", "naive"])
    def test_jobs2_bit_identical(self, workload, epsilon, method):
        serial = SEOracle(workload, epsilon, method=method, seed=3).build()
        parallel = SEOracle(workload, epsilon, method=method, seed=3,
                            jobs=2).build()
        assert parallel.stats.executor == "multiprocess"
        assert parallel.stats.jobs == 2
        assert_bit_identical(serial, parallel)
        n = workload.num_pois
        for source in range(0, n, 3):
            for target in range(1, n, 4):
                assert serial.query(source, target) \
                    == parallel.query(source, target)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pure_python_kernel_parity(self, workload, monkeypatch):
        """The no-scipy kernel path, forced in-process.

        Workers inherit the patched module state through fork, so both
        sides of the comparison run the pure-Python array kernel.
        """
        import sys

        # `repro.geodesic.dijkstra` the *attribute* is the kernel
        # function (the package re-exports it); patch the module.
        kernel_module = sys.modules["repro.geodesic.dijkstra"]
        monkeypatch.setattr(kernel_module, "_scipy_dijkstra", None)
        serial = SEOracle(workload, 0.5, seed=5).build()
        parallel = SEOracle(workload, 0.5, seed=5, jobs=2).build()
        assert_bit_identical(serial, parallel)

    def test_greedy_strategy_parity(self, workload):
        serial = SEOracle(workload, 0.5, strategy="greedy", seed=9).build()
        parallel = SEOracle(workload, 0.5, strategy="greedy", seed=9,
                            jobs=2).build()
        assert_bit_identical(serial, parallel)


class TestExecutorOwnership:
    def test_caller_supplied_executor_survives_builds(self, workload):
        executor = MultiprocessExecutor(2)
        try:
            first = SEOracle(workload, 1.0, seed=3,
                             executor=executor).build()
            second = SEOracle(workload, 0.5, seed=3,
                              executor=executor).build()
            assert first.stats.executor == "multiprocess"
            assert second.num_pairs > first.num_pairs
        finally:
            executor.close()

    def test_close_is_idempotent_and_rebindable(self, workload):
        executor = MultiprocessExecutor(2)
        executor.bind(workload)
        executor.close()
        executor.close()
        executor.bind(workload)  # binding again after close is allowed
        try:
            assert executor.map_pair_distances([(0, 1)]) \
                == [workload.distance(0, 1)]
        finally:
            executor.close()


class TestThreadedEntryPoints:
    def test_a2a_oracle_jobs(self):
        mesh = make_terrain(grid_exponent=2, extent=(60.0, 60.0),
                            relief=8.0, seed=43)
        serial = A2AOracle(mesh, epsilon=0.5, seed=1).build()
        parallel = A2AOracle(mesh, epsilon=0.5, seed=1, jobs=2).build()
        query = ((10.0, 12.0), (45.0, 40.0))
        assert serial.query(*query) == parallel.query(*query)
