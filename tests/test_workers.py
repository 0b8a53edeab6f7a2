"""Multi-worker fleet tests: SO_REUSEPORT spread, per-worker mmaps,
single-writer update pinning, and flush generation publishing.

These fork real worker processes (one service + one mmap each) and
talk to them over TCP, so they are the slowest tests in the suite —
everything rides on one module-scoped fleet, and the flush scenario
runs as a single ordered story.
"""

import socket
import threading
import time

import pytest

from repro.core import SEOracle, pack_oracle
from repro.geodesic import GeodesicEngine
from repro.serving import MutableSpec, ServerConfig, WorkerFleet
from repro.serving.loadgen import OracleClient, ServerError
from repro.terrain import make_terrain, sample_uniform, write_mesh

if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
    pytest.skip("SO_REUSEPORT not available on this platform",
                allow_module_level=True)

NUM_POIS = 12
WORKERS = 3


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=7)
    mesh_path = root / "dunes.obj"
    write_mesh(mesh, str(mesh_path))
    pois = sample_uniform(mesh, NUM_POIS, seed=8)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    dunes = root / "dunes.store"
    pack_oracle(SEOracle(engine, 0.3, seed=7).build(), dunes)

    mesh2 = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                         relief=15.0, seed=9)
    pois2 = sample_uniform(mesh2, 10, seed=10)
    alps = root / "alps.store"
    pack_oracle(
        SEOracle(GeodesicEngine(mesh2, pois2, points_per_edge=1),
                 0.3, seed=9).build(),
        alps,
    )

    config = ServerConfig(
        registrations=(("alps", str(alps)), ("dunes", str(dunes))),
        mutable={
            "dunes": MutableSpec(mesh_path=str(mesh_path),
                                 pois=NUM_POIS, poi_seed=8, density=1),
        },
        workers=WORKERS,
    )
    with WorkerFleet(config) as running:
        yield running


@pytest.fixture(scope="module")
def worker_clients(fleet):
    """One open client per distinct worker the kernel hands us; the
    fleet has WORKERS accept queues behind one port, so repeated
    connects spread across them."""
    seen = {}
    for _ in range(48):
        client = OracleClient(fleet.host, fleet.port)
        worker = client.hello()["worker"]
        if worker in seen:
            client.close()
        else:
            seen[worker] = client
        if len(seen) == WORKERS:
            break
    yield seen
    for client in seen.values():
        client.close()


def test_connections_spread_across_workers(worker_clients):
    # The kernel balances by flow hash, not round-robin; demanding
    # every worker within 48 connects would be flaky, two is proof
    # of spread.
    assert len(worker_clients) >= 2
    for worker, client in worker_clients.items():
        hello = client.hello()
        assert hello["workers"] == WORKERS
        assert hello["writer"] is (worker == 0)
        assert set(hello["terrains"]) == {"alps", "dunes"}


def test_every_worker_answers_identically(worker_clients):
    answers = {w: c.query("dunes", 0, 5)
               for w, c in worker_clients.items()}
    assert len(set(answers.values())) == 1
    answers = {w: c.query("alps", 0, 1)
               for w, c in worker_clients.items()}
    assert len(set(answers.values())) == 1


def test_one_mmap_per_worker(worker_clients):
    """Each worker process owns exactly one map of each store it has
    touched: readers load lazily (one load), the writer's mutable
    terrain is mapped at registration and pinned (zero LRU loads)."""
    for worker, client in worker_clients.items():
        client.query("dunes", 0, 5)
        client.query("alps", 0, 1)
        stats = client.stats()["terrains"]
        expected_dunes = 0 if worker == 0 else 1
        assert stats["dunes"]["loads"] == expected_dunes
        assert stats["alps"]["loads"] == 1
        assert stats["dunes"]["evictions"] == 0


def test_reader_redirects_updates_to_writer(fleet, worker_clients):
    reader = next((c for w, c in worker_clients.items() if w != 0),
                  None)
    assert reader is not None
    with pytest.raises(ServerError) as info:
        reader.insert("dunes", 50.0, 50.0)
    assert info.value.error_type == "not-writer"
    assert info.value.extra["writer_host"] == fleet.host
    assert info.value.extra["writer_port"] == fleet.writer_port
    with pytest.raises(ServerError) as info:
        reader.flush("dunes")
    assert info.value.error_type == "not-writer"


def test_flush_publishes_generation_to_readers(fleet, worker_clients):
    """The whole single-writer story in order: updates land on the
    writer port, flush atomically republishes the store, and readers
    pick up the new generation by re-mmap on their next access —
    without dropping queries that are in flight while it happens."""
    reader = next(c for w, c in worker_clients.items() if w != 0)

    before = reader.query("dunes", 0, 1)
    hammered = []
    hammer_failures = []
    stop = threading.Event()

    def hammer():
        # In-flight traffic across the flush; separate connection so
        # it can land on any worker.
        try:
            with OracleClient(fleet.host, fleet.port) as client:
                while not stop.is_set():
                    hammered.append(client.query("dunes", 0, 1))
        except Exception as error:  # pragma: no cover
            hammer_failures.append(error)

    thread = threading.Thread(target=hammer)
    thread.start()
    try:
        with OracleClient(fleet.host, fleet.writer_port) as writer:
            assert writer.hello()["worker"] == 0
            first = writer.insert("dunes", 40.0, 40.0)
            second = writer.insert("dunes", 60.0, 25.0)
            assert second == first + 1
            meta = writer.flush("dunes")
            assert "fingerprint" in meta

            # Readers observe the flushed generation on next access.
            observed = None
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                try:
                    observed = reader.query("dunes", 0, second)
                    break
                except ServerError:
                    time.sleep(0.1)
            assert observed is not None, \
                "reader never observed the flushed generation"
            assert observed == writer.query("dunes", 0, second)
            after = reader.query("dunes", 0, 1)
            assert after == writer.query("dunes", 0, 1)
    finally:
        stop.set()
        thread.join()

    assert not hammer_failures
    assert hammered
    # No dropped or torn answers mid-swap: every in-flight reply is
    # the pre-flush or post-flush value (the rebuild may move the
    # approximation by ulps).
    after = reader.query("dunes", 0, 1)
    assert set(hammered) <= {before, after}

    stats = reader.stats()["terrains"]["dunes"]
    assert stats["refreshes"] == 1
    assert stats["loads"] == 2  # the initial map + one re-mmap
    # The refresh closed the old generation, counted as an eviction,
    # so the ledger reconciles: loads - evictions == open stores.
    assert stats["evictions"] == 1
    assert stats["resident"]
    assert stats["loads"] - stats["evictions"] == 1
