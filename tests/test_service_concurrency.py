"""Concurrency tests for :class:`OracleService`.

The service promises that concurrent callers see the same answers a
serial caller would: every public method runs under one re-entrant
lock, LRU evictions are atomic with the queries that trigger them, and
mutable updates never tear an in-flight probe.  These tests hammer the
service from many threads — with a resident budget small enough to
force constant eviction churn, and with a writer thread mutating a
terrain mid-flight — then replay every recorded answer serially and
demand bit-identical results.

Two invariants drive the mutable tests.  While updates stay in the
overlay (no flush), the mmap'd base tables are untouched, so distances
between surviving original POIs are *bit-identical* to a serial run.
A flush rebuilds the base oracle — the approximation may legitimately
shift by ulps — so flush-under-load is checked as an atomic swap
instead: every concurrent answer must equal either the pre-flush or
the post-flush serial value, never a torn in-between.
"""

import shutil
import threading

import pytest

from repro.core import SEOracle, dynamic, pack_oracle
from repro.geodesic import GeodesicEngine
from repro.serving import OracleService, TerrainSpec, ThreadedServer
from repro.serving.loadgen import OracleClient, sample_pairs
from repro.terrain import make_terrain, sample_uniform

NUM_POIS = 10


def _pack(path, seed):
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=seed)
    pois = sample_uniform(mesh, NUM_POIS, seed=seed + 1)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    oracle = SEOracle(engine, 0.3, seed=seed).build()
    pack_oracle(oracle, path)
    return engine


@pytest.fixture(scope="module")
def static_stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("static")
    paths = {name: root / f"{name}.store" for name in ("a", "b")}
    for i, path in enumerate(paths.values()):
        _pack(path, seed=20 + i)
    return paths


@pytest.fixture(scope="module")
def pristine_mutable(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutable") / "pristine.store"
    engine = _pack(path, seed=29)
    return path, engine


@pytest.fixture()
def mutable_service(pristine_mutable, tmp_path):
    """A fresh copy of the mutable store per test — flush repacks the
    file in place, which would break the next test's fingerprint."""
    pristine, engine = pristine_mutable
    path = tmp_path / "m.store"
    shutil.copyfile(pristine, path)
    service = OracleService(max_resident=2)
    service.register("m", TerrainSpec(str(path), mutable=True,
                                      engine=engine, rebuild_factor=10.0))
    return service


def _run_threads(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestEvictionChurn:
    def test_concurrent_queries_under_lru_thrash(self, static_stores):
        """8 threads alternating between two terrains with room for
        only one resident: every answer must match serial replay and
        the load/eviction ledgers must reconcile."""
        service = OracleService(max_resident=1)
        service.register("a", TerrainSpec(str(static_stores["a"])))
        service.register("b", TerrainSpec(str(static_stores["b"])))

        pairs = sample_pairs(NUM_POIS, 60, seed=3)
        records = []
        lock = threading.Lock()
        failures = []

        def worker(slot):
            try:
                terrain = "a" if slot % 2 == 0 else "b"
                local = []
                for i, (s, t) in enumerate(pairs):
                    # Cross over mid-run so both terrains keep
                    # evicting each other.
                    name = terrain if i % 3 else ("b" if terrain == "a"
                                                  else "a")
                    local.append((name, s, t,
                                  service.query(name, s, t)))
                with lock:
                    records.extend(local)
            except Exception as error:  # pragma: no cover
                failures.append(error)

        _run_threads([lambda slot=k: worker(slot) for k in range(8)])
        assert not failures

        # Bit-identical serial replay of every recorded answer.
        for name, s, t, answer in records:
            assert service.query(name, s, t) == answer

        total = 8 * len(pairs) + len(records)  # workers + replay
        stats = service.stats()
        assert stats["a"]["queries"] + stats["b"]["queries"] == total
        for name in ("a", "b"):
            counters = stats[name]
            assert counters["loads"] >= 1
            # Residency bookkeeping balances: every load beyond the
            # ones still resident was matched by an eviction.
            resident = name in service.resident_terrains()
            assert (counters["loads"] - counters["evictions"]
                    == (1 if resident else 0))
        assert len(service.resident_terrains()) <= 1

    def test_explicit_evict_races_with_queries(self, static_stores):
        service = OracleService(max_resident=2)
        service.register("a", TerrainSpec(str(static_stores["a"])))
        pairs = sample_pairs(NUM_POIS, 80, seed=9)
        reference = [service.query("a", s, t) for s, t in pairs]
        failures = []

        def querier():
            try:
                for (s, t), expected in zip(pairs, reference):
                    assert service.query("a", s, t) == expected
            except Exception as error:  # pragma: no cover
                failures.append(error)

        def evictor():
            for _ in range(40):
                service.evict("a")

        _run_threads([querier, querier, evictor])
        assert not failures


class TestPagedPoolChurn:
    def test_single_page_pool_under_thread_hammering(
            self, static_stores):
        """8 threads share one terrain served through a single-page
        pool — the worst paging regime, where every gather group can
        evict the previous one.  Every recorded answer must match a
        serial replay bit for bit, and the page ledger must reconcile
        after the stampede."""
        service = OracleService(max_resident=2)
        service.register("a", TerrainSpec(
            str(static_stores["a"]), max_resident_bytes=8))

        service.query("a", 0, 1)  # lazy open: materialise the pool
        ledger = service.stats()["a"]["paging"]
        assert ledger["max_pages"] == 1
        assert ledger["page_bytes"] == 8

        pairs = sample_pairs(NUM_POIS, 60, seed=5)
        records = []
        lock = threading.Lock()
        failures = []

        def worker(slot):
            try:
                local = []
                for s, t in pairs[slot % 3:]:
                    local.append((s, t, service.query("a", s, t)))
                with lock:
                    records.extend(local)
            except Exception as error:  # pragma: no cover
                failures.append(error)

        _run_threads([lambda slot=k: worker(slot) for k in range(8)])
        assert not failures
        assert records

        for s, t, answer in records:
            assert service.query("a", s, t) == answer

        ledger = service.stats()["a"]["paging"]
        assert ledger["loads"] >= 1
        assert ledger["loads"] - ledger["evictions"] \
            == ledger["resident_pages"]
        assert ledger["peak_resident_bytes"] <= ledger["budget_bytes"]
        assert service.describe("a")["paging"]["loads"] \
            >= ledger["loads"]
        service.close()


class TestMutableChurn:
    def test_readers_bit_identical_during_overlay_churn(
            self, mutable_service):
        """Reader threads query distances between never-deleted
        original POIs while a writer inserts and deletes overlay POIs.
        The base tables never change, so every recorded answer must
        equal its serial replay after the churn stops."""
        service = mutable_service
        stable = list(range(NUM_POIS))  # originals, never deleted
        pairs = [(s, t) for s in stable[:5] for t in stable[5:]]
        records = []
        lock = threading.Lock()
        failures = []
        stop = threading.Event()

        def reader():
            try:
                local = []
                while not stop.is_set():
                    for s, t in pairs:
                        local.append((s, t, service.query("m", s, t)))
                with lock:
                    records.extend(local)
            except Exception as error:  # pragma: no cover
                failures.append(error)

        def writer():
            try:
                for round_no in range(3):
                    fresh = [service.insert_poi("m", 20.0 + 7 * k,
                                                30.0 + 5 * k + round_no)
                             for k in range(3)]
                    for poi in fresh:
                        assert service.query("m", poi, 0) > 0
                    for poi in fresh:
                        service.delete_poi("m", poi)
            except Exception as error:  # pragma: no cover
                failures.append(error)
            finally:
                stop.set()

        _run_threads([reader, reader, writer])
        assert not failures
        assert records, "readers never got a pass in"

        for s, t, answer in records:
            assert service.query("m", s, t) == answer

        counters = service.stats()["m"]
        assert counters["updates"] == 3 * 6  # 3 inserts + 3 deletes, x3
        assert counters["flushes"] == 0

    def test_flush_under_load_is_an_atomic_swap(self, mutable_service):
        """A flush rebuilds and atomically republishes the base
        tables; concurrent readers must only ever see the pre-flush or
        the post-flush answer for a pair — never a torn in-between,
        never an error."""
        service = mutable_service
        pairs = sample_pairs(NUM_POIS, 40, seed=23)
        before = {(s, t): service.query("m", s, t) for s, t in pairs}
        records = []
        lock = threading.Lock()
        failures = []
        stop = threading.Event()

        def reader():
            try:
                local = []
                while not stop.is_set():
                    for s, t in pairs:
                        local.append((s, t, service.query("m", s, t)))
                with lock:
                    records.extend(local)
            except Exception as error:  # pragma: no cover
                failures.append(error)

        def flusher():
            try:
                poi = service.insert_poi("m", 33.0, 44.0)
                service.delete_poi("m", poi)
                service.flush("m")
            except Exception as error:  # pragma: no cover
                failures.append(error)
            finally:
                stop.set()

        _run_threads([reader, reader, flusher])
        assert not failures
        assert records

        after = {(s, t): service.query("m", s, t) for s, t in pairs}
        for s, t, answer in records:
            assert answer in (before[(s, t)], after[(s, t)])
        assert service.stats()["m"]["flushes"] == 1

    def test_background_flush_under_reader_hammering(
            self, mutable_service):
        """A background flush runs while reader threads hammer the
        terrain: no torn reads — every answer is the pre-flush or
        post-flush serial value — one atomic generation swap, and the
        counters reconcile."""
        service = mutable_service
        pairs = sample_pairs(NUM_POIS, 40, seed=37)
        poi = service.insert_poi("m", 41.0, 52.0)
        service.delete_poi("m", poi)
        before = {(s, t): service.query("m", s, t) for s, t in pairs}
        records = []
        lock = threading.Lock()
        failures = []
        stop = threading.Event()

        def reader():
            try:
                local = []
                while not stop.is_set():
                    for s, t in pairs:
                        local.append((s, t, service.query("m", s, t)))
                with lock:
                    records.extend(local)
            except Exception as error:  # pragma: no cover
                failures.append(error)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in readers:
            thread.start()
        flusher = service.flush_background("m")
        flusher.join()
        stop.set()
        for thread in readers:
            thread.join()

        assert not failures
        assert "error" not in flusher.flush_outcome
        assert records, "readers never got a pass in"

        after = {(s, t): service.query("m", s, t) for s, t in pairs}
        for s, t, answer in records:
            assert answer in (before[(s, t)], after[(s, t)])

        counters = service.stats()["m"]
        assert counters["flushes"] == 1
        assert counters["dirty"] is False

    def test_readers_answer_while_the_build_is_parked(
            self, mutable_service, monkeypatch):
        """The background flush builds without the service lock: with
        its build parked in the engine constructor, a reader's query
        still completes, with the pre-flush answer."""
        service = mutable_service
        poi = service.insert_poi("m", 41.0, 52.0)
        service.delete_poi("m", poi)
        expected = service.query("m", 0, 1)
        parked, release = threading.Event(), threading.Event()
        # A flush builds its engine on the current engine's graph core.
        on_core = dynamic.GeodesicEngine.on_core

        def parked_engine(*args, **kwargs):
            parked.set()
            release.wait(timeout=10.0)
            return on_core(*args, **kwargs)

        monkeypatch.setattr(dynamic.GeodesicEngine, "on_core", parked_engine)
        flusher = service.flush_background("m")
        try:
            assert parked.wait(timeout=10.0), "the flush build never ran"
            answers = []
            reader = threading.Thread(
                target=lambda: answers.append(service.query("m", 0, 1)),
                daemon=True)
            reader.start()
            reader.join(timeout=10.0)
            assert answers == [expected], \
                "reader blocked behind the flush build"
        finally:
            release.set()
            flusher.join(timeout=60.0)
        assert not flusher.is_alive()
        assert "error" not in flusher.flush_outcome
        counters = service.stats()["m"]
        assert counters["flushes"] == 1
        assert counters["dirty"] is False

    def test_failed_background_build_leaves_the_terrain_dirty(
            self, mutable_service, monkeypatch):
        """A build that raises is recorded on ``flush_outcome`` and
        never installed: the terrain keeps its pre-flush answers,
        stays dirty, takes updates again, and a later flush lands."""
        service = mutable_service
        poi = service.insert_poi("m", 41.0, 52.0)
        service.delete_poi("m", poi)
        expected = service.query("m", 0, 1)
        failure = RuntimeError("engine build failed")
        on_core = dynamic.GeodesicEngine.__dict__["on_core"]

        def failing_engine(*args, **kwargs):
            raise failure

        monkeypatch.setattr(dynamic.GeodesicEngine, "on_core",
                            failing_engine)
        flusher = service.flush_background("m")
        flusher.join(timeout=60.0)
        assert not flusher.is_alive()
        assert flusher.flush_outcome.get("error") is failure
        assert service.query("m", 0, 1) == expected
        counters = service.stats()["m"]
        assert counters["flushes"] == 0
        assert counters["dirty"] is True

        monkeypatch.setattr(dynamic.GeodesicEngine, "on_core", on_core)
        service.insert_poi("m", 10.0, 10.0)
        service.flush("m")
        counters = service.stats()["m"]
        assert counters["flushes"] == 1
        assert counters["dirty"] is False

    def test_updates_refused_while_background_flush_in_flight(
            self, mutable_service):
        """The mid-flight guard: while a background flush owns the
        terrain, updates and competing flushes are refused instead of
        silently invalidating the in-progress rebuild."""
        service = mutable_service
        registration = service._mutable("m")
        registration.flushing = True  # deterministic in-flight state
        try:
            with pytest.raises(RuntimeError, match="in\\s*flight"):
                service.insert_poi("m", 10.0, 10.0)
            with pytest.raises(RuntimeError, match="in\\s*flight"):
                service.delete_poi("m", 0)
            with pytest.raises(RuntimeError, match="in\\s*flight"):
                service.flush("m")
            with pytest.raises(RuntimeError, match="in\\s*flight"):
                service.flush_background("m")
        finally:
            registration.flushing = False
        # Queries were never blocked, and the terrain still works.
        assert service.query("m", 0, 1) > 0
        assert service.insert_poi("m", 10.0, 10.0) == NUM_POIS

    def test_idle_background_flush_is_a_noop(self, mutable_service):
        """No pending updates and a clean store: the background flush
        publishes nothing and flips no counters."""
        service = mutable_service
        thread = service.flush_background("m")
        thread.join()
        assert "error" not in thread.flush_outcome
        counters = service.stats()["m"]
        assert counters["flushes"] == 0

    def test_server_batcher_interleaves_with_direct_updates(
            self, mutable_service):
        """Async/thread interleaving: the server's event loop coalesces
        wire queries into batched probes while this thread mutates the
        same terrain through the service directly."""
        service = mutable_service
        stable_pairs = sample_pairs(NUM_POIS, 120, seed=31)
        reference = {
            (s, t): service.query("m", s, t) for s, t in stable_pairs
        }

        with ThreadedServer(service, max_batch=16) as server:
            failures = []

            def wire_reader():
                try:
                    with OracleClient(server.host, server.port) as c:
                        for s, t in stable_pairs:
                            assert (c.query("m", s, t)
                                    == reference[(s, t)])
                except Exception as error:  # pragma: no cover
                    failures.append(error)

            def direct_writer():
                try:
                    for k in range(4):
                        poi = service.insert_poi("m", 25.0 + 6 * k,
                                                 40.0 + 4 * k)
                        service.delete_poi("m", poi)
                except Exception as error:  # pragma: no cover
                    failures.append(error)

            _run_threads([wire_reader, wire_reader, direct_writer])
            assert not failures

        # Flush after the recorded phase (a rebuild may shift the
        # approximation by ulps, which is exercised separately above).
        service.flush("m")
        counters = service.stats()["m"]
        assert counters["server_batched_queries"] == 2 * len(stable_pairs)
        assert counters["updates"] == 8
        assert counters["flushes"] == 1
