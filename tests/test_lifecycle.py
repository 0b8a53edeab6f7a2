"""Every opened store has an owner and a close path.

An open store holds file descriptors (a paged or tiled store its
reader's, a mapped section its map's).  The service owns the stores
it opens and must close one on every path that drops it: LRU
eviction, ``evict``, a generation refresh after ``os.replace``,
re-registration, ``unregister`` and ``OracleService.close()``.  Each of
those paths also counts one eviction, so the terrain ledger reconciles
(``loads - evictions`` is 1 while the terrain is open, else 0).
Outside the service, ``with open_oracle(...)`` closes monolithic,
paged and tiled stores alike, and closing twice is harmless; the CLI
verbs that open a store close it before they return.
"""

import gc
import os
import shutil
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    PagedOracle,
    SEOracle,
    StoredOracle,
    TiledOracle,
    build_tiled_oracle,
    open_oracle,
    pack_oracle,
    pack_tiled,
    save_oracle,
)
from repro.core.store import _directories
from repro.geodesic import GeodesicEngine
from repro.serving import OracleService, TerrainSpec
from repro.terrain import make_terrain, sample_uniform

NUM_POIS = 10
BUDGET = 4096

CASES = [
    ("a", {}, StoredOracle),
    ("a", {"max_resident_bytes": BUDGET}, PagedOracle),
    ("t", {"max_resident_tiles": 1}, TiledOracle),
]


def _engine(seed):
    mesh = make_terrain(grid_exponent=3, relief=15.0, seed=seed)
    pois = sample_uniform(mesh, NUM_POIS, seed=seed + 1)
    return GeodesicEngine(mesh, pois, points_per_edge=1)


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Two monolithic generations of one workload, a second workload,
    and a 2-tile and a 4-tile store."""
    root = tmp_path_factory.mktemp("lifecycle")
    names = ("a", "a2", "b", "t", "t4")
    paths = {name: root / f"{name}.store" for name in names}
    engine = _engine(61)
    pack_oracle(SEOracle(engine, 0.3, seed=61).build(), paths["a"])
    pack_oracle(SEOracle(engine, 0.5, seed=61).build(), paths["a2"])
    pack_oracle(SEOracle(_engine(71), 0.3, seed=71).build(), paths["b"])
    for name, tiles in (("t", 2), ("t4", 4)):
        build = build_tiled_oracle(engine.mesh, engine.pois, 0.3, tiles=tiles, seed=61)
        pack_tiled(build, paths[name])
    return paths, engine


def _grid():
    grid = np.arange(NUM_POIS)
    return np.repeat(grid, NUM_POIS), np.tile(grid, NUM_POIS)


def _reconciles(service, terrain_id):
    counters = service.counters(terrain_id)
    resident = terrain_id in service.resident_terrains()
    return counters.loads - counters.evictions == int(resident)


class TestServiceClosesPagedStores:
    @pytest.fixture()
    def setup(self, stores, tmp_path):
        paths, _ = stores
        path = tmp_path / "paged.store"
        shutil.copyfile(paths["a"], path)
        spec = TerrainSpec(path, track_generation=True, max_resident_bytes=BUDGET)
        service = OracleService(max_resident=1)
        service.register("p", spec)
        service.register("b", TerrainSpec(paths["b"]))
        paged = self._open(service)
        yield service, paged, path
        service.close()

    @staticmethod
    def _open(service):
        service.query("p", 0, 1)
        paged = service.oracle("p")
        assert isinstance(paged, PagedOracle)
        assert not paged._pool._handle.closed
        return paged

    @staticmethod
    def _assert_closed(service, paged):
        assert paged.closed
        assert paged._pool._handle.closed
        assert service.counters("p").evictions == 1
        assert _reconciles(service, "p")

    def test_lru_eviction(self, setup):
        service, paged, _ = setup
        service.query("b", 0, 1)  # max_resident=1: "p" is the victim
        self._assert_closed(service, paged)

    def test_evict(self, setup):
        service, paged, _ = setup
        assert service.evict("p")
        self._assert_closed(service, paged)

    def test_refresh_after_replace(self, setup, stores):
        service, paged, path = setup
        paths, _ = stores
        staged = path.with_suffix(".next")
        shutil.copyfile(paths["a2"], staged)
        os.replace(staged, path)
        fresh = self._open(service)
        assert fresh is not paged
        self._assert_closed(service, paged)
        counters = service.counters("p")
        assert (counters.loads, counters.refreshes) == (2, 1)

    def test_reregister(self, setup):
        service, paged, path = setup
        service.register("p", TerrainSpec(path, max_resident_bytes=BUDGET))
        self._assert_closed(service, paged)

    def test_unregister(self, setup):
        service, paged, _ = setup
        counters = service.counters("p")
        service.unregister("p")
        assert paged._pool._handle.closed
        assert counters.loads == counters.evictions == 1

    def test_service_close(self, setup):
        service, paged, _ = setup
        service.close()
        self._assert_closed(service, paged)
        service.close()  # idempotent
        assert service.counters("p").evictions == 1
        service.query("p", 0, 1)  # registrations survive: re-opens
        assert _reconciles(service, "p")


class TestOpenOracleClose:
    @pytest.mark.parametrize("name, kwargs, kind", CASES)
    def test_with_closes_and_second_close_is_harmless(self, stores, name, kwargs, kind):
        paths, _ = stores
        sources, targets = _grid()
        with open_oracle(paths[name], **kwargs) as stored:
            assert isinstance(stored, kind)
            assert stored.query_batch(sources, targets).shape == sources.shape
            # A tiled store drops its routing maps at close().
            owner = np.array(getattr(stored, "_owner", np.arange(NUM_POIS)))
        assert stored.closed
        if kind is PagedOracle:
            assert stored._pool._handle.closed
        with pytest.raises(ValueError, match="closed"):
            stored.query_batch(sources, targets)
        # One pair on two different tiles (any pair elsewhere): a
        # cross-tile stitch loads no tile table, yet must refuse too.
        target = int(np.flatnonzero(owner != owner[0])[0])
        with pytest.raises(ValueError, match="closed"):
            stored.query_batch([0], [target])
        stored.close()
        assert stored.closed

    def test_fingerprint_mismatch_closes_what_it_opened(self, stores):
        paths, engine = stores
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="different workload"):
                open_oracle(paths["b"], engine=engine, max_resident_bytes=BUDGET)
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_descriptor_ledger_returns_to_baseline(stores):
    """Each store releases its descriptors at close() (or when it is
    collected): after the service closes, with no gc.collect(), every
    descriptor taken by 90 LRU opens of monolithic, paged and tiled
    terrains is back."""
    paths, _ = stores
    before = len(os.listdir("/proc/self/fd"))
    service = OracleService(max_resident=1)
    service.register("m", TerrainSpec(paths["a"]))
    service.register("p", TerrainSpec(paths["a2"], max_resident_bytes=BUDGET))
    service.register("t", TerrainSpec(paths["t"], max_resident_tiles=1))
    for _ in range(30):
        for terrain_id in ("m", "p", "t"):
            service.k_nearest(terrain_id, 0, 3)
    assert service.counters("t").loads == 30
    service.close()
    assert len(os.listdir("/proc/self/fd")) == before


def _descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_remembered_reopens_return_every_descriptor(stores):
    """The directory memo holds no descriptor, file object or map:
    after 20 rounds of opens of several monolithic, paged and tiled
    stores, nearly all answered from the memo, every descriptor is
    back."""
    paths, _ = stores
    opens = [(name, kwargs) for name, kwargs, _ in CASES]
    opens += [("a2", {}), ("b", {}), ("t4", {"max_resident_tiles": 1})]
    before = _descriptors()
    hits = _directories.hits
    for _ in range(20):
        for name, kwargs in opens:
            with open_oracle(paths[name], **kwargs) as stored:
                stored.query_batch(*_grid())
    assert _directories.hits >= hits + 19 * len(opens)
    assert _descriptors() == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestDescriptorsPerStore:
    """A store is mapped once, not once per section: an open mmap'd
    monolithic store holds one descriptor (its map's), and a tiled
    store its reader's, one for the routing map and one per resident
    tile."""

    def test_monolithic_store_holds_one_descriptor(self, stores):
        paths, _ = stores
        before = _descriptors()
        with open_oracle(paths["a"]) as stored:
            sources, targets = _grid()
            stored.query_batch(sources, targets)
            assert _descriptors() == before + 1
        assert _descriptors() == before

    def test_tiled_store_holds_reader_routing_and_resident_tiles(self, stores):
        paths, _ = stores
        before = _descriptors()
        with open_oracle(paths["t4"], max_resident_tiles=2) as stored:
            sources, targets = _grid()
            stored.query_batch(sources, targets)
            counters = stored.tile_counters()
            assert counters["evictions"] > 0  # more tiles loaded than fit
            assert len(counters["resident"]) == 2
            assert _descriptors() <= before + 1 + 1 + 2
        assert _descriptors() == before

    def test_closed_tiled_store_drops_its_maps(self, stores):
        """close() releases every map even while the handle is still
        referenced, and the nearest-distance column goes with them."""
        paths, _ = stores
        before = _descriptors()
        stored = open_oracle(paths["t4"], max_resident_tiles=2)
        sources, targets = _grid()
        stored.query_batch(sources, targets)
        assert stored.nearest_column().shape == (NUM_POIS,)
        stored.close()
        assert _descriptors() == before
        with pytest.raises(ValueError, match="closed"):
            stored.nearest_column()


def _pack_argv(paths, engine, tmp_path):
    document = tmp_path / "a.json"
    save_oracle(SEOracle(engine, 0.3, seed=61).build(), document)
    return ["pack", str(document), "--out", str(tmp_path / "packed.store")]


def _workload_gen_argv(paths, engine, tmp_path):
    store, out = str(paths["a"]), str(tmp_path / "alerts.jsonl")
    return ["workload", "gen", "range-alerts", "--store", store, "--out", out]


class TestCliClosesWhatItOpens:
    @pytest.mark.parametrize(
        "argv_of", [_pack_argv, _workload_gen_argv], ids=["pack", "workload-gen"]
    )
    def test_verb_closes_its_store(self, stores, tmp_path, monkeypatch, argv_of):
        paths, engine = stores
        argv = argv_of(paths, engine, tmp_path)
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open_oracle(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr("repro.core.open_oracle", recording_open)
        monkeypatch.setattr("repro.core.store.open_oracle", recording_open)
        assert main(argv) == 0
        assert len(opened) == 1
        assert opened[0].closed
