"""Tiled terrain sharding: per-tile oracles, stitching, paging, API.

Five concerns, one axis each:

1. **Correctness of stitching** — a ``--tiles N`` oracle must stay
   within the monolithic oracle's ``(1 + eps)`` guarantee against
   :func:`~repro.geodesic.dijkstra.dijkstra_reference`, including POIs
   placed exactly on tile-boundary vertices and terrains whose tiles
   are disconnected (empty portal set => ``inf``).
2. **Determinism of the shard layout** — a single-tile build is
   bit-identical to the untiled oracle, packing round-trips
   bit-identically, paging with ``max_resident_tiles=1`` answers
   bit-identically to an all-resident oracle (with a reconciling
   load/eviction ledger), and a checked-in store packed before tiles
   carried POI×portal blocks answers bit-identically to a fresh one.
3. **The redesigned registration API** — one ``register(terrain_id,
   TerrainSpec(...))`` entry point that warns on nothing; spec
   validation and pin semantics.
4. **Uniform proximity routing** — knn/range/rnn take any
   :class:`~repro.core.index.DistanceIndex` with no per-family
   arguments; a tiled oracle and a mutable overlay answer through the
   same signature.
5. **One store reader** — every read of an open tiled store goes
   through the descriptor it opened, so an ``os.replace`` mid-serve
   cannot tear it, and DEFLATED members load as copies.
"""

import os
import pathlib
import threading
import warnings
import zipfile

import numpy as np
import pytest

from repro.core import (
    DynamicSEOracle,
    SEOracle,
    TiledOracle,
    build_tiled_oracle,
    open_oracle,
    pack_tiled,
    plan_tiles,
)
from repro.geodesic import GeodesicEngine, dijkstra_reference
from repro.queries import (
    k_nearest_neighbors,
    range_query,
    reverse_nearest_neighbors,
)
from repro.serving import OracleService, TerrainSpec
from repro.serving.loadgen import sample_pairs
from repro.terrain import (
    TriangleMesh,
    make_terrain,
    pois_from_vertices,
    sample_uniform,
)

NUM_POIS = 12
EPSILON = 0.3


def _workload(seed=5):
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=seed)
    pois = sample_uniform(mesh, NUM_POIS, seed=seed + 1)
    return mesh, pois


def _all_pairs(count):
    sources, targets = np.meshgrid(np.arange(count), np.arange(count),
                                   indexing="ij")
    return sources.reshape(-1), targets.reshape(-1)


def _exact_distances(mesh, pois, source):
    """Ground truth from the reference kernel, POI id -> distance."""
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    nodes = [engine.poi_node(poi) for poi in range(engine.num_pois)]
    result = dijkstra_reference(engine.graph.csr.to_lists(), nodes[source],
                                targets=nodes)
    return {poi: result.distances[node]
            for poi, node in enumerate(nodes)
            if node in result.distances}


@pytest.fixture(scope="module")
def tiled4():
    mesh, pois = _workload()
    build = build_tiled_oracle(mesh, pois, EPSILON, tiles=4, seed=0)
    return mesh, pois, build


@pytest.fixture(scope="module")
def tiled_store(tiled4, tmp_path_factory):
    _, _, build = tiled4
    path = tmp_path_factory.mktemp("tiled") / "t.store"
    pack_tiled(build, path)
    return path


@pytest.fixture(scope="module")
def mono_store(tmp_path_factory):
    from repro.core import pack_oracle
    mesh, pois = _workload()
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    oracle = SEOracle(engine, EPSILON, seed=0).build()
    path = tmp_path_factory.mktemp("mono") / "m.store"
    pack_oracle(oracle, path)
    return path


class TestApproximation:
    def test_within_epsilon_of_reference(self, tiled4):
        mesh, pois, build = tiled4
        oracle = build.oracle()
        assert oracle.num_tiles == 4
        for source in range(len(pois)):
            exact = _exact_distances(mesh, pois, source)
            for target in range(len(pois)):
                approx = oracle.query(source, target)
                if source == target:
                    assert approx == 0.0
                    continue
                true = exact.get(target, float("inf"))
                if not np.isfinite(true):
                    assert not np.isfinite(approx)
                    continue
                assert abs(approx - true) <= EPSILON * true * (1 + 1e-6), (
                    f"d({source},{target}) = {approx} vs exact {true}")

    def test_plan_covers_every_face(self):
        mesh, _ = _workload()
        face_tile = plan_tiles(mesh, 4)
        assert face_tile.shape == (mesh.num_faces,)
        assert sorted(set(int(t) for t in face_tile)) == [0, 1, 2, 3]


class TestDeterminism:
    def test_single_tile_bit_identical_to_monolithic(self):
        mesh, pois = _workload()
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        mono = SEOracle(engine, EPSILON, seed=0).build().compiled()
        build = build_tiled_oracle(mesh, pois, EPSILON, tiles=1, seed=0)
        tiled = build.oracle()
        sources, targets = _all_pairs(len(pois))
        expected = mono.query_batch(sources, targets)
        assert (tiled.query_batch(sources, targets) == expected).all()

    def test_pack_open_bit_identical(self, tiled4, tiled_store):
        _, pois, build = tiled4
        memory = build.oracle()
        stored = open_oracle(tiled_store)
        assert isinstance(stored, TiledOracle)
        assert stored.num_tiles == memory.num_tiles
        assert stored.num_portals == memory.num_portals
        sources, targets = _all_pairs(len(pois))
        assert (stored.query_batch(sources, targets)
                == memory.query_batch(sources, targets)).all()

    def test_parallel_build_bit_identical(self):
        mesh, pois = _workload()
        serial = build_tiled_oracle(mesh, pois, EPSILON, tiles=4,
                                    seed=0, jobs=1)
        fanned = build_tiled_oracle(mesh, pois, EPSILON, tiles=4,
                                    seed=0, jobs=2)
        assert (serial.boundary == fanned.boundary).all()
        for tile, tile_sections in enumerate(serial.sections):
            for name, expected in tile_sections.items():
                assert (np.asarray(expected) == np.asarray(
                    fanned.sections[tile][name])).all(), (tile, name)


class TestBoundaryMatrix:
    @pytest.mark.parametrize("tiles", [2, 4])
    def test_matches_reference_rows(self, tiles):
        """Each upper-triangle entry comes from the lower-index
        portal's own search, mirrored below the diagonal."""
        from repro.core.tiled import _boundary_matrix, _find_portals
        mesh, pois = _workload()
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        portals = [portal.node for portal in _find_portals(
            mesh, engine.graph, plan_tiles(mesh, tiles))]
        count = len(portals)
        assert count > 1
        adjacency = engine.graph.csr.to_lists()
        expected = np.zeros((count, count), dtype=np.float64)
        for row in range(count):
            found = dijkstra_reference(adjacency, portals[row]).distances
            for col in range(row + 1, count):
                distance = found.get(portals[col], np.inf)
                expected[row, col] = expected[col, row] = distance
        matrix = _boundary_matrix(engine, portals)
        assert matrix.dtype == expected.dtype
        assert matrix.tobytes() == expected.tobytes()


class TestBoundaryVertexPOI:
    def test_poi_exactly_on_cut_vertex(self):
        """A POI placed on a tile-boundary vertex coincides with a
        portal; the owning tile must keep answering for it (the portal
        id aliases the owned POI) and stitched distances stay within
        the epsilon envelope."""
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=11)
        face_tile = plan_tiles(mesh, 4)
        cut_vertices = [
            vertex for vertex in range(mesh.num_vertices)
            if len({int(face_tile[f])
                    for f in mesh.vertex_faces[vertex]}) >= 2]
        assert cut_vertices, "expected shared vertices between tiles"
        interior = [vertex for vertex in range(mesh.num_vertices)
                    if vertex not in set(cut_vertices)]
        chosen = cut_vertices[:3] + interior[:5]
        pois = pois_from_vertices(mesh, chosen)
        build = build_tiled_oracle(mesh, pois, EPSILON, tiles=4, seed=0)
        oracle = build.oracle()
        for source in range(len(pois)):
            exact = _exact_distances(mesh, pois, source)
            for target in range(len(pois)):
                approx = oracle.query(source, target)
                if source == target:
                    assert approx == 0.0
                    continue
                true = exact[target]
                assert abs(approx - true) <= EPSILON * true * (1 + 1e-6)


class TestDisconnectedTiles:
    @pytest.fixture(scope="class")
    def split_world(self):
        """Two far-apart squares: the bisection planner puts each
        component in its own tile and no vertex or edge spans both, so
        the portal set is empty."""
        square = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        vertices = np.vstack([square, square + [100.0, 0.0, 0.0]])
        faces = np.array([[0, 1, 2], [1, 3, 2],
                          [4, 5, 6], [5, 7, 6]])
        mesh = TriangleMesh(vertices, faces)
        pois = pois_from_vertices(mesh, [0, 3, 4, 7])
        build = build_tiled_oracle(mesh, pois, EPSILON, tiles=2, seed=0)
        return mesh, pois, build

    def test_empty_portal_set(self, split_world):
        _, _, build = split_world
        assert build.oracle().num_portals == 0

    def test_cross_tile_is_inf_intra_is_finite(self, split_world):
        _, _, build = split_world
        oracle = build.oracle()
        assert np.isfinite(oracle.query(0, 1))
        assert np.isfinite(oracle.query(2, 3))
        for source, target in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert oracle.query(source, target) == float("inf")
            assert oracle.query(target, source) == float("inf")

    def test_proximity_excludes_unreachable(self, split_world):
        _, _, build = split_world
        oracle = build.oracle()
        neighbors = k_nearest_neighbors(oracle, 0, 10)
        assert [poi for poi, _ in neighbors] == [1]


class TestTilePaging:
    def test_residency_one_bit_identical(self, tiled_store):
        full = open_oracle(tiled_store)
        paged = open_oracle(tiled_store, max_resident_tiles=1)
        sources, targets = _all_pairs(full.num_pois)
        expected = full.query_batch(sources, targets)
        assert (paged.query_batch(sources, targets) == expected).all()
        assert len(paged.resident_tiles()) <= 1
        counters = paged.tile_counters()
        assert counters["loads"] - counters["evictions"] == len(
            counters["resident"])
        assert full.peak_resident_bytes >= paged.peak_resident_bytes

    def test_eviction_is_observable(self, tiled_store):
        oracle = open_oracle(tiled_store, max_resident_tiles=2)
        sources, targets = _all_pairs(oracle.num_pois)
        oracle.query_batch(sources, targets)
        counters = oracle.tile_counters()
        assert counters["evictions"] > 0
        assert len(counters["resident"]) <= 2
        resident = oracle.resident_tiles()
        assert oracle.evict_tile(resident[0])
        assert not oracle.evict_tile(resident[0])

    def test_bound_must_be_positive(self, tiled_store):
        with pytest.raises(ValueError):
            open_oracle(tiled_store, max_resident_tiles=0)


class TestStoreWithoutBlocks:
    """``tests/data/tiled_v4.store`` was packed from the workload below
    before tiles carried a ``poi_portal`` block (they hold ``escape``
    radii instead).  Opening it derives each block from the tile's own
    tables, outside the tile ledger, and every answer must match a
    fresh build of the same workload packed by the current code."""

    FIXTURE = pathlib.Path(__file__).parent / "data" / "tiled_v4.store"

    @pytest.fixture(scope="class")
    def fresh_path(self, tmp_path_factory):
        mesh = make_terrain(grid_exponent=2, extent=(100.0, 100.0),
                            relief=15.0, seed=5)
        pois = sample_uniform(mesh, 6, seed=6)
        build = build_tiled_oracle(mesh, pois, EPSILON, tiles=2, seed=0)
        path = tmp_path_factory.mktemp("fresh") / "t.store"
        pack_tiled(build, path)
        return path

    @pytest.fixture(scope="class")
    def fresh(self, fresh_path):
        with open_oracle(fresh_path) as oracle:
            sources, targets = _all_pairs(oracle.num_pois)
            return (sources, targets, oracle.query_batch(sources, targets),
                    oracle.query_matrix())

    def test_fixture_predates_the_blocks(self):
        with zipfile.ZipFile(self.FIXTURE) as archive:
            names = archive.namelist()
        assert "tiles/0000/escape.npy" in names
        assert not [name for name in names if "poi_portal" in name]
        assert not [name for name in names if "nn_" in name]

    @pytest.mark.parametrize("max_resident_tiles", [1, None])
    def test_rnn_matches_a_fresh_build(self, fresh_path,
                                       max_resident_tiles):
        """The fixture derives its nearest-distance column on first
        RNN; it equals the fresh store's packed column, and RNN for
        every source equals the fresh store's and the matrix path's."""
        with open_oracle(fresh_path) as oracle:
            n = oracle.num_pois
            expected = [reverse_nearest_neighbors(oracle, source)
                        for source in range(n)]
            column = oracle.nearest_column()
        with open_oracle(self.FIXTURE,
                         max_resident_tiles=max_resident_tiles) as stored:
            assert [reverse_nearest_neighbors(stored, source)
                    for source in range(n)] == expected
            assert [reverse_nearest_neighbors(stored, source, num_pois=n)
                    for source in range(n)] == expected
            assert stored.nearest_column().tobytes() == column.tobytes()

    @pytest.mark.parametrize("mmap", [True, False])
    @pytest.mark.parametrize("max_resident_tiles", [1, None])
    def test_answers_match_a_fresh_build(self, fresh, mmap,
                                         max_resident_tiles):
        sources, targets, batch, matrix = fresh
        with open_oracle(self.FIXTURE, mmap=mmap,
                         max_resident_tiles=max_resident_tiles) as stored:
            assert stored.num_tiles == 2
            assert stored.tile_counters()["loads"] == 0
            assert (stored.query_batch(sources, targets) == batch).all()
            assert (stored.query_matrix() == matrix).all()


class TestStoreReader:
    """Every read of an open tiled store — tile loads included — goes
    through the one descriptor it opened."""

    def test_replace_mid_serve_keeps_the_opened_generation(self,
                                                           tmp_path):
        mesh, pois = _workload()
        path = tmp_path / "t.store"
        pack_tiled(build_tiled_oracle(mesh, pois, EPSILON, tiles=2,
                                      seed=0), path)
        sources, targets = _all_pairs(NUM_POIS)
        with open_oracle(path) as reference:
            expected = reference.query_batch(sources, targets)
        staged = tmp_path / "next.store"
        pack_tiled(build_tiled_oracle(mesh, pois, 0.5, tiles=3, seed=1),
                   staged)
        with open_oracle(path, max_resident_tiles=1) as stored:
            os.replace(staged, path)
            assert stored.is_stale()
            assert (stored.query_batch(sources, targets) == expected).all()
        with open_oracle(path) as replaced:
            assert (replaced.query_batch(sources, targets) != expected).any()

    def test_compressed_members_load_as_copies(self, tiled_store,
                                               tmp_path):
        """As in a monolithic store, a DEFLATED member cannot be mapped
        and loads as a copy, with the zero-copy warning."""
        squeezed = tmp_path / "squeezed.store"
        deflated = {"tiles/boundary.npy", "tiles/0000/pair_keys.npy"}
        with zipfile.ZipFile(tiled_store) as source, \
                zipfile.ZipFile(squeezed, "w") as target:
            for info in source.infolist():
                target.writestr(
                    info.filename, source.read(info.filename),
                    compress_type=(zipfile.ZIP_DEFLATED
                                   if info.filename in deflated
                                   else zipfile.ZIP_STORED))
        with open_oracle(tiled_store) as pristine:
            expected = pristine.query_matrix()
        with pytest.warns(RuntimeWarning, match="zero-copy"):
            stored = open_oracle(squeezed, max_resident_tiles=1)
        with stored:
            assert (stored.query_matrix() == expected).all()


class TestServiceTiledTerrains:
    def test_eviction_mid_batch_serial_replay(self, tiled_store):
        """8 threads drive batches through a tiled terrain whose LRU
        holds a single tile, forcing evictions inside query_batch
        dispatch; every recorded answer must match a serial replay and
        the per-tile ledger must reconcile."""
        service = OracleService()
        service.register("t", TerrainSpec(str(tiled_store),
                                          max_resident_tiles=1))
        pairs = sample_pairs(NUM_POIS, 40, seed=7)
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        records = []
        failures = []
        lock = threading.Lock()

        def worker(offset):
            try:
                rolled = sources[offset:] + sources[:offset]
                answers = service.query_batch("t", rolled, targets)
                with lock:
                    records.append((rolled, list(answers)))
            except Exception as error:  # pragma: no cover
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(records) == 8
        for rolled, answers in records:
            replay = service.query_batch("t", rolled, targets)
            assert list(replay) == answers

        stats = service.stats()["t"]
        ledger = stats["tiles"]
        assert ledger["loads"] - ledger["evictions"] == len(
            ledger["resident"])
        assert len(ledger["resident"]) <= 1
        assert stats["queries"] == 16 * len(pairs)
        meta = service.describe("t")
        assert meta["tile_paging"]["loads"] >= 1

    def test_proximity_verbs_on_tiled_terrain(self, tiled_store):
        service = OracleService()
        service.register("t", TerrainSpec(str(tiled_store)))
        oracle = open_oracle(tiled_store)
        assert (service.k_nearest("t", 0, 3)
                == k_nearest_neighbors(oracle, 0, 3))
        radius = service.query("t", 0, 1) + 1.0
        assert (service.range_query("t", 0, radius)
                == range_query(oracle, 0, radius))
        assert (service.reverse_nearest("t", 0)
                == reverse_nearest_neighbors(oracle, 0))


class TestRegistrationAPI:
    def test_spec_form_does_not_warn(self, mono_store):
        service = OracleService()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service.register("m", TerrainSpec(str(mono_store)))

    def test_spec_plus_kwarg_is_an_error(self, mono_store):
        service = OracleService()
        with pytest.raises(TypeError):
            service.register("m", TerrainSpec(str(mono_store)),
                             track_generation=True)

    def test_mutable_requires_engine(self):
        with pytest.raises(ValueError):
            TerrainSpec("x.store", mutable=True)

    def test_mutable_excludes_tracking(self):
        mesh, pois = _workload()
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        with pytest.raises(ValueError):
            TerrainSpec("x.store", mutable=True, engine=engine,
                        track_generation=True)

    def test_tiled_store_refuses_mutable(self, tiled_store):
        mesh, pois = _workload()
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        service = OracleService()
        with pytest.raises(ValueError, match="tiled"):
            service.register("t", TerrainSpec(
                str(tiled_store), mutable=True, engine=engine))

    def test_pinned_terrain_survives_lru(self, mono_store, tiled_store):
        service = OracleService(max_resident=1)
        service.register("pinned", TerrainSpec(str(mono_store),
                                               pin=True))
        service.register("t", TerrainSpec(str(tiled_store)))
        service.query("pinned", 0, 1)
        service.query("t", 0, 1)   # would evict "pinned" if unpinned
        assert "pinned" in service.resident_terrains()
        assert not service.evict("pinned")
        assert service.evict("t") or "t" not in \
            service.resident_terrains()


class TestUniformProximity:
    def test_tiled_oracle_needs_no_universe_args(self, tiled_store):
        oracle = open_oracle(tiled_store)
        explicit = k_nearest_neighbors(oracle, 2, 4,
                                       num_pois=oracle.num_pois)
        assert k_nearest_neighbors(oracle, 2, 4) == explicit
        radius = explicit[-1][1]
        assert (range_query(oracle, 2, radius)
                == range_query(oracle, 2, radius,
                               num_pois=oracle.num_pois))
        assert (reverse_nearest_neighbors(oracle, 2)
                == reverse_nearest_neighbors(oracle, 2,
                                             num_pois=oracle.num_pois))

    def test_mutable_overlay_uses_live_ids(self):
        mesh, pois = _workload(seed=23)
        oracle = DynamicSEOracle(mesh, pois, epsilon=EPSILON,
                                 rebuild_factor=10.0, seed=1).build()
        oracle.delete(3)
        oracle.delete(7)
        live = [int(poi) for poi in oracle.live_ids()]
        assert 3 not in live and 7 not in live
        assert (k_nearest_neighbors(oracle, 0, 5)
                == k_nearest_neighbors(oracle, 0, 5, candidates=live))
        assert 3 not in [poi for poi, _ in
                         k_nearest_neighbors(oracle, 0, len(live))]
        assert (reverse_nearest_neighbors(oracle, 0)
                == reverse_nearest_neighbors(oracle, 0,
                                             candidates=live))
