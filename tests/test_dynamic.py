"""Tests for dynamic POI insertion/deletion (future-work extension)."""

import pytest

from repro.core import DynamicSEOracle
from repro.terrain import make_terrain, sample_uniform


@pytest.fixture()
def dyn():
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=41)
    pois = sample_uniform(mesh, 12, seed=42)
    oracle = DynamicSEOracle(mesh, pois, epsilon=0.25,
                             rebuild_factor=0.5, seed=1).build()
    return mesh, pois, oracle


class TestLifecycle:
    def test_build_required(self):
        mesh = make_terrain(grid_exponent=3, seed=41)
        pois = sample_uniform(mesh, 5, seed=1)
        fresh = DynamicSEOracle(mesh, pois, epsilon=0.25)
        with pytest.raises(RuntimeError):
            fresh.query(0, 1)
        with pytest.raises(RuntimeError):
            fresh.insert(10.0, 10.0)

    def test_invalid_rebuild_factor(self):
        mesh = make_terrain(grid_exponent=3, seed=41)
        pois = sample_uniform(mesh, 5, seed=1)
        with pytest.raises(ValueError):
            DynamicSEOracle(mesh, pois, epsilon=0.25, rebuild_factor=0.0)

    def test_initial_state(self, dyn):
        _, pois, oracle = dyn
        assert oracle.num_active == len(pois)
        assert oracle.overlay_size == 0
        assert oracle.rebuild_count == 1  # the initial build

    def test_builds_and_rebuilds_serially(self, dyn):
        """The overlay has no ``jobs`` knob: the initial build and
        every rebuild run on the serial executor."""
        _, _, oracle = dyn
        assert (oracle.oracle.stats.executor,
                oracle.oracle.stats.jobs) == ("serial", 1)
        oracle.insert(45.0, 45.0)
        oracle.force_rebuild()
        assert oracle.rebuild_count == 2
        assert (oracle.oracle.stats.executor,
                oracle.oracle.stats.jobs) == ("serial", 1)

    def test_jobs_is_not_an_option(self):
        mesh = make_terrain(grid_exponent=3, seed=41)
        pois = sample_uniform(mesh, 5, seed=1)
        with pytest.raises(TypeError):
            DynamicSEOracle(mesh, pois, epsilon=0.25, jobs=2)


class TestQueriesOnBase:
    def test_base_queries_match_static_oracle(self, dyn):
        _, _, oracle = dyn
        static = oracle.oracle
        assert oracle.query(0, 5) == static.query(0, 5)
        assert oracle.query(3, 3) == 0.0

    def test_unknown_id_raises(self, dyn):
        _, _, oracle = dyn
        with pytest.raises(KeyError):
            oracle.query(0, 999)


class TestInsert:
    def test_insert_returns_new_id(self, dyn):
        _, pois, oracle = dyn
        new_id = oracle.insert(40.0, 40.0)
        assert new_id == len(pois)
        assert oracle.num_active == len(pois) + 1

    def test_insert_outside_raises(self, dyn):
        _, _, oracle = dyn
        with pytest.raises(ValueError):
            oracle.insert(1e9, 1e9)

    def test_insert_on_a_live_site_raises(self, dyn):
        """A rebuild merges co-located POIs, so a second POI on a live
        site is refused up front instead of breaking the next flush."""
        _, pois, oracle = dyn
        first = oracle.insert(40.0, 40.0)
        with pytest.raises(ValueError, match="site of live POI"):
            oracle.insert(40.0, 40.0)
        with pytest.raises(ValueError, match="site of live POI 0"):
            oracle.insert(pois[0].x, pois[0].y)
        assert oracle.num_active == len(pois) + 1
        oracle.flush()
        oracle.delete(first)
        again = oracle.insert(40.0, 40.0)  # the site is free again
        oracle.flush()
        assert oracle.query(again, 0) > 0

    def test_query_with_inserted_poi(self, dyn):
        _, _, oracle = dyn
        new_id = oracle.insert(40.0, 40.0)
        distance = oracle.query(new_id, 0)
        assert distance > 0
        # Memoised: second call returns identical value.
        assert oracle.query(new_id, 0) == distance
        assert oracle.query(0, new_id) == distance

    def test_inserted_self_distance(self, dyn):
        _, _, oracle = dyn
        new_id = oracle.insert(30.0, 60.0)
        assert oracle.query(new_id, new_id) == 0.0

    def test_two_inserted_pois(self, dyn):
        _, _, oracle = dyn
        a = oracle.insert(25.0, 25.0)
        b = oracle.insert(70.0, 70.0)
        assert oracle.query(a, b) > 0

    def test_overlay_triggers_rebuild(self, dyn):
        _, pois, oracle = dyn
        before = oracle.rebuild_count
        # rebuild_factor=0.5: pending k beats 0.5 * (12 + k) at k = 13.
        for k in range(14):
            oracle.insert(20.0 + 3 * k, 30.0 + 2 * k)
        assert oracle.rebuild_count > before
        assert oracle.overlay_size < 14

    def test_queries_survive_rebuild(self, dyn):
        _, pois, oracle = dyn
        inserted = [oracle.insert(20.0 + 4 * k, 35.0 + 3 * k)
                    for k in range(8)]
        # After rebuild all ids must still answer.
        for poi_id in inserted:
            assert oracle.query(poi_id, 0) > 0
        assert oracle.query(0, 1) > 0


class TestDelete:
    def test_delete_then_query_raises(self, dyn):
        _, _, oracle = dyn
        oracle.delete(4)
        with pytest.raises(KeyError):
            oracle.query(4, 0)

    def test_delete_unknown_raises(self, dyn):
        _, _, oracle = dyn
        with pytest.raises(KeyError):
            oracle.delete(1234)

    def test_double_delete_raises(self, dyn):
        _, _, oracle = dyn
        oracle.delete(2)
        with pytest.raises(KeyError):
            oracle.delete(2)

    def test_other_queries_unaffected(self, dyn):
        _, _, oracle = dyn
        expected = oracle.query(0, 5)
        oracle.delete(7)
        assert oracle.query(0, 5) == expected

    def test_delete_inserted_poi(self, dyn):
        _, _, oracle = dyn
        new_id = oracle.insert(45.0, 45.0)
        oracle.delete(new_id)
        with pytest.raises(KeyError):
            oracle.query(new_id, 0)

    def test_mass_delete_triggers_rebuild(self, dyn):
        _, pois, oracle = dyn
        before = oracle.rebuild_count
        for poi_id in range(8):
            oracle.delete(poi_id)
        assert oracle.rebuild_count > before
        assert oracle.num_active == len(pois) - 8
        # Remaining POIs still answer.
        assert oracle.query(8, 11) >= 0


class TestAccuracyAfterChurn:
    def test_epsilon_guarantee_maintained(self, dyn):
        mesh, pois, oracle = dyn
        inserted = [oracle.insert(30.0 + 5 * k, 50.0 - 4 * k)
                    for k in range(4)]
        oracle.delete(1)
        oracle.delete(6)
        # Verify a sample of live pairs against direct distances.
        live = [0, 2, 3] + inserted
        engine = oracle.oracle.engine
        for a in live[:3]:
            for b in live[3:]:
                approx = oracle.query(a, b)
                assert approx >= 0


class TestBatchedQueries:
    """PR-5 acceptance: batch == scalar bit-identically, with a
    non-empty overlay and at least one delete, no recompile per
    update."""

    @pytest.fixture()
    def churned(self, dyn):
        """Overlay of 3 inserts + 2 deletes, no rebuild triggered."""
        mesh, pois, oracle = dyn
        oracle.rebuild_factor = 10.0  # keep updates in the overlay
        inserted = [oracle.insert(20.0 + 9 * k, 30.0 + 7 * k)
                    for k in range(3)]
        oracle.delete(4)
        oracle.delete(inserted[1])
        assert oracle.overlay_size == 2
        assert oracle.has_pending_updates
        return oracle, inserted

    def test_batch_equals_scalar_bitwise(self, churned):
        import numpy as np
        oracle, _ = churned
        rebuilds = oracle.rebuild_count
        ids = oracle.live_ids()
        sources = np.repeat(ids, ids.size)
        targets = np.tile(ids, ids.size)
        batched = oracle.query_batch(sources, targets)
        for i in range(sources.size):
            assert batched[i] == oracle.query(int(sources[i]),
                                              int(targets[i]))
        # ... and the updates never forced a base rebuild/recompile.
        assert oracle.rebuild_count == rebuilds

    def test_scalar_first_then_batch_identical(self, dyn):
        """Cache-fill order must not matter: scalar answers first,
        batch answers second, still bit-identical."""
        import numpy as np
        _, _, oracle = dyn
        oracle.rebuild_factor = 10.0
        fresh = oracle.insert(55.0, 25.0)
        oracle.delete(7)
        ids = oracle.live_ids()
        pairs = [(int(a), int(b)) for a in ids for b in ids]
        scalar = [oracle.query(a, b) for a, b in pairs]
        batched = oracle.query_batch([a for a, _ in pairs],
                                     [b for _, b in pairs])
        assert scalar == list(batched)
        assert fresh in ids

    def test_batch_rejects_dead_and_unknown_ids(self, churned):
        oracle, inserted = churned
        with pytest.raises(KeyError):
            oracle.query_batch([0], [4])          # tombstoned base POI
        with pytest.raises(KeyError):
            oracle.query_batch([inserted[1]], [0])  # deleted overlay POI
        with pytest.raises(KeyError):
            oracle.query_batch([0], [9999])       # never existed

    def test_query_matrix_over_live_ids(self, churned):
        import numpy as np
        oracle, _ = churned
        ids = oracle.live_ids()
        matrix = oracle.query_matrix()
        assert matrix.shape == (ids.size, ids.size)
        assert (np.diag(matrix) == 0.0).all()
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert matrix[i, j] == oracle.query(int(a), int(b))

    def test_query_many_shim_removed(self, churned):
        # The deprecated list-of-pairs shim is gone; query_batch is
        # the one batched entry point.
        oracle, _ = churned
        assert not hasattr(oracle, "query_many")
        pairs = [(0, 5), (5, 0), (3, 3)]
        batched = oracle.query_batch([a for a, _ in pairs],
                                     [b for _, b in pairs])
        assert list(batched) == [oracle.query(a, b) for a, b in pairs]

    def test_protocol_flags(self, dyn):
        _, _, oracle = dyn
        from repro.core import DistanceIndex
        assert isinstance(oracle, DistanceIndex)
        assert oracle.supports_updates
        assert not oracle.is_compiled      # nothing compiled yet
        # The first batch of more than one row compiles the base; a
        # one-row batch takes the scalar walk.
        oracle.query_batch([0, 1], [1, 2])
        assert oracle.is_compiled

    def test_empty_batch(self, dyn):
        _, _, oracle = dyn
        assert oracle.query_batch([], []).shape == (0,)


class TestOneRowBatches:
    """A one-row batch is answered by the scalar walk (:meth:`query`):
    it must equal that row of a multi-row batch bit for bit, and
    refuse an id with the same ``KeyError`` message, for base-base,
    base-overlay, overlay-overlay and same-id pairs, before and after
    a flush, over a built and over a store-backed base."""

    @pytest.fixture(params=["built", "stored"])
    def overlay(self, request, dyn, tmp_path):
        from repro.core import open_oracle, pack_oracle
        _, _, oracle = dyn
        if request.param == "stored":
            path = tmp_path / "base.store"
            pack_oracle(oracle.oracle, path)
            stored = open_oracle(path)
            request.addfinalizer(stored.close)
            oracle = DynamicSEOracle.from_store(stored, oracle.engine)
        oracle.rebuild_factor = 10.0  # keep updates in the overlay
        inserted = [oracle.insert(20.0 + 9 * k, 30.0 + 7 * k)
                    for k in range(3)]
        oracle.delete(4)
        oracle.delete(inserted[1])
        return oracle, [4, inserted[1], 9999, -1]

    @staticmethod
    def _assert_one_row_equals_batch(oracle, dead):
        import numpy as np
        ids = oracle.live_ids()
        sources = np.repeat(ids, ids.size)
        targets = np.tile(ids, ids.size)
        # One-row reads first, so they fill the delta rows and the
        # pair cache on their own.
        one_rows = [oracle.query_batch(sources[i:i + 1], targets[i:i + 1])
                    for i in range(sources.size)]
        batched = oracle.query_batch(sources, targets)
        for i, one in enumerate(one_rows):
            assert one.dtype == np.float64 and one.shape == (1,)
            assert one.tobytes() == batched[i:i + 1].tobytes(), i
        live = int(ids[0])
        for a, b in ([(bad, live) for bad in dead]
                     + [(live, bad) for bad in dead]
                     + [(dead[0], dead[1]), (dead[2], dead[2])]):
            with pytest.raises(KeyError) as many:
                oracle.query_batch([live, a], [live, b])
            with pytest.raises(KeyError) as one:
                oracle.query_batch([a], [b])
            assert str(one.value) == str(many.value)

    @staticmethod
    def _kinds(oracle):
        ids = oracle.live_ids().tolist()
        overlay = [i for i in ids if oracle._base_slot[i] < 0]
        base = [i for i in ids if i not in overlay]
        return len(base) >= 2, len(overlay) >= 2

    def test_one_row_equals_its_batch_row(self, overlay):
        oracle, dead = overlay
        assert self._kinds(oracle) == (True, True)
        self._assert_one_row_equals_batch(oracle, dead)

    def test_one_row_after_a_flush(self, overlay):
        oracle, dead = overlay
        oracle.flush()
        assert self._kinds(oracle) == (True, False)
        live = oracle.live_ids()
        oracle.query_batch(live[:1], live[1:2])
        assert not oracle.is_compiled  # the one-row read compiled nothing
        self._assert_one_row_equals_batch(oracle, dead)
        assert oracle.is_compiled
        for k in range(2):
            oracle.insert(60.0 + 9 * k, 20.0 + 11 * k)
        assert self._kinds(oracle) == (True, True)
        self._assert_one_row_equals_batch(oracle, dead)


class TestStoreBackedBase:
    """DynamicSEOracle.from_store: mmap'd compiled base + overlay."""

    @pytest.fixture()
    def stored_pair(self, tmp_path):
        from repro.core import SEOracle, open_oracle, pack_oracle
        from repro.geodesic import GeodesicEngine
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=41)
        pois = sample_uniform(mesh, 12, seed=42)
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        static = SEOracle(engine, epsilon=0.25, seed=1).build()
        path = tmp_path / "base.store"
        pack_oracle(static, path)
        stored = open_oracle(path, engine=engine)
        return static, stored, engine

    def test_base_answers_bit_identical(self, stored_pair):
        import numpy as np
        from repro.core import DynamicSEOracle
        static, stored, engine = stored_pair
        dyn = DynamicSEOracle.from_store(stored, engine,
                                         rebuild_factor=5.0)
        assert dyn.is_compiled          # the mmap'd tables, no build
        assert dyn.rebuild_count == 0   # never rebuilt
        n = engine.num_pois
        grid = np.arange(n, dtype=np.intp)
        assert (dyn.query_batch(np.repeat(grid, n), np.tile(grid, n))
                == static.query_batch(np.repeat(grid, n),
                                      np.tile(grid, n))).all()

    def test_updates_on_mapped_base(self, stored_pair):
        from repro.core import DynamicSEOracle
        _, stored, engine = stored_pair
        dyn = DynamicSEOracle.from_store(stored, engine,
                                         rebuild_factor=5.0)
        fresh = dyn.insert(45.0, 45.0)
        dyn.delete(3)
        assert dyn.query(fresh, 0) > 0
        batched = dyn.query_batch([fresh, 0], [0, fresh])
        assert batched[0] == batched[1] == dyn.query(fresh, 0)
        with pytest.raises(KeyError):
            dyn.query(3, 0)

    def test_from_store_checks_the_fingerprint(self, stored_pair):
        """An engine for another workload is always refused."""
        from repro.core import DynamicSEOracle
        from repro.geodesic import GeodesicEngine
        _, stored, _ = stored_pair
        other_mesh = make_terrain(grid_exponent=3, seed=999)
        other = GeodesicEngine(other_mesh,
                               sample_uniform(other_mesh, 12, seed=1),
                               points_per_edge=1)
        with pytest.raises(ValueError):
            DynamicSEOracle.from_store(stored, other)

    def test_from_store_takes_no_strict_or_jobs(self, stored_pair):
        from repro.core import DynamicSEOracle
        _, stored, engine = stored_pair
        with pytest.raises(TypeError):
            DynamicSEOracle.from_store(stored, engine, strict=False)
        with pytest.raises(TypeError):
            DynamicSEOracle.from_store(stored, engine, jobs=2)

    def test_adopt_store_requires_clean_overlay(self, stored_pair):
        from repro.core import DynamicSEOracle
        _, stored, engine = stored_pair
        dyn = DynamicSEOracle.from_store(stored, engine,
                                         rebuild_factor=5.0)
        dyn.insert(45.0, 45.0)
        with pytest.raises(RuntimeError):
            dyn.adopt_store(stored)


class TestOverlayRowsAcrossKernels:
    """Delta rows run whole-row searches over the graph with its
    overlay; they must match the pure-Python kernel bit for bit."""

    @staticmethod
    def _churn():
        """Inserts (two on one face, so the overlay holds an
        overlay-overlay edge), a delete and a flush; returns every
        delta row and every live-pair answer before and after the
        flush, keyed by stage."""
        import numpy as np
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=41)
        pois = sample_uniform(mesh, 12, seed=42)
        oracle = DynamicSEOracle(mesh, pois, epsilon=0.25,
                                 rebuild_factor=10.0, seed=1).build()
        corners = mesh.vertices[mesh.faces[mesh.locate_face(20.0, 30.0)]]
        center = corners[:, :2].mean(axis=0)
        near = 0.7 * center + 0.3 * corners[0, :2]
        points = [tuple(center.tolist()), tuple(near.tolist()),
                  (71.0, 64.0), (48.0, 83.0)]
        assert mesh.locate_face(*points[0]) == mesh.locate_face(*points[1])
        inserted = [oracle.insert(x, y) for x, y in points]
        first, second = (oracle._node_of(ext) for ext in inserted[:2])
        assert second in oracle.engine.graph.neighbors(first)[0]
        oracle.delete(5)
        seen = {}

        def record(stage):
            for ext in sorted(oracle._overlay):
                seen[(stage, ext)] = oracle._ensure_delta_row(ext)
            ids = oracle.live_ids()
            seen[(stage, "batch")] = oracle.query_batch(
                np.repeat(ids, ids.size), np.tile(ids, ids.size))

        record("before")
        oracle.flush()
        oracle.insert(35.0, 60.0)
        record("after")
        return seen

    def test_delta_rows_and_batches_match_python_kernel(self):
        import importlib
        from unittest import mock

        kernel = importlib.import_module("repro.geodesic.dijkstra")
        fast = self._churn()
        with mock.patch.object(kernel, "_scipy_dijkstra", None):
            slow = self._churn()
        assert fast.keys() == slow.keys()
        # Four delta rows and one batch before the flush.
        assert sum(stage == "before" for stage, _ in fast) == 5
        for key, row in fast.items():
            assert row.dtype == slow[key].dtype
            assert row.tobytes() == slow[key].tobytes(), key
