"""Tests for the multi-terrain serving layer (OracleService)."""

import os
import pathlib
import shutil
from unittest import mock

import numpy as np
import pytest

from repro.core import SEOracle, pack_oracle
from repro.core.compiled import CompiledOracle
from repro.geodesic import GeodesicEngine
from repro.queries import (
    k_nearest_neighbors,
    range_query,
    reverse_nearest_neighbors,
)
from repro.serving import OracleService, TerrainSpec
from repro.terrain import make_terrain, sample_uniform


def _build(seed: int, pois: int = 12, epsilon: float = 0.3) -> SEOracle:
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=seed)
    poi_set = sample_uniform(mesh, pois, seed=seed + 1)
    engine = GeodesicEngine(mesh, poi_set, points_per_edge=1)
    return SEOracle(engine, epsilon, seed=seed).build()


@pytest.fixture(scope="module")
def terrains(tmp_path_factory):
    """Three packed terrains with their in-memory reference oracles."""
    tmp = tmp_path_factory.mktemp("terrains")
    result = {}
    for index, name in enumerate(("alps", "andes", "atlas")):
        oracle = _build(seed=41 + index, pois=10 + 2 * index)
        path = tmp / f"{name}.store"
        pack_oracle(oracle, path)
        result[name] = (path, oracle)
    return result


@pytest.fixture()
def service(terrains):
    service = OracleService(max_resident=2)
    for name, (path, _) in terrains.items():
        service.register(name, TerrainSpec(str(path)))
    return service


class TestRegistry:
    def test_register_returns_meta(self, terrains):
        service = OracleService()
        path, oracle = terrains["alps"]
        meta = service.register("alps", TerrainSpec(str(path)))
        assert meta["epsilon"] == oracle.epsilon
        assert service.terrains() == ["alps"]

    def test_register_does_not_load(self, service):
        assert service.resident_terrains() == []

    def test_unknown_terrain(self, service):
        with pytest.raises(KeyError):
            service.query("everest", 0, 1)
        with pytest.raises(KeyError):
            service.counters("everest")

    def test_describe(self, service, terrains):
        info = service.describe("andes")
        assert info["resident"] is False
        assert info["path"] == str(terrains["andes"][0])

    def test_unregister(self, service):
        service.unregister("alps")
        assert "alps" not in service.terrains()
        with pytest.raises(KeyError):
            service.query("alps", 0, 1)

    def test_reregister_drops_residency(self, service, terrains):
        service.query("alps", 0, 1)
        assert "alps" in service.resident_terrains()
        service.register("alps", TerrainSpec(str(terrains["alps"][0])))
        assert "alps" not in service.resident_terrains()
        # counters survive re-registration; the dropped residency is
        # accounted as an eviction
        assert service.counters("alps").queries == 1
        assert service.counters("alps").evictions == 1

    def test_refresh_reconciles_the_ledger(self, terrains, tmp_path):
        """A generation refresh drops (and closes) the old store, which
        counts as an eviction: loads - evictions stays the number of
        open stores."""
        path = tmp_path / "tracked.store"
        shutil.copyfile(terrains["alps"][0], path)
        service = OracleService()
        service.register("alps", TerrainSpec(str(path),
                                             track_generation=True))
        service.query("alps", 0, 1)
        staged = tmp_path / "next.store"
        shutil.copyfile(terrains["andes"][0], staged)
        os.replace(staged, path)
        assert service.query("alps", 0, 1) \
            == terrains["andes"][1].query(0, 1)
        stats = service.stats()["alps"]
        assert (stats["loads"], stats["evictions"],
                stats["refreshes"]) == (2, 1, 1)
        assert stats["resident"]
        assert stats["loads"] - stats["evictions"] == 1

    def test_path_form_is_gone(self, terrains):
        with pytest.raises(TypeError, match="TerrainSpec"):
            OracleService().register("alps", str(terrains["alps"][0]))

    def test_max_resident_validation(self):
        with pytest.raises(ValueError):
            OracleService(max_resident=0)


class TestRouting:
    def test_queries_match_source_oracles(self, service, terrains):
        for name, (_, oracle) in terrains.items():
            n = oracle.engine.num_pois
            for source in range(0, n, 3):
                for target in range(n):
                    assert service.query(name, source, target) \
                        == oracle.query(source, target)

    def test_batch_matches_source_oracle(self, service, terrains):
        _, oracle = terrains["andes"]
        n = oracle.engine.num_pois
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        assert (service.query_batch("andes", sources, targets)
                == oracle.query_batch(sources, targets)).all()

    def test_matrix_matches_source_oracle(self, service, terrains):
        _, oracle = terrains["atlas"]
        assert (service.query_matrix("atlas")
                == oracle.query_matrix()).all()

    def test_proximity_matches_direct_calls(self, service, terrains):
        _, oracle = terrains["alps"]
        n = oracle.engine.num_pois
        compiled = oracle.compiled()
        radius = oracle.query(0, 3)
        for source in range(n):
            assert service.k_nearest("alps", source, 3) \
                == k_nearest_neighbors(compiled, source, 3, n)
            assert service.range_query("alps", source, radius) \
                == range_query(compiled, source, radius, n)
            assert service.reverse_nearest("alps", source) \
                == reverse_nearest_neighbors(compiled, source, n)


class TestResidency:
    def test_lru_eviction(self, service):
        service.query("alps", 0, 1)
        service.query("andes", 0, 1)
        assert service.resident_terrains() == ["alps", "andes"]
        service.query("atlas", 0, 1)  # bound is 2: alps evicted
        assert service.resident_terrains() == ["andes", "atlas"]
        assert service.counters("alps").evictions == 1

    def test_recent_use_protects_from_eviction(self, service):
        service.query("alps", 0, 1)
        service.query("andes", 0, 1)
        service.query("alps", 0, 2)  # alps now most recent
        service.query("atlas", 0, 1)  # andes evicted, not alps
        assert set(service.resident_terrains()) == {"alps", "atlas"}

    def test_reload_after_eviction_counts_load(self, service):
        service.query("alps", 0, 1)
        service.query("andes", 0, 1)
        service.query("atlas", 0, 1)
        service.query("alps", 0, 1)  # cold again
        counters = service.counters("alps")
        assert counters.loads == 2
        assert counters.load_seconds > 0.0

    def test_explicit_evict(self, service):
        service.query("alps", 0, 1)
        assert service.evict("alps") is True
        assert service.evict("alps") is False
        assert service.resident_terrains() == []


class TestCounters:
    def test_query_and_batch_counts(self, service):
        service.query("alps", 0, 1)
        service.query_batch("alps", [0, 1, 2], [3, 4, 5])
        counters = service.counters("alps")
        assert counters.queries == 4
        assert counters.batches == 2
        assert counters.loads == 1
        assert counters.hits == 1  # second dispatch reused the tables
        assert counters.query_seconds > 0.0

    def test_proximity_counts_the_distances_each_op_requests(
            self, service, terrains):
        """kNN, range and a static store's RNN (its nearest-neighbour
        column) each request the n−1 distances from the source."""
        n = terrains["alps"][1].engine.num_pois
        service.k_nearest("alps", 0, 3)
        assert service.counters("alps").queries == n - 1
        service.range_query("alps", 0, 50.0)
        assert service.counters("alps").queries == 2 * (n - 1)
        service.reverse_nearest("alps", 0)
        assert service.counters("alps").queries == 3 * (n - 1)
        assert service.counters("alps").batches == 3

    def test_rnn_counts_the_pairs_a_derived_column_probes(self, terrains):
        """A store packed before the nearest-distance column derives
        it (n×n pairs) on the first RNN after each open, and that RNN
        counts those pairs too: ``queries`` grows by exactly the pairs
        the compiled index is asked for, across LRU reopens."""
        v4 = pathlib.Path(__file__).parent / "data" / "oracle_v4.store"
        asked = []
        probe = CompiledOracle.query_batch

        def counted(index, sources, targets):
            asked.append(len(sources))
            return probe(index, sources, targets)

        with OracleService(max_resident=1) as service, \
                mock.patch.object(CompiledOracle, "query_batch", counted):
            service.register("v4", TerrainSpec(str(v4)))
            service.register("alps", TerrainSpec(str(terrains["alps"][0])))
            n = 14
            for _ in range(3):  # each round reopens v4
                for source, derives in ((0, True), (5, False)):
                    before = service.counters("v4").queries
                    asked.clear()
                    service.reverse_nearest("v4", source)
                    grown = service.counters("v4").queries - before
                    assert grown == sum(asked)
                    assert grown == n - 1 + (n * n if derives else 0)
                service.query("alps", 0, 1)  # evicts v4
            assert service.counters("v4").loads == 3

    def test_mutable_rnn_counts_the_matrix(self, mutable_setup):
        """A mutable overlay answers RNN from the n×n matrix over its
        live ids, so it counts n²; its kNN counts n−1."""
        service, engine, _, _ = mutable_setup
        service.insert_poi("dunes", 30.0, 30.0)
        n = engine.num_pois + 1
        service.reverse_nearest("dunes", 0)
        assert service.counters("dunes").queries == n * n
        service.k_nearest("dunes", 0, 3)
        assert service.counters("dunes").queries == n * n + n - 1

    def test_stats_report(self, service):
        service.query("andes", 0, 1)
        stats = service.stats()
        assert set(stats) == {"alps", "andes", "atlas"}
        assert stats["andes"]["resident"] is True
        assert stats["andes"]["queries"] == 1
        assert stats["andes"]["num_pois"] is not None
        assert stats["alps"]["resident"] is False
        assert stats["alps"]["mean_batch_seconds"] == 0.0


# ----------------------------------------------------------------------
# mutable terrains
# ----------------------------------------------------------------------
@pytest.fixture()
def mutable_setup(tmp_path):
    """A mutable registration plus its workload engine and reference."""
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=51)
    poi_set = sample_uniform(mesh, 12, seed=52)
    engine = GeodesicEngine(mesh, poi_set, points_per_edge=1)
    oracle = SEOracle(engine, epsilon=0.3, seed=51).build()
    path = tmp_path / "mutable.store"
    pack_oracle(oracle, path)
    service = OracleService(max_resident=2)
    service.register("dunes", TerrainSpec(str(path), mutable=True,
                                          engine=engine,
                                          rebuild_factor=10.0))
    return service, engine, oracle, path


class TestMutableRegistration:
    def test_wrong_workload_rejected(self, mutable_setup, tmp_path):
        service, _, _, path = mutable_setup
        other_mesh = make_terrain(grid_exponent=3, seed=999)
        other = GeodesicEngine(other_mesh,
                               sample_uniform(other_mesh, 12, seed=1),
                               points_per_edge=1)
        with pytest.raises(ValueError):
            service.register("wrong", TerrainSpec(
                str(path), mutable=True, engine=other))

    def test_spec_has_no_jobs_knob(self):
        """Overlay rebuilds are serial; ``rebuild_factor`` is the one
        rebuild setting a spec carries."""
        with pytest.raises(TypeError):
            TerrainSpec("dunes.store", mutable=True, jobs=2)

    def test_static_to_mutable_drop_is_an_eviction(self, mutable_setup):
        service, engine, _, path = mutable_setup
        service.register("x", TerrainSpec(str(path)))
        service.query("x", 0, 1)
        service.register("x", TerrainSpec(str(path), mutable=True,
                                          engine=engine))
        counters = service.counters("x")
        assert (counters.loads, counters.evictions) == (1, 1)
        assert "x" not in service.resident_terrains()

    def test_pinned_outside_lru(self, mutable_setup):
        service, _, _, _ = mutable_setup
        service.query("dunes", 0, 1)
        assert "dunes" not in service.resident_terrains()
        assert service.evict("dunes") is False
        assert service.describe("dunes")["resident"] is True

    def test_static_terrain_rejects_updates(self, service):
        with pytest.raises(ValueError, match="not mutable"):
            service.insert_poi("alps", 10.0, 10.0)
        with pytest.raises(ValueError, match="not mutable"):
            service.delete_poi("alps", 0)
        with pytest.raises(ValueError, match="not mutable"):
            service.flush("alps")

    def test_oracle_accessor_rejects_mutable(self, mutable_setup):
        service, _, _, _ = mutable_setup
        with pytest.raises(ValueError, match="mutable"):
            service.oracle("dunes")

    def test_base_answers_match_packed_oracle(self, mutable_setup):
        service, engine, oracle, _ = mutable_setup
        n = engine.num_pois
        grid = np.arange(n, dtype=np.intp)
        assert (service.query_batch("dunes", np.repeat(grid, n),
                                    np.tile(grid, n))
                == oracle.query_batch(np.repeat(grid, n),
                                      np.tile(grid, n))).all()


class TestMutableLifecycle:
    """The acceptance flow: insert -> query -> delete -> flush, with
    query/batch/kNN/range/RNN correct at every step."""

    def test_full_lifecycle(self, mutable_setup):
        service, engine, _, _ = mutable_setup
        overlay = service._registry["dunes"].overlay

        # Insert, then query it every way.
        fresh = service.insert_poi("dunes", 45.0, 45.0)
        assert fresh == engine.num_pois
        d = service.query("dunes", fresh, 0)
        assert 0 < d < float("inf")
        batched = service.query_batch("dunes", [fresh, 0, 1],
                                      [0, fresh, 2])
        assert batched[0] == d == batched[1]
        assert batched[2] == service.query("dunes", 1, 2)

        # Proximity queries see the inserted POI and match the scalar
        # reference over the live ids.
        from repro.queries import (
            k_nearest_neighbors_scalar,
            range_query_scalar,
            reverse_nearest_neighbors_scalar,
        )
        live = overlay.live_ids()
        knn = service.k_nearest("dunes", fresh, 3)
        assert knn == k_nearest_neighbors_scalar(
            overlay, fresh, 3, candidates=live)
        radius = knn[-1][1]
        hits = service.range_query("dunes", fresh, radius)
        assert hits == range_query_scalar(
            overlay, fresh, radius, candidates=live)
        rnn = service.reverse_nearest("dunes", 0)
        assert rnn == reverse_nearest_neighbors_scalar(
            overlay, 0, candidates=live)

        # Delete a base POI: it disappears from every query surface.
        service.delete_poi("dunes", 3)
        with pytest.raises(KeyError):
            service.query("dunes", 3, 0)
        assert 3 not in [poi for poi, _ in
                         service.k_nearest("dunes", 0, 20)]
        assert 3 not in service.reverse_nearest("dunes", 0)

        # Flush: rebuild + repack; everything still answers, external
        # ids stay stable, the overlay is folded into the base.
        stats_before = service.stats()["dunes"]
        assert stats_before["dirty"] is True
        meta = service.flush("dunes")
        assert meta["stats"]["pairs_stored"] > 0
        assert service.stats()["dunes"]["dirty"] is False
        assert service.stats()["dunes"]["flushes"] == 1
        assert overlay.overlay_size == 0
        assert service.query("dunes", fresh, 0) > 0
        with pytest.raises(KeyError):
            service.query("dunes", 3, 0)
        knn_after = service.k_nearest("dunes", fresh, 3)
        assert knn_after == k_nearest_neighbors_scalar(
            overlay, fresh, 3, candidates=overlay.live_ids())
        assert service.reverse_nearest("dunes", 0) == \
            reverse_nearest_neighbors_scalar(
                overlay, 0, candidates=overlay.live_ids())

    def test_flush_reopens_store_from_disk(self, mutable_setup):
        from repro.core import open_oracle
        service, engine, _, path = mutable_setup
        fresh = service.insert_poi("dunes", 40.0, 60.0)
        service.flush("dunes")
        # The on-disk store now covers the grown POI set and serves
        # the same answers as the live overlay.
        stored = open_oracle(str(path))
        overlay = service._registry["dunes"].overlay
        assert stored.num_pois == overlay.num_pois
        live = overlay.live_ids()
        sources = np.repeat(live, live.size)
        targets = np.tile(live, live.size)
        slot = {int(ext): i for i, ext in enumerate(live)}
        remap_s = np.array([slot[int(e)] for e in sources], dtype=np.intp)
        remap_t = np.array([slot[int(e)] for e in targets], dtype=np.intp)
        assert (overlay.query_batch(sources, targets)
                == stored.query_batch(remap_s, remap_t)).all()
        assert fresh in live

    def test_flush_without_updates_is_noop(self, mutable_setup):
        import os
        service, _, _, path = mutable_setup
        before = os.path.getmtime(path)
        meta = service.flush("dunes")
        assert meta["version"] == 4
        assert os.path.getmtime(path) == before
        assert service.stats()["dunes"]["flushes"] == 0

    def test_update_counters(self, mutable_setup):
        service, _, _, _ = mutable_setup
        service.insert_poi("dunes", 30.0, 30.0)
        service.insert_poi("dunes", 60.0, 60.0)
        service.delete_poi("dunes", 1)
        stats = service.stats()["dunes"]
        assert stats["updates"] == 3
        assert stats["mutable"] is True
        assert stats["overlay_size"] == 2

    def test_reregister_over_dirty_overlay_refused(self, mutable_setup):
        """Unflushed updates must never be dropped silently: both
        static and mutable re-registration refuse, flush unblocks."""
        service, engine, _, path = mutable_setup
        service.insert_poi("dunes", 30.0, 30.0)
        with pytest.raises(ValueError, match="unflushed"):
            service.register("dunes", TerrainSpec(str(path)))
        with pytest.raises(ValueError, match="unflushed"):
            service.register("dunes", TerrainSpec(
                str(path), mutable=True, engine=engine))
        service.flush("dunes")
        service.register("dunes", TerrainSpec(str(path)))
        assert service.describe("dunes")["mutable"] is False
        with pytest.raises(ValueError, match="not mutable"):
            service.insert_poi("dunes", 10.0, 10.0)

    def test_failed_flush_cleans_temp_and_stays_dirty(self,
                                                     mutable_setup,
                                                     monkeypatch):
        """A pack that fails mid-write (after its first member) leaves
        the store's bytes and directory as they were: the store writer
        unlinks its temp file."""
        from repro.core import store
        service, _, _, path = mutable_setup
        service.insert_poi("dunes", 30.0, 30.0)
        before = path.read_bytes()
        written = []
        member_info = store._member_info

        def failing_member_info(name):
            if written:
                raise OSError("disk full")
            written.append(name)
            return member_info(name)

        monkeypatch.setattr(store, "_member_info", failing_member_info)
        with pytest.raises(OSError, match="disk full"):
            service.flush("dunes")
        assert written == ["meta.json"]
        assert os.listdir(path.parent) == [path.name]
        assert path.read_bytes() == before
        assert service.stats()["dunes"]["dirty"] is True
        # The overlay keeps serving, and a later (healthy) flush works.
        assert service.query("dunes", 0, 1) > 0
        monkeypatch.undo()
        service.flush("dunes")
        assert service.stats()["dunes"]["dirty"] is False

    def test_adopt_store_rejects_different_oracle(self, mutable_setup,
                                                  tmp_path):
        """The same workload packed with a different epsilon must not
        be adoptable as 'the current base'."""
        from repro.core import open_oracle
        service, engine, _, _ = mutable_setup
        other = SEOracle(engine, epsilon=0.6, seed=51).build()
        other_path = tmp_path / "other.store"
        pack_oracle(other, other_path)
        overlay = service._registry["dunes"].overlay
        with pytest.raises(ValueError, match="epsilon"):
            overlay.adopt_store(open_oracle(other_path, engine=engine))
