"""Tests for oracle persistence (save/load round-trips)."""

import json
import pathlib
import zipfile

import pytest

from repro.core import CompiledOracle, SEOracle, load_oracle, \
    save_oracle, workload_fingerprint
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, sample_uniform


@pytest.fixture(scope="module")
def workload():
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=81)
    pois = sample_uniform(mesh, 14, seed=82)
    return GeodesicEngine(mesh, pois, points_per_edge=1)


@pytest.fixture(scope="module")
def built(workload):
    return SEOracle(workload, epsilon=0.2, seed=4).build()


class TestSave:
    def test_unbuilt_oracle_rejected(self, workload, tmp_path):
        fresh = SEOracle(workload, epsilon=0.2)
        with pytest.raises(ValueError):
            save_oracle(fresh, tmp_path / "o.json")

    def test_file_is_valid_json(self, built, tmp_path):
        path = tmp_path / "oracle.json"
        save_oracle(built, path)
        document = json.loads(path.read_text())
        assert document["format"] == "repro-se-oracle"
        assert document["epsilon"] == 0.2
        assert len(document["pairs"]) == built.num_pairs


class TestLoad:
    def test_roundtrip_answers_identically(self, built, workload, tmp_path):
        path = tmp_path / "oracle.json"
        save_oracle(built, path)
        loaded = load_oracle(path, workload)
        n = workload.num_pois
        for source in range(n):
            for target in range(n):
                assert loaded.query(source, target) \
                    == built.query(source, target)

    def test_roundtrip_preserves_structure(self, built, workload, tmp_path):
        path = tmp_path / "oracle.json"
        save_oracle(built, path)
        loaded = load_oracle(path, workload)
        assert loaded.height == built.height
        assert loaded.num_pairs == built.num_pairs
        assert loaded.epsilon == built.epsilon
        assert loaded.size_bytes() > 0
        loaded.tree.check_structure(workload.num_pois)

    def test_wrong_workload_rejected(self, built, tmp_path):
        path = tmp_path / "oracle.json"
        save_oracle(built, path)
        other_mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                                  relief=15.0, seed=999)
        other = GeodesicEngine(other_mesh,
                               sample_uniform(other_mesh, 14, seed=1),
                               points_per_edge=1)
        with pytest.raises(ValueError):
            load_oracle(path, other)

    def test_non_strict_skips_fingerprint(self, built, workload, tmp_path):
        path = tmp_path / "oracle.json"
        save_oracle(built, path)
        document = json.loads(path.read_text())
        document["fingerprint"] = "bogus"
        path.write_text(json.dumps(document))
        loaded = load_oracle(path, workload, strict=False)
        assert loaded.query(0, 1) == built.query(0, 1)

    def test_wrong_format_rejected(self, workload, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_oracle(path, workload)

    def test_wrong_version_rejected(self, built, workload, tmp_path):
        path = tmp_path / "oracle.json"
        save_oracle(built, path)
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError):
            load_oracle(path, workload)


class TestParallelBuildRoundTrip:
    """A --jobs 2 build serializes to exactly what a serial build does."""

    def test_parallel_build_roundtrip_bit_identical(self, built, workload,
                                                    tmp_path):
        parallel = SEOracle(workload, epsilon=0.2, seed=4, jobs=2).build()
        path = tmp_path / "parallel.json"
        save_oracle(parallel, path)
        loaded = load_oracle(path, workload)

        # Byte equality: the parallel fan-out and a JSON round trip
        # must both preserve every float bit, and the document's pairs
        # come back as the build's key-ordered run.
        for name, column in built.pair_hash.frozen_arrays().items():
            assert loaded.pair_hash.frozen_arrays()[name].tobytes() \
                == column.tobytes(), name
        n = workload.num_pois
        for source in range(n):
            for target in range(n):
                assert loaded.query(source, target) \
                    == built.query(source, target)

    def test_build_metadata_recorded(self, built, workload, tmp_path):
        from repro.core.serialize import JSON_FORMAT_VERSION
        parallel = SEOracle(workload, epsilon=0.2, seed=4, jobs=2).build()
        path = tmp_path / "parallel.json"
        save_oracle(parallel, path)
        document = json.loads(path.read_text())
        assert document["version"] == JSON_FORMAT_VERSION == 3
        assert document["build"] == {"executor": "multiprocess", "jobs": 2}
        loaded = load_oracle(path, workload)
        assert loaded.stats.executor == "multiprocess"
        assert loaded.stats.jobs == 2

    def test_version1_documents_still_load(self, built, workload, tmp_path):
        path = tmp_path / "v1.json"
        save_oracle(built, path)
        document = json.loads(path.read_text())
        document["version"] = 1
        del document["build"]
        path.write_text(json.dumps(document))
        loaded = load_oracle(path, workload)
        assert loaded.stats.executor == "serial"
        assert loaded.stats.jobs == 1
        assert loaded.query(0, 1) == built.query(0, 1)


class TestFormatV3Compiled:
    """Format v3: the optional compiled-table (serving) section."""

    def test_uncompiled_save_omits_section(self, built, workload, tmp_path):
        path = tmp_path / "plain.json"
        fresh = SEOracle(workload, epsilon=0.2, seed=4).build()
        save_oracle(fresh, path)
        document = json.loads(path.read_text())
        assert document["version"] == 3
        assert "compiled" not in document
        loaded = load_oracle(path, workload)
        assert not loaded.is_compiled  # compiles on demand below
        assert loaded.query_batch([0], [1])[0] == loaded.query(0, 1)
        assert loaded.is_compiled

    def test_compiled_save_embeds_section(self, built, workload, tmp_path):
        path = tmp_path / "compiled.json"
        fresh = SEOracle(workload, epsilon=0.2, seed=4).build()
        fresh.compiled()
        save_oracle(fresh, path)  # compiled=None -> include (is_compiled)
        document = json.loads(path.read_text())
        assert "compiled" in document
        tables = fresh.compiled()
        assert document["compiled"]["height"] == tables.height
        assert document["compiled"]["chains"] == tables.chains.tolist()

    def test_explicit_compiled_flag(self, built, workload, tmp_path):
        with_path = tmp_path / "with.json"
        without_path = tmp_path / "without.json"
        fresh = SEOracle(workload, epsilon=0.2, seed=4).build()
        save_oracle(fresh, with_path, compiled=True)
        assert fresh.is_compiled  # compiled=True forced compilation
        save_oracle(fresh, without_path, compiled=False)
        assert "compiled" in json.loads(with_path.read_text())
        assert "compiled" not in json.loads(without_path.read_text())

    def test_roundtrip_with_tables_answers_identically(self, built,
                                                       workload, tmp_path):
        path = tmp_path / "compiled.json"
        save_oracle(built, path, compiled=True)
        loaded = load_oracle(path, workload)
        assert loaded.is_compiled  # no recompile needed after load
        n = workload.num_pois
        import numpy as np
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        batched = loaded.query_batch(sources, targets)
        for index in range(sources.size):
            assert batched[index] == built.query(int(sources[index]),
                                                 int(targets[index]))

    def test_loaded_tables_match_recompiled(self, built, workload,
                                            tmp_path):
        path = tmp_path / "compiled.json"
        save_oracle(built, path, compiled=True)
        loaded = load_oracle(path, workload)
        from_document = loaded.compiled()
        recompiled = CompiledOracle.from_oracle(loaded)
        assert (from_document.chains == recompiled.chains).all()


class TestVersion2Fixture:
    """A checked-in v2 document (predating compiled tables) still
    loads — and compiles on demand — on the current code."""

    FIXTURE = pathlib.Path(__file__).parent / "data" / "oracle_v2.json"

    def test_fixture_is_version_2(self):
        document = json.loads(self.FIXTURE.read_text())
        assert document["version"] == 2
        assert "compiled" not in document

    def test_loads_and_compiles_on_demand(self, workload):
        # strict=False: the fixture's fingerprint was recorded on the
        # machine that generated it; terrain regeneration is seeded but
        # cross-platform float drift must not fail the compat test.
        loaded = load_oracle(self.FIXTURE, workload, strict=False)
        assert not loaded.is_compiled
        assert loaded.num_pairs == len(
            json.loads(self.FIXTURE.read_text())["pairs"])
        import numpy as np
        n = loaded.engine.num_pois
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        batched = loaded.query_batch(sources, targets)
        assert np.isfinite(batched).all()
        for index in range(0, sources.size, 7):
            assert batched[index] == loaded.query(int(sources[index]),
                                                  int(targets[index]))

    def test_resave_upgrades_to_current_format(self, workload, tmp_path):
        from repro.core.serialize import JSON_FORMAT_VERSION
        loaded = load_oracle(self.FIXTURE, workload, strict=False)
        loaded.compiled()
        path = tmp_path / "upgraded.json"
        save_oracle(loaded, path)
        document = json.loads(path.read_text())
        assert document["version"] == JSON_FORMAT_VERSION == 3
        assert "compiled" in document


class TestVersion3Fixture:
    """The checked-in v3 document (with compiled section) still loads
    straight into the batched path on the current code."""

    FIXTURE = pathlib.Path(__file__).parent / "data" / "oracle_v3.json"

    def test_fixture_is_version_3_with_compiled_section(self):
        document = json.loads(self.FIXTURE.read_text())
        assert document["version"] == 3
        assert "compiled" in document

    def test_loads_without_recompiling(self, workload):
        loaded = load_oracle(self.FIXTURE, workload, strict=False)
        assert loaded.is_compiled  # chains came from the document
        assert loaded.query_batch([0], [1])[0] == loaded.query(0, 1)

    def test_repeated_pair_is_refused_by_load_and_pack(self, workload,
                                                       tmp_path):
        """A document that repeats a pair at another distance is no
        oracle: loading it and packing it both refuse it, rather than
        one of them keeping the last distance."""
        from repro.core import pack_document
        document = json.loads(self.FIXTURE.read_text())
        a, b, distance = document["pairs"][len(document["pairs"]) // 2]
        document["pairs"].append([a, b, distance * 2.0 + 1.0])
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="duplicate keys"):
            load_oracle(path, workload, strict=False)
        with pytest.raises(ValueError, match="duplicate keys"):
            pack_document(document, tmp_path / "repeated.store")
        assert not (tmp_path / "repeated.store").exists()


class TestCrossVersionMatrix:
    """v1/v2/v3/v4 files of the *same* workload all load and answer a
    golden query set identically.

    v4 appears twice: the *checked-in* binary fixture (loaded byte for
    byte, guarding the on-disk layout across code changes) and a fresh
    ``pack_document`` upgrade of the v3 document (guarding the
    conversion path).
    """

    V2 = pathlib.Path(__file__).parent / "data" / "oracle_v2.json"
    V3 = pathlib.Path(__file__).parent / "data" / "oracle_v3.json"
    V4 = pathlib.Path(__file__).parent / "data" / "oracle_v4.store"

    @pytest.fixture(scope="class")
    def version_files(self, tmp_path_factory):
        """One file per format version, derived from the fixtures;
        ``"4-fresh"`` is the on-the-fly v3 -> v4 upgrade."""
        tmp = tmp_path_factory.mktemp("versions")
        document = json.loads(self.V3.read_text())
        v1 = dict(document)
        v1["version"] = 1
        v1.pop("build", None)
        v1.pop("compiled", None)
        v1_path = tmp / "oracle_v1.json"
        v1_path.write_text(json.dumps(v1))
        v4_path = tmp / "oracle_v4.store"
        from repro.core import pack_document
        pack_document(document, v4_path)
        return {1: v1_path, 2: self.V2, 3: self.V3, 4: self.V4,
                "4-fresh": v4_path}

    def test_all_versions_answer_identically(self, workload,
                                             version_files):
        from repro.experiments.harness import generate_query_pairs
        golden_pairs = generate_query_pairs(workload.num_pois, 60,
                                            seed=17)
        golden_pairs += [(poi, poi) for poi in range(workload.num_pois)]
        answers = {}
        for version, path in version_files.items():
            loaded = load_oracle(path, workload, strict=False)
            answers[version] = [loaded.query(source, target)
                                for source, target in golden_pairs]
        for version in (2, 3, 4, "4-fresh"):
            assert answers[version] == answers[1], (
                f"v{version} answers diverge from v1"
            )

    def test_all_versions_batch_identically(self, workload,
                                            version_files):
        import numpy as np
        n = workload.num_pois
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        matrices = {
            version: load_oracle(path, workload,
                                 strict=False).query_batch(sources,
                                                           targets)
            for version, path in version_files.items()
        }
        for version in (2, 3, 4, "4-fresh"):
            assert (matrices[version] == matrices[1]).all()

    def test_v4_reports_upgraded_metadata(self, version_files):
        from repro.core.store import read_store_meta
        meta = read_store_meta(version_files[4])
        document = json.loads(self.V3.read_text())
        assert meta["version"] == 4
        assert meta["epsilon"] == document["epsilon"]
        assert meta["seed"] == document["seed"]
        assert meta["fingerprint"] == document["fingerprint"]
        assert meta["stats"]["pairs_stored"] == len(document["pairs"])

    def test_checked_in_v4_fixture_matches_fresh_pack_bytes(
            self, version_files):
        """Packing is deterministic (pinned zip timestamps), so the
        fixture's members reproduce from the v3 document — any layout
        drift in the writer shows up as a diff here.  The fixture
        predates the nearest-distance column (one member, written
        last) and the key-ordered pair run: a fresh pack's ``meta.json``
        adds the ``pair_order`` entry, and its three pair columns are
        the fixture's own arrays in key order, slots remapped.  Every
        other member is byte-identical."""
        import io

        import numpy as np

        def members(path):
            with zipfile.ZipFile(path) as archive:
                return {name: archive.read(name)
                        for name in archive.namelist()}

        def array(raw):
            return np.load(io.BytesIO(raw), allow_pickle=False)

        fixture = members(self.V4)
        fresh = members(version_files["4-fresh"])
        assert list(fresh) == list(fixture) + ["nn_distance.npy"]
        reordered = {"meta.json", "pair_keys.npy", "pair_distances.npy",
                     "hash_slots.npy"}
        assert {name: fresh[name] for name in fixture
                if name not in reordered} \
            == {name: raw for name, raw in fixture.items()
                if name not in reordered}
        meta = json.loads(fresh["meta.json"])
        assert meta.pop("pair_order") == "key"
        assert meta == json.loads(fixture["meta.json"])

        keys, distances, slots = (
            array(fixture[name]) for name in
            ("pair_keys.npy", "pair_distances.npy", "hash_slots.npy"))
        fresh_keys, fresh_distances, fresh_slots = (
            array(fresh[name]) for name in
            ("pair_keys.npy", "pair_distances.npy", "hash_slots.npy"))
        order = np.argsort(keys)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        assert fresh_keys.dtype == keys.dtype
        assert fresh_distances.dtype == distances.dtype
        assert fresh_slots.dtype == slots.dtype
        assert fresh_slots.shape == slots.shape
        for position, source in enumerate(order):
            assert fresh_keys[position] == keys[source]
            assert (fresh_distances[position].tobytes()
                    == distances[source].tobytes())
        for slot, index in enumerate(slots):
            expected = rank[index] if index >= 0 else index
            assert fresh_slots[slot] == expected

    def test_v4_fixture_predates_the_column(self, version_files):
        with zipfile.ZipFile(self.V4) as archive:
            assert not [name for name in archive.namelist()
                        if "nn_" in name]

    @pytest.mark.parametrize("options", [{}, {"mmap": False}],
                             ids=["mmap", "copy"])
    def test_v4_fixture_rnn_matches_the_fresh_pack(self, version_files,
                                                   options):
        """The fixture derives its column on first RNN: it equals the
        fresh pack's packed column, and RNN for every source equals
        the fresh pack's and the matrix path's."""
        from repro.core import open_oracle
        from repro.queries import reverse_nearest_neighbors as rnn
        with open_oracle(version_files["4-fresh"]) as fresh:
            n = fresh.num_pois
            expected = [rnn(fresh, source) for source in range(n)]
            column = fresh.nearest_column()
        with open_oracle(self.V4, **options) as stored:
            assert [rnn(stored, source) for source in range(n)] == expected
            assert [rnn(stored, source, num_pois=n)
                    for source in range(n)] == expected
            derived = stored.nearest_column()
            assert derived.dtype == column.dtype
            assert derived.tobytes() == column.tobytes()

    def test_v4_fixture_refuses_paging(self, version_files):
        """The fixture packs its pairs in build order: paging it is a
        typed refusal that names the fix, never an answer.  The fresh
        pack of the same document pages."""
        from repro.core import open_oracle
        with pytest.raises(ValueError, match="re-pack"):
            open_oracle(self.V4, max_resident_bytes=64)
        with open_oracle(version_files["4-fresh"],
                         max_resident_bytes=64) as paged, \
                open_oracle(self.V4) as stored:
            assert paged.num_pairs == stored.num_pairs
            assert (paged.query_matrix() == stored.query_matrix()).all()

    def test_v4_fixture_repacks_in_key_order(self, workload,
                                             version_files, tmp_path):
        """The fixture's map holds its pairs in build order; packing
        the rehydrated oracle still writes the key-ordered run, the
        same hash sections as the fresh pack of the document."""
        from repro.core import open_oracle, pack_oracle
        with open_oracle(self.V4) as stored:
            oracle = stored.to_oracle(workload, strict=False)
        keys = list(oracle.pair_hash)
        assert keys != sorted(keys)
        for key, value in oracle.pair_hash.items():
            assert oracle.pair_hash[key] == value
        repacked = tmp_path / "repacked.store"
        pack_oracle(oracle, repacked)
        names = ("pair_keys", "pair_distances", "hash_level1",
                 "hash_level2_a", "hash_level2_shift",
                 "hash_level2_offset", "hash_slots", "chains")
        with zipfile.ZipFile(repacked) as one, \
                zipfile.ZipFile(version_files["4-fresh"]) as two:
            for name in names:
                member = name + ".npy"
                assert one.read(member) == two.read(member), name

    def test_checked_in_v4_fixture_mmaps_byte_for_byte(self, workload):
        """The committed store opens straight off its bytes: mapped
        sections, fingerprint intact, fresh-pack answer parity."""
        from repro.core import open_oracle
        stored = open_oracle(self.V4)
        document = json.loads(self.V3.read_text())
        assert stored.fingerprint == document["fingerprint"]
        assert stored.num_pairs == len(document["pairs"])
        loaded = load_oracle(self.V3, workload, strict=False)
        n = loaded.engine.num_pois
        import numpy as np
        grid = np.arange(n, dtype=np.intp)
        assert (stored.query_batch(np.repeat(grid, n), np.tile(grid, n))
                == loaded.query_batch(np.repeat(grid, n),
                                      np.tile(grid, n))).all()


class TestFingerprint:
    def test_deterministic(self, workload):
        assert workload_fingerprint(workload) \
            == workload_fingerprint(workload)

    def test_sensitive_to_density(self, workload):
        other = GeodesicEngine(workload.mesh, workload.pois,
                               points_per_edge=2)
        assert workload_fingerprint(workload) != workload_fingerprint(other)

    def test_sensitive_to_pois(self, workload):
        other = GeodesicEngine(workload.mesh,
                               sample_uniform(workload.mesh, 14, seed=5),
                               points_per_edge=1)
        assert workload_fingerprint(workload) != workload_fingerprint(other)
