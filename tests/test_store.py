"""Tests for the v4 binary oracle store (pack / open / convert)."""

import io
import json
import mmap
import os
import pathlib
import subprocess
import sys
import zipfile

import numpy as np
import pytest

from repro.core import (
    SEOracle,
    build_tiled_oracle,
    load_oracle,
    open_oracle,
    pack_document,
    pack_oracle,
    pack_tiled,
    save_oracle,
)
from repro.core import store as store_module
from repro.core.store import (
    _DIRECTORY_MEMO,
    STORE_VERSION,
    StoreFile,
    _directories,
    _npy_header,
    file_signature,
    read_store,
    read_store_meta,
)
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, sample_uniform


@pytest.fixture(scope="module")
def workload():
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                       relief=15.0, seed=83)
    pois = sample_uniform(mesh, 15, seed=84)
    return GeodesicEngine(mesh, pois, points_per_edge=1)


@pytest.fixture(scope="module")
def built(workload):
    return SEOracle(workload, epsilon=0.25, seed=6).build()


@pytest.fixture(scope="module")
def store_path(built, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "oracle.store"
    pack_oracle(built, path)
    return path


DATA = pathlib.Path(__file__).parent / "data"


class TestPack:
    def test_unbuilt_oracle_rejected(self, workload, tmp_path):
        with pytest.raises(ValueError):
            pack_oracle(SEOracle(workload, epsilon=0.25), tmp_path / "o")

    def test_file_is_a_plain_npz(self, store_path):
        """The store is a standard uncompressed zip numpy can read."""
        with np.load(store_path) as archive:
            names = set(archive.files)
            assert {"meta.json", "chains", "pair_keys",
                    "pair_distances", "tree_table", "tree_radii",
                    "hash_slots"} <= names
        with zipfile.ZipFile(store_path) as archive:
            for info in archive.infolist():
                assert info.compress_type == zipfile.ZIP_STORED

    def test_meta_document(self, store_path, built, workload):
        from repro.core import workload_fingerprint
        meta = read_store_meta(store_path)
        assert meta["version"] == STORE_VERSION == 4
        assert meta["epsilon"] == built.epsilon
        assert meta["fingerprint"] == workload_fingerprint(workload)
        assert meta["stats"]["pairs_stored"] == built.num_pairs
        assert meta["tree"]["height"] == built.height

    def test_save_oracle_suffix_routing(self, built, workload, tmp_path):
        """save_oracle picks the binary store for .store paths."""
        path = tmp_path / "oracle.store"
        save_oracle(built, path)
        assert read_store_meta(path)["version"] == 4
        loaded = load_oracle(path, workload)
        assert loaded.query(0, 1) == built.query(0, 1)


def map_of(array):
    """The ``mmap.mmap`` that ends ``array``'s ``.base`` chain, else
    ``None``."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base if isinstance(base, mmap.mmap) else None


class TestOpen:
    def test_sections_are_memory_mapped(self, store_path):
        meta, sections = read_store(store_path)
        maps = set()
        for name in ("chains", "pair_keys", "pair_distances",
                     "hash_slots"):
            assert map_of(sections[name]) is not None, name
            assert not sections[name].flags.writeable
            assert not sections[name].flags.owndata
            maps.add(id(map_of(sections[name])))
        assert len(maps) == 1  # one map per store

    def test_mmap_false_reads_copies(self, store_path):
        _, sections = read_store(store_path, mmap=False)
        assert map_of(sections["chains"]) is None

    def test_open_query_bit_identical(self, store_path, built, workload):
        stored = open_oracle(store_path)
        n = workload.num_pois
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        batched = stored.query_batch(sources, targets)
        for index in range(sources.size):
            assert batched[index] == built.query(int(sources[index]),
                                                 int(targets[index]))

    def test_scalar_query_delegates(self, store_path, built):
        stored = open_oracle(store_path)
        assert stored.query(0, 7) == built.query(0, 7)
        assert stored.query(3, 3) == 0.0

    def test_query_matrix(self, store_path, built):
        stored = open_oracle(store_path)
        matrix = stored.query_matrix()
        assert matrix.shape == (stored.num_pois, stored.num_pois)
        assert (np.diag(matrix) == 0.0).all()

    def test_fingerprint_check(self, store_path, workload):
        stored = open_oracle(store_path, engine=workload)  # passes
        other_mesh = make_terrain(grid_exponent=3,
                                  extent=(100.0, 100.0),
                                  relief=15.0, seed=999)
        other = GeodesicEngine(other_mesh,
                               sample_uniform(other_mesh, 15, seed=1),
                               points_per_edge=1)
        with pytest.raises(ValueError):
            open_oracle(store_path, engine=other)
        with pytest.raises(ValueError):
            stored.check_fingerprint(other)

    def test_open_oracle_takes_no_strict(self, store_path, workload):
        """Passing an engine always checks the fingerprint; only the
        JSON loader keeps ``strict=``."""
        with pytest.raises(TypeError):
            open_oracle(store_path, engine=workload, strict=False)

    def test_rejects_non_store_files(self, tmp_path, workload, built):
        json_path = tmp_path / "oracle.json"
        save_oracle(built, json_path, binary=False)
        with pytest.raises((ValueError, zipfile.BadZipFile)):
            open_oracle(json_path)

    def test_rejects_foreign_zip(self, tmp_path):
        path = tmp_path / "foreign.zip"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("readme.txt", "hello")
        with pytest.raises(ValueError):
            open_oracle(path)

    def test_meta_read_rejects_future_version(self, store_path,
                                              tmp_path):
        """read_store_meta fails fast on a version open_oracle cannot
        serve — a registration that succeeds must be servable."""
        future = tmp_path / "future.store"
        with zipfile.ZipFile(store_path) as source, \
                zipfile.ZipFile(future, "w",
                                zipfile.ZIP_STORED) as target:
            for info in source.infolist():
                payload = source.read(info.filename)
                if info.filename == "meta.json":
                    meta = json.loads(payload)
                    meta["version"] = 5
                    payload = json.dumps(meta).encode()
                target.writestr(info.filename, payload)
        with pytest.raises(ValueError, match="version"):
            read_store_meta(future)
        with pytest.raises(ValueError, match="version"):
            open_oracle(future)

    def test_load_seconds_recorded(self, store_path):
        stored = open_oracle(store_path)
        assert stored.load_seconds > 0.0


@pytest.fixture(scope="module")
def layout_stores(built, workload, store_path, tmp_path_factory):
    """Every kind of store a view must agree on: monolithic, 4-tile,
    converted from a JSON document, and the two checked-in stores
    packed by earlier versions."""
    root = tmp_path_factory.mktemp("layouts")
    paths = {"monolithic": store_path, "tiled": root / "tiled.store",
             "document": root / "document.store",
             "oracle_v4": DATA / "oracle_v4.store",
             "tiled_v4": DATA / "tiled_v4.store"}
    pack_tiled(build_tiled_oracle(workload.mesh, workload.pois, 0.25,
                                  tiles=4, seed=6), paths["tiled"])
    pack_document(json.loads((DATA / "oracle_v3.json").read_text()),
                  paths["document"])
    return paths


def _rewrite(source, target, transform):
    """Copy store ``source`` to ``target`` member by member; each
    member's ``(bytes, compress_type)`` comes from ``transform(name,
    bytes)``, ``None`` keeping it as it was."""
    with zipfile.ZipFile(source) as zin, \
            zipfile.ZipFile(target, "w", zipfile.ZIP_STORED) as zout:
        for info in zin.infolist():
            raw = zin.read(info.filename)
            raw, compress = (transform(info.filename, raw)
                             or (raw, zipfile.ZIP_STORED))
            zout.writestr(info.filename, raw, compress_type=compress)


class TestLayoutAgreement:
    """The layout wall: every section view :meth:`StoreFile.arrays`
    hands out — from one map per call — equals what ``numpy.load``
    reads for that member, byte for byte, on every kind of store."""

    @pytest.mark.parametrize("kind", ["monolithic", "tiled", "document",
                                      "oracle_v4", "tiled_v4"])
    def test_views_equal_numpy_load(self, layout_stores, kind):
        path = layout_stores[kind]
        with StoreFile(path) as store, np.load(path) as archive:
            views = store.arrays(store.names)
            copies = store.arrays(store.names, mmap=False)
            assert set(views) == set(archive.files) - {"meta.json"}
            for name, view in views.items():
                expected = archive[name]
                for array in (view, copies[name]):
                    assert array.dtype == expected.dtype, name
                    assert array.shape == expected.shape, name
                    assert array.tobytes() == expected.tobytes(), name
                assert not view.flags.writeable, name
                assert not view.flags.owndata, name
                assert map_of(copies[name]) is None, name
            assert len({id(map_of(view)) for view in views.values()}) == 1

    def test_reopen_parses_no_header(self, store_path):
        with StoreFile(store_path) as store:
            store.arrays(store.names)
        misses = _npy_header.cache_info().misses
        with StoreFile(store_path) as store:
            store.arrays(store.names)
        assert _npy_header.cache_info().misses == misses

    def test_npy_2_0_member_parses(self, store_path, built, tmp_path):
        """A header written as npy 2.0 (4-byte length) maps like 1.0."""
        path = tmp_path / "v2.store"

        def as_v2(name, raw):
            if name != "chains.npy":
                return None
            buffer = io.BytesIO()
            np.lib.format.write_array(
                buffer, np.load(io.BytesIO(raw)), version=(2, 0))
            return buffer.getvalue(), zipfile.ZIP_STORED

        _rewrite(store_path, path, as_v2)
        with zipfile.ZipFile(path) as archive:
            assert archive.read("chains.npy")[6:8] == b"\x02\x00"
        with StoreFile(path) as store, np.load(store_path) as archive:
            chains = store.array("chains")
            assert map_of(chains) is not None
            assert chains.tobytes() == archive["chains"].tobytes()
        with open_oracle(path) as stored:
            assert (stored.query_matrix() == built.query_matrix()).all()

    def test_deflated_member_loads_as_a_copy(self, store_path, tmp_path):
        path = tmp_path / "deflated.store"
        _rewrite(store_path, path, lambda name, raw: (
            (raw, zipfile.ZIP_DEFLATED) if name == "pair_keys.npy"
            else None))
        with StoreFile(path) as store, np.load(store_path) as archive:
            with pytest.warns(RuntimeWarning, match="zero-copy") as caught:
                views = store.arrays(store.names)
                store.array("pair_keys")  # warned once per file
            assert len(caught) == 1
            assert map_of(views["pair_keys"]) is None
            assert map_of(views["chains"]) is not None
            for name, view in views.items():
                assert view.tobytes() == archive[name].tobytes(), name

    def test_garbled_member_is_a_store_error(self, store_path, tmp_path):
        path = tmp_path / "garbled.store"
        _rewrite(store_path, path, lambda name, raw: (
            (b"not an npy member" + raw, zipfile.ZIP_STORED)
            if name == "chains.npy" else None))
        with StoreFile(path) as store:
            with pytest.raises(ValueError, match="not an npy array"):
                store.layout("chains")


def _directory_offset(path):
    """Where the zip central directory of ``path`` starts."""
    raw = pathlib.Path(path).read_bytes()
    return int.from_bytes(raw[-6:-2], "little")


def _meta_only_store(path, **fields):
    """A valid store of one ``meta.json`` member (no sections)."""
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("meta.json", json.dumps(
            {"format": "repro-se-oracle", "version": STORE_VERSION,
             **fields}))


class TestDirectoryMemo:
    """A reopen parses nothing the process has parsed: the member
    table, the meta member and the section layouts are memoised,
    keyed by the bytes of the file's zip directory."""

    def test_reopen_builds_no_zip_and_reads_no_local_header(
            self, store_path, monkeypatch):
        with StoreFile(store_path) as store:
            store.arrays(store.names)
        reads = []
        real_pread = os.pread

        def pread(fd, size, offset):
            reads.append(offset + size)
            return real_pread(fd, size, offset)

        def no_zip(*args, **kwargs):
            raise AssertionError("a reopen built a zipfile.ZipFile")

        monkeypatch.setattr(store_module.os, "pread", pread)
        monkeypatch.setattr(store_module.zipfile, "ZipFile", no_zip)
        hits = _directories.hits
        with open_oracle(store_path) as stored:
            assert stored.query(0, 7) == stored.query_batch([0], [7])[0]
        assert _directories.hits == hits + 1
        # Only reads that end at the end of the file: its tail.
        assert reads and set(reads) == {os.path.getsize(store_path)}

    def test_same_size_rewrite_in_place_parses_again(self, store_path,
                                                     tmp_path):
        """Overwrite a store in place with another store of the same
        size and restore its mtime: the file signature repeats, the
        directory does not, so the next open answers from the new
        bytes."""
        old, new, live = (tmp_path / name for name in
                          ("old.store", "new.store", "live.store"))
        _rewrite(store_path, old, lambda name, raw: None)

        def doubled(name, raw):
            if name == "pair_distances.npy":
                distances = np.load(io.BytesIO(raw))
                buffer = io.BytesIO()
                np.save(buffer, distances * 2)
                return buffer.getvalue(), zipfile.ZIP_STORED
            if name == "meta.json":
                fingerprint = json.loads(raw)["fingerprint"].encode()
                return (raw.replace(fingerprint, fingerprint[::-1]),
                        zipfile.ZIP_STORED)
            return None

        _rewrite(store_path, new, doubled)
        assert old.stat().st_size == new.stat().st_size
        live.write_bytes(old.read_bytes())
        with open_oracle(live) as stored:
            before = stored.query_matrix()
            fingerprint = stored.fingerprint
        stat = live.stat()
        signature = file_signature(live)
        with open(live, "r+b") as handle:
            handle.write(new.read_bytes())
        os.utime(live, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert file_signature(live) == signature
        loads = _directories.loads
        with open_oracle(live) as stored:
            assert stored.fingerprint == fingerprint[::-1]
            assert (stored.query_matrix() == 2 * before).all()
        assert _directories.loads == loads + 1

    @pytest.mark.parametrize("cut", ["last_byte", "half",
                                     "before_directory"])
    def test_truncated_store_fails_as_before(self, store_path, tmp_path,
                                             cut):
        """A store truncated on disk fails an open as zipfile does,
        while the memo still holds its old directory."""
        path = tmp_path / "cut.store"
        raw = pathlib.Path(store_path).read_bytes()
        path.write_bytes(raw)
        with StoreFile(path) as store:
            store.arrays(store.names)
        size = {"last_byte": len(raw) - 1, "half": len(raw) // 2,
                "before_directory": _directory_offset(store_path)}[cut]
        os.truncate(path, size)
        with pytest.raises(zipfile.BadZipFile) as expected:
            zipfile.ZipFile(io.BytesIO(raw[:size]))
        with pytest.raises(zipfile.BadZipFile) as caught:
            StoreFile(path)
        assert str(caught.value) == str(expected.value)
        with pytest.raises(zipfile.BadZipFile):
            open_oracle(path)

    def test_each_open_gets_its_own_meta(self, store_path):
        expected = read_store_meta(store_path)
        first = read_store_meta(store_path)
        first["stats"]["pairs_stored"] = -1
        first["tree"]["height"] = 99
        first["build"].clear()
        first["extra"] = True
        with StoreFile(store_path) as store:
            assert store.meta == expected
            store.meta["tree"]["root_id"] = -5
        with open_oracle(store_path) as stored:
            assert stored.meta == expected
            assert stored.tree_meta == expected["tree"]
        assert read_store_meta(store_path) == expected

    def test_memo_holds_exactly_its_bound(self, tmp_path):
        paths = [tmp_path / f"m{index}.store"
                 for index in range(_DIRECTORY_MEMO + 5)]
        for index, path in enumerate(paths):
            _meta_only_store(path, index=index)
            assert read_store_meta(path)["index"] == index
        assert len(_directories) == _DIRECTORY_MEMO
        hits, loads = _directories.hits, _directories.loads
        read_store_meta(paths[-1])    # still remembered
        read_store_meta(paths[0])     # evicted: parsed again
        assert (_directories.hits, _directories.loads) == (hits + 1,
                                                           loads + 1)
        assert len(_directories) == _DIRECTORY_MEMO

    def test_unremembered_tails_parse_at_every_open(self, tmp_path):
        """A zip comment moves the end record: no memo, and the open
        still answers."""
        path = tmp_path / "comment.store"
        _meta_only_store(path, commented=True)
        with zipfile.ZipFile(path, "a") as archive:
            archive.comment = b"a comment"
        loads = _directories.loads
        for _ in range(2):
            assert read_store_meta(path)["commented"] is True
        assert _directories.loads == loads

    def test_a_refused_file_is_not_remembered(self, tmp_path):
        path = tmp_path / "foreign.zip"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("meta.json", json.dumps({"format": "x"}))
        loads = _directories.loads
        for _ in range(2):
            with pytest.raises(ValueError, match="not a serialized"):
                StoreFile(path)
        assert _directories.loads == loads

    def test_deflated_member_inflates_on_a_remembered_open(
            self, store_path, tmp_path):
        """A hit builds its zip reader only to inflate a compressed
        member."""
        path = tmp_path / "deflated.store"
        _rewrite(store_path, path, lambda name, raw: (
            (raw, zipfile.ZIP_DEFLATED) if name == "pair_keys.npy"
            else None))
        StoreFile(path).close()
        hits = _directories.hits
        with StoreFile(path) as store, np.load(store_path) as archive:
            assert store._archive is None
            keys = store.array("pair_keys", mmap=False)
            assert keys.tobytes() == archive["pair_keys"].tobytes()
            assert store._archive is not None
        assert _directories.hits == hits + 1

    def test_a_large_directory_takes_a_second_read(self, tmp_path):
        """A directory longer than one tail read is still remembered."""
        path = tmp_path / "wide.store"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("meta.json", json.dumps(
                {"format": "repro-se-oracle", "version": STORE_VERSION}))
            for index in range(200):
                buffer = io.BytesIO()
                np.save(buffer, np.arange(index + 1))
                archive.writestr(f"section_{index:04d}.npy",
                                 buffer.getvalue())
        assert (path.stat().st_size - _directory_offset(path)
                > store_module._TAIL_READ)
        for expected_hits in (0, 1):
            hits = _directories.hits
            with StoreFile(path) as store:
                assert len(store.names) == 200
                assert (store.array("section_0199")
                        == np.arange(200)).all()
            assert _directories.hits == hits + expected_hits


class TestRehydration:
    def test_to_oracle_full_api(self, store_path, built, workload):
        full = open_oracle(store_path).to_oracle(workload)
        assert full.is_built and full.is_compiled
        assert full.height == built.height
        assert full.num_pairs == built.num_pairs
        full.tree.check_structure(workload.num_pois)
        n = workload.num_pois
        for source in range(n):
            for target in range(n):
                assert full.query(source, target) \
                    == built.query(source, target)

    def test_to_oracle_covering_pair(self, store_path, built, workload):
        full = open_oracle(store_path).to_oracle(workload)
        assert full.covering_pair(0, 7) == built.covering_pair(0, 7)

    def test_rehydration_wraps_the_mapped_sections(self, store_path,
                                                   built, workload):
        """Rehydration copies and rebuilds nothing per node or per pair:
        the tree columns and the pair hash are views of the store's
        one map, equal to the build's byte for byte."""
        with open_oracle(store_path) as stored:
            full = stored.to_oracle(workload)
            mapped = stored.compiled.pair_hash.frozen_arrays()["keys"].base
        assert isinstance(mapped, mmap.mmap)
        assert full.tree.table.base is mapped
        assert full.tree.radii.base is mapped
        assert full.pair_hash.frozen_arrays()["keys"].base is mapped
        assert full.tree.table.tobytes() == built.tree.table.tobytes()
        assert full.tree.radii.tobytes() == built.tree.radii.tobytes()
        for name, column in built.pair_hash.frozen_arrays().items():
            assert full.pair_hash.frozen_arrays()[name].tobytes() \
                == column.tobytes(), name
        assert full.query(0, 7) == built.query(0, 7)

    def test_load_oracle_sniffs_binary(self, store_path, workload,
                                       built):
        loaded = load_oracle(store_path, workload)
        assert loaded.query(1, 9) == built.query(1, 9)
        assert loaded.stats.pairs_stored == built.num_pairs

    def test_stats_and_build_metadata_survive(self, store_path,
                                              workload, built):
        full = open_oracle(store_path).to_oracle(workload)
        assert full.stats.height == built.stats.height
        assert full.stats.executor == built.stats.executor
        assert full.stats.jobs == built.stats.jobs

    def test_fresh_json_and_store_sizes_agree(self, store_path, workload,
                                              built, tmp_path):
        """One size model: the tree plus 16 bytes per stored pair,
        whichever way the oracle came to be."""
        document = tmp_path / "oracle.json"
        save_oracle(built, document, binary=False)
        loaded = [load_oracle(document, workload),
                  load_oracle(store_path, workload)]
        expected = built.tree.size_bytes() + 16 * built.num_pairs
        assert built.size_bytes() == expected
        assert [oracle.size_bytes() for oracle in loaded] \
            == [expected, expected]
        assert {oracle.compiled().size_bytes() for oracle in loaded} \
            == {built.compiled().size_bytes()}


class TestDocumentConversion:
    def test_json_to_binary_lossless(self, built, workload, tmp_path):
        json_path = tmp_path / "oracle.json"
        save_oracle(built, json_path, binary=False)
        document = json.loads(json_path.read_text())
        store = tmp_path / "oracle.store"
        pack_document(document, store)
        stored = open_oracle(store, engine=workload)
        n = workload.num_pois
        grid = np.arange(n, dtype=np.intp)
        batched = stored.query_batch(np.repeat(grid, n), np.tile(grid, n))
        expected = built.query_batch(np.repeat(grid, n), np.tile(grid, n))
        assert (batched == expected).all()

    def test_v1_document_upgrades(self, built, workload, tmp_path):
        json_path = tmp_path / "oracle.json"
        save_oracle(built, json_path, binary=False)
        document = json.loads(json_path.read_text())
        document["version"] = 1
        document.pop("build", None)
        document.pop("compiled", None)
        store = tmp_path / "v1.store"
        pack_document(document, store)
        stored = open_oracle(store)
        assert stored.query(0, 5) == built.query(0, 5)
        assert stored.build == {"executor": "serial", "jobs": 1}

    def test_bad_document_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pack_document({"format": "nope"}, tmp_path / "x.store")
        with pytest.raises(ValueError):
            pack_document({"format": "repro-se-oracle", "version": 99},
                          tmp_path / "y.store")


_HASH_SECTIONS = ("pair_keys", "pair_distances", "hash_level1",
                  "hash_level2_a", "hash_level2_shift",
                  "hash_level2_offset", "hash_slots")


def _hash_sections(path, prefix=""):
    with StoreFile(path) as store:
        sections = store.arrays([prefix + name for name in _HASH_SECTIONS],
                                mmap=False)
    return {name[len(prefix):]: array for name, array in sections.items()}


def assert_key_ordered(sections, frozen):
    """``sections`` (a store's) are ``frozen`` (an in-memory map's
    :meth:`frozen_arrays`) with the pairs in key order: the level
    tables byte for byte, and every filled slot naming the same pair."""
    keys, distances = sections["pair_keys"], sections["pair_distances"]
    assert (keys[1:] > keys[:-1]).all()
    assert sections["hash_level1"].tobytes() == frozen["level1"].tobytes()
    for name in ("level2_a", "level2_shift", "level2_offset"):
        assert sections["hash_" + name].tobytes() == frozen[name].tobytes()
    slots, frozen_slots = sections["hash_slots"], frozen["slots"]
    filled = frozen_slots >= 0
    assert ((slots >= 0) == filled).all()
    assert (keys[slots[filled]]
            == frozen["keys"][frozen_slots[filled]]).all()
    assert (distances[slots[filled]].tobytes()
            == frozen["values"][frozen_slots[filled]].tobytes())


class TestKeyOrderedPack:
    """Every writer packs the pair run in key order: store bytes
    depend on the pair set alone, never on pair generation order."""

    @pytest.fixture(scope="class")
    def document(self, built, tmp_path_factory):
        path = tmp_path_factory.mktemp("ordered") / "oracle.json"
        save_oracle(built, path, binary=False)
        return json.loads(path.read_text())

    def test_pack_oracle(self, store_path, built):
        assert read_store_meta(store_path)["pair_order"] == "key"
        assert_key_ordered(_hash_sections(store_path),
                           built.pair_hash.frozen_arrays())

    def test_pack_document(self, document, tmp_path):
        from repro.datastructures.perfect_hash import (PerfectHashMap,
                                                       pack_pair)
        path = tmp_path / "doc.store"
        pack_document(document, path)
        assert read_store_meta(path)["pair_order"] == "key"
        pairs = PerfectHashMap([(pack_pair(a, b), d)
                                for a, b, d in document["pairs"]],
                               seed=document["seed"])
        assert_key_ordered(_hash_sections(path), pairs.frozen_arrays())

    def test_pack_tiled(self, tmp_path):
        """Each tile's tables are the frozen tables of its own pair
        set, whatever order the pairs are inserted in."""
        from repro.datastructures.perfect_hash import PerfectHashMap
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=85)
        pois = sample_uniform(mesh, 12, seed=86)
        build = build_tiled_oracle(mesh, pois, 0.5, tiles=2, seed=87,
                                   points_per_edge=1)
        path = tmp_path / "tiled.store"
        pack_tiled(build, path)
        assert read_store_meta(path)["pair_order"] == "key"
        for tile in range(build.meta["tiles"]["count"]):
            sections = _hash_sections(path, f"tiles/{tile:04d}/")
            items = list(zip(sections["pair_keys"].tolist(),
                             sections["pair_distances"].tolist()))
            for order in (items, items[::-1]):
                pairs = PerfectHashMap(order, seed=build.meta["seed"])
                assert_key_ordered(sections, pairs.frozen_arrays())

    def test_pack_document_ignores_pair_order(self, document, tmp_path):
        reordered = dict(document, pairs=document["pairs"][::-1])
        pack_document(document, tmp_path / "forward.store")
        pack_document(reordered, tmp_path / "reverse.store")
        assert ((tmp_path / "forward.store").read_bytes()
                == (tmp_path / "reverse.store").read_bytes())

    def test_pack_oracle_ignores_pair_order(self, built, workload,
                                            document, tmp_path):
        """An oracle whose pair hash was filled in reverse packs to
        the same bytes as the build."""
        reordered = tmp_path / "reverse.json"
        reordered.write_text(json.dumps(
            dict(document, pairs=document["pairs"][::-1])))
        reverse = load_oracle(reordered, workload)
        assert list(reverse.pair_hash) != list(built.pair_hash)
        pack_oracle(built, tmp_path / "forward.store", canonical=True)
        pack_oracle(reverse, tmp_path / "reverse.store", canonical=True)
        assert ((tmp_path / "forward.store").read_bytes()
                == (tmp_path / "reverse.store").read_bytes())


class TestFrozenHashPersistence:
    """The persisted tables answer like the original map, batch and
    scalar lookups alike."""

    def test_batch_lookup_identical(self, store_path, built):
        stored = open_oracle(store_path)
        original = built.pair_hash
        keys = np.array(list(original), dtype=np.uint64)
        restored = stored.compiled.pair_hash
        assert (restored.get_batch(keys)
                == original.get_batch(keys)).all()
        missing = np.array([1, (1 << 40) + 7], dtype=np.uint64)
        assert np.isnan(restored.get_batch(missing)).all()

    def test_scalar_lookup_lazy_rebuild(self, store_path, built):
        stored = open_oracle(store_path)
        restored = stored.compiled.pair_hash
        for key, value in built.pair_hash.items():
            assert restored[key] == value
        assert 1 not in restored
        assert len(restored) == len(built.pair_hash)


#: A reader process: maps the store, answers, waits for a line on
#: stdin, answers again from the same handle.
_READER = """
import sys
from repro.core import open_oracle
with open_oracle(sys.argv[1]) as stored:
    before = stored.query_matrix()
    print("ready", flush=True)
    sys.stdin.readline()
    after = stored.query_matrix()
    print(int(stored.is_stale()), before.tobytes().hex(),
          after.tobytes().hex())
"""


class TestAtomicWrites:
    def test_mapped_reader_survives_a_pack_over_its_path(self, built,
                                                         tmp_path):
        """Packing a different (smaller) oracle over a mapped store's
        path publishes a new inode: the reader keeps answering from
        the generation it opened and sees it is stale.  A rewrite in
        place would truncate the mapped file under it (SIGBUS)."""
        path = tmp_path / "served.store"
        pack_oracle(built, path)
        mesh = make_terrain(grid_exponent=2, seed=85)
        smaller = SEOracle(GeodesicEngine(mesh, sample_uniform(mesh, 4,
                                                               seed=86)),
                           epsilon=0.5, seed=1).build()
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        with subprocess.Popen(
                [sys.executable, "-c", _READER, str(path)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=env) as reader:
            assert reader.stdout.readline().strip() == "ready"
            size = path.stat().st_size
            pack_oracle(smaller, path)
            assert path.stat().st_size < size
            out, _ = reader.communicate("go\n", timeout=120)
        assert reader.returncode == 0, f"reader died ({reader.returncode})"
        stale, before, after = out.split()
        assert stale == "1"
        assert before == after == built.query_matrix().tobytes().hex()
        assert os.listdir(tmp_path) == ["served.store"]
