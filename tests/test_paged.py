"""Page-pool serving tests: bit-identity under eviction pressure.

:class:`~repro.core.paged.PagedOracle` promises that paging is
invisible to answers — the pool changes *where* the pair/hash bytes
come from, never *which* element a probe reads — so every test here
demands bit-identity against the unpaged mmap oracle while forcing the
pool through its worst regimes: a pool smaller than a single batch's
candidate set, eviction churn in the middle of ``query_matrix``, and
repeated workloads that must turn misses into hits.  The ledger is
checked as an accounting system: loads minus evictions must equal the
resident page count and the peak must respect the configured budget.

Satellite coverage: the zero-copy fallback tests pin
:func:`~repro.core.store.read_store`'s per-section ``zero_copy`` meta,
the one-shot ``RuntimeWarning`` on compressed stores, and the
``non_zero_copy_sections`` surfacing in ``StoredOracle`` stats; a
store truncated under a paged terrain, or whose key run does not
ascend, answers a store error, and a store packed before the key
order is refused paged.
"""

import os
import shutil
import warnings
import zipfile

import numpy as np
import pytest

from repro.core import SEOracle, open_oracle, pack_oracle
from repro.core.paged import PAGED_SECTIONS, PagedOracle
from repro.core.store import read_store, section_layouts
from repro.geodesic import GeodesicEngine
from repro.serving import OracleService, TerrainSpec
from repro.serving.protocol import classify_exception
from repro.terrain import make_terrain, sample_uniform

NUM_POIS = 24


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    """One packed store + its unpaged oracle, shared by the module."""
    path = tmp_path_factory.mktemp("paged") / "oracle.store"
    mesh = make_terrain(grid_exponent=4, extent=(200.0, 200.0),
                        relief=30.0, seed=11)
    pois = sample_uniform(mesh, NUM_POIS, seed=12)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    oracle = SEOracle(engine, 0.25, seed=13).build()
    pack_oracle(oracle, path)
    return str(path), open_oracle(path)


def _full_grid(n):
    grid = np.arange(n, dtype=np.intp)
    return np.repeat(grid, n), np.tile(grid, n)


def _pageable_bytes(path):
    _, layouts = section_layouts(path)
    return sum(int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
               for name, (offset, dtype, shape) in layouts.items()
               if name in PAGED_SECTIONS)


class TestPoolSmallerThanBatch:
    def test_one_tiny_page_answers_full_grid_batch(self, packed):
        """A single 64-byte page (8 elements) cannot hold even one
        batch's candidate set; the gather loop must page through it
        and still answer bit-identically."""
        path, unpaged = packed
        paged = PagedOracle(path, page_bytes=64, max_pages=1)
        sources, targets = _full_grid(NUM_POIS)
        assert (paged.query_batch(sources, targets)
                == unpaged.query_batch(sources, targets)).all()
        ledger = paged.page_counters()
        assert ledger["max_pages"] == 1
        assert ledger["evictions"] > 0
        assert ledger["loads"] - ledger["evictions"] \
            == ledger["resident_pages"] == 1
        assert ledger["peak_resident_bytes"] <= 64
        paged.close()

    def test_minimum_budget_single_element_pages(self, packed):
        """The degenerate bound: an 8-byte budget means one-element
        pages — every gathered element is its own load."""
        path, unpaged = packed
        paged = PagedOracle(path, max_resident_bytes=8)
        sources, targets = _full_grid(NUM_POIS)
        assert (paged.query_batch(sources, targets)
                == unpaged.query_batch(sources, targets)).all()
        assert paged.page_counters()["page_bytes"] == 8
        paged.close()


class TestEvictionMidMatrix:
    def test_matrix_bit_identical_while_evicting(self, packed):
        """query_matrix spans every candidate row; with a two-page
        pool the matrix cannot complete without evicting pages loaded
        earlier in the same call."""
        path, unpaged = packed
        paged = PagedOracle(path, page_bytes=256, max_pages=2)
        before = paged.page_counters()["evictions"]
        matrix = paged.query_matrix()
        after = paged.page_counters()["evictions"]
        assert after > before, "matrix never evicted mid-call"
        assert (matrix == unpaged.query_matrix()).all()
        paged.close()


class TestLedgerAccounting:
    def test_loads_evictions_hits_reconcile(self, packed):
        path, _ = packed
        paged = PagedOracle(path, page_bytes=1024, max_pages=128)
        sources, targets = _full_grid(NUM_POIS)
        paged.query_batch(sources, targets)
        first = paged.page_counters()
        assert first["loads"] - first["evictions"] \
            == first["resident_pages"]
        assert first["resident_bytes"] \
            <= first["page_bytes"] * first["max_pages"]
        assert first["peak_resident_bytes"] <= first["budget_bytes"]
        assert first["fixed_bytes"] > 0
        paged.query_batch(sources, targets)
        second = paged.page_counters()
        assert second["hits"] > first["hits"]
        paged.close()

    def test_fixed_bytes_count_the_nearest_column(self, packed):
        """The column is resident state, read at open; so are the
        chains with their four key planes and the fences (the first key
        of every key page plus the run's last).  The tree tables are
        not: nothing on the paged path reads them."""
        path, _ = packed
        _, layouts = section_layouts(path)
        nbytes = {
            name: int(np.prod(shape)) * dtype.itemsize
            for name, (_, dtype, shape) in layouts.items()
        }
        column = nbytes["nn_distance"]
        assert column == 8 * NUM_POIS
        with PagedOracle(path, page_bytes=1024, max_pages=4) as paged:
            key_pages = -(-nbytes["pair_keys"] // 1024)
            routing = 5 * nbytes["chains"] + 8 * (key_pages + 1)
            assert paged.fixed_bytes == routing + column

    def test_unbounded_pool_loads_each_page_once(self, packed):
        """With room for everything, the second pass is all hits and
        nothing is ever evicted."""
        path, _ = packed
        paged = PagedOracle(path, page_bytes=4096)  # unbounded pages
        sources, targets = _full_grid(NUM_POIS)
        paged.query_batch(sources, targets)
        loads = paged.page_counters()["loads"]
        paged.query_batch(sources, targets)
        ledger = paged.page_counters()
        assert ledger["loads"] == loads
        assert ledger["evictions"] == 0
        paged.close()

    def test_scalar_query_matches_unpaged(self, packed):
        path, unpaged = packed
        paged = PagedOracle(path, page_bytes=128, max_pages=2)
        for source in range(0, NUM_POIS, 5):
            for target in range(NUM_POIS):
                assert paged.query(source, target) \
                    == unpaged.query(source, target)
        paged.close()


class TestOpenDispatchAndErrors:
    def test_open_oracle_budget_returns_paged(self, packed):
        path, unpaged = packed
        stored = open_oracle(path, max_resident_bytes=4096)
        assert isinstance(stored, PagedOracle)
        assert stored.num_pois == unpaged.num_pois
        assert stored.num_pairs == unpaged.num_pairs
        sources, targets = _full_grid(NUM_POIS)
        assert (stored.query_batch(sources, targets)
                == unpaged.query_batch(sources, targets)).all()
        stored.close()

    def test_budget_below_one_element_rejected(self, packed):
        path, _ = packed
        with pytest.raises(ValueError, match="max_resident_bytes"):
            PagedOracle(path, max_resident_bytes=7)

    def test_page_bytes_must_be_element_aligned(self, packed):
        path, _ = packed
        with pytest.raises(ValueError, match="page_bytes"):
            PagedOracle(path, page_bytes=100, max_pages=2)

    def test_out_of_range_ids_still_raise(self, packed):
        path, _ = packed
        paged = PagedOracle(path, page_bytes=256, max_pages=2)
        with pytest.raises(IndexError):
            paged.query(0, NUM_POIS)
        with pytest.raises(IndexError):
            paged.query_batch([0], [NUM_POIS + 3])
        paged.close()

    def test_build_order_store_refused_at_open_and_registration(self):
        """A store packed before the key-ordered pair run (the
        committed fixture) cannot be paged: opening and registering it
        paged refuse from its meta, naming the fix; unpaged it still
        serves."""
        fixture = os.path.join(os.path.dirname(__file__), "data",
                               "oracle_v4.store")
        with pytest.raises(ValueError, match="key order"):
            PagedOracle(fixture, max_resident_bytes=4096)
        with OracleService() as service:
            with pytest.raises(ValueError, match="re-pack"):
                service.register("f", TerrainSpec(
                    fixture, max_resident_bytes=4096))
            assert service.terrains() == []
            service.register("f", TerrainSpec(fixture))
            assert service.query_batch("f", [0], [0]).tolist() == [0.0]

    def test_tiled_store_refuses_byte_budget(self, tmp_path):
        from repro.core import build_tiled_oracle, pack_tiled
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=31)
        pois = sample_uniform(mesh, 10, seed=32)
        build = build_tiled_oracle(mesh, pois, 0.5, tiles=2, seed=33,
                                   points_per_edge=1)
        path = tmp_path / "tiled.store"
        pack_tiled(build, path)
        with pytest.raises(ValueError, match="max_resident_tiles"):
            open_oracle(path, max_resident_bytes=4096)
        with pytest.raises(ValueError, match="tile"):
            PagedOracle(str(path), max_resident_bytes=4096)


def _recompress(src, dst, names):
    """Copy a store, rewriting ``names`` members as ZIP_DEFLATED."""
    with zipfile.ZipFile(src) as zin, \
            zipfile.ZipFile(dst, "w") as zout:
        for info in zin.infolist():
            compress = (zipfile.ZIP_DEFLATED
                        if info.filename in names
                        else zipfile.ZIP_STORED)
            zout.writestr(info.filename, zin.read(info.filename),
                          compress_type=compress)


class TestZeroCopyFallback:
    def test_pristine_store_is_all_zero_copy(self, packed):
        path, _ = packed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            meta, _ = read_store(path)
        assert meta["sections"]
        assert all(entry["zero_copy"]
                   for entry in meta["sections"].values())

    def test_compressed_sections_warn_and_are_recorded(
            self, packed, tmp_path):
        path, _ = packed
        squeezed = tmp_path / "squeezed.store"
        _recompress(path, squeezed,
                    {"pair_keys.npy", "pair_distances.npy"})
        with pytest.warns(RuntimeWarning, match="zero-copy"):
            meta, _ = read_store(squeezed)
        assert meta["sections"]["pair_keys"]["zero_copy"] is False
        assert meta["sections"]["pair_distances"]["zero_copy"] is False
        assert meta["sections"]["chains"]["zero_copy"] is True

    def test_no_warning_when_mmap_not_requested(self, packed, tmp_path):
        path, _ = packed
        squeezed = tmp_path / "squeezed.store"
        _recompress(path, squeezed, {"pair_keys.npy"})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            meta, _ = read_store(squeezed, mmap=False)
        assert meta["sections"]["pair_keys"]["zero_copy"] is False

    def test_stored_oracle_stats_surface_eager_sections(
            self, packed, tmp_path):
        path, unpaged = packed
        squeezed = tmp_path / "squeezed.store"
        _recompress(path, squeezed, {"pair_keys.npy", "chains.npy"})
        with pytest.warns(RuntimeWarning, match="zero-copy"):
            stored = open_oracle(squeezed)
        assert stored.stats["non_zero_copy_sections"] \
            == ["chains", "pair_keys"]
        assert unpaged.stats["non_zero_copy_sections"] == []
        # The eager fallback still answers bit-identically.
        sources, targets = _full_grid(NUM_POIS)
        assert (stored.query_batch(sources, targets)
                == unpaged.query_batch(sources, targets)).all()

    def test_compressed_store_rejected_by_section_layouts(
            self, packed, tmp_path):
        """The paged path cannot serve compressed members — the
        layout scan refuses instead of paging garbage bytes."""
        path, _ = packed
        squeezed = tmp_path / "squeezed.store"
        _recompress(path, squeezed, {"pair_keys.npy"})
        with pytest.raises(ValueError, match="compress"):
            section_layouts(squeezed)


class TestTruncatedStore:
    def test_short_read_is_a_store_error(self, packed, tmp_path):
        """A paged terrain reads pages by positional reads, so a store
        truncated in place under it answers a typed store error (the
        wire's ``internal``), not the client-input ``bad-value``.  The
        cut falls inside ``pair_distances``, the last paged byte."""
        path, _ = packed
        copy = tmp_path / "truncated.store"
        shutil.copyfile(path, copy)
        offset, _, _ = section_layouts(copy)[1]["pair_distances"]
        with OracleService() as service:
            service.register("p", TerrainSpec(copy, max_resident_bytes=64))
            service.k_nearest("p", 0, 3)
            os.truncate(copy, offset + 8)
            with pytest.raises(OSError) as caught:
                service.k_nearest("p", 1, 3)
        assert classify_exception(caught.value)[0] == "internal"


class TestDamagedRun:
    """A key run that does not strictly ascend is a damaged store: a
    store error (``OSError``, the wire's ``internal``), never an
    answer."""

    @staticmethod
    def _swap_keys(path, copy, first, second):
        """Copy ``path`` with pair keys ``first`` and ``second`` swapped
        in place."""
        shutil.copyfile(path, copy)
        offset = section_layouts(copy)[1]["pair_keys"][0]
        with open(copy, "r+b") as handle:
            handle.seek(offset + 8 * first)
            one = handle.read(8)
            handle.seek(offset + 8 * second)
            two = handle.read(8)
            handle.seek(offset + 8 * second)
            handle.write(one)
            handle.seek(offset + 8 * first)
            handle.write(two)

    def test_fences_out_of_order_refuse_to_open(self, packed, tmp_path):
        path, _ = packed
        copy = tmp_path / "fences.store"
        self._swap_keys(path, copy, 0, 8)  # the first keys of pages 0, 1
        with pytest.raises(OSError, match="damaged") as caught:
            PagedOracle(str(copy), page_bytes=64, max_pages=4)
        assert classify_exception(caught.value)[0] == "internal"

    def test_key_page_out_of_order_is_a_store_error(self, packed, tmp_path):
        path, _ = packed
        copy = tmp_path / "page.store"
        self._swap_keys(path, copy, 1, 2)  # inside key page 0
        with PagedOracle(str(copy), page_bytes=64, max_pages=4) as paged:
            first = paged.compiled.pair_hash.fences[:1]
            with pytest.raises(OSError, match="damaged"):
                paged.compiled.pair_hash.get_batch(first)
            assert paged.page_counters()["resident_pages"] == 0

