"""Tests for the FKS perfect hashing scheme and pair packing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datastructures import PerfectHashMap, pack_pair, unpack_pair


class TestPairPacking:
    def test_roundtrip(self):
        assert unpack_pair(pack_pair(3, 9)) == (3, 9)

    def test_order_matters(self):
        assert pack_pair(1, 2) != pack_pair(2, 1)

    def test_zero_pair(self):
        assert unpack_pair(pack_pair(0, 0)) == (0, 0)

    def test_large_ids(self):
        big = (1 << 32) - 1
        assert unpack_pair(pack_pair(big, big)) == (big, big)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pack_pair(-1, 0)
        with pytest.raises(ValueError):
            pack_pair(1 << 32, 0)

    @given(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1))
    def test_roundtrip_property(self, u, v):
        assert unpack_pair(pack_pair(u, v)) == (u, v)

    @given(st.tuples(st.integers(0, 2**20), st.integers(0, 2**20)),
           st.tuples(st.integers(0, 2**20), st.integers(0, 2**20)))
    def test_packing_is_injective(self, p, q):
        if p != q:
            assert pack_pair(*p) != pack_pair(*q)


class TestPerfectHashMap:
    def test_empty_map(self):
        table = PerfectHashMap([])
        assert len(table) == 0
        assert 0 not in table
        assert table.get(5) is None

    def test_single_entry(self):
        table = PerfectHashMap([(42, 4.25)])
        assert table[42] == 4.25
        assert 42 in table
        assert 41 not in table

    def test_missing_key_raises(self):
        table = PerfectHashMap([(1, 0.5)])
        with pytest.raises(KeyError):
            table[2]

    def test_get_with_default(self):
        table = PerfectHashMap([(1, 0.5)])
        assert table.get(2, "dflt") == "dflt"
        assert table.get(1) == 0.5

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            PerfectHashMap([(1, "a"), (1, "b")])

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            PerfectHashMap([(-3, "a")])

    def test_keys_beyond_uint64_rejected(self):
        with pytest.raises(ValueError):
            PerfectHashMap([(7, 1.0), (1 << 64, 2.0)])

    def test_negative_lookup_is_miss(self):
        table = PerfectHashMap([(1, 0.5)])
        assert -1 not in table
        assert (1 << 64) + 1 not in table

    def test_keys_congruent_modulo_mersenne_prime(self):
        """0 and 2^61-1 are one residue modulo the Mersenne prime a
        modular universal hash would use; both must answer."""
        prime = (1 << 61) - 1
        table = PerfectHashMap([(0, 1.5), (prime, 2.5)], seed=3)
        assert table.get(0) == 1.5 and table.get(prime) == 2.5
        assert 0 in table and prime in table
        assert table[0] == 1.5 and table[prime] == 2.5
        probes = np.array([0, prime, 2 * prime, 1], dtype=np.uint64)
        assert table.get_batch(probes, default=-1.0).tolist() \
            == [1.5, 2.5, -1.0, -1.0]

    def test_all_entries_retrievable(self):
        entries = [(i * 7 + 1, i) for i in range(500)]
        table = PerfectHashMap(entries, seed=3)
        for key, value in entries:
            assert table[key] == value

    def test_non_keys_are_misses(self):
        keys = set(range(0, 1000, 3))
        table = PerfectHashMap([(k, k) for k in keys])
        for probe in range(1000):
            assert (probe in table) == (probe in keys)

    def test_iteration_and_items(self):
        entries = [(5, 0.5), (9, 0.25), (2, 0.125)]
        table = PerfectHashMap(entries)
        assert set(table) == {5, 9, 2}
        assert dict(table.items()) == dict(entries)

    def test_space_is_linear(self):
        """The construction's own rule: level one re-draws until the
        squared bucket sizes sum to at most 8n, and every bucket of b
        keys gets fewer than 4 b² slots (2 for a singleton), after one
        shared 2-slot empty region."""
        n = 2000
        table = PerfectHashMap([(i * 13 + 5, 1.0) for i in range(n)])
        frozen = table.frozen_arrays()
        level1_a, level1_shift = frozen["level1"]
        buckets = (level1_a * frozen["keys"]) >> level1_shift
        squares = int(np.sum(np.bincount(buckets.astype(np.int64)) ** 2))
        assert squares <= 8 * n
        assert frozen["slots"].size < 2 + 4 * squares

    def test_packed_pair_keys(self):
        pairs = [(i, j) for i in range(20) for j in range(20)]
        table = PerfectHashMap(
            [(pack_pair(u, v), float(100 * u + v)) for u, v in pairs],
            seed=1
        )
        for u, v in pairs:
            assert table[pack_pair(u, v)] == 100 * u + v
        assert pack_pair(25, 25) not in table


class TestBatchLookup:
    """get_batch agrees with get, key for key, on float-valued maps."""

    def test_present_keys(self):
        entries = [(i * 13 + 5, float(i) * 1.7) for i in range(800)]
        table = PerfectHashMap(entries, seed=9)
        keys = np.array([key for key, _ in entries], dtype=np.uint64)
        values = table.get_batch(keys)
        assert values.dtype == np.float64
        assert all(values[i] == table.get(int(keys[i]))
                   for i in range(keys.size))

    def test_absent_keys_hit_default(self):
        table = PerfectHashMap([(3, 1.5), (9, 2.5)], seed=1)
        probes = np.array([3, 4, 9, 10, 2**63], dtype=np.uint64)
        values = table.get_batch(probes, default=-1.0)
        assert values.tolist() == [1.5, -1.0, 2.5, -1.0, -1.0]
        assert np.isnan(table.get_batch(np.array([4],
                                                 dtype=np.uint64)))[0]

    def test_shape_preserved(self):
        table = PerfectHashMap([(i, float(i)) for i in range(12)])
        probes = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert table.get_batch(probes).shape == (3, 4)
        assert (table.get_batch(probes)
                == probes.astype(np.float64)).all()

    def test_empty_map(self):
        table = PerfectHashMap([])
        values = table.get_batch(np.array([1, 2], dtype=np.uint64))
        assert np.isnan(values).all()

    def test_packed_pair_keys_including_sentinels(self):
        """The compiled oracle's -1-padded keys must probe as misses."""
        pairs = [(u, v) for u in range(15) for v in range(15)]
        table = PerfectHashMap(
            [(pack_pair(u, v), float(u * 100 + v)) for u, v in pairs],
            seed=4)
        mask = np.uint64(0xFFFFFFFF)
        padded = (mask << np.uint64(32)) | np.uint64(3)  # source id -1
        probes = np.array([pack_pair(2, 7), padded, pack_pair(14, 0)],
                          dtype=np.uint64)
        values = table.get_batch(probes)
        assert values[0] == 207.0
        assert np.isnan(values[1])
        assert values[2] == 1400.0

    def test_non_float_values_rejected(self):
        for values in (["a", "b"], [None, 1.0], [(1, 2), (3, 4)]):
            with pytest.raises(TypeError):
                PerfectHashMap(list(zip([1, 2], values)))

    def test_deterministic_frozen_tables(self):
        entries = [(i * 7, float(i)) for i in range(200)]
        one = PerfectHashMap(entries, seed=5).frozen_arrays()
        two = PerfectHashMap(entries, seed=5).frozen_arrays()
        assert (one["level1"] == two["level1"]).all()
        assert (one["slots"] == two["slots"]).all()

    # Keys and probes span the whole uint64 domain: get, in and
    # get_batch must agree with a dict on every one of them.
    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(0, 2**64 - 1), st.floats(
        allow_nan=False, allow_infinity=True), min_size=1, max_size=120),
        st.integers(0, 2**16))
    @example({0: 1.0, 2**61 - 1: 2.0, 2**64 - 1: 3.0}, 0)
    def test_matches_scalar_get_property(self, entries, seed):
        table = PerfectHashMap(list(entries.items()), seed=seed)
        present = np.array(list(entries), dtype=np.uint64)
        rng = np.random.default_rng(seed)
        absent = rng.integers(0, 2**64, size=50, dtype=np.uint64)
        probes = np.concatenate([present, absent])
        values = table.get_batch(probes, default=np.inf)
        for index, probe in enumerate(probes.tolist()):
            expected = entries.get(probe, np.inf)
            assert values[index] == expected
            assert table.get(probe, np.inf) == expected
            assert (probe in table) == (probe in entries)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 2**40), st.floats(allow_nan=False),
                       max_size=150),
       st.integers(0, 2**16))
def test_behaves_like_dict(entries, seed):
    table = PerfectHashMap(list(entries.items()), seed=seed)
    assert len(table) == len(entries)
    for key, value in entries.items():
        assert table[key] == value
    for probe in list(entries)[:10]:
        assert table.get(probe + 1, "miss") == entries.get(probe + 1, "miss")
