"""Rebuild-equivalence fuzz wall for the sublinear incremental flush.

PR-8 headline invariant: an incrementally-flushed oracle is
*bit-identical* to a freshly built one over the same live POI set —
every compiled section array-for-array, every query answer, and the
packed store byte-for-byte (under the canonical pack).  The suite
drives seeded churn traces (insert-only, delete-only, mixed; several
rebuild factors) through two identically-churned dynamic oracles and
compares the incremental path against ``force_rebuild``.
"""

import random

import numpy as np
import pytest

from repro.core import DynamicSEOracle, SEOracle
from repro.core.store import open_oracle, oracle_sections, pack_oracle
from repro.geodesic import GeodesicEngine, euclidean_weight
from repro.terrain import POISet, make_terrain, sample_uniform

EPSILON = 0.25
STAT_KEYS = {"reused_rows", "computed_rows"}


def make_oracle(seed, num_pois=12, rebuild_factor=10.0):
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=seed)
    pois = sample_uniform(mesh, num_pois, seed=seed + 1)
    return DynamicSEOracle(mesh, pois, epsilon=EPSILON,
                           rebuild_factor=rebuild_factor,
                           seed=1).build()


def draw_trace(seed, oracle, kind, steps=4):
    """A reproducible churn trace valid for ``oracle``'s live set."""
    rng = random.Random(10_000 + seed)
    live = [int(i) for i in oracle.live_ids()]
    trace = []
    for step in range(steps):
        deletable = len(live) > 3 and kind in ("delete", "mixed")
        insertable = kind in ("insert", "mixed")
        if deletable and (not insertable or rng.random() < 0.5):
            victim = live.pop(rng.randrange(len(live)))
            trace.append(("delete", victim))
        elif insertable:
            trace.append(("insert", rng.uniform(5.0, 95.0),
                          rng.uniform(5.0, 95.0)))
    return trace


def apply_trace(oracle, trace):
    for action in trace:
        if action[0] == "insert":
            oracle.insert(action[1], action[2])
        else:
            oracle.delete(action[1])


def assert_sections_identical(left, right):
    left_sections = oracle_sections(left)
    right_sections = oracle_sections(right)
    assert left_sections.keys() == right_sections.keys()
    for name, array in left_sections.items():
        other = right_sections[name]
        assert array.dtype == other.dtype, name
        assert array.shape == other.shape, name
        assert np.array_equal(array, other), (
            f"section {name!r} differs between incremental flush "
            "and force_rebuild"
        )


class TestSplicedTablesEqualReference:
    """flush() == force_rebuild, array-for-array."""

    @pytest.mark.parametrize("seed", [41, 43, 47])
    @pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
    def test_sections_bit_identical(self, seed, kind):
        incremental = make_oracle(seed)
        reference = make_oracle(seed)
        trace = draw_trace(seed, incremental, kind)
        assert trace, "empty churn trace drawn"
        apply_trace(incremental, trace)
        apply_trace(reference, trace)

        stats = incremental.flush()
        reference.force_rebuild()

        assert set(stats) == STAT_KEYS
        assert_sections_identical(incremental.oracle, reference.oracle)
        ids = incremental.live_ids()
        assert np.array_equal(ids, reference.live_ids())
        assert np.array_equal(incremental.query_matrix(),
                              reference.query_matrix())

    @pytest.mark.parametrize("rebuild_factor", [0.5, 2.0])
    def test_survives_amortised_mid_trace_rebuilds(self, rebuild_factor):
        """Low rebuild factors trigger rebuilds *inside* the trace;
        the memo must stay coherent across its own generations."""
        incremental = make_oracle(53, rebuild_factor=rebuild_factor)
        reference = make_oracle(53, rebuild_factor=rebuild_factor)
        trace = draw_trace(53, incremental, "mixed", steps=8)
        apply_trace(incremental, trace)
        apply_trace(reference, trace)
        assert incremental.rebuild_count == reference.rebuild_count

        incremental.flush()
        reference.force_rebuild()
        assert_sections_identical(incremental.oracle, reference.oracle)

    def test_explicit_full_flush_is_force_rebuild(self):
        oracle = make_oracle(59)
        oracle.insert(33.0, 44.0)
        oracle.force_rebuild()
        stats = oracle.last_flush_stats
        assert set(stats) == STAT_KEYS
        assert stats["reused_rows"] == 0
        assert stats["computed_rows"] > 0


class TestCanonicalRepackByteIdentity:
    """Packed stores are byte-identical after the canonical repack."""

    def test_incremental_and_full_pack_identically(self, tmp_path):
        incremental = make_oracle(61)
        reference = make_oracle(61)
        trace = draw_trace(61, incremental, "mixed")
        apply_trace(incremental, trace)
        apply_trace(reference, trace)
        incremental.flush()
        reference.force_rebuild()

        left = tmp_path / "incremental.sestore"
        right = tmp_path / "reference.sestore"
        pack_oracle(incremental.oracle, left, canonical=True)
        pack_oracle(reference.oracle, right, canonical=True)
        assert left.read_bytes() == right.read_bytes()

    def test_idempotent_flush_reuses_every_section(self, tmp_path):
        """No churn → the next generation packs every section byte
        for byte as the previous store."""
        oracle = make_oracle(71)
        gen0 = tmp_path / "gen0.sestore"
        pack_oracle(oracle.oracle, gen0, canonical=True)
        oracle.flush()  # no pending updates: pure replay
        gen1 = tmp_path / "gen1.sestore"
        pack_oracle(oracle.oracle, gen1, canonical=True)
        assert gen0.read_bytes() == gen1.read_bytes()


class TestReuseAccounting:
    def test_noop_flush_recomputes_nothing(self):
        oracle = make_oracle(73)
        stats = oracle.flush()
        assert stats["computed_rows"] == 0
        assert stats["reused_rows"] > 0

    def test_delete_only_flush_reuses_most_rows(self):
        oracle = make_oracle(79)
        live = [int(i) for i in oracle.live_ids()]
        oracle.delete(live[2])
        oracle.delete(live[7])
        stats = oracle.flush()
        assert stats["reused_rows"] > stats["computed_rows"]

    def test_flush_returns_copy_of_last_stats(self):
        oracle = make_oracle(83)
        oracle.insert(20.0, 80.0)
        stats = oracle.flush()
        assert stats == oracle.last_flush_stats
        stats["reused_rows"] = -1
        assert oracle.last_flush_stats["reused_rows"] != -1


class TestFlushSteps:
    """``prepare_flush`` → its build → ``install_flush``: the three
    steps every flush runs."""

    def test_prepared_flush_matches_reference(self):
        incremental = make_oracle(89)
        reference = make_oracle(89)
        trace = draw_trace(89, incremental, "mixed")
        apply_trace(incremental, trace)
        apply_trace(reference, trace)

        build = incremental.prepare_flush()
        stats = incremental.install_flush(build())
        reference.force_rebuild()

        assert set(stats) == STAT_KEYS
        assert stats == incremental.last_flush_stats
        assert_sections_identical(incremental.oracle, reference.oracle)

    def test_queries_answer_until_install(self):
        oracle = make_oracle(97)
        inserted = oracle.insert(40.0, 60.0)
        base = int(oracle.live_ids()[0])
        expected = oracle.query(inserted, base)
        build = oracle.prepare_flush()
        assert oracle.query(inserted, base) == expected
        fresh = build()
        # Built but not installed: readers keep the pre-flush
        # (overlay) answers.
        assert oracle.query(inserted, base) == expected
        assert oracle.has_pending_updates
        oracle.install_flush(fresh)
        assert not oracle.has_pending_updates

    def test_abandoned_flush_leaves_oracle_intact(self):
        oracle = make_oracle(101)
        oracle.insert(25.0, 75.0)
        rebuilds = oracle.rebuild_count
        before = oracle.query_matrix()
        oracle.prepare_flush()()  # built, never installed
        assert oracle.rebuild_count == rebuilds
        assert oracle.has_pending_updates
        assert np.array_equal(oracle.query_matrix(), before)
        # A later flush still lands.
        oracle.flush()
        assert not oracle.has_pending_updates
        assert oracle.rebuild_count == rebuilds + 1

    def test_mid_flight_mutation_is_detected(self):
        oracle = make_oracle(103)
        oracle.insert(30.0, 30.0)
        build = oracle.prepare_flush()
        oracle.insert(70.0, 70.0)  # changes the active set mid-flush
        fresh = build()
        with pytest.raises(RuntimeError, match="changed while"):
            oracle.install_flush(fresh)
        assert oracle.has_pending_updates

    def test_prepare_requires_a_built_oracle(self):
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=107)
        pois = sample_uniform(mesh, 12, seed=108)
        unbuilt = DynamicSEOracle(mesh, pois, epsilon=EPSILON)
        with pytest.raises(RuntimeError, match="not built"):
            unbuilt.prepare_flush()
        with pytest.raises(RuntimeError, match="not built"):
            unbuilt.flush()


class TestFlushEngine:
    """A flush engine attaches the active POIs to the previous engine's
    site-free graph core.  It must equal a from-scratch engine over
    the same POIs, and the flushed oracle one built over such an
    engine (``force_rebuild`` shares the core too, so it is no
    reference here)."""

    @pytest.mark.parametrize("seed", [41, 47])
    @pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
    @pytest.mark.parametrize("rebuild", ["flush", "force_rebuild"])
    def test_rebuild_engine_equals_a_from_scratch_engine(self, seed, kind, rebuild):
        oracle = make_oracle(seed)
        core = oracle.engine.graph.core
        apply_trace(oracle, draw_trace(seed, oracle, kind))
        getattr(oracle, rebuild)()
        engine = oracle.engine
        assert engine.graph.core is core
        fresh = GeodesicEngine(engine.mesh, engine.pois, points_per_edge=1)
        for name in ("indptr", "indices", "weights"):
            got = getattr(engine.graph.csr, name)
            want = getattr(fresh.graph.csr, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert engine.graph.csr.num_overlay == 0
        hosts = [engine.poi_node(i) for i in range(engine.num_pois)]
        assert hosts == [fresh.poi_node(i) for i in range(fresh.num_pois)]
        placement = core.placement
        expected = fresh.graph.core.placement
        assert placement.points_per_edge == expected.points_per_edge
        assert placement.positions.tobytes() == expected.positions.tobytes()
        assert placement.edges.tobytes() == expected.edges.tobytes()
        boundary = fresh.graph.core.face_boundary
        assert core.face_boundary.tobytes() == boundary.tobytes()
        reference = SEOracle(fresh, EPSILON, seed=1).build()
        assert_sections_identical(oracle.oracle, reference)

    def test_inserts_and_flushes_leave_the_core_unchanged(self):
        oracle = make_oracle(43)
        core = oracle.engine.graph.core
        arrays = (core.indptr, core.indices, core.weights, core.points)
        before = [array.copy() for array in arrays]
        oracle.insert(30.0, 60.0)
        oracle.flush()
        oracle.insert(60.0, 30.0)
        assert oracle.engine.graph.core is core
        assert all(np.array_equal(a, b) for a, b in zip(before, arrays))


def doubled(a, b):
    """Twice the Euclidean length: a custom edge-weight model."""
    return 2.0 * euclidean_weight(a, b)


class TestFlushKeepsTheWeightModel:
    """A store-backed dynamic oracle over a weighted engine rebuilds
    with that engine's weights, not the default Euclidean ones."""

    @pytest.mark.parametrize("rebuild", ["flush", "force_rebuild"])
    def test_rebuild_answers_as_a_fresh_weighted_build(self, tmp_path, rebuild):
        mesh = make_terrain(grid_exponent=3, seed=13)
        pois = sample_uniform(mesh, 16, seed=14)
        engine = GeodesicEngine(mesh, pois, points_per_edge=1, weight_fn=doubled)
        built = SEOracle(engine, EPSILON, seed=0).build()
        path = tmp_path / "weighted.store"
        pack_oracle(built, path)
        kept = POISet(list(pois)[:15])
        survivors = GeodesicEngine(mesh, kept, points_per_edge=1, weight_fn=doubled)
        fresh = SEOracle(survivors, EPSILON, seed=0).build()
        with open_oracle(path) as stored:
            dynamic = DynamicSEOracle.from_store(stored, engine)
            assert dynamic.query(0, 5) == built.query(0, 5)
            dynamic.delete(15)
            getattr(dynamic, rebuild)()
            assert dynamic.query(0, 5) == fresh.query(0, 5)
            assert_sections_identical(dynamic.oracle, fresh)
        plain = GeodesicEngine(mesh, kept, points_per_edge=1)
        unweighted = SEOracle(plain, EPSILON, seed=0).build()
        assert fresh.query(0, 5) != unweighted.query(0, 5)
