"""Seeded randomized equivalence fuzzing across the oracle stack.

Every draw samples a fresh workload — terrain seed, POI count, ε,
selection strategy — builds an SE oracle over it, and asserts three
properties that every PR so far has pinned only on fixed fixtures:

1. **Approximation.**  ``SEOracle.query`` is within ``(1 ± ε)`` of the
   exact metric-graph distance computed by the seed repository's
   :func:`~repro.geodesic.dijkstra.dijkstra_reference` kernel (the
   executable ground-truth specification).
2. **Batch == scalar, bit for bit.**  The compiled batched path
   answers exactly what the scalar tree walk answers.
3. **Pack -> open -> query identity.**  A store round-trip
   (:func:`pack_oracle` / :func:`open_oracle`) serves bit-identical
   distances — persistence as a *property* over random workloads, not
   a hand-picked fixture.

The draws are deterministic per seed (``random.Random(seed)``), so a
failure reproduces by seed; terrains stay tiny (the build is the
expensive part, not the assertions).
"""

import random

import numpy as np
import pytest

from repro.core import SEOracle, open_oracle, pack_oracle
from repro.geodesic import GeodesicEngine, dijkstra_reference
from repro.queries import reverse_nearest_neighbors
from repro.terrain import (
    TriangleMesh,
    make_terrain,
    pois_from_vertices,
    sample_uniform,
)

SEEDS = range(8)

EPSILONS = (0.1, 0.25, 0.5, 1.0)
STRATEGIES = ("random", "greedy")


def draw_workload(seed: int):
    """One random workload + built oracle, deterministic per seed."""
    rng = random.Random(seed)
    mesh = make_terrain(
        grid_exponent=3,
        extent=(rng.uniform(60.0, 160.0), rng.uniform(60.0, 160.0)),
        relief=rng.uniform(5.0, 40.0),
        roughness=rng.uniform(0.4, 0.7),
        seed=rng.randrange(1 << 16),
    )
    pois = sample_uniform(mesh, rng.randrange(6, 18),
                          seed=rng.randrange(1 << 16))
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    epsilon = rng.choice(EPSILONS)
    oracle = SEOracle(engine, epsilon,
                      strategy=rng.choice(STRATEGIES),
                      seed=rng.randrange(1 << 16)).build()
    return engine, oracle


def exact_distances(engine, source: int) -> dict:
    """Ground-truth metric-graph distances from one POI to all POIs.

    Uses the dict-based reference kernel directly — not the engine's
    production kernel — so the oracle is checked against the
    executable specification, not against code that shares the CSR
    fast path.
    """
    adjacency = engine.graph.csr.to_lists()
    poi_nodes = [engine.poi_node(poi) for poi in range(engine.num_pois)]
    result = dijkstra_reference(adjacency, poi_nodes[source],
                                targets=poi_nodes)
    return {poi: result.distances[node]
            for poi, node in enumerate(poi_nodes)
            if node in result.distances}


def pool_shapes(path):
    """Page-pool shapes over a store: a single page, ~25% of the paged
    columns, everything resident."""
    from repro.core.paged import PAGED_SECTIONS
    from repro.core.store import section_layouts
    _, layouts = section_layouts(path)
    pageable = sum(
        int(np.prod(shape, dtype=np.intp)) * dtype.itemsize
        for name, (offset, dtype, shape) in layouts.items()
        if name in PAGED_SECTIONS)
    quarter = max(8, pageable // 4 // 8 * 8)
    return (
        {"page_bytes": 64, "max_pages": 1},
        {"page_bytes": quarter, "max_pages": 4},
        {"page_bytes": 4096, "max_pages": 1 << 20},
    )


@pytest.fixture(scope="module", params=SEEDS,
                ids=[f"seed{seed}" for seed in SEEDS])
def drawn(request):
    return draw_workload(request.param)


class TestApproximationProperty:
    def test_query_within_epsilon_of_reference(self, drawn):
        """|d_oracle - d_exact| <= eps * d_exact on every POI pair."""
        engine, oracle = drawn
        eps = oracle.epsilon
        n = engine.num_pois
        for source in range(n):
            exact = exact_distances(engine, source)
            for target in range(n):
                if target == source:
                    assert oracle.query(source, target) == 0.0
                    continue
                true = exact[target]
                approx = oracle.query(source, target)
                assert abs(approx - true) <= eps * true * (1 + 1e-6), (
                    f"({source},{target}): {approx} vs exact {true} "
                    f"(eps={eps})"
                )


class TestBatchScalarIdentity:
    def test_batch_equals_scalar_bitwise(self, drawn):
        engine, oracle = drawn
        n = engine.num_pois
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        batched = oracle.query_batch(sources, targets)
        for index in range(sources.size):
            assert batched[index] == oracle.query(int(sources[index]),
                                                  int(targets[index]))

    def test_matrix_equals_batch(self, drawn):
        _, oracle = drawn
        n = oracle.engine.num_pois
        grid = np.arange(n, dtype=np.intp)
        matrix = oracle.query_matrix()
        batched = oracle.query_batch(np.repeat(grid, n),
                                     np.tile(grid, n))
        assert (matrix.reshape(-1) == batched).all()


class TestStoreRoundTripProperty:
    def test_pack_open_query_identity(self, drawn, tmp_path):
        """Persistence round-trips bit-identically on random draws."""
        engine, oracle = drawn
        path = tmp_path / "fuzz.store"
        pack_oracle(oracle, path)
        stored = open_oracle(path, engine=engine)  # fingerprint passes
        n = engine.num_pois
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        assert (stored.query_batch(sources, targets)
                == oracle.query_batch(sources, targets)).all()
        for source in range(0, n, 3):
            for target in range(n):
                assert stored.query(source, target) \
                    == oracle.query(source, target)

    def test_rehydrated_scalar_walk_identity(self, drawn, tmp_path):
        """The store's lazily rebuilt scalar hash answers identically
        through the full SEOracle tree walk."""
        engine, oracle = drawn
        path = tmp_path / "fuzz.store"
        pack_oracle(oracle, path)
        full = open_oracle(path).to_oracle(engine)
        n = engine.num_pois
        for source in range(0, n, 2):
            for target in range(n):
                assert full.query(source, target) \
                    == oracle.query(source, target)


class TestPagedEquivalenceProperty:
    """Page-pool equivalence over random draws (PR-10 tentpole).

    Every seeded workload is packed and re-served through
    :class:`~repro.core.paged.PagedOracle` at three pool bounds — a
    single page, ~25% of the paged columns, everything resident — and
    the full query grid (batch + matrix + sampled scalars) must be
    **bit-identical** to the in-memory oracle at each bound.  Paging
    changes where bytes come from, never which element a probe reads,
    so there is no tolerance to hide behind.
    """

    def test_paged_bit_identical_at_every_pool_bound(self, drawn,
                                                     tmp_path):
        from repro.core.paged import PagedOracle
        engine, oracle = drawn
        path = tmp_path / "fuzz.store"
        pack_oracle(oracle, path)
        n = engine.num_pois
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        expected_batch = oracle.query_batch(sources, targets)
        expected_matrix = oracle.query_matrix()
        for shape in pool_shapes(path):
            paged = PagedOracle(str(path), **shape)
            assert (paged.query_batch(sources, targets)
                    == expected_batch).all(), shape
            assert (paged.query_matrix() == expected_matrix).all(), \
                shape
            for source in range(0, n, 3):
                assert paged.query(source, n - 1 - source) \
                    == oracle.query(source, n - 1 - source)
            ledger = paged.page_counters()
            assert ledger["loads"] - ledger["evictions"] \
                == ledger["resident_pages"]
            assert ledger["peak_resident_bytes"] \
                <= ledger["budget_bytes"]
            paged.close()


class TestTiledEquivalenceProperty:
    """Tiled stitching equivalence over random draws.

    Every seeded workload is tiled 2 and 4 ways.  The reference keeps
    the stitch as it read before tiles carried POI×portal blocks: per
    query, probe the tile's own tables for every portal, then take
    ``min(direct, stitch)`` for an intra-tile pair and the stitch for a
    cross-tile pair.  It applies no escape prune, so bit-identity here
    also checks that the prune is exact.
    """

    @staticmethod
    def _reference(build, sources, targets):
        from repro.core.store import compile_sections
        tiles = [compile_sections(sections, epsilon=build.meta["epsilon"])
                 for sections in build.sections]

        def legs(tile, site):
            portals = build.portal_local[tile]
            return tiles[tile].query_batch(
                np.full(portals.shape[0], site), portals)

        out = np.empty(sources.shape[0])
        for row, (source, target) in enumerate(zip(sources, targets)):
            tile_s, tile_t = build.owner[source], build.owner[target]
            site_s, site_t = build.local[source], build.local[target]
            legs_s, legs_t = legs(tile_s, site_s), legs(tile_t, site_t)
            block = build.boundary[np.ix_(build.portal_global[tile_s],
                                          build.portal_global[tile_t])]
            stitch = (((legs_s[:, None] + block) + legs_t).min()
                      if legs_s.size and legs_t.size else np.inf)
            if tile_s == tile_t:
                direct = tiles[tile_s].query_batch([site_s], [site_t])[0]
                stitch = min(direct, stitch)
            out[row] = stitch
        return out

    @pytest.mark.parametrize("tiles", [2, 4])
    def test_tiled_bit_identical_to_probe_stitch(self, drawn, tiles,
                                                 tmp_path):
        from repro.core import build_tiled_oracle, pack_tiled
        engine, oracle = drawn
        build = build_tiled_oracle(engine.mesh, engine.pois,
                                   oracle.epsilon, tiles=tiles,
                                   strategy=oracle.strategy,
                                   seed=oracle.seed)
        n = engine.num_pois
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        expected = self._reference(build, sources, targets)
        tiled = build.oracle()
        assert (tiled.query_batch(sources, targets) == expected).all()
        assert (tiled.query_matrix() == expected.reshape(n, n)).all()
        path = tmp_path / "tiled.store"
        pack_tiled(build, path)
        with open_oracle(path, max_resident_tiles=1) as paged:
            assert (paged.query_batch(sources, targets) == expected).all()
        eps = oracle.epsilon
        for source in range(n):
            exact = exact_distances(engine, source)
            for target in range(n):
                approx = expected[source * n + target]
                if target == source:
                    assert approx == 0.0
                    continue
                true = exact[target]
                assert abs(approx - true) <= eps * true * (1 + 1e-6), (
                    f"({source},{target}): {approx} vs exact {true} "
                    f"(eps={eps}, tiles={tiles})")


def reference_column(matrix):
    """Each row's nearest distance: the minimum of its finite
    off-diagonal entries, ``inf`` when it has none."""
    return [min((distance for poi, distance in enumerate(distances)
                 if poi != row and np.isfinite(distance)), default=np.inf)
            for row, distances in enumerate(matrix.tolist())]


def assert_column_rnn(store, label):
    """The store's column equals :func:`reference_column` over its own
    matrix, and RNN from the column equals the matrix path for every
    source without calling ``query_matrix``."""
    n = store.num_pois
    matrix = store.query_matrix()
    expected = [reverse_nearest_neighbors(store, source, num_pois=n)
                for source in range(n)]

    def no_matrix(*args, **kwargs):
        raise AssertionError(f"{label}: column RNN called query_matrix")

    store.query_matrix = no_matrix
    assert [reverse_nearest_neighbors(store, source)
            for source in range(n)] == expected, label
    column = store.nearest_column()
    assert column.shape == (n,) and column.dtype == np.float64, label
    assert column.tolist() == reference_column(matrix), label
    return expected


def static_backends(path):
    """``(label, opened store)`` for every static way to serve
    ``path``: a monolithic store mmap'd, copied and paged at every
    pool shape, or a tiled store at ``max_resident_tiles`` 1 and
    ``None``."""
    from repro.core import PagedOracle
    from repro.core.store import read_store_meta
    if "tiles" in read_store_meta(path):
        for bound in (1, None):
            yield f"tiles<={bound}", open_oracle(path,
                                                 max_resident_tiles=bound)
        return
    yield "mmap", open_oracle(path)
    yield "copy", open_oracle(path, mmap=False)
    for shape in pool_shapes(path):
        yield f"paged {shape}", PagedOracle(str(path), **shape)


def packed_column(path):
    from repro.core.store import StoreFile
    with StoreFile(path) as store:
        return {name for name in store.names if "nn_" in name}


class TestNearestColumnProperty:
    """The packed nearest-distance column, and the RNN answered from
    it, against the matrix path for every source: on monolithic stores
    (mmap'd, copied, paged at one page, ~25% and everything), and on
    stores of 1, 2 and 4 tiles at ``max_resident_tiles`` 1 and
    ``None``.  Two fixed terrains add what random draws rarely hit:
    unreachable POIs (two disconnected squares, one per tile) and
    tied nearest distances (a flat lattice)."""

    def test_monolithic_backends(self, drawn, tmp_path):
        engine, oracle = drawn
        path = tmp_path / "fuzz.store"
        pack_oracle(oracle, path)
        assert packed_column(path) == {"nn_distance"}
        answers = {}
        for label, store in static_backends(path):
            with store:
                answers[label] = assert_column_rnn(store, label)
        expected = [reverse_nearest_neighbors(oracle, source)
                    for source in range(engine.num_pois)]
        assert all(found == expected for found in answers.values())

    @pytest.mark.parametrize("tiles", [1, 2, 4])
    def test_tiled_backends(self, drawn, tiles, tmp_path):
        from repro.core import build_tiled_oracle, pack_tiled
        engine, oracle = drawn
        build = build_tiled_oracle(engine.mesh, engine.pois,
                                   oracle.epsilon, tiles=tiles,
                                   strategy=oracle.strategy,
                                   seed=oracle.seed)
        path = tmp_path / "tiled.store"
        pack_tiled(build, path)
        assert packed_column(path) == {"tiles/nn_distance"}
        answers = [assert_column_rnn(build.oracle(), "in memory")]
        for label, store in static_backends(path):
            with store:
                answers.append(assert_column_rnn(store, label))
        assert answers.count(answers[0]) == len(answers)

    def test_unreachable_pois(self, tmp_path):
        from repro.core import build_tiled_oracle, pack_tiled
        square = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        mesh = TriangleMesh(np.vstack([square, square + [100.0, 0, 0]]),
                            np.array([[0, 1, 2], [1, 3, 2],
                                      [4, 5, 6], [5, 7, 6]]))
        # POI 4 (vertex 1) is equally near POIs 0 and 1; POIs 2 and 3
        # reach only each other, so their nearest is that distance,
        # never an unreachable POI's inf.
        pois = pois_from_vertices(mesh, [0, 3, 4, 7, 1])
        path = tmp_path / "split.store"
        pack_tiled(build_tiled_oracle(mesh, pois, 0.3, tiles=2, seed=0),
                   path)
        for label, store in static_backends(path):
            with store:
                assert assert_column_rnn(store, label) == [
                    [4], [4], [3], [2], [0, 1]], label
                column = store.nearest_column()
                assert column[2] == store.query(2, 3), label
                assert column[3] == store.query(3, 2), label

    def test_tied_nearest_distances(self, tmp_path):
        from repro.core import build_tiled_oracle, pack_tiled
        side = 5
        x, y = np.meshgrid(np.arange(side, dtype=float),
                           np.arange(side, dtype=float), indexing="ij")
        vertices = np.column_stack([x.ravel(), y.ravel(),
                                    np.zeros(side * side)])
        faces = []
        for i in range(side - 1):
            for j in range(side - 1):
                a, b = i * side + j, (i + 1) * side + j
                faces += [[a, b, a + 1], [b, b + 1, a + 1]]
        mesh = TriangleMesh(vertices, np.array(faces))
        # A plus sign: the centre's four arms sit at the same distance.
        pois = pois_from_vertices(mesh, [12, 7, 11, 13, 17, 0, 24])
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        oracle = SEOracle(engine, 0.1, seed=0).build()
        paths = [tmp_path / "flat.store", tmp_path / "flat-tiled.store"]
        pack_oracle(oracle, paths[0])
        pack_tiled(build_tiled_oracle(mesh, pois, 0.1, tiles=2, seed=0),
                   paths[1])
        arms = np.arange(1, 5)
        for path in paths:
            for label, store in static_backends(path):
                with store:
                    assert_column_rnn(store, label)
                    to_arms = store.query_batch(np.zeros(4, np.intp), arms)
                    tied = to_arms == store.nearest_column()[0]
                    assert tied.sum() >= 2, label

    def test_isolated_poi_and_row_chunks(self, monkeypatch):
        """A POI that reaches none packs ``inf``; ``nan``, ``inf`` and
        the diagonal never count; the row chunks change no bit."""
        from repro.core import store as store_module
        n = 9
        matrix = np.random.default_rng(5).random((n, n))
        matrix[4, :] = matrix[:, 4] = np.inf
        matrix[1, 2] = np.nan
        np.fill_diagonal(matrix, 0.0)

        class Table:
            def query_batch(self, sources, targets):
                return matrix[sources, targets]

        expected = reference_column(matrix)
        assert expected[4] == np.inf
        for chunk in (store_module._NEAREST_CHUNK_PAIRS, 2 * n + 1, 1):
            monkeypatch.setattr(store_module, "_NEAREST_CHUNK_PAIRS", chunk)
            column = store_module.nearest_distances(Table(), n)
            assert column.tolist() == expected, chunk


def earlier_column(matrix):
    """The two column members of the earlier store layout, as its
    writer computed them from a matrix: each row's nearest other POI
    (the lowest id on a tie, ``-1`` when none is reachable) and its
    nearest and second-nearest distances."""
    block = np.where(np.isfinite(matrix), matrix, np.inf)
    np.fill_diagonal(block, np.inf)
    rows = np.arange(len(block))
    nearest = block.argmin(axis=1)
    first = block[rows, nearest]
    block[rows, nearest] = np.inf
    return (np.where(np.isfinite(first), nearest, -1).astype(np.int64),
            np.column_stack([first, block.min(axis=1)]))


def write_earlier_layout(path, target):
    """Rewrite the store at ``path`` to ``target`` in the earlier
    column layout: every other section as packed, and in place of the
    one-distance column the nearest-POI member and the two-column
    distance member, in the slot and order that writer used."""
    from repro.core.store import StoreFile, _write_store
    with open_oracle(path) as fresh:
        column = fresh.nearest_column().copy()
        ids, distances = earlier_column(fresh.query_matrix())
    assert distances[:, 0].tobytes() == column.tobytes()
    with StoreFile(path) as store:
        packed = store.arrays(store.names, mmap=False)
        meta = store.meta
    sections = {}
    for name, array in packed.items():
        if name.endswith("nn_distance"):
            prefix = name[:-len("nn_distance")]
            sections[prefix + "nn_poi"] = ids
            array = distances
        sections[name] = array
    _write_store(target, meta, sections)
    return column


@pytest.fixture(scope="module")
def earlier_workload():
    return draw_workload(1)


class TestEarlierColumnLayout:
    """Stores packed with the earlier column layout (a nearest-POI
    member and nearest plus second-nearest distances) serve from a
    contiguous copy of the first distance column: RNN equals the
    matrix path, nothing is derived (each RNN probes its n−1 pairs),
    and the paged ledger counts n × 8 bytes for the column."""

    def assert_serves_column_zero(self, path, column, monkeypatch):
        from repro.core import store as store_module

        def no_derivation(*args, **kwargs):
            raise AssertionError("the packed column was derived")

        monkeypatch.setattr(store_module, "nearest_distances",
                            no_derivation)
        n = len(column)
        for label, store in static_backends(path):
            with store:
                expected = [reverse_nearest_neighbors(store, source,
                                                      num_pois=n)
                            for source in range(n)]
                probes = []
                query_batch = store.query_batch

                def counted(sources, targets):
                    probes.append(len(sources))
                    return query_batch(sources, targets)

                store.query_batch = counted
                assert [reverse_nearest_neighbors(store, source)
                        for source in range(n)] == expected, label
                assert probes == [n - 1] * n, label
                served = store.nearest_column()
                assert served.shape == (n,), label
                assert served.flags.c_contiguous, label
                assert served.tobytes() == column.tobytes(), label

    def test_monolithic(self, earlier_workload, tmp_path, monkeypatch):
        from repro.core import PagedOracle
        _, oracle = earlier_workload
        fresh, earlier = tmp_path / "fresh.store", tmp_path / "earlier.store"
        pack_oracle(oracle, fresh)
        column = write_earlier_layout(fresh, earlier)
        assert packed_column(earlier) == {"nn_poi", "nn_distance"}
        self.assert_serves_column_zero(earlier, column, monkeypatch)
        with PagedOracle(str(fresh), page_bytes=64, max_pages=2) as one, \
                PagedOracle(str(earlier), page_bytes=64,
                            max_pages=2) as other:
            assert other.fixed_bytes == one.fixed_bytes
            assert other.nearest_column().nbytes == 8 * len(column)

    @pytest.mark.parametrize("tiles", [2, 4])
    def test_tiled(self, earlier_workload, tiles, tmp_path, monkeypatch):
        from repro.core import build_tiled_oracle, pack_tiled
        engine, oracle = earlier_workload
        fresh, earlier = tmp_path / "fresh.store", tmp_path / "earlier.store"
        pack_tiled(build_tiled_oracle(engine.mesh, engine.pois,
                                      oracle.epsilon, tiles=tiles,
                                      strategy=oracle.strategy,
                                      seed=oracle.seed), fresh)
        column = write_earlier_layout(fresh, earlier)
        assert packed_column(earlier) == {"tiles/nn_poi",
                                          "tiles/nn_distance"}
        self.assert_serves_column_zero(earlier, column, monkeypatch)


class TestDynamicUpdateFuzz:
    """Interleaved insert/delete/batch-query fuzzing (PR-5 tentpole).

    Each seeded draw builds a *dynamic* oracle over a fresh random
    workload, then walks a seeded action sequence mixing POI inserts,
    deletes and batched queries.  After every batch:

    1. **Batch == scalar, bit for bit** — the delta tables serve both
       paths, whatever the overlay/tombstone state.
    2. **Approximation vs ground truth** — every answered distance is
       within ``(1 ± ε)`` of ``dijkstra_reference`` on the *current*
       metric graph (overlay sites attached); overlay answers are
       exact on that metric, base answers inherit the SE guarantee.
    """

    ACTIONS = 14

    @pytest.fixture(params=SEEDS, ids=[f"seed{seed}" for seed in SEEDS])
    def dynamic_drawn(self, request):
        from repro.core import DynamicSEOracle
        rng = random.Random(1000 + request.param)
        mesh = make_terrain(
            grid_exponent=3,
            extent=(rng.uniform(60.0, 160.0), rng.uniform(60.0, 160.0)),
            relief=rng.uniform(5.0, 40.0),
            roughness=rng.uniform(0.4, 0.7),
            seed=rng.randrange(1 << 16),
        )
        pois = sample_uniform(mesh, rng.randrange(6, 14),
                              seed=rng.randrange(1 << 16))
        oracle = DynamicSEOracle(
            mesh, pois, epsilon=rng.choice(EPSILONS),
            rebuild_factor=rng.choice((0.5, 2.0, 10.0)),
            seed=rng.randrange(1 << 16)).build()
        return mesh, oracle, rng

    def _reference_distance(self, oracle, poi_a: int, poi_b: int) -> float:
        """Exact metric-graph distance via the reference kernel."""
        if poi_a == poi_b:
            return 0.0
        node_a = oracle._node_of(poi_a)
        node_b = oracle._node_of(poi_b)
        result = dijkstra_reference(oracle.engine.graph.csr.to_lists(),
                                    node_a, targets=[node_b])
        return result.distances.get(node_b, float("inf"))

    def test_interleaved_updates_and_batches(self, dynamic_drawn):
        mesh, oracle, rng = dynamic_drawn
        eps = oracle.epsilon
        low, high = mesh.bounding_box()
        batches_checked = 0
        for _ in range(self.ACTIONS):
            action = rng.choice(("insert", "delete", "batch", "batch"))
            live = [int(poi) for poi in oracle.live_ids()]
            if action == "insert":
                x = rng.uniform(float(low[0]), float(high[0]))
                y = rng.uniform(float(low[1]), float(high[1]))
                if mesh.locate_face(x, y) >= 0:
                    fresh = oracle.insert(x, y)
                    assert oracle.query(fresh, fresh) == 0.0
            elif action == "delete" and len(live) > 3:
                victim = rng.choice(live)
                oracle.delete(victim)
                with pytest.raises(KeyError):
                    oracle.query(victim, live[0] if live[0] != victim
                                 else live[1])
            else:
                pairs = [(rng.choice(live), rng.choice(live))
                         for _ in range(12)]
                sources = [a for a, _ in pairs]
                targets = [b for _, b in pairs]
                batched = oracle.query_batch(sources, targets)
                for index, (a, b) in enumerate(pairs):
                    scalar = oracle.query(a, b)
                    assert batched[index] == scalar, (
                        f"batch/scalar diverge on ({a}, {b})")
                    true = self._reference_distance(oracle, a, b)
                    if true == 0.0:
                        assert scalar == 0.0
                    else:
                        assert abs(scalar - true) <= eps * true * (
                            1 + 1e-6), (
                            f"({a},{b}): {scalar} vs exact {true} "
                            f"(eps={eps})")
                batches_checked += 1
        assert batches_checked > 0


class TestChurnFlushQueryFuzz:
    """Interleaved churn + flush + query fuzzing (PR-8 tentpole).

    Two identically-drawn dynamic oracles walk the same seeded action
    sequence; at random mid-trace points one takes an *incremental*
    flush while its twin takes a full ``force_rebuild``.  After every
    flush point:

    1. **Rebuild equivalence** — the all-pairs matrices of the two
       oracles are bit-identical (the spliced tables answer exactly
       what a from-scratch build answers).
    2. **Batch == scalar, bit for bit** — on the incremental side.
    3. **Approximation** — sampled answers stay within ``(1 ± ε)`` of
       :func:`dijkstra_reference` on the current metric graph.
    """

    ACTIONS = 12

    @pytest.fixture(params=SEEDS, ids=[f"seed{seed}" for seed in SEEDS])
    def twins(self, request):
        from repro.core import DynamicSEOracle
        rng = random.Random(2000 + request.param)
        mesh = make_terrain(
            grid_exponent=3,
            extent=(rng.uniform(60.0, 160.0), rng.uniform(60.0, 160.0)),
            relief=rng.uniform(5.0, 40.0),
            roughness=rng.uniform(0.4, 0.7),
            seed=rng.randrange(1 << 16),
        )
        pois = sample_uniform(mesh, rng.randrange(6, 14),
                              seed=rng.randrange(1 << 16))
        epsilon = rng.choice(EPSILONS)
        build_seed = rng.randrange(1 << 16)
        make = lambda: DynamicSEOracle(  # noqa: E731
            mesh, pois, epsilon=epsilon, rebuild_factor=10.0,
            seed=build_seed).build()
        return mesh, make(), make(), rng

    def _assert_flush_point(self, oracle, twin, rng):
        eps = oracle.epsilon
        live = [int(poi) for poi in oracle.live_ids()]
        assert np.array_equal(oracle.live_ids(), twin.live_ids())
        matrix = oracle.query_matrix()
        assert np.array_equal(matrix, twin.query_matrix())
        sources = np.asarray([rng.choice(live) for _ in range(8)],
                             dtype=np.intp)
        targets = np.asarray([rng.choice(live) for _ in range(8)],
                             dtype=np.intp)
        batched = oracle.query_batch(sources, targets)
        for index in range(sources.size):
            a, b = int(sources[index]), int(targets[index])
            scalar = oracle.query(a, b)
            assert batched[index] == scalar
            true = TestDynamicUpdateFuzz._reference_distance(
                self, oracle, a, b)
            if true == 0.0:
                assert scalar == 0.0
            else:
                assert abs(scalar - true) <= eps * true * (1 + 1e-6), (
                    f"({a},{b}): {scalar} vs exact {true} (eps={eps})")

    def test_incremental_flush_mid_trace(self, twins):
        mesh, oracle, twin, rng = twins
        low, high = mesh.bounding_box()
        flushes = 0
        for _ in range(self.ACTIONS):
            action = rng.choice(("insert", "delete", "flush", "insert"))
            live = [int(poi) for poi in oracle.live_ids()]
            if action == "insert":
                x = rng.uniform(float(low[0]), float(high[0]))
                y = rng.uniform(float(low[1]), float(high[1]))
                if mesh.locate_face(x, y) >= 0:
                    oracle.insert(x, y)
                    twin.insert(x, y)
            elif action == "delete" and len(live) > 3:
                victim = rng.choice(live)
                oracle.delete(victim)
                twin.delete(victim)
            elif action == "flush":
                oracle.flush()
                twin.force_rebuild()
                flushes += 1
                self._assert_flush_point(oracle, twin, rng)
        if not flushes:  # the draw never rolled "flush": force one
            oracle.flush()
            twin.force_rebuild()
            flushes += 1
            self._assert_flush_point(oracle, twin, rng)
        assert flushes > 0
