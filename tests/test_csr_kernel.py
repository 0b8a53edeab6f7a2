"""CSR graph core + array Dijkstra kernel: equivalence with the seed kernel.

The pure-Python generation-stamped kernel must reproduce the seed dict
kernel *bit-for-bit*: identical distance maps, identical
``settled_count``, identical ``frontier_min`` — across all three
stopping rules, on randomized terrains, with and without an
attached-site overlay.  ``row_block``'s whole rows (on SciPy, and with
SciPy hidden) must match it too: the same distances at every node and
the same settled counts.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import importlib

# The package re-exports the ``dijkstra`` *function* under the same
# name as the submodule, so fetch the module itself for monkeypatching.
dijkstra_module = importlib.import_module("repro.geodesic.dijkstra")
from repro.datastructures import CSRGraph
from repro.geodesic import (
    ElevationGainWeight,
    GeodesicEngine,
    GeodesicGraph,
    SlopePenaltyWeight,
    dijkstra,
    dijkstra_reference,
    place_steiner_points,
)
from repro.terrain import make_terrain, sample_uniform

row_block = dijkstra_module.row_block


def _random_graph(seed, points_per_edge=1, grid_exponent=3):
    mesh = make_terrain(grid_exponent=grid_exponent, extent=(60.0, 60.0),
                        relief=15.0, seed=seed)
    return GeodesicGraph(mesh, points_per_edge=points_per_edge)


def _assert_same(array_result, reference_result):
    assert array_result.distances == reference_result.distances
    assert array_result.settled_count == reference_result.settled_count
    assert array_result.frontier_min == reference_result.frontier_min


def _assert_row_same(csr, source, reference_result, radius=None):
    """``row_block``'s row from ``source``, gathered at every node, is
    the reference search bit for bit, with the same settled count."""
    block, settled = row_block(csr, [source], np.arange(csr.num_nodes),
                               radius=radius)
    expected = np.full(csr.num_nodes, math.inf)
    distances = reference_result.distances
    expected[list(distances)] = list(distances.values())
    assert block[0].tobytes() == expected.tobytes()
    assert settled[0] == reference_result.settled_count


def _assert_search_and_row(csr, source, adjacency, radius=None):
    """``dijkstra`` and ``row_block`` against one reference search."""
    reference = dijkstra_reference(adjacency, source, radius=radius)
    _assert_same(dijkstra(csr, source, radius=radius), reference)
    _assert_row_same(csr, source, reference, radius=radius)


def _check_all_rules(graph, seed):
    """One randomized scenario: every stopping rule, exact equality."""
    adjacency = graph.csr.to_lists()
    csr = graph.csr
    n = graph.num_nodes
    source = seed % n

    # No stopping rule: whole component.
    full_ref = dijkstra_reference(adjacency, source)
    _assert_same(dijkstra(csr, source), full_ref)
    _assert_row_same(csr, source, full_ref)

    ordered = sorted(full_ref.distances.values())

    # Radius rule, including a radius that exactly equals a settled
    # distance (boundary inclusion) and a radius beyond the component.
    for radius in (ordered[len(ordered) // 4], ordered[len(ordered) // 2],
                   ordered[-1] * 2.0):
        _assert_search_and_row(csr, source, adjacency, radius=radius)

    # Cover-targets rule.
    targets = [(seed * 7 + k * 13) % n for k in range(5)]
    _assert_same(
        dijkstra(csr, source, targets=targets),
        dijkstra_reference(adjacency, source, targets=targets))

    # Single-target rule.
    target = (seed * 31 + 11) % n
    _assert_same(
        dijkstra(csr, source, single_target=target),
        dijkstra_reference(adjacency, source, single_target=target))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 1000))
def test_kernel_matches_reference(seed):
    graph = _random_graph(seed % 17, points_per_edge=1 + seed % 2)
    _check_all_rules(graph, seed)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 1000))
def test_python_kernel_matches_reference(seed):
    """Same property with SciPy hidden: ``row_block`` searches in
    pure Python."""
    graph = _random_graph(seed % 13)
    with mock.patch.object(dijkstra_module, "_scipy_dijkstra", None):
        _check_all_rules(graph, seed)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 1000))
def test_kernel_matches_reference_with_overlay(seed):
    """Attached sites route searches through the overlay side table."""
    graph = _random_graph(seed % 11)
    rng_x = 5.0 + (seed % 7) * 7.0
    graph.attach_site((rng_x, 20.0, 0.0),
                      face_id=seed % graph.mesh.num_faces)
    graph.attach_site((30.0, rng_x, 0.0),
                      face_id=(seed * 3) % graph.mesh.num_faces)
    assert graph.csr.num_overlay == 2
    _check_all_rules(graph, seed)
    # Overlay node as the source.
    source = graph.num_nodes - 1
    _assert_search_and_row(graph.csr, source, graph.csr.to_lists())


def test_matrix_follows_each_overlay_change():
    """Attach and detach one site at a time, searching in between.

    The search matrix behind ``row_block`` is cached and must be
    dropped by every attach and every detach: each result,
    whole-component and radius-bounded, of ``dijkstra`` and of
    ``row_block`` must equal the reference kernel on the graph as it
    stands.
    """
    graph = _random_graph(4)
    csr = graph.csr
    static = 0

    def check(source):
        adjacency = csr.to_lists()
        full = dijkstra_reference(adjacency, source)
        _assert_same(dijkstra(csr, source), full)
        _assert_row_same(csr, source, full)
        ordered = sorted(full.distances.values())
        radius = ordered[len(ordered) // 3]
        _assert_search_and_row(csr, source, adjacency, radius=radius)

    check(static)
    site_a = graph.attach_site((20.0, 20.0, 0.0), face_id=3)
    check(site_a)
    site_b = graph.attach_site((40.0, 45.0, 0.0),
                               face_id=graph.mesh.num_faces - 2)
    check(site_b)
    check(static)
    graph.detach_last_sites(1)
    check(site_a)
    check(static)
    graph.detach_last_sites(1)
    assert csr.num_overlay == 0
    check(static)


@pytest.mark.parametrize("hide_scipy", [False, True],
                         ids=["scipy", "python"])
def test_row_block_gathers_columns_in_given_order(hide_scipy):
    """Repeated sources, and columns out of order and repeated: row
    ``i`` is the reference search from ``sources[i]`` read at each
    column in turn."""
    csr = _random_graph(6).csr
    n = csr.num_nodes
    sources = [0, n // 2, n - 1, 0]
    columns = [n - 1, 3, 3, 0, n // 3]
    if hide_scipy:
        with mock.patch.object(dijkstra_module, "_scipy_dijkstra", None):
            block, settled = row_block(csr, sources, columns)
    else:
        block, settled = row_block(csr, sources, columns)
    assert block.shape == (len(sources), len(columns))
    adjacency = csr.to_lists()
    for i, source in enumerate(sources):
        reference = dijkstra_reference(adjacency, source)
        assert block[i].tolist() == [
            reference.distances.get(c, math.inf) for c in columns]
        assert settled[i] == reference.settled_count


def test_row_block_chunking_does_not_change_rows():
    """Capping the cells per SciPy call at two rows splits five
    sources into calls of 2, 2 and 1; the block and the settled counts
    stay those of one call."""
    csr = _random_graph(7).csr
    sources = list(range(0, csr.num_nodes, csr.num_nodes // 5))[:5]
    columns = np.arange(csr.num_nodes)
    radius = 20.0
    whole, whole_settled = row_block(csr, sources, columns, radius=radius)
    with mock.patch.object(dijkstra_module, "_ROW_CELLS",
                           2 * csr.num_nodes):
        split, split_settled = row_block(csr, sources, columns,
                                         radius=radius)
    assert split.tobytes() == whole.tobytes()
    assert split_settled.tolist() == whole_settled.tolist()
    assert not np.isfinite(whole).all()  # the radius cut some rows


def test_multi_source_is_min_over_sources():
    graph = _random_graph(3)
    sources = [0, graph.num_nodes // 2, graph.num_nodes - 1]
    merged = dijkstra(graph.csr, sources)
    singles = [dijkstra(graph.csr, s).distances for s in sources]
    for node, dist in merged.distances.items():
        assert dist == min(s.get(node, math.inf) for s in singles)


def test_radius_pruning_reports_fewer_pushes():
    """The pruned lazy-deletion heap must not grow past the reference."""
    graph = _random_graph(5, grid_exponent=4)
    full = dijkstra_reference(graph.csr.to_lists(), 0)
    radius = sorted(full.distances.values())[len(full.distances) // 4]
    pruned = dijkstra(graph.csr, 0, radius=radius)
    reference = dijkstra_reference(graph.csr.to_lists(), 0, radius=radius)
    assert pruned.heap_pushes > 0
    assert pruned.heap_pushes <= reference.heap_pushes
    assert pruned.distances == reference.distances
    assert pruned.frontier_min == reference.frontier_min


def test_scratch_reuse_is_isolated_across_calls():
    """Generation stamping: stale buffer contents must never leak."""
    graph = _random_graph(7)
    csr = graph.csr
    first = dijkstra(csr, 0, radius=10.0)
    second = dijkstra(csr, graph.num_nodes - 1, radius=1e-6)
    third = dijkstra(csr, 0, radius=10.0)
    assert first.distances == third.distances
    assert second.settled_count == 1  # only its own source


class TestCSRGraph:
    def test_from_lists_round_trip(self):
        neighbors = [[1, 2], [0], [0, 3], [2]]
        weights = [[1.0, 2.5], [1.0], [2.5, 0.5], [0.5]]
        csr = CSRGraph.from_lists(neighbors, weights)
        assert csr.num_static == 4
        assert csr.num_nodes == 4
        assert csr.num_entries == 6
        for node in range(4):
            got_n, got_w = csr.neighbors(node)
            assert got_n == neighbors[node]
            assert got_w == weights[node]

    def test_overlay_attach_detach(self):
        csr = CSRGraph.from_lists([[1], [0]], [[1.0], [1.0]])
        node = csr.attach_node([0, 1], [2.0, 3.0])
        assert node == 2
        assert csr.num_overlay == 1
        assert csr.neighbors(2) == ([0, 1], [2.0, 3.0])
        assert csr.neighbors(0) == ([1, 2], [1.0, 2.0])
        second = csr.attach_node([2], [0.25])
        assert csr.neighbors(2) == ([0, 1, 3], [2.0, 3.0, 0.25])
        csr.detach_last()
        csr.detach_last()
        assert csr.num_overlay == 0
        assert csr.neighbors(0) == ([1], [1.0])
        with pytest.raises(ValueError):
            csr.detach_last()
        assert second == 3

    def test_zero_weight_edges_exact_on_both_paths(self):
        # Explicit zeros must survive scipy.sparse storage; if a future
        # SciPy drops them, this equivalence check fails loudly.
        neighbors = [[1], [0, 2], [1]]
        weights = [[0.0], [0.0, 2.0], [2.0]]
        csr = CSRGraph.from_lists(neighbors, weights)
        expected = dijkstra_reference((neighbors, weights), 0).distances
        assert expected == {0: 0.0, 1: 0.0, 2: 2.0}
        assert dijkstra(csr, 0).distances == expected
        block, _ = row_block(csr, [0], [0, 1, 2])
        assert block[0].tolist() == [0.0, 0.0, 2.0]
        with mock.patch.object(dijkstra_module, "_scipy_dijkstra", None):
            block, _ = row_block(csr, [0], [0, 1, 2])
        assert block[0].tolist() == [0.0, 0.0, 2.0]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_frozen_matches_rebuilt_rows(self, seed):
        """Random attaches (to static and overlay nodes) and detaches:
        ``frozen()`` is byte-identical to freezing the graph's own
        adjacency lists, where each row lists its static entries, then
        its overlay edges in attach order."""
        csr = _random_graph(seed).csr
        rng = np.random.default_rng(seed)
        for step in range(30):
            if step % 7 == 6:
                csr.detach_last()
                continue
            degree = int(rng.integers(1, 6))
            neighbors = rng.choice(csr.num_nodes, size=degree,
                                   replace=False).tolist()
            csr.attach_node(neighbors, rng.uniform(0.5, 5.0, degree).tolist())
        assert csr.num_overlay > 0
        frozen = csr.frozen()
        assert frozen.num_overlay == 0
        assert frozen.num_nodes == csr.num_nodes
        _assert_same_arrays(frozen, CSRGraph.from_lists(*csr.to_lists()))

    def test_geodesic_graph_freezes_pois(self):
        mesh = make_terrain(grid_exponent=3, seed=2)
        pois = sample_uniform(mesh, 8, seed=2)
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        # attach_pois freezes: no overlay left, searches take the
        # static fast path.
        assert engine.graph.csr.num_overlay == 0
        assert engine.graph.csr.num_static == engine.graph.num_nodes

    def test_detach_after_freeze_refreezes(self):
        mesh = make_terrain(grid_exponent=3, seed=2)
        pois = sample_uniform(mesh, 4, seed=2)
        engine = GeodesicEngine(mesh, pois, points_per_edge=0)
        graph = engine.graph
        nodes_before = graph.num_nodes
        node = engine.attach_point(20.0, 20.0)
        assert graph.csr.num_overlay == 1
        d_attached = engine.node_distance(node, engine.poi_node(0))
        assert d_attached > 0
        engine.detach_points(1)
        assert graph.num_nodes == nodes_before
        assert graph.csr.num_overlay == 0
        # Graph still searchable and consistent after the detach.
        full = dijkstra(graph.csr, 0)
        ref = dijkstra_reference(graph.csr.to_lists(), 0)
        assert full.distances == ref.distances

    def test_detach_frozen_site_raises(self):
        mesh = make_terrain(grid_exponent=3, seed=2)
        pois = sample_uniform(mesh, 4, seed=2)
        engine = GeodesicEngine(mesh, pois, points_per_edge=0)
        graph = engine.graph
        assert graph.num_nodes > mesh.num_vertices  # frozen POI sites
        nodes_before, edges_before = graph.num_nodes, graph.num_edges
        with pytest.raises(ValueError):
            engine.detach_points(1)
        assert graph.num_nodes == nodes_before
        assert graph.num_edges == edges_before


class TestEngineBatchedAPIs:
    @pytest.fixture(scope="class")
    def engine(self):
        mesh = make_terrain(grid_exponent=4, extent=(80.0, 80.0),
                            relief=12.0, seed=9)
        pois = sample_uniform(mesh, 14, seed=9)
        return GeodesicEngine(mesh, pois, points_per_edge=1)

    def test_query_many_matches_distance(self, engine):
        pairs = [(0, 5), (0, 9), (3, 3), (7, 2), (0, 5)]
        batched = engine.query_many(pairs)
        for (a, b), got in zip(pairs, batched):
            assert got == pytest.approx(engine.distance(a, b))

    def test_distances_many_matches_single(self, engine):
        singles = [engine.distances_from_poi(i) for i in range(4)]
        batched = engine.distances_many(range(4))
        assert batched == singles

    def test_distances_many_per_source_radius(self, engine):
        full = engine.distances_from_poi(0)
        radius = sorted(full.values())[5]
        batched = engine.distances_many([0, 1], radius=[radius, None])
        assert batched[0] == engine.distances_from_poi(0, radius=radius)
        assert batched[1] == engine.distances_from_poi(1)

    def test_node_rows_do_not_depend_on_scipy(self, engine):
        """Same block, SSAD calls and settled nodes with SciPy hidden,
        whole-component and radius-bounded."""
        sources = [engine.poi_node(i) for i in (0, 3, 7)]
        columns = [engine.poi_node(i) for i in range(14)]
        radius = sorted(engine.distances_from_poi(0).values())[4]
        for bound in (None, radius):
            engine.reset_counters()
            fast = engine.node_rows(sources, columns, radius=bound)
            fast_counts = (engine.ssad_calls, engine.settled_nodes)
            engine.reset_counters()
            with mock.patch.object(dijkstra_module, "_scipy_dijkstra",
                                   None):
                slow = engine.node_rows(sources, columns, radius=bound)
            assert slow.tobytes() == fast.tobytes()
            assert (engine.ssad_calls, engine.settled_nodes) == fast_counts
        assert engine.poi_distances_from_node(sources[1]).tobytes() \
            == engine.node_rows(sources[1:2], columns)[0].tobytes()

    def test_counters_include_heap_pushes(self, engine):
        engine.reset_counters()
        engine.distance(0, 1)  # single-target: python kernel, pushes > 0
        assert engine.heap_pushes > 0
        assert engine.ssad_calls == 1

    def test_query_many_dedupes_symmetric_pairs(self, engine):
        engine.reset_counters()
        batched = engine.query_many([(0, 5), (5, 0), (3, 7)])
        assert engine.ssad_calls == 2  # (0,5)/(5,0) share one search
        assert batched[0] == batched[1]


class TestOracleBatchedAPIs:
    """The oracle-level query_many wrappers match their single-query
    counterparts."""

    def test_kalgo_query_many(self):
        from repro.baselines import KAlgo
        mesh = make_terrain(grid_exponent=3, extent=(80.0, 80.0), seed=6)
        pois = sample_uniform(mesh, 8, seed=6)
        kalgo = KAlgo(mesh, pois, epsilon=0.25, points_per_edge=1)
        pairs = [(0, 3), (3, 0), (5, 5), (2, 7)]
        assert kalgo.query_many(pairs) == \
            [kalgo.query(a, b) for a, b in pairs]

    def test_a2a_query_many(self):
        from repro.core import A2AOracle
        mesh = make_terrain(grid_exponent=3, extent=(80.0, 80.0), seed=6)
        oracle = A2AOracle(mesh, epsilon=0.25, sites_per_edge=1,
                           points_per_edge=1, seed=1).build()
        pairs = [((10.0, 12.0), (60.0, 55.0)),
                 ((20.0, 30.0), (10.0, 12.0)),
                 ((10.0, 12.0), (60.0, 55.0))]
        assert oracle.query_many(pairs) == \
            [oracle.query(*pair) for pair in pairs]

    def test_dynamic_query_batch(self):
        from repro.core import DynamicSEOracle
        mesh = make_terrain(grid_exponent=3, extent=(80.0, 80.0), seed=6)
        pois = sample_uniform(mesh, 10, seed=6)
        oracle = DynamicSEOracle(mesh, pois, epsilon=0.25,
                                 rebuild_factor=5.0, seed=1).build()
        fresh = oracle.insert(40.0, 40.0)
        assert oracle.overlay_size == 1  # still an overlay POI
        pairs = [(0, 3), (fresh, 2), (2, fresh), (fresh, fresh), (4, 1)]
        batched = oracle.query_batch([a for a, _ in pairs],
                                     [b for _, b in pairs])
        assert list(batched) == [oracle.query(a, b) for a, b in pairs]
        with pytest.raises(KeyError):
            oracle.query_batch([0], [999])


# ----------------------------------------------------------------------
# array builder vs. the per-face add_edge loop it replaced
# ----------------------------------------------------------------------
class _ReferenceBuilder:
    """The per-face ``add_edge`` loop, kept as the builder's specification.

    Grows a ``(neighbors, weights)`` list-of-lists adjacency one edge at
    a time — faces in order, each face's sorted boundary pairs in
    nested-loop order, first occurrence wins — and mirrors site
    attachment the same way.  :meth:`frozen` freezes it with
    ``CSRGraph.from_lists``.  It runs on the same machine as the array
    builder, so both see the same BLAS dot rounding.
    """

    def __init__(self, mesh, points_per_edge, weight_fn=None):
        self.weight_fn = weight_fn
        placement = place_steiner_points(mesh, points_per_edge)
        offset = mesh.num_vertices
        self.positions = [mesh.vertices[i] for i in range(offset)]
        self.positions.extend(placement.positions)
        self.neighbors = [[] for _ in self.positions]
        self.weights = [[] for _ in self.positions]
        self.face_boundary = []
        self.sites_by_face = {}
        edge_nodes = {}
        for edge in mesh.edges:
            edge_nodes[edge] = [edge[0]]
            edge_nodes[edge].extend(
                offset + p for p in placement.edge_points.get(edge, []))
            edge_nodes[edge].append(edge[1])
        seen = set()
        for a, b, c in mesh.faces:
            boundary = []
            for u, v in ((a, b), (b, c), (a, c)):
                key = (int(u), int(v)) if u < v else (int(v), int(u))
                boundary.extend(edge_nodes[key])
            boundary = sorted(set(boundary))
            self.face_boundary.append(boundary)
            for i, u in enumerate(boundary):
                for v in boundary[i + 1:]:
                    if (u, v) not in seen:
                        seen.add((u, v))
                        self.add_edge(u, v)

    def add_edge(self, u, v):
        if self.weight_fn is not None:
            weight = float(self.weight_fn(self.positions[u],
                                          self.positions[v]))
        else:
            delta = self.positions[u] - self.positions[v]
            weight = float(math.sqrt(float(delta @ delta)))
        if math.isinf(weight):
            return  # weight models may delete impassable edges
        self.neighbors[u].append(v)
        self.weights[u].append(weight)
        self.neighbors[v].append(u)
        self.weights[v].append(weight)

    def attach_site(self, position, face_id, vertex_id=None):
        if vertex_id is not None:
            return
        node = len(self.positions)
        self.positions.append(np.asarray(position, dtype=float))
        self.neighbors.append([])
        self.weights.append([])
        for other in (self.face_boundary[face_id]
                      + self.sites_by_face.get(face_id, [])):
            self.add_edge(node, other)
        self.sites_by_face.setdefault(face_id, []).append(node)

    def frozen(self):
        return CSRGraph.from_lists(self.neighbors, self.weights)


def _assert_same_arrays(csr, reference):
    for name in ("indptr", "indices", "weights"):
        got, want = getattr(csr, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("weight_fn", [
    None, SlopePenaltyWeight(30), ElevationGainWeight(3),
], ids=["euclidean", "slope", "gain"])
@pytest.mark.parametrize("points_per_edge", [0, 1, 2, 3])
@pytest.mark.parametrize("grid_exponent", [3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_builder_matches_reference_loop(seed, grid_exponent,
                                              points_per_edge, weight_fn):
    """Byte-identical CSR arrays: bare, with POIs, with two more sites."""
    mesh = make_terrain(grid_exponent=grid_exponent, extent=(60.0, 60.0),
                        relief=15.0, seed=seed)
    graph = GeodesicGraph(mesh, points_per_edge, weight_fn=weight_fn)
    reference = _ReferenceBuilder(mesh, points_per_edge, weight_fn)
    _assert_same_arrays(graph.csr, reference.frozen())
    assert graph.num_edges == sum(map(len, reference.neighbors)) // 2

    pois = sample_uniform(mesh, 12, seed=seed)
    graph.attach_pois(pois)
    for poi in pois:
        reference.attach_site(poi.position, poi.face_id, poi.vertex_id)
    _assert_same_arrays(graph.csr, reference.frozen())

    # Two overlay sites on one face; the second also links to the first.
    face_id = (seed * 7) % mesh.num_faces
    corners = mesh.vertices[mesh.faces[face_id]]
    for weights in ((0.5, 0.3, 0.2), (0.2, 0.2, 0.6)):
        point = np.asarray(weights) @ corners
        graph.attach_site(point, face_id)
        reference.attach_site(point, face_id)
    assert graph.csr.num_overlay == 2
    assert graph.csr.to_lists() == (reference.neighbors, reference.weights)
    graph.freeze_sites()
    assert graph.csr.num_overlay == 0
    _assert_same_arrays(graph.csr, reference.frozen())


def test_weight_fn_called_once_per_pair_in_first_occurrence_order():
    mesh = make_terrain(grid_exponent=3, extent=(60.0, 60.0), relief=15.0,
                        seed=4)
    calls = {"array": [], "reference": []}

    def recorder(log):
        def weight(a, b):
            log.append((tuple(a), tuple(b)))
            return float(np.linalg.norm(a - b))
        return weight

    GeodesicGraph(mesh, 2, weight_fn=recorder(calls["array"]))
    _ReferenceBuilder(mesh, 2, recorder(calls["reference"]))
    assert calls["array"] == calls["reference"]
    assert len(set(calls["array"])) == len(calls["array"])
