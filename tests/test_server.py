"""End-to-end tests for the asyncio TCP server: wire parity with the
direct service, typed errors, pipelining, batching/coalescing, and the
load-generator round trip.

No asyncio plumbing in the tests themselves — the server runs on its
own event-loop thread (:class:`ThreadedServer`) and the tests speak to
it through the synchronous :class:`OracleClient`.
"""

import json

import pytest

from repro.core import SEOracle, pack_oracle
from repro.geodesic import GeodesicEngine
from repro.serving import OracleService, TerrainSpec, ThreadedServer
from repro.serving.loadgen import (
    OracleClient,
    ServerError,
    closed_loop,
    open_loop,
    sample_pairs,
)
from repro.serving.protocol import PROTOCOL_VERSION
from repro.terrain import make_terrain, sample_uniform

NUM_POIS = 12


@pytest.fixture(scope="module")
def workload():
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=7)
    pois = sample_uniform(mesh, NUM_POIS, seed=8)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    oracle = SEOracle(engine, 0.3, seed=7).build()
    return mesh, pois, engine, oracle


@pytest.fixture(scope="module")
def store_path(workload, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "alps.store"
    pack_oracle(workload[3], path)
    return path


@pytest.fixture(scope="module")
def served(store_path):
    """A running server over a static 'alps' terrain, plus its
    service for direct-reference answers."""
    service = OracleService(max_resident=2)
    service.register("alps", TerrainSpec(str(store_path)))
    with ThreadedServer(service, max_batch=32) as server:
        yield service, server


@pytest.fixture()
def client(served):
    _, server = served
    with OracleClient(server.host, server.port) as c:
        yield c


class TestWireParity:
    def test_hello(self, served, client):
        hello = client.hello()
        assert hello["protocol"] == PROTOCOL_VERSION
        assert hello["worker"] == 0
        assert hello["workers"] == 1
        assert hello["writer"] is True
        assert "alps" in hello["terrains"]

    def test_terrains(self, client):
        assert client.terrains() == ["alps"]

    def test_query_matches_service(self, served, client):
        service, _ = served
        assert client.query("alps", 0, 5) == service.query("alps", 0, 5)
        assert client.query("alps", 3, 3) == 0.0

    def test_batch_matches_service(self, served, client):
        service, _ = served
        sources, targets = [0, 1, 2, 3], [4, 5, 6, 7]
        via_wire = client.batch("alps", sources, targets)
        direct = service.query_batch("alps", sources, targets)
        assert via_wire == [float(d) for d in direct]

    def test_knn_matches_service(self, served, client):
        service, _ = served
        via_wire = client.k_nearest("alps", 0, 3)
        direct = service.k_nearest("alps", 0, 3)
        assert via_wire == [(int(p), float(d)) for p, d in direct]

    def test_range_matches_service(self, served, client):
        service, _ = served
        via_wire = client.range_query("alps", 0, 60.0)
        direct = service.range_query("alps", 0, 60.0)
        assert via_wire == [(int(p), float(d)) for p, d in direct]

    def test_rnn_matches_service(self, served, client):
        service, _ = served
        assert client.reverse_nearest("alps", 2) == [
            int(p) for p in service.reverse_nearest("alps", 2)
        ]

    def test_describe(self, served, client):
        service, _ = served
        assert (client.describe("alps")["epsilon"]
                == service.describe("alps")["epsilon"])

    def test_stats_carry_counters(self, client):
        client.query("alps", 0, 1)
        stats = client.stats()
        assert stats["worker"] == 0
        counters = stats["terrains"]["alps"]
        assert counters["queries"] >= 1
        assert "coalesce_ratio" in counters


class TestTypedErrors:
    def expect(self, call, error_type):
        with pytest.raises(ServerError) as info:
            call()
        assert info.value.error_type == error_type

    def test_unknown_terrain(self, client):
        self.expect(lambda: client.query("nope", 0, 1), "unknown-terrain")

    def test_unknown_poi(self, client):
        self.expect(lambda: client.query("alps", 0, 9999), "unknown-poi")

    def test_negative_id(self, client):
        self.expect(lambda: client.query("alps", -1, 2), "bad-request")

    def test_update_on_static_terrain(self, client):
        self.expect(lambda: client.insert("alps", 1.0, 2.0), "not-mutable")
        self.expect(lambda: client.delete("alps", 0), "not-mutable")
        self.expect(lambda: client.flush("alps"), "not-mutable")

    def test_unknown_op(self, client):
        self.expect(lambda: client.call("frobnicate"), "unknown-op")

    def test_unsupported_version(self, client):
        stream = client.stream
        stream.write(b'{"op":"hello","v":99,"id":1}\n')
        stream.flush()
        reply = json.loads(stream.readline())
        assert reply["ok"] is False
        assert reply["error"]["type"] == "unsupported-version"
        assert reply["id"] == 1

    def test_bad_json_line(self, client):
        stream = client.stream
        stream.write(b"this is not json\n")
        stream.flush()
        reply = json.loads(stream.readline())
        assert reply["ok"] is False
        assert reply["error"]["type"] == "bad-request"
        assert reply["id"] is None

    def test_blank_lines_ignored(self, client):
        stream = client.stream
        stream.write(b"\n\n" + b'{"op":"terrains","id":9}\n')
        stream.flush()
        reply = json.loads(stream.readline())
        assert reply["id"] == 9 and reply["ok"] is True

    def test_oversized_line_closes_connection(self, served):
        _, server = served
        with OracleClient(server.host, server.port) as throwaway:
            stream = throwaway.stream
            stream.write(b'{"op":"hello","pad":"' + b"x" * (2 << 20)
                         + b'"}\n')
            stream.flush()
            reply = json.loads(stream.readline())
            assert reply["error"]["type"] == "bad-request"
            assert "too long" in reply["error"]["message"]
            # The server hangs up: either a clean EOF or a reset,
            # depending on how much of the line was still in flight.
            try:
                assert stream.readline() == b""
            except ConnectionError:
                pass

    def test_errors_do_not_poison_connection(self, client):
        with pytest.raises(ServerError):
            client.query("alps", 0, 9999)
        assert client.query("alps", 0, 1) >= 0.0


class TestPipeliningAndCoalescing:
    def test_pipelined_ids_match(self, served, client):
        service, _ = served
        pairs = sample_pairs(NUM_POIS, 40, seed=5)
        stream = client.stream
        for i, (s, t) in enumerate(pairs):
            stream.write(json.dumps(
                {"op": "query", "id": i, "terrain": "alps",
                 "source": s, "target": t}
            ).encode() + b"\n")
        stream.flush()
        for i, (s, t) in enumerate(pairs):
            reply = json.loads(stream.readline())
            assert reply["id"] == i  # responses arrive in order
            assert (reply["result"]["distance"]
                    == service.query("alps", s, t))

    def test_burst_is_coalesced(self, served):
        service, server = served
        before = service.counters("alps").server_batched_queries
        batches_before = service.counters("alps").server_batches
        with OracleClient(server.host, server.port) as c:
            stream = c.stream
            for i in range(32):
                stream.write(json.dumps(
                    {"op": "query", "id": i, "terrain": "alps",
                     "source": i % NUM_POIS,
                     "target": (i * 5) % NUM_POIS}
                ).encode() + b"\n")
            stream.flush()
            for _ in range(32):
                assert json.loads(stream.readline())["ok"] is True
        counters = service.counters("alps")
        drained = counters.server_batched_queries - before
        batches = counters.server_batches - batches_before
        assert drained == 32
        # A back-to-back pipelined burst must land in fewer probes
        # than requests — that's the whole point of the batcher.
        assert batches < 32

    def test_bad_id_in_burst_fails_alone(self, served, client):
        """Per-item fallback: one unknown POI inside a coalesced burst
        errors that request only; its neighbours still answer."""
        service, _ = served
        stream = client.stream
        sources = [0, 1, 9999, 2, 3]
        for i, s in enumerate(sources):
            stream.write(json.dumps(
                {"op": "query", "id": i, "terrain": "alps",
                 "source": s, "target": 4}
            ).encode() + b"\n")
        stream.flush()
        replies = [json.loads(stream.readline()) for _ in sources]
        assert [r["ok"] for r in replies] == [True, True, False,
                                              True, True]
        assert replies[2]["error"]["type"] == "unknown-poi"
        for reply, s in zip(replies, sources):
            if reply["ok"]:
                assert (reply["result"]["distance"]
                        == service.query("alps", s, 4))


class TestMutableVerbs:
    @pytest.fixture()
    def mutable_served(self, workload, store_path):
        mesh, pois, engine, _ = workload
        service = OracleService(max_resident=2)
        service.register("dunes", TerrainSpec(
            str(store_path), mutable=True, engine=engine,
            rebuild_factor=10.0))
        with ThreadedServer(service, max_batch=16) as server:
            with OracleClient(server.host, server.port) as c:
                yield service, c

    def test_insert_query_delete(self, mutable_served):
        service, c = mutable_served
        new_id = c.insert("dunes", 40.0, 40.0)
        assert new_id == NUM_POIS
        distance = c.query("dunes", new_id, 0)
        assert distance == service.query("dunes", new_id, 0)
        c.delete("dunes", new_id)
        with pytest.raises(ServerError) as info:
            c.query("dunes", new_id, 0)
        assert info.value.error_type == "unknown-poi"

    def test_flush_returns_meta_and_queries_survive(self, mutable_served):
        service, c = mutable_served
        before = c.query("dunes", 0, 5)
        c.insert("dunes", 30.0, 60.0)
        meta = c.flush("dunes")
        assert "fingerprint" in meta
        # Distances between surviving original POIs are invariant
        # under insert + flush.
        assert c.query("dunes", 0, 5) == before


class TestLoadGenerator:
    def test_closed_loop_equivalence(self, served):
        service, server = served
        pairs = sample_pairs(NUM_POIS, 120, seed=11)
        report = closed_loop(server.host, server.port, "alps", pairs,
                             clients=4)
        assert report.mode.startswith("closed-loop")
        assert report.requests == len(pairs)
        assert report.errors == 0
        assert report.qps > 0
        assert report.latency_ms["p50"] <= report.latency_ms["p95"]
        reference = service.query_batch("alps",
                                        [s for s, _ in pairs],
                                        [t for _, t in pairs])
        assert report.distances == [float(d) for d in reference]

    def test_open_loop_equivalence(self, served):
        service, server = served
        pairs = sample_pairs(NUM_POIS, 60, seed=13)
        report = open_loop(server.host, server.port, "alps", pairs,
                           rate=500.0)
        assert report.mode.startswith("open-loop")
        assert report.errors == 0
        reference = service.query_batch("alps",
                                        [s for s, _ in pairs],
                                        [t for _, t in pairs])
        assert report.distances == [float(d) for d in reference]

    def test_report_as_dict_is_json_ready(self, served):
        _, server = served
        pairs = sample_pairs(NUM_POIS, 20, seed=17)
        report = closed_loop(server.host, server.port, "alps", pairs,
                             clients=2)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["mode"].startswith("closed-loop")
        assert set(payload["latency_ms"]) == {"p50", "p95", "p99", "max"}
