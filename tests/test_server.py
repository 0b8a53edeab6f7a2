"""End-to-end tests for the asyncio TCP server: wire parity with the
direct service, typed errors, pipelining, batching/coalescing, the
coalesced reply writer, a protocol fuzz wall, burst reads, and the
load-generator round trip.

Most tests use no asyncio plumbing — the server runs on its own
event-loop thread (:class:`ThreadedServer`) and the tests speak to it
through the synchronous :class:`OracleClient`.  The burst-read tests
drive one connection's reader loop directly instead, so that they, not
the kernel, choose where each read ends.
"""

import asyncio
import json
import math
import shutil
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SEOracle, pack_oracle
from repro.geodesic import GeodesicEngine
from repro.serving import OracleService, TerrainSpec, ThreadedServer
from repro.serving import protocol
from repro.serving.loadgen import (
    OracleClient,
    ServerError,
    closed_loop,
    open_loop,
    sample_pairs,
)
from repro.serving.protocol import (
    ERROR_TYPES,
    ID_LIMIT,
    PROTOCOL_VERSION,
    ProtocolError,
    encode,
    error_response,
    ok_response,
    request,
)
from repro.serving.server import OracleServer
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


def _expected_error(line, request_id):
    """The error reply the server gives a line the protocol rejects."""
    try:
        protocol.validate_request(protocol.decode_line(line))
    except ProtocolError as error:
        return error_response(request_id, error.error_type, error.message)
    raise AssertionError(f"{line!r} is a valid request")


class TestCoalescedSender:
    def test_mixed_burst_is_byte_identical(self, served, client):
        """One pipelined burst of every reply kind: the reply stream
        equals ``encode`` of each expected message, line for line."""
        service, _ = served
        hello = client.hello()
        with pytest.raises((KeyError, IndexError)) as unknown_poi:
            service.query("alps", 9999, 4)
        poi_type, poi_message = protocol.classify_exception(
            unknown_poi.value)

        def query(request_id, source, target):
            line = json.dumps({"op": "query", "id": request_id,
                               "terrain": "alps", "source": source,
                               "target": target}).encode()
            return line, ok_response(
                request_id,
                {"distance": service.query("alps", source, target)})

        burst = [
            query(1, 0, 5),
            query(None, 1, 6),
            (b'{"op":"query","terrain":"alps","source":2,"target":7}',
             ok_response(None, {"distance": service.query("alps", 2, 7)})),
            query("s-1", 3, 8),
            query(2**70, 4, 9),
            query(-3, 3, 3),
            query(True, 5, 10),
            (b'{"op":"query","id":7,"terrain":"alps","source":9999,'
             b'"target":4}', error_response(7, poi_type, poi_message)),
            (b'{"op":"hello","id":8}', ok_response(8, hello)),
            (b'{"op":"frobnicate","id":9}',
             _expected_error(b'{"op":"frobnicate","id":9}', 9)),
            (b"this is not json",
             _expected_error(b"this is not json", None)),
            (b"   ", None),
            query(12, 6, 11),
        ]
        stream = client.stream
        stream.write(b"".join(line + b"\n" for line, _ in burst))
        stream.flush()
        for line, expected in burst:
            if expected is not None:
                assert stream.readline() == encode(expected), line

    def test_burst_takes_fewer_writes_than_replies(self, served,
                                                   monkeypatch):
        _, server = served
        writes = []
        write = asyncio.StreamWriter.write

        def counting_write(self, data):
            writes.append(len(data))
            return write(self, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
        with OracleClient(server.host, server.port) as c:
            c.stream.write(b"".join(
                encode(request("query", i, terrain="alps",
                               source=i % NUM_POIS,
                               target=(i * 7) % NUM_POIS))
                for i in range(64)))
            c.stream.flush()
            replies = [json.loads(c.stream.readline()) for _ in range(64)]
        assert [reply["id"] for reply in replies] == list(range(64))
        assert all(reply["ok"] for reply in replies)
        assert 0 < len(writes) < len(replies)

    def test_reply_ahead_of_lingering_batch_is_not_held(self, store_path):
        """A reply that is ready goes out before the sender waits on a
        query still in its batch."""
        service = OracleService(max_resident=1)
        service.register("alps", TerrainSpec(str(store_path)))
        with service, ThreadedServer(service, linger_us=300_000) as server, \
                OracleClient(server.host, server.port) as c:
            c.stream.write(encode(request("hello", 1)) + encode(
                request("query", 2, terrain="alps", source=0, target=1)))
            c.stream.flush()
            started = time.perf_counter()
            hello = json.loads(c.stream.readline())
            hello_s = time.perf_counter() - started
            query = json.loads(c.stream.readline())
            query_s = time.perf_counter() - started
        assert (hello["id"], hello["ok"]) == (1, True)
        assert (query["id"], query["ok"]) == (2, True)
        assert hello_s < 0.1
        assert query_s > 0.2  # the batch did linger


@pytest.fixture(scope="module")
def two_terrains(workload, store_path, tmp_path_factory):
    """A server over a static 'alps' and a mutable 'dunes' terrain,
    each on its own copy of the store."""
    mesh, pois, _, _ = workload
    folder = tmp_path_factory.mktemp("two")
    static_path, mutable_path = folder / "alps.store", folder / "dunes.store"
    shutil.copy(store_path, static_path)
    shutil.copy(store_path, mutable_path)
    service = OracleService(max_resident=2)
    service.register("alps", TerrainSpec(str(static_path)))
    service.register("dunes", TerrainSpec(
        str(mutable_path), mutable=True,
        engine=GeodesicEngine(mesh, pois, points_per_edge=1),
        rebuild_factor=10.0))
    with service, ThreadedServer(service, max_batch=16) as server:
        yield server


class TestOutOfRangeNumbers:
    """Ids past int64 and non-finite numbers answer typed errors on
    every verb family, never ``internal``."""

    @pytest.mark.parametrize("line,error_type", [
        (b'{"op":"query","terrain":"alps","source":%d,"target":1}'
         % ID_LIMIT, "unknown-poi"),
        (b'{"op":"batch","terrain":"dunes","sources":[0,%d],'
         b'"targets":[1,2]}' % ID_LIMIT, "unknown-poi"),
        (b'{"op":"knn","terrain":"alps","source":%d,"k":2}' % ID_LIMIT,
         "unknown-poi"),
        (b'{"op":"range","terrain":"dunes","source":%d,"radius":5}'
         % ID_LIMIT, "unknown-poi"),
        (b'{"op":"rnn","terrain":"alps","source":%d}' % ID_LIMIT,
         "unknown-poi"),
        (b'{"op":"range","terrain":"alps","source":1,"radius":NaN}',
         "bad-request"),
        (b'{"op":"range","terrain":"alps","source":1,"radius":1e400}',
         "bad-request"),
        (b'{"op":"insert","terrain":"dunes","x":Infinity,"y":1}',
         "bad-request"),
        (b'{"op":"insert","terrain":"dunes","x":1,"y":NaN}',
         "bad-request"),
        (b'{"op":"delete","terrain":"dunes","poi":%d}' % ID_LIMIT,
         "unknown-poi"),
    ])
    def test_typed_error(self, two_terrains, line, error_type):
        with OracleClient(two_terrains.host, two_terrains.port) as c:
            c.stream.write(line + b"\n")
            c.stream.flush()
            reply = json.loads(c.stream.readline())
            assert reply["ok"] is False
            assert reply["error"]["type"] == error_type
            assert c.query("alps", 0, 1) >= 0.0


class TestCoLocatedInsert:
    def test_second_poi_on_a_live_site_is_bad_value(self, two_terrains):
        """A rebuild would merge the two POIs; the insert is refused
        and the next flush still succeeds."""
        with OracleClient(two_terrains.host, two_terrains.port) as c:
            first = c.insert("dunes", 20.0, 70.0)
            with pytest.raises(ServerError) as info:
                c.insert("dunes", 20.0, 70.0)
            assert info.value.error_type == "bad-value"
            assert "fingerprint" in c.flush("dunes")
            c.delete("dunes", first)


# Request fields are drawn from edge values: ids at and past the ends of
# the tables and of int64, non-finite and huge numbers, empty and
# unknown terrains.  A field usually gets a value of its own kind, so
# that many requests reach the service, and sometimes any edge value.
# Each choice is a draw from a list whose first entry is the common
# case, which is what Hypothesis draws most and shrinks towards.
_IDS = [0, 1, 3, 5, NUM_POIS - 1, NUM_POIS, 9999, ID_LIMIT - 1,
        ID_LIMIT, 2**70]
_NUMBERS = [40.0, 0.5, 5, -1.0, 1e308, 10**400, math.inf, -math.inf,
            math.nan]
_EDGE_VALUES = _IDS + _NUMBERS + [
    -1, True, False, None, "", "alps", "nope", [], [0, 1], [-1], {},
    {"a": 1}, "x",
]
_FIELD_VALUES = {
    "terrain": st.sampled_from(["alps", "dunes", "", "nope"]),
    "source": st.sampled_from(_IDS),
    "target": st.sampled_from(_IDS),
    "poi": st.sampled_from(_IDS),
    "sources": st.lists(st.sampled_from(_IDS), max_size=3),
    "targets": st.lists(st.sampled_from(_IDS), max_size=3),
    "k": st.sampled_from([1, 3, 0, -1, ID_LIMIT, 2**70]),
    "radius": st.sampled_from(_NUMBERS),
    "x": st.sampled_from(_NUMBERS),
    "y": st.sampled_from(_NUMBERS),
}


def _odds(draw, hits, misses):
    return draw(st.sampled_from([True] * hits + [False] * misses))


@st.composite
def request_line(draw):
    """One request line: mostly JSON requests for every op, sometimes
    arbitrary bytes."""
    if not _odds(draw, 5, 1):
        return draw(st.binary(max_size=40)).replace(b"\n", b"")
    if _odds(draw, 9, 1):
        op = draw(st.sampled_from(protocol.OPS))
    else:
        op = draw(st.sampled_from(["nope"] + _EDGE_VALUES))
    names = list(protocol._SPECS.get(op, ())) if isinstance(op, str) \
        else []
    names += draw(st.lists(st.sampled_from(sorted(_FIELD_VALUES)),
                           max_size=2))
    message = {"op": op}
    for name in names:
        if name in message or not _odds(draw, 9, 1):
            continue
        if _odds(draw, 4, 1):
            message[name] = draw(_FIELD_VALUES[name])
        else:
            message[name] = draw(st.sampled_from(_EDGE_VALUES))
    if _odds(draw, 1, 1):
        message["id"] = draw(st.sampled_from(_EDGE_VALUES))
    if not _odds(draw, 9, 1):
        message["v"] = draw(st.sampled_from(_EDGE_VALUES))
    return json.dumps(message).encode()


def _request_id(line):
    try:
        message = json.loads(line.decode("utf-8", errors="replace"))
    except (ValueError, RecursionError):
        return None
    return message.get("id") if isinstance(message, dict) else None


class TestProtocolFuzz:
    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(request_line(), min_size=1, max_size=12))
    def test_one_typed_reply_per_line(self, two_terrains, lines):
        """Every non-blank line gets exactly one reply, in order; every
        error is typed and never ``internal``; the connection still
        answers afterwards."""
        with OracleClient(two_terrains.host, two_terrains.port,
                          timeout=30) as c:
            c.stream.write(b"".join(line + b"\n" for line in lines))
            c.stream.flush()
            for line in lines:
                if not line.strip():
                    continue
                reply = json.loads(c.stream.readline())
                assert json.dumps(reply["id"]) \
                    == json.dumps(_request_id(line)), line
                if not reply["ok"]:
                    assert reply["error"]["type"] in ERROR_TYPES
                    assert reply["error"]["type"] != "internal", (
                        line, reply)
            assert c.call("hello", request_id="after")["protocol"] \
                == PROTOCOL_VERSION


class _CollectingWriter:
    """The part of ``asyncio.StreamWriter`` the server uses; keeps
    every byte written."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _serve_chunks(service, chunks, eof=True):
    """Reply bytes of one connection whose reads return ``chunks``,
    one per read: each chunk is fed and the loop yields so the server
    reads it before the next one arrives.  Without ``eof`` the server
    must end the connection itself."""

    async def drive():
        server = OracleServer(service, max_batch=32)
        reader = asyncio.StreamReader(limit=OracleServer._LINE_LIMIT)
        writer = _CollectingWriter()
        connection = asyncio.ensure_future(
            server._serve_connection(reader, writer))
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)
        if eof:
            reader.feed_eof()
        await asyncio.wait_for(connection, timeout=30)
        return bytes(writer.data)

    return asyncio.run(drive())


@pytest.fixture(scope="module")
def static_service(store_path):
    """A service over the static 'alps' store that only the burst
    tests drive."""
    service = OracleService(max_resident=2)
    service.register("alps", TerrainSpec(str(store_path)))
    with service:
        yield service


_BLANK_AND_ODD_LINES = st.sampled_from([
    b"", b" ", b"\x0b", b"\x0c", b" \t\x0b\x0c\r",
    b"\xff\xfe", b'{"op":"terrains","id":"\xff"}', b"[1, 2]", b'"hello"',
    b"3", b'\xef\xbb\xbf{"op":"terrains","id":1}',
    b'{"op":"terrains","id":2} {"op":"terrains"}',
])


@st.composite
def wire_lines(draw):
    """Request lines ended by ``\\n`` or ``\\r\\n``; the last one
    sometimes sent without its newline.  ``stats`` replies carry the
    coalescing counters, which move with the cuts, so no line asks
    for them."""
    lines = draw(st.lists(
        st.one_of(request_line().filter(lambda line: b'"stats"' not in line),
                  _BLANK_AND_ODD_LINES),
        min_size=1, max_size=10))
    framed = [line + draw(st.sampled_from([b"\n", b"\r\n"]))
              for line in lines]
    if draw(st.booleans()):
        framed[-1] = lines[-1]
    return framed


def _too_long():
    return encode(error_response(None, "bad-request",
                                 "request line too long"))


class TestBurstReads:
    @settings(max_examples=150, deadline=None)
    @given(lines=wire_lines(), data=st.data())
    def test_any_cut_replies_like_one_line_per_read(self, static_service,
                                                    lines, data):
        stream = b"".join(lines)
        cuts = sorted(set(data.draw(st.lists(
            st.integers(min_value=1, max_value=max(1, len(stream) - 1)),
            max_size=8))))
        chunks = [stream[start:end] for start, end
                  in zip([0] + cuts, cuts + [len(stream)])]
        expected = _serve_chunks(static_service, lines)
        assert _serve_chunks(static_service, chunks) == expected
        assert expected.count(b"\n") == sum(
            1 for line in lines if line.strip())

    @staticmethod
    def _query(service, request_id, source, target):
        """A ``query`` line and its reply."""
        line = encode(request("query", request_id, terrain="alps",
                              source=source, target=target))
        return line, encode(ok_response(
            request_id, {"distance": service.query("alps", source, target)}))

    @staticmethod
    def _padded(request_id, size):
        """A ``terrains`` request of exactly ``size`` bytes."""
        head = b'{"op":"terrains","id":%d,"pad":"' % request_id
        return head + b"x" * (size - len(head) - 2) + b'"}'

    def test_line_at_the_limit_is_answered(self, static_service):
        limit = OracleServer._LINE_LIMIT
        line = self._padded(1, limit) + b"\n"
        query, reply = self._query(static_service, 2, 0, 5)
        # The line arrives over many reads and ends exactly at the limit.
        chunks = [line[start:start + 300_000]
                  for start in range(0, len(line), 300_000)]
        assert _serve_chunks(static_service, chunks + [query]) \
            == encode(ok_response(1, {"terrains": ["alps"]})) + reply

    def test_line_past_the_limit_ends_the_connection(self, static_service):
        first, first_reply = self._query(static_service, 1, 0, 1)
        second, second_reply = self._query(static_service, 2, 1, 2)
        after, _ = self._query(static_service, 4, 2, 3)
        burst = (first + second
                 + self._padded(3, OracleServer._LINE_LIMIT + 1) + b"\n"
                 + after)
        assert _serve_chunks(static_service, [burst], eof=False) \
            == first_reply + second_reply + _too_long()

    def test_partial_line_past_the_limit_ends_the_connection(
            self, static_service):
        query, reply = self._query(static_service, 1, 0, 1)
        half = OracleServer._LINE_LIMIT // 2
        chunks = [query + b"y" * half, b"y" * half, b"y"]
        assert _serve_chunks(static_service, chunks, eof=False) \
            == reply + _too_long()

    def test_lines_decode_with_the_newline_they_were_sent_with(
            self, static_service):
        """Error positions count a line's ending, so each line reaches
        ``decode_line`` as sent: with its ``\\n`` or ``\\r\\n``, and the
        last one at EOF with none."""
        lines = [b'{"op":"query","id":5,\n', b'{"op":"query","id":5,\r\n',
                 b'{"op":"query","id":5,']
        assert _serve_chunks(static_service, [b"".join(lines)]) == b"".join(
            encode(_expected_error(line, None)) for line in lines)

    def test_last_line_without_newline_is_answered(self, static_service):
        first, first_reply = self._query(static_service, 1, 0, 1)
        last, last_reply = self._query(static_service, 2, 3, 4)
        assert _serve_chunks(static_service, [first + last.rstrip(b"\n")]) \
            == first_reply + last_reply


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
