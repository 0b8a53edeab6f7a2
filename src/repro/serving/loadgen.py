"""Client and load generators for the NDJSON oracle server.

Three layers, all speaking :mod:`~repro.serving.protocol`:

:class:`OracleClient`
    A plain blocking socket client — one request, one reply.  This is
    what tests, the benchmark harness, and third-party scripts use to
    talk to a server; typed error replies surface as
    :class:`ServerError` carrying the protocol error type.

:func:`closed_loop`
    N client threads, each with its own connection, each issuing its
    share of a seeded workload as fast as responses come back.
    Closed-loop concurrency is what makes the server's coalescing
    visible: while one batch computes, the other N-1 clients' requests
    pile into the next batch.

:func:`open_loop`
    A single pipelined asyncio connection issuing requests at a fixed
    arrival rate regardless of completions (ids match responses to
    requests).  Open-loop latency shows what queueing does at a given
    offered load instead of letting slow responses throttle arrivals.

Both generators return a :class:`LoadReport` with QPS, p50/p95/p99
latency, and the per-pair distances aligned with the input workload —
so callers can equivalence-gate every networked answer against a
direct :class:`~repro.serving.service.OracleService` replay.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import protocol

__all__ = [
    "ServerError",
    "OracleClient",
    "LoadReport",
    "ReplayReport",
    "sample_pairs",
    "closed_loop",
    "open_loop",
    "replay_workload",
    "replay_direct",
]


class ServerError(Exception):
    """A typed error reply from the server."""

    def __init__(
        self, error_type: str, message: str, extra: Optional[Dict] = None
    ):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message
        self.extra = extra or {}


def _raise_from_reply(reply: Dict[str, Any]) -> None:
    error = reply.get("error") or {}
    extra = {
        key: value
        for key, value in reply.items()
        if key not in ("ok", "id", "error")
    }
    raise ServerError(
        error.get("type", "internal"),
        error.get("message", "unspecified server error"),
        extra,
    )


class OracleClient:
    """Blocking request/response client for one server connection."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    # -- plumbing ------------------------------------------------------
    @property
    def stream(self):
        """The buffered socket stream, for raw pre-encoded traffic."""
        return self._file

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, block for its reply, return ``result``."""
        self._file.write(protocol.encode(protocol.request(op, **fields)))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        reply = protocol.decode_line(line)
        if not reply.get("ok"):
            _raise_from_reply(reply)
        return reply["result"]

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "OracleClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- verbs ---------------------------------------------------------
    def hello(self) -> Dict[str, Any]:
        return self.call("hello")

    def terrains(self) -> List[str]:
        return self.call("terrains")["terrains"]

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def describe(self, terrain: str) -> Dict[str, Any]:
        return self.call("describe", terrain=terrain)["meta"]

    def query(self, terrain: str, source: int, target: int) -> float:
        return self.call(
            "query", terrain=terrain, source=source, target=target
        )["distance"]

    def batch(
        self,
        terrain: str,
        sources: Sequence[int],
        targets: Sequence[int],
    ) -> List[float]:
        return self.call(
            "batch",
            terrain=terrain,
            sources=list(sources),
            targets=list(targets),
        )["distances"]

    def k_nearest(
        self, terrain: str, source: int, k: int
    ) -> List[Tuple[int, float]]:
        hits = self.call("knn", terrain=terrain, source=source, k=k)
        return [(poi, distance) for poi, distance in hits["neighbors"]]

    def range_query(
        self, terrain: str, source: int, radius: float
    ) -> List[Tuple[int, float]]:
        hits = self.call("range", terrain=terrain, source=source, radius=radius)
        return [(poi, distance) for poi, distance in hits["hits"]]

    def reverse_nearest(self, terrain: str, source: int) -> List[int]:
        return self.call("rnn", terrain=terrain, source=source)["pois"]

    def insert(self, terrain: str, x: float, y: float) -> int:
        return self.call("insert", terrain=terrain, x=x, y=y)["poi"]

    def delete(self, terrain: str, poi: int) -> None:
        self.call("delete", terrain=terrain, poi=poi)

    def flush(self, terrain: str) -> Dict[str, Any]:
        return self.call("flush", terrain=terrain)["meta"]


# ----------------------------------------------------------------------
# workloads and reports
# ----------------------------------------------------------------------
def sample_pairs(
    poi_count: int, count: int, seed: int = 0
) -> List[Tuple[int, int]]:
    """A seeded (source, target) workload over ``poi_count`` POIs."""
    rng = random.Random(seed)
    last = poi_count - 1
    return [
        (rng.randint(0, last), rng.randint(0, last)) for _ in range(count)
    ]


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    mode: str
    requests: int
    errors: int
    elapsed_s: float
    qps: float
    latency_ms: Dict[str, float]
    #: per-pair distances aligned with the input workload (None on error)
    distances: List[Optional[float]] = field(repr=False, default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "errors": self.errors,
            "elapsed_s": round(self.elapsed_s, 6),
            "qps": round(self.qps, 2),
            "latency_ms": self.latency_ms,
        }


def percentiles_ms(latencies: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99/max of a latency sample, in milliseconds."""
    if not latencies:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    ordered = sorted(latencies)
    last = len(ordered) - 1

    def at(fraction: float) -> float:
        return ordered[min(last, int(round(fraction * last)))] * 1e3

    return {
        "p50": round(at(0.50), 4),
        "p95": round(at(0.95), 4),
        "p99": round(at(0.99), 4),
        "max": round(ordered[-1] * 1e3, 4),
    }


# ----------------------------------------------------------------------
# scenario replay: sequential, raw-byte-capturing
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """What one workload-file replay measured and received.

    ``response_bytes`` is the raw concatenated reply stream — the
    byte-identity acceptance check ("replaying the same seeded workload
    twice yields byte-identical response streams") compares these
    directly, so no decode/re-encode step can mask a drift.
    """

    terrain: str
    requests: int
    errors: int
    elapsed_s: float
    qps: float
    latency_ms: Dict[str, float]
    #: per-op latency percentiles, e.g. {"knn": {"p50": ...}, ...}
    op_latency_ms: Dict[str, Dict[str, float]]
    response_bytes: bytes = field(repr=False, default=b"")
    #: decoded ``result`` payloads aligned with events (None on error)
    results: List[Optional[Dict[str, Any]]] = field(
        repr=False, default_factory=list
    )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "terrain": self.terrain,
            "requests": self.requests,
            "errors": self.errors,
            "elapsed_s": round(self.elapsed_s, 6),
            "qps": round(self.qps, 2),
            "latency_ms": self.latency_ms,
            "op_latency_ms": self.op_latency_ms,
        }


def _event_request(
    index: int, terrain: str, event: Dict[str, Any]
) -> Dict[str, Any]:
    """The request a workload event stands for: its fields, addressed
    to ``terrain`` and tagged with the event's index."""
    fields = {
        key: value
        for key, value in event.items()
        if key not in ("op", "arrival_s")
    }
    return protocol.request(
        event["op"], request_id=index, terrain=terrain, **fields
    )


def replay_workload(
    host: str,
    port: int,
    terrain: str,
    events: Sequence[Dict[str, Any]],
    timeout: float = 60.0,
    pace: bool = False,
) -> ReplayReport:
    """Replay workload events sequentially over one connection.

    Event order is the workload file's order and ``request_id`` is the
    event index, so the reply stream is a pure function of (server
    state, workload file) — replaying twice must produce identical
    bytes.  Typed error replies are counted, not raised: a scenario
    file probing error paths is still a valid workload.

    With ``pace=True``, events carrying the version-2 ``arrival_s``
    field are held until their Poisson arrival time (open-loop offered
    load on a single connection); events without the field send
    immediately.  Pacing changes *when* requests leave, never their
    order or content, so the byte-identity property is unaffected.
    """
    latencies: List[float] = []
    by_op: Dict[str, List[float]] = {}
    results: List[Optional[Dict[str, Any]]] = []
    raw = bytearray()
    errors = 0
    with OracleClient(host, port, timeout=timeout) as client:
        stream = client.stream
        began = time.perf_counter()
        for index, event in enumerate(events):
            line = protocol.encode(_event_request(index, terrain, event))
            if pace and event.get("arrival_s") is not None:
                wait = began + event["arrival_s"] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            tick = time.perf_counter()
            stream.write(line)
            stream.flush()
            reply_line = stream.readline()
            took = time.perf_counter() - tick
            if not reply_line:
                raise ConnectionError("server closed the connection mid-replay")
            latencies.append(took)
            by_op.setdefault(event["op"], []).append(took)
            raw += reply_line
            reply = json.loads(reply_line)
            if reply.get("ok"):
                results.append(reply["result"])
            else:
                results.append(None)
                errors += 1
        elapsed = time.perf_counter() - began
    return ReplayReport(
        terrain=terrain,
        requests=len(events),
        errors=errors,
        elapsed_s=elapsed,
        qps=len(events) / elapsed if elapsed > 0 else 0.0,
        latency_ms=percentiles_ms(latencies),
        op_latency_ms={
            op: percentiles_ms(samples) for op, samples in sorted(by_op.items())
        },
        response_bytes=bytes(raw),
        results=results,
    )


def replay_direct(
    service: Any, terrain: str, events: Sequence[Dict[str, Any]]
) -> List[Optional[Dict[str, Any]]]:
    """Answer workload events directly on an ``OracleService``.

    Each event becomes the request :func:`replay_workload` sends and is
    answered through ``protocol.validate_request`` and
    ``protocol.answer``, the path the server takes, so a networked
    replay can be equivalence-gated with ``==`` against this reference.
    Events the protocol or the service rejects yield ``None``,
    mirroring the error slots of :func:`replay_workload`.
    """
    reference: List[Optional[Dict[str, Any]]] = []
    for index, event in enumerate(events):
        try:
            request = protocol.validate_request(
                _event_request(index, terrain, event))
            reference.append(protocol.answer(service, request))
        except (KeyError, IndexError, ValueError, protocol.ProtocolError):
            reference.append(None)
    return reference


# ----------------------------------------------------------------------
# closed loop: N threads, request -> wait -> next request
# ----------------------------------------------------------------------
def closed_loop(
    host: str,
    port: int,
    terrain: str,
    pairs: Sequence[Tuple[int, int]],
    clients: int = 16,
) -> LoadReport:
    """Drive ``pairs`` through ``clients`` synchronous connections.

    Client ``i`` owns pairs ``i, i+clients, i+2*clients, ...``; each
    issues its next query the moment the previous answer arrives.
    """
    clients = max(1, min(clients, len(pairs) or 1))
    distances: List[Optional[float]] = [None] * len(pairs)
    latencies: List[List[float]] = [[] for _ in range(clients)]
    errors = [0] * clients
    failures: List[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def worker(slot: int) -> None:
        try:
            # Request lines are pre-encoded before the barrier: the
            # measured loop is write -> readline -> json.loads and
            # nothing else, so client-side CPU (shared with the server
            # when cores are scarce) stays out of the comparison as
            # much as possible.
            indices = range(slot, len(pairs), clients)
            encoded = [
                protocol.encode(
                    protocol.request(
                        "query",
                        terrain=terrain,
                        source=pairs[index][0],
                        target=pairs[index][1],
                    )
                )
                for index in indices
            ]
            with OracleClient(host, port) as client:
                stream = client.stream
                loads = json.loads
                clock = time.perf_counter
                lane = latencies[slot]
                barrier.wait()
                for index, line in zip(indices, encoded):
                    began = clock()
                    stream.write(line)
                    stream.flush()
                    reply = loads(stream.readline())
                    lane.append(clock() - began)
                    if reply.get("ok"):
                        distances[index] = reply["result"]["distance"]
                    else:
                        errors[slot] += 1
        except BaseException as error:  # noqa: BLE001 - reported to caller
            failures.append(error)
            with contextlib.suppress(threading.BrokenBarrierError):
                barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    with contextlib.suppress(threading.BrokenBarrierError):
        barrier.wait()
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    if failures:
        raise failures[0]
    flat = [sample for slot in latencies for sample in slot]
    return LoadReport(
        mode=f"closed-loop x{clients}",
        requests=len(flat),
        errors=sum(errors),
        elapsed_s=elapsed,
        qps=len(flat) / elapsed if elapsed > 0 else 0.0,
        latency_ms=percentiles_ms(flat),
        distances=distances,
    )


# ----------------------------------------------------------------------
# open loop: one pipelined connection, fixed arrival rate
# ----------------------------------------------------------------------
def open_loop(
    host: str,
    port: int,
    terrain: str,
    pairs: Sequence[Tuple[int, int]],
    rate: float,
) -> LoadReport:
    """Issue ``pairs`` at ``rate`` requests/s on one pipelined stream.

    Arrivals are scheduled on a fixed clock — a slow response does not
    delay the next send — and responses are matched by request id, so
    the measured latency includes any server-side queueing the offered
    load causes.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    return asyncio.run(_open_loop(host, port, terrain, pairs, rate))


async def _open_loop(
    host: str,
    port: int,
    terrain: str,
    pairs: Sequence[Tuple[int, int]],
    rate: float,
) -> LoadReport:
    reader, writer = await asyncio.open_connection(host, port)
    total = len(pairs)
    distances: List[Optional[float]] = [None] * total
    latencies: List[float] = []
    sent_at: Dict[int, float] = {}
    errors = 0

    async def receive() -> int:
        failures = 0
        for _ in range(total):
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            reply = json.loads(line)
            index = reply["id"]
            latencies.append(time.perf_counter() - sent_at[index])
            if reply.get("ok"):
                distances[index] = reply["result"]["distance"]
            else:
                failures += 1
        return failures

    receiver = asyncio.create_task(receive())
    interval = 1.0 / rate
    began = time.perf_counter()
    for index, (source, target) in enumerate(pairs):
        delay = began + index * interval - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent_at[index] = time.perf_counter()
        writer.write(
            protocol.encode(
                protocol.request(
                    "query",
                    request_id=index,
                    terrain=terrain,
                    source=source,
                    target=target,
                )
            )
        )
        await writer.drain()
    errors = await receiver
    elapsed = time.perf_counter() - began
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return LoadReport(
        mode=f"open-loop @{rate:g}/s",
        requests=total,
        errors=errors,
        elapsed_s=elapsed,
        qps=total / elapsed if elapsed > 0 else 0.0,
        latency_ms=percentiles_ms(latencies),
        distances=distances,
    )
