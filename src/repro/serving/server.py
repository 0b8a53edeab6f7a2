"""Asyncio TCP front-end for :class:`~repro.serving.service.OracleService`.

This is the network half of the serving story: the service object
stays transport-agnostic, and this module gives it a concurrent
newline-delimited-JSON front door (:mod:`~repro.serving.protocol`)
whose hot path is built around the one thing the compiled tables are
best at — *batched* probes.

Every line goes ``protocol.validate_request`` -> ``protocol.answer``,
the verb table the CLI REPL and ``loadgen.replay_direct`` share.  The
server adds only its own: ``hello``, the batcher behind ``query``
(below), the writer pin of update verbs (see Workers) and the worker
id that leads ``stats``.

Batching / coalescing
---------------------
Concurrent in-flight ``query`` requests against the same terrain are
not dispatched one by one.  Each lands in a per-terrain
:class:`_TerrainBatcher`; a drainer task cuts the pending queue into
``query_batch`` calls of up to ``max_batch`` rows.  With
``linger_us == 0`` the batcher is *work-conserving*: it never delays a
lone request, but while one batch computes, new arrivals pile up and
ride the next cut — under concurrency, batches form naturally and the
per-probe fixed cost (argument marshalling, plane selection, hash
probe setup) is amortised across every rider.  A non-zero
``linger_us`` additionally holds the first request back to let a
larger batch form — a latency-for-throughput knob for open-loop
traffic.  Per-terrain coalescing statistics (``server_batches``,
``server_batched_queries``, mean batch size, coalesce ratio) fold into
the service's existing counters.

A coalesced batch that fails as a whole (one bad POI id poisons the
vectorised probe) is re-run item by item, so each request gets its own
typed answer and innocent riders still resolve.

Hot path
--------
The index probe is a few percent of a pipelined point query's server
time; the rest is protocol work, so that is what the hot path trims.
A connection's reader takes whatever the socket has buffered with one
``reader.read(_READ_SIZE)``, keeps the unfinished last line, and hands
every complete line, in order, to ``_handle_line``
(``protocol.decode_line``, ``protocol.validate_request``, the
batcher).  The replies to one read go on the connection's queue as one
list, so a window of 64 pipelined queries costs one read and one queue
entry, not 64.  The sender walks each list and writes the replies that
are ready with one ``writer.write`` per burst
(``protocol.encode_distance`` formats a distance reply without
``json``).  It writes what it holds before it waits on a query still
in its batch, and writes and drains before it waits on an empty queue,
so coalescing never delays a reply and backpressure still applies once
per burst.  Per line nothing changes: blank lines get no reply, each
bad line its own typed error, a line of more than ``_LINE_LIMIT``
bytes before its newline (or an unfinished one grown past that) a
"request line too long" after the replies before it and then the
close, and a last line sent without a newline is answered at EOF.
The bytes on the wire are those of one read and one write per line.

Workers
-------
``run_workers`` (the ``serve --workers N`` path) starts N processes
that each mmap the same read-only ``.store`` files — the OS page
cache shares one physical copy — behind ``SO_REUSEPORT``, so the
kernel spreads connections across workers.  Mutable terrains are
pinned to the *writer* (worker 0): it alone holds the dynamic
overlay, and it additionally listens on a dedicated writer port.
Update verbs on any other worker answer ``not-writer`` with the
writer's address.  ``flush`` publishes a new store generation through
the existing atomic temp+rename repack; reader workers register the
store with ``track_generation=True`` and re-mmap on the next access
after the signature changes — in-flight queries keep the old maps
(the renamed-over inode stays alive) and are never dropped.

Everything here runs the service calls inline on the event loop: the
query kernels are single-digit-microsecond NumPy probes and the GIL
would serialise a thread pool anyway — process-level parallelism is
what ``--workers`` is for.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import protocol
from .protocol import ProtocolError
from .service import OracleService, TerrainSpec

__all__ = [
    "OracleServer",
    "ThreadedServer",
    "ServerConfig",
    "MutableSpec",
    "WorkerFleet",
    "build_service",
    "register_terrain",
    "run_workers",
]

#: verbs that change a mutable terrain, pinned to the writer worker
_UPDATE_OPS = ("insert", "delete", "flush")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MutableSpec:
    """How the writer worker rebuilds a mutable terrain's workload."""

    mesh_path: str
    pois: int = 50
    poi_seed: int = 1
    density: int = 1
    rebuild_factor: float = 0.25


@dataclass(frozen=True)
class ServerConfig:
    """Everything a worker process needs to build and serve a service."""

    registrations: Tuple[Tuple[str, str], ...]
    mutable: Dict[str, MutableSpec] = field(default_factory=dict)
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    max_batch: int = 64
    linger_us: float = 0.0
    max_resident: int = 4
    max_resident_tiles: Optional[int] = None
    max_resident_bytes: Optional[int] = None


def _mutable_engine(spec: MutableSpec):
    from ..geodesic import GeodesicEngine
    from ..terrain import read_mesh, sample_uniform

    mesh = read_mesh(spec.mesh_path)
    pois = sample_uniform(mesh, spec.pois, seed=spec.poi_seed)
    return GeodesicEngine(mesh, pois, points_per_edge=spec.density)


def register_terrain(
    service: OracleService,
    config: ServerConfig,
    name: str,
    path: str,
    worker_id: int = 0,
) -> Dict[str, Any]:
    """Register one of ``config``'s terrains as worker ``worker_id``
    serves it; returns the store meta.

    The writer (worker 0) registers a mutable terrain with its engine
    and owns the overlay; every other worker registers the same store
    read-only with generation tracking, so a flush on the writer is
    observed on the next access as a re-mmap.
    """
    spec = config.mutable.get(name)
    if spec is None:
        return service.register(name, TerrainSpec(
            path,
            max_resident_tiles=config.max_resident_tiles,
            max_resident_bytes=config.max_resident_bytes,
        ))
    if worker_id == 0:
        return service.register(name, TerrainSpec(
            path,
            mutable=True,
            engine=_mutable_engine(spec),
            rebuild_factor=spec.rebuild_factor,
        ))
    return service.register(name, TerrainSpec(path, track_generation=True))


def build_service(config: ServerConfig, worker_id: int = 0) -> OracleService:
    """One worker's service: every registration of ``config``, made by
    :func:`register_terrain` in that worker's role."""
    service = OracleService(max_resident=config.max_resident)
    for name, path in config.registrations:
        register_terrain(service, config, name, path, worker_id)
    return service


# ----------------------------------------------------------------------
# batching / coalescing
# ----------------------------------------------------------------------
class _TerrainBatcher:
    """Coalesce concurrent point queries into ``query_batch`` probes."""

    def __init__(
        self,
        service: OracleService,
        terrain_id: str,
        max_batch: int,
        linger_s: float,
    ):
        self._service = service
        self._terrain_id = terrain_id
        self._max_batch = max(1, int(max_batch))
        self._linger_s = max(0.0, float(linger_s))
        self._pending: List[Tuple[int, int, asyncio.Future]] = []
        self._drainer: Optional[asyncio.Task] = None

    def submit(self, source: int, target: int) -> "asyncio.Future[float]":
        """Enqueue one point query; resolves with its distance."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((source, target, future))
        if self._drainer is None or self._drainer.done():
            self._drainer = loop.create_task(self._drain())
        return future

    async def _drain(self) -> None:
        while self._pending:
            if self._linger_s > 0 and len(self._pending) < self._max_batch:
                await asyncio.sleep(self._linger_s)
            else:
                # One cooperative yield: requests that are already
                # parsed and sitting in the loop's ready queue get to
                # join before the batch cuts.
                await asyncio.sleep(0)
            batch = self._pending[: self._max_batch]
            del self._pending[: len(batch)]
            if batch:
                self._execute(batch)

    def _execute(self, batch: List[Tuple[int, int, asyncio.Future]]) -> None:
        sources = [source for source, _, _ in batch]
        targets = [target for _, target, _ in batch]
        try:
            distances = self._service.query_batch(
                self._terrain_id, sources, targets
            )
        except Exception:
            # The vectorised probe failed as a whole (e.g. one unknown
            # POI id in a coalesced batch).  Isolate per item so every
            # requester gets its own typed answer.
            for source, target, future in batch:
                if future.done():
                    continue
                try:
                    value = self._service.query(
                        self._terrain_id, source, target
                    )
                except Exception as error:
                    future.set_exception(error)
                else:
                    future.set_result(value)
        else:
            for (_, _, future), distance in zip(batch, distances):
                if not future.done():
                    future.set_result(float(distance))
        try:
            counters = self._service.counters(self._terrain_id)
        except KeyError:
            return
        counters.server_batches += 1
        counters.server_batched_queries += len(batch)

    def cancel(self) -> None:
        if self._drainer is not None:
            self._drainer.cancel()
        for _, _, future in self._pending:
            if not future.done():
                future.cancelled() or future.cancel()
        self._pending.clear()


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class OracleServer:
    """One worker's asyncio TCP server over one :class:`OracleService`.

    Connections speak the newline-delimited JSON protocol.  Requests on
    a connection may be pipelined: the reader loop takes whatever the
    socket has buffered in one read and handles every complete line of
    it inline (no per-request task — point queries resolve to batcher
    futures), queueing the burst's replies as one entry.  Responses are
    written strictly in request order, one write per burst of ready
    replies (clients that tag requests with ``id`` get the echo back
    regardless).
    """

    _LINE_LIMIT = 1 << 20  # 1 MiB: huge batch requests, not huge abuse
    _READ_SIZE = 1 << 16  # at most this much of a burst per read

    def __init__(
        self,
        service: OracleService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        linger_us: float = 0.0,
        worker_id: int = 0,
        workers: int = 1,
        writer_host: Optional[str] = None,
        writer_port: Optional[int] = None,
        sock: Optional[socket.socket] = None,
        writer_sock: Optional[socket.socket] = None,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.max_batch = int(max_batch)
        self.linger_us = float(linger_us)
        self.worker_id = int(worker_id)
        self.workers = int(workers)
        self.is_writer = self.worker_id == 0
        self.writer_host = writer_host if writer_host is not None else host
        self.writer_port = writer_port
        self._sock = sock
        self._writer_sock = writer_sock
        self._servers: List[asyncio.base_events.Server] = []
        self._batchers: Dict[str, _TerrainBatcher] = {}
        self._connections: set = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._sock is not None:
            server = await asyncio.start_server(
                self._serve_connection,
                sock=self._sock,
                limit=self._LINE_LIMIT,
            )
        else:
            server = await asyncio.start_server(
                self._serve_connection,
                host=self.host,
                port=self.port,
                limit=self._LINE_LIMIT,
            )
        self._servers.append(server)
        bound = server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        if self._writer_sock is not None:
            writer_server = await asyncio.start_server(
                self._serve_connection,
                sock=self._writer_sock,
                limit=self._LINE_LIMIT,
            )
            self._servers.append(writer_server)
            self.writer_port = writer_server.sockets[0].getsockname()[1]
        elif self.is_writer and self.writer_port is None:
            self.writer_port = self.port
        return self.host, self.port

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        for batcher in self._batchers.values():
            batcher.cancel()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    # -- connection handling -------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        # One entry per burst: the replies to every complete line of
        # one read, in order.
        responses: asyncio.Queue = asyncio.Queue()
        sender = asyncio.create_task(self._send_responses(responses, writer))
        partial = b""  # the read's last line, still without its newline
        try:
            while True:
                try:
                    chunk = await reader.read(self._READ_SIZE)
                except ConnectionError:
                    break
                if not chunk:
                    # EOF: a last line sent without a newline is still
                    # a request.
                    if partial.strip():
                        await responses.put([self._handle_line(partial)])
                    break
                lines = (partial + chunk).split(b"\n")
                partial = lines.pop()
                burst, overrun = self._handle_burst(lines, partial)
                if burst:
                    await responses.put(burst)
                if overrun:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            # Drain gracefully; a shutdown cancel landing mid-drain must
            # end this task *normally* (stop() has already collected it)
            # instead of letting CancelledError leak into asyncio's
            # connection-made callback as log noise.
            try:
                await responses.put(None)
                await sender
            except (Exception, asyncio.CancelledError):
                sender.cancel()
                with contextlib.suppress(BaseException):
                    await sender
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()
            if task is not None:
                self._connections.discard(task)

    async def _send_responses(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        # Ready replies collect in `held` and go out in one write; the
        # sender never suspends while holding any (see "Hot path").
        held: List[bytes] = []
        while True:
            if queue.empty():
                if held:
                    writer.write(b"".join(held))
                    held.clear()
                try:
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    return
            burst = await queue.get()
            if burst is None:
                if held:
                    writer.write(b"".join(held))
                return
            for item in burst:
                if isinstance(item, tuple):
                    request_id, future = item
                    if held and not future.done():
                        writer.write(b"".join(held))
                        held.clear()
                    try:
                        distance = await future
                        line = protocol.encode_distance(
                            request_id, float(distance)
                        )
                    except asyncio.CancelledError:
                        raise
                    except Exception as error:
                        error_type, message = protocol.classify_exception(
                            error)
                        line = protocol.encode(protocol.error_response(
                            request_id, error_type, message
                        ))
                else:
                    line = protocol.encode(item)
                held.append(line)

    def _handle_burst(self, lines: List[bytes],
                      partial: bytes) -> Tuple[List[Any], bool]:
        """The replies to one read's complete ``lines`` (split off
        their newlines), in order, and whether the read overran
        ``_LINE_LIMIT``.

        Blank lines get no reply.  A line longer than the limit, or a
        ``partial`` last line that has grown past it, ends the burst
        with a "request line too long" reply; no line after it is
        handled.
        """
        replies: List[Any] = []
        overrun = len(partial) > self._LINE_LIMIT
        for line in lines:
            if len(line) > self._LINE_LIMIT:
                overrun = True
                break
            if line.strip():
                # Handled inline, no task per request: sync verbs
                # resolve to a response dict right here, and `query`
                # to a (request_id, future) pair the sender awaits in
                # order.  The whole burst is handled without yielding,
                # which is what feeds the batcher whole batches.
                replies.append(self._handle_line(line + b"\n"))
        if overrun:
            replies.append(protocol.error_response(
                None, "bad-request", "request line too long"))
        return replies, overrun

    def _handle_line(self, line: bytes) -> Any:
        """One request line -> a response dict, or (id, future) for
        a coalesced query the sender resolves in order."""
        request_id = None
        try:
            message = protocol.decode_line(line)
            request_id = message.get("id")
            request = protocol.validate_request(message)
            op = request["op"]
            if op == "query":
                return (request_id, self._batcher(request["terrain"]).submit(
                    request["source"], request["target"]))
            if op == "hello":
                return protocol.ok_response(request_id, self._hello())
            if op in _UPDATE_OPS:
                self._require_writer(op)
            result = protocol.answer(self.service, request)
            if op == "stats":
                result = {"worker": self.worker_id, **result}
            return protocol.ok_response(request_id, result)
        except ProtocolError as error:
            return protocol.error_response(
                request_id,
                error.error_type,
                error.message,
                **getattr(error, "extra", {}),
            )
        except Exception as error:
            error_type, message = protocol.classify_exception(error)
            return protocol.error_response(request_id, error_type, message)

    def _batcher(self, terrain_id: str) -> _TerrainBatcher:
        batcher = self._batchers.get(terrain_id)
        if batcher is None:
            batcher = _TerrainBatcher(
                self.service,
                terrain_id,
                self.max_batch,
                self.linger_us * 1e-6,
            )
            self._batchers[terrain_id] = batcher
        return batcher

    def _hello(self) -> Dict[str, Any]:
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "worker": self.worker_id,
            "workers": self.workers,
            "writer": self.is_writer,
            "writer_host": self.writer_host,
            "writer_port": self.writer_port,
            "max_batch": self.max_batch,
            "linger_us": self.linger_us,
            "terrains": self.service.terrains(),
        }

    def _require_writer(self, op: str) -> None:
        if not self.is_writer:
            error = ProtocolError(
                "not-writer",
                f"op {op!r} is pinned to the writer worker "
                f"(worker 0 at {self.writer_host}:{self.writer_port})",
            )
            error.extra = {
                "writer_host": self.writer_host,
                "writer_port": self.writer_port,
            }
            raise error


# ----------------------------------------------------------------------
# threaded harness (tests / benchmarks / single-process embedding)
# ----------------------------------------------------------------------
class ThreadedServer:
    """Run one :class:`OracleServer` on a private event-loop thread.

    The foreground thread gets a plain blocking interface: ``start()``
    returns once the port is bound, ``stop()`` once the loop is down.
    Used by the test suite and the load benchmark; the CLI uses the
    process-blocking :func:`run_workers` instead.
    """

    def __init__(self, service: OracleService, **server_kwargs: Any):
        self._service = service
        self._server_kwargs = server_kwargs
        self._ready = threading.Event()
        self._stop_event: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self.server: Optional[OracleServer] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def start(self) -> "ThreadedServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="oracle-server",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("server thread failed to start in time")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = OracleServer(self._service, **self._server_kwargs)
        try:
            await server.start()
        except BaseException as error:
            self._error = error
            self._ready.set()
            return
        self.server = server
        self.host, self.port = server.host, server.port
        self._ready.set()
        await self._stop_event.wait()
        await server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# ----------------------------------------------------------------------
# multi-worker mode
# ----------------------------------------------------------------------
def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if not hasattr(socket, "SO_REUSEPORT"):  # pragma: no cover
            raise RuntimeError(
                "multi-worker mode needs SO_REUSEPORT "
                "(unavailable on this platform)"
            )
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def _worker_main(
    config: ServerConfig,
    worker_id: int,
    port: int,
    writer_port: int,
    ready: Any = None,
) -> None:
    """Entry point of one worker process."""
    with build_service(config, worker_id) as service:
        asyncio.run(
            _worker_serve(service, config, worker_id, port, writer_port,
                          ready)
        )


async def _worker_serve(
    service: OracleService,
    config: ServerConfig,
    worker_id: int,
    port: int,
    writer_port: int,
    ready: Any,
) -> None:
    sock = _reuseport_socket(config.host, port)
    writer_sock = None
    if worker_id == 0 and config.workers > 1:
        writer_sock = _reuseport_socket(config.host, writer_port)
    server = OracleServer(
        service,
        host=config.host,
        port=port,
        max_batch=config.max_batch,
        linger_us=config.linger_us,
        worker_id=worker_id,
        workers=config.workers,
        writer_host=config.host,
        writer_port=writer_port,
        sock=sock,
        writer_sock=writer_sock,
    )
    await server.start()
    role = "writer" if worker_id == 0 else "reader"
    print(
        f"[worker {worker_id}] {role} listening on "
        f"{server.host}:{server.port}"
        + (f" (writer port {server.writer_port})" if writer_sock else ""),
        flush=True,
    )
    if ready is not None:
        ready.release()
    try:
        await asyncio.Event().wait()  # serve until the process is stopped
    finally:
        await server.stop()


class WorkerFleet:
    """N worker processes behind one ``SO_REUSEPORT`` address.

    The parent reserves the data port (and the writer port) with
    bound-but-never-listening placeholder sockets, so ephemeral-port
    runs are race-free: workers bind the same numbers with
    ``SO_REUSEPORT`` and only *their* listening sockets receive
    connections.
    """

    def __init__(self, config: ServerConfig):
        if config.workers < 1:
            raise ValueError("workers must be at least 1")
        self.config = config
        self.host = config.host
        self.port: Optional[int] = None
        self.writer_port: Optional[int] = None
        self._placeholders: List[socket.socket] = []
        self._processes: List[multiprocessing.Process] = []

    def start(self, timeout: float = 120.0) -> Tuple[str, int]:
        data_sock = _reuseport_socket(self.config.host, self.config.port)
        self._placeholders.append(data_sock)
        self.port = data_sock.getsockname()[1]
        writer_sock = _reuseport_socket(self.config.host, 0)
        self._placeholders.append(writer_sock)
        self.writer_port = writer_sock.getsockname()[1]

        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ready = context.Semaphore(0)
        for worker_id in range(self.config.workers):
            process = context.Process(
                target=_worker_main,
                args=(
                    self.config,
                    worker_id,
                    self.port,
                    self.writer_port,
                    ready,
                ),
                daemon=True,
            )
            process.start()
            self._processes.append(process)
        deadline_step = max(timeout / self.config.workers, 1.0)
        for _ in range(self.config.workers):
            if not ready.acquire(timeout=deadline_step):
                self.stop()
                raise RuntimeError(
                    "worker fleet failed to come up in time"
                )
        return self.host, self.port

    def alive(self) -> List[bool]:
        return [process.is_alive() for process in self._processes]

    def join(self) -> None:
        """Block until every worker exits (CLI foreground mode)."""
        for process in self._processes:
            process.join()

    def stop(self) -> None:
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=30)
        self._processes.clear()
        for sock in self._placeholders:
            with contextlib.suppress(OSError):
                sock.close()
        self._placeholders.clear()

    def __enter__(self) -> "WorkerFleet":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def run_workers(
    config: ServerConfig, service: Optional[OracleService] = None
) -> int:
    """Foreground entry point for ``serve --port ... [--workers N]``.

    Single-worker mode serves in-process (no fork) and can reuse an
    already-built ``service`` (the CLI registers terrains before
    dispatching here); multi-worker mode spawns the fleet — each
    worker builds its own service so every process gets its own mmap —
    and blocks until interrupted.  Returns a process exit code.
    """
    if config.workers == 1:
        if service is None:
            service = build_service(config, worker_id=0)

        async def _serve() -> None:
            server = OracleServer(
                service,
                host=config.host,
                port=config.port,
                max_batch=config.max_batch,
                linger_us=config.linger_us,
            )
            await server.start()
            print(
                f"listening on {server.host}:{server.port} "
                f"(1 worker, max_batch={config.max_batch}, "
                f"linger_us={config.linger_us:g})",
                flush=True,
            )
            try:
                await asyncio.Event().wait()
            finally:
                await server.stop()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            print("shutting down")
        return 0

    fleet = WorkerFleet(config)
    try:
        host, port = fleet.start()
        print(
            f"{config.workers} workers listening on {host}:{port} "
            f"(writer port {fleet.writer_port})",
            flush=True,
        )
        fleet.join()
    except KeyboardInterrupt:
        print("shutting down workers")
    finally:
        fleet.stop()
    return 0
