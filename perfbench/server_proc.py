"""Server launcher: one ``OracleServer`` in its own process.

Run as a script, it reads a JSON config, pins itself to the given CPU,
registers every terrain from a ``TerrainSpec``, serves on an ephemeral
loopback port and prints ``{"port": ..., "pid": ...}``.  A line (or
EOF) on stdin stops it; in a traced run the recorded spans are then
written to ``trace_path``.  :class:`ServerProcess` is the parent side.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import subprocess
import sys
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))


class ServerProcess:
    """Start, address and stop one launcher process."""

    def __init__(self, config: Dict[str, Any], config_path: str,
                 src: str):
        with open(config_path, "w") as handle:
            json.dump(config, handle)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, HERE])
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_proc.py"),
             config_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self.port = -1
        self.pid = self.process.pid
        self.trace_path = config["trace_path"] if config["trace"] else None

    def wait_ready(self, timeout: float = 120.0) -> "ServerProcess":
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        try:
            ready = selector.select(timeout)
        finally:
            selector.close()
        line = self.process.stdout.readline() if ready else b""
        if not line:
            self.process.kill()
            raise RuntimeError(
                f"server did not start (exit code {self.process.wait()})")
        self.port = json.loads(line)["port"]
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Ask the server to stop and wait until it has exited."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write(b"stop\n")
                self.process.stdin.close()
                self.process.wait(timeout)
            except (BrokenPipeError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        if self.process.returncode != 0:
            raise RuntimeError(
                f"server exited with code {self.process.returncode}")


async def _serve(service, config: Dict[str, Any], tracer) -> None:
    from repro.serving.server import OracleServer

    server = OracleServer(service, host="127.0.0.1", port=0,
                          max_batch=config["max_batch"])
    _, port = await server.start()
    print(json.dumps({"port": port, "pid": os.getpid()}), flush=True)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_reader(sys.stdin.fileno(), stop.set)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(sys.stdin.fileno())
        await server.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.save(config["trace_path"])


def main(config_path: str) -> int:
    with open(config_path) as handle:
        config = json.load(handle)
    os.sched_setaffinity(0, {config["cpu"]})
    from repro.serving import OracleService, TerrainSpec

    tracer = None
    if config["trace"]:
        from spans import Tracer

        tracer = Tracer().install()
    service = OracleService(max_resident=config["max_resident"])
    for terrain in config["terrains"]:
        service.register(terrain["id"], TerrainSpec(
            terrain["path"], pin=terrain.get("pin", False),
            max_resident_tiles=terrain.get("max_resident_tiles"),
            max_resident_bytes=terrain.get("max_resident_bytes")))
    asyncio.run(_serve(service, config, tracer))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
