"""Benchmark entry point.

    python3 perfbench/run.py --workload wire-point --seed 1 \
        --seconds 10 --trace 0

Runs one workload from the repository's sources (``src/``), checks
every answer, and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end set; with
``--trace 1`` the workload runs twice with the same seed, untraced and
then with span wrappers installed, and the metrics are the per-layer
set (layer self times, program counts, the reconciliation of layer
sums against their end-to-end denominator, and the tracing overhead).
The line before it carries run diagnostics (CPU affinity, host steal,
generator cost, versions); it is also written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import measure  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ("wire-point", "outofcore-proximity", "dem-churn")
#: Set-ups per run; setup_s and build_s report their median.
SETUPS = 5


@dataclass
class Outcome:
    values: Dict[str, float]
    counters: Dict[str, float]
    exact: Dict[str, float]
    attempted: int
    failed: int
    diagnostics: Dict[str, Any]
    window: Tuple[int, int] = (0, 0)
    exact_window: Optional[Tuple[int, int]] = None
    ops: int = 1
    trace_path: Optional[str] = None
    layers: Dict[str, float] = field(default_factory=dict)


class Context:
    """What a workload needs from the runner: inputs, paths, tracing."""

    def __init__(self, seed: int, seconds: float, work: str,
                 tracer=None, spans_prefix: str = ""):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.tracer = tracer
        self.spans_prefix = spans_prefix
        self.src = SRC
        self.cpu = measure.bench_cpu()
        self.setups = SETUPS
        #: (set-up seconds, build seconds, speed factor) per set-up
        self.setup_log: List[Tuple[float, float, float]] = []
        self.servers = []
        self.graph_rss_mb = 0.0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def span(self, name: str, layer: str = "bench"):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, layer)

    def start_server(self, terrains, max_resident: int, max_batch: int,
                     name: str):
        """A launcher process serving ``terrains``, ready for requests."""
        from server_proc import ServerProcess

        config = {"cpu": self.cpu, "trace": self.tracer is not None,
                  "trace_path": f"{self.spans_prefix}-{name}.npz",
                  "max_resident": max_resident, "max_batch": max_batch,
                  "terrains": terrains}
        server = ServerProcess(config, self.path(f"{name}.json"), self.src)
        self.servers.append(server)
        return server.wait_ready()

    def set_up(self, work):
        """One set-up: ``work()`` returns (build seconds, result).  It
        is timed between two runs of the reference work, so its times
        can be scaled to the reference CPU.  Returns the result."""
        before = measure.reference_ns()
        began = time.perf_counter()
        with self.span("setup"):
            build_s, result = work()
        elapsed = time.perf_counter() - began
        self.setup_log.append((elapsed, build_s, measure.speed_factor(
            before, measure.reference_ns())))
        return result

    def setup_values(self) -> Dict[str, float]:
        """``setup_s`` and ``build_s``: medians over the set-ups, each
        scaled to the reference CPU."""
        return {"setup_s": statistics.median(
                    setup * factor for setup, _, factor in self.setup_log),
                "build_s": statistics.median(
                    build * factor for _, build, factor in self.setup_log)}

    def setup_diagnostics(self) -> Dict[str, List[float]]:
        """Unscaled set-up and build seconds, and their speed factors."""
        return {"setups_s": [setup for setup, _, _ in self.setup_log],
                "builds_s": [build for _, build, _ in self.setup_log],
                "setup_speed_factors": [f for _, _, f in self.setup_log]}

    def serve(self, build, warm, max_resident: int, max_batch: int):
        """Set up ``self.setups`` times — ``build(setup)`` the stores,
        start a server over them, connect, ``warm(sock)`` — keeping the
        last server and connection.

        ``build(setup)`` gets the set-up's index and returns (build
        seconds, result, terrain specs).  Returns (last result, server,
        socket).
        """
        import client

        server = sock = None
        for attempt in range(self.setups):
            if server is not None:
                sock.close()
                server.stop()

            def work():
                build_s, result, terrains = build(attempt)
                started = self.start_server(terrains, max_resident,
                                            max_batch, f"server{attempt}")
                connection = client.connect(started.port)
                warm(connection)
                return build_s, (result, started, connection)

            result, server, sock = self.set_up(work)
        return result, server, sock

    def stop_servers(self) -> None:
        """Stop every launcher a failed workload left running."""
        for server in self.servers:
            if server.process.poll() is None:
                server.process.kill()
                server.process.wait()

    def engine(self, mesh, pois):
        """A geodesic engine, with its construction time and RSS growth
        recorded as the ``geodesic`` layer."""
        from repro.geodesic import GeodesicEngine

        before = measure.rss_mb(os.getpid())
        with self.span("geodesic.graph", "geodesic"):
            engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        self.graph_rss_mb = measure.rss_mb(os.getpid()) - before
        return engine

    def build_store(self, mesh, pois, path: str, epsilon: float):
        """Build, pack and reopen one monolithic store; returns
        (seconds, oracle)."""
        from repro.core import SEOracle, store

        engine = self.engine(mesh, pois)
        began = time.perf_counter()
        with self.span("setup.build"):
            oracle = SEOracle(engine, epsilon, seed=0).build()
            store.pack_oracle(oracle, path)
            store.open_oracle(path)
        return time.perf_counter() - began, oracle

    @staticmethod
    def stats(port: int) -> Dict[str, Any]:
        from repro.serving.loadgen import OracleClient

        with OracleClient("127.0.0.1", port) as client:
            return client.stats()["terrains"]

    @staticmethod
    def outcome(**fields: Any) -> Outcome:
        return Outcome(**fields)


def _workload(name: str):
    if name == "wire-point":
        import wire_point as module
    elif name == "outofcore-proximity":
        import outofcore as module
    else:
        import dem_churn as module
    return module


def _pass(name: str, seed: int, seconds: float, work: str,
          traced: bool) -> Outcome:
    """One run of a workload; a traced pass installs the span wrappers
    and writes every process's spans to ``out/`` when it ends."""
    tracer = None
    prefix = os.path.join(OUT, f"{name}-seed{seed}-spans")
    if traced:
        from spans import Tracer

        tracer = Tracer().install()
    context = Context(seed, seconds, work, tracer, prefix)
    try:
        outcome = _workload(name).run(context)
    finally:
        context.stop_servers()
        if tracer is not None:
            tracer.uninstall()
    if traced:
        import layers

        tracer.save(f"{prefix}-local.npz")
        table = tracer.table()
        outcome.layers = _layers(outcome, table)
        stats_s = outcome.diagnostics.get("build_stats_s")
        if stats_s:
            outcome.diagnostics["build_crosscheck_s"] = (
                layers.build_crosscheck(table, stats_s))
    return outcome


def _layers(outcome: Outcome, local) -> Dict[str, float]:
    """Per-layer metrics of a traced pass, zero where a layer did no
    work on this workload."""
    import layers

    values = {name: 0.0 for name in metrics.PER_LAYER}
    values.update(layers.build(local))
    values.update(layers.in_process(
        local, outcome.ops, outcome.exact_window or outcome.window))
    values.update(outcome.counters)
    if outcome.trace_path is not None:
        from spans import SpanTable

        table = SpanTable.load(outcome.trace_path)
        values.update(layers.server(
            table, outcome.window, outcome.ops,
            outcome.exact_window or outcome.window,
            outcome.counters["server.cpu_us_per_op"]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    environment = measure.environment()
    os.sched_setaffinity(0, {measure.bench_cpu()})

    # A terminated run still stops its servers and removes its stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(OUT, exist_ok=True)
    started = time.perf_counter()
    reference_ms = [measure.reference_ns() / 1e6]
    try:
        plain = _pass(args.workload, args.seed, args.seconds, work, False)
        outcomes = [plain]
        if args.trace:
            traced = _pass(args.workload, args.seed, args.seconds, work,
                           True)
            outcomes.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference_ms.append(measure.reference_ns() / 1e6)
    attempted = sum(outcome.attempted for outcome in outcomes)
    failed = sum(outcome.failed for outcome in outcomes)
    diagnostics = {"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, **environment,
                   "bench_cpu": measure.bench_cpu(),
                   "wall_s": time.perf_counter() - started,
                   "reference_ms": reference_ms,
                   "runs": [outcome.diagnostics for outcome in outcomes]}
    if args.trace:
        layer_values = dict(traced.layers)
        layer_values["overhead.throughput_ratio"] = (
            traced.values["throughput_ops"] / plain.values["throughput_ops"])
        layer_values["overhead.build_ratio"] = (
            traced.values["build_s"] / plain.values["build_s"])
        mismatched = sorted(
            key for key in set(plain.exact) | set(traced.exact)
            if plain.exact.get(key) != traced.exact.get(key))
        diagnostics["exact_counts"] = plain.exact
        diagnostics["exact_mismatches"] = mismatched
        failed += len(mismatched)
        report = metrics.report(layer_values, trace=True)
    else:
        report = metrics.report(plain.values, trace=False)
    diagnostics["metrics"] = report
    with open(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
            ".json"), "w") as handle:
        json.dump(diagnostics, handle, indent=1, default=float)
    print(json.dumps({"diagnostics": diagnostics}, default=float))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
