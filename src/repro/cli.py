"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate
    Create a synthetic terrain and write it as OFF/OBJ.
stats
    Print Table 2-style statistics for a mesh file.
build
    Build an SE oracle over a mesh + sampled POIs and save it.
query
    Load a saved oracle and answer POI-to-POI distance queries.
pack
    Convert a JSON oracle (v1-v3) to the v4 binary store.
serve
    Register packed stores as terrains and serve queries (REPL).
ingest
    Ingest a real DEM raster (.asc / .tif) into a servable oracle.
workload
    Generate / replay seeded scenario workload files (JSONL).
analyze
    Mirror a packed store into a sqlite3 analytics database.
bench
    Run one of the paper's experiments (fig8..fig14, table1..table3).

Examples
--------
::

    python -m repro generate --exponent 5 --out terrain.off
    python -m repro stats terrain.off
    python -m repro build terrain.off --pois 50 --epsilon 0.1 \
        --out oracle.json
    python -m repro query terrain.off oracle.json --pois 50 3 41
    python -m repro pack oracle.json --out oracle.store
    python -m repro query terrain.off oracle.store --pois 50 --store \
        --batch --random 1000
    python -m repro build terrain.off --pois 50 --tiles 4 \
        --out tiled.store
    python -m repro serve alps=oracle.store --repl
    python -m repro serve alps=tiled.store --max-resident-tiles 2 --repl
    python -m repro serve alps=oracle.store --max-resident-bytes 262144 \
        --repl
    python -m repro analyze oracle.store --db oracle.db \
        --view pair_count_by_layer
    python -m repro ingest dem.asc --poi-file pois.csv --out real.store
    python -m repro workload gen moving-agents --store real.store \
        --terrain alps --out agents.jsonl
    python -m repro workload replay agents.jsonl --port 4170
    python -m repro bench fig8 --scale tiny
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SE distance oracle on terrain surfaces "
                    "(SIGMOD 2017 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic terrain mesh")
    generate.add_argument("--exponent", type=int, default=5,
                          help="grid exponent; side = 2**e + 1 vertices")
    generate.add_argument("--extent", type=float, nargs=2,
                          default=(4000.0, 4000.0), metavar=("X", "Y"))
    generate.add_argument("--relief", type=float, default=400.0)
    generate.add_argument("--roughness", type=float, default=0.55)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True,
                          help="output path (.off or .obj)")

    stats = commands.add_parser("stats", help="terrain statistics")
    stats.add_argument("mesh", help="mesh file (.off or .obj)")

    build = commands.add_parser("build", help="build and save an SE oracle")
    build.add_argument("mesh", help="mesh file (.off or .obj)")
    build.add_argument("--pois", type=int, default=50,
                       help="number of POIs to sample (seeded)")
    build.add_argument("--poi-seed", type=int, default=1)
    build.add_argument("--epsilon", type=float, default=0.1)
    build.add_argument("--strategy", choices=("random", "greedy"),
                       default="random")
    build.add_argument("--density", type=int, default=1,
                       help="Steiner points per edge of the metric graph")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the build fan-out "
                            "(1 = serial, -1 = one per CPU); parallel "
                            "builds are bit-identical to serial; with "
                            "--tiles, parallelism is across tiles")
    build.add_argument("--tiles", type=int, default=0, metavar="N",
                       help="shard the terrain into N tiles with "
                            "per-tile oracles and a packed boundary "
                            "matrix (writes a v4 tiled .store; queries "
                            "stay within the oracle's (1+epsilon))")
    build.add_argument("--out", required=True,
                       help="oracle output (.json, or .store with "
                            "--tiles)")

    query = commands.add_parser("query", help="query a saved oracle")
    query.add_argument("mesh", help="mesh file the oracle was built on")
    query.add_argument("oracle", help="oracle file from 'build'")
    query.add_argument("source", type=int, nargs="?", default=None)
    query.add_argument("target", type=int, nargs="?", default=None)
    query.add_argument("--pois", type=int, default=50,
                       help="POI count used at build time")
    query.add_argument("--poi-seed", type=int, default=1)
    query.add_argument("--density", type=int, default=1)
    query.add_argument("--exact", action="store_true",
                       help="also compute the exact distance")
    query.add_argument("--batch", nargs="*", metavar="S:T", default=None,
                       help="batched mode: answer the given S:T pairs "
                            "through the compiled tables and report QPS "
                            "(combine with --random)")
    query.add_argument("--random", type=int, default=0, metavar="N",
                       dest="random_pairs",
                       help="with --batch: append N random seeded "
                            "query pairs to the batch")
    query.add_argument("--pair-seed", type=int, default=0,
                       help="seed of the --random pair workload")
    query.add_argument("--store", action="store_true",
                       help="the oracle file is a v4 binary store: open "
                            "it zero-copy (mmap) and report the load "
                            "time alongside the answers")
    query.add_argument("--max-resident-bytes", type=int, default=None,
                       metavar="N",
                       help="with --store: serve through the paged "
                            "backend with the pair run's page pool "
                            "capped at N bytes (bit-identical answers; "
                            "prints the paging ledger)")

    pack = commands.add_parser(
        "pack", help="convert a JSON oracle to the v4 binary store")
    pack.add_argument("oracle", help="JSON oracle file (format v1-v3)")
    pack.add_argument("--out", required=True,
                      help="binary store output (.store)")

    serve = commands.add_parser(
        "serve", help="serve packed oracle stores for many terrains")
    serve.add_argument("terrains", nargs="+", metavar="NAME=STORE",
                       help="terrain registrations, e.g. alps=alps.store")
    serve.add_argument("--max-resident", type=int, default=4,
                       help="LRU bound on simultaneously resident "
                            "compiled tables")
    serve.add_argument("--max-resident-tiles", type=int, default=None,
                       metavar="N",
                       help="tiled stores: LRU bound on simultaneously "
                            "resident tile shards per terrain (default: "
                            "all tiles stay resident)")
    serve.add_argument("--max-resident-bytes", type=int, default=None,
                       metavar="N",
                       help="monolithic stores: serve each static "
                            "terrain through the paged backend with "
                            "its pair run's page pool capped at N bytes "
                            "(bit-identical; ledger in stats)")
    serve.add_argument("--mutable", action="append", default=[],
                       metavar="NAME=MESH",
                       help="register NAME (also given as NAME=STORE) as "
                            "a *mutable* terrain backed by this mesh "
                            "file; its POI workload is resampled with "
                            "--pois/--poi-seed/--density and must match "
                            "the store's fingerprint.  Mutable terrains "
                            "accept insert/delete/flush")
    serve.add_argument("--pois", type=int, default=50,
                       help="POI count of mutable terrains' workloads")
    serve.add_argument("--poi-seed", type=int, default=1)
    serve.add_argument("--density", type=int, default=1)
    serve.add_argument("--rebuild-factor", type=float, default=0.25,
                       help="mutable terrains: amortised-rebuild "
                            "threshold of the dynamic overlay")
    serve.add_argument("--repl", action="store_true",
                       help="read query/batch/knn/range/rnn/insert/"
                            "delete/flush/stats commands from stdin "
                            "(one per line)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for network serving")
    serve.add_argument("--port", type=int, default=None, metavar="PORT",
                       help="serve the newline-delimited-JSON protocol "
                            "on this TCP port (0 = ephemeral); without "
                            "--port or --repl, registrations are only "
                            "validated")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes sharing the port via "
                            "SO_REUSEPORT; each mmaps the same stores "
                            "(page-cache shared) and mutable terrains "
                            "are pinned to worker 0, the writer, which "
                            "also listens on a dedicated writer port")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="coalescing cap: concurrent point queries "
                            "drained into one query_batch probe")
    serve.add_argument("--linger-us", type=float, default=0.0,
                       help="batching linger in microseconds (0 = "
                            "work-conserving natural batching)")

    ingest = commands.add_parser(
        "ingest", help="ingest a real DEM (.asc / .tif) into a "
                       "servable oracle store")
    ingest.add_argument("dem", help="DEM raster: ESRI ASCII grid "
                                    "(.asc) or uncompressed GeoTIFF "
                                    "(.tif/.tiff)")
    ingest.add_argument("--out", required=True,
                        help="oracle output (.store, or .json)")
    ingest.add_argument("--poi-file", default=None, metavar="CSV",
                        help="POIs as 'name,lat,lon' lines; without "
                             "it, --pois surface points are sampled")
    ingest.add_argument("--pois", type=int, default=20,
                        help="sampled POI count when no --poi-file")
    ingest.add_argument("--poi-seed", type=int, default=1)
    ingest.add_argument("--decimate", type=int, default=1, metavar="K",
                        help="keep every K-th row/column of the grid")
    ingest.add_argument("--z-scale", type=float, default=1.0,
                        help="multiply elevations (vertical "
                             "exaggeration)")
    ingest.add_argument("--epsilon", type=float, default=0.1)
    ingest.add_argument("--density", type=int, default=1)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--jobs", type=int, default=1)
    ingest.add_argument("--slack", type=float, default=0.05,
                        help="haversine-gate tolerance on top of "
                             "epsilon (projection distortion budget)")
    ingest.add_argument("--mesh-out", default=None, metavar="MESH",
                        help="also write the triangulated terrain "
                             "(.off or .obj)")

    workload = commands.add_parser(
        "workload", help="generate or replay scenario workload files")
    actions = workload.add_subparsers(dest="action", required=True)
    gen = actions.add_parser(
        "gen", help="generate a seeded scenario workload (JSONL)")
    gen.add_argument("scenario", choices=("moving-agents",
                                          "range-alerts",
                                          "coverage-audit"))
    gen.add_argument("--out", required=True,
                     help="workload output (.jsonl)")
    gen.add_argument("--terrain", default="terrain",
                     help="terrain id the events address")
    gen.add_argument("--store", default=None, metavar="STORE",
                     help="packed oracle store; pins num-pois and "
                          "derives the default alert radius")
    gen.add_argument("--num-pois", type=int, default=None,
                     help="POI count (required without --store)")
    gen.add_argument("--events", type=int, default=200)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--agents", type=int, default=4,
                     help="moving-agents: concurrent agents")
    gen.add_argument("--k", type=int, default=3,
                     help="moving-agents: neighbours per query")
    gen.add_argument("--radius", type=float, default=None,
                     help="range-alerts: base geofence radius "
                          "(default: median store distance)")
    gen.add_argument("--sentinels", type=int, default=3,
                     help="range-alerts: sentinel POI count")
    gen.add_argument("--rate", type=float, default=None,
                     help="stamp Poisson arrival_s timestamps at this "
                          "mean events/second (open-loop replay)")
    replay = actions.add_parser(
        "replay", help="replay a workload file against a live server")
    replay.add_argument("workload", help="workload file from 'gen'")
    replay.add_argument("--host", default="127.0.0.1")
    replay.add_argument("--port", type=int, required=True)
    replay.add_argument("--terrain", default=None,
                        help="override the file's terrain id")
    replay.add_argument("--pace", action="store_true",
                        help="honour the file's arrival_s timestamps "
                             "(fixed-rate open-loop replay)")

    analyze = commands.add_parser(
        "analyze", help="mirror a packed store into a sqlite3 "
                        "analytics database and run canned views")
    analyze.add_argument("store", help="monolithic v4 .store file")
    analyze.add_argument("--db", required=True,
                         help="sqlite3 output path (replaced)")
    analyze.add_argument("--view", action="append", default=[],
                         metavar="NAME",
                         help="print a canned view after mirroring "
                              "(error_stats, pair_count_by_layer, "
                              "poi_coverage; repeatable)")
    analyze.add_argument("--sql", default=None, metavar="QUERY",
                         help="run one ad-hoc read-only SQL statement "
                              "against the mirror and print its rows")
    analyze.add_argument("--chunk-rows", type=int, default=8192,
                         help="streaming chunk size (rows) — bounds "
                              "the mirror's resident memory")

    bench = commands.add_parser("bench", help="run a paper experiment")
    bench.add_argument("experiment",
                       choices=["fig8", "fig9", "fig10", "fig11", "fig12",
                                "fig13", "fig14", "table1", "table2",
                                "table3"])
    bench.add_argument("--scale", default="tiny",
                       choices=("tiny", "small", "bench", "large"))
    return parser


def _cmd_generate(args) -> int:
    from .terrain import make_terrain, write_mesh
    mesh = make_terrain(grid_exponent=args.exponent,
                        extent=tuple(args.extent), relief=args.relief,
                        roughness=args.roughness, seed=args.seed)
    write_mesh(mesh, args.out)
    print(f"wrote {mesh.num_vertices} vertices / {mesh.num_faces} faces "
          f"to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    from .terrain import read_mesh, terrain_statistics, validate_mesh
    mesh = read_mesh(args.mesh)
    stats = terrain_statistics(mesh)
    report = validate_mesh(mesh)
    print(stats.describe())
    print(f"edges={stats.num_edges} faces={stats.num_faces} "
          f"min_angle={stats.min_inner_angle_deg:.1f}deg "
          f"ruggedness={stats.ruggedness:.3f}")
    print(f"valid={report.ok} "
          f"(manifold={report.is_manifold}, connected={report.is_connected},"
          f" boundary_edges={report.boundary_edges})")
    return 0


def _workload(mesh_path: str, poi_count: int, poi_seed: int, density: int):
    from .geodesic import GeodesicEngine
    from .terrain import read_mesh, sample_uniform
    mesh = read_mesh(mesh_path)
    pois = sample_uniform(mesh, poi_count, seed=poi_seed)
    return GeodesicEngine(mesh, pois, points_per_edge=density)


def _cmd_build(args) -> int:
    from .core import SEOracle, save_oracle
    if args.tiles:
        return _cmd_build_tiled(args)
    engine = _workload(args.mesh, args.pois, args.poi_seed, args.density)
    started = time.perf_counter()
    oracle = SEOracle(engine, args.epsilon, strategy=args.strategy,
                      seed=args.seed, jobs=args.jobs).build()
    elapsed = time.perf_counter() - started
    save_oracle(oracle, args.out)
    print(f"built in {elapsed:.2f}s "
          f"[{oracle.stats.executor} x{oracle.stats.jobs}]: "
          f"n={engine.num_pois} "
          f"h={oracle.height} pairs={oracle.num_pairs} "
          f"size={oracle.size_bytes() / 1024:.1f}KB -> {args.out}")
    return 0


def _cmd_build_tiled(args) -> int:
    """``build --tiles N``: shard, build per tile, pack a tiled store."""
    import os

    from .core import build_tiled_oracle, pack_tiled
    from .terrain import read_mesh, sample_uniform
    if args.tiles < 1:
        print("error: --tiles must be at least 1", file=sys.stderr)
        return 2
    if args.out.endswith(".json"):
        print("error: tiled oracles pack straight to the v4 binary "
              "store; use an --out path like oracle.store",
              file=sys.stderr)
        return 2
    mesh = read_mesh(args.mesh)
    pois = sample_uniform(mesh, args.pois, seed=args.poi_seed)
    started = time.perf_counter()
    build = build_tiled_oracle(
        mesh, pois, args.epsilon, tiles=args.tiles,
        strategy=args.strategy, seed=args.seed,
        points_per_edge=args.density, jobs=args.jobs)
    elapsed = time.perf_counter() - started
    pack_tiled(build, args.out)
    tiles = build.meta["tiles"]
    print(f"built {tiles['count']} tiles in {elapsed:.2f}s "
          f"[x{build.meta['build']['jobs']}]: "
          f"n={tiles['pois']} portals={tiles['portals']} "
          f"h={build.meta['stats']['height']} "
          f"pairs={build.meta['stats']['pairs_stored']} "
          f"size={os.path.getsize(args.out) / 1024:.1f}KB "
          f"-> {args.out}")
    return 0


def _check_poi_ids(index, ids) -> bool:
    """POI-id bounds check shared by the query paths.

    Out-of-range ids used to fall through to the tree lookup and die
    with a raw ``KeyError`` traceback; they are a *user input* error,
    so they surface as the protocol's typed ``error[unknown-poi]``
    line instead (same taxonomy the server and REPL speak).
    """
    from .serving.protocol import ProtocolError, describe_error
    limit = index.num_pois
    for value in ids:
        if not 0 <= value < limit:
            print(describe_error(ProtocolError(
                "unknown-poi",
                f"POI id {value} is outside this oracle's "
                f"0..{limit - 1} range")), file=sys.stderr)
            return False
    return True


def _cmd_query(args) -> int:
    from .core import load_oracle, open_oracle
    if args.max_resident_bytes is not None and not args.store:
        print("error: --max-resident-bytes requires --store (paging "
              "works on v4 binary stores)", file=sys.stderr)
        return 2
    if args.max_resident_bytes is not None:
        from .core.paged import check_pageable
        from .core.store import read_store_meta
        try:
            check_pageable(read_store_meta(args.oracle), args.oracle)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    engine = _workload(args.mesh, args.pois, args.poi_seed, args.density)
    if not args.store:
        return _answer_query(args, engine, load_oracle(args.oracle, engine))
    with open_oracle(args.oracle, engine=engine,
                     max_resident_bytes=args.max_resident_bytes) as stored:
        backing = ("paged" if args.max_resident_bytes is not None
                   else "mmap")
        print(f"opened {args.oracle} in "
              f"{stored.load_seconds * 1e3:.2f} ms "
              f"({backing}, n={stored.num_pois} "
              f"pairs={stored.num_pairs})")
        code = _answer_query(args, engine, stored)
        # The ledger follows every batch and every answered pair.
        if code == 0 or args.batch is not None:
            _print_page_ledger(stored)
        return code


def _answer_query(args, engine, oracle) -> int:
    """The ``query`` verb's answer: a ``--batch`` run or one pair."""
    if args.batch is not None:
        return _run_query_batch(args, oracle)
    if args.source is None or args.target is None:
        print("error: source and target are required without --batch",
              file=sys.stderr)
        return 2
    if not _check_poi_ids(oracle, (args.source, args.target)):
        return 2
    started = time.perf_counter()
    distance = oracle.query(args.source, args.target)
    micros = (time.perf_counter() - started) * 1e6
    print(f"d({args.source}, {args.target}) = {distance:.3f} "
          f"[{micros:.1f} us]")
    if args.exact:
        exact = engine.distance(args.source, args.target)
        error = abs(distance - exact) / exact if exact else 0.0
        print(f"exact = {exact:.3f}  error = {error:.4f}")
    return 0


def _print_page_ledger(stored) -> None:
    """One summary line of the paged backend's ledger, if there is one."""
    if not hasattr(stored, "page_counters"):
        return
    ledger = stored.page_counters()
    print(f"paging: {ledger['loads']} loads / {ledger['evictions']} "
          f"evictions / {ledger['hits']} hits, peak "
          f"{ledger['peak_resident_bytes']} B of "
          f"{ledger['budget_bytes']} B budget "
          f"(+{ledger['fixed_bytes']} B fixed)")


def _run_query_batch(args, oracle) -> int:
    """The ``query --batch`` verb: compiled tables, one batched call.

    ``oracle`` is a loaded :class:`SEOracle` or an opened
    :class:`~repro.core.store.StoredOracle` (``--store``).
    """
    pairs = []
    for token in args.batch:
        try:
            source_text, target_text = token.split(":", 1)
            pairs.append((int(source_text), int(target_text)))
        except ValueError:
            print(f"error: malformed pair {token!r}; expected S:T",
                  file=sys.stderr)
            return 2
    if args.source is not None and args.target is not None:
        pairs.insert(0, (args.source, args.target))
    if args.random_pairs:
        from .experiments.harness import generate_query_pairs
        pairs.extend(generate_query_pairs(
            oracle.num_pois, args.random_pairs, seed=args.pair_seed))
    if not pairs:
        print("error: --batch needs S:T pairs and/or --random N",
              file=sys.stderr)
        return 2
    if not _check_poi_ids(
            oracle, [poi for pair in pairs for poi in pair]):
        return 2

    # Both loaded JSON oracles and opened stores satisfy the
    # DistanceIndex protocol — the first (tiny) batch pays any lazy
    # compile / hash freeze, so the timed batch measures serving only.
    from .core import pair_arrays
    tick = time.perf_counter()
    sources, targets = pair_arrays(pairs)
    oracle.query_batch(sources[:1], targets[:1])
    compile_ms = (time.perf_counter() - tick) * 1e3
    tick = time.perf_counter()
    distances = oracle.query_batch(sources, targets)
    elapsed = time.perf_counter() - tick
    shown = min(len(pairs), 20)
    for index in range(shown):
        print(f"d({sources[index]}, {targets[index]}) = "
              f"{distances[index]:.3f}")
    if shown < len(pairs):
        print(f"... ({len(pairs) - shown} more)")
    qps = len(pairs) / elapsed if elapsed > 0 else float("inf")
    print(f"{len(pairs)} queries in {elapsed * 1e3:.2f} ms "
          f"-> {qps:,.0f} q/s  [compile {compile_ms:.1f} ms, "
          f"h={oracle.height}]")
    return 0


def _cmd_pack(args) -> int:
    import os

    from .core import open_oracle, pack_document
    tick = time.perf_counter()
    with open(args.oracle) as handle:
        document = json.load(handle)
    pack_document(document, args.out)
    elapsed = time.perf_counter() - tick
    json_bytes = os.path.getsize(args.oracle)
    store_bytes = os.path.getsize(args.out)
    print(f"packed {args.oracle} (v{document.get('version')}, "
          f"{json_bytes / 1024:.1f}KB) -> {args.out} "
          f"(v4, {store_bytes / 1024:.1f}KB) in {elapsed:.2f}s")
    with open_oracle(args.out) as stored:
        print(f"open: {stored.load_seconds * 1e3:.2f} ms mmap, "
              f"n={stored.num_pois} pairs={stored.num_pairs} "
              f"h={stored.compiled.height}")
    return 0


def _cmd_serve(args) -> int:
    from .serving import OracleService
    if (args.max_resident_bytes is not None
            and args.max_resident_tiles is not None):
        print("error: --max-resident-tiles pages tiled stores and "
              "--max-resident-bytes pages monolithic ones; pick one",
              file=sys.stderr)
        return 2
    with OracleService(max_resident=args.max_resident) as service:
        return _serve_terrains(args, service)


def _serve_terrains(args, service) -> int:
    """Register ``serve``'s terrains on ``service`` as worker 0 of
    ``run_workers`` does (``register_terrain``), and serve them."""
    import zipfile

    from .serving.server import (MutableSpec, ServerConfig,
                                 register_terrain, run_workers)
    mutable = {}
    for token in args.mutable:
        name, _, mesh_path = token.partition("=")
        if not name or not mesh_path:
            print(f"error: malformed mutable registration {token!r}; "
                  "expected NAME=MESH", file=sys.stderr)
            return 2
        mutable[name] = MutableSpec(mesh_path=mesh_path, pois=args.pois,
                                    poi_seed=args.poi_seed,
                                    density=args.density,
                                    rebuild_factor=args.rebuild_factor)
    registrations = []
    for token in args.terrains:
        name, _, path = token.partition("=")
        if not name or not path:
            print(f"error: malformed registration {token!r}; "
                  "expected NAME=STORE", file=sys.stderr)
            return 2
        registrations.append((name, path))
    unknown = sorted(set(mutable) - {name for name, _ in registrations})
    if unknown:
        print(f"error: --mutable names without a NAME=STORE "
              f"registration: {', '.join(unknown)}", file=sys.stderr)
        return 2
    config = ServerConfig(
        registrations=tuple(registrations), mutable=mutable,
        host=args.host, port=args.port or 0, workers=args.workers,
        max_batch=args.max_batch, linger_us=args.linger_us,
        max_resident=args.max_resident,
        max_resident_tiles=args.max_resident_tiles,
        max_resident_bytes=args.max_resident_bytes)
    for name, path in config.registrations:
        try:
            meta = register_terrain(service, config, name, path)
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            print(f"error: cannot register {name}: {error}",
                  file=sys.stderr)
            return 2
        kind = "mutable" if service.describe(name)["mutable"] else "static"
        print(f"registered {name}: {path} "
              f"({kind}, epsilon={meta['epsilon']} "
              f"h={meta['tree']['height']} "
              f"pairs={meta['stats']['pairs_stored']})")
    if args.repl:
        return _serve_repl(service)
    if args.port is not None:
        if args.workers < 1:
            print("error: --workers must be at least 1", file=sys.stderr)
            return 2
        # Single-worker mode reuses the service registered above
        # instead of rebuilding mutable workloads a second time.
        return run_workers(
            config, service=service if args.workers == 1 else None)
    print(f"{len(service.terrains())} terrains registered "
          f"(max resident: {service.max_resident}); "
          "pass --repl to serve queries from stdin "
          "or --port to serve over TCP")
    return 0


def _serve_repl(service) -> int:
    """Line-oriented REPL: one command per stdin line.

    Commands: ``query T S D``, ``batch T S:D [S:D ...]``,
    ``knn T S K``, ``range T S RADIUS``, ``rnn T S``,
    ``insert T X Y``, ``delete T ID``, ``flush T``, ``terrains``,
    ``stats``, ``quit``.  The update verbs require the terrain to be
    registered mutable (``--mutable``).  Each line is the request
    :func:`_repl_request` spells, checked and answered as the server
    does it: ``protocol.validate_request``, then ``protocol.answer``.

    One bad line must never kill the loop: besides malformed lines, a
    lazily (re-)loaded store can fail at query time (file replaced or
    deleted after registration or an LRU eviction) and a defective
    store can raise from the query kernel itself — all of it is
    reported per line, as ``error[<type>]: <message>`` stderr lines
    carrying the network protocol's error taxonomy, while other
    terrains keep serving.  EOF and Ctrl-C both end the loop cleanly.
    """
    print("serving; commands: query/batch/knn/range/rnn/insert/delete/"
          "flush/terrains/stats/quit")
    try:
        _repl_loop(service)
    except KeyboardInterrupt:
        pass
    print("bye")
    return 0


def _repl_pairs(pairs) -> str:
    return " ".join(f"{poi}:{distance:.3f}"
                    for poi, distance in pairs) or "-"


#: each REPL verb's stdout text, from (result, request, seconds, service)
_REPL_TEXT = {
    "terrains": lambda result, request, seconds, service: "\n".join(
        f"{name}  resident={name in service.resident_terrains()}"
        for name in result["terrains"]),
    "stats": lambda result, *_: json.dumps(result["terrains"], indent=1,
                                           sort_keys=True),
    "query": lambda result, *_: f"{result['distance']:.3f}",
    "batch": lambda result, *_: " ".join(
        f"{distance:.3f}" for distance in result["distances"]),
    "knn": lambda result, *_: _repl_pairs(result["neighbors"]),
    "range": lambda result, *_: _repl_pairs(result["hits"]),
    "rnn": lambda result, *_: " ".join(map(str, result["pois"])) or "-",
    "insert": lambda result, *_: f"inserted {result['poi']}",
    "delete": lambda result, *_: f"deleted {result['poi']}",
    "flush": lambda result, request, seconds, _: (
        f"flushed {request['terrain']} in {seconds:.2f}s "
        f"(pairs={result['meta']['stats']['pairs_stored']})"),
}


def _repl_value(word: str):
    """A REPL word as the int or float it spells, else as itself."""
    for kind in (int, float):
        try:
            return kind(word)
        except ValueError:
            pass
    return word


def _repl_request(verb: str, values):
    """The protocol request a REPL line spells: values fill the verb's
    fields in the protocol's order (surplus ones are ignored, like
    unknown fields on the wire), and ``batch T S:T ...`` gathers its
    pairs into ``sources`` and ``targets``.  Terrains stay text."""
    from .serving.protocol import ProtocolError, fields, request
    if verb not in _REPL_TEXT:
        raise ProtocolError("unknown-op", f"unknown command {verb!r}")
    named = {name: value if name == "terrain" else _repl_value(value)
             for name, value in zip(fields(verb), values)}
    if verb == "batch":
        pairs = [value.partition(":") for value in values[1:]]
        named["sources"] = [_repl_value(source) for source, _, _ in pairs]
        named["targets"] = [_repl_value(target) for _, _, target in pairs]
    return request(verb, **named)


def _repl_loop(service) -> None:
    from .serving import protocol

    for line in sys.stdin:
        tokens = line.split()
        if not tokens:
            continue
        verb = tokens[0].lower()
        if verb in ("quit", "exit"):
            break
        try:
            request = protocol.validate_request(
                _repl_request(verb, tokens[1:]))
            started = time.perf_counter()
            result = protocol.answer(service, request)
            seconds = time.perf_counter() - started
            print(_REPL_TEXT[verb](result, request, seconds, service))
        except Exception as error:
            print(protocol.describe_error(error), file=sys.stderr)


def _cmd_ingest(args) -> int:
    """``ingest``: real DEM -> TIN -> POIs -> built, packed oracle.

    For geographic grids the POIs keep their lat/lon identity, which
    enables the haversine sanity gate: no oracle distance may undercut
    the great-circle distance between the POIs' coordinates (beyond
    epsilon + --slack).  A gate failure exits non-zero — it means the
    ingested surface is geometrically wrong, not merely imprecise.
    """
    from .core import SEOracle, pack_oracle, save_oracle
    from .geodesic import GeodesicEngine
    from .terrain import write_mesh
    from .terrain.ingest import (
        IngestError,
        dem_to_mesh,
        haversine_gate,
        place_pois,
        read_dem,
        read_poi_csv,
        sample_poi_latlons,
    )
    try:
        grid = read_dem(args.dem)
        mesh, projection = dem_to_mesh(
            grid, decimate=args.decimate, z_scale=args.z_scale)
    except (IngestError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    nrows, ncols = grid.shape
    kind = "geographic" if grid.is_geographic else "projected"
    print(f"read {args.dem}: {nrows}x{ncols} cells "
          f"({grid.valid_fraction * 100:.1f}% valid, {kind})"
          + (f", decimated x{args.decimate}" if args.decimate > 1 else ""))
    print(f"triangulated: {mesh.num_vertices} vertices / "
          f"{mesh.num_faces} faces")

    latlons = None
    try:
        if args.poi_file:
            names, latlons = read_poi_csv(args.poi_file)
            pois = place_pois(mesh, projection, latlons)
            print(f"placed {len(pois)} POIs from {args.poi_file}: "
                  + ", ".join(names[:8])
                  + (" ..." if len(names) > 8 else ""))
        elif projection is not None:
            latlons = sample_poi_latlons(
                mesh, projection, args.pois, seed=args.poi_seed)
            pois = place_pois(mesh, projection, latlons)
            print(f"sampled {len(pois)} surface POIs (seed "
                  f"{args.poi_seed})")
        else:
            from .terrain import sample_uniform
            pois = sample_uniform(mesh, args.pois, seed=args.poi_seed)
            print(f"sampled {len(pois)} surface POIs (seed "
                  f"{args.poi_seed}; projected grid, no haversine "
                  "gate)")
    except IngestError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.mesh_out:
        write_mesh(mesh, args.mesh_out)
        print(f"wrote TIN to {args.mesh_out}")

    engine = GeodesicEngine(mesh, pois, points_per_edge=args.density)
    started = time.perf_counter()
    oracle = SEOracle(engine, args.epsilon, seed=args.seed,
                      jobs=args.jobs).build()
    elapsed = time.perf_counter() - started
    if args.out.endswith(".json"):
        save_oracle(oracle, args.out)
    else:
        pack_oracle(oracle, args.out)
    print(f"built in {elapsed:.2f}s: n={engine.num_pois} "
          f"h={oracle.height} pairs={oracle.num_pairs} -> {args.out}")

    if latlons is not None:
        report = haversine_gate(
            oracle, latlons, args.epsilon, slack=args.slack)
        print(f"haversine gate: {report['pairs_checked']} pairs, "
              f"min oracle/great-circle ratio "
              f"{report['min_ratio']:.3f} "
              f"(floor {report['floor']:.3f})")
        if not report["ok"]:
            for failure in report["failures"][:5]:
                print(f"error: d({failure['source']}, "
                      f"{failure['target']}) = "
                      f"{failure['oracle_m']:.1f} m undercuts the "
                      f"{failure['haversine_m']:.1f} m great-circle "
                      f"lower bound (ratio {failure['ratio']:.3f})",
                      file=sys.stderr)
            print(f"error: haversine sanity gate failed on "
                  f"{len(report['failures'])} pair(s)", file=sys.stderr)
            return 1
    return 0


def _cmd_workload(args) -> int:
    if args.action == "gen":
        return _cmd_workload_gen(args)
    return _cmd_workload_replay(args)


def _cmd_workload_gen(args) -> int:
    from .serving.workloads import (
        WorkloadError,
        dumps_workload,
        generate_workload,
    )
    radius = args.radius
    if args.store:
        from .core import open_oracle
        with open_oracle(args.store) as stored:
            num_pois = stored.num_pois
            if radius is None and args.scenario == "range-alerts":
                import numpy as np
                matrix = stored.query_matrix()
                off_diagonal = matrix[~np.eye(num_pois, dtype=bool)]
                radius = round(float(np.median(off_diagonal)), 3)
                print(f"derived radius {radius} m from {args.store} "
                      "(median pairwise distance)")
    elif args.num_pois is not None:
        num_pois = args.num_pois
    else:
        print("error: workload gen needs --store or --num-pois",
              file=sys.stderr)
        return 2
    try:
        generated = generate_workload(
            args.scenario, args.terrain, num_pois, args.events,
            seed=args.seed, agents=args.agents, k=args.k,
            radius=1000.0 if radius is None else radius,
            sentinels=args.sentinels, rate=args.rate)
    except WorkloadError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with open(args.out, "w", newline="\n") as handle:
        handle.write(dumps_workload(generated))
    counts = " ".join(f"{op}x{count}" for op, count
                      in sorted(generated.op_counts().items()))
    print(f"wrote {len(generated.events)} events ({counts}) "
          f"for terrain {args.terrain!r} -> {args.out}")
    return 0


def _cmd_workload_replay(args) -> int:
    from .serving.loadgen import replay_workload
    from .serving.workloads import WorkloadError, check_events, \
        read_workload
    try:
        loaded = read_workload(args.workload)
        check_events(loaded.events, loaded.num_pois)
    except (WorkloadError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    terrain = args.terrain or loaded.terrain
    if args.pace and not any(
            event.get("arrival_s") is not None for event in loaded.events):
        print("error: --pace needs arrival_s timestamps; regenerate "
              "the workload with --rate", file=sys.stderr)
        return 2
    report = replay_workload(args.host, args.port, terrain,
                             loaded.events, pace=args.pace)
    print(f"replayed {report.requests} events "
          f"({loaded.scenario}, seed {loaded.seed}) against "
          f"{terrain!r} in {report.elapsed_s:.2f}s "
          f"-> {report.qps:,.0f} q/s, {report.errors} errors")
    for op, stats in report.op_latency_ms.items():
        print(f"  {op}: p50={stats['p50']:.3f} ms "
              f"p95={stats['p95']:.3f} ms p99={stats['p99']:.3f} ms")
    return 1 if report.errors else 0


def _cmd_analyze(args) -> int:
    import sqlite3

    from .analysis import mirror_store, run_sql, run_view
    try:
        report = mirror_store(args.store, args.db,
                              chunk_rows=args.chunk_rows)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    counts = ", ".join(f"{name}={count}" for name, count
                       in report["tables"].items())
    print(f"mirrored {args.store} -> {report['db_path']} ({counts})")
    print(f"views: {', '.join(report['views'])}")
    try:
        for view in args.view:
            columns, rows = run_view(args.db, view)
            print(f"-- {view} ({len(rows)} rows)")
            print("  " + " | ".join(columns))
            for row in rows:
                print("  " + " | ".join(str(value) for value in row))
        if args.sql:
            columns, rows = run_sql(args.db, args.sql)
            print(f"-- sql ({len(rows)} rows)")
            print("  " + " | ".join(columns))
            for row in rows:
                print("  " + " | ".join(str(value) for value in row))
    except (sqlite3.Error, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_bench(args) -> int:
    from . import experiments
    runners = {
        "fig8": lambda: experiments.figure8(args.scale, render=True),
        "fig9": lambda: experiments.figure9(args.scale, render=True),
        "fig10": lambda: experiments.figure10(args.scale, render=True),
        "fig11": lambda: experiments.figure11(args.scale, render=True),
        "fig12": lambda: experiments.figure12(args.scale, render=True),
        "fig13": lambda: experiments.figure13(args.scale, render=True),
        "fig14": lambda: experiments.figure14(args.scale, render=True),
        "table1": lambda: experiments.table1_complexity_probes(
            args.scale, render=True),
        "table2": lambda: experiments.table2_dataset_statistics(
            args.scale, render=True),
        "table3": lambda: experiments.table3_query_distances(
            args.scale, render=True),
    }
    runners[args.experiment]()
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "build": _cmd_build,
    "query": _cmd_query,
    "pack": _cmd_pack,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
    "workload": _cmd_workload,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras and args.command == "query" and args.target is None:
        # `query mesh oracle --pois 40 3 17` (or `... 3 --pois 40 17`):
        # argparse matches the optional source/target positionals
        # greedily in the first positional chunk and cannot backtrack,
        # so trailing ids land in `extras`.  Fold them back in.
        try:
            ids = [int(token) for token in extras]
        except ValueError:
            ids = None
        if ids is not None and args.source is None and len(ids) == 2:
            args.source, args.target = ids
            extras = []
        elif ids is not None and args.source is not None and len(ids) == 1:
            args.target = ids[0]
            extras = []
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
