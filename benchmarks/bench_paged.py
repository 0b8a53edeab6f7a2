"""Page-pool serving benchmark: QPS and memory vs pool budget.

For each workload scale this script builds one SE oracle, packs it as
a v4 store, and serves the same random pair workload through
:class:`~repro.core.paged.PagedOracle` at three pool bounds — a
sixteenth of the paged run (``minpool``), a quarter of it, and 100%
(everything fits) — next to the unpaged mmap baseline.  Per bound it
records:

* batched QPS (best-of timing) and its ratio to the unpaged oracle;
* the page ledger: loads / evictions / hits, resident and peak
  resident bytes, and the fixed (never-paged) routing bytes;
* a kNN-row leg: ``n`` one-source batches (one POI against every POI,
  the rows a kNN query probes) through a fresh pool, with its page
  loads and hits and the microseconds per batch next to the unpaged
  oracle's — the locality the key-ordered pair run buys shows here,
  below the run's size;
* the OS view: each bound is re-run in a **fresh subprocess** and its
  ``resource.getrusage`` max-RSS recorded, so pool configs cannot
  share interpreter warm-up or page-cache state.

It *gates* (non-zero exit) on three invariants, which is what lets CI
run it as an out-of-core serving regression smoke test:

1. paged answers (``query_batch`` over the workload, the kNN rows
   *and* a full ``query_matrix``) are **bit-identical** to the unpaged
   oracle at every pool bound, and RNN for every source answers the same
   through the store's nearest-neighbour column as through the matrix
   path (``num_pois=n``), whose per-RNN milliseconds the report
   records side by side;
2. the ledger's peak resident bytes stay within the configured budget
   plus at most one page, at every bound;
3. at the largest scale the full-pool QPS stays at or above
   ``--min-qps-ratio`` (default 0.3) of the unpaged QPS.

Max-RSS is reported, not gated: a Python process's RSS floor is the
interpreter plus NumPy, orders of magnitude above smoke-size pool
budgets.  What the budget actually controls — the pool's own
footprint — is exactly what gate 2 pins, and the per-bound subprocess
RSS column makes regressions of the fixed overhead visible in the
report without a flaky absolute threshold.

Usage::

    PYTHONPATH=src python benchmarks/bench_paged.py \
        --scales tiny small medium --min-qps-ratio 0.3 \
        --out BENCH_paged.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import SEOracle, open_oracle, pack_oracle  # noqa: E402
from repro.core.paged import (  # noqa: E402
    DEFAULT_PAGE_BYTES,
    PAGED_SECTIONS,
    PagedOracle,
)
from repro.core.store import section_layouts  # noqa: E402
from repro.geodesic import GeodesicEngine  # noqa: E402
from repro.queries import reverse_nearest_neighbors  # noqa: E402
from repro.terrain import make_terrain, sample_uniform  # noqa: E402

# Workload shapes shared with the other smoke benchmarks.
from bench_query_throughput import SCALES, pair_workload  # noqa: E402


def paged_section_bytes(store_path: str) -> int:
    """Total bytes of the store's pageable columns."""
    _, layouts = section_layouts(store_path)
    total = 0
    for name in PAGED_SECTIONS:
        _, dtype, shape = layouts[name]
        total += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return total


def pool_bounds(store_path: str) -> dict:
    """The swept budgets: 1/16, 1/4 and 100% of the paged run.

    The two partial budgets are fractions of the run's own bytes, in
    whole multiples of 64 bytes (the pool splits a budget into 8 pages
    of 8-byte elements), so they page below the run at every scale.
    The 100% bound counts whole default pages *per section* (a section
    shorter than a page still occupies one) so every page of every
    column can be resident at once — the no-eviction steady state.
    """
    _, layouts = section_layouts(store_path)
    pages_needed = 0
    for name in PAGED_SECTIONS:
        _, dtype, shape = layouts[name]
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        pages_needed += -(-nbytes // DEFAULT_PAGE_BYTES)
    run_bytes = paged_section_bytes(store_path)
    return {
        "minpool": max(64, run_bytes // 16 // 64 * 64),
        "25pct": max(64, run_bytes // 4 // 64 * 64),
        "100pct": DEFAULT_PAGE_BYTES * pages_needed,
    }


def timed_qps(oracle, sources, targets, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        tick = time.perf_counter()
        oracle.query_batch(sources, targets)
        best = min(best, time.perf_counter() - tick)
    return sources.size / best if best > 0 else float("inf")


def knn_leg(store_path: str, budget: int, unpaged) -> dict:
    """``n`` one-source batches (POI ``s`` against every POI) through a
    fresh pool of ``budget`` bytes: its page loads and hits, the mean
    microseconds per batch next to the unpaged oracle's, and the
    answers that differ."""
    n = unpaged.num_pois
    targets = np.arange(n, dtype=np.intp)
    rows = [np.full(n, source, dtype=np.intp) for source in range(n)]
    answers, per_batch_us = [], []
    with PagedOracle(store_path, max_resident_bytes=budget) as paged:
        for oracle in (paged, unpaged):
            tick = time.perf_counter()
            answers.append([oracle.query_batch(row, targets)
                            for row in rows])
            per_batch_us.append((time.perf_counter() - tick)
                                / max(n, 1) * 1e6)
        ledger = paged.page_counters()
    return {
        "knn_batches": n,
        "knn_loads": ledger["loads"],
        "knn_hits": ledger["hits"],
        "knn_us_per_batch": per_batch_us[0],
        "knn_unpaged_us_per_batch": per_batch_us[1],
        "knn_mismatches": sum(int(np.sum(got != expected))
                              for got, expected in zip(*answers)),
    }


def rnn_leg(store) -> dict:
    """RNN for every source through the store's nearest-neighbour
    column and through the matrix path (``num_pois=n``): the sources
    whose answers differ, and each path's mean milliseconds per RNN."""
    n = store.num_pois
    answers, per_rnn_ms = [], []
    for scope in ({}, {"num_pois": n}):
        tick = time.perf_counter()
        answers.append([reverse_nearest_neighbors(store, source, **scope)
                        for source in range(n)])
        per_rnn_ms.append((time.perf_counter() - tick) / max(n, 1) * 1e3)
    return {
        "rnn_mismatches": sum(column != matrix
                              for column, matrix in zip(*answers)),
        "rnn_column_ms": per_rnn_ms[0],
        "rnn_matrix_ms": per_rnn_ms[1],
    }


# ----------------------------------------------------------------------
# subprocess probe: one pool config, fresh interpreter, max-RSS
# ----------------------------------------------------------------------
def run_probe(store_path: str, budget: int, queries: int,
              seed: int) -> dict:
    """Drive one paged config in this process; print a JSON report.

    Invoked via ``--probe`` in a fresh interpreter so ``getrusage``
    max-RSS reflects exactly one pool configuration.
    """
    paged = PagedOracle(store_path, max_resident_bytes=budget)
    sources, targets = pair_workload(paged.num_pois, queries, seed)
    sources = np.asarray(sources, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    paged.query_batch(sources, targets)
    paged.query_matrix()
    ledger = paged.page_counters()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    paged.close()
    return {"ledger": ledger, "maxrss_kb": int(ru.ru_maxrss)}


def probe_subprocess(store_path: str, budget: int, queries: int,
                     seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "..", "src"),
            env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe",
         store_path, str(budget), str(queries), str(seed)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


# ----------------------------------------------------------------------
# one scale
# ----------------------------------------------------------------------
def measure_scale(scale: str, queries: int, density: int, seed: int,
                  repeats: int) -> dict:
    spec = SCALES[scale]
    mesh = make_terrain(grid_exponent=spec["exponent"],
                        extent=spec["extent"], relief=spec["relief"],
                        seed=seed)
    pois = sample_uniform(mesh, spec["pois"], seed=seed + 1)
    engine = GeodesicEngine(mesh, pois, points_per_edge=density)
    oracle = SEOracle(engine, spec["epsilon"], seed=seed).build()

    sources, targets = pair_workload(len(pois), queries, seed + 2)
    sources = np.asarray(sources, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)

    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "oracle.store")
        pack_oracle(oracle, store_path)
        store_bytes = os.path.getsize(store_path)
        pageable = paged_section_bytes(store_path)

        unpaged = open_oracle(store_path)
        expected_batch = unpaged.query_batch(sources, targets)
        expected_matrix = unpaged.query_matrix()
        unpaged_qps = timed_qps(unpaged, sources, targets, repeats)

        bounds = {}
        for label, budget in pool_bounds(store_path).items():
            knn = knn_leg(store_path, budget, unpaged)
            paged = PagedOracle(store_path, max_resident_bytes=budget)
            got_batch = paged.query_batch(sources, targets)
            got_matrix = paged.query_matrix()
            mismatches = int(
                np.sum(got_batch != expected_batch)
                + np.sum(got_matrix != expected_matrix)
                + knn["knn_mismatches"])
            qps = timed_qps(paged, sources, targets, repeats)
            ledger = paged.page_counters()
            rnn = rnn_leg(paged)
            mismatches += rnn["rnn_mismatches"]
            paged.close()
            probe = probe_subprocess(store_path, budget, queries,
                                     seed + 2)
            peak_ok = (probe["ledger"]["peak_resident_bytes"]
                       <= budget + ledger["page_bytes"]) and (
                ledger["peak_resident_bytes"]
                <= budget + ledger["page_bytes"])
            bounds[label] = {
                "budget_bytes": budget,
                "page_bytes": ledger["page_bytes"],
                "max_pages": ledger["max_pages"],
                "qps": qps,
                "qps_ratio": qps / unpaged_qps if unpaged_qps else 0.0,
                "loads": ledger["loads"],
                "evictions": ledger["evictions"],
                "hits": ledger["hits"],
                "peak_resident_bytes": ledger["peak_resident_bytes"],
                "fixed_bytes": ledger["fixed_bytes"],
                "probe_maxrss_kb": probe["maxrss_kb"],
                "probe_peak_resident_bytes":
                    probe["ledger"]["peak_resident_bytes"],
                **knn,
                **rnn,
                "equivalent": mismatches == 0,
                "mismatches": mismatches,
                "peak_within_budget": bool(peak_ok),
            }

    return {
        "scale": scale,
        "num_pois": len(pois),
        "epsilon": spec["epsilon"],
        "queries": queries,
        "store_bytes": store_bytes,
        "pageable_bytes": pageable,
        "unpaged_qps": unpaged_qps,
        "bounds": bounds,
    }


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--probe":
        store_path, budget, queries, seed = argv[1:5]
        print(json.dumps(run_probe(store_path, int(budget),
                                   int(queries), int(seed))))
        return 0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", nargs="+", default=["tiny", "small"],
                        choices=sorted(SCALES),
                        help="workload scales to sweep, smallest first")
    parser.add_argument("--queries", type=int, default=20000,
                        help="random query pairs for the gates")
    parser.add_argument("--density", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5,
                        help="per-leg repetitions (best-of timing)")
    parser.add_argument("--min-qps-ratio", type=float, default=0.3,
                        help="fail if the largest scale's full-pool "
                             "QPS falls below this fraction of the "
                             "unpaged QPS")
    parser.add_argument("--out", default=None, help="JSON report path")
    args = parser.parse_args(argv)

    runs = []
    for scale in args.scales:
        run = measure_scale(scale, args.queries, args.density,
                            args.seed, args.repeats)
        runs.append(run)
        print(f"{scale:7s} n={run['num_pois']:4d} "
              f"pageable {run['pageable_bytes'] / 1024:8.1f}KB  "
              f"unpaged {run['unpaged_qps']:>10,.0f} q/s")
        for label, bound in run["bounds"].items():
            verdict = "ok"
            if not bound["equivalent"]:
                verdict = (f"PAGING BROKEN: {bound['mismatches']} "
                           "mismatches")
            elif not bound["peak_within_budget"]:
                verdict = "BUDGET BROKEN: peak resident over budget"
            print(f"  {label:>6s} budget {bound['budget_bytes'] / 1024:8.1f}KB "
                  f"peak {bound['peak_resident_bytes'] / 1024:8.1f}KB  "
                  f"{bound['qps']:>10,.0f} q/s "
                  f"(x{bound['qps_ratio']:4.2f})  "
                  f"loads {bound['loads']:6d} "
                  f"evict {bound['evictions']:6d} "
                  f"hits {bound['hits']:6d}  "
                  f"rss {bound['probe_maxrss_kb'] / 1024:6.1f}MB  "
                  f"knn {bound['knn_us_per_batch']:7.1f}us "
                  f"(unpaged {bound['knn_unpaged_us_per_batch']:6.1f}us, "
                  f"loads {bound['knn_loads']:5d} "
                  f"hits {bound['knn_hits']:6d})  "
                  f"rnn {bound['rnn_column_ms']:6.2f}ms "
                  f"(matrix {bound['rnn_matrix_ms']:6.2f}ms)  "
                  f"{verdict}")

    healthy = all(
        bound["equivalent"] and bound["peak_within_budget"]
        for run in runs for bound in run["bounds"].values())
    final_ratio = runs[-1]["bounds"]["100pct"]["qps_ratio"]
    report = {
        "benchmark": "bench_paged",
        "queries": args.queries,
        "density": args.density,
        "seed": args.seed,
        "repeats": args.repeats,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "healthy": healthy,
        "min_qps_ratio_required": args.min_qps_ratio,
        "final_qps_ratio": final_ratio,
        "runs": runs,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"[report written to {args.out}]")

    if not healthy:
        print("FAILED: a page-pool gate broke (see verdicts)")
        return 1
    if final_ratio < args.min_qps_ratio:
        print(f"FAILED: full-pool QPS x{final_ratio:.2f} of unpaged; "
              f"required at least x{args.min_qps_ratio:.2f}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
