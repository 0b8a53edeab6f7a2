"""Build executors — the fan-out engine of the staged oracle pipeline.

``SEOracle.build()`` is organised as an explicit three-stage pipeline:

1. **plan** — partition-tree construction (as node columns) and
   compression.  Inherently sequential: each cover pass selects its
   next centre from the points the previous passes left uncovered, so
   this stage always runs on the live engine.
2. **fan-out** — the SSAD-heavy distance work: the enhanced-edge
   sweep (one radius-bounded SSAD per distinct centre of the original
   tree, all in one batch, each cut for its deeper layers) for the
   efficient method, or per-pair centre distances for the naive
   method.  These computations are independent of each other —
   exactly the embarrassingly parallel bulk the paper amortises
   across queries — and are expressed as *batches* handed to a
   :class:`BuildExecutor`.
3. **reduce** — node-pair generation over the precomputed distances
   and perfect-hash indexing, reassembled in a deterministic order.

This module provides the executors behind stage 2:

* :class:`SerialExecutor` — the zero-dependency default; batches run
  inline on the live engine, byte-for-byte the pre-pipeline behaviour.
* :class:`MultiprocessExecutor` — a ``ProcessPoolExecutor`` whose
  workers each rehydrate one picklable frozen-CSR engine snapshot
  (shipped once through the pool initializer, fork-friendly on
  POSIX), then serve chunked batches.  Chunks are reduced strictly in
  submission order and worker effort counters are folded back into the
  live engine, so a parallel build is **bit-identical** to a serial
  one — same node pairs, same float distances, same stats.

Pick an executor with :func:`make_executor`, or pass ``jobs=N``
anywhere a build entry point accepts it (``SEOracle``, ``A2AOracle``,
``python -m repro build --jobs``).  ``DynamicSEOracle`` builds and
rebuilds serially.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from ..geodesic.engine import GeodesicEngine, PoiRow

__all__ = [
    "BuildExecutor",
    "SerialExecutor",
    "MultiprocessExecutor",
    "make_executor",
    "map_jobs",
]

#: One SSAD work unit: ``(poi index, radius)`` where ``radius=None``
#: means cover-all mode (SSAD version 1).
SSADTask = Tuple[int, Optional[float]]

#: Counter deltas a worker reports per chunk:
#: ``(ssad_calls, settled_nodes, heap_pushes)``.
CounterDelta = Tuple[int, int, int]

#: Target number of chunks per worker per batch.  More chunks smooth
#: load imbalance between SSADs of very different radii at the cost of
#: more pickling round-trips.
_CHUNKS_PER_JOB = 4


class BuildExecutor:
    """Abstract executor for the build pipeline's fan-out stage.

    Lifecycle: :meth:`bind` to an engine, serve any number of batch
    maps, :meth:`close`.  ``SEOracle.build`` closes executors it
    created itself (via ``jobs=``) and leaves caller-supplied ones
    open, so one pool can be amortised over several builds on the same
    engine.
    """

    #: Worker parallelism this executor provides.
    jobs: int = 1
    #: Short name recorded in build stats and serialized metadata.
    name: str = "abstract"

    def bind(self, engine: GeodesicEngine) -> None:
        """Attach to the engine whose workload the batches reference."""
        raise NotImplementedError

    def map_ssad(self, tasks: Sequence[SSADTask]) -> List[PoiRow]:
        """Run one SSAD per task; rows aligned with ``tasks`` order.

        Each row is a :class:`~repro.geodesic.engine.PoiRow` of
        ``(poi ids, distances)`` arrays.
        """
        raise NotImplementedError

    def map_pair_distances(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        """One early-exit P2P distance per POI pair, in ``pairs`` order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources; binding again after close is allowed."""

    def __enter__(self) -> "BuildExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(BuildExecutor):
    """Inline executor: batches run on the live engine, in order.

    This is the default and the semantic reference — the multiprocess
    executor's output must be bit-identical to it.
    """

    jobs = 1
    name = "serial"

    def __init__(self) -> None:
        self._engine: Optional[GeodesicEngine] = None

    def bind(self, engine: GeodesicEngine) -> None:
        self._engine = engine

    def map_ssad(self, tasks: Sequence[SSADTask]) -> List[PoiRow]:
        if self._engine is None:
            raise RuntimeError("executor is not bound to an engine")
        return self._engine.distances_many(
            [poi for poi, _ in tasks], radius=[radius for _, radius in tasks]
        )

    def map_pair_distances(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        if self._engine is None:
            raise RuntimeError("executor is not bound to an engine")
        return [self._engine.distance(a, b) for a, b in pairs]


# ----------------------------------------------------------------------
# multiprocess executor
# ----------------------------------------------------------------------

# Worker-global rehydrated engine, installed once per worker by the
# pool initializer so each task pickles only its chunk, never the CSR.
_WORKER_ENGINE: Optional[GeodesicEngine] = None


def _init_worker(snapshot) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = GeodesicEngine.from_snapshot(snapshot)


def _run_ssad_chunk(
    tasks: Sequence[SSADTask],
) -> Tuple[List[PoiRow], CounterDelta]:
    engine = _WORKER_ENGINE
    engine.reset_counters()
    results = engine.distances_many(
        [poi for poi, _ in tasks], radius=[radius for _, radius in tasks]
    )
    return results, (engine.ssad_calls, engine.settled_nodes, engine.heap_pushes)


def _run_pair_chunk(
    pairs: Sequence[Tuple[int, int]],
) -> Tuple[List[float], CounterDelta]:
    engine = _WORKER_ENGINE
    engine.reset_counters()
    distances = [engine.distance(a, b) for a, b in pairs]
    return distances, (engine.ssad_calls, engine.settled_nodes, engine.heap_pushes)


def _default_context():
    """Fork on Linux (snapshot ships via copy-on-write pages); the
    platform default elsewhere.

    macOS lists fork as available but defaults to spawn for a reason:
    forking after NumPy/BLAS and the Objective-C runtime have started
    threads is unsafe there.  Honour that default instead of forcing
    fork wherever it merely exists.
    """
    if sys.platform.startswith("linux"):
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
    return None


class MultiprocessExecutor(BuildExecutor):
    """``ProcessPoolExecutor``-backed fan-out over engine snapshots.

    Parameters
    ----------
    jobs:
        Worker process count (>= 2; use :func:`make_executor` for the
        general ``jobs`` convention).  Workers start from
        :func:`_default_context` (fork on Linux).

    Determinism
    -----------
    Chunk boundaries depend only on batch length and ``jobs``; chunk
    results are concatenated strictly in submission order; worker
    counter deltas are integers folded in any order.  Parallel output
    is therefore bit-identical to :class:`SerialExecutor` output.
    """

    name = "multiprocess"

    def __init__(self, jobs: int) -> None:
        if jobs < 2:
            raise ValueError("MultiprocessExecutor needs jobs >= 2")
        self.jobs = int(jobs)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._engine: Optional[GeodesicEngine] = None

    def bind(self, engine: GeodesicEngine) -> None:
        if self._pool is not None:
            if engine is self._engine:
                return
            self.close()  # new workload -> new snapshot -> new pool
        self._pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=_default_context(),
            initializer=_init_worker,
            initargs=(engine.snapshot(),),
        )
        self._engine = engine

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._engine = None

    # ------------------------------------------------------------------
    # batch maps
    # ------------------------------------------------------------------
    def _chunk(self, items: list) -> List[list]:
        per_chunk = max(1, -(-len(items) // (self.jobs * _CHUNKS_PER_JOB)))
        return [
            items[start : start + per_chunk]
            for start in range(0, len(items), per_chunk)
        ]

    def _map_chunked(self, worker_fn, items: list) -> list:
        if self._pool is None:
            raise RuntimeError("executor is not bound to an engine")
        futures = [self._pool.submit(worker_fn, chunk) for chunk in self._chunk(items)]
        out: list = []
        for future in futures:  # submission order = deterministic reduce
            results, (calls, settled, pushes) = future.result()
            out.extend(results)
            self._engine.account_external(calls, settled, pushes)
        return out

    def map_ssad(self, tasks: Sequence[SSADTask]) -> List[PoiRow]:
        return self._map_chunked(_run_ssad_chunk, list(tasks))

    def map_pair_distances(self, pairs: Sequence[Tuple[int, int]]) -> List[float]:
        return self._map_chunked(_run_pair_chunk, list(pairs))


def map_jobs(worker_fn, items: Sequence, jobs: Optional[int] = 1) -> list:
    """Run ``worker_fn`` over ``items`` with the ``--jobs N`` convention.

    The coarse-grained sibling of :class:`MultiprocessExecutor`: each
    item is one self-contained picklable work unit (e.g. a whole tile
    build) rather than an SSAD chunk against a shared engine snapshot,
    so no pool initializer / snapshot shipping is involved.  Results
    are collected strictly in submission order, which keeps parallel
    runs output-identical to serial ones; ``jobs`` resolves exactly as
    in :func:`make_executor` (``<= 1`` serial, negative one per CPU).
    """
    items = list(items)
    if jobs is None:
        jobs = 1
    jobs = int(jobs)
    if jobs < 0:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(items)) if items else 1
    if jobs <= 1:
        return [worker_fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=_default_context()) as pool:
        futures = [pool.submit(worker_fn, item) for item in items]
        return [future.result() for future in futures]


def make_executor(jobs: Optional[int] = 1) -> BuildExecutor:
    """The ``--jobs N`` convention, resolved to an executor.

    ``None``, ``0`` and ``1`` mean serial; ``N >= 2`` means ``N``
    worker processes; any negative value means one worker per CPU.
    """
    if jobs is None:
        jobs = 1
    jobs = int(jobs)
    if jobs < 0:
        jobs = os.cpu_count() or 1
    if jobs <= 1:
        return SerialExecutor()
    return MultiprocessExecutor(jobs)
