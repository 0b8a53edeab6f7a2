"""The benchmark's own arithmetic and process probes.

Everything here is a pure function of its arguments (or of ``/proc``,
or of how fast the CPU runs the reference work) so
``test_perfbench.py`` can pin the rules the reported numbers rest on:
which percentile may be reported, how trial throughput is summarised,
how times are scaled to the reference CPU, how a span's self time is
derived, and how point queries are matched to the coalesced batch that
carried them.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer and one outlier moves it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of all samples at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie strictly above the
    nearest-rank ``fraction`` percentile."""
    return count - max(1, math.ceil(fraction * count))


def tail_percentile(samples: Sequence[float], fraction: float) -> float:
    """``percentile``, refused when fewer than :data:`MIN_BEYOND`
    samples lie beyond it."""
    behind = beyond(len(samples), fraction)
    if behind < MIN_BEYOND:
        raise ValueError(
            f"p{fraction * 100:g} of {len(samples)} samples has only "
            f"{behind} beyond it; need {MIN_BEYOND}")
    return percentile(samples, fraction)


def trial_throughput(trial_ops: Sequence[int],
                     trial_seconds: Sequence[float]) -> float:
    """Median over fixed-size trials of completed ops per second."""
    if not trial_ops or len(trial_ops) != len(trial_seconds):
        raise ValueError("need one op count per trial duration")
    rates = []
    for ops, seconds in zip(trial_ops, trial_seconds):
        if seconds <= 0:
            raise ValueError(f"trial duration must be positive: {seconds}")
        rates.append(ops / seconds)
    return statistics.median(rates)


def self_times(starts: Sequence[int], ends: Sequence[int],
               parents: Sequence[int]) -> List[int]:
    """Each span's duration minus the time its direct children cover.

    Spans are recorded in start order and nest (a child runs inside
    its parent on one thread), so the children's durations are
    disjoint sub-intervals of the parent's.  ``parents[i]`` is the
    index of span ``i``'s parent, ``-1`` for a root.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[index] - starts[index]
    return own


def fifo_waits(ready: Sequence[int], batch_starts: Sequence[int],
               batch_sizes: Sequence[int]) -> List[int]:
    """Per point query, the time from when it was ready (end of its
    decode) to the start of the batch probe that carried it.

    The batcher cuts its pending list front to back, so the i-th ready
    query rides the batch whose cumulative size first exceeds i.
    Queries past the last recorded batch are left out.
    """
    waits: List[int] = []
    position = 0
    for start, size in zip(batch_starts, batch_sizes):
        for _ in range(size):
            if position >= len(ready):
                return waits
            waits.append(start - ready[position])
            position += 1
    return waits


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile over the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


# ----------------------------------------------------------------------
# /proc probes
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def rss_mb(pid: int) -> float:
    """Current ``VmRSS`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14, stime 15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def steal_seconds() -> float:
    """Host steal time summed over all CPUs since boot."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


#: The reference work: this many rounds of the small operations the
#: program's hot paths are made of (a JSON round trip, a small NumPy
#: sort and gather, list and dict building) ...
REFERENCE_ROUNDS = 60
#: ... take this long on the reference CPU.  Every time the benchmark
#: reports is scaled to that CPU: on a shared host the same CPU ran
#: this work anywhere from about 1 ms to more than 2 ms, for tens of
#: seconds at a time, and a run's raw times would measure that, not the
#: program.  A tight arithmetic loop is the simpler probe but slows
#: less than the program does when the host is busy: in slow spells
#: this work slowed about 15% more than such a loop.
REFERENCE_NS = 1_000_000


@functools.lru_cache(maxsize=1)
def _reference_inputs():
    import numpy

    message = {"op": "query", "terrain": "t", "id": 7,
               "args": {"source": 3, "target": 9, "k": [1, 2, 3]}}
    return numpy.random.default_rng(0).random(4096), message


def _reference_work() -> int:
    import numpy

    values, message = _reference_inputs()
    total = 0
    for offset in range(REFERENCE_ROUNDS):
        text = json.dumps(message)
        decoded = json.loads(text)
        picked = numpy.take(values,
                            numpy.argsort(values[offset:offset + 256]))
        keys = [(step * 7919) % 101 for step in range(50)]
        total += (len(text) + picked.size + len(sorted(decoded))
                  + len(dict(zip(keys, keys))))
    return total


def reference_ns(repeats: int = 3) -> int:
    """Fastest of ``repeats`` runs of the reference work, in ns: how
    fast the CPU runs this kind of Python right now."""
    best = None
    for _ in range(repeats):
        began = time.perf_counter_ns()
        _reference_work()
        elapsed = time.perf_counter_ns() - began
        best = elapsed if best is None else min(best, elapsed)
    return best


def speed_factor(before_ns: float, after_ns: float) -> float:
    """Scale for a time measured between two runs of the reference
    work: its time on the reference CPU over their mean.  Times on a
    CPU running at half the reference speed are halved."""
    if before_ns <= 0 or after_ns <= 0:
        raise ValueError("reference work times must be positive")
    return 2 * REFERENCE_NS / (before_ns + after_ns)


def trial_factors(refs_ns: Sequence[float]) -> List[float]:
    """Speed factors of consecutive trials, from the reference runs
    before the first trial and after each one."""
    return [speed_factor(before, after)
            for before, after in zip(refs_ns, refs_ns[1:])]


def scaled_samples(samples_s: Sequence[float], trial_ends: Sequence[int],
                   factors: Sequence[float]) -> List[float]:
    """Per-op times, each scaled by its trial's speed factor; trial
    ``i`` holds samples ``trial_ends[i - 1]`` to ``trial_ends[i]``."""
    if len(factors) != len(trial_ends) or (
            trial_ends and trial_ends[-1] != len(samples_s)):
        raise ValueError("need a speed factor for every trial and the "
                         "trials to hold every sample")
    scaled: List[float] = []
    first = 0
    for factor, end in zip(factors, trial_ends):
        scaled.extend(sample * factor for sample in samples_s[first:end])
        first = end
    return scaled


def timings(trial_ops: int, trials_s: Sequence[float],
            samples_s: Sequence[float], trial_ends: Sequence[int],
            factors: Sequence[float], tail: float
            ) -> Tuple[Dict[str, float], Dict[str, float], int]:
    """``throughput_ops``, ``latency_p50_ms`` and ``latency_tail_ms``
    scaled to the reference CPU, the same unscaled (a diagnostic), and
    the number of latency samples."""
    scaled_p50, scaled_tail, count = summarise_latency(
        scaled_samples(samples_s, trial_ends, factors), tail)
    raw_p50, raw_tail, _ = summarise_latency(samples_s, tail)
    ops = [trial_ops] * len(trials_s)
    scaled = {"throughput_ops": trial_throughput(
                  ops, [t * f for t, f in zip(trials_s, factors)]),
              "latency_p50_ms": scaled_p50, "latency_tail_ms": scaled_tail}
    raw = {"throughput_ops": trial_throughput(ops, trials_s),
           "latency_p50_ms": raw_p50, "latency_tail_ms": raw_tail}
    return scaled, raw, count


def bench_cpu() -> int:
    """The one CPU the server and the load generator share."""
    return max(os.sched_getaffinity(0))


def environment() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
    }


def payload_bytes(path: str) -> int:
    """Bytes of a store's array sections: its size without the
    ``meta.json`` member, whose build timings vary run to run."""
    import zipfile

    with zipfile.ZipFile(path) as archive:
        return sum(info.file_size for info in archive.infolist()
                   if info.filename != "meta.json")


def stage_seconds(stats) -> Dict[str, float]:
    """An oracle's own ``BuildStats`` stage timings, by span stage."""
    return {"tree": stats.tree_seconds, "enhanced": stats.enhanced_seconds,
            "pairs": stats.pairs_seconds, "hash": stats.hash_seconds}


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean_or_zero(total: float, count: float) -> float:
    return total / count if count else 0.0


def summarise_latency(samples_s: Sequence[float],
                      tail: float) -> Tuple[float, float, int]:
    """(p50 ms, tail ms, samples) of latencies given in seconds."""
    return (percentile(samples_s, 0.5) * 1e3,
            tail_percentile(samples_s, tail) * 1e3,
            len(samples_s))
