"""Benchmark configuration.

Every benchmark regenerates one table or figure of the paper (see the
per-experiment index in DESIGN.md) and prints the paper-shaped series.
Heavy experiment sweeps run exactly once via ``benchmark.pedantic``;
micro-benchmarks (single query operations) use the normal calibrated
loop.

Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_SCALE`` to ``tiny`` / ``small`` / ``bench`` to trade
fidelity for speed (default: ``small``).
"""

import os
import pathlib

import pytest

#: Where a run writes its tables: untracked, so a run never dirties
#: the committed ``benchmarks/results/``; copy a table there on purpose.
RESULTS_DIR = pathlib.Path(__file__).parent / "out"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "small")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


@pytest.fixture(scope="session")
def write_result():
    """Persist a rendered table under benchmarks/out/ and print it
    with its path."""

    def _write(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text)
        print(f"\n{text}\n[written to {path}]")

    return _write


def by_method(results):
    """Index a list of MethodResult by method name."""
    return {result.method: result for result in results}
