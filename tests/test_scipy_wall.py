"""A process that only serves packed stores never loads SciPy.

Geodesic searches are build-time work, and only they use SciPy, so
``repro.geodesic.dijkstra`` imports ``scipy.sparse.csgraph`` at a
process's first :class:`~repro.geodesic.graph.GeodesicGraph`
(``load_scipy``), not at ``import repro``.  Each test runs its steps in
a fresh interpreter, since this suite's own process built graphs long
ago, and reads back the ``scipy`` modules loaded after each step.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core import SEOracle, build_tiled_oracle, pack_oracle, pack_tiled
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, sample_uniform

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Run before every script: ``check(step)`` records the SciPy modules
#: loaded so far, and the script's last line prints the record.
_PRELUDE = """
import json, sys

loaded = {}

def check(step):
    loaded[step] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""

_IMPORTS = """
import repro
check("import repro")
import repro.serving.server
check("import repro.serving.server")
import repro.cli
check("import repro.cli")
"""

_SERVE = """
import math

from repro.serving import OracleService, TerrainSpec, ThreadedServer
from repro.serving.loadgen import OracleClient

monolithic, tiled = sys.argv[1:3]
specs = {
    "mapped": TerrainSpec(monolithic),
    "paged": TerrainSpec(monolithic, max_resident_bytes=4096),
    "tiled": TerrainSpec(tiled, max_resident_tiles=1),
}
with OracleService() as service:
    for name, spec in specs.items():
        service.register(name, spec)
        assert math.isfinite(service.query(name, 0, 1))
        assert len(service.k_nearest(name, 0, 3)) == 3
        assert service.range_query(name, 0, math.inf)
        service.reverse_nearest(name, 0)
        check(name + " store")
    with ThreadedServer(service) as server:
        with OracleClient(server.host, server.port) as client:
            assert math.isfinite(client.query("mapped", 0, 1))
            assert len(client.k_nearest("tiled", 0, 3)) == 3
            client.reverse_nearest("paged", 0)
    check("ThreadedServer round trip")
"""

_BUILD = """
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, sample_uniform

mesh = make_terrain(grid_exponent=3, seed=5)
check("import")
engine = GeodesicEngine(mesh, sample_uniform(mesh, 6, seed=6), points_per_edge=1)
check("engine")
search = sys.modules["repro.geodesic.dijkstra"]._scipy_dijkstra
assert (search is None) == (sys.argv[1] == "hidden"), search
assert len(engine.distances_from_poi(0)) == 6
"""


def _run(script, *args, path=()):
    """Run ``script`` in a fresh interpreter with ``path`` and ``src``
    ahead of ``PYTHONPATH``; returns ``{step: scipy modules}``."""
    paths = [*map(str, path), str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = _PRELUDE + script + "\nprint(json.dumps(loaded))\n"
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """A monolithic and a 2-tile store of one small workload."""
    root = tmp_path_factory.mktemp("wall")
    mesh = make_terrain(grid_exponent=3, relief=15.0, seed=31)
    pois = sample_uniform(mesh, 10, seed=32)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    monolithic, tiled = root / "mono.store", root / "tiled.store"
    pack_oracle(SEOracle(engine, 0.3, seed=31).build(), monolithic)
    pack_tiled(build_tiled_oracle(mesh, pois, 0.3, tiles=2, seed=31), tiled)
    return monolithic, tiled


def test_importing_the_package_loads_no_scipy():
    steps = _run(_IMPORTS)
    assert list(steps) == [
        "import repro",
        "import repro.serving.server",
        "import repro.cli",
    ]
    assert steps == {step: [] for step in steps}


def test_serving_stores_loads_no_scipy(stores):
    """Mapped, paged and tiled stores answer query, kNN, range and RNN
    through the service and over one server round trip without SciPy."""
    steps = _run(_SERVE, *stores)
    assert len(steps) == 4
    assert steps == {step: [] for step in steps}


def test_the_first_graph_loads_scipy():
    pytest.importorskip("scipy.sparse.csgraph", exc_type=ImportError)
    steps = _run(_BUILD, "installed")
    assert steps["import"] == []
    assert "scipy.sparse.csgraph" in steps["engine"]


def test_the_first_graph_without_scipy_loads_none(tmp_path):
    """With SciPy hidden the graph searches in pure Python."""
    (tmp_path / "scipy.py").write_text('raise ImportError("hidden")\n')
    steps = _run(_BUILD, "hidden", path=[tmp_path])
    assert steps == {"import": [], "engine": []}
