"""Every query-answering family satisfies the DistanceIndex protocol.

The PR-5 refactor puts SEOracle, CompiledOracle, StoredOracle,
DynamicSEOracle, FullAPSPBaseline, KAlgo and the P2P-bound A2A / SP
oracles behind one structural protocol (``core/index.py``): scalar
``query``, batched ``query_batch``, all-pairs ``query_matrix``,
``num_pois`` and the ``supports_updates`` / ``is_compiled`` capability
flags.  This suite pins (1) conformance, (2) the flags, and (3) the
scalar/batch/matrix internal consistency of every family — so a new
consumer can program against the protocol without per-family dispatch.
"""

import numpy as np
import pytest

from repro.baselines import FullAPSPBaseline, KAlgo, SPOracle
from repro.core import (
    A2AOracle,
    DistanceIndex,
    DynamicSEOracle,
    P2PIndexAdapter,
    SEOracle,
    ensure_index,
    pack_oracle,
    pair_arrays,
)
from repro.core.store import open_oracle
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, sample_uniform


@pytest.fixture(scope="module")
def workload():
    mesh = make_terrain(
        grid_exponent=3, extent=(90.0, 90.0), relief=12.0, seed=71
    )
    pois = sample_uniform(mesh, 10, seed=72)
    return mesh, pois, GeodesicEngine(mesh, pois, points_per_edge=1)


@pytest.fixture(scope="module")
def se_oracle(workload):
    _, _, engine = workload
    return SEOracle(engine, epsilon=0.25, seed=3).build()


@pytest.fixture(scope="module")
def stored(se_oracle, tmp_path_factory):
    path = tmp_path_factory.mktemp("protocol") / "oracle.store"
    pack_oracle(se_oracle, path)
    return open_oracle(path)


@pytest.fixture(scope="module")
def families(workload, se_oracle, stored):
    """name -> (index, expected supports_updates, expected is_compiled).

    ``is_compiled`` is asserted post-batch for the lazily compiling
    families, so the expectation here is the steady-state flag.
    """
    mesh, pois, engine = workload
    dynamic = DynamicSEOracle(
        mesh, pois, epsilon=0.25, rebuild_factor=5.0, seed=3
    ).build()
    dynamic.insert(30.0, 30.0)
    apsp = FullAPSPBaseline(engine).build()
    kalgo = KAlgo(mesh, pois, epsilon=0.5, points_per_edge=1).build()
    sp = SPOracle(mesh, epsilon=0.5, points_per_edge=1).build()
    a2a = A2AOracle(
        mesh, epsilon=0.5, sites_per_edge=0, points_per_edge=1, seed=3
    ).build()
    return {
        "se": (se_oracle, False, True),
        "compiled": (se_oracle.compiled(), False, True),
        "stored": (stored, False, True),
        "dynamic": (dynamic, True, True),
        "full_apsp": (apsp, False, True),
        "kalgo": (kalgo, False, False),
        "sp_p2p": (sp.p2p_index(pois), False, False),
        "a2a_p2p": (a2a.p2p_index(pois), False, False),
    }


FAMILY_NAMES = (
    "se",
    "compiled",
    "stored",
    "dynamic",
    "full_apsp",
    "kalgo",
    "sp_p2p",
    "a2a_p2p",
)


class TestConformance:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_satisfies_protocol(self, families, name):
        index, _, _ = families[name]
        assert isinstance(index, DistanceIndex)
        assert ensure_index(index) is index

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_capability_flags(self, families, name):
        index, updates, compiled = families[name]
        assert index.supports_updates is updates
        # Touch the batch path first: lazily compiling families report
        # is_compiled only once their tables exist.
        # Two base-base rows, so lazily compiling families (SE, the
        # dynamic overlay) actually materialise their tables; the
        # dynamic overlay answers a one-row batch by the scalar walk.
        ids = self._ids(index)
        index.query_batch(ids[:2], ids[1:3])
        assert index.is_compiled is compiled

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_batch_matches_scalar(self, families, name):
        index, _, _ = families[name]
        ids = self._ids(index)
        sources, targets = pair_arrays(
            [(int(a), int(b)) for a in ids[:4] for b in ids]
        )
        batched = index.query_batch(sources, targets)
        assert batched.dtype == np.float64
        for position in range(sources.size):
            assert batched[position] == index.query(
                int(sources[position]), int(targets[position])
            )

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_matrix_matches_batch(self, families, name):
        index, _, _ = families[name]
        ids = self._ids(index)[:5]
        matrix = index.query_matrix(ids)
        assert matrix.shape == (ids.size, ids.size)
        batched = index.query_batch(
            np.repeat(ids, ids.size), np.tile(ids, ids.size)
        )
        assert (matrix.reshape(-1) == batched).all()

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_num_pois_positive(self, families, name):
        index, _, _ = families[name]
        assert index.num_pois > 0

    @staticmethod
    def _ids(index) -> np.ndarray:
        if index.supports_updates:
            return index.live_ids()
        return np.arange(index.num_pois, dtype=np.intp)


class TestEnsureIndex:
    def test_rejects_plain_objects(self):
        class ScalarOnly:
            def query(self, source, target):
                return 0.0

        with pytest.raises(TypeError, match="does not satisfy"):
            ensure_index(ScalarOnly())

    def test_adapter_requires_query_p2p(self):
        with pytest.raises(TypeError, match="query_p2p"):
            P2PIndexAdapter(object(), [])

    def test_adapter_rejects_misaligned_batches(self, families):
        index, _, _ = families["sp_p2p"]
        with pytest.raises(ValueError):
            index.query_batch([0, 1], [0])


class TestCrossFamilyAgreement:
    """Families sharing tables answer identically through the protocol."""

    def test_se_compiled_stored_identical(self, families):
        se, _, _ = families["se"]
        compiled, _, _ = families["compiled"]
        stored, _, _ = families["stored"]
        n = se.num_pois
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        reference = se.query_batch(sources, targets)
        assert (compiled.query_batch(sources, targets) == reference).all()
        assert (stored.query_batch(sources, targets) == reference).all()

    def test_dynamic_base_rows_match_se(self, families):
        """Base-base pairs of the dynamic overlay are served by the
        same compiled tables as the static oracle."""
        se, _, _ = families["se"]
        dynamic, _, _ = families["dynamic"]
        n = se.num_pois
        grid = np.arange(n, dtype=np.intp)
        sources = np.repeat(grid, n)
        targets = np.tile(grid, n)
        assert (
            dynamic.query_batch(sources, targets)
            == se.query_batch(sources, targets)
        ).all()
