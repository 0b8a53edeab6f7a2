"""Tests for the experiment layer: datasets, harness, figures, tables."""

import sys
import time
import types

import pytest

from repro.experiments import (
    DATASET_NAMES,
    P2P_METHODS,
    MethodResult,
    format_result_row,
    format_series_table,
    generate_a2a_pairs,
    generate_query_pairs,
    load_dataset,
    run_a2a_experiment,
    run_p2p_experiment,
    table2_dataset_statistics,
    table3_query_distances,
)


class TestDatasets:
    def test_all_names_load_tiny(self):
        for name in DATASET_NAMES:
            dataset = load_dataset(name, "tiny")
            assert dataset.num_vertices > 0
            assert dataset.num_pois > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            load_dataset("mars", "tiny")

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            load_dataset("sf", "galactic")

    def test_deterministic(self):
        a = load_dataset("bearhead", "tiny")
        b = load_dataset("bearhead", "tiny")
        assert a.num_vertices == b.num_vertices
        assert (a.pois.positions == b.pois.positions).all()

    def test_bench_larger_than_tiny(self):
        tiny = load_dataset("sf", "tiny")
        bench = load_dataset("sf", "bench")
        assert bench.num_vertices > tiny.num_vertices
        assert bench.num_pois > tiny.num_pois

    def test_extent_matches_table2(self):
        dataset = load_dataset("bearhead", "tiny")
        width, depth = dataset.mesh.xy_extent()
        assert width == pytest.approx(14_000.0)
        assert depth == pytest.approx(10_000.0)


class TestWorkloads:
    def test_query_pairs_shape(self):
        pairs = generate_query_pairs(10, count=25, seed=1)
        assert len(pairs) == 25
        assert all(s != t and 0 <= s < 10 and 0 <= t < 10
                   for s, t in pairs)

    def test_query_pairs_need_two_pois(self):
        with pytest.raises(ValueError):
            generate_query_pairs(1)

    def test_query_pairs_deterministic(self):
        assert generate_query_pairs(20, seed=4) \
            == generate_query_pairs(20, seed=4)

    def test_a2a_pairs_inside_terrain(self):
        dataset = load_dataset("sf-small", "tiny")
        pairs = generate_a2a_pairs(dataset.mesh, count=10, seed=2)
        assert len(pairs) == 10
        for (ax, ay), (bx, by) in pairs:
            assert dataset.mesh.locate_face(ax, ay) >= 0
            assert dataset.mesh.locate_face(bx, by) >= 0


class TestP2PHarness:
    @pytest.fixture(scope="class")
    def results(self):
        dataset = load_dataset("sf-small", "tiny")
        return run_p2p_experiment(
            dataset.mesh, dataset.pois, epsilon=0.25,
            methods=["SE(Random)", "SE(Greedy)", "SE-Naive",
                     "SP-Oracle", "K-Algo"],
            num_queries=20, seed=5)

    def test_all_methods_reported(self, results):
        assert [r.method for r in results] == [
            "SE(Random)", "SE(Greedy)", "SE-Naive", "SP-Oracle", "K-Algo"]

    def test_se_error_within_epsilon(self, results):
        for result in results:
            if result.method.startswith("SE"):
                assert result.errors.max <= 0.25 * (1 + 1e-6)

    def test_kalgo_is_exact_on_reference_metric(self, results):
        kalgo = next(r for r in results if r.method == "K-Algo")
        # K-Algo searches a denser graph than the reference (eps-derived
        # density), so its answers can only be <= the reference's.
        assert kalgo.errors.mean <= 0.15

    def test_kalgo_has_no_index(self, results):
        kalgo = next(r for r in results if r.method == "K-Algo")
        assert kalgo.size_bytes == 0

    def test_sp_oracle_bigger_than_se(self, results):
        sp = next(r for r in results if r.method == "SP-Oracle")
        se = next(r for r in results if r.method == "SE(Random)")
        assert sp.size_bytes > se.size_bytes

    def test_se_query_faster_than_kalgo(self, results):
        se = next(r for r in results if r.method == "SE(Random)")
        kalgo = next(r for r in results if r.method == "K-Algo")
        assert se.query_seconds_mean < kalgo.query_seconds_mean

    def test_unknown_method_rejected(self):
        dataset = load_dataset("sf-small", "tiny")
        with pytest.raises(KeyError):
            run_p2p_experiment(dataset.mesh, dataset.pois, 0.25,
                               ["Sorcery"], num_queries=5)

    def test_extra_fields(self, results):
        se = next(r for r in results if r.method == "SE(Random)")
        assert se.extra["height"] >= 1
        assert se.extra["pairs"] > 0

    def test_serving_load_cost_reported(self, results):
        """SE methods report the pack -> open (binary store) costs."""
        se = next(r for r in results if r.method == "SE(Random)")
        assert se.extra["pack_seconds"] > 0
        assert se.extra["load_seconds"] > 0
        assert se.extra["store_bytes"] > 0
        # Opening the packed store must be far cheaper than building.
        assert se.extra["load_seconds"] < se.build_seconds


class TestBuildClocks:
    @pytest.mark.parametrize("method", sorted(P2P_METHODS))
    def test_no_build_clock_starts_before_scipy_loads(self, method,
                                                      monkeypatch):
        """A process's first build must not time SciPy's import: with
        the loader reset as in a fresh process, every clock the
        method's factory reads finds the search stack loaded."""
        from repro.experiments import harness
        dataset = load_dataset("sf-small", "tiny")
        kernel = sys.modules["repro.geodesic.dijkstra"]
        monkeypatch.setattr(kernel, "_scipy_dijkstra", kernel._UNLOADED)
        unloaded = []

        def clock():
            unloaded.append(kernel._scipy_dijkstra is kernel._UNLOADED)
            return time.perf_counter()

        monkeypatch.setattr(harness, "time",
                            types.SimpleNamespace(perf_counter=clock))
        P2P_METHODS[method](dataset.mesh, dataset.pois, 0.25, 1, 5)
        assert unloaded and not any(unloaded)


class TestA2AHarness:
    def test_a2a_experiment_runs(self):
        dataset = load_dataset("sf-small", "tiny")
        results = run_a2a_experiment(dataset.mesh, epsilon=0.25,
                                     num_queries=5, seed=6)
        assert [r.method for r in results] == ["SE", "SP-Oracle", "K-Algo"]
        kalgo = results[-1]
        # K-Algo computes on the reference metric graph directly.
        assert kalgo.errors.mean <= 0.2
        for result in results[:2]:
            assert result.size_bytes > 0


class TestReporting:
    def _fake_result(self, method, build=1.0):
        from repro.analysis import ErrorStats
        return MethodResult(
            method=method, build_seconds=build, size_bytes=1 << 20,
            query_seconds_mean=0.001,
            errors=ErrorStats(count=5, mean=0.01, max=0.02, p50=0.01,
                              p95=0.02))

    def test_format_result_row(self):
        row = format_result_row(self._fake_result("SE(Random)"))
        assert "SE(Random)" in row
        assert "1.0000MB" in row

    def test_format_series_table_panels(self):
        series = {
            "0.1": [self._fake_result("SE"), self._fake_result("K-Algo")],
            "0.2": [self._fake_result("SE"), self._fake_result("K-Algo")],
        }
        text = format_series_table("Figure X", "eps", series)
        assert "(a) Building time" in text
        assert "(b) Oracle size" in text
        assert "(c) Query time" in text
        assert "(d) Error" in text
        assert "0.1" in text and "0.2" in text

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            format_series_table("t", "x", {})


class TestTables:
    def test_table2(self, capsys):
        rows = table2_dataset_statistics("tiny", render=True)
        assert len(rows) == len(DATASET_NAMES)
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "bearhead" in out

    def test_table3(self, capsys):
        rows = table3_query_distances("tiny", names=("sf-small",),
                                      num_queries=10, render=True)
        assert len(rows) == 1
        row = rows[0]
        assert row["min_km"] <= row["avg_km"] <= row["max_km"]
        assert "Table 3" in capsys.readouterr().out
