"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def terrain_file(tmp_path):
    path = tmp_path / "t.off"
    code = main(["generate", "--exponent", "3", "--extent", "100", "100",
                 "--relief", "20", "--seed", "5", "--out", str(path)])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x.off"])
        assert args.exponent == 5
        assert args.out == "x.off"


class TestGenerate:
    def test_creates_file(self, terrain_file, capsys):
        assert terrain_file.exists()
        from repro.terrain import read_mesh
        mesh = read_mesh(terrain_file)
        assert mesh.num_vertices == 81

    def test_obj_output(self, tmp_path):
        path = tmp_path / "t.obj"
        assert main(["generate", "--exponent", "2", "--out",
                     str(path)]) == 0
        assert path.exists()


class TestStats:
    def test_prints_summary(self, terrain_file, capsys):
        assert main(["stats", str(terrain_file)]) == 0
        out = capsys.readouterr().out
        assert "81 vertices" in out
        assert "valid=True" in out


class TestBuildAndQuery:
    def test_build_then_query(self, terrain_file, tmp_path, capsys):
        oracle_path = tmp_path / "oracle.json"
        code = main(["build", str(terrain_file), "--pois", "10",
                     "--epsilon", "0.2", "--out", str(oracle_path)])
        assert code == 0
        assert oracle_path.exists()
        out = capsys.readouterr().out
        assert "n=10" in out

        code = main(["query", str(terrain_file), str(oracle_path),
                     "0", "7", "--pois", "10", "--exact"])
        assert code == 0
        out = capsys.readouterr().out
        assert "d(0, 7)" in out
        assert "error" in out

    def test_query_with_wrong_poi_count_fails(self, terrain_file, tmp_path):
        oracle_path = tmp_path / "oracle.json"
        main(["build", str(terrain_file), "--pois", "10",
              "--epsilon", "0.2", "--out", str(oracle_path)])
        # Different POI workload -> fingerprint mismatch.
        with pytest.raises(ValueError):
            main(["query", str(terrain_file), str(oracle_path),
                  "0", "1", "--pois", "12"])

    def test_positionals_after_options(self, terrain_file, tmp_path,
                                       capsys):
        """Ids may trail (or straddle) options, as the docs show."""
        oracle_path = tmp_path / "oracle.json"
        main(["build", str(terrain_file), "--pois", "10",
              "--epsilon", "0.2", "--out", str(oracle_path)])
        capsys.readouterr()
        for argv in (
            ["query", str(terrain_file), str(oracle_path),
             "--pois", "10", "0", "7"],
            ["query", str(terrain_file), str(oracle_path),
             "0", "--pois", "10", "7"],
        ):
            assert main(argv) == 0
            assert "d(0, 7)" in capsys.readouterr().out

    def test_query_batch_verb(self, terrain_file, tmp_path, capsys):
        oracle_path = tmp_path / "oracle.json"
        main(["build", str(terrain_file), "--pois", "10",
              "--epsilon", "0.2", "--out", str(oracle_path)])
        capsys.readouterr()
        code = main(["query", str(terrain_file), str(oracle_path),
                     "--pois", "10", "--batch", "0:7", "2:5",
                     "--random", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "d(0, 7)" in out and "d(2, 5)" in out
        assert "q/s" in out

    def test_query_without_ids_or_batch_fails(self, terrain_file,
                                              tmp_path):
        oracle_path = tmp_path / "oracle.json"
        main(["build", str(terrain_file), "--pois", "10",
              "--epsilon", "0.2", "--out", str(oracle_path)])
        assert main(["query", str(terrain_file), str(oracle_path),
                     "--pois", "10"]) == 2

    def test_greedy_strategy(self, terrain_file, tmp_path):
        oracle_path = tmp_path / "g.json"
        assert main(["build", str(terrain_file), "--pois", "8",
                     "--strategy", "greedy", "--out",
                     str(oracle_path)]) == 0

    def test_parallel_build_jobs(self, terrain_file, tmp_path, capsys):
        """--jobs 2 builds the same oracle file a serial build writes."""
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["build", str(terrain_file), "--pois", "10",
                     "--epsilon", "0.25", "--out", str(serial_path)]) == 0
        assert main(["build", str(terrain_file), "--pois", "10",
                     "--epsilon", "0.25", "--jobs", "2",
                     "--out", str(parallel_path)]) == 0
        out = capsys.readouterr().out
        assert "multiprocess x2" in out
        import json
        serial = json.loads(serial_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        assert serial["pairs"] == parallel["pairs"]
        assert serial["tree"] == parallel["tree"]
        assert parallel["build"] == {"executor": "multiprocess", "jobs": 2}


class TestPackAndStore:
    @pytest.fixture()
    def oracle_files(self, terrain_file, tmp_path, capsys):
        json_path = tmp_path / "oracle.json"
        store_path = tmp_path / "oracle.store"
        assert main(["build", str(terrain_file), "--pois", "10",
                     "--epsilon", "0.2", "--out", str(json_path)]) == 0
        assert main(["pack", str(json_path), "--out",
                     str(store_path)]) == 0
        capsys.readouterr()
        return json_path, store_path

    def test_pack_prints_sizes_and_open_time(self, terrain_file,
                                             tmp_path, capsys):
        json_path = tmp_path / "oracle.json"
        main(["build", str(terrain_file), "--pois", "10",
              "--epsilon", "0.2", "--out", str(json_path)])
        capsys.readouterr()
        store_path = tmp_path / "oracle.store"
        assert main(["pack", str(json_path), "--out",
                     str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "v4" in out and "open:" in out
        assert store_path.exists()

    def test_query_store_scalar(self, terrain_file, oracle_files,
                                capsys):
        _, store_path = oracle_files
        assert main(["query", str(terrain_file), str(store_path),
                     "0", "7", "--pois", "10", "--store",
                     "--exact"]) == 0
        out = capsys.readouterr().out
        assert "opened" in out and "d(0, 7)" in out and "error" in out

    def test_query_store_batch(self, terrain_file, oracle_files,
                               capsys):
        _, store_path = oracle_files
        assert main(["query", str(terrain_file), str(store_path),
                     "--pois", "10", "--store", "--batch", "0:7",
                     "--random", "25"]) == 0
        out = capsys.readouterr().out
        assert "d(0, 7)" in out and "q/s" in out

    def test_store_answers_match_json(self, terrain_file, oracle_files,
                                      capsys):
        json_path, store_path = oracle_files
        main(["query", str(terrain_file), str(json_path),
              "0", "7", "--pois", "10"])
        json_out = capsys.readouterr().out
        main(["query", str(terrain_file), str(store_path),
              "0", "7", "--pois", "10", "--store"])
        store_out = capsys.readouterr().out
        json_line = [line for line in json_out.splitlines()
                     if line.startswith("d(0, 7)")][0]
        store_line = [line for line in store_out.splitlines()
                      if line.startswith("d(0, 7)")][0]
        assert json_line.split("=")[1].split("[")[0].strip() \
            == store_line.split("=")[1].split("[")[0].strip()

    def test_query_store_wrong_workload_fails(self, terrain_file,
                                              oracle_files):
        _, store_path = oracle_files
        with pytest.raises(ValueError):
            main(["query", str(terrain_file), str(store_path),
                  "0", "1", "--pois", "12", "--store"])

    def test_build_direct_to_store(self, terrain_file, tmp_path,
                                   capsys):
        """build --out x.store writes the binary store directly."""
        store_path = tmp_path / "direct.store"
        assert main(["build", str(terrain_file), "--pois", "8",
                     "--epsilon", "0.25", "--out",
                     str(store_path)]) == 0
        capsys.readouterr()
        assert main(["query", str(terrain_file), str(store_path),
                     "0", "3", "--pois", "8", "--store"]) == 0


class TestServe:
    @pytest.fixture()
    def stores(self, terrain_file, tmp_path, capsys):
        paths = {}
        for name, pois in (("north", 8), ("south", 10)):
            json_path = tmp_path / f"{name}.json"
            store_path = tmp_path / f"{name}.store"
            main(["build", str(terrain_file), "--pois", str(pois),
                  "--epsilon", "0.25", "--out", str(json_path)])
            main(["pack", str(json_path), "--out", str(store_path)])
            paths[name] = store_path
        capsys.readouterr()
        return paths

    def test_malformed_registration(self, capsys):
        assert main(["serve", "no-equals-sign"]) == 2

    def test_missing_store_file(self, capsys):
        assert main(["serve", "alps=/nonexistent/alps.store"]) == 2
        assert "cannot register alps" in capsys.readouterr().err

    def test_non_store_file_registration(self, terrain_file, tmp_path,
                                         capsys):
        json_path = tmp_path / "oracle.json"
        main(["build", str(terrain_file), "--pois", "8",
              "--epsilon", "0.25", "--out", str(json_path)])
        capsys.readouterr()
        assert main(["serve", f"alps={json_path}"]) == 2
        assert "cannot register alps" in capsys.readouterr().err

    def test_registration_summary(self, stores, capsys):
        argv = ["serve"] + [f"{name}={path}"
                            for name, path in stores.items()]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "registered north" in out and "registered south" in out
        assert "2 terrains registered" in out

    def test_repl_session(self, stores, capsys, monkeypatch):
        import io
        script = "\n".join([
            "query north 0 1",
            "batch south 0:1 2:3",
            "knn north 0 2",
            "range north 0 1e9",
            "rnn south 0",
            "terrains",
            "stats",
            "bogus command",
            "query nowhere 0 1",
            # malformed lines: the wire's validation and error types
            "query north 0",
            "query north 0 x",
            "rnn south -1",
            "range north 0 nan",
            "quit",
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        argv = ["serve", "--repl", "--max-resident", "1"] \
            + [f"{name}={path}" for name, path in stores.items()]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert "bye" in lines[-1]
        assert any("north" in line and "resident" in line
                   for line in lines)
        assert '"evictions"' in captured.out  # stats JSON block
        assert "unknown command" in captured.err
        assert "unknown terrain id" in captured.err
        assert captured.err.splitlines()[-4:] == [
            "error[bad-request]: op 'query' requires field 'target'",
            "error[bad-request]: field 'target' must be a non-negative "
            "integer",
            "error[bad-request]: field 'source' must be a non-negative "
            "integer",
            "error[bad-request]: field 'radius' must be a finite number",
        ]

    def test_repl_survives_vanished_store(self, stores, capsys,
                                          monkeypatch):
        """A store deleted after registration (or after eviction)
        fails that line only; other terrains keep serving."""
        import io
        import os
        script = "\n".join([
            "query south 0 1",   # loads south; bound 1
            "query north 0 1",   # evicts south, loads north
            "query south 0 1",   # south's file is gone -> error line
            "query north 0 2",   # still serving
            "quit",
        ]) + "\n"
        # Make the re-load of south fail: drop its file before start.
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        argv = ["serve", "--repl", "--max-resident", "1",
                f"north={stores['north']}", f"south={stores['south']}"]

        from repro.serving import OracleService
        original = OracleService.oracle

        def flaky(self, terrain_id):
            if terrain_id == "south" \
                    and "south" not in self.resident_terrains() \
                    and self.counters("south").loads >= 1:
                os.unlink(stores["south"])
            return original(self, terrain_id)

        monkeypatch.setattr(OracleService, "oracle", flaky)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "bye" in captured.out
        assert "No such file" in captured.err \
            or "Errno" in captured.err


class TestBench:
    def test_table2(self, capsys):
        assert main(["bench", "table2", "--scale", "tiny"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_fig13_tiny(self, capsys):
        assert main(["bench", "fig13", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out
        assert "Query time" in out


class TestServeMutable:
    @pytest.fixture()
    def mutable_store(self, terrain_file, tmp_path, capsys):
        store_path = tmp_path / "dunes.store"
        main(["build", str(terrain_file), "--pois", "10",
              "--poi-seed", "1", "--epsilon", "0.25",
              "--out", str(store_path)])
        capsys.readouterr()
        return store_path

    def test_malformed_mutable_registration(self, mutable_store, capsys):
        assert main(["serve", f"dunes={mutable_store}",
                     "--mutable", "no-equals"]) == 2
        assert "malformed mutable" in capsys.readouterr().err

    def test_mutable_name_without_store(self, mutable_store,
                                        terrain_file, capsys):
        assert main(["serve", f"dunes={mutable_store}",
                     "--mutable", f"other={terrain_file}",
                     "--pois", "10"]) == 2
        assert "without a NAME=STORE" in capsys.readouterr().err

    def test_mutable_workload_mismatch(self, mutable_store,
                                       terrain_file, capsys):
        """A wrong POI workload fails the fingerprint check loudly."""
        assert main(["serve", f"dunes={mutable_store}",
                     "--mutable", f"dunes={terrain_file}",
                     "--pois", "9"]) == 2
        assert "cannot register dunes" in capsys.readouterr().err

    def test_mutable_repl_lifecycle(self, mutable_store, terrain_file,
                                    capsys, monkeypatch):
        """insert -> query -> knn -> delete -> rnn -> flush -> batch,
        plus update verbs rejected on a static terrain."""
        import io
        script = "\n".join([
            "query dunes 0 5",
            "insert dunes 40 40",
            "query dunes 10 0",      # the fresh external id is 10
            "knn dunes 10 3",
            "delete dunes 3",
            "rnn dunes 0",
            "flush dunes",
            "flush dunes",           # second flush is a no-op
            "batch dunes 0:5 10:0",
            "insert rock 1 1",       # static terrain: rejected per line
            "stats",
            "quit",
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        assert main(["serve", f"dunes={mutable_store}",
                     f"rock={mutable_store}",
                     "--mutable", f"dunes={terrain_file}",
                     "--pois", "10", "--poi-seed", "1", "--repl"]) == 0
        captured = capsys.readouterr()
        assert "registered dunes" in captured.out and "mutable" \
            in captured.out
        assert "inserted 10" in captured.out
        assert "deleted 3" in captured.out
        assert "flushed dunes" in captured.out
        assert '"updates": 2' in captured.out    # stats JSON block
        assert '"flushes": 1' in captured.out
        assert "not mutable" in captured.err


class TestUnknownPoiErrors:
    """Out-of-range POI ids surface as typed errors, not tracebacks."""

    @pytest.fixture()
    def oracle_file(self, terrain_file, tmp_path):
        path = tmp_path / "oracle.json"
        assert main(["build", str(terrain_file), "--pois", "10",
                     "--epsilon", "0.2", "--out", str(path)]) == 0
        return path

    def test_scalar_query_out_of_range(self, terrain_file, oracle_file,
                                       capsys):
        code = main(["query", str(terrain_file), str(oracle_file),
                     "--pois", "10", "3", "99"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[unknown-poi]" in err
        assert "99" in err and "0..9" in err

    def test_batch_query_out_of_range(self, terrain_file, oracle_file,
                                      capsys):
        code = main(["query", str(terrain_file), str(oracle_file),
                     "--pois", "10", "--batch", "1:2", "5:42"])
        assert code == 2
        assert "error[unknown-poi]" in capsys.readouterr().err

    def test_store_query_out_of_range(self, terrain_file, oracle_file,
                                      tmp_path, capsys):
        store = tmp_path / "oracle.store"
        assert main(["pack", str(oracle_file), "--out", str(store)]) == 0
        code = main(["query", str(terrain_file), str(store), "--pois",
                     "10", "--store", "0", "10"])
        assert code == 2
        assert "error[unknown-poi]" in capsys.readouterr().err

    def test_in_range_still_works(self, terrain_file, oracle_file,
                                  capsys):
        assert main(["query", str(terrain_file), str(oracle_file),
                     "--pois", "10", "0", "9"]) == 0
        assert "d(0, 9)" in capsys.readouterr().out


class TestIngest:
    DATA = pathlib.Path(__file__).parent / "data"

    def test_asc_fixture_to_servable_store(self, tmp_path, capsys):
        store = tmp_path / "dem.store"
        code = main(["ingest", str(self.DATA / "dem_fixture.asc"),
                     "--poi-file", str(self.DATA / "dem_pois.csv"),
                     "--out", str(store)])
        assert code == 0
        out = capsys.readouterr().out
        assert "haversine gate" in out
        assert store.exists()
        from repro.serving import OracleService, TerrainSpec
        service = OracleService()
        service.register("real", TerrainSpec(str(store)))
        assert service.query("real", 0, 1) > 0.0

    def test_geotiff_with_sampled_pois(self, tmp_path, capsys):
        store = tmp_path / "dem.store"
        code = main(["ingest", str(self.DATA / "dem_fixture.tif"),
                     "--pois", "5", "--decimate", "2",
                     "--out", str(store)])
        assert code == 0
        assert "haversine gate" in capsys.readouterr().out

    def test_mesh_out(self, tmp_path):
        mesh_path = tmp_path / "dem.off"
        assert main(["ingest", str(self.DATA / "dem_fixture.asc"),
                     "--pois", "4", "--out", str(tmp_path / "d.store"),
                     "--mesh-out", str(mesh_path)]) == 0
        from repro.terrain import read_mesh
        assert read_mesh(mesh_path).num_vertices == 316

    def test_malformed_dem_is_typed_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.asc"
        bad.write_text("ncols 4\nnrows 4\n")
        code = main(["ingest", str(bad), "--out",
                     str(tmp_path / "d.store")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_poi_outside_extent_is_typed_error(self, tmp_path, capsys):
        pois = tmp_path / "far.csv"
        pois.write_text("name,lat,lon\nfaraway,47.5,8.9\n")
        code = main(["ingest", str(self.DATA / "dem_fixture.asc"),
                     "--poi-file", str(pois),
                     "--out", str(tmp_path / "d.store")])
        assert code == 2
        assert "outside" in capsys.readouterr().err


class TestWorkloadVerb:
    DATA = pathlib.Path(__file__).parent / "data"

    def test_gen_needs_poi_count(self, tmp_path, capsys):
        code = main(["workload", "gen", "coverage-audit",
                     "--out", str(tmp_path / "w.jsonl")])
        assert code == 2
        assert "--store or --num-pois" in capsys.readouterr().err

    def test_gen_writes_replayable_file(self, tmp_path, capsys):
        out = tmp_path / "agents.jsonl"
        code = main(["workload", "gen", "moving-agents", "--num-pois",
                     "8", "--events", "30", "--seed", "3",
                     "--terrain", "alps", "--out", str(out)])
        assert code == 0
        from repro.serving.workloads import read_workload
        loaded = read_workload(out)
        assert loaded.scenario == "moving-agents"
        assert len(loaded.events) == 30

    def test_gen_and_replay_against_server(self, tmp_path, capsys):
        store = tmp_path / "dem.store"
        assert main(["ingest", str(self.DATA / "dem_fixture.asc"),
                     "--poi-file", str(self.DATA / "dem_pois.csv"),
                     "--out", str(store)]) == 0
        out = tmp_path / "audit.jsonl"
        assert main(["workload", "gen", "coverage-audit", "--store",
                     str(store), "--terrain", "real", "--events", "12",
                     "--out", str(out)]) == 0
        from repro.serving import OracleService, TerrainSpec, \
            ThreadedServer
        service = OracleService()
        service.register("real", TerrainSpec(str(store)))
        with ThreadedServer(service) as server:
            code = main(["workload", "replay", str(out), "--host",
                         server.host, "--port", str(server.port)])
        assert code == 0
        output = capsys.readouterr().out
        assert "replayed 12 events" in output
        assert "rnn: p50=" in output

    def test_replay_missing_file(self, tmp_path, capsys):
        code = main(["workload", "replay", str(tmp_path / "nope.jsonl"),
                     "--port", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_gen_rate_stamps_paced_arrivals(self, tmp_path, capsys):
        out = tmp_path / "paced.jsonl"
        code = main(["workload", "gen", "moving-agents", "--num-pois",
                     "8", "--events", "20", "--seed", "3",
                     "--rate", "500", "--out", str(out)])
        assert code == 0
        from repro.serving.workloads import read_workload
        loaded = read_workload(out)
        arrivals = [event["arrival_s"] for event in loaded.events]
        assert arrivals == sorted(arrivals)
        assert loaded.params["rate"] == 500.0

    def test_pace_without_arrivals_is_refused(self, tmp_path, capsys):
        out = tmp_path / "unpaced.jsonl"
        assert main(["workload", "gen", "moving-agents", "--num-pois",
                     "8", "--events", "5", "--out", str(out)]) == 0
        code = main(["workload", "replay", str(out), "--port", "1",
                     "--pace"])
        assert code == 2
        assert "--rate" in capsys.readouterr().err


class TestAnalyzeVerb:
    DATA = pathlib.Path(__file__).parent / "data"

    def test_mirror_fixture_and_run_views(self, tmp_path, capsys):
        """Mirror the v4 fixture into SQLite; the canned views' row
        counts must agree with the in-memory oracle's tables."""
        store = self.DATA / "oracle_v4.store"
        db = tmp_path / "oracle.db"
        code = main(["analyze", str(store), "--db", str(db),
                     "--view", "pair_count_by_layer",
                     "--view", "poi_coverage",
                     "--sql", "SELECT COUNT(*) FROM pairs"])
        assert code == 0
        output = capsys.readouterr().out
        assert "mirrored" in output
        assert "pair_count_by_layer" in output

        from repro.analysis import run_sql, run_view
        from repro.core import open_oracle
        stored = open_oracle(store)
        _, pair_rows = run_sql(db, "SELECT COUNT(*) FROM pairs")
        assert pair_rows[0][0] == stored.num_pairs
        _, layer_rows = run_view(db, "pair_count_by_layer")
        assert sum(row[1] for row in layer_rows) == stored.num_pairs
        _, coverage = run_view(db, "poi_coverage")
        assert len(coverage) == stored.num_pois
        _, zero_self = run_sql(
            db, "SELECT nonzero_self_distances FROM error_stats")
        assert zero_self[0][0] == 0

    def test_analyze_missing_store(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.store"),
                     "--db", str(tmp_path / "out.db")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_analyze_unknown_view(self, tmp_path, capsys):
        store = self.DATA / "oracle_v4.store"
        code = main(["analyze", str(store),
                     "--db", str(tmp_path / "out.db"),
                     "--view", "not_a_view"])
        assert code == 2
        assert "unknown view" in capsys.readouterr().err

    def test_query_store_paged_prints_ledger(self, terrain_file,
                                             tmp_path, capsys):
        """`query --store --max-resident-bytes` serves through the
        page pool and reports the paging ledger."""
        store = tmp_path / "oracle.store"
        assert main(["build", str(terrain_file), "--pois", "10",
                     "--epsilon", "0.2", "--out", str(store)]) == 0
        capsys.readouterr()
        code = main(["query", str(terrain_file), str(store),
                     "--pois", "10", "--store", "--batch",
                     "--random", "50", "--max-resident-bytes", "4096"])
        assert code == 0
        output = capsys.readouterr().out
        assert "(paged," in output
        assert "paging:" in output
        assert "B budget" in output

    def test_build_order_store_refused_paged(self, terrain_file, capsys):
        """`query`/`serve --max-resident-bytes` refuse a store packed
        before the key-ordered pair run from its meta, before any
        query: exit 2 and the fix on stderr."""
        store = str(self.DATA / "oracle_v4.store")
        code = main(["query", str(terrain_file), store, "--pois", "10",
                     "--store", "--max-resident-bytes", "4096", "0", "1"])
        assert code == 2
        assert "re-pack" in capsys.readouterr().err
        code = main(["serve", f"f={store}", "--max-resident-bytes", "4096"])
        assert code == 2
        assert "cannot register f" in capsys.readouterr().err

    def test_max_resident_bytes_requires_store(self, terrain_file,
                                               tmp_path, capsys):
        code = main(["query", str(terrain_file), "whatever.store",
                     "--max-resident-bytes", "4096", "0", "1"])
        assert code == 2
        assert "--store" in capsys.readouterr().err
