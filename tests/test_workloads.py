"""Tests for scenario workloads (serving/workloads.py) + replay."""

import json

import pytest

from repro.core import SEOracle, pack_oracle
from repro.geodesic import GeodesicEngine
from repro.serving import OracleService, TerrainSpec, ThreadedServer
from repro.serving.loadgen import replay_direct, replay_workload
from repro.serving.workloads import (
    SCENARIOS,
    WORKLOAD_VERSION,
    WorkloadError,
    check_events,
    dumps_workload,
    generate_workload,
    loads_workload,
    read_workload,
    write_workload,
)
from repro.terrain import make_terrain, sample_uniform

NUM_POIS = 10


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                        relief=15.0, seed=7)
    pois = sample_uniform(mesh, NUM_POIS, seed=8)
    engine = GeodesicEngine(mesh, pois, points_per_edge=1)
    oracle = SEOracle(engine, 0.3, seed=7).build()
    path = tmp_path_factory.mktemp("workloads") / "alps.store"
    pack_oracle(oracle, path)
    return path


@pytest.fixture(scope="module")
def served(store_path):
    service = OracleService(max_resident=2)
    service.register("alps", TerrainSpec(str(store_path)))
    with ThreadedServer(service, max_batch=16) as server:
        yield service, server


class TestGeneration:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_byte_identical_regeneration(self, scenario):
        first = dumps_workload(generate_workload(
            scenario, "alps", NUM_POIS, 50, seed=13, radius=20.0))
        second = dumps_workload(generate_workload(
            scenario, "alps", NUM_POIS, 50, seed=13, radius=20.0))
        assert first.encode() == second.encode()

    def test_different_seeds_differ(self):
        one = dumps_workload(generate_workload(
            "moving-agents", "alps", NUM_POIS, 50, seed=1))
        two = dumps_workload(generate_workload(
            "moving-agents", "alps", NUM_POIS, 50, seed=2))
        assert one != two

    def test_header_pins_provenance(self):
        workload = generate_workload(
            "range-alerts", "alps", NUM_POIS, 25, seed=3, radius=12.5)
        header = workload.header
        assert header["format"] == "repro-workload"
        assert header["version"] == WORKLOAD_VERSION
        assert header["scenario"] == "range-alerts"
        assert header["seed"] == 3
        assert header["events"] == 25
        assert header["params"]["radius"] == 12.5

    def test_events_address_valid_pois(self):
        for scenario in SCENARIOS:
            workload = generate_workload(
                scenario, "alps", NUM_POIS, 200, seed=5, radius=10.0)
            check_events(workload.events, NUM_POIS)

    def test_moving_agents_are_local(self):
        workload = generate_workload(
            "moving-agents", "alps", 100, 400, seed=5, agents=1,
            respawn=0.0)
        sources = [event["source"] for event in workload.events]
        steps = [abs(b - a) for a, b in zip(sources, sources[1:])]
        # One agent, no respawns: every move is a +-2 neighbourhood
        # drift (modulo the wrap-around at the ends of the id space).
        assert all(step <= 2 or step >= 98 for step in steps)

    def test_unknown_scenario(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            generate_workload("teleport", "alps", NUM_POIS, 10)

    def test_bad_parameters(self):
        with pytest.raises(WorkloadError, match="at least 2 POIs"):
            generate_workload("moving-agents", "alps", 1, 10)
        with pytest.raises(WorkloadError, match="at least 1 event"):
            generate_workload("moving-agents", "alps", NUM_POIS, 0)
        with pytest.raises(WorkloadError, match="positive radius"):
            generate_workload("range-alerts", "alps", NUM_POIS, 10,
                              radius=0.0)


class TestPoissonArrivals:
    """The version-2 open-loop arrival-time field (PR-10 satellite)."""

    def test_rate_never_perturbs_event_draws(self):
        plain = generate_workload(
            "moving-agents", "alps", NUM_POIS, 80, seed=13)
        paced = generate_workload(
            "moving-agents", "alps", NUM_POIS, 80, seed=13, rate=250.0)
        stripped = [{key: value for key, value in event.items()
                     if key != "arrival_s"} for event in paced.events]
        assert stripped == plain.events
        assert paced.params["rate"] == 250.0

    def test_arrivals_are_monotone_and_byte_stable(self):
        one = generate_workload(
            "coverage-audit", "alps", NUM_POIS, 60, seed=9, rate=100.0)
        two = generate_workload(
            "coverage-audit", "alps", NUM_POIS, 60, seed=9, rate=100.0)
        assert dumps_workload(one).encode() == dumps_workload(two).encode()
        arrivals = [event["arrival_s"] for event in one.events]
        assert arrivals == sorted(arrivals)
        assert all(value >= 0 for value in arrivals)
        check_events(one.events, NUM_POIS)

    def test_version_one_files_still_load(self):
        plain = generate_workload(
            "coverage-audit", "alps", NUM_POIS, 10, seed=4)
        lines = dumps_workload(plain).splitlines()
        header = json.loads(lines[0])
        header["version"] = 1
        lines[0] = json.dumps(header, sort_keys=True,
                              separators=(",", ":"))
        loaded = loads_workload("\n".join(lines))
        assert loaded.events == plain.events

    def test_bad_rate_and_bad_arrivals_rejected(self):
        with pytest.raises(WorkloadError, match="rate"):
            generate_workload("coverage-audit", "alps", NUM_POIS, 10,
                              rate=0.0)
        with pytest.raises(WorkloadError, match="arrival_s"):
            loads_workload(
                '{"events":1,"format":"repro-workload","num_pois":5,'
                '"params":{},"scenario":"coverage-audit","seed":0,'
                '"terrain":"alps","version":2}\n'
                '{"arrival_s":-1.0,"op":"rnn","source":1}\n')
        with pytest.raises(WorkloadError, match="backwards"):
            check_events(
                [{"op": "rnn", "source": 1, "arrival_s": 2.0},
                 {"op": "rnn", "source": 2, "arrival_s": 1.0}],
                NUM_POIS)

    def test_paced_replay_matches_unpaced_answers(self, served):
        """Pacing changes when requests leave, never what they answer:
        the paced reply stream is byte-identical to the unpaced one."""
        _, server = served
        workload = generate_workload(
            "moving-agents", "alps", NUM_POIS, 40, seed=17,
            rate=5000.0)
        paced = replay_workload(server.host, server.port, "alps",
                                workload.events, pace=True)
        unpaced = replay_workload(server.host, server.port, "alps",
                                  workload.events)
        assert paced.errors == 0
        assert paced.response_bytes == unpaced.response_bytes


class TestSerialisation:
    def test_round_trip(self, tmp_path):
        workload = generate_workload(
            "coverage-audit", "alps", NUM_POIS, 30, seed=4)
        path = tmp_path / "audit.jsonl"
        write_workload(workload, path)
        loaded = read_workload(path)
        assert loaded == workload
        assert dumps_workload(loaded) == dumps_workload(workload)

    def test_version_rejected(self):
        workload = generate_workload(
            "coverage-audit", "alps", NUM_POIS, 5, seed=4)
        text = dumps_workload(workload)
        lines = text.splitlines()
        header = json.loads(lines[0])
        header["version"] = WORKLOAD_VERSION + 1
        lines[0] = json.dumps(header)
        with pytest.raises(WorkloadError, match="version"):
            loads_workload("\n".join(lines))

    def test_missing_format_marker(self):
        with pytest.raises(WorkloadError, match="format marker"):
            loads_workload('{"op":"rnn","source":1}\n')

    def test_empty_file(self):
        with pytest.raises(WorkloadError, match="empty"):
            loads_workload("")

    def test_unknown_op_rejected(self):
        workload = generate_workload(
            "coverage-audit", "alps", NUM_POIS, 2, seed=4)
        text = dumps_workload(workload).replace('"op":"rnn"',
                                                '"op":"teleport"', 1)
        with pytest.raises(WorkloadError, match="unknown op"):
            loads_workload(text)

    def test_missing_field_rejected(self):
        workload = generate_workload(
            "moving-agents", "alps", NUM_POIS, 2, seed=4)
        lines = dumps_workload(workload).splitlines()
        lines[1] = lines[1].replace('"k":3,', "", 1)
        with pytest.raises(WorkloadError, match="missing field"):
            loads_workload("\n".join(lines))

    def test_truncated_file_rejected(self):
        workload = generate_workload(
            "coverage-audit", "alps", NUM_POIS, 5, seed=4)
        lines = dumps_workload(workload).splitlines()
        with pytest.raises(WorkloadError, match="truncated"):
            loads_workload("\n".join(lines[:-2]))

    def test_check_events_bounds(self):
        with pytest.raises(WorkloadError, match="outside"):
            check_events([{"op": "rnn", "source": NUM_POIS}], NUM_POIS)
        check_events([{"op": "rnn", "source": NUM_POIS}], None)  # unknown n


class TestReplay:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_replay_twice_is_byte_identical(self, served, scenario):
        _, server = served
        workload = generate_workload(
            scenario, "alps", NUM_POIS, 60, seed=11, radius=30.0)
        first = replay_workload(server.host, server.port, "alps",
                                workload.events)
        second = replay_workload(server.host, server.port, "alps",
                                 workload.events)
        assert first.errors == 0
        assert first.response_bytes == second.response_bytes

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_wire_matches_direct(self, served, scenario):
        service, server = served
        workload = generate_workload(
            scenario, "alps", NUM_POIS, 60, seed=12, radius=30.0)
        wire = replay_workload(server.host, server.port, "alps",
                               workload.events)
        assert wire.results == replay_direct(service, "alps",
                                             workload.events)

    def test_replay_reports_per_op_latency(self, served):
        _, server = served
        events = [{"op": "knn", "source": 0, "k": 2},
                  {"op": "rnn", "source": 1},
                  {"op": "query", "source": 0, "target": 1}]
        report = replay_workload(server.host, server.port, "alps", events)
        assert set(report.op_latency_ms) == {"knn", "rnn", "query"}
        assert report.requests == 3
        assert report.qps > 0

    def test_error_events_align(self, served):
        service, server = served
        events = [{"op": "query", "source": 0, "target": 1},
                  {"op": "query", "source": 0, "target": NUM_POIS + 5},
                  {"op": "rnn", "source": 2}]
        wire = replay_workload(server.host, server.port, "alps", events)
        direct = replay_direct(service, "alps", events)
        assert wire.errors == 1
        assert wire.results[1] is None and direct[1] is None
        assert wire.results == direct
        # Shapes the wire refuses with bad-request: the direct reference
        # validates the same requests, so it refuses them too.
        malformed = [{"op": "rnn", "source": -1},
                     {"op": "knn", "source": 0, "k": True},
                     {"op": "query", "source": 0, "target": 1.0},
                     {"op": "range", "source": 0, "radius": "5"}]
        wire = replay_workload(server.host, server.port, "alps", malformed)
        assert wire.errors == len(malformed)
        assert wire.results == replay_direct(service, "alps", malformed)
