"""Tests of the benchmark's own arithmetic and bookkeeping."""

import json
import os
import types

import numpy as np
import pytest

import measure
import metrics
from spans import SpanTable, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


# -- percentile rule ---------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 0.5) == 50
    assert measure.percentile(samples, 0.9) == 90
    assert measure.percentile(samples, 1.0) == 100
    assert measure.percentile([7.0], 0.99) == 7.0


def test_tail_needs_ten_samples_beyond():
    assert measure.beyond(1000, 0.99) == 10
    assert measure.tail_percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(ValueError, match="only 9 beyond"):
        measure.tail_percentile(list(range(999)), 0.99)
    assert measure.beyond(100, 0.90) == 10
    with pytest.raises(ValueError):
        measure.tail_percentile(list(range(99)), 0.90)


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 0.0)


# -- trial throughput --------------------------------------------------
def test_trial_throughput_is_median_of_trial_rates():
    # Rates 100, 50 and 200 ops/s: the median trial, not ops / total.
    assert measure.trial_throughput([100, 100, 100],
                                    [1.0, 2.0, 0.5]) == 100.0
    assert measure.trial_throughput([10, 30], [1.0, 1.0]) == 20.0
    with pytest.raises(ValueError):
        measure.trial_throughput([1, 2], [1.0])
    with pytest.raises(ValueError):
        measure.trial_throughput([1], [0.0])


# -- scaling to the reference CPU --------------------------------------
def test_speed_factor_scales_to_the_reference_loop_time():
    ref = measure.REFERENCE_NS
    # A CPU that runs the loop in twice the reference time is half as
    # fast: its times are halved.
    assert measure.speed_factor(2 * ref, 2 * ref) == 0.5
    assert measure.speed_factor(ref, 3 * ref) == 0.5
    assert measure.speed_factor(ref / 2, ref / 2) == 2.0
    with pytest.raises(ValueError):
        measure.speed_factor(0, ref)
    assert measure.trial_factors([2 * ref, 2 * ref, ref]) == [
        0.5, pytest.approx(2 / 3)]


def test_samples_take_their_own_trials_factor():
    assert measure.scaled_samples([1.0, 2.0, 3.0, 4.0, 5.0], [2, 5],
                                  [0.5, 2.0]) == [0.5, 1.0, 6.0, 8.0, 10.0]
    with pytest.raises(ValueError):
        measure.scaled_samples([1.0, 2.0], [1], [1.0])
    with pytest.raises(ValueError):
        measure.scaled_samples([1.0, 2.0], [2], [1.0, 1.0])


def test_timings_scale_throughput_and_latency():
    ref = measure.REFERENCE_NS
    # Two trials of 10 ops, 1 s each; the second ran at half speed.
    samples = [0.01 * (i + 1) for i in range(20)]
    scaled, raw, count = measure.timings(
        10, [1.0, 1.0], samples, [10, 20],
        measure.trial_factors([ref, ref, 3 * ref]), 0.5)
    assert count == 20
    assert raw["throughput_ops"] == 10.0
    # Trial rates 10 and 20 ops/s once scaled: their median is 15.
    assert scaled["throughput_ops"] == pytest.approx(15.0)
    assert raw["latency_p50_ms"] == pytest.approx(100.0)
    # The first trial's samples stay, the second's are halved: 0.01 to
    # 0.10 and 0.055 to 0.10; the 10th of 20 is 0.07 s.
    assert scaled["latency_p50_ms"] == pytest.approx(70.0)


# -- nested-span self time --------------------------------------------
#    root [0, 100] > a [10, 40] > grandchild [20, 30];  root > b [50, 60]
STARTS = [0, 10, 20, 50]
ENDS = [100, 40, 30, 60]
PARENTS = [-1, 0, 1, 0]


def test_self_time_subtracts_direct_children_only():
    assert measure.self_times(STARTS, ENDS, PARENTS) == [60, 20, 10, 10]


def _table(layers_of_codes, codes, items=None):
    names = [f"n{i}" for i in range(len(layers_of_codes))]
    count = len(STARTS)
    return SpanTable(
        names=names, layers=layers_of_codes,
        start=np.array(STARTS), end=np.array(ENDS),
        parent=np.array(PARENTS), code=np.array(codes),
        rid=np.full(count, -1),
        items=np.array(items if items is not None else [0] * count))


def test_span_table_self_time_matches_reference():
    table = _table(["bench", "service", "compiled", "proximity"],
                   [0, 1, 2, 3])
    assert table.self_ns.tolist() == measure.self_times(
        STARTS, ENDS, PARENTS)
    assert table.root.tolist() == [0, 0, 0, 0]
    assert table.self_us(table.layer("service")) == pytest.approx(0.02)


def test_probes_inside_tiled_or_paged_belong_to_that_layer():
    # a = tiled probe, grandchild = compiled probe inside it.
    table = _table(["bench", "tiled", "compiled", "service"], [0, 1, 2, 3],
                   items=[0, 7, 3, 0])
    owners = [table.layer_names[code] for code in table.owner]
    assert owners == ["bench", "tiled", "tiled", "service"]
    assert not table.layer("compiled").any()
    # Distances are counted once, at the outermost tiled span.
    assert table.items[table.top_of(("tiled",))].sum() == 7


def test_hash_lookups_belong_to_the_probe_that_issues_them():
    table = _table(["bench", "compiled", "hash", "service"], [0, 1, 2, 3])
    owners = [table.layer_names[code] for code in table.owner]
    assert owners == ["bench", "compiled", "compiled", "service"]


# -- FIFO batcher wait -------------------------------------------------
def test_fifo_waits_match_queries_to_batches_in_order():
    # Queries ready at 0, 1, 2, 5; a batch of 3 starts at 3, then a
    # batch of 1 at 6.
    assert measure.fifo_waits([0, 1, 2, 5], [3, 6], [3, 1]) == [3, 2, 1, 1]
    # A batch larger than the queries left stops at the last query.
    assert measure.fifo_waits([0, 1], [4], [5]) == [4, 3]
    assert measure.fifo_waits([], [1], [1]) == []


def test_quartile_spread():
    assert measure.quartile_spread([10, 10, 10, 10]) == 0.0
    assert measure.quartile_spread([8, 9, 10, 11, 12]) == pytest.approx(
        0.3)


# -- tracer ------------------------------------------------------------
def test_tracer_records_nesting_and_restores_originals():
    class Base:
        def inherited(self, values):
            return len(values)

    class Probe(Base):
        def outer(self, values):
            return self.inherited(values) + module.helper()

    module = types.SimpleNamespace(helper=lambda: 1)
    original_outer, original_helper = Probe.outer, module.helper
    tracer = Tracer()
    tracer.wrap(Probe, "outer", "probe.outer", "probe",
                count=lambda args, kwargs, result: len(args[1]))
    tracer.wrap(Probe, "inherited", "probe.inner", "probe")
    tracer.wrap(module, "helper", "helper", "helper")
    with tracer.span("phase"):
        assert Probe().outer([1, 2, 3]) == 4
    tracer.uninstall()
    assert Probe.outer is original_outer and module.helper is original_helper
    assert "inherited" not in Probe.__dict__

    table = tracer.table()
    assert [table.names[c] for c in table.code] == [
        "phase", "probe.outer", "probe.inner", "helper"]
    assert table.parent.tolist() == [-1, 0, 1, 1]
    assert table.items.tolist() == [0, 3, 0, 0]
    assert (table.self_ns >= 0).all()
    assert table.self_ns.sum() == table.duration[0]


def test_tracer_closes_spans_when_the_call_raises():
    module = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer = Tracer()
    tracer.wrap(module, "fail", "fail", "x")
    with pytest.raises(ZeroDivisionError):
        module.fail()
    with tracer.span("after"):
        pass
    table = tracer.table()
    assert table.parent.tolist() == [-1, -1]
    assert (table.end >= table.start).all()


# -- windowed load loop ------------------------------------------------
def test_windowed_loop_sends_whole_windows_and_times_trials():
    import socket
    import threading

    import client

    generator, server = socket.socketpair()
    received = []

    def echo():
        with server.makefile("rb") as reader:
            for line in reader:
                received.append(line)
                server.sendall(line)

    thread = threading.Thread(target=echo)
    thread.start()
    lines = [b"a\n", b"b\n", b"c\n"]
    try:
        # No time budget: the loop stops after the minimum trials.
        loop = client.windowed(generator, lines, 4, 0.0, 8, min_trials=2)
        with pytest.raises(ValueError, match="whole number"):
            client.windowed(generator, lines, 4, 0.0, 6)
    finally:
        generator.close()
        thread.join()
        server.close()
    assert loop.sent == 16 and len(loop.trials_s) == 2
    # Requests cycle through the pool and each reply answers one.
    assert received == [lines[i % 3] for i in range(16)]
    assert loop.reply_lines() == [line.rstrip() for line in received]
    # Every request of a window leaves together; the next window only
    # after the last reply of this one.
    assert len(set(loop.send_ns[:4])) == 1
    assert loop.send_ns[4] >= loop.recv_ns[3]
    assert loop.turnarounds == 3
    # The reference work runs before the first trial and after each.
    assert len(loop.refs_ns) == 3 and min(loop.refs_ns) > 0


# -- registry vs BENCHMARK.json ---------------------------------------
def test_benchmark_json_lists_the_registry():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in metrics.END_TO_END.items()}
    assert {m["name"]: m["better"] for m in spec["end_to_end"]} == {
        name: better for name, (_, better) in metrics.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_report_refuses_a_missing_metric():
    values = {name: 1.0 for name in metrics.END_TO_END}
    assert set(metrics.report(values, trace=False)) == set(
        metrics.END_TO_END)
    del values["setup_s"]
    with pytest.raises(KeyError):
        metrics.report(values, trace=False)
