"""Tests for the continuous sim-time metrics pipeline (repro.obs.metrics).

Covers the acceptance criteria of the metrics PR: metrics disabled is
bit-identical to the seed (pinned cycles and counters), metrics enabled
never perturbs timing (same pins), per-interval integration reproduces
``LaunchResult.gbps`` bit for bit, time series rings keep the newest
window, latency digests bound quantile error, the SLO engine fires and
resolves sustained-threshold alerts into the tracer, exporters
round-trip through the JSONL validator and the CLI, and a chaos
coordinator-kill cluster run produces the full health story: counter
tracks in a valid merged trace, a utilization dip with recovery, a
fired alert, and annotated chaos/election events in the report.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.streaming import stream_columns
from repro.cluster import Cluster, cluster_filter_count
from repro.core import DPU
from repro.faults import ChaosSpec, FaultPlan
from repro.obs import (
    NULL_HUB,
    LatencyDigest,
    MetricsHub,
    SloRule,
    TimeSeries,
    Tracer,
    validate_chrome_trace,
    validate_metrics_jsonl,
)
from repro.obs.metrics import is_gauge_path
from repro.obs.metrics import main as metrics_main

PINNED_CYCLES = 2896.0
PINNED_COUNTERS = {
    "dms.bytes_read": 32768.0,
    "dms.descriptors": 8.0,
    "dmad.completed": 8.0,
    "ate.messages": 8.0,
}


def canonical_launch(dpu):
    """The pinned-regression kernel from tests/test_obs.py."""
    rows = 2048
    data = np.arange(rows, dtype=np.uint64)
    addr = dpu.store_array(data)
    address = dpu.address_map.dmem_address(2, 0)

    def kernel(ctx):
        yield from stream_columns(
            ctx, [(addr, 8)], rows, 512, lambda *a: 8, dmem_base=64
        )
        for _ in range(4):
            yield from ctx.fetch_add(2, address, 1)

    return dpu.launch(kernel, cores=[0, 1])


class _Clock:
    """A bare sim clock for driving MetricsHub.sample() by hand."""

    def __init__(self):
        self.now = 0.0


class TestZeroOverheadDisabled:
    def test_default_dpu_uses_null_hub(self):
        dpu = DPU()
        assert dpu.metrics is NULL_HUB
        assert NULL_HUB.enabled is False

    def test_disabled_metrics_is_bit_identical(self):
        dpu = DPU()
        launch = canonical_launch(dpu)
        assert launch.cycles == PINNED_CYCLES
        assert dpu.counters.counters() == PINNED_COUNTERS

    def test_null_hub_is_inert(self):
        NULL_HUB.touch()
        NULL_HUB.flush()
        NULL_HUB.sample()
        NULL_HUB.observe("x", 1.0)
        NULL_HUB.annotate("chaos.kill", dpu=3)
        NULL_HUB.add_sampler(lambda: {"x": 1.0})
        NULL_HUB.add_rule("value(x) > 1")
        assert not hasattr(NULL_HUB, "series")


class TestZeroPerturbationEnabled:
    def test_enabled_metrics_does_not_perturb_timing(self):
        """Sampling reads, never schedules work: same cycles, same
        stats as the metrics-off pinned run."""
        dpu = DPU()
        hub = dpu.enable_metrics(cadence=200.0)
        launch = canonical_launch(dpu)
        assert launch.cycles == PINNED_CYCLES
        assert dpu.counters.counters() == PINNED_COUNTERS
        assert hub.ticks > 2
        assert "dpu0.dms.bytes_read" in hub.series

    def test_enabled_with_tracing_still_pinned_and_valid(self):
        dpu = DPU()
        dpu.enable_metrics(cadence=200.0)
        tracer = dpu.enable_tracing()
        launch = canonical_launch(dpu)
        assert launch.cycles == PINNED_CYCLES
        counters = [e for e in tracer.events if e["ph"] == "C"]
        assert len(counters) > 0
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_engine_drains_with_dormant_ticks(self):
        """Sampler ticks go dormant when only metrics work remains, so
        a drain-style engine.run() always terminates."""
        dpu = DPU()
        dpu.enable_metrics(cadence=200.0)
        canonical_launch(dpu)
        dpu.engine.run()
        assert dpu.engine._metric_ticks == 0

    def test_disable_metrics_restores_null_hub(self):
        dpu = DPU()
        hub = dpu.enable_metrics(cadence=200.0)
        canonical_launch(dpu)
        dpu.engine.run()  # let the last dormant tick drain
        dpu.disable_metrics()
        ticks = hub.ticks
        assert dpu.metrics is NULL_HUB
        canonical_launch(dpu)
        assert hub.ticks == ticks  # detached: no more samples


class TestIntegrationExactness:
    def test_integrated_rate_reproduces_gbps_bit_for_bit(self):
        """Sum of per-interval deltas over the sampled window must
        equal the point-in-time registry total, so derived GB/s equals
        LaunchResult.gbps exactly."""
        dpu = DPU()
        hub = dpu.enable_metrics(cadence=200.0)
        result = canonical_launch(dpu)
        nbytes = dpu.counters.get("dms.bytes_read")
        total = hub.integrate("dpu0.dms.bytes_read")
        assert total == nbytes
        assert result.gbps(total) == result.gbps(nbytes)

    def test_second_launch_keeps_telescoping(self):
        dpu = DPU()
        hub = dpu.enable_metrics(cadence=200.0)
        canonical_launch(dpu)
        canonical_launch(dpu)
        assert (hub.integrate("dpu0.dms.bytes_read")
                == dpu.counters.get("dms.bytes_read"))

    def test_midrun_counter_backfills_zero_baseline(self):
        """A counter born mid-run was implicitly zero at the previous
        sample; the backfilled point keeps integration exact."""
        clock = _Clock()
        hub = MetricsHub(clock, cadence=100.0)
        box = {"v": None}
        hub.add_sampler(
            lambda: {} if box["v"] is None else {"late.bytes": box["v"]}
        )
        hub.sample()
        clock.now = 100.0
        box["v"] = 4096.0
        hub.sample()
        series = hub.series["late.bytes"]
        assert list(series.points) == [(0.0, 0.0), (100.0, 4096.0)]
        assert hub.integrate("late.bytes") == 4096.0

    def test_rate_points_per_interval(self):
        clock = _Clock()
        hub = MetricsHub(clock, cadence=100.0, clock_hz=1.0)
        box = {"v": 0.0}
        hub.add_sampler(lambda: {"net.bytes": box["v"]})
        for t, v in [(0.0, 0.0), (100.0, 1000.0), (200.0, 1000.0)]:
            clock.now, box["v"] = t, v
            hub.sample()
        assert hub.rate_points("net.bytes") == [(100.0, 10.0), (200.0, 0.0)]
        assert hub.latest("net.bytes") == 1000.0


class TestTimeSeries:
    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            TimeSeries("x", capacity=1)

    def test_ring_keeps_newest_window_and_counts_drops(self):
        series = TimeSeries("x.bytes", capacity=4)
        for i in range(10):
            series.append(float(i), float(i * i))
        assert len(series) == 4
        assert series.dropped == 6
        assert [t for t, _v in series.points] == [6.0, 7.0, 8.0, 9.0]

    def test_equal_timestamp_replaces_not_appends(self):
        """A flush at the same instant as a cadence tick re-reads the
        counters: the series must stay a function of time."""
        series = TimeSeries("x.bytes", capacity=4)
        series.append(0.0, 1.0)
        series.append(0.0, 2.0)
        assert list(series.points) == [(0.0, 2.0)]
        assert series.dropped == 0

    def test_deltas_and_integrate_telescope(self):
        series = TimeSeries("x.bytes", capacity=8)
        for t, v in [(0.0, 0.0), (1.0, 10.0), (2.0, 25.0)]:
            series.append(t, v)
        assert series.deltas() == [(1.0, 10.0), (2.0, 15.0)]
        assert series.integrate() == 25.0

    def test_gauge_detection(self):
        assert TimeSeries("dpu0.heap.live_bytes").gauge
        assert not TimeSeries("dpu0.dms.bytes_read").gauge


class TestGaugeHeuristic:
    @pytest.mark.parametrize("path", [
        "dpu0.dmad.occupancy_peak",
        "fabric.rx0.utilization",
        "dpu0.admission.running",
        "dpu0.admission.queued",
        "dpu0.heap.live_bytes",
        "fabric.inbox3.occupancy",
        "recovery.epochs",
    ])
    def test_gauges(self, path):
        assert is_gauge_path(path)

    @pytest.mark.parametrize("path", [
        "dpu0.dms.bytes_read",
        "fabric.bytes_sent",
        "recovery.journal_records",
        "dpu0.admission_free.shed",
    ])
    def test_counters(self, path):
        assert not is_gauge_path(path)


class TestLatencyDigest:
    def test_exact_stats_and_bounded_quantile_error(self):
        digest = LatencyDigest("op.cycles")
        values = list(range(1, 1001))
        for value in values:
            digest.add(float(value))
        assert digest.count == 1000
        assert digest.total == sum(values)
        assert digest.minimum == 1.0
        assert digest.maximum == 1000.0
        assert digest.mean == pytest.approx(500.5)
        # Log2 x 32-subbucket digest: ~1.6% relative error.
        assert digest.p50 == pytest.approx(500.0, rel=0.05)
        assert digest.p99 == pytest.approx(990.0, rel=0.05)
        assert digest.quantile(1.0) == 1000.0

    def test_non_positive_samples_stay_out_of_log_buckets(self):
        digest = LatencyDigest()
        digest.add(0.0)
        digest.add(-3.0)
        digest.add(8.0)
        assert digest.zeros == 2
        assert digest.minimum == -3.0
        assert digest.p50 <= 0.0
        assert digest.maximum == 8.0

    def test_merge_matches_union(self):
        a, b, union = LatencyDigest(), LatencyDigest(), LatencyDigest()
        for value in range(1, 501):
            a.add(float(value))
            union.add(float(value))
        for value in range(501, 1001):
            b.add(float(value))
            union.add(float(value))
        a.merge(b)
        assert a.count == union.count
        assert a.total == union.total
        assert a.p50 == union.p50
        assert a.p99 == union.p99
        assert a.maximum == union.maximum

    def test_to_dict_keys(self):
        digest = LatencyDigest()
        digest.add(5.0)
        assert sorted(digest.to_dict()) == [
            "count", "max", "mean", "min", "p50", "p99", "p999",
        ]


def _bits(value):
    return struct.pack("<d", value)


def _digest_state(digest):
    """Everything a digest holds, floats as their bits and buckets in
    insertion order."""
    return (list(digest.buckets.items()), digest.count, _bits(digest.total),
            _bits(digest._min), _bits(digest._max), digest.zeros)


# Latency-like samples plus the edge cases: signed zeros, negatives,
# subnormals, values near the float range's ends and integers.
_SAMPLES = st.one_of(
    st.floats(min_value=1.0, max_value=1e7),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300,
                     -1e300, 1.7976931348623157e308, 0.5, 1.0, 500.0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
)


class TestLatencyDigestExtend:
    """``extend`` is ``add`` once per value, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(before=st.lists(_SAMPLES, max_size=5),
           values=st.lists(_SAMPLES, max_size=60))
    def test_extend_equals_repeated_add(self, before, values):
        added, extended = LatencyDigest("d"), LatencyDigest("d")
        for value in before:
            added.add(value)
            extended.add(value)
        for value in values:
            added.add(value)
        extended.extend(values)
        assert _digest_state(extended) == _digest_state(added)
        assert extended.quantile(0.99) == added.quantile(0.99)

    def test_extend_accepts_any_iterable_and_numpy_values(self):
        values = np.array([3.0, 0.0, 7.5, 7.5], dtype=np.float64)
        added, extended = LatencyDigest(), LatencyDigest()
        for value in values:
            added.add(value)
        extended.extend(value for value in values)
        assert _digest_state(extended) == _digest_state(added)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_extend_rejects_nan_and_inf_before_changing(self, bad):
        digest = LatencyDigest()
        digest.add(2.0)
        state = _digest_state(digest)
        with pytest.raises(ValueError, match="NaN or \\+inf"):
            digest.extend([1.0, bad])
        assert _digest_state(digest) == state

    def test_minus_inf_counts_as_a_zero_like_add(self):
        added, extended = LatencyDigest(), LatencyDigest()
        for value in (4.0, -math.inf):
            added.add(value)
        extended.extend([4.0, -math.inf])
        assert _digest_state(extended) == _digest_state(added)


class TestSloRuleParsing:
    def test_parse_quantile_with_sustain(self):
        rule = SloRule.parse("p99(ate.rtt) > 5000 for 100000")
        assert rule.kind == "quantile"
        assert rule.quantile == pytest.approx(0.99)
        assert rule.series == "ate.rtt"
        assert rule.op == ">"
        assert rule.threshold == 5000.0
        assert rule.sustained_for == 100000.0
        assert rule.name == "p99(ate.rtt) > 5000 for 100000"

    @pytest.mark.parametrize("spelling,quantile", [
        ("p50", 0.50), ("p999", 0.999), ("p99.9", 0.999),
    ])
    def test_quantile_spellings(self, spelling, quantile):
        rule = SloRule.parse(f"{spelling}(d) > 1")
        assert rule.quantile == pytest.approx(quantile)

    def test_parse_value_and_rate(self):
        value = SloRule.parse("value(adm.queued) >= 8", name="q-depth")
        assert (value.kind, value.name) == ("value", "q-depth")
        assert value.sustained_for == 0.0
        rate = SloRule.parse("rate(fabric.bytes_sent) < 1.0 for 2e4")
        assert rate.kind == "rate"
        assert rate.sustained_for == 20000.0

    @pytest.mark.parametrize("text", [
        "bogus(x) > 1", "value(x) != 1", "value x > 1", "p99() > 1",
    ])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            SloRule.parse(text)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SloRule("r", "s", "!", 1.0)
        with pytest.raises(ValueError):
            SloRule("r", "s", ">", 1.0, kind="median")
        with pytest.raises(ValueError):
            SloRule("r", "s", ">", 1.0, sustained_for=-1.0)


class TestSloEngine:
    def _hub(self, **kwargs):
        clock = _Clock()
        return clock, MetricsHub(clock, cadence=100.0, **kwargs)

    def test_sustained_breach_fires_then_resolves(self):
        clock, hub = self._hub()
        box = {"v": 1.0}
        hub.add_sampler(lambda: {"adm.queued": box["v"]})
        hub.add_rule("value(adm.queued) > 5 for 200")
        timeline = [(0.0, 1.0), (100.0, 9.0), (200.0, 9.0),
                    (300.0, 9.0), (400.0, 2.0)]
        for t, v in timeline:
            clock.now, box["v"] = t, v
            hub.sample()
            if t == 200.0:
                assert hub.alerts == []  # breached 100 < 200 cycles
            if t == 300.0:
                assert hub.firing() == ["value(adm.queued) > 5 for 200"]
        states = [(a.state, a.t, a.since) for a in hub.alerts]
        assert states == [("firing", 300.0, 100.0),
                          ("resolved", 400.0, 100.0)]
        assert hub.firing() == []

    def test_rate_rule_fires_on_idle_counter(self):
        clock, hub = self._hub(clock_hz=1.0)
        box = {"v": 0.0}
        hub.add_sampler(lambda: {"net.bytes": box["v"]})
        hub.add_rule("rate(net.bytes) < 1.0 for 0", name="net-idle")
        for t, v in [(0.0, 0.0), (100.0, 1000.0)]:
            clock.now, box["v"] = t, v
            hub.sample()
        assert hub.alerts == []  # rate 10/s, above threshold
        clock.now = 200.0
        hub.sample()
        assert [(a.rule, a.state) for a in hub.alerts] == [
            ("net-idle", "firing")
        ]

    def test_quantile_rule_reads_digest(self):
        clock, hub = self._hub()
        hub.add_rule("p99(op.cycles) > 100 for 0")
        hub.observe("op.cycles", 5000.0)
        clock.now = 100.0
        hub.sample()
        assert hub.alerts[0].state == "firing"
        assert hub.alerts[0].value > 100.0

    def test_rule_without_data_stays_silent(self):
        clock, hub = self._hub()
        hub.add_rule("value(ghost.series) > 0")
        hub.sample()
        assert hub.alerts == []

    def test_alert_instants_land_in_tracer(self):
        clock = _Clock()
        tracer = Tracer(clock)
        hub = MetricsHub(clock, cadence=100.0, trace=tracer)
        hub.add_sampler(lambda: {"adm.queued": 9.0})
        hub.add_rule("value(adm.queued) > 5", name="q-depth")
        hub.sample()
        instants = [e for e in tracer.events
                    if e["ph"] == "i" and e.get("cat") == "alert"]
        assert len(instants) == 1
        args = instants[0]["args"]
        assert args["rule"] == "q-depth"
        assert args["state"] == "firing"
        assert args["value"] == 9.0
        assert args["threshold"] == 5.0


class TestAnnotations:
    def test_annotate_defaults_to_now_and_keeps_attrs(self):
        clock = _Clock()
        hub = MetricsHub(clock, cadence=100.0)
        clock.now = 42.0
        hub.annotate("chaos.dpu.dead", targets="0")
        hub.annotate("recover.leader_elected", t=99.0, new_leader=1)
        kinds = [(n.t, n.kind) for n in hub.annotations]
        assert kinds == [(42.0, "chaos.dpu.dead"),
                         (99.0, "recover.leader_elected")]
        assert hub.annotations[1].attrs == {"new_leader": 1}

    def test_annotation_ring_is_bounded(self):
        hub = MetricsHub(_Clock(), cadence=100.0, capacity=4)
        for i in range(6):
            hub.annotate(f"note{i}")
        assert len(hub.annotations) == 4
        assert hub.annotations_dropped == 2
        assert hub.annotations[0].kind == "note2"

    def test_annotation_instant_lands_in_tracer(self):
        clock = _Clock()
        tracer = Tracer(clock)
        hub = MetricsHub(clock, cadence=100.0, trace=tracer)
        hub.annotate("chaos.dpu.dead", t=15000.0, targets="0")
        instants = [e for e in tracer.events
                    if e["ph"] == "i" and e.get("cat") == "annotation"]
        assert len(instants) == 1
        assert instants[0]["name"] == "note.chaos.dpu.dead"
        assert instants[0]["ts"] == 15000.0
        assert instants[0]["args"]["kind"] == "chaos.dpu.dead"


class TestTraceCounterMirror:
    def test_gauges_mirror_values_counters_mirror_rates(self):
        dpu = DPU()
        dpu.enable_metrics(cadence=200.0)
        tracer = dpu.enable_tracing()
        canonical_launch(dpu)
        by_name = {}
        for event in tracer.events:
            if event["ph"] == "C":
                by_name.setdefault(event["name"], []).append(event)
        reads = by_name["dpu0.dms.bytes_read"]
        assert all("per_second" in e["args"] for e in reads)
        assert any(e["args"]["per_second"] > 0 for e in reads)
        live = by_name["dpu0.heap.live_bytes"]
        assert all("value" in e["args"] for e in live)

    def test_trace_patterns_bound_mirrored_series(self):
        dpu = DPU()
        hub = dpu.enable_metrics(cadence=200.0)
        tracer = dpu.enable_tracing()
        canonical_launch(dpu)
        mirrored = {e["name"] for e in tracer.events if e["ph"] == "C"}
        # The full snapshot lands in the hub's series...
        assert len(hub.series) > len(mirrored)
        # ...but only pattern-matched paths reach the trace.
        assert "dpu0.dms.bytes_read" in mirrored
        assert not any(".core" in name for name in mirrored)


class TestExporters:
    def _run_hub(self):
        dpu = DPU()
        hub = dpu.enable_metrics(cadence=200.0)
        hub.add_rule("value(dpu0.heap.live_bytes) >= 0", name="always-on")
        canonical_launch(dpu)
        return hub

    def test_jsonl_round_trips_through_validator(self, tmp_path):
        hub = self._run_hub()
        path = tmp_path / "metrics.jsonl"
        count = hub.export_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == count
        assert json.loads(lines[0])["type"] == "meta"
        assert validate_metrics_jsonl(str(path)) == []

    def test_prometheus_exposition(self, tmp_path):
        hub = self._run_hub()
        text = hub.to_prometheus()
        assert "# TYPE repro_dpu0_dms_bytes_read counter" in text
        assert "# TYPE repro_dpu0_heap_live_bytes gauge" in text
        assert "# TYPE repro_dpu_launch_cycles summary" in text
        assert 'repro_dpu_launch_cycles{quantile="0.99"}' in text
        assert "repro_slo_alerts_fired_total 1" in text
        path = tmp_path / "metrics.prom"
        hub.export_prometheus(str(path))
        assert path.read_text() == text

    def test_render_report_sections(self):
        report = self._run_hub().render_report()
        assert "cluster health report" in report
        assert "timelines (sampled window)" in report
        assert "dpu0.dms.bytes_read" in report
        assert "latency digests" in report
        assert "alert log" in report
        assert "FIRING" in report

    def test_cli_validate_and_report(self, tmp_path, capsys):
        hub = self._run_hub()
        path = tmp_path / "metrics.jsonl"
        hub.export_jsonl(str(path))
        assert metrics_main(["validate", str(path)]) == 0
        assert "valid metrics export" in capsys.readouterr().out
        assert metrics_main(["report", str(path)]) == 0
        assert "cluster health report" in capsys.readouterr().out

    def test_cli_usage_and_invalid_file(self, tmp_path, capsys):
        assert metrics_main([]) == 2
        assert metrics_main(["report"]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "mystery"}\n')
        assert metrics_main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestMetricsJsonlValidator:
    def _write(self, tmp_path, lines):
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_meta_must_come_first(self, tmp_path):
        path = self._write(tmp_path, [
            '{"type": "series", "name": "s", "points": [[0, 1]]}',
        ])
        assert any("meta" in p for p in validate_metrics_jsonl(path))

    def test_rejects_non_monotone_series(self, tmp_path):
        path = self._write(tmp_path, [
            '{"type": "meta", "cadence": 1, "clock_hz": 1, "ticks": 2,'
            ' "engine_now": 5}',
            '{"type": "series", "name": "s",'
            ' "points": [[5, 1], [3, 2]]}',
        ])
        assert any("monotone" in p for p in validate_metrics_jsonl(path))

    def test_rejects_non_finite_points(self, tmp_path):
        path = self._write(tmp_path, [
            '{"type": "meta", "cadence": 1, "clock_hz": 1, "ticks": 1,'
            ' "engine_now": 5}',
            '{"type": "series", "name": "s", "points": [[0, NaN]]}',
        ])
        assert any("non-finite" in p for p in validate_metrics_jsonl(path))

    def test_rejects_bad_alert_and_unknown_type(self, tmp_path):
        path = self._write(tmp_path, [
            '{"type": "meta", "cadence": 1, "clock_hz": 1, "ticks": 1,'
            ' "engine_now": 5}',
            '{"type": "alert", "t": 1, "rule": "r", "state": "maybe",'
            ' "value": 1, "threshold": 1, "since": 0}',
            '{"type": "alert", "t": 1, "rule": "r", "state": "firing",'
            ' "value": 1, "threshold": 1}',
            '{"type": "annotation", "t": "soon"}',
            '{"type": "mystery"}',
        ])
        problems = validate_metrics_jsonl(path)
        assert any("unknown state" in p for p in problems)
        assert any("missing 'since'" in p for p in problems)
        assert any("no kind" in p for p in problems)
        assert any("unknown record type" in p for p in problems)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert validate_metrics_jsonl(str(path)) == ["empty metrics file"]


class TestClusterChaosHealthStory:
    """The acceptance run: kill the coordinator mid-job and read the
    whole incident off the metrics pipeline."""

    @pytest.fixture(scope="class")
    def incident(self):
        values = np.random.default_rng(3).integers(
            0, 1000, 8000, dtype=np.int64
        )
        shards = list(np.array_split(values, 2))
        reference = cluster_filter_count(
            Cluster(1), [values], 100, 500
        ).value
        plan = FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (0,), at_cycle=15_000.0)
        )
        cluster = Cluster(2, fault_plan=plan)
        tracer = cluster.enable_tracing()
        hub = cluster.enable_metrics(cadence=5_000.0)
        # Heartbeats repaint fabric.bytes_sent every 50k cycles, so a
        # 20k-cycle sustain window detects the post-kill idle lease.
        hub.add_rule("rate(fabric.bytes_sent) < 1.0 for 20000",
                     name="fabric-idle")
        result = cluster_filter_count(cluster, shards, 100, 500)
        return {
            "cluster": cluster,
            "tracer": tracer,
            "hub": hub,
            "result": result,
            "reference": reference,
        }

    def test_job_still_byte_equal(self, incident):
        assert incident["result"].value == incident["reference"]
        assert incident["cluster"].leader == 1

    def test_chaos_and_recovery_annotated(self, incident):
        notes = {n.kind: n for n in incident["hub"].annotations}
        assert notes["chaos.dpu.dead"].t == 15_000.0
        assert notes["chaos.dpu.dead"].attrs["targets"] == "0"
        dead = notes["recover.declare_dead"]
        assert dead.attrs["dpu"] == 0
        assert dead.t > 15_000.0
        elected = notes["recover.leader_elected"]
        assert elected.attrs["old_leader"] == 0
        assert elected.attrs["new_leader"] == 1

    def test_fabric_utilization_dips_then_recovers(self, incident):
        rates = incident["hub"].rate_points("fabric.bytes_sent")
        kill = 15_000.0
        before = [r for t, r in rates if t <= kill]
        during = [r for t, r in rates if kill < t <= kill + 25_000.0]
        after = [r for t, r in rates if t > kill + 25_000.0]
        assert max(before) > 0  # traffic before the kill
        assert min(during) == 0.0  # the dip
        assert max(after) > 0  # recovery traffic resumes

    def test_slo_rule_fires_during_outage(self, incident):
        fired = [a for a in incident["hub"].alerts if a.state == "firing"]
        assert fired
        assert fired[0].rule == "fabric-idle"
        assert fired[0].t > 15_000.0

    def test_merged_trace_has_counter_tracks_and_validates(self, incident):
        tracer = incident["tracer"]
        events = list(tracer.events)
        assert any(e["ph"] == "C" and e["name"] == "fabric.bytes_sent"
                   for e in events)
        assert any(e["ph"] == "i" and e.get("cat") == "alert"
                   for e in events)
        assert any(e["ph"] == "i" and e.get("cat") == "annotation"
                   for e in events)
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_health_report_tells_the_story(self, incident):
        report = incident["hub"].render_report()
        assert "fabric heatmap" in report
        assert "alert log" in report
        assert "fabric-idle" in report
        assert "chaos.dpu.dead" in report
        assert "recover.leader_elected" in report

    def test_cli_report_on_exported_incident(self, incident, tmp_path,
                                             capsys):
        path = tmp_path / "incident.jsonl"
        incident["hub"].export_jsonl(str(path))
        assert validate_metrics_jsonl(str(path)) == []
        assert metrics_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "chaos.dpu.dead" in out
        assert "fabric-idle" in out


class TestJobAndAdmissionDigests:
    def test_launch_and_job_digests_populate(self):
        dpu = DPU()
        hub = dpu.enable_metrics(cadence=200.0)
        canonical_launch(dpu)
        digest = hub.digests["dpu.launch.cycles"]
        assert digest.count == 1
        assert digest.maximum == PINNED_CYCLES

    def test_admission_wait_digest(self):
        from repro.runtime import AdmissionController

        dpu = DPU()
        dpu.set_admission(
            AdmissionController(dpu.engine, max_concurrent=1)
        )
        hub = dpu.enable_metrics(cadence=200.0)

        def tiny(ctx):
            yield from ctx.compute(50)

        engine = dpu.engine
        jobs = [engine.process(dpu.launch_steps(tiny, cores=[core]))
                for core in (0, 1)]
        engine.run_until_complete(engine.all_of(jobs))
        digest = hub.digests["admission.wait_cycles"]
        assert digest.count == 2
        assert digest.maximum > 0  # the second job queued
