"""Tests for the sim-time observability subsystem (repro.obs).

Covers the acceptance criteria of the tracing PR: disabled tracing is
bit-identical to the seed, enabled tracing never perturbs timing, ATE
RPC callee spans nest inside the caller's span, DMS gather span
durations equal the DMAC's reported cycles, the counter registry
round-trips snapshot/delta/merge, and ``DPU.perf_report()`` reproduces
Figure 11's DMS GB/s from registry counters alone.
"""

import numpy as np
import pytest

from repro.apps.streaming import stream_columns
from repro.core import DPU
from repro.core.pmu import PowerManagementUnit, PowerState
from repro.dms import Descriptor, DescriptorType
from repro.obs import (
    NULL_TRACER,
    CounterRegistry,
    Tracer,
    validate_chrome_trace,
)

PINNED_CYCLES = 2896.0
PINNED_COUNTERS = {
    "dms.bytes_read": 32768.0,
    "dms.descriptors": 8.0,
    "dmad.completed": 8.0,
    "ate.messages": 8.0,
}


def canonical_launch(dpu):
    """The pinned-regression kernel from tests/test_admission.py."""
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


def unit_name_of(tracer, event):
    """Reverse the tracer's unit -> tid interning for assertions."""
    for unit, tid in tracer._tids.items():
        if tid == event["tid"]:
            return unit
    return None


class TestZeroOverhead:
    def test_default_dpu_uses_null_tracer(self):
        dpu = DPU()
        assert dpu.trace is NULL_TRACER
        assert dpu.dmac.trace is NULL_TRACER
        assert dpu.ate.trace is NULL_TRACER
        assert dpu.engine.tracer is None

    def test_disabled_tracing_is_bit_identical(self):
        dpu = DPU()
        launch = canonical_launch(dpu)
        assert launch.cycles == PINNED_CYCLES
        assert dpu.counters.counters() == PINNED_COUNTERS
        assert NULL_TRACER.events == ()

    def test_enabled_tracing_does_not_perturb_timing(self):
        """Tracing records, never schedules: same cycles, same stats."""
        dpu = DPU()
        tracer = dpu.enable_tracing()
        launch = canonical_launch(dpu)
        assert launch.cycles == PINNED_CYCLES
        assert dpu.counters.counters() == PINNED_COUNTERS
        assert len(tracer.events) > 0

    def test_null_tracer_records_nothing(self):
        span = NULL_TRACER.span("x", unit="core0", a=1)
        span.set(b=2)
        span.end()
        NULL_TRACER.instant("x")
        NULL_TRACER.counter("x", v=1.0)
        NULL_TRACER.complete_async("x", "u", 0.0)
        assert NULL_TRACER.events == ()


class TestEnableDisableRoundTrip:
    def test_round_trip_restores_null_everywhere(self):
        dpu = DPU()
        tracer = dpu.enable_tracing()
        assert dpu.trace is tracer
        assert dpu.dmac.trace is tracer
        assert dpu.ate.trace is tracer
        assert dpu.ddr_channel.trace is tracer
        assert all(d.trace is tracer for d in dpu.dmads.values())
        assert dpu.engine.tracer is tracer
        dpu.disable_tracing()
        assert dpu.trace is NULL_TRACER
        assert dpu.dmac.trace is NULL_TRACER
        assert dpu.engine.tracer is None
        before = len(tracer.events)
        canonical_launch(dpu)
        assert len(tracer.events) == before  # disabled: nothing recorded

    def test_shared_buffer_views(self):
        dpu = DPU()
        tracer = dpu.enable_tracing()
        view = tracer.view(pid=1, process_name="dpu1")
        view.instant("hello", unit="core0")
        assert list(tracer.events)[-1]["pid"] == 1


class TestAteSpanNesting:
    def test_callee_exec_nests_inside_caller_span(self):
        dpu = DPU()
        tracer = dpu.enable_tracing()

        def kernel(ctx):
            yield from ctx.fetch_add(
                9, dpu.address_map.dmem_address(9, 64), 1
            )

        dpu.launch(kernel, cores=[0])
        events = list(tracer.events)
        callers = [e for e in events if e.get("name") == "ate.faa"
                   and e["ph"] == "X"]
        callees = [e for e in events if e.get("name") == "ate.exec.faa"
                   and e["ph"] == "X"]
        assert len(callers) == 1 and len(callees) == 1
        caller, callee = callers[0], callees[0]
        assert unit_name_of(tracer, caller) == "core0"
        assert unit_name_of(tracer, callee) == "ate9"
        # The trace id propagated through the message ties them...
        assert callee["args"]["parent"] == caller["args"]["span_id"]
        # ...and the callee's interval is contained in the caller's.
        assert caller["ts"] <= callee["ts"]
        assert callee["ts"] + callee["dur"] <= caller["ts"] + caller["dur"]
        # Flow arrow: one s/f pair sharing the caller span's id.
        flows = [e for e in events if e["ph"] in ("s", "f")
                 and e.get("id") == caller["args"]["span_id"]]
        assert sorted(e["ph"] for e in flows) == ["f", "s"]


class TestGatherSpan:
    def test_gather_span_duration_matches_reported_cycles(self):
        dpu = DPU()
        tracer = dpu.enable_tracing()
        rows = 512
        data = dpu.store_array(np.arange(rows, dtype=np.uint64))
        bv_bytes = rows // 8
        bv = np.full(bv_bytes, 0xF7, dtype=np.uint8)

        def kernel(ctx):
            ctx.dmem.write(16384, bv)
            ctx.push(Descriptor(dtype=DescriptorType.DMEM_TO_DMS,
                                rows=bv_bytes // 8, col_width=8,
                                dmem_addr=16384, internal_mem="bv"))
            ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMEM,
                                rows=rows, col_width=8, ddr_addr=data,
                                dmem_addr=0, gather_src=True,
                                notify_event=0))
            yield from ctx.wfe(0)
            ctx.clear_event(0)

        dpu.launch(kernel, cores=[0])
        events = list(tracer.events)
        begins = [e for e in events if e.get("name") == "dms.gather"
                  and e["ph"] == "b"]
        assert len(begins) == 1
        begin = begins[0]
        end = next(e for e in events if e.get("name") == "dms.gather"
                   and e["ph"] == "e" and e["id"] == begin["id"])
        assert end["ts"] - begin["ts"] == begin["args"]["cycles"]
        # 0xF7 selects 7 of every 8 rows.
        assert begin["args"]["rows"] == rows * 7 // 8


class TestCounterRegistry:
    def test_scope_and_dot_paths(self):
        registry = CounterRegistry()
        dmac = registry.scope("dpu0").scope("dmac")
        dmac.add("bytes_gathered", 64)
        dmac.add("bytes_gathered", 64)
        assert registry.get("dpu0.dmac.bytes_gathered") == 128
        assert "dpu0.dmac.bytes_gathered" in registry

    def test_snapshot_sorted_and_delta(self):
        registry = CounterRegistry()
        registry.add("b.two", 2)
        registry.add("a.one", 1)
        snap = registry.snapshot()
        assert list(snap) == ["a.one", "b.two"]
        registry.add("b.two", 3)
        registry.add("c.new", 7)
        delta = registry.delta(snap)
        assert delta == {"b.two": 3.0, "c.new": 7.0}

    def test_merge_sums_counters_and_maxes_peaks(self):
        a = CounterRegistry()
        b = CounterRegistry()
        a.add("dpu0.dms.bytes_read", 100)
        b.add("dpu0.dms.bytes_read", 50)
        a.peak("dpu0.dmad.occupancy_peak", 3)
        b.peak("dpu0.dmad.occupancy_peak", 9)
        a.merge(b)
        assert a.get("dpu0.dms.bytes_read") == 150
        assert a.get("dpu0.dmad.occupancy_peak") == 9

    def test_delta_from_empty_snapshot_is_everything(self):
        registry = CounterRegistry()
        before = registry.snapshot()
        registry.add("a.one", 1)
        registry.peak("b.depth_peak", 4)
        assert registry.delta(before) == {"a.one": 1.0, "b.depth_peak": 4.0}

    def test_delta_of_unchanged_registry_is_empty(self):
        registry = CounterRegistry()
        registry.add("a.one", 1)
        assert registry.delta(registry.snapshot()) == {}

    def test_merge_peak_missing_on_one_side(self):
        """Max-folding must treat an absent peak as -inf, not clobber
        or drop the present side."""
        a, b = CounterRegistry(), CounterRegistry()
        b.peak("dmad.occupancy_peak", 7)
        a.merge(b)
        assert a.get("dmad.occupancy_peak") == 7
        c = CounterRegistry()
        c.peak("dmad.occupancy_peak", 3)
        a.merge(c)  # lower incoming peak must not regress the max
        assert a.get("dmad.occupancy_peak") == 7

    def test_merge_mixes_new_and_existing_keys(self):
        a, b = CounterRegistry(), CounterRegistry()
        a.add("x.bytes", 10)
        b.add("x.bytes", 5)
        b.add("y.bytes", 2)
        a.merge(b)
        assert a.get("x.bytes") == 15
        assert a.get("y.bytes") == 2

    def test_include_files_a_store_under_a_prefix(self):
        store = CounterRegistry()
        store.add("dms.bytes_read", 1024)
        store.peak("dmad.occupancy_peak", 5)
        store.observe("ate.rtt.load.local", 50)
        registry = CounterRegistry()
        registry.include("dpu0", store)
        registry.include("dpu0", store)  # a view: overwrites, never sums
        assert registry.snapshot() == {"dpu0.dmad.occupancy_peak": 5.0,
                                       "dpu0.dms.bytes_read": 1024.0}
        assert (registry.digests["dpu0.ate.rtt.load.local"]
                is store.digest("ate.rtt.load.local"))


class TestPerfReport:
    def test_dms_gbps_matches_launch_result_exactly(self):
        """Figure 11's GB/s from registry counters must equal the
        benchmark arithmetic on LaunchResult, bit for bit."""
        rows = 4096
        dpu = DPU()
        addr = dpu.store_array(np.arange(rows, dtype=np.uint64))

        def kernel(ctx):
            yield from stream_columns(
                ctx, [(addr, 8)], rows, 512, lambda *a: 0, dmem_base=64
            )

        result = dpu.launch(kernel, cores=[0])
        nbytes = dpu.counters.get("dms.bytes_read")
        assert nbytes == rows * 8
        report = dpu.perf_report(elapsed_cycles=result.cycles)
        assert report.dms_read_gbps == result.gbps(nbytes)
        assert report.dms_read_gbps > 0

    def test_render_includes_utilization_and_counters(self):
        dpu = DPU()
        canonical_launch(dpu)
        text = dpu.perf_report().render()
        assert "unit utilization" in text
        assert "ddr" in text
        assert "dpu0.dms.bytes_read" in text
        assert "GB/s" in text


class TestPmuResidency:
    class _Clock:
        def __init__(self):
            self.now = 0.0

    def test_transitions_accrue_residency(self):
        clock = self._Clock()
        pmu = PowerManagementUnit(DPU().config, engine=clock)
        clock.now = 100.0
        pmu.set_macro_state(0, PowerState.IDLE)
        clock.now = 250.0
        pmu.set_macro_state(0, PowerState.ACTIVE)
        counters = pmu.residency_counters(upto=300.0)
        assert counters["macro0.active_cycles"] == 100.0 + 50.0
        assert counters["macro0.idle_cycles"] == 150.0
        assert pmu.transitions == 2

    def test_same_state_is_not_a_transition(self):
        pmu = PowerManagementUnit(DPU().config, engine=self._Clock())
        pmu.set_macro_state(0, PowerState.ACTIVE)
        assert pmu.transitions == 0

    def test_transition_emits_trace_events(self):
        dpu = DPU()
        tracer = dpu.enable_tracing()
        dpu.pmu.set_macro_state(1, PowerState.RETENTION)
        names = [e.get("name") for e in tracer.events]
        assert "pmu.transition" in names
        assert "pmu.active_cores" in names

    def test_active_cycles_always_present(self):
        pmu = PowerManagementUnit(DPU().config, engine=self._Clock())
        counters = pmu.residency_counters(upto=0.0)
        assert all(
            f"macro{m}.active_cycles" in counters
            for m in range(pmu.config.num_macros)
        )


class TestValidator:
    def test_accepts_live_trace(self):
        dpu = DPU()
        tracer = dpu.enable_tracing()
        canonical_launch(dpu)
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_rejects_missing_fields(self):
        problems = validate_chrome_trace([{"ph": "X", "ts": 0}])
        assert any("missing required" in p for p in problems)

    def test_rejects_unbalanced_async(self):
        events = [
            {"name": "a", "ph": "b", "ts": 0, "pid": 0, "tid": 1,
             "id": 1, "cat": "async"},
        ]
        problems = validate_chrome_trace(events)
        assert any("never closed" in p for p in problems)

    def test_rejects_partial_overlap(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0, "dur": 10, "pid": 0, "tid": 1},
            {"name": "b", "ph": "X", "ts": 5, "dur": 10, "pid": 0, "tid": 1},
        ]
        problems = validate_chrome_trace(events)
        assert any("partially overlaps" in p for p in problems)

    def test_rejects_empty_trace(self):
        assert validate_chrome_trace([]) == ["trace contains no events"]

    def test_rejects_x_without_dur(self):
        events = [{"name": "a", "ph": "X", "ts": 0, "pid": 0, "tid": 1}]
        problems = validate_chrome_trace(events)
        assert any("dur" in p for p in problems)

    def _with_span(self, *events):
        """Pad with one valid span so only the checks under test fire."""
        return [{"name": "s", "ph": "X", "ts": 0, "dur": 1,
                 "pid": 0, "tid": 1}, *events]

    def test_rejects_non_finite_counter_sample(self):
        events = self._with_span(
            {"name": "c", "ph": "C", "ts": 0, "pid": 0, "tid": 2,
             "args": {"v": float("nan")}},
        )
        problems = validate_chrome_trace(events)
        assert any("not finite numeric" in p for p in problems)

    def test_rejects_counter_timestamp_regression(self):
        events = self._with_span(
            {"name": "c", "ph": "C", "ts": 10, "pid": 0, "tid": 2,
             "args": {"v": 1.0}},
            {"name": "c", "ph": "C", "ts": 5, "pid": 0, "tid": 2,
             "args": {"v": 2.0}},
        )
        problems = validate_chrome_trace(events)
        assert any("precedes previous sample" in p for p in problems)

    def test_counter_series_are_tracked_independently(self):
        events = self._with_span(
            {"name": "c", "ph": "C", "ts": 10, "pid": 0, "tid": 2,
             "args": {"v": 1.0}},
            {"name": "other", "ph": "C", "ts": 5, "pid": 0, "tid": 2,
             "args": {"v": 2.0}},
        )
        assert validate_chrome_trace(events) == []

    def test_rejects_alert_instant_without_args(self):
        events = self._with_span(
            {"name": "slo.x", "ph": "i", "ts": 0, "pid": 0, "tid": 3,
             "cat": "alert"},
        )
        problems = validate_chrome_trace(events)
        assert any("has no args" in p for p in problems)

    def test_rejects_alert_with_unknown_state(self):
        events = self._with_span(
            {"name": "slo.x", "ph": "i", "ts": 0, "pid": 0, "tid": 3,
             "cat": "alert",
             "args": {"rule": "x", "state": "maybe", "value": 1,
                      "threshold": 1, "since": 0}},
        )
        problems = validate_chrome_trace(events)
        assert any("unknown state" in p for p in problems)

    def test_rejects_annotation_without_kind(self):
        events = self._with_span(
            {"name": "note.x", "ph": "i", "ts": 0, "pid": 0, "tid": 3,
             "cat": "annotation", "args": {}},
        )
        problems = validate_chrome_trace(events)
        assert any("needs args with a 'kind'" in p for p in problems)

    def test_accepts_well_formed_alert_and_annotation(self):
        events = self._with_span(
            {"name": "slo.x", "ph": "i", "ts": 0, "pid": 0, "tid": 3,
             "cat": "alert",
             "args": {"rule": "x", "state": "firing", "value": 2.0,
                      "threshold": 1.0, "since": 0.0}},
            {"name": "note.x", "ph": "i", "ts": 1, "pid": 0, "tid": 3,
             "cat": "annotation", "args": {"kind": "chaos.dpu.dead"}},
        )
        assert validate_chrome_trace(events) == []


class TestTracedSqlOperators:
    def test_operator_span_on_sql_track(self):
        from repro.apps.sql import Between, Table, dpu_filter

        rng = np.random.default_rng(0)
        table = Table("t", {"v": rng.integers(0, 100, 4096).astype(np.int32)})
        dpu = DPU()
        tracer = dpu.enable_tracing()
        dpu_filter(dpu, table.to_dpu(dpu), Between("v", 10, 20))
        spans = [e for e in tracer.events
                 if e.get("name") == "sql.filter" and e["ph"] == "X"]
        assert len(spans) == 1
        assert unit_name_of(tracer, spans[0]) == "sql"
        assert spans[0]["dur"] > 0


class TestTracerBuffer:
    def test_ring_drops_oldest_and_counts(self):
        dpu = DPU()
        tracer = dpu.enable_tracing(capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}", unit="core0")
        assert len(tracer.events) == 4
        assert tracer.dropped == 6
        payload = tracer.to_chrome()
        assert payload["otherData"]["dropped_events"] == 6

    def test_overflow_evicts_oldest_first(self):
        dpu = DPU()
        tracer = dpu.enable_tracing(capacity=4)
        for i in range(10):
            tracer.instant(f"e{i}", unit="core0")
        names = [e["name"] for e in tracer.events]
        assert names == ["e6", "e7", "e8", "e9"]  # newest window survives

    def test_export_writes_valid_json(self, tmp_path):
        from repro.obs import validate_file

        dpu = DPU()
        tracer = dpu.enable_tracing()
        canonical_launch(dpu)
        path = tmp_path / "trace.json"
        count = tracer.export(str(path))
        assert count == len(tracer.events) + len(tracer._meta)
        assert validate_file(str(path)) == []
