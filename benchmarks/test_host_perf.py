"""Host-performance tier: how fast the simulator itself runs.

Every other benchmark in this directory reports *simulated* quantities
(GB/s, cycles/tuple) that are pinned bit-exactly by the equivalence
goldens. This module instead guards the *host* cost of producing them:
the event-engine fast paths, the vectorized DMS data plane, and the
descriptor/cost-table caches must not quietly rot back to the
pre-fast-path speeds.

Two kinds of check:

* throughput microbenchmarks (pytest-benchmark, one round each) that
  show up in ``--benchmark-*`` output and the CI artifact, and
* hard budget assertions with *generous* pinned ceilings — generous
  because CI runners vary, so a budget only trips on an order-of-
  magnitude regression (e.g. an O(n^2) queue sneaking back into the
  event loop), not on runner jitter.

``tools/perfcmp.py`` does the precise before/after accounting against
``benchmarks/host_perf_baseline.json``; see docs/PERFORMANCE.md.
"""

import json
import os
import sys
import time

import pytest

TOOLS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
if TOOLS_DIR not in sys.path:
    sys.path.insert(0, TOOLS_DIR)

import perfcmp  # noqa: E402

# Pinned host-time ceilings, in seconds. Reference hardware does the
# 1M-event run in ~1.1s, the DMS stream in ~0.1s and the 64-DPU
# cluster build in ~0.12s; the ceilings leave >10x headroom for slow
# CI runners while still catching a complexity-class regression (the
# pre-deque O(n^2) drain paths blow straight through them).
ENGINE_1M_BUDGET_S = 20.0
DMS_STREAM_BUDGET_S = 10.0
CLUSTER_BUILD_BUDGET_S = 1.5
# A floor, in descriptors retired per host second: reference hardware
# retires ~20k/s in the Fig. 11 8-column launch, so >10x headroom.
DMS_DESCRIPTOR_FLOOR_PER_S = 1500.0
# A floor, in cached serving requests per host second: reference
# hardware serves ~130k/s in perfcmp's serve_requests_per_s, so >10x
# headroom.
SERVE_REQUEST_FLOOR_PER_S = 10_000.0
# A floor, in compiled Q1 jobs per host second on one DPU (one low-NDV
# group-by launch each): reference hardware runs ~90/s in perfcmp's
# low_ndv_launches_per_s, so >10x headroom.
LOW_NDV_LAUNCH_FLOOR_PER_S = 8.0


class TestEngineThroughput:
    def test_engine_1m_events_within_budget(self):
        """Satellite of the event-loop audit: one million timer events
        through eight interleaved processes must complete in bounded
        host time (linear in events, not quadratic)."""
        elapsed = perfcmp.run_engine_events(1_000_000)
        assert elapsed < ENGINE_1M_BUDGET_S, (
            f"1M engine events took {elapsed:.1f}s "
            f"(budget {ENGINE_1M_BUDGET_S}s) — event loop has regressed"
        )

    def test_engine_clock_is_exact_after_1m_events(self):
        """The same workload, checked for correctness: eight processes
        each advancing 125k unit timeouts land the clock exactly."""
        from repro.sim import Engine

        engine = Engine()

        def ticker(count):
            for _ in range(count):
                yield engine.timeout(1.0)

        for _ in range(8):
            engine.process(ticker(125_000))
        engine.run()
        assert engine.now == 125_000.0

    def test_engine_event_rate(self, benchmark, report):
        events = 200_000

        def run():
            return events / perfcmp.run_engine_events(events)

        rate = run_rate = None
        began = time.perf_counter()
        rate = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
        run_rate = rate
        benchmark.extra_info["events_per_s"] = round(run_rate)
        report(
            "engine event throughput",
            f"{'events':>10}  {'events/s':>12}  {'wall':>8}",
            [f"{events:>10}  {run_rate:>12,.0f}  "
             f"{time.perf_counter() - began:>7.2f}s"],
        )
        assert run_rate > events / ENGINE_1M_BUDGET_S * 0.2


class TestDmsThroughput:
    def test_dms_stream_within_budget(self):
        """One fig-11 sweep point (the 8 KB single-column stream over
        32 cores) as a host-time canary for the DMS data plane."""
        import test_fig11_dms_bandwidth as fig11

        began = time.perf_counter()
        gbps = fig11.sweep_point(1, 2048, False)
        elapsed = time.perf_counter() - began
        assert gbps > 9.0  # the modelled number still holds
        assert elapsed < DMS_STREAM_BUDGET_S, (
            f"DMS stream sweep point took {elapsed:.1f}s "
            f"(budget {DMS_STREAM_BUDGET_S}s)"
        )

    def test_dms_descriptor_rate_above_floor(self):
        """Descriptors retired per host second in the Fig. 11 8-column
        launch (8,192 descriptors through the DMAD walkers and the
        DMAC), the per-descriptor host cost perfcmp tracks."""
        rate = perfcmp.measure_dms_descriptor_rate()
        assert rate > DMS_DESCRIPTOR_FLOOR_PER_S, (
            f"DMS retired {rate:,.0f} descriptors/s "
            f"(floor {DMS_DESCRIPTOR_FLOOR_PER_S:,.0f}/s)"
        )

    def test_fig_pair_bodies(self, benchmark, report):
        """The fig11+fig16 workload pair perfcmp tracks, run once so
        the CI benchmark artifact carries its host seconds."""

        def run():
            fig11 = perfcmp.measure_fig11_body()
            fig16 = perfcmp.measure_fig16_body()
            return fig11, fig16

        fig11_s, fig16_s = benchmark.pedantic(
            run, rounds=1, iterations=1, warmup_rounds=0
        )
        benchmark.extra_info["fig11_body_s"] = round(fig11_s, 3)
        benchmark.extra_info["fig16_body_s"] = round(fig16_s, 3)
        report(
            "figure-pair host cost",
            f"{'workload':<12}  {'wall':>8}",
            [f"{'fig11 body':<12}  {fig11_s:>7.2f}s",
             f"{'fig16 body':<12}  {fig16_s:>7.2f}s"],
        )


class TestServingThroughput:
    def test_serve_request_rate_above_floor(self):
        """Cached requests per host second through a warmed 4-DPU
        serving frontend: admission, fair queueing, cache lookups and
        latency digests, the per-request host cost perfcmp tracks."""
        rate = perfcmp.measure_serve_request_rate(repeats=3)
        assert rate > SERVE_REQUEST_FLOOR_PER_S, (
            f"served {rate:,.0f} cached requests/s "
            f"(floor {SERVE_REQUEST_FLOOR_PER_S:,.0f}/s)"
        )


class TestLowNdvThroughput:
    def test_low_ndv_launch_rate_above_floor(self):
        """Compiled Q1 jobs per host second on one DPU, each one
        low-NDV group-by launch of 32 one-tile streams: the per-core
        stream state and per-descriptor host costs perfcmp tracks."""
        rate = perfcmp.measure_low_ndv_launch_rate(repeats=3)
        assert rate > LOW_NDV_LAUNCH_FLOOR_PER_S, (
            f"ran {rate:,.1f} low-NDV jobs/s "
            f"(floor {LOW_NDV_LAUNCH_FLOOR_PER_S:,.1f}/s)"
        )


class TestConstructionCost:
    def test_cluster_build_within_budget(self):
        """Building Cluster(64) and running its engine once builds no
        per-core unit: event files, DMAD channels, ATE engines and
        mailboxes wait for their first use."""
        elapsed = perfcmp.measure_cluster_build()
        assert elapsed < CLUSTER_BUILD_BUDGET_S, (
            f"Cluster(64) build took {elapsed:.2f}s "
            f"(budget {CLUSTER_BUILD_BUDGET_S}s)"
        )


class TestPerfcmpTool:
    def test_measure_subset_writes_report(self, tmp_path):
        out = tmp_path / "current.json"
        code = perfcmp.main(
            ["measure", "--only", "engine_1m_events_s", "-o", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["workloads"]["engine_1m_events_s"] > 0
        assert data["workloads"]["engine_events_per_s"] > 0
        assert data["host"]["python"]

    def test_measure_rejects_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workloads"):
            perfcmp.main(["measure", "--only", "nope"])

    def _report(self, tmp_path, name, tier1):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "host": {},
            "workloads": {"tier1_wall_s": tier1, "fig16_body_s": 0.5},
        }))
        return str(path)

    def test_compare_passes_within_limit(self, tmp_path, capsys):
        base = self._report(tmp_path, "base", 10.0)
        curr = self._report(tmp_path, "curr", 12.0)  # +20% < 25%
        merged = tmp_path / "merged.json"
        code = perfcmp.main(["compare", base, curr, "-o", str(merged)])
        assert code == 0
        out = capsys.readouterr().out
        assert "REGRESSION" not in out
        report = json.loads(merged.read_text())
        assert report["gate"]["passed"] is True
        assert report["speedups"]["tier1_wall_s"] == pytest.approx(10 / 12,
                                                                   abs=1e-3)

    def test_compare_fails_beyond_limit(self, tmp_path, capsys):
        base = self._report(tmp_path, "base", 10.0)
        curr = self._report(tmp_path, "curr", 13.0)  # +30% > 25%
        merged = tmp_path / "merged.json"
        code = perfcmp.main(["compare", base, curr, "-o", str(merged)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert json.loads(merged.read_text())["gate"]["passed"] is False

    def test_committed_baseline_is_wellformed(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "host_perf_baseline.json")
        data = json.loads(open(path).read())
        for key in perfcmp.WORKLOADS:
            assert data["workloads"][key] > 0, key
        assert perfcmp.GATE_KEY in data["workloads"]


class TestPerfcmpAB:
    """The A/B mode's bookkeeping, with a fake measure function in
    place of the subprocesses it runs on each tree."""

    def test_pairs_alternate_which_side_runs_first(self):
        calls = []

        def measure(side, names):
            calls.append((side, tuple(names)))
            return {name: len(calls) for name in names}

        samples, order = perfcmp.run_pairs(
            measure, ("parent", "current"), ["a_s", "b_per_s"], 4)
        assert order == ["parent", "current", "current", "parent",
                         "parent", "current", "current", "parent"]
        assert [side for side, _names in calls] == order
        assert all(names == ("a_s", "b_per_s") for _side, names in calls)
        # Each side's values in the order that side ran.
        assert samples["parent"]["a_s"] == [1, 4, 5, 8]
        assert samples["current"]["b_per_s"] == [2, 3, 6, 7]

    def test_summary_reports_median_quartiles_and_ratio(self):
        samples = {
            "parent": {"fig11_body_s": [1.0, 2.0, 3.0, 4.0, 5.0]},
            "current": {"fig11_body_s": [0.5, 1.0, 1.5, 2.0, 2.5]},
        }
        entry = perfcmp.ab_summary(samples)["fig11_body_s"]
        assert entry["parent"] == {"median": 3.0, "q1": 1.5, "q3": 4.5,
                                   "n": 5, "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}
        assert entry["current"]["median"] == 1.5
        assert (entry["current"]["q1"], entry["current"]["q3"]) == (0.75, 2.25)
        assert entry["ratio"] == pytest.approx(0.5)

    def test_one_pair_summarizes_to_its_single_value(self):
        def measure(side, names):
            return {name: {"parent": 10.0, "current": 8.0}[side]
                    for name in names}

        samples, _order = perfcmp.run_pairs(
            measure, ("parent", "current"), ["x_s"], 1)
        entry = perfcmp.ab_summary(samples)["x_s"]
        assert entry["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0,
                                   "n": 1, "runs": [10.0]}
        assert entry["ratio"] == pytest.approx(0.8)

    def test_ab_rejects_unknown_workload_and_zero_pairs(self):
        with pytest.raises(SystemExit, match="unknown workloads"):
            perfcmp.main(["ab", "--only", "nope"])
        with pytest.raises(SystemExit, match="--pairs"):
            perfcmp.main(["ab", "--pairs", "0"])
