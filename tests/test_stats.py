"""Tests for the counter store every hardware model writes into: a
:class:`CounterRegistry` of counters, ``_peak`` gauges and
:class:`LatencyDigest` latency summaries."""

import pytest

from repro.obs import CounterRegistry, LatencyDigest


class TestSampleSeries:
    """A latency digest's exact summaries and bucket histogram."""

    def test_summary_statistics(self):
        series = LatencyDigest("lat")
        for value in (10, 20, 30, 40):
            series.add(value)
        assert series.count == 4
        assert series.total == 100
        assert series.mean == 25
        assert series.minimum == 10
        assert series.maximum == 40

    def test_percentile_bounds_checked(self):
        series = LatencyDigest("lat")
        series.add(1)
        with pytest.raises(ValueError):
            series.quantile(1.5)

    def test_empty_series_degenerate(self):
        series = LatencyDigest("empty")
        assert series.mean == 0.0
        assert series.quantile(0.5) == 0.0
        assert series.minimum == 0.0
        assert series.maximum == 0.0
        assert series.histogram(4) == ([], [])

    def test_running_aggregates_match_samples(self):
        """mean/min/max/total are O(1) running values over every add."""
        series = LatencyDigest("lat")
        for value in (5, 1, 9, 3):
            series.add(value)
        assert series.total == 18
        assert series.minimum == 1
        assert series.maximum == 9
        assert series.mean == 4.5

    def test_histogram_single_value_collapses(self):
        series = LatencyDigest("lat")
        for _ in range(3):
            series.add(42)
        assert series.histogram(8) == ([3], [42.0, 42.0])

    def test_histogram_rejects_bad_bins(self):
        series = LatencyDigest("lat")
        series.add(1)
        with pytest.raises(ValueError):
            series.histogram(0)


class TestStatsRecorder:
    """The registry's counters, gauges and digests."""

    def test_counters_accumulate(self):
        stats = CounterRegistry()
        stats.add("bytes", 100)
        stats.add("bytes", 50)
        stats.add("messages")
        assert stats.get("bytes") == 150
        assert stats.get("messages") == 1
        assert stats.get("missing") == 0

    def test_series_created_on_demand(self):
        stats = CounterRegistry()
        stats.observe("rtt", 30)
        stats.observe("rtt", 50)
        assert stats.digest("rtt").mean == 40

    def test_merge_folds_counters_and_series(self):
        a = CounterRegistry()
        b = CounterRegistry()
        a.add("x", 1)
        b.add("x", 2)
        a.observe("s", 10)
        b.observe("s", 20)
        a.merge(b)
        assert a.get("x") == 3
        assert a.digest("s").count == 2

    def test_merge_folds_gauges_with_max(self):
        a = CounterRegistry()
        b = CounterRegistry()
        a.peak("ring.occupancy_peak", 3)
        b.peak("ring.occupancy_peak", 9)
        b.peak("other_peak", 2)
        a.merge(b)
        assert a.get("ring.occupancy_peak") == 9
        assert a.get("other_peak") == 2
        # Merge folds digests, keeping aggregates right.
        a.observe("s", 10)
        b2 = CounterRegistry()
        b2.observe("s", 2)
        b2.observe("s", 30)
        a.merge(b2)
        merged = a.digest("s")
        assert merged.count == 3
        assert merged.minimum == 2
        assert merged.maximum == 30

    def test_snapshot_flattens(self):
        stats = CounterRegistry()
        stats.add("n", 5)
        stats.observe("s", 7)
        snap = stats.snapshot()
        assert snap["n"] == 5
        digest = stats.to_dict()["digests"]["s"]
        assert digest["mean"] == 7
        assert digest["count"] == 1

    def test_to_dict_sections_sorted(self):
        stats = CounterRegistry()
        stats.add("z.bytes", 10)
        stats.add("a.bytes", 5)
        stats.peak("q.occupancy_peak", 4)
        stats.observe("rtt", 10)
        stats.observe("rtt", 30)
        out = stats.to_dict()
        assert list(out) == ["counters", "gauges", "digests"]
        assert list(out["counters"]) == ["a.bytes", "z.bytes"]
        assert out["gauges"] == {"q.occupancy_peak": 4.0}
        assert out["digests"]["rtt"]["count"] == 2
        assert out["digests"]["rtt"]["mean"] == 20
        assert out["digests"]["rtt"]["max"] == 30

    def test_to_dict_does_not_change_snapshot(self):
        """The counters-only view leaves gauges out."""
        stats = CounterRegistry()
        stats.add("n", 5)
        stats.peak("g_peak", 7)
        assert stats.counters() == {"n": 5}  # gauges stay out

    def test_dpu_populates_stats(self):
        """The SoC's units feed its store during real runs."""
        import numpy as np
        from repro.core import DPU
        from repro.dms import ddr_to_dmem

        dpu = DPU()
        address = dpu.store_array(np.zeros(256, dtype=np.uint32))

        def kernel(ctx):
            ctx.push(ddr_to_dmem(256, 4, address, 0, notify_event=0))
            yield from ctx.wfe(0)
            yield from ctx.fetch_add(
                1, dpu.address_map.dmem_address(1, 0), 1
            )

        dpu.launch(kernel, cores=[0])
        assert dpu.counters.get("dms.bytes_read") == 1024
        assert dpu.counters.get("ate.messages") == 1
        assert dpu.ddr_channel.utilization() > 0
