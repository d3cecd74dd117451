"""Targeted tests for corners the broad suites skip over.

Three areas flagged by the coverage ratchet: histogram edge handling
in the perf-report renderer, the cycle accounting of degrade-policy
admissions, and the structured context a DMAD attaches when its CRC
replay bound is exhausted.
"""

import numpy as np
import pytest

from repro.apps.streaming import stream_columns
from repro.core import DPU
from repro.dms.dmac import DmsHardwareError
from repro.faults import FaultPlan
from repro.obs.metrics import LatencyDigest
from repro.obs.registry import CounterRegistry
from repro.obs.report import PerfReport, render_histogram
from repro.runtime.admission import AdmissionController
from repro.sim import Engine


# -- obs.report: histogram edges ---------------------------------------------


def _digest(*values):
    digest = LatencyDigest("lat")
    for value in values:
        digest.add(value)
    return digest


class TestHistogramEdges:
    def test_empty_series_collapses_to_no_buckets(self):
        counts, edges = _digest().histogram(8)
        assert counts == [] and edges == []

    def test_constant_series_collapses_to_one_bucket(self):
        counts, edges = _digest(7.0, 7.0, 7.0).histogram(8)
        assert counts == [3]
        assert edges == [7.0, 7.0]

    def test_maximum_sample_lands_in_last_bucket(self):
        counts, edges = _digest(0.0, 1.0, 2.0, 3.0, 4.0).histogram(4)
        assert sum(counts) == 5  # the max is not dropped off the end
        assert counts[-1] == 2  # 3.0 and 4.0 share the closed last bin
        assert edges[0] == 0.0 and edges[-1] == 4.0
        assert len(edges) == len(counts) + 1

    def test_nonpositive_bins_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            _digest(1.0).histogram(0)

    def test_render_histogram_degenerate_series(self):
        """The renderer must not divide by a zero peak or a zero-width
        range on constant input."""
        lines = render_histogram("lat", _digest(5.0, 5.0), bins=6)
        assert "n=2" in lines[0] and "p50=5" in lines[0]
        assert len(lines) == 2  # header + the single collapsed bucket
        assert lines[1].strip().startswith("[")

    def test_render_histogram_bar_widths_scale_to_peak(self):
        digest = _digest(*([0.0] * 10 + [9.0]))
        lines = render_histogram("lat", digest, bins=2, width=10)
        assert lines[1].count("#") == 10  # the peak bucket fills the width
        assert lines[2].count("#") == 1  # 1/10 of the peak, rounded

    def test_report_rates_zero_on_empty_window(self):
        report = PerfReport(CounterRegistry(), elapsed_cycles=0.0,
                            clock_hz=1e9)
        assert report.gbps("dpu0.dms.bytes_read") == 0.0
        assert report.rate_per_second("dpu0.dms.bytes_read") == 0.0

    def test_render_skips_empty_series_but_shows_populated(self):
        registry = CounterRegistry()
        registry.scope("dpu0.dms").add("bytes_read", 1024)
        registry.digest("quiet")
        for value in (10.0, 20.0, 30.0):
            registry.observe("ate.latency", value)
        report = PerfReport(registry, elapsed_cycles=1000.0, clock_hz=1e9)
        text = report.render()
        assert "ate.latency: n=3" in text
        assert "quiet" not in text


# -- runtime.admission: degrade-path cycle accounting ------------------------


def _admit(engine, controller, tickets, site):
    def proc():
        ticket = yield from controller.acquire(site)
        tickets.append(ticket)
    engine.process(proc())


class TestDegradeCycleAccounting:
    def test_over_committed_admission_never_waits(self):
        """A saturated degrade admission runs *now*: zero waited
        cycles on the ticket and no wait_cycles counter — the cost is
        taken as reduced fanout, not as queueing delay."""
        engine = Engine()
        controller = AdmissionController(engine, max_concurrent=1,
                                         policy="degrade",
                                         degrade_scale=0.25)
        tickets = []
        for index in range(3):
            _admit(engine, controller, tickets, f"job{index}")
        engine.run()
        assert engine.now == 0.0  # nothing ever slept
        assert [t.degraded for t in tickets] == [False, True, True]
        assert all(t.waited_cycles == 0.0 for t in tickets)
        assert "wait_cycles" not in controller.counters
        assert controller.counters.get("degraded") == 2
        assert controller.counters.get("admitted") == 3

    def test_degraded_ticket_shrinks_fanout_floor_one(self):
        engine = Engine()
        controller = AdmissionController(engine, max_concurrent=1,
                                         policy="degrade",
                                         degrade_scale=0.25)
        tickets = []
        _admit(engine, controller, tickets, "a")
        _admit(engine, controller, tickets, "b")
        engine.run()
        full, degraded = tickets
        assert full.fanout(range(8)) == list(range(8))
        assert degraded.fanout(range(8)) == [0, 1]  # 8 * 0.25
        assert degraded.fanout([5]) == [5]  # never below one core

    def test_over_admissions_release_before_slots(self):
        """release() retires over-committed jobs first, so the peak
        accounting ends balanced and the slot frees last."""
        engine = Engine()
        controller = AdmissionController(engine, max_concurrent=1,
                                         policy="degrade")
        tickets = []
        _admit(engine, controller, tickets, "a")
        _admit(engine, controller, tickets, "b")
        engine.run()
        assert controller.occupancy()["over_admitted"] == 1
        assert controller.counters.get("running_peak") == 2
        controller.release()  # retires the over-admission
        assert "over_admitted" not in controller.occupancy()
        assert controller.limiter.running == 1
        controller.release()  # now the slot itself
        assert controller.limiter.running == 0

    def test_token_starved_degrade_takes_slot_but_marks_degraded(self):
        """Degrade triggered by the token bucket (slots free) must
        still consume a real slot — only *slot* saturation
        over-commits."""
        engine = Engine()
        controller = AdmissionController(engine, max_concurrent=4,
                                         rate_per_kcycle=0.001, burst=1.0,
                                         policy="degrade")
        tickets = []
        _admit(engine, controller, tickets, "a")  # takes the only token
        _admit(engine, controller, tickets, "b")  # token-starved
        engine.run()
        assert [t.degraded for t in tickets] == [False, True]
        assert controller.limiter.running == 2  # both hold real slots
        assert controller.occupancy().get("over_admitted") is None

    def test_degraded_sort_charges_more_cycles_for_same_bytes(self):
        """The governed-operator contract behind the policy: a
        degraded (spilling) sort returns byte-identical output and a
        strictly larger cycle bill."""
        from repro.apps.sql import Table, dpu_sort
        from repro.runtime.admission import MemoryGovernor

        rng = np.random.default_rng(9)
        values = rng.integers(0, 1 << 16, 8192).astype(np.int32)
        table = Table("t", {"v": values})

        eager_dpu = DPU()
        eager = dpu_sort(eager_dpu, table.to_dpu(eager_dpu), "v")

        tight_dpu = DPU()
        governor = MemoryGovernor(limit_bytes=128 * 1024)
        spilled = dpu_sort(tight_dpu, table.to_dpu(tight_dpu), "v",
                           governor=governor)

        assert spilled.value.tobytes() == eager.value.tobytes()
        assert spilled.value.tobytes() == np.sort(values).tobytes()
        assert spilled.cycles > eager.cycles
        assert spilled.detail.get("spill_segments", 0) > 1


# -- faults: replay-bound exhaustion -----------------------------------------


class TestCrcReplayExhaustion:
    @staticmethod
    def _run_poisoned(dpu):
        addr = dpu.store_array(np.zeros(64, dtype=np.uint64))

        def kernel(ctx):
            yield from stream_columns(ctx, [(addr, 8)], 64, 64,
                                      lambda *a: 8)

        dpu.launch(kernel, cores=[0])

    def test_exhaustion_error_carries_structured_context(self):
        dpu = DPU(fault_plan=FaultPlan(seed=2,
                                       rates={"dms.descriptor": 1.0}))
        with pytest.raises(DmsHardwareError) as excinfo:
            self._run_poisoned(dpu)
        error = excinfo.value
        retries = dpu.config.dms_crc_retries
        assert error.retry_count == retries + 1  # the bound, then fail
        assert error.site == "dmad[0].crc"
        assert error.sim_time is not None and error.sim_time > 0
        assert "channel_pending" in error.occupancy
        # The message embeds the same context for log consumers.
        assert f"retries={retries + 1}" in str(error)
        assert "site=dmad[0].crc" in str(error)

    def test_every_replay_up_to_the_bound_is_counted_and_billed(self):
        dpu = DPU(fault_plan=FaultPlan(seed=2,
                                       rates={"dms.descriptor": 1.0}))
        with pytest.raises(DmsHardwareError):
            self._run_poisoned(dpu)
        retries = dpu.config.dms_crc_retries
        assert dpu.counters.get("dmad.crc_replays") == retries + 1
        # Each replay before the fatal one burns setup + CRC-check
        # cycles in simulated time.
        per_replay = (dpu.config.dms_descriptor_setup_cycles
                      + dpu.config.dms_crc_check_cycles)
        assert dpu.engine.now >= retries * per_replay
        assert dpu.faults.fault_count("dms.descriptor") == retries + 1

    def test_bound_is_config_driven(self):
        from repro.core.config import DPUConfig

        config = DPUConfig(dms_crc_retries=1)
        dpu = DPU(config=config,
                  fault_plan=FaultPlan(seed=2,
                                       rates={"dms.descriptor": 1.0}))
        with pytest.raises(DmsHardwareError) as excinfo:
            self._run_poisoned(dpu)
        assert excinfo.value.retry_count == 2
        assert dpu.counters.get("dmad.crc_replays") == 2
