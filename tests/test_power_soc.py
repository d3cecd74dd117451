"""Tests for the power model, PMU, SoC configs and DPU launch plumbing."""

import numpy as np
import pytest

from repro.core import (
    DPU,
    DPU_16NM,
    DPU_40NM,
    PowerModel,
    PowerState,
    XEON_TDP_WATTS,
)
from repro.cluster import Cluster
from repro.core.pmu import PowerManagementUnit
from repro.sim import DeadlockError


class TestPowerModel:
    def test_breakdown_sums_to_provisioned(self):
        breakdown = PowerModel(DPU_40NM).breakdown()
        assert breakdown.total == pytest.approx(5.8, abs=0.05)

    def test_leakage_over_37_percent(self):
        # Paper §2.5: "Over 37% of our power goes towards leakage".
        fractions = PowerModel(DPU_40NM).breakdown().fractions()
        assert fractions["leakage"] > 0.37

    def test_dpcore_dynamic_51mw(self):
        breakdown = PowerModel(DPU_40NM).breakdown()
        assert breakdown.dpcores == pytest.approx(32 * 0.051, rel=1e-6)

    def test_perf_per_watt_uses_6w(self):
        model = PowerModel(DPU_40NM)
        assert model.comparison_watts == 6.0
        assert model.perf_per_watt(12.0) == 2.0

    def test_energy_accounting(self):
        model = PowerModel(DPU_40NM)
        # 800 M cycles = 1 second at provisioned power.
        assert model.energy_joules(800e6) == pytest.approx(5.8)

    def test_xeon_tdp_constant(self):
        assert XEON_TDP_WATTS == 145.0


class Test16nmShrink:
    def test_five_complexes_160_cores(self):
        assert DPU_16NM.num_complexes == 5
        assert DPU_16NM.total_cores == 160

    def test_bandwidth_76_gbps(self):
        total = DPU_16NM.ddr_peak_gbps * DPU_16NM.num_complexes
        assert total == pytest.approx(76.0, rel=0.01)

    def test_tdp_12w(self):
        assert DPU_16NM.tdp_watts == 12.0

    def test_efficiency_2_5x(self):
        # 5x compute+bandwidth for 2x power => 2.5x perf/watt.
        scale_perf = DPU_16NM.total_cores / DPU_40NM.total_cores
        scale_power = DPU_16NM.tdp_watts / DPU_40NM.tdp_watts
        assert scale_perf / scale_power == pytest.approx(2.5)

    def test_gather_bug_fixed_in_shrink(self):
        assert DPU_40NM.rtl_gather_bug
        assert not DPU_16NM.rtl_gather_bug


class TestPmu:
    def test_four_power_states(self):
        assert len(PowerState) == 4

    def test_power_gating_reduces_dynamic_power(self):
        pmu = PowerManagementUnit(DPU_40NM)
        full = pmu.effective_core_watts()
        pmu.set_macro_state(0, PowerState.OFF)
        pmu.set_macro_state(1, PowerState.IDLE)
        gated = pmu.effective_core_watts()
        assert gated < full
        assert pmu.active_cores() == 16
        assert pmu.state_of_core(0) is PowerState.OFF
        assert pmu.state_of_core(31) is PowerState.ACTIVE

    def test_bad_macro_rejected(self):
        pmu = PowerManagementUnit(DPU_40NM)
        with pytest.raises(ValueError):
            pmu.set_macro_state(4, PowerState.OFF)


class TestDpuLaunch:
    def test_store_load_array_roundtrip(self):
        dpu = DPU()
        data = np.arange(100, dtype=np.int64)
        address = dpu.store_array(data)
        assert np.array_equal(dpu.load_array(address, 100, np.int64), data)

    def test_launch_result_rates(self):
        dpu = DPU()

        def kernel(ctx):
            yield from ctx.compute(800)  # 1 us at 800 MHz

        result = dpu.launch(kernel, cores=[0])
        assert result.seconds == pytest.approx(1e-6)
        assert result.gbps(1000) == pytest.approx(1.0, rel=0.01)
        assert result.rate_per_second(100) == pytest.approx(1e8, rel=0.01)

    def test_sequential_launches_share_engine_time(self):
        dpu = DPU()

        def kernel(ctx):
            yield from ctx.compute(100)

        first = dpu.launch(kernel, cores=[0])
        second = dpu.launch(kernel, cores=[0])
        assert second.start_cycle >= first.end_cycle
        assert second.cycles == pytest.approx(first.cycles)

    def test_macro_of(self):
        assert DPU_40NM.macro_of(0) == 0
        assert DPU_40NM.macro_of(7) == 0
        assert DPU_40NM.macro_of(8) == 1
        assert DPU_40NM.macro_of(31) == 3


class TestLaunchBudget:
    """``limit_cycles`` is a budget counted from the call, not a time
    on the engine clock: a launch or cluster run that starts late gets
    the same room as one that starts at cycle 0."""

    @staticmethod
    def _kernel(ctx, cycles):
        yield from ctx.compute(cycles)
        return ctx.core_id

    def test_launch_budget_counts_from_the_call(self):
        dpu = DPU()
        dpu.engine.advance(300_000)
        result = dpu.launch(self._kernel, args=(100,), cores=[0],
                            limit_cycles=200_000)
        assert result.values == [0]
        assert (result.start_cycle, result.end_cycle) == (300_000, 300_100)

    def test_launch_past_its_budget_still_stops(self):
        dpu = DPU()
        dpu.engine.advance(300_000)
        with pytest.raises(DeadlockError, match="limit of 500000"):
            dpu.launch(self._kernel, args=(250_000,), cores=[0],
                       limit_cycles=200_000)

    def test_cluster_run_budget_counts_from_the_call(self):
        cluster = Cluster(2)
        cluster.engine.advance(300_000)
        processes = [
            process
            for dpu in cluster.dpus
            for process in dpu.spawn_kernels(self._kernel, args=(100,),
                                             cores=[1])
        ]
        assert cluster.run(processes, limit_cycles=200_000) == [1, 1]
        assert cluster.engine.now == 300_100
