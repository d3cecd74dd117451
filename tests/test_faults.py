"""Tests for the fault-injection framework and the recovery paths.

Everything here is seeded and deterministic: a test that passes once
passes forever, because all nondeterminism flows through the per-site
PCG64 streams of :class:`repro.faults.FaultInjector`.
"""

import numpy as np
import pytest

from repro.apps.streaming import stream_columns
from repro.ate import AteError
from repro.core import DPU
from repro.dms.dmac import DmsHardwareError
from repro.faults import FAULT_SITES, FaultError, FaultInjector, FaultPlan
from repro.memory import MachineCheckError, SecdedEcc, classify_flips
from repro.runtime import WorkQueue, resilient_launch, surviving_cores
from repro.sim import DeadlockError, Engine, SimulationError, Watchdog


# -- FaultPlan ----------------------------------------------------------------


class TestFaultPlan:
    def test_none_is_disabled(self):
        plan = FaultPlan.none()
        assert not plan.enabled
        for site in FAULT_SITES:
            assert plan.rate(site) == 0.0

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultError, match="unknown fault site"):
            FaultPlan(rates={"cosmic.ray": 0.1})
        with pytest.raises(FaultError, match="unknown fault site"):
            FaultPlan.none().rate("cosmic.ray")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(FaultError, match="must be in"):
            FaultPlan(rates={"ddr.bitflip": 1.5})

    def test_with_rates_spells_dots_as_double_underscore(self):
        plan = FaultPlan.none().with_rates(ddr__bitflip=1e-6, net__drop=0.5)
        assert plan.rate("ddr.bitflip") == 1e-6
        assert plan.rate("net.drop") == 0.5
        assert plan.enabled

    def test_uniform_covers_all_sites(self):
        plan = FaultPlan.uniform(1e-3, seed=7)
        assert all(plan.rate(site) == 1e-3 for site in FAULT_SITES)


class TestInjectorDeterminism:
    def test_same_seed_same_draws(self):
        a = FaultInjector(FaultPlan.uniform(0.3, seed=11))
        b = FaultInjector(FaultPlan.uniform(0.3, seed=11))
        assert [a.roll("net.drop") for _ in range(64)] == [
            b.roll("net.drop") for _ in range(64)
        ]

    def test_different_seed_different_draws(self):
        a = FaultInjector(FaultPlan.uniform(0.3, seed=11))
        b = FaultInjector(FaultPlan.uniform(0.3, seed=12))
        assert [a.roll("net.drop") for _ in range(256)] != [
            b.roll("net.drop") for _ in range(256)
        ]

    def test_sites_draw_from_independent_streams(self):
        """Consuming one site's stream must not perturb another's."""
        quiet = FaultInjector(FaultPlan.uniform(0.3, seed=5))
        noisy = FaultInjector(FaultPlan.uniform(0.3, seed=5))
        for _ in range(1000):  # burn an unrelated site's stream
            noisy.roll("ate.drop")
        assert [quiet.roll("net.drop") for _ in range(64)] == [
            noisy.roll("net.drop") for _ in range(64)
        ]

    def test_disabled_site_never_touches_rng(self):
        injector = FaultInjector(FaultPlan.none().with_rates(net__drop=1.0))
        assert not injector.roll("ddr.bitflip")
        assert injector.count("ddr.bitflip", 10_000) == 0
        assert "ddr.bitflip" not in injector._streams
        assert injector.roll("net.drop")

    def test_same_plan_same_trace_and_timing_end_to_end(self):
        """Two runs of one faulty workload: identical fault trace
        (site, cycle, detail) and identical final cycle count."""
        plan = FaultPlan(seed=8, rates={"ate.drop": 0.2,
                                        "dms.descriptor": 0.2})
        data = np.arange(2048, dtype=np.uint64)

        def run():
            dpu = DPU(fault_plan=plan)
            addr = dpu.store_array(data)
            address = dpu.address_map.dmem_address(3, 0)

            def kernel(ctx):
                yield from stream_columns(ctx, [(addr, 8)], 2048, 512,
                                          lambda *a: 8)
                for _ in range(8):
                    yield from ctx.fetch_add(3, address, 1)

            launch = dpu.launch(kernel, cores=[0, 1])
            return launch.cycles, dpu.faults.trace

        first_cycles, first_trace = run()
        second_cycles, second_trace = run()
        assert first_trace  # the plan actually fired
        assert first_trace == second_trace
        assert first_cycles == second_cycles

    def test_trace_records_hits(self):
        injector = FaultInjector(FaultPlan.none().with_rates(net__drop=1.0))
        injector.roll("net.drop", detail="link 0->1")
        assert injector.fault_count() == 1
        assert injector.fault_count("net.drop") == 1
        assert injector.fault_count("ate.drop") == 0
        assert injector.trace[0].detail == "link 0->1"


# -- SECDED ECC ---------------------------------------------------------------


class TestEcc:
    def test_classify_single_flips_corrected(self):
        corrected, bad = classify_flips([5, 70, 200])  # words 0, 1, 3
        assert corrected == 3
        assert list(bad) == []

    def test_classify_double_flip_in_one_word_uncorrectable(self):
        corrected, bad = classify_flips([65, 70, 5])  # two flips in word 1
        assert corrected == 1
        assert list(bad) == [1]

    def test_single_flips_charge_scrub_latency(self):
        injector = FaultInjector(
            FaultPlan(seed=3, rates={"ddr.bitflip": 2e-4})
        )
        ecc = SecdedEcc(injector, scrub_cycles=6.0)
        for _ in range(400):
            before = ecc.corrected
            try:
                latency = ecc.check(0, 64)  # 512 bits per transfer
            except MachineCheckError:
                continue  # a rare same-word double; not under test here
            assert latency == (ecc.corrected - before) * 6.0
        assert ecc.corrected > 0

    def test_double_flip_raises_machine_check(self):
        injector = FaultInjector(FaultPlan(seed=3, rates={"ddr.bitflip": 0.5}))
        ecc = SecdedEcc(injector, scrub_cycles=6.0)
        with pytest.raises(MachineCheckError):
            ecc.check(0x1000, 8)  # ~32 of 64 bits flip: hopeless
        assert ecc.uncorrectable >= 1

    def test_dpu_streaming_survives_correctable_flips(self):
        """End to end: bit flips on DDR reads are scrubbed, the
        streamed bytes are exact, and the run costs extra cycles."""
        rows = 4096
        data = np.arange(rows, dtype=np.uint64)

        def run(plan):
            dpu = DPU(fault_plan=plan)
            addr = dpu.store_array(data)
            seen = []

            def kernel(ctx):
                yield from stream_columns(
                    ctx, [(addr, 8)], rows, 512,
                    lambda tile, lo, hi, arrays: seen.append(
                        arrays[0].copy()
                    ) or 8,
                )

            launch = dpu.launch(kernel, cores=[0])
            return dpu, np.concatenate(seen), launch.cycles

        clean_dpu, clean_bytes, clean_cycles = run(FaultPlan.none())
        plan = FaultPlan(seed=4, rates={"ddr.bitflip": 1e-5})
        faulty_dpu, faulty_bytes, faulty_cycles = run(plan)

        assert faulty_dpu.ddr_channel.ecc.corrected > 0
        assert np.array_equal(faulty_bytes, data)
        assert np.array_equal(clean_bytes, data)
        assert faulty_cycles > clean_cycles


# -- DMS descriptor validation ------------------------------------------------


class TestDmsDescriptorCrc:
    def test_corrupted_descriptors_replay_and_stream_stays_exact(self):
        rows = 4096
        data = np.arange(rows, dtype=np.uint64) * 3
        plan = FaultPlan(seed=3, rates={"dms.descriptor": 0.2})
        dpu = DPU(fault_plan=plan)
        addr = dpu.store_array(data)
        seen = []

        def kernel(ctx):
            yield from stream_columns(
                ctx, [(addr, 8)], rows, 512,
                lambda tile, lo, hi, arrays: seen.append(arrays[0].copy())
                or 8,
            )

        dpu.launch(kernel, cores=[0])
        assert np.array_equal(np.concatenate(seen), data)
        assert dpu.counters.get("dmad.crc_replays") > 0
        assert dpu.faults.fault_count("dms.descriptor") > 0

    def test_persistent_corruption_exhausts_retries(self):
        plan = FaultPlan(seed=2, rates={"dms.descriptor": 1.0})
        dpu = DPU(fault_plan=plan)
        addr = dpu.store_array(np.zeros(64, dtype=np.uint64))

        def kernel(ctx):
            yield from stream_columns(
                ctx, [(addr, 8)], 64, 64, lambda *a: 8
            )

        with pytest.raises(DmsHardwareError, match="CRC"):
            dpu.launch(kernel, cores=[0])


# -- ATE retry protocol -------------------------------------------------------


class TestAteRetry:
    def test_drops_are_retried_and_atomics_stay_exactly_once(self):
        """Lossy crossbar, exact counter: sequence numbers + the reply
        cache dedup retransmitted fetch-adds."""
        plan = FaultPlan(seed=4, rates={"ate.drop": 0.15})
        dpu = DPU(fault_plan=plan)
        address = dpu.address_map.dmem_address(0, 0)

        def kernel(ctx):
            for _ in range(8):
                yield from ctx.fetch_add(0, address, 1)

        dpu.launch(kernel, cores=[0, 1, 2, 3])
        assert dpu.scratchpads[0].read_u64(0) == 32
        assert dpu.counters.get("ate.dropped") > 0
        assert dpu.counters.get("ate.retries") > 0

    def test_delay_faults_slow_but_complete(self):
        def run(plan):
            dpu = DPU(fault_plan=plan)
            address = dpu.address_map.dmem_address(5, 8)

            def kernel(ctx):
                for _ in range(16):
                    yield from ctx.fetch_add(5, address, 1)

            launch = dpu.launch(kernel, cores=[0])
            return dpu, launch.cycles

        _clean, clean_cycles = run(FaultPlan.none())
        dpu, slow_cycles = run(FaultPlan(seed=6, rates={"ate.delay": 0.5}))
        assert dpu.scratchpads[5].read_u64(8) == 16
        assert slow_cycles > clean_cycles

    def test_total_loss_exhausts_retries_with_ate_error(self):
        plan = FaultPlan(seed=4, rates={"ate.drop": 1.0})
        dpu = DPU(fault_plan=plan)
        address = dpu.address_map.dmem_address(1, 0)

        def kernel(ctx):
            yield from ctx.remote_load(1, address)

        with pytest.raises(AteError, match="gave up"):
            dpu.launch(kernel, cores=[0])
        assert dpu.counters.get("ate.retries") >= dpu.config.ate_rpc_max_retries


# -- Core failover ------------------------------------------------------------


class TestFailover:
    def test_surviving_cores_disabled_returns_all(self):
        injector = FaultInjector(FaultPlan.none())
        assert surviving_cores(injector, range(8)) == list(range(8))

    def test_at_least_one_core_survives_total_death(self):
        injector = FaultInjector(FaultPlan(seed=1, rates={"core.dead": 1.0}))
        assert surviving_cores(injector, [4, 9, 17]) == [4]

    def test_work_redistributes_to_survivors(self):
        """A WorkQueue kernel drains every chunk no matter which cores
        die — the fetch-add cursor is the failover mechanism."""
        num_chunks = 48

        def run(plan):
            dpu = DPU(fault_plan=plan)
            queue = WorkQueue(dpu, owner=0, dmem_offset=0,
                              num_chunks=num_chunks)

            def kernel(ctx):
                claimed = []
                while True:
                    chunk = yield from queue.claim(ctx)
                    if chunk is None:
                        return claimed
                    claimed.append(chunk)
                    yield from ctx.compute(100)

            launch = resilient_launch(dpu, kernel, cores=range(8))
            return dpu, launch

        clean_dpu, clean = run(FaultPlan.none())
        dead_dpu, degraded = run(FaultPlan(seed=13, rates={"core.dead": 0.4}))

        dead = dead_dpu.counters.get("runtime.dead_cores")
        assert 0 < dead < 8
        assert len(degraded.values) == 8 - dead
        # Every chunk processed exactly once in both worlds.
        assert sorted(sum(clean.values, [])) == list(range(num_chunks))
        assert sorted(sum(degraded.values, [])) == list(range(num_chunks))
        assert degraded.cycles > clean.cycles  # fewer cores, same work


# -- Watchdog and failure surfacing ------------------------------------------


class TestWatchdog:
    def test_two_process_wait_cycle_is_diagnosed(self):
        engine = Engine()
        first = engine.event()
        second = engine.event()

        def a():
            yield second
            first.succeed()

        def b():
            yield first
            second.succeed()

        process = engine.process(a(), name="proc-a")
        engine.process(b(), name="proc-b")
        with pytest.raises(DeadlockError, match="deadlock") as info:
            engine.run_until_complete(process)
        names = [p.name for p in info.value.blocked]
        assert "proc-a" in names and "proc-b" in names
        assert "proc-a" in str(info.value)

    def test_event_budget_converts_livelock_to_error(self):
        engine = Engine()
        engine.watchdog = Watchdog(max_events=5000)

        def spin():
            while True:  # no exit condition: would run forever
                yield engine.timeout(1)

        engine.process(spin(), name="spinner")
        with pytest.raises(DeadlockError, match="livelock"):
            engine.run()

    def test_watchdog_silent_when_budget_suffices(self):
        engine = Engine()
        engine.watchdog = Watchdog(max_events=5000)

        def worker():
            for _ in range(10):
                yield engine.timeout(1)
            return "done"

        assert engine.run_until_complete(engine.process(worker())) == "done"

    def test_daemons_excluded_from_blocked_report(self):
        engine = Engine()
        gate = engine.event()

        def service():
            yield engine.event()  # waits forever, by design

        def stuck():
            yield gate

        engine.process(service(), name="svc", daemon=True)
        engine.process(stuck(), name="stuck")
        engine.run()  # drains: nothing runnable, nothing failed
        names = [p.name for p in engine.blocked_processes()]
        assert names == ["stuck"]


class TestUnobservedFailures:
    def test_failed_event_with_no_waiter_surfaces_at_run_end(self):
        engine = Engine()
        doomed = engine.event()

        def worker():
            yield engine.timeout(5)
            doomed.fail(ValueError("lost failure"))

        engine.process(worker())
        with pytest.raises(SimulationError, match="never observed"):
            engine.run()

    def test_observed_failure_is_not_double_reported(self):
        engine = Engine()
        doomed = engine.event()

        def failer():
            yield engine.timeout(5)
            doomed.fail(ValueError("caught failure"))

        def waiter():
            try:
                yield doomed
            except ValueError:
                return "handled"

        engine.process(failer())
        process = engine.process(waiter())
        assert engine.run_until_complete(process) == "handled"


# -- Zero-overhead-off regression --------------------------------------------


class TestZeroOverheadOff:
    def test_disabled_plan_reproduces_seed_timings_exactly(self):
        """FaultPlan.none() must take the original code path: same end
        cycle, same stats, bit-identical bytes as no plan at all."""
        rows = 2048
        data = np.arange(rows, dtype=np.uint64)

        def run(**kwargs):
            dpu = DPU(**kwargs)
            addr = dpu.store_array(data)
            address = dpu.address_map.dmem_address(2, 0)

            def kernel(ctx):
                yield from stream_columns(
                    ctx, [(addr, 8)], rows, 512, lambda *a: 8, dmem_base=64
                )
                for _ in range(4):
                    yield from ctx.fetch_add(2, address, 1)

            launch = dpu.launch(kernel, cores=[0, 1])
            return launch.cycles, dpu.counters.counters()

        seed_cycles, seed_stats = run()
        off_cycles, off_stats = run(fault_plan=FaultPlan.none())
        assert off_cycles == seed_cycles
        assert off_stats == seed_stats
