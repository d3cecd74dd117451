"""Admission control, load shedding, and memory-grant degradation.

Covers the software end of the backpressure chain
(:mod:`repro.runtime.admission`): token bucket and concurrency
limiter mechanics, the three admission policies, the memory governor,
the DPU launch gate, and the pinned zero-overhead regressions — with
no controller attached, timings must be bit-identical to the seed.
"""

import numpy as np
import pytest

from repro.apps.disparity import compute_disparity_reference, dpu_disparity
from repro.apps.hll import dpu_hll
from repro.apps.jsonparse import dpu_parse_json
from repro.apps.simsearch import build_tiled_index, dpu_simsearch
from repro.apps.sql import Between, Table
from repro.apps.sql.aggregate import AggSpec, DmemBudget, dpu_groupby
from repro.apps.sql.filter import dpu_filter, dpu_scan_project
from repro.apps.sql.join import dpu_partitioned_join_count
from repro.apps.sql.sort import dpu_sort
from repro.apps.sql.topk import dpu_topk
from repro.apps.streaming import stream_columns
from repro.apps.svm import dpu_svm_train
from repro.core.dpu import DPU
from repro.runtime.admission import (
    Admission,
    AdmissionController,
    ConcurrencyLimiter,
    MemoryGovernor,
    OverloadError,
    TokenBucket,
)
from repro.sim import Engine
from repro.workloads.corpus import generate_corpus
from repro.workloads.higgs import generate_higgs_like
from repro.workloads.jsondata import generate_lineitem_json
from repro.workloads.stereo import generate_stereo_pair


# -- token bucket ----------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_depletes(self):
        bucket = TokenBucket(rate_per_kcycle=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate_per_kcycle=1.0, burst=1.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(500.0)  # half a token
        assert bucket.try_take(1000.0)

    def test_cycles_until_available_is_deterministic(self):
        bucket = TokenBucket(rate_per_kcycle=2.0, burst=1.0)
        assert bucket.try_take(0.0)
        # 1 token at 2/kcycle => 500 cycles.
        assert bucket.cycles_until_available(0.0) == pytest.approx(500.0)

    def test_oversized_request_is_never_available(self):
        bucket = TokenBucket(rate_per_kcycle=1.0, burst=1.0)
        assert bucket.cycles_until_available(0.0, cost=2.0) == float("inf")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_kcycle=-1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_kcycle=1.0, burst=0.0)


class TestConcurrencyLimiter:
    def test_counts_running_and_queued(self):
        engine = Engine()
        limiter = ConcurrencyLimiter(engine, 2)
        assert limiter.limit == 2

        def job(hold):
            yield limiter.acquire()
            yield hold
            limiter.release()

        hold = engine.event()
        for _ in range(3):
            engine.process(job(hold))
        engine.run(until=0)
        assert limiter.running == 2 and limiter.queued == 1
        hold.succeed()
        engine.run()
        assert limiter.running == 0 and limiter.queued == 0


# -- the controller's three policies ---------------------------------------


def _acquire(engine, controller, site="job"):
    process = engine.process(controller.acquire(site))
    return engine.run_until_complete(process)


class TestShedPolicy:
    def test_sheds_when_slots_busy_with_context(self):
        engine = Engine()
        controller = AdmissionController(engine, max_concurrent=1,
                                         policy="shed")
        _acquire(engine, controller)
        with pytest.raises(OverloadError) as info:
            _acquire(engine, controller, site="q2")
        error = info.value
        assert error.site == "q2"
        assert error.limit == 1
        assert error.occupancy["running"] == 1
        assert controller.shed == 1
        controller.release()
        assert _acquire(engine, controller).degraded is False

    def test_sheds_on_empty_token_bucket(self):
        engine = Engine()
        controller = AdmissionController(
            engine, max_concurrent=8, rate_per_kcycle=1.0, burst=1.0,
            policy="shed",
        )
        _acquire(engine, controller)
        with pytest.raises(OverloadError, match="arrival rate"):
            _acquire(engine, controller)


class TestQueuePolicy:
    def test_waits_for_token_in_simulated_time(self):
        engine = Engine()
        controller = AdmissionController(
            engine, max_concurrent=8, rate_per_kcycle=1.0, burst=1.0,
            policy="queue",
        )
        first = _acquire(engine, controller)
        assert first.waited_cycles == 0.0
        second = _acquire(engine, controller)
        assert second.waited_cycles == pytest.approx(1000.0)
        assert engine.now == pytest.approx(1000.0)

    def test_bounded_queue_sheds_past_depth(self):
        engine = Engine()
        controller = AdmissionController(
            engine, max_concurrent=1, policy="queue", max_queue_depth=1
        )

        def job():
            ticket = yield from controller.acquire("held")
            yield engine.event()  # never released
            return ticket

        engine.process(job())
        engine.process(job())  # queued (depth 1)
        engine.run(until=0)
        with pytest.raises(OverloadError, match="queue full"):
            _acquire(engine, controller)


class TestDegradePolicy:
    def test_saturated_admission_over_commits_at_reduced_fanout(self):
        engine = Engine()
        controller = AdmissionController(
            engine, max_concurrent=1, policy="degrade", degrade_scale=0.5
        )
        full = _acquire(engine, controller)
        assert not full.degraded
        assert full.fanout([0, 1, 2, 3]) == [0, 1, 2, 3]
        reduced = _acquire(engine, controller)
        assert reduced.degraded
        assert reduced.fanout([0, 1, 2, 3]) == [0, 1]
        assert reduced.fanout([7]) == [7]  # at least one core kept
        assert controller.occupancy()["over_admitted"] == 1
        controller.release()  # retires the over-admission first
        controller.release()
        assert controller.occupancy()["running"] == 0

    def test_ticket_dataclass_defaults(self):
        ticket = Admission(site="s")
        assert ticket.fanout([1, 2]) == [1, 2]
        assert not ticket.degraded


# -- memory governor -------------------------------------------------------


class TestMemoryGovernor:
    def test_grant_and_release_budget(self):
        governor = MemoryGovernor(1000)
        assert governor.try_grant(600)
        assert not governor.try_grant(600)
        assert governor.denials == 1
        governor.release_grant(600)
        assert governor.try_grant(600)

    def test_grant_or_largest_floors_and_scales(self):
        governor = MemoryGovernor(1000)
        assert governor.grant_or_largest(800, floor=100) == 800
        # 200 left: largest multiple of 150 that fits is the floor.
        assert governor.grant_or_largest(700, floor=150) == 150
        governor.release_grant(950)
        # Largest multiple of 300 inside 1000 is 900.
        assert governor.grant_or_largest(5000, floor=300) == 900

    def test_release_more_than_granted_raises(self):
        governor = MemoryGovernor(1000)
        governor.try_grant(100)
        with pytest.raises(ValueError):
            governor.release_grant(200)

    def test_snapshot_shape(self):
        governor = MemoryGovernor(1000)
        governor.try_grant(100)
        snap = governor.stats_snapshot()
        assert snap == {"limit_bytes": 1000, "granted_bytes": 100,
                        "denials": 0}


# -- DPU launch gate -------------------------------------------------------


def _noop_kernel(ctx):
    yield from ctx.compute(10)
    return ctx.core_id


def _gate_table():
    """The 4,000-row table the launch-gate and grant tests run on: a
    4-group ``g``, a 0-99 ``v`` and a permutation ``w`` (seed 0)."""
    rng = np.random.default_rng(0)
    return Table("t", {
        "g": rng.integers(0, 4, 4000).astype(np.int32),
        "v": rng.integers(0, 100, 4000).astype(np.int32),
        "w": rng.permutation(4000).astype(np.int32),
    })


# Probe side of the partitioned joins against ``_gate_table``'s ``w``.
_PROBE = Table("p", {"k": np.random.default_rng(1).integers(
    0, 5000, 3000).astype(np.int32)})


class TestDpuLaunchGate:
    def test_shed_policy_raises_typed_error(self):
        dpu = DPU()
        controller = AdmissionController(dpu.engine, max_concurrent=1,
                                         policy="shed")
        dpu.set_admission(controller)
        _acquire(dpu.engine, controller, site="hog")
        with pytest.raises(OverloadError) as info:
            dpu.launch(_noop_kernel, cores=[0, 1])
        assert info.value.site.startswith("dpu.launch:")
        controller.release()
        launch = dpu.launch(_noop_kernel, cores=[0, 1])
        assert launch.values == [0, 1]

    def test_degrade_policy_shrinks_fanout(self):
        dpu = DPU()
        controller = AdmissionController(dpu.engine, max_concurrent=1,
                                         policy="degrade")
        dpu.set_admission(controller)
        _acquire(dpu.engine, controller, site="hog")
        launch = dpu.launch(_noop_kernel, cores=[0, 1, 2, 3])
        assert launch.values == [0, 1]  # half the requested cores
        controller.release()

    @staticmethod
    def _ungated_then_degraded(op, store=None, cycles_move=True,
                               first_degrades=False):
        """``op(dpu, stored)`` on an ungated DPU, then twice on a DPU
        whose ``degrade`` controller holds one token: the first call
        takes it and the second runs on 16 of the 32 cores. ``stored``
        is what ``store(dpu)`` returns: by default one 4,000-row table
        stored on that DPU. Kernels split their work and count their
        messages over the launch's cores (``ctx.cores``), not the
        DPU's. The degraded run's cycles differ from the ungated ones,
        or equal them with ``cycles_move=False`` (work that already
        ran on no more than 16 cores). With ``first_degrades`` the
        operator launches more than once, so the first call's later
        launches find the token taken too, and only its value is the
        ungated one."""
        if store is None:
            store = _gate_table().to_dpu
        ungated = DPU()
        expected = op(ungated, store(ungated))
        dpu = DPU()
        controller = AdmissionController(dpu.engine, max_concurrent=1,
                                         rate_per_kcycle=0.001,
                                         policy="degrade")
        dpu.set_admission(controller)
        stored = store(dpu)
        first = op(dpu, stored)  # takes the one token
        second = op(dpu, stored)  # runs on 16 cores
        if first_degrades:
            assert controller.counters.get("degraded") > 1
        else:
            assert controller.counters.get("degraded") == 1
            assert first.cycles == expected.cycles
        assert (second.cycles != expected.cycles) == cycles_move
        return expected, first, second

    def test_degraded_hw_groupby_equals_ungated(self):
        # 4,000 groups need the hardware partition path: 16 targets.
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, dtable: dpu_groupby(dpu, dtable, "w",
                                            [AggSpec("sum", "v")],
                                            ndv_hint=4000))
        assert expected.detail["partitions_needed"] <= 32
        assert len(expected.value) == 4000
        assert first.value == expected.value
        assert second.value == expected.value

    def test_degraded_partitioned_join_equals_ungated(self):
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, dtable: dpu_partitioned_join_count(
                dpu, dtable, "w", _PROBE.to_dpu(dpu), "k"))
        build = _gate_table().column("w")
        assert expected.value == int(np.isin(_PROBE.column("k"), build).sum())
        assert first.value == expected.value
        assert second.value == expected.value

    def test_degraded_sort_equals_ungated(self):
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, dtable: dpu_sort(dpu, dtable, "w"))
        assert np.array_equal(expected.value, np.arange(4000))
        assert np.array_equal(first.value, expected.value)
        assert np.array_equal(second.value, expected.value)
        assert (expected.detail["bounds"], second.detail["bounds"]) == (32, 16)

    def test_degraded_sw_round_groupby_equals_ungated(self):
        # 200,000 groups need the software round; its 32 bucket
        # launches each pass the gate.
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, dtable: dpu_groupby(dpu, dtable, "w",
                                            [AggSpec("sum", "v")],
                                            ndv_hint=200_000),
            first_degrades=True)
        assert expected.detail["partitions_needed"] > 32
        assert first.value == expected.value
        assert second.value == expected.value

    def test_degraded_low_ndv_groupby_equals_ungated(self):
        aggs = [AggSpec("sum", "v"), AggSpec("count")]
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, dtable: dpu_groupby(dpu, dtable, "g", aggs))
        assert first.value == expected.value
        assert second.value == expected.value

    def test_degraded_filter_equals_ungated(self):
        predicate = Between("v", 0, 40)
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, dtable: dpu_filter(dpu, dtable, predicate))
        assert np.array_equal(first.value, expected.value)
        assert np.array_equal(second.value, expected.value)
        assert second.detail["selected"] == 1661

    def test_degraded_scan_project_equals_ungated(self):
        row_filter = Between("v", 0, 40)

        def project(columns):
            return columns["v"].astype(np.int64) * 3 + 1

        expected, first, second = self._ungated_then_degraded(
            lambda dpu, dtable: dpu_scan_project(dpu, dtable, row_filter,
                                                 project, np.int64))
        assert np.array_equal(first.value, expected.value)
        assert np.array_equal(second.value, expected.value)

    def test_degraded_topk_equals_ungated(self):
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, dtable: dpu_topk(dpu, dtable, "w", 10))
        assert [value for value, _row in expected.value] == [
            float(3999 - i) for i in range(10)]
        assert first.value == expected.value
        assert second.value == expected.value

    def test_degraded_parse_json_equals_ungated(self):
        data = generate_lineitem_json(num_records=2000, seed=0)
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, address: dpu_parse_json(dpu, address, data),
            store=lambda dpu: dpu.store_array(
                np.frombuffer(data, dtype=np.uint8)))
        assert len(expected.value) == 2000
        assert first.value == expected.value
        assert second.value == expected.value

    def test_degraded_simsearch_equals_ungated(self):
        workload = generate_corpus(num_docs=2000, num_queries=16)
        tiled = build_tiled_index(workload.index, tile_docs=32)
        assert tiled.num_tiles == 63
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, address: dpu_simsearch(dpu, workload, tiled,
                                               address),
            store=lambda dpu: dpu.store_array(tiled.postings))
        assert first.value == expected.value
        assert second.value == expected.value

    def test_degraded_hll_equals_ungated(self):
        values = np.random.default_rng(0).integers(
            0, 2**63, 20_000, dtype=np.uint64)
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, address: dpu_hll(dpu, address, len(values),
                                         host_values=values),
            store=lambda dpu: dpu.store_array(values))
        assert first.value == expected.value
        assert second.value == expected.value
        assert np.array_equal(second.detail["registers"],
                              expected.detail["registers"])

    def test_degraded_svm_equals_ungated(self):
        dataset = generate_higgs_like(num_samples=512, seed=7)
        expected, first, second = self._ungated_then_degraded(
            lambda dpu, _stored: dpu_svm_train(dpu, dataset,
                                               max_iterations=10),
            store=lambda dpu: None)
        for result in (first, second):
            assert np.array_equal(result.value.weights,
                                  expected.value.weights)
            assert result.value.bias == expected.value.bias
            assert result.detail == expected.detail

    @staticmethod
    def _disparity(pair, variant, cycles_move=True):
        return TestDpuLaunchGate._ungated_then_degraded(
            lambda dpu, addrs: dpu_disparity(dpu, pair, addrs,
                                             variant=variant),
            store=lambda dpu: (dpu.store_array(pair.left),
                               dpu.store_array(pair.right)),
            cycles_move=cycles_move)

    @pytest.mark.parametrize("variant", ["fine", "coarse"])
    def test_degraded_disparity_equals_ungated(self, variant):
        # The coarse variant's nine shifts run on nine cores either way.
        pair = generate_stereo_pair(rows=48, cols=64, max_shift=8, seed=5)
        expected, first, second = self._disparity(
            pair, variant, cycles_move=variant == "fine")
        assert np.array_equal(expected.value,
                              compute_disparity_reference(pair))
        assert np.array_equal(first.value, expected.value)
        assert np.array_equal(second.value, expected.value)

    def test_coarse_disparity_with_more_shifts_than_cores(self):
        # 41 shifts on 32 (and, degraded, 16) cores: the cores take the
        # shifts in stride.
        pair = generate_stereo_pair(rows=24, cols=128, max_shift=40, seed=5)
        expected, first, second = self._disparity(pair, "coarse")
        reference = compute_disparity_reference(pair)
        for result in (expected, first, second):
            assert np.array_equal(result.value, reference)

    def test_launch_processes_run_gated_jobs_concurrently(self):
        dpu = DPU()
        controller = AdmissionController(dpu.engine, max_concurrent=2,
                                         policy="queue")
        dpu.set_admission(controller)
        engine = dpu.engine
        jobs = [engine.process(dpu.launch_steps(_noop_kernel, cores=[0, 1]))
                for _ in range(5)]
        results = engine.run_until_complete(engine.all_of(jobs))
        assert [result.values for result in results] == [[0, 1]] * 5
        assert controller.admitted == 5
        assert controller.counters.get("running_peak") == 2


# -- each decision counted once, in the registry ---------------------------


class TestDecisionCounters:
    def test_dpu_controller_files_under_the_dpu(self):
        dpu = DPU()
        controller = AdmissionController(dpu.engine, max_concurrent=1,
                                         policy="shed")
        dpu.set_admission(controller)
        hub = dpu.enable_metrics(cadence=200.0)
        dpu.launch(_noop_kernel, cores=[0])
        _acquire(dpu.engine, controller, site="hog")
        with pytest.raises(OverloadError):
            dpu.launch(_noop_kernel, cores=[0])
        controller.release()
        dpu.launch(_noop_kernel, cores=[0])
        snapshot = dpu.counter_registry().snapshot()
        assert {path: value for path, value in snapshot.items()
                if path.startswith("dpu0.admission.")} == {
            "dpu0.admission.admitted": 3.0,
            "dpu0.admission.degraded": 0.0,
            "dpu0.admission.queue_peak": 1.0,
            "dpu0.admission.running_peak": 1.0,
            "dpu0.admission.shed": 1.0,
        }
        assert (controller.admitted, controller.shed) == (3, 1)
        # The sampler reads the store: both decision counters are there
        # from the first sample on.
        first = hub.series["dpu0.admission.shed"].points[0]
        assert first == (0.0, 0.0)
        assert hub.series["dpu0.admission.degraded"].points[0] == first
        assert hub.latest("dpu0.admission.shed") == 1.0

    def test_cluster_controller_files_at_the_top(self):
        from repro.cluster import Cluster, cluster_filter_count

        cluster = Cluster(2)
        controller = cluster.set_admission(AdmissionController(
            cluster.engine, max_concurrent=1))
        hub = cluster.enable_metrics(cadence=5_000.0)
        shards = [np.arange(1000, dtype=np.int64) for _ in range(2)]
        for _ in range(3):
            cluster_filter_count(cluster, shards, 100, 500)
        snapshot = cluster.counter_registry().snapshot()
        assert {path: value for path, value in snapshot.items()
                if "admission" in path} == {
            "admission.admitted": 3.0,
            "admission.degraded": 0.0,
            "admission.queue_peak": 1.0,
            "admission.running_peak": 1.0,
            "admission.shed": 0.0,
        }
        assert controller.admitted == 3
        assert hub.latest("admission.admitted") == 3.0

    def test_governor_counts_denials_once(self):
        governor = MemoryGovernor(1000)
        assert governor.try_grant(800)
        assert not governor.try_grant(500)
        assert governor.denials == 1
        assert governor.counters.snapshot() == {
            "denied": 1.0, "granted_bytes": 800.0, "granted_peak": 800.0}


# -- governed operators stay byte-exact ------------------------------------


class TestGovernedOperators:
    def test_sort_spills_to_segments_byte_exact(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 1_000_000, 6000, dtype=np.int64)
        table = Table("t", {"k": values})

        def run(governor):
            dpu = DPU()
            return dpu_sort(dpu, table.to_dpu(dpu), "k", governor=governor)

        base = run(None)
        assert base.detail["spill_segments"] == 1
        governor = MemoryGovernor(40_000)
        spilled = run(governor)
        assert spilled.detail["spill_segments"] > 1
        assert spilled.cycles > base.cycles
        assert np.array_equal(base.value, spilled.value)
        assert governor.granted_bytes == 0  # grant released

    def test_groupby_sw_round_chunks_byte_exact(self):
        rng = np.random.default_rng(6)
        n = 24 * 1024
        table = Table("t", {
            "g": rng.integers(0, 9000, n).astype(np.int32),
            "v": rng.integers(0, 100, n).astype(np.int32),
        })
        budget = DmemBudget(total=32 * 1024, io_buffers=28 * 1024,
                            metadata=1024)

        def run(governor):
            dpu = DPU()
            result = dpu_groupby(
                dpu, table.to_dpu(dpu), "g",
                [AggSpec("sum", "v"), AggSpec("count")],
                budget=budget, governor=governor,
            )
            return result, dpu

        base, dpu_base = run(None)
        governor = MemoryGovernor(80_000)
        chunked, dpu_chunked = run(governor)
        assert chunked.value == base.value
        assert chunked.cycles > base.cycles
        # Chunked rounds free their bucket regions; the eager plan
        # leaves them live.
        assert (dpu_chunked.heap.live_bytes() < dpu_base.heap.live_bytes())
        assert governor.granted_bytes == 0

    def test_join_segments_build_side_exact_count(self):
        rng = np.random.default_rng(11)
        build = Table("b", {"k": rng.integers(0, 5000, 8000).astype(np.int32)})
        probe = Table("p", {"k": rng.integers(0, 5000, 16000).astype(np.int32)})

        def run(governor):
            dpu = DPU()
            return dpu_partitioned_join_count(
                dpu, build.to_dpu(dpu), "k", probe.to_dpu(dpu), "k",
                governor=governor,
            )

        base = run(None)
        assert base.detail["build_segments"] == 1
        governor = MemoryGovernor(30_000)
        segmented = run(governor)
        assert segmented.detail["build_segments"] > 1
        assert segmented.value == base.value
        assert segmented.cycles > base.cycles
        assert governor.granted_bytes == 0


    @pytest.mark.parametrize("op", ["sort", "join", "sw_round"])
    def test_failed_launch_releases_the_grant(self, op, monkeypatch):
        dpu = DPU()
        dtable = _gate_table().to_dpu(dpu)
        probe = _PROBE.to_dpu(dpu)
        governor = MemoryGovernor(10_000_000)
        run = {
            "sort": lambda: dpu_sort(dpu, dtable, "w", governor=governor),
            "join": lambda: dpu_partitioned_join_count(
                dpu, dtable, "w", probe, "k", governor=governor),
            "sw_round": lambda: dpu_groupby(
                dpu, dtable, "w", [AggSpec("sum", "v")], ndv_hint=200_000,
                governor=governor),
        }[op]

        def failing_launch(*args, **kwargs):
            raise RuntimeError("launch failed")

        monkeypatch.setattr(dpu, "launch", failing_launch)
        with pytest.raises(RuntimeError, match="launch failed"):
            run()
        assert governor.granted_bytes == 0


# -- zero-overhead-off regression ------------------------------------------


class TestZeroOverheadUngated:
    def test_canonical_kernel_timing_is_pinned(self):
        """The no-admission, no-governor path must cost exactly what
        the seed did — pinned cycles and counters."""
        rows = 2048
        data = np.arange(rows, dtype=np.uint64)
        dpu = DPU()
        addr = dpu.store_array(data)
        address = dpu.address_map.dmem_address(2, 0)

        def kernel(ctx):
            yield from stream_columns(
                ctx, [(addr, 8)], rows, 512, lambda *a: 8, dmem_base=64
            )
            for _ in range(4):
                yield from ctx.fetch_add(2, address, 1)

        launch = dpu.launch(kernel, cores=[0, 1])
        assert launch.cycles == 2896.0
        assert dpu.counters.counters() == {
            "dms.bytes_read": 32768.0,
            "dms.descriptors": 8.0,
            "dmad.completed": 8.0,
            "ate.messages": 8.0,
        }

    def test_ungoverned_sort_timing_is_pinned(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 1_000_000, 20000, dtype=np.int64)
        table = Table("t", {"k": values})
        dpu = DPU()
        result = dpu_sort(dpu, table.to_dpu(dpu), "k")
        assert result.cycles == 88182.0
        assert np.array_equal(result.value, np.sort(values))
