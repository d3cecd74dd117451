"""Tests for rack-scale fault tolerance (repro.cluster.recovery).

Covers the chaos schedule harness, the fabric fault primitives
(seeded kills, partition windows, credit release on death), the
lease-guarded fail-fast gather, and the headline property: cluster
jobs survive a seeded DPU kill, a transient fabric partition, and an
injected straggler with results byte-equal to the fault-free
single-DPU reference. That every ``cluster_*`` job survives a worker
or coordinator kill at 2, 4 and 8 DPUs is the chaos matrix of
``tests/test_cluster_jobs.py``.
"""

import numpy as np
import pytest

from repro.apps.sql import Table
from repro.apps.sql.aggregate import AggSpec, dpu_groupby
from repro.cluster import (
    Cluster,
    ClusterError,
    RecoveryConfig,
    cluster_filter_count,
    cluster_groupby,
)
from repro.core.config import DPU_40NM
from repro.core.dpu import DPU
from repro.faults import ChaosSpec, FaultError, FaultPlan, chaos_schedule
from repro.sim import Engine, Store


def _shard(columns, num_shards, name="shard"):
    total = len(next(iter(columns.values())))
    bounds = [round(total * i / num_shards) for i in range(num_shards + 1)]
    return [
        Table(
            f"{name}{i}",
            {n: c[bounds[i]:bounds[i + 1]] for n, c in columns.items()},
        )
        for i in range(num_shards)
    ]


def _kill_plan(victim=1, at_cycle=15_000.0):
    return FaultPlan.none().with_chaos(
        ChaosSpec("dpu.dead", (victim,), at_cycle=at_cycle)
    )


def _partition_plan(victim=1, at_cycle=10_000.0, duration=400_000.0):
    return FaultPlan.none().with_chaos(
        ChaosSpec("fabric.partition", (victim,), at_cycle=at_cycle,
                  duration=duration)
    )


def _slow_plan(victim, duration=2_000_000.0, factor=4.0):
    return FaultPlan.none().with_chaos(
        ChaosSpec("dpu.slow", (victim,), at_cycle=0.0,
                  duration=duration, factor=factor)
    )


# -- chaos schedule harness ---------------------------------------------------


class TestChaosSchedule:
    def test_deterministic_for_seed(self):
        a = chaos_schedule(seed=7, num_dpus=8, horizon_cycles=1e6,
                           kills=2, partitions=1, stragglers=1)
        b = chaos_schedule(seed=7, num_dpus=8, horizon_cycles=1e6,
                           kills=2, partitions=1, stragglers=1)
        assert a == b

    def test_different_seeds_differ(self):
        a = chaos_schedule(seed=7, num_dpus=8, horizon_cycles=1e6, kills=3)
        b = chaos_schedule(seed=8, num_dpus=8, horizon_cycles=1e6, kills=3)
        assert a != b

    def test_coordinator_not_targeted_by_default(self):
        # Default draws stay over DPUs 1..N-1 so every historical seed
        # reproduces its exact schedule (seed-compat); targeting the
        # coordinator is opt-in via include_coordinator=True.
        for seed in range(20):
            specs = chaos_schedule(seed=seed, num_dpus=4,
                                   horizon_cycles=1e6, kills=2,
                                   partitions=1, stragglers=1)
            for spec in specs:
                assert 0 not in spec.targets

    def test_include_coordinator_widens_the_pool(self):
        hit = False
        for seed in range(40):
            specs = chaos_schedule(seed=seed, num_dpus=4,
                                   horizon_cycles=1e6, kills=2,
                                   include_coordinator=True)
            if any(0 in spec.targets for spec in specs):
                hit = True
                break
        assert hit, "40 seeds never drew DPU 0 from a 4-wide pool"

    def test_seed_compat_pinned_schedule(self):
        # Regression pin: the old "DPU 0 cannot be killed" guard was
        # replaced by "at least one DPU survives", but the default
        # victim draw must stay bit-identical for old seeds.
        specs = chaos_schedule(seed=7, num_dpus=8, horizon_cycles=1e6,
                               kills=2, partitions=1, stragglers=1)
        summary = [(s.site, s.targets, round(s.at_cycle, 3))
                   for s in specs]
        assert summary == [
            ("dpu.dead", (1,), 83702.059),
            ("dpu.dead", (3,), 163428.635),
            ("dpu.slow", (5,), 534387.818),
            ("fabric.partition", (4,), 843126.169),
        ]

    def test_all_workers_may_die_but_not_everyone(self):
        # New guard: "at least one DPU survives". Killing every worker
        # is now legal (the coordinator finishes the job alone)...
        specs = chaos_schedule(seed=1, num_dpus=4, horizon_cycles=1e6,
                               kills=3)
        assert len(specs) == 3
        # ...killing every DPU is not, from either candidate pool.
        with pytest.raises(FaultError):
            chaos_schedule(seed=1, num_dpus=4, horizon_cycles=1e6,
                           kills=4)
        with pytest.raises(FaultError):
            chaos_schedule(seed=1, num_dpus=4, horizon_cycles=1e6,
                           kills=4, include_coordinator=True)

    @pytest.mark.parametrize("num_dpus", [2, 4, 8])
    def test_deterministic_and_iteration_order_free(self, num_dpus):
        # The draw must depend only on (seed, sorted DPU ids), never
        # on dict/set iteration order: building unrelated dicts (which
        # perturbs the hash state of the interpreter session) between
        # two draws must not change the schedule.
        first = chaos_schedule(seed=13, num_dpus=num_dpus,
                               horizon_cycles=2e6,
                               kills=num_dpus - 1,
                               include_coordinator=True)
        _noise = {object(): i for i in range(64)}
        second = chaos_schedule(seed=13, num_dpus=num_dpus,
                                horizon_cycles=2e6,
                                kills=num_dpus - 1,
                                include_coordinator=True)
        assert first == second
        for spec in first:
            assert all(0 <= t < num_dpus for t in spec.targets)

    PINNED_COORDINATOR_KILLS = {
        2: (0,),
        4: (0, 2, 3),
        8: (0, 2, 3, 4, 5, 6, 7),
    }

    @pytest.mark.parametrize("num_dpus", [2, 4, 8])
    def test_pinned_coordinator_draws(self, num_dpus):
        # Pin the include_coordinator victim draw at 2/4/8 DPUs so a
        # numpy or derivation change cannot silently reshuffle every
        # chaos run in CI.
        specs = chaos_schedule(seed=0, num_dpus=num_dpus,
                               horizon_cycles=2e6,
                               kills=num_dpus - 1,
                               include_coordinator=True)
        victims = tuple(sorted(t for s in specs for t in s.targets))
        assert victims == tuple(
            sorted(self.PINNED_COORDINATOR_KILLS[num_dpus])
        )

    def test_specs_sorted_by_time(self):
        specs = chaos_schedule(seed=3, num_dpus=8, horizon_cycles=1e6,
                               kills=2, partitions=2)
        times = [spec.at_cycle for spec in specs]
        assert times == sorted(times)


class TestChaosSpecValidation:
    def test_bad_site_rejected(self):
        with pytest.raises(FaultError):
            ChaosSpec("dpu.meltdown", (1,), at_cycle=0.0)

    def test_slow_needs_factor_above_one(self):
        with pytest.raises(FaultError):
            ChaosSpec("dpu.slow", (1,), at_cycle=0.0, duration=10.0,
                      factor=0.5)

    def test_dead_end_cycle_is_forever(self):
        spec = ChaosSpec("dpu.dead", (1,), at_cycle=5.0)
        assert spec.end_cycle == float("inf")

    def test_recovery_config_validation(self):
        with pytest.raises(FaultError):
            RecoveryConfig(heartbeat_interval_cycles=100.0,
                           lease_cycles=200.0)
        with pytest.raises(FaultError):
            RecoveryConfig(lease_cycles=400_000.0,
                           stall_patience_cycles=100_000.0)


# -- fabric fault primitives --------------------------------------------------


class TestFabricPrimitives:
    def test_scheduled_kill_blackholes_sends(self):
        cluster = Cluster(2)
        fabric = cluster.fabric
        fabric.schedule_kill(1, at_cycle=0.0)
        assert fabric.endpoint_dead(1)
        assert not fabric.endpoint_dead(0)

        def sender():
            yield from fabric.send(1, 0, "late", 64)

        cluster.run([cluster.engine.process(sender())])
        assert fabric.blackholed == 1
        assert fabric.messages_sent == 0

    def test_partition_window_drops_and_releases_credit(self):
        cluster = Cluster(2)
        fabric = cluster.fabric
        fabric.sever([1], start_cycle=0.0, end_cycle=1e9)

        def sender():
            yield from fabric.send(0, 1, "into the void", 64)

        cluster.run([cluster.engine.process(sender())])
        # The drop happens at the delivery instant; drain past it.
        cluster.engine.run_until_complete(
            cluster.engine.timeout(100_000.0)
        )
        assert fabric.partition_drops == 1
        # The dropped frame must hand back the receive credit.
        assert fabric._credits[1] == fabric.config.fabric_inbox_depth

    def test_declare_dead_releases_credits(self):
        cluster = Cluster(2)
        fabric = cluster.fabric
        depth = fabric.config.fabric_inbox_depth
        processes = [
            cluster.engine.process(fabric.send(0, 1, f"m{i}", 64))
            for i in range(depth)
        ]
        cluster.run(processes)
        assert fabric._credits[1] == 0
        fabric.declare_dead(1)
        assert fabric._credits[1] == depth
        assert fabric.credits_released_on_death == depth
        assert not fabric._inboxes[1].items

    def test_counters_exposed(self):
        cluster = Cluster(2)
        counters = cluster.fabric.counters()
        for name in ("messages_sent", "bytes_sent", "retransmissions",
                     "partition_drops", "blackholed",
                     "credits_released_on_death"):
            assert name in counters


class TestStoreCancelGet:
    def test_cancelled_getter_does_not_swallow(self):
        engine = Engine()
        store = Store(engine)
        first = store.get()
        assert store.cancel_get(first) is True
        second = store.get()

        def producer():
            yield store.put("item")

        engine.process(producer())
        engine.run_until_complete(second)
        assert second.value == "item"
        assert not first.triggered

    def test_cancel_after_fire_returns_false(self):
        engine = Engine()
        store = Store(engine)

        def producer():
            yield store.put("item")

        engine.process(producer())
        event = store.get()
        engine.run_until_complete(event)
        assert store.cancel_get(event) is False


# -- fail-fast gather (no recovery manager) -----------------------------------


class TestFailFastGather:
    @pytest.mark.parametrize("site", ["filter_count", "groupby"])
    def test_missing_partial_raises_structured_error(self, site):
        # A DPU dies under a cluster with NO chaos plan: the gather
        # (filter_count) and the exchange (groupby) must fail fast
        # with a diagnosis, not hang until watchdog.
        cluster = Cluster(2)
        cluster.fabric.schedule_kill(1, at_cycle=0.0)
        values = np.arange(100, dtype=np.int64)
        with pytest.raises(ClusterError) as info:
            if site == "filter_count":
                cluster_filter_count(cluster, [values, values], 10, 50)
            else:
                cluster_groupby(cluster, _shard({"k": values}, 2), "k",
                                [AggSpec("count")])
        error = info.value
        assert error.site == site
        assert error.missing == (1,)
        assert error.cycle > 0
        assert "messages_sent" in error.fabric
        assert "lease" in str(error)


# -- byte-equal recovery across every job -------------------------------------


@pytest.fixture(scope="module")
def groupby_data():
    rng = np.random.default_rng(5)
    return {
        "k": rng.integers(0, 50, 6000).astype(np.uint32),
        "v": rng.integers(0, 100, 6000).astype(np.uint32),
    }


@pytest.fixture(scope="module")
def groupby_reference(groupby_data):
    aggs = [AggSpec("sum", "v"), AggSpec("count")]
    single = DPU(DPU_40NM)
    return dpu_groupby(
        single, Table("t", groupby_data).to_dpu(single), "k", aggs
    ).value


class TestGroupbyRecoveryMatrix:
    """The exchange-based job under every fault type at 2/4/8 DPUs."""

    AGGS = [AggSpec("sum", "v"), AggSpec("count")]

    @pytest.mark.parametrize("num_dpus", [2, 4, 8])
    def test_survives_kill(self, groupby_data, groupby_reference, num_dpus):
        cluster = Cluster(num_dpus, fault_plan=_kill_plan())
        result = cluster_groupby(
            cluster, _shard(groupby_data, num_dpus), "k", self.AGGS
        )
        assert result.value == groupby_reference
        stats = result.recovery
        assert stats.declared_dead == (1,)
        assert stats.reexecuted_shards >= 1
        assert stats.detection_latency_cycles is not None
        assert stats.detection_latency_cycles > 0

    @pytest.mark.parametrize("num_dpus", [2, 4, 8])
    def test_survives_partition(self, groupby_data, groupby_reference,
                                num_dpus):
        cluster = Cluster(num_dpus, fault_plan=_partition_plan())
        result = cluster_groupby(
            cluster, _shard(groupby_data, num_dpus), "k", self.AGGS
        )
        assert result.value == groupby_reference
        assert cluster.fabric.partition_drops > 0

    @pytest.mark.parametrize("num_dpus", [2, 4, 8])
    def test_survives_straggler(self, groupby_data, groupby_reference,
                                num_dpus):
        cluster = Cluster(
            num_dpus, fault_plan=_slow_plan(victim=num_dpus - 1)
        )
        result = cluster_groupby(
            cluster, _shard(groupby_data, num_dpus), "k", self.AGGS
        )
        assert result.value == groupby_reference
        stats = result.recovery
        # The dilated worker never actually dies...
        assert stats.declared_dead == ()
        # ...speculation beats it to the finish line.
        assert stats.speculative_launches >= 1
        assert stats.speculative_wins >= 1

    def test_transient_partition_no_false_death(self, groupby_data,
                                                groupby_reference):
        # A window shorter than the lease: heartbeats resume before
        # the lease expires, so nobody is declared dead — the lost
        # sends are simply retried.
        plan = _partition_plan(victim=1, at_cycle=10_000.0,
                               duration=100_000.0)
        cluster = Cluster(4, fault_plan=plan)
        result = cluster_groupby(
            cluster, _shard(groupby_data, 4), "k", self.AGGS
        )
        assert result.value == groupby_reference
        assert result.recovery.declared_dead == ()


# -- per-job accounting across a recovered failure ----------------------------


class TestBackToBackAfterRecovery:
    def test_per_job_deltas_and_counter_reset(self):
        rng = np.random.default_rng(17)
        values = rng.integers(0, 1000, 8000, dtype=np.int64)
        shards = list(np.array_split(values, 4))
        reference = cluster_filter_count(Cluster(1), [values], 100, 500).value

        cluster = Cluster(4, fault_plan=_kill_plan(at_cycle=500.0))
        first = cluster_filter_count(cluster, shards, 100, 500)
        assert first.value == reference
        assert first.recovery.declared_dead == (1,)
        assert first.recovery.rounds >= 2
        first_registry = cluster.counter_registry()
        assert first_registry.get("recovery.detections") == 1

        # Second job on the same cluster: the dead DPU stays dead, its
        # shard is rerouted in round one, and the job's accounting
        # covers only its own traffic.
        before_bytes = cluster.fabric.bytes_sent
        before_retr = cluster.fabric.retransmissions
        second = cluster_filter_count(cluster, shards, 100, 500)
        assert second.value == reference
        assert second.network_bytes == cluster.fabric.bytes_sent - before_bytes
        assert second.network_bytes > 0
        assert second.network_bytes < first.network_bytes
        assert second.retransmissions == (
            cluster.fabric.retransmissions - before_retr
        )
        # Per-job recovery counters reset at job start: no NEW death
        # was detected in job two (the corpse was already declared).
        stats = second.recovery
        assert stats.detections == []
        assert stats.site == "filter_count"
        registry = cluster.counter_registry()
        assert registry.get("recovery.detections") == 0
        assert registry.get("recovery.rounds") == stats.rounds

    def test_speculative_win_then_clean_job(self, groupby_data,
                                            groupby_reference):
        # Straggler window covers job one only; job two runs clean.
        plan = _slow_plan(victim=3, duration=1_500_000.0)
        cluster = Cluster(4, fault_plan=plan)
        aggs = [AggSpec("sum", "v"), AggSpec("count")]
        first = cluster_groupby(cluster, _shard(groupby_data, 4), "k", aggs)
        assert first.value == groupby_reference
        assert first.recovery.speculative_wins >= 1


# -- FaultPlan.none() zero-overhead regression --------------------------------


class TestZeroOverheadWithoutChaos:
    def test_no_recovery_manager_without_chaos(self):
        assert Cluster(2).recovery is None
        assert Cluster(2, fault_plan=FaultPlan.none()).recovery is None

    def test_chaos_plan_attaches_manager(self):
        cluster = Cluster(2, fault_plan=_kill_plan())
        assert cluster.recovery is not None

    def test_cycles_identical_with_and_without_fault_plan(self):
        rng = np.random.default_rng(23)
        values = rng.integers(0, 1000, 4000, dtype=np.int64)
        shards = list(np.array_split(values, 2))

        plain = cluster_filter_count(Cluster(2), shards, 100, 500)
        none_plan = cluster_filter_count(
            Cluster(2, fault_plan=FaultPlan.none()), shards, 100, 500
        )
        assert plain.cycles == none_plan.cycles
        assert plain.network_bytes == none_plan.network_bytes
        assert plain.value == none_plan.value
        assert none_plan.recovery is None
