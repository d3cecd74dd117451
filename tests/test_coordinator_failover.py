"""Coordinator failover: kill DPU 0 and finish the job anyway.

The headline property of the replicated-journal + leader-election
layer (repro.cluster.recovery): *any* DPU — the coordinator included —
can be chaos-killed mid-job and every ``cluster_*`` job still
completes byte-equal to the fault-free single-DPU reference, with
exactly one :class:`ScaleOutResult` per job even though two leaders
existed along the way.
"""

import numpy as np
import pytest

from repro.apps.sql import Table
from repro.apps.sql.aggregate import AggSpec
from repro.cluster import (
    Cluster,
    ClusterError,
    RecoveryConfig,
    cluster_filter_count,
    cluster_groupby,
    cluster_hll,
    cluster_partitioned_join_count,
    cluster_topk,
    cluster_tpch_q1,
)
from repro.faults import ChaosSpec, FaultError, FaultPlan
from repro.sim import Engine, Store
from repro.workloads.tpch import generate_tpch


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


def _coordinator_kill(at_cycle=15_000.0, extra=()):
    return FaultPlan.none().with_chaos(
        ChaosSpec("dpu.dead", (0,), at_cycle=at_cycle), *extra
    )


AGGS = [AggSpec("sum", "v"), AggSpec("count")]


@pytest.fixture(scope="module")
def datasets():
    rng = np.random.default_rng(3)
    lineitem = generate_tpch(scale=0.005, seed=42).tables["lineitem"]
    return {
        "values": rng.integers(0, 1000, 8000, dtype=np.int64),
        "hll": rng.integers(0, 1 << 40, 30_000, dtype=np.uint64),
        "gb": {
            "k": rng.integers(0, 64, 12_000).astype(np.int64),
            "v": rng.integers(0, 1000, 12_000).astype(np.int64),
        },
        "build": {"k": rng.integers(0, 500, 4000).astype(np.uint32)},
        "probe": {"k": rng.integers(0, 500, 6000).astype(np.uint32)},
        "topk": {"x": rng.permutation(16_000).astype(np.uint32)},
        "lineitem": lineitem,
    }


def _jobs(d):
    return {
        "hll": lambda c, n: cluster_hll(
            c, list(np.array_split(d["hll"], n))),
        "filter_count": lambda c, n: cluster_filter_count(
            c, list(np.array_split(d["values"], n)), 100, 500),
        "groupby": lambda c, n: cluster_groupby(
            c, _shard(d["gb"], n), "k", AGGS),
        "join": lambda c, n: cluster_partitioned_join_count(
            c, _shard(d["build"], n, "b"), "k",
            _shard(d["probe"], n, "p"), "k"),
        "topk": lambda c, n: cluster_topk(
            c, _shard(d["topk"], n), "x", 25),
        "tpch_q1": lambda c, n: cluster_tpch_q1(
            c, _shard(d["lineitem"], n, "li")),
    }


class TestCoordinatorKillMatrix:
    """DPU 0 killed in the gather, beside a worker, and on two DPUs.
    Every job with DPU 0 killed mid-job at 2/4/8 DPUs is in the chaos
    matrix (``tests/test_cluster_jobs.py::test_chaos_matrix``)."""

    def test_kill_during_gather_phase(self, datasets):
        # Place the kill inside the final gather: 90% of the fault-free
        # run's total lands after partition+exchange+local compute.
        run = _jobs(datasets)["groupby"]
        reference = run(Cluster(1), 1).value
        clean = run(Cluster(4), 4)
        gather_start = clean.cycles - clean.detail["gather_cycles"]
        assert clean.cycles * 0.9 > gather_start
        plan = _coordinator_kill(at_cycle=clean.cycles * 0.9)
        cluster = Cluster(4, fault_plan=plan)
        result = run(cluster, 4)
        assert result.value == reference
        assert cluster.recovery.stats.leader_changes == 1

    @pytest.mark.parametrize("job", ["filter_count", "groupby"])
    def test_coordinator_plus_worker_kill(self, datasets, job):
        run = _jobs(datasets)[job]
        reference = run(Cluster(1), 1).value
        plan = _coordinator_kill(
            at_cycle=15_000.0,
            extra=(ChaosSpec("dpu.dead", (2,), at_cycle=40_000.0),),
        )
        cluster = Cluster(4, fault_plan=plan)
        result = run(cluster, 4)
        assert result.value == reference
        assert sorted(cluster.recovery.declared_dead) == [0, 2]
        assert cluster.recovery.stats.leader_changes == 1
        assert cluster.leader == 1

    def test_two_dpu_leader_kill_worker_finishes_alone(self, datasets):
        # The degenerate cluster: the only survivor must elect itself
        # and compute every shard locally.
        run = _jobs(datasets)["filter_count"]
        reference = run(Cluster(1), 1).value
        cluster = Cluster(2, fault_plan=_coordinator_kill())
        result = run(cluster, 2)
        assert result.value == reference
        assert cluster.leader == 1
        assert sorted(cluster.recovery.declared_dead) == [0]


class TestExactlyOnceAndAccounting:
    def test_one_result_under_two_leaders(self, datasets):
        run = _jobs(datasets)["groupby"]
        cluster = Cluster(4, fault_plan=_coordinator_kill())
        result = run(cluster, 4)
        # Exactly one ScaleOutResult: the deposed leader's partial
        # gather never surfaces; only the new leader's merge returns.
        stats = cluster.recovery.stats
        assert stats.leader_changes == 1
        assert len(stats.elections) == 1
        old, new, at_cycle, latency = stats.elections[0]
        assert (old, new) == (0, 1)
        assert at_cycle > 15_000.0
        # Latency is measured from the injected kill instant.
        assert latency is not None and 0 < latency < 600_000.0
        assert stats.leader_election_latency_cycles == latency

    def test_counters_and_registry(self, datasets):
        run = _jobs(datasets)["groupby"]
        cluster = Cluster(4, fault_plan=_coordinator_kill())
        run(cluster, 4)
        registry = cluster.counter_registry().snapshot()
        assert registry["recovery.leader_changes"] == 1
        assert registry["recovery.leader_election_latency_cycles"] > 0
        assert "recovery.journal_records" in registry
        assert "recovery.journal_bytes" in registry

    def test_journal_bytes_scale_with_standby_count(self, datasets):
        run = _jobs(datasets)["groupby"]
        sizes = {}
        for standbys in (1, 2):
            cluster = Cluster(
                4,
                fault_plan=FaultPlan.none().with_chaos(
                    ChaosSpec("dpu.slow", (3,), at_cycle=0.0,
                              duration=10_000.0, factor=1.5)
                ),
                recovery_config=RecoveryConfig(standby_count=standbys),
            )
            run(cluster, 4)
            sizes[standbys] = cluster.recovery.stats.journal_bytes
        assert sizes[1] > 0
        assert sizes[2] > sizes[1]

    def test_no_chaos_means_no_journal(self, datasets):
        # FaultPlan.none() keeps the whole failover layer detached:
        # no manager, no journal traffic, no recovery counters.
        run = _jobs(datasets)["groupby"]
        cluster = Cluster(4)
        result = run(cluster, 4)
        assert cluster.recovery is None
        assert result.recovery is None
        registry = cluster.counter_registry().snapshot()
        assert not any(k.startswith("recovery.") for k in registry)

    def test_trace_records_election(self, datasets):
        run = _jobs(datasets)["groupby"]
        cluster = Cluster(4, fault_plan=_coordinator_kill())
        tracer = cluster.enable_tracing()
        run(cluster, 4)
        names = {e.get("name") for e in tracer.events}
        assert "recover.leader_elected" in names
        assert "recover.journal" in names


class TestChaosHarnessLifts:
    def test_install_accepts_partition_containing_coordinator(self):
        plan = FaultPlan.none().with_chaos(
            ChaosSpec("fabric.partition", (0,), at_cycle=10_000.0,
                      duration=50_000.0)
        )
        cluster = Cluster(4, fault_plan=plan)
        assert cluster.recovery is not None

    def test_install_rejects_killing_everyone(self):
        plan = FaultPlan.none().with_chaos(
            *(ChaosSpec("dpu.dead", (i,), at_cycle=1000.0 * (i + 1))
              for i in range(2))
        )
        with pytest.raises(FaultError):
            Cluster(2, fault_plan=plan)

    def test_standby_count_validated(self):
        with pytest.raises(FaultError):
            RecoveryConfig(standby_count=-1)


class TestClusterErrorFields:
    def test_epoch_and_leader_in_structured_error(self):
        # Fail-fast gather (no chaos plan → no recovery manager): the
        # error carries generation 0 under the pinned coordinator.
        cluster = Cluster(2)
        cluster.fabric.schedule_kill(1, at_cycle=0.0)
        shards = [np.arange(100, dtype=np.int64),
                  np.arange(100, dtype=np.int64)]
        with pytest.raises(ClusterError) as info:
            cluster_filter_count(cluster, shards, 10, 50)
        error = info.value
        assert error.epoch == 0
        assert error.leader == 0
        assert "epoch 0 under leader 0" in str(error)

    def test_defaults_stay_optional(self):
        error = ClusterError("site", cycle=1.0)
        assert error.epoch is None and error.leader is None
        assert "epoch" not in str(error)


class TestStoreCancelGetEdges:
    def test_double_cancel_returns_false(self):
        engine = Engine()
        store = Store(engine)
        event = store.get()
        assert store.cancel_get(event) is True
        assert store.cancel_get(event) is False

    def test_cancel_after_delivery_leaves_item_with_caller(self):
        engine = Engine()
        store = Store(engine)
        event = store.get()

        def producer():
            yield store.put("item")

        engine.process(producer())
        engine.run_until_complete(event)
        assert event.value == "item"
        # Fired means the caller owns the item; cancel is a no-op.
        assert store.cancel_get(event) is False
        assert len(store) == 0

    def test_cancel_races_declare_dead_credit_release(self):
        # declare_dead restores the corpse's credits and clears its
        # inbox but leaves pending getters registered: the abandoning
        # receiver must still deregister (True), and only once.
        cluster = Cluster(2)
        fabric = cluster.fabric
        depth = fabric.config.fabric_inbox_depth
        cluster.run([
            cluster.engine.process(fabric.send(0, 1, f"m{i}", 64))
            for i in range(depth)
        ])
        # Let the in-flight deliveries land in the inbox.
        cluster.engine.run_until_complete(
            cluster.engine.timeout(1_000_000.0)
        )
        assert fabric._credits[1] == 0
        pending = fabric._inboxes[1].get()  # drains one queued item
        assert pending.triggered
        while fabric._inboxes[1].items:  # empty it out completely
            fabric._inboxes[1].try_get()
        waiting = fabric._inboxes[1].get()  # genuinely blocks
        assert not waiting.triggered
        fabric.declare_dead(1)
        assert fabric._credits[1] == depth
        assert not fabric._inboxes[1].items
        assert fabric._inboxes[1].cancel_get(waiting) is True
        assert fabric._inboxes[1].cancel_get(waiting) is False
        # A late put cannot resurrect the cancelled getter.
        fabric._inboxes[1].put("late")
        assert not waiting.triggered
