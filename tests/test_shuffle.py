"""Tests for the partitioned exchange and the exchange-based cluster
jobs (paper §4): shuffle correctness, byte-exact distributed SQL at
2/4/8 DPUs, fault tolerance, and per-job fabric accounting."""

import numpy as np
import pytest

from repro.apps.sql import Table
from repro.apps.sql.aggregate import AggSpec, GroupKey, dpu_groupby
from repro.apps.sql.join import dpu_partitioned_join_count
from repro.apps.sql.topk import dpu_topk
from repro.apps.sql.tpch_queries import q1_plan
from repro.cluster import (
    Cluster,
    cluster_groupby,
    cluster_partitioned_join_count,
    cluster_topk,
    cluster_tpch_q1,
    shuffle_cids,
    shuffle_exchange,
    shuffle_spec,
)
from repro.core.config import DPU_40NM
from repro.core.dpu import DPU
from repro.faults import FaultPlan
from repro.workloads.tpch import generate_tpch


def _shard(columns, num_shards, name="shard"):
    """Row-range shard a dict of equal-length columns."""
    total = len(next(iter(columns.values())))
    bounds = [round(total * i / num_shards) for i in range(num_shards + 1)]
    return [
        Table(
            f"{name}{i}",
            {n: c[bounds[i]:bounds[i + 1]] for n, c in columns.items()},
        )
        for i in range(num_shards)
    ]


@pytest.fixture(scope="module")
def groupby_data():
    rng = np.random.default_rng(7)
    n = 6000
    return {
        "k": rng.integers(0, 64, n, dtype=np.uint32),
        "v": rng.integers(0, 1000, n, dtype=np.uint32),
    }


class TestShuffleSpec:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            shuffle_spec(3)
        with pytest.raises(ValueError):
            shuffle_spec(1)

    def test_decorrelated_from_intra_dpu_bits(self):
        """The exchange uses hash bits 16.. so the 32-way intra-DPU
        partitioner (bits 0..4) still spreads rows after a shuffle."""
        assert shuffle_spec(8).radix_shift == 16

    def test_cids_cover_all_destinations(self):
        keys = np.arange(4096, dtype=np.uint32)
        cids = shuffle_cids(keys, 4)
        assert set(np.unique(cids)) == {0, 1, 2, 3}


class TestShuffleExchange:
    def test_rows_conserved_and_key_locality(self, groupby_data):
        num_dpus = 4
        cluster = Cluster(num_dpus)
        shards = _shard(groupby_data, num_dpus)
        dtables = [s.to_dpu(d) for s, d in zip(shards, cluster.dpus)]
        result = shuffle_exchange(cluster, dtables, "k", ["k", "v"])

        total = sum(len(c["k"]) for c in result.columns)
        assert total == len(groupby_data["k"])
        # Every row landed on the DPU its key hashes to.
        for dest, columns in enumerate(result.columns):
            if len(columns["k"]):
                assert (shuffle_cids(columns["k"], num_dpus) == dest).all()
        # Multiset of (k, v) pairs is preserved.
        got = np.sort(
            np.concatenate(
                [c["k"].astype(np.uint64) << np.uint64(32)
                 | c["v"].astype(np.uint64) for c in result.columns]
            )
        )
        want = np.sort(
            groupby_data["k"].astype(np.uint64) << np.uint64(32)
            | groupby_data["v"].astype(np.uint64)
        )
        assert (got == want).all()

    def test_fabric_bytes_match_moved_bytes(self, groupby_data):
        cluster = Cluster(2)
        shards = _shard(groupby_data, 2)
        dtables = [s.to_dpu(d) for s, d in zip(shards, cluster.dpus)]
        before = cluster.fabric.bytes_sent
        result = shuffle_exchange(cluster, dtables, "k", ["k", "v"])
        assert cluster.fabric.bytes_sent - before == result.bytes_moved
        assert result.bytes_moved == result.rows_moved * 8  # two u32 cols


def _wide_table(rows, seed, value_columns=19, groups=4000):
    """An int64 key and ``value_columns`` int64 columns: with all of
    them summed, each partitioned record is 8 * (1 + value_columns)
    bytes."""
    rng = np.random.default_rng(seed)
    columns = {"k": rng.integers(0, groups, rows).astype(np.int64)}
    for index in range(value_columns):
        columns[f"c{index}"] = rng.integers(-1000, 1000, rows).astype(np.int64)
    return columns


class TestClusterGroupby:
    def test_records_wider_than_128_bytes(self):
        """160 B records overflowed a CMEM bank in the shuffle's
        partition pass when chunks held at least 64 of them; on two
        DPUs the group-by now equals one DPU's."""
        data = _wide_table(3000, seed=9)
        aggs = [AggSpec("sum", f"c{index}") for index in range(19)]
        single = DPU(DPU_40NM)
        reference = dpu_groupby(
            single, Table("t", data).to_dpu(single), "k", aggs).value
        result = cluster_groupby(Cluster(2), _shard(data, 2), "k", aggs)
        assert result.value == reference

    @pytest.mark.parametrize("num_dpus", [2, 4, 8])
    def test_byte_equal_to_single_dpu(self, groupby_data, num_dpus):
        aggs = [AggSpec("sum", "v"), AggSpec("count")]
        single = DPU(DPU_40NM)
        reference = dpu_groupby(
            single, Table("t", groupby_data).to_dpu(single), "k", aggs
        ).value

        cluster = Cluster(num_dpus)
        result = cluster_groupby(
            cluster, _shard(groupby_data, num_dpus), "k", aggs
        )
        assert result.value == reference
        assert result.num_dpus == num_dpus
        assert result.detail["rows_moved"] > 0
        assert result.network_bytes > 0

    def test_composite_key_rejected(self, groupby_data):
        cluster = Cluster(2)
        key = GroupKey(fn=lambda c: c["k"], columns=("k",), name="k2")
        with pytest.raises(ValueError):
            cluster_groupby(
                cluster, _shard(groupby_data, 2), key, [AggSpec("count")]
            )

    def test_single_dpu_degenerate(self, groupby_data):
        aggs = [AggSpec("sum", "v")]
        single = DPU(DPU_40NM)
        reference = dpu_groupby(
            single, Table("t", groupby_data).to_dpu(single), "k", aggs
        ).value
        cluster = Cluster(1)
        result = cluster_groupby(cluster, _shard(groupby_data, 1), "k", aggs)
        assert result.value == reference
        assert result.network_bytes == 0


class TestClusterJoin:
    @pytest.mark.parametrize("num_dpus", [2, 4, 8])
    def test_byte_equal_to_single_dpu(self, num_dpus):
        rng = np.random.default_rng(11)
        build = {"k": rng.integers(0, 512, 3000, dtype=np.uint32)}
        probe = {"k": rng.integers(0, 512, 4500, dtype=np.uint32)}
        single = DPU(DPU_40NM)
        reference = int(
            dpu_partitioned_join_count(
                single,
                Table("b", build).to_dpu(single), "k",
                Table("p", probe).to_dpu(single), "k",
            ).value
        )

        cluster = Cluster(num_dpus)
        result = cluster_partitioned_join_count(
            cluster,
            _shard(build, num_dpus, "b"), "k",
            _shard(probe, num_dpus, "p"), "k",
        )
        assert result.value == reference
        # Two shuffles: both phases appear in the breakdown.
        assert result.detail["exchange_cycles"] > 0


class TestClusterTopk:
    @pytest.mark.parametrize("num_dpus", [2, 4, 8])
    def test_exact_with_unique_values(self, num_dpus):
        rng = np.random.default_rng(13)
        values = rng.permutation(
            np.arange(20000, dtype=np.uint32)
        )[:8000]
        single = DPU(DPU_40NM)
        reference = dpu_topk(
            single, Table("t", {"x": values}).to_dpu(single), "x", 25
        ).value

        cluster = Cluster(num_dpus)
        result = cluster_topk(
            cluster, _shard({"x": values}, num_dpus), "x", 25
        )
        assert result.value == reference


class TestClusterTpchQ1:
    @pytest.fixture(scope="class")
    def q1_setup(self):
        data = generate_tpch(scale=0.005, seed=42)
        lineitem = data.tables["lineitem"]
        single = DPU(DPU_40NM)
        key, aggs, row_filter = q1_plan()
        reference = dpu_groupby(
            single, Table("lineitem", lineitem).to_dpu(single),
            key, aggs, row_filter=row_filter,
        ).value
        return lineitem, reference

    @pytest.mark.parametrize("num_dpus", [2, 4, 8])
    def test_byte_equal_to_single_dpu(self, q1_setup, num_dpus):
        lineitem, reference = q1_setup
        cluster = Cluster(num_dpus)
        result = cluster_tpch_q1(
            cluster, _shard(lineitem, num_dpus, "lineitem")
        )
        assert result.value == reference
        # Pre-aggregation strategy: only group-table partials cross
        # the fabric (<= 56 bytes per group per DPU), never lineitem.
        groups = len(reference)
        assert result.network_bytes <= num_dpus * 56 * groups


class TestFaultyCluster:
    """Seeded net.drop faults: byte-exact results, positive
    retransmission counters, strictly slower than fault-free."""

    def test_groupby_exact_under_drops(self, groupby_data):
        aggs = [AggSpec("sum", "v"), AggSpec("count")]
        shards = _shard(groupby_data, 4)

        clean_cluster = Cluster(4)
        clean = cluster_groupby(clean_cluster, shards, "k", aggs)

        faulty_cluster = Cluster(
            4, fault_plan=FaultPlan(seed=5, rates={"net.drop": 0.2})
        )
        faulty = cluster_groupby(faulty_cluster, shards, "k", aggs)

        assert faulty.value == clean.value
        assert faulty.retransmissions > 0
        assert clean.retransmissions == 0
        assert faulty.cycles > clean.cycles
        assert faulty_cluster.fabric.bytes_retransmitted > 0

    def test_tpch_q1_exact_under_drops(self):
        data = generate_tpch(scale=0.002, seed=42)
        shards = _shard(data.tables["lineitem"], 2, "lineitem")
        clean = cluster_tpch_q1(Cluster(2), shards)
        faulty = cluster_tpch_q1(
            Cluster(2, fault_plan=FaultPlan(seed=7,
                                            rates={"net.drop": 0.6})),
            shards,
        )
        assert faulty.value == clean.value
        assert faulty.retransmissions > 0
        assert faulty.cycles > clean.cycles


class TestPerJobAccounting:
    def test_back_to_back_jobs_report_deltas(self, groupby_data):
        """Regression for the cumulative-counter bug: the second job's
        network_bytes must exclude the first job's traffic."""
        aggs = [AggSpec("count")]
        cluster = Cluster(2)
        shards = _shard(groupby_data, 2)
        first = cluster_groupby(cluster, shards, "k", aggs)
        second = cluster_groupby(cluster, shards, "k", aggs)
        # Identical work: identical per-job traffic, not 2x.
        assert second.network_bytes == first.network_bytes
        assert (
            cluster.fabric.bytes_sent
            == first.network_bytes + second.network_bytes
        )


class TestClusterObservability:
    def test_counter_registry_covers_fabric_and_dpus(self, groupby_data):
        cluster = Cluster(2)
        cluster_groupby(
            cluster, _shard(groupby_data, 2), "k", [AggSpec("count")]
        )
        snapshot = cluster.counter_registry().snapshot()
        assert snapshot["fabric.bytes_sent"] > 0
        assert snapshot["fabric.retransmissions"] == 0
        assert "fabric.tx0.utilization" in snapshot
        assert any(name.startswith("dpu0.") for name in snapshot)
        assert any(name.startswith("dpu1.") for name in snapshot)

    def test_cluster_trace_has_shuffle_spans(self, groupby_data):
        cluster = Cluster(2)
        tracer = cluster.enable_tracing(capacity=1 << 18)
        cluster_groupby(
            cluster, _shard(groupby_data, 2), "k", [AggSpec("count")]
        )
        names = {event["name"] for event in tracer.events}
        assert "ib.send" in names
        assert "ib.deliver" in names
        assert "cluster.groupby" in names
