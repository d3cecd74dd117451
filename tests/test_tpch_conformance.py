"""TPC-H conformance suite for the SQL-text frontend (docs/SQL.md).

Every covered query compiles from the ``.sql`` text shipped in
``src/repro/apps/sql/queries/`` and runs three ways — Xeon reference,
single DPU, and a 2/4/8-DPU cluster — asserting byte-equal result
rows. Where a hand-built plan exists (Q1), the compiled plan must
reproduce its cycle count exactly, and every cost-based decision the
planner records (DPU-offload vs Xeon, all-to-all vs pre-aggregate
exchange) must be consistent with the models it claims to have
consulted.
"""

import numpy as np
import pytest

from repro.apps.sql import (
    GroupKey,
    PlanError,
    Table,
    compile_query,
    dpu_groupby,
    load_query,
    load_tpch_on_dpu,
    tpch_catalog,
)
from repro.apps.sql.tpch_queries import q1_plan
from repro.baseline import XeonModel
from repro.baseline.dbms import DbmsCostModel
from repro.cluster import Cluster, ShuffleRackModel, cluster_compiled_query
from repro.core import DPU
from repro.faults import ChaosSpec, FaultPlan
from repro.workloads.tpch import generate_tpch

QUERIES = ["q1", "q3", "q5", "q6", "q10", "q12", "q14"]


@pytest.fixture(scope="module")
def data():
    return generate_tpch(scale=0.002, seed=11)


@pytest.fixture(scope="module")
def compiled_queries(data):
    catalog = tpch_catalog(data)
    return {
        name: compile_query(load_query(name), catalog, name)
        for name in QUERIES
    }


def _shard_fact(compiled, data, num_shards):
    fact = data.tables[compiled.fact]
    columns = {name: fact[name] for name in compiled.needed_columns}
    total = len(next(iter(columns.values())))
    bounds = [total * i // num_shards for i in range(num_shards + 1)]
    return [
        Table(
            f"{compiled.fact}_shard{i}",
            {n: c[bounds[i]:bounds[i + 1]] for n, c in columns.items()},
        )
        for i in range(num_shards)
    ]


class TestThreeWayByteEquality:
    """SQL text -> identical rows on Xeon, one DPU, and a cluster."""

    @pytest.mark.parametrize("name", QUERIES)
    def test_xeon_matches_dpu(self, compiled_queries, data, name):
        compiled = compiled_queries[name]
        dpu_rows = compiled.run_dpu(DPU(), data).value
        xeon_rows = compiled.run_xeon(XeonModel(), data).value
        assert len(dpu_rows) > 0
        assert dpu_rows == xeon_rows

    @pytest.mark.parametrize("num_dpus", [2, 4, 8])
    @pytest.mark.parametrize("name", QUERIES)
    def test_cluster_matches_dpu(self, compiled_queries, data, name,
                                 num_dpus):
        compiled = compiled_queries[name]
        reference = compiled.run_dpu(DPU(), data).value
        cluster = Cluster(num_dpus)
        result = cluster_compiled_query(
            cluster, compiled, _shard_fact(compiled, data, num_dpus))
        assert result.value == reference

    @pytest.mark.parametrize("name", ["q3", "q12"])
    def test_forced_all_to_all_matches(self, compiled_queries, data, name):
        # Single-column group keys may legally repartition by the key
        # even when the planner priced pre-aggregate as cheaper.
        compiled = compiled_queries[name]
        assert compiled.key_column is not None
        reference = compiled.run_dpu(DPU(), data).value
        result = cluster_compiled_query(
            Cluster(4), compiled, _shard_fact(compiled, data, 4),
            strategy="all_to_all")
        assert result.value == reference

    def test_computed_key_rejects_all_to_all(self, compiled_queries, data):
        compiled = compiled_queries["q1"]
        assert compiled.key_column is None
        with pytest.raises(ValueError, match="pre_aggregate"):
            cluster_compiled_query(
                Cluster(2), compiled, _shard_fact(compiled, data, 2),
                strategy="all_to_all")


class TestScalarAggregateAnchor:
    """A scalar query whose select items read no column keys its one
    group on the row filter's first column."""

    SQL = "select count(*) from lineitem where l_quantity < 10"

    def test_count_under_where_equals_numpy(self, data):
        compiled = compile_query(self.SQL, tpch_catalog(data), "count")
        quantity = data.tables["lineitem"]["l_quantity"]
        expected = ((int(np.count_nonzero(quantity < 10)),),)
        assert expected == ((2134,),)
        assert compiled.needed_columns == ["l_quantity"]
        assert compiled.run_xeon(XeonModel(), data).value == expected
        assert compiled.run_dpu(DPU(), data).value == expected
        result = cluster_compiled_query(
            Cluster(2), compiled, _shard_fact(compiled, data, 2))
        assert result.value == expected

    def test_query_reading_no_column_is_refused(self, data):
        with pytest.raises(PlanError, match="reads no columns") as excinfo:
            compile_query("select count(*) from lineitem",
                          tpch_catalog(data), "count")
        assert excinfo.value.clause == "select"


class TestHandPlanParity:
    """The compiled plan must not cost a cycle more than the hand plan."""

    def test_q1_cycles_match_hand_plan(self, compiled_queries, data):
        compiled = compiled_queries["q1"]
        key, aggs, row_filter = q1_plan()
        dpu = DPU()
        hand = dpu_groupby(
            dpu, load_tpch_on_dpu(dpu, data)["lineitem"],
            key, aggs, row_filter=row_filter)
        result = compiled.run_dpu(DPU(), data)
        assert result.cycles == hand.cycles

    def test_q1_lowering_matches_hand_plan_shape(self, compiled_queries):
        compiled = compiled_queries["q1"]
        key, aggs, _row_filter = q1_plan()
        assert isinstance(compiled.key, GroupKey)
        assert list(compiled.key.columns) == list(key.columns)
        assert compiled.key.cycles_per_row == key.cycles_per_row
        assert len(compiled.aggs) == len(aggs)
        assert compiled.plan["filter_terms"] == 1

    def test_q1_output_matches_hand_groups(self, compiled_queries, data):
        # The compiled finish() decodes the mixed-radix key back into
        # the same (returnflag, linestatus) cells the hand key packs.
        compiled = compiled_queries["q1"]
        key, aggs, row_filter = q1_plan()
        dpu = DPU()
        hand = dpu_groupby(
            dpu, load_tpch_on_dpu(dpu, data)["lineitem"],
            key, aggs, row_filter=row_filter)
        rows = compiled.run_dpu(DPU(), data).value
        assert len(rows) == len(hand.value)
        for row in rows:
            packed = int(row[0]) * 2 + int(row[1])
            assert packed in hand.value


class TestCostModelConsistency:
    """Recorded plan choices must follow from the recorded model inputs."""

    @pytest.mark.parametrize("name", QUERIES)
    def test_offload_choice_is_argmin(self, compiled_queries, name):
        offload = compiled_queries[name].plan["offload"]
        expected = ("dpu" if offload["dpu_seconds"] < offload["xeon_seconds"]
                    else "xeon")
        assert offload["choice"] == expected

    @pytest.mark.parametrize("name", QUERIES)
    def test_offload_xeon_seconds_from_cost_model(self, compiled_queries,
                                                  name):
        compiled = compiled_queries[name]
        offload = compiled.plan["offload"]
        shape = compiled.scan_shape(offload["rows"], offload["nbytes"])
        expected = DbmsCostModel(XeonModel()).plan_seconds([shape])
        assert offload["xeon_seconds"] == pytest.approx(expected)

    @pytest.mark.parametrize("name", QUERIES)
    def test_exchange_cycles_from_shuffle_model(self, compiled_queries,
                                                name):
        compiled = compiled_queries[name]
        exchange = compiled.plan["exchange"]
        offload = compiled.plan["offload"]
        fanout = exchange["fanout"]
        pre = ShuffleRackModel(
            total_rows=offload["rows"],
            record_bytes=exchange["row_bytes"],
            result_bytes=exchange["result_bytes_pre"],
            all_to_all=False,
        ).job_cycles(fanout)
        all_to_all = ShuffleRackModel(
            total_rows=offload["rows"],
            record_bytes=exchange["row_bytes"],
            result_bytes=exchange["result_bytes_all"],
            all_to_all=True,
        ).job_cycles(fanout)
        assert exchange["pre_aggregate_cycles"] == pytest.approx(pre)
        assert exchange["all_to_all_cycles"] == pytest.approx(all_to_all)
        if compiled.key_column is None:
            assert exchange["choice"] == "pre_aggregate"
        elif all_to_all < pre:
            assert exchange["choice"] == "all_to_all"
        else:
            assert exchange["choice"] == "pre_aggregate"

    @pytest.mark.parametrize("name", QUERIES)
    def test_run_auto_follows_offload_choice(self, compiled_queries, data,
                                             name):
        compiled = compiled_queries[name]
        result = compiled.run_auto(DPU(), XeonModel(), data)
        picked_dpu = hasattr(result, "cycles")
        assert picked_dpu == (compiled.plan["offload"]["choice"] == "dpu")


class TestCompiledChaosRecovery:
    """Compiled cluster jobs inherit RecoveryManager semantics: kill
    the coordinator mid-query and still finish byte-equal (PR-6/7
    chaos harness, see tests/test_coordinator_failover.py)."""

    @pytest.mark.parametrize("name", ["q1", "q3"])
    def test_coordinator_kill_byte_equal(self, compiled_queries, data,
                                         name):
        compiled = compiled_queries[name]
        reference = compiled.run_dpu(DPU(), data).value
        plan = FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (0,), at_cycle=15_000.0))
        cluster = Cluster(4, fault_plan=plan)
        result = cluster_compiled_query(
            cluster, compiled, _shard_fact(compiled, data, 4))
        assert result.value == reference
        assert cluster.recovery.stats.leader_changes == 1
        assert 0 in cluster.recovery.declared_dead
        assert cluster.leader == 1

    def test_coordinator_kill_all_to_all(self, compiled_queries, data):
        # The repartitioning path restarts the epoch-tagged exchange
        # on survivors too.
        compiled = compiled_queries["q12"]
        reference = compiled.run_dpu(DPU(), data).value
        plan = FaultPlan.none().with_chaos(
            ChaosSpec("dpu.dead", (0,), at_cycle=15_000.0))
        cluster = Cluster(4, fault_plan=plan)
        result = cluster_compiled_query(
            cluster, compiled, _shard_fact(compiled, data, 4),
            strategy="all_to_all")
        assert result.value == reference
        assert cluster.recovery.stats.leader_changes == 1
