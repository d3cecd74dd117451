"""Tests for group-by across the three physical strategies."""

import numpy as np
import pytest

from repro.apps.sql import (
    AggSpec,
    Between,
    DmemBudget,
    GroupKey,
    Table,
    dpu_filter,
    dpu_groupby,
    merge_groups,
    plan_partitioning,
    xeon_groupby,
)
from repro.apps.sql.filter import dpu_scan_project
from repro.apps.sql.join import bitmap_filter, broadcast_array, key_bitmap
from repro.baseline import XeonModel
from repro.core import DPU


def host_groupby(table, key, value_col, mask=None):
    keys = table.column(key)
    values = table.column(value_col).astype(np.int64)
    if mask is not None:
        keys, values = keys[mask], values[mask]
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse, values)
    counts = np.bincount(inverse, minlength=len(uniq))
    return {
        int(k): (int(s), int(c)) for k, s, c in zip(uniq, sums, counts)
    }


def check_against_host(result, expected):
    assert len(result) == len(expected)
    for key, (total, count) in expected.items():
        slots = result[key]
        assert slots[0] == pytest.approx(total)
        assert slots[1] == count


class TestPlanner:
    def test_low_ndv_needs_no_partitioning(self):
        plan = plan_partitioning(ndv=100, group_record_bytes=16)
        assert plan.partitions_needed == 1
        assert plan.dpu_sw_rounds == 0 and plan.x86_rounds == 0
        assert plan.dpu_memory_passes == 1.0

    def test_moderate_ndv_hardware_only(self):
        # ~300 KB of groups: fits 32 DMEMs, not one.
        plan = plan_partitioning(ndv=20000, group_record_bytes=16)
        assert 1 < plan.partitions_needed <= 32
        assert plan.dpu_sw_rounds == 0  # the paper's "no extra round-trip"
        assert plan.x86_rounds >= 1  # x86 pays a round the DPU does not

    def test_high_ndv_asymmetry(self):
        # ~12 MB of groups: one DPU software round, two x86 rounds —
        # the §5.3 high-NDV case (9.7x vs 6.7x).
        plan = plan_partitioning(ndv=750_000, group_record_bytes=16)
        assert plan.dpu_sw_rounds == 1
        assert plan.x86_rounds == 2
        assert plan.x86_memory_passes > plan.dpu_memory_passes

    def test_budget_math(self):
        budget = DmemBudget()
        assert budget.hash_table == 32 * 1024 - budget.io_buffers - budget.metadata
        with pytest.raises(ValueError):
            DmemBudget(io_buffers=30 * 1024, metadata=4 * 1024).hash_table

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_partitioning(0, 16)
        with pytest.raises(ValueError):
            plan_partitioning(10, 0)


class TestLowNdv:
    def test_sum_count_match_host(self):
        rng = np.random.default_rng(0)
        n = 32 * 1024
        table = Table("t", {
            "g": rng.integers(0, 50, n).astype(np.int32),
            "v": rng.integers(0, 100, n).astype(np.int32),
        })
        dpu = DPU()
        result = dpu_groupby(
            dpu, table.to_dpu(dpu), "g",
            [AggSpec("sum", "v"), AggSpec("count")],
        )
        assert result.detail["partitions_needed"] == 1
        check_against_host(result.value, host_groupby(table, "g", "v"))

    def test_min_max(self):
        rng = np.random.default_rng(1)
        table = Table("t", {
            "g": rng.integers(0, 8, 4096).astype(np.int32),
            "v": rng.integers(-1000, 1000, 4096).astype(np.int32),
        })
        dpu = DPU()
        result = dpu_groupby(
            dpu, table.to_dpu(dpu), "g",
            [AggSpec("min", "v"), AggSpec("max", "v")],
        )
        for key in np.unique(table.column("g")):
            selected = table.column("v")[table.column("g") == key]
            assert result.value[int(key)][0] == selected.min()
            assert result.value[int(key)][1] == selected.max()

    def test_filtered_groupby(self):
        rng = np.random.default_rng(2)
        n = 16 * 1024
        table = Table("t", {
            "g": rng.integers(0, 10, n).astype(np.int32),
            "v": rng.integers(0, 100, n).astype(np.int32),
            "f": rng.integers(0, 1000, n).astype(np.int32),
        })
        dpu = DPU()
        predicate = Between("f", 0, 499)
        result = dpu_groupby(
            dpu, table.to_dpu(dpu), "g",
            [AggSpec("sum", "v"), AggSpec("count")],
            row_filter=predicate,
        )
        mask = predicate.mask_fn(table.columns)
        check_against_host(result.value, host_groupby(table, "g", "v", mask))

    def test_expression_aggregate(self):
        rng = np.random.default_rng(3)
        n = 8192
        table = Table("t", {
            "g": rng.integers(0, 4, n).astype(np.int32),
            "p": rng.integers(1, 100, n).astype(np.int32),
            "d": rng.integers(0, 10, n).astype(np.int32),
        })
        dpu = DPU()
        spec = AggSpec(
            "sum",
            expr=lambda c: c["p"].astype(np.int64) * (100 - c["d"]),
            expr_columns=("p", "d"),
            expr_cycles_per_row=2.0,
        )
        result = dpu_groupby(dpu, table.to_dpu(dpu), "g", [spec])
        p = table.column("p").astype(np.int64)
        d = table.column("d").astype(np.int64)
        g = table.column("g")
        for key in np.unique(g):
            expected = (p[g == key] * (100 - d[g == key])).sum()
            assert result.value[int(key)][0] == pytest.approx(expected)

    def test_computed_group_key(self):
        rng = np.random.default_rng(4)
        n = 8192
        table = Table("t", {
            "a": rng.integers(0, 3, n).astype(np.int8),
            "b": rng.integers(0, 2, n).astype(np.int8),
            "v": rng.integers(0, 10, n).astype(np.int32),
        })
        dpu = DPU()
        key = GroupKey(
            fn=lambda c: c["a"].astype(np.int64) * 2 + c["b"],
            columns=("a", "b"),
            cycles_per_row=1.0,
        )
        result = dpu_groupby(dpu, table.to_dpu(dpu), key, [AggSpec("count")])
        composite = table.column("a").astype(np.int64) * 2 + table.column("b")
        for value in np.unique(composite):
            assert result.value[int(value)][0] == int((composite == value).sum())


class TestHwPartitioned:
    def test_mid_ndv_uses_hw_partition_and_matches(self):
        rng = np.random.default_rng(5)
        n = 64 * 1024
        ndv = 20000
        table = Table("t", {
            "g": rng.integers(0, ndv, n).astype(np.int32),
            "v": rng.integers(0, 100, n).astype(np.int32),
        })
        dpu = DPU()
        result = dpu_groupby(
            dpu, table.to_dpu(dpu), "g",
            [AggSpec("sum", "v"), AggSpec("count")],
        )
        assert 1 < result.detail["partitions_needed"] <= 32
        check_against_host(result.value, host_groupby(table, "g", "v"))


class TestSwRound:
    def test_small_budget_forces_sw_round_and_matches(self):
        # A tiny DMEM hash budget forces the software round without
        # needing a gigantic table.
        rng = np.random.default_rng(6)
        n = 48 * 1024
        ndv = 12000
        table = Table("t", {
            "g": rng.integers(0, ndv, n).astype(np.int32),
            "v": rng.integers(0, 100, n).astype(np.int32),
        })
        budget = DmemBudget(total=32 * 1024, io_buffers=28 * 1024,
                            metadata=1024)
        plan = plan_partitioning(ndv, 24, budget)
        assert plan.dpu_sw_rounds == 1
        dpu = DPU()
        result = dpu_groupby(
            dpu, table.to_dpu(dpu), "g",
            [AggSpec("sum", "v"), AggSpec("count")],
            budget=budget,
        )
        assert result.detail["sw_rounds"] == 1
        check_against_host(result.value, host_groupby(table, "g", "v"))


class TestBroadcastFit:
    """Broadcast tables sit at the bottom of DMEM, below the stream
    tiles; a layout that leaves less than two 64-row tiles is an error,
    not a silent overlap."""

    @staticmethod
    def _setup(bitmap_bytes):
        dpu = DPU()
        rng = np.random.default_rng(3)
        domain = bitmap_bytes * 8
        words = key_bitmap(np.arange(0, domain, 5), domain)
        broadcast, _host = broadcast_array(dpu, "bits", words)
        dtable = Table("t", {
            "k": rng.integers(0, domain, 4000).astype(np.int32),
            "g": rng.integers(0, 8, 4000).astype(np.int32),
        }).to_dpu(dpu)
        return dpu, dtable, bitmap_filter("k", words), broadcast

    def test_low_ndv_groupby_rejects_overlap(self):
        dpu, dtable, row_filter, broadcast = self._setup(30_000)
        with pytest.raises(ValueError, match="two 64-row tiles"):
            dpu_groupby(dpu, dtable, "g", [AggSpec("count")],
                        row_filter=row_filter, broadcasts=(broadcast,))
        assert dpu.engine.now == 0

    def test_filter_rejects_overlap(self):
        dpu, dtable, row_filter, broadcast = self._setup(30_000)
        with pytest.raises(ValueError, match="two 64-row tiles"):
            dpu_filter(dpu, dtable, row_filter, broadcasts=(broadcast,))
        with pytest.raises(ValueError, match="two 64-row tiles"):
            dpu_scan_project(dpu, dtable, row_filter,
                             lambda columns: columns["g"], np.int32,
                             broadcasts=(broadcast,))
        assert dpu.engine.now == 0

    def test_largest_fitting_broadcast_runs(self):
        from repro.apps.sql.aggregate import fit_broadcasts

        # Two 64-row tiles of 8-byte rows: 1,024 B of the 30 KB.
        dpu, dtable, row_filter, broadcast = self._setup(29_696)
        assert fit_broadcasts(1, 8, broadcast.nbytes) == 64
        result = dpu_groupby(dpu, dtable, "g", [AggSpec("count")],
                             row_filter=row_filter, broadcasts=(broadcast,))
        keys = dtable.table.column("g")[row_filter.mask_fn(
            {"k": dtable.table.column("k")})]
        assert result.value == {
            int(g): [int(n)] for g, n in zip(*np.unique(keys,
                                                        return_counts=True))
        }

    def test_hardware_path_limit(self):
        from repro.apps.sql.aggregate import fit_broadcasts

        assert fit_broadcasts(8, 8, 12 * 1024, tile_rows=512) == 512
        with pytest.raises(ValueError, match="partition buffer"):
            fit_broadcasts(8, 8, 12 * 1024 + 1)


class TestMergeAndXeon:
    def test_merge_groups_combines_all_ops(self):
        aggs = [AggSpec("sum", "v"), AggSpec("count"),
                AggSpec("min", "v"), AggSpec("max", "v")]
        a = {1: [10.0, 2, 3.0, 7.0]}
        b = {1: [5.0, 1, 1.0, 9.0], 2: [1.0, 1, 1.0, 1.0]}
        merged = merge_groups([a, b], aggs)
        assert merged[1] == [15.0, 3, 1.0, 9.0]
        assert merged[2] == [1.0, 1, 1.0, 1.0]

    def test_xeon_matches_dpu_values(self):
        rng = np.random.default_rng(7)
        table = Table("t", {
            "g": rng.integers(0, 30, 16384).astype(np.int32),
            "v": rng.integers(0, 100, 16384).astype(np.int32),
        })
        dpu = DPU()
        aggs = [AggSpec("sum", "v"), AggSpec("count")]
        dpu_result = dpu_groupby(dpu, table.to_dpu(dpu), "g", aggs)
        xeon_result = xeon_groupby(XeonModel(), table, "g", aggs)
        assert set(dpu_result.value) == set(xeon_result.value)
        for key in xeon_result.value:
            assert dpu_result.value[key][0] == pytest.approx(
                xeon_result.value[key][0]
            )

    def test_high_ndv_gain_exceeds_low_ndv_gain(self):
        """The §5.3 asymmetry: 9.7x (high) > 6.7x (low), by shape."""
        from repro.apps.sql import efficiency_gain
        model = XeonModel()
        rng = np.random.default_rng(8)
        n = 64 * 1024
        low = Table("t", {
            "g": rng.integers(0, 64, n).astype(np.int32),
            "v": rng.integers(0, 100, n).astype(np.int32),
        })
        dpu = DPU()
        aggs = [AggSpec("sum", "v")]
        low_gain = None
        d = dpu_groupby(dpu, low.to_dpu(dpu), "g", aggs)
        x = xeon_groupby(model, low, "g", aggs)
        low_gain = efficiency_gain(d, x)
        assert 4.0 < low_gain < 9.0  # around the paper's 6.7x


class TestIntegerKeys:
    """Group keys are integers; a float key (where NaN would be a
    group per tile on the DPU and one group on the Xeon) is refused by
    name before anything runs."""

    @staticmethod
    def _table():
        rng = np.random.default_rng(9)
        keys = np.where(rng.random(4000) < 0.5, 1.0, np.nan)
        return Table("t", {"g": keys, "v": np.ones(4000, dtype=np.int32)})

    def test_float_key_is_refused(self):
        table = self._table()
        dpu = DPU()
        dtable = table.to_dpu(dpu)
        with pytest.raises(ValueError, match="group key 'g' is float64"):
            dpu_groupby(dpu, dtable, "g", [AggSpec("count")], tile_rows=64)
        assert dpu.engine.now == 0
        with pytest.raises(ValueError, match="group key 'g' is float64"):
            xeon_groupby(XeonModel(), table, "g", [AggSpec("count")])

    def test_float_computed_key_is_refused(self):
        table = self._table()
        key = GroupKey(fn=lambda c: c["g"] * 2, columns=("g",), name="twice")
        dpu = DPU()
        dtable = table.to_dpu(dpu)
        with pytest.raises(ValueError, match="group key 'twice'"):
            dpu_groupby(dpu, dtable, key, [AggSpec("count")])
        assert dpu.engine.now == 0
        with pytest.raises(ValueError, match="group key 'twice'"):
            xeon_groupby(XeonModel(), table, key, [AggSpec("count")])


class TestWideRecords:
    """The hardware partitioner sizes chunks to whole records per CMEM
    bank, so records wider than 128 B partition, and one wider than a
    bank is refused before anything runs."""

    @staticmethod
    def _table(rows, value_columns, seed=4):
        rng = np.random.default_rng(seed)
        columns = {"k": rng.integers(0, 4000, rows).astype(np.int64)}
        for index in range(value_columns):
            columns[f"c{index}"] = rng.integers(
                -1000, 1000, rows).astype(np.int64)
        return Table("wide", columns)

    def test_160_byte_records_equal_numpy(self):
        table = self._table(6000, 19)
        aggs = [AggSpec("sum", f"c{index}") for index in range(19)]
        dpu = DPU()
        result = dpu_groupby(dpu, table.to_dpu(dpu), "k", aggs,
                             ndv_hint=4000)
        keys = table.column("k")
        uniq, inverse = np.unique(keys, return_inverse=True)
        assert sorted(result.value) == [int(key) for key in uniq]
        for index in range(19):
            sums = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(sums, inverse, table.column(f"c{index}"))
            assert [result.value[int(key)][index] for key in uniq] == \
                sums.tolist()

    def test_record_wider_than_a_bank_is_refused(self):
        table = self._table(64, 1024)  # 8 * 1025 = 8200 B records
        # One aggregate reading every column: the groups stay small, the
        # partitioned records do not.
        aggs = [AggSpec("sum", expr=lambda columns: columns["c0"],
                        expr_columns=tuple(f"c{i}" for i in range(1024)))]
        dpu = DPU()
        dtable = table.to_dpu(dpu)
        with pytest.raises(ValueError, match="8200 B record"):
            dpu_groupby(dpu, dtable, "k", aggs, ndv_hint=4000)
        assert dpu.engine.now == 0
