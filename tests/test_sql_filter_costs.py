"""Tests for SQL scan-filter, projection, and ISA-derived costs."""

import numpy as np
import pytest

from repro.apps.sql import (
    AGG_CYCLES_PER_ROW,
    And,
    Between,
    Eq,
    FILTER_CYCLES_PER_TUPLE,
    Ge,
    InSet,
    Le,
    Or,
    Table,
    dpu_filter,
    dpu_scan_project,
    measure_agg_loop,
    measure_filter_loop,
    xeon_filter,
)
from repro.apps.sql.aggregate import RowFilter
from repro.baseline import XeonModel
from repro.core import DPU


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(3)
    n = 64 * 1024
    return Table("t", {
        "a": rng.integers(0, 10000, n).astype(np.int32),
        "b": rng.integers(-50, 50, n).astype(np.int32),
    })


@pytest.fixture()
def loaded(table):
    dpu = DPU()
    return dpu, table.to_dpu(dpu)


class TestCosts:
    def test_filter_constant_matches_interpreter(self):
        measured = measure_filter_loop(1024)
        assert measured == pytest.approx(FILTER_CYCLES_PER_TUPLE, abs=0.05)

    def test_filter_near_paper_1_65(self):
        # Figure 15: ~1.65 cycles/tuple (482 Mtuples/s at 800 MHz).
        assert 1.4 <= measure_filter_loop(1024) <= 1.8

    def test_agg_constant_matches_interpreter(self):
        assert measure_agg_loop(256) == pytest.approx(
            AGG_CYCLES_PER_ROW, abs=0.5
        )


class TestPredicates:
    def test_between_mask(self, table):
        mask = Between("a", 100, 200).mask_fn(table.columns)
        values = table.column("a")
        assert np.array_equal(mask, (values >= 100) & (values <= 200))

    def test_compound_and_or(self, table):
        predicate = (Between("a", 0, 5000) & Ge("b", 0)) | Eq("b", -50)
        mask = predicate.mask_fn(table.columns)
        a, b = table.column("a"), table.column("b")
        expected = ((a <= 5000) & (b >= 0)) | (b == -50)
        assert np.array_equal(mask, expected)

    def test_inset_terms_count(self):
        assert InSet("a", [1, 2, 3]).filt_terms() == 3
        assert Between("a", 0, 1).filt_terms() == 1
        combined = And([Between("a", 0, 1), InSet("b", [1, 2])])
        assert combined.filt_terms() == 3

    def test_cost_scales_with_terms(self):
        single = Between("a", 0, 1).dpu_cycles_per_row
        triple = InSet("a", [1, 2, 3]).dpu_cycles_per_row
        assert triple > 2.9 * single

    def test_inset_requires_values(self):
        with pytest.raises(ValueError):
            InSet("a", [])


class TestDpuFilter:
    def test_mask_matches_numpy(self, loaded):
        dpu, dtable = loaded
        predicate = Between("a", 1000, 3000)
        result = dpu_filter(dpu, dtable, predicate)
        expected = predicate.mask_fn(dtable.table.columns)
        assert np.array_equal(result.value, expected)
        assert result.detail["selected"] == int(expected.sum())

    def test_compound_predicate_on_dpu(self, loaded):
        dpu, dtable = loaded
        predicate = Between("a", 0, 5000) & Between("b", -10, 10)
        result = dpu_filter(dpu, dtable, predicate)
        assert np.array_equal(
            result.value, predicate.mask_fn(dtable.table.columns)
        )

    def test_single_core_filter_rate_near_500_mtuples(self):
        """Figure 15: one dpCore is compute-bound at ~1.6 cyc/tuple."""
        dpu = DPU()
        n = 128 * 1024
        table = Table("t", {"a": np.arange(n, dtype=np.int32)})
        dtable = table.to_dpu(dpu)
        result = dpu_filter(dpu, dtable, Between("a", 0, 50), cores=[0],
                            tile_rows=2048)
        tuples_per_second = n / result.seconds
        assert 4.0e8 < tuples_per_second < 5.5e8

    def test_32_core_filter_is_bandwidth_bound(self, loaded):
        dpu, dtable = loaded
        result = dpu_filter(dpu, dtable, Between("a", 0, 50))
        assert result.gbps > 7.0  # near DMS stream bandwidth

    def test_rowfilter_accepted(self, loaded):
        dpu, dtable = loaded
        custom = RowFilter(
            mask_fn=lambda c: (c["a"] % 2 == 0),
            columns=("a",),
            dpu_cycles_per_row=2.0,
            xeon_ops_per_row=0.5,
        )
        result = dpu_filter(dpu, dtable, custom)
        assert np.array_equal(
            result.value, dtable.table.column("a") % 2 == 0
        )


class TestScanProject:
    def test_projection_materializes_computed_column(self, loaded):
        dpu, dtable = loaded
        row_filter = RowFilter(
            mask_fn=lambda c: np.ones(len(c["a"]), dtype=bool),
            columns=("a", "b"),
            dpu_cycles_per_row=3.0,
            xeon_ops_per_row=1.0,
        )
        result = dpu_scan_project(
            dpu, dtable, row_filter,
            project=lambda c: (c["a"].astype(np.int64)
                               + c["b"].astype(np.int64)).astype(np.int32),
            out_dtype=np.int32,
        )
        expected = (
            dtable.table.column("a").astype(np.int64)
            + dtable.table.column("b").astype(np.int64)
        ).astype(np.int32)
        assert np.array_equal(result.value.view(np.int32), expected)


class TestXeonFilter:
    def test_same_mask_as_dpu(self, loaded):
        dpu, dtable = loaded
        predicate = Between("a", 500, 1500)
        dpu_result = dpu_filter(dpu, dtable, predicate)
        xeon_result = xeon_filter(XeonModel(), dtable.table, predicate)
        assert np.array_equal(dpu_result.value, xeon_result.value)

    def test_xeon_filter_memory_bound(self, table):
        model = XeonModel()
        result = xeon_filter(model, table, Between("a", 0, 10))
        floor = model.memory_seconds(table.column("a").nbytes)
        assert result.seconds >= floor
