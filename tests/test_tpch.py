"""Tests for the TPC-H generator and query plans (DPU vs baseline)."""

import numpy as np
import pytest

from repro.apps.sql import TPCH_QUERIES, load_tpch_on_dpu, run_query
from repro.apps.sql.tpch_queries import _Q1_CUTOFF, _Q6_PRED
from repro.baseline import XeonModel
from repro.core import DPU
from repro.workloads.tpch import (
    DATE_EPOCH_DAYS,
    NATIONS,
    REGIONS,
    SHIP_MODES,
    date_code,
    generate_tpch,
    part_type_is_promo,
)


@pytest.fixture(scope="module")
def data():
    return generate_tpch(scale=0.002, seed=11)


@pytest.fixture(scope="module")
def platform(data):
    dpu = DPU()
    tables = load_tpch_on_dpu(dpu, data)
    return dpu, tables, XeonModel()


class TestGenerator:
    def test_cardinality_ratios(self, data):
        orders = data.num_rows("orders")
        lineitems = data.num_rows("lineitem")
        customers = data.num_rows("customer")
        assert orders == 10 * customers  # dbgen: 1.5M vs 150K per SF
        assert 1.0 <= lineitems / orders <= 7.0

    def test_dates_in_dbgen_window(self, data):
        shipdate = data.table("lineitem")["l_shipdate"]
        assert shipdate.min() >= 0
        assert shipdate.max() <= DATE_EPOCH_DAYS + 122

    def test_date_ordering_invariants(self, data):
        line = data.table("lineitem")
        assert np.all(line["l_receiptdate"] > line["l_shipdate"])

    def test_foreign_keys_valid(self, data):
        assert data.table("lineitem")["l_orderkey"].max() < data.num_rows("orders")
        assert data.table("orders")["o_custkey"].max() < data.num_rows("customer")
        assert data.table("lineitem")["l_partkey"].max() < data.num_rows("part")

    def test_discount_tax_ranges(self, data):
        line = data.table("lineitem")
        assert line["l_discount"].min() >= 0 and line["l_discount"].max() <= 10
        assert line["l_tax"].min() >= 0 and line["l_tax"].max() <= 8

    def test_nation_region_mapping(self, data):
        nation = data.table("nation")
        assert len(nation["n_nationkey"]) == len(NATIONS) == 25
        assert nation["n_regionkey"].max() < len(REGIONS)

    def test_deterministic_given_seed(self):
        a = generate_tpch(scale=0.001, seed=5)
        b = generate_tpch(scale=0.001, seed=5)
        assert np.array_equal(
            a.table("lineitem")["l_shipdate"], b.table("lineitem")["l_shipdate"]
        )

    def test_promo_type_predicate(self):
        codes = np.array([0, 24, 25, 149], dtype=np.int16)
        assert list(part_type_is_promo(codes)) == [True, True, False, False]

    def test_date_code(self):
        assert date_code(1992, 1, 1) == 0
        assert date_code(1992, 1, 2) == 1
        assert date_code(1998, 12, 31) == DATE_EPOCH_DAYS


class TestQueries:
    def test_q1_matches_host_truth(self, data, platform):
        dpu, tables, model = platform
        dpu_result, xeon_result = run_query("Q1", dpu, tables, data, model)
        line = data.table("lineitem")
        mask = line["l_shipdate"] <= _Q1_CUTOFF
        for rf in range(3):
            for ls in range(2):
                key = rf * 2 + ls
                selected = (
                    mask
                    & (line["l_returnflag"] == rf)
                    & (line["l_linestatus"] == ls)
                )
                if not selected.any():
                    assert key not in dpu_result.value
                    continue
                slots = dpu_result.value[key]
                assert slots[0] == pytest.approx(
                    line["l_quantity"][selected].sum()
                )
                assert slots[5] == int(selected.sum())  # count
        # Both platforms computed identical group tables.
        assert set(dpu_result.value) == set(xeon_result.value)
        for key in xeon_result.value:
            for a, b in zip(dpu_result.value[key], xeon_result.value[key]):
                assert a == pytest.approx(b)

    def test_q6_matches_host_truth(self, data, platform):
        dpu, tables, model = platform
        dpu_result, xeon_result = run_query("Q6", dpu, tables, data, model)
        line = data.table("lineitem")
        mask = _Q6_PRED.mask_fn(line)
        expected = int(
            (line["l_extendedprice"][mask].astype(np.int64)
             * line["l_discount"][mask]).sum()
        )
        assert dpu_result.value[0][0] == pytest.approx(expected)
        assert xeon_result.value[0][0] == pytest.approx(expected)

    @pytest.mark.parametrize("name", ["Q3", "Q5", "Q10", "Q12", "Q14"])
    def test_query_platforms_agree(self, data, platform, name):
        dpu, tables, model = platform
        dpu_result, xeon_result = run_query(name, dpu, tables, data, model)
        if isinstance(dpu_result.value, dict):
            assert set(dpu_result.value) == set(xeon_result.value)
            for key in xeon_result.value:
                for a, b in zip(dpu_result.value[key], xeon_result.value[key]):
                    assert a == pytest.approx(b)
        elif isinstance(dpu_result.value, float):
            assert dpu_result.value == pytest.approx(xeon_result.value)
        else:
            assert dpu_result.value == xeon_result.value

    def test_q14_ratio_is_percentage(self, data, platform):
        dpu, tables, model = platform
        dpu_result, _ = run_query("Q14", dpu, tables, data, model)
        assert 0.0 <= dpu_result.value <= 100.0

    def test_all_queries_show_dpu_advantage(self, data, platform):
        """Figure 16 shape: every query wins on perf/watt."""
        from repro.apps.sql import efficiency_gain
        dpu, tables, model = platform
        for name in TPCH_QUERIES:
            dpu_result, xeon_result = run_query(name, dpu, tables, data, model)
            assert efficiency_gain(dpu_result, xeon_result) > 3.0, name
