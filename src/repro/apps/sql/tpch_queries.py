"""TPC-H queries on the DPU engine vs the Xeon baseline (paper §5.3,
Figure 16).

Each query is a hand-composed physical plan over the engine's
operators — the granularity at which the paper's commercial database
offloads plans to the DPU. Plans follow the §5.3 playbook: scans with
FILT acceleration, broadcast-DMEM lookups for the dense foreign-key
joins, hardware/software partitioning for grouping, and a merge or
top-k tail.

Money stays in integer cents and discounts/taxes in integer percent
(the dpCore has no FPU), so both platforms compute bit-identical
aggregates up to the final division.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ...baseline.dbms import DbmsCostModel, ScanShape
from ...baseline.xeon import XeonModel
from ...core.dpu import DPU
from ...workloads.tpch import (
    SEGMENTS,
    SHIP_MODES,
    TpchData,
    date_code,
    part_type_is_promo,
)
from .aggregate import AggSpec, GroupKey, dpu_groupby, xeon_groupby
from .engine import DpuOpResult, XeonOpResult
from .expr import Between, Eq, Ge, InSet, Le, RowFilter
from .filter import dpu_filter, dpu_scan_project, xeon_filter
from .join import (
    BITMAP_PROBE_CYCLES_PER_ROW,
    LOOKUP_CYCLES_PER_ROW,
    bitmap_filter,
    broadcast_array,
    key_bitmap,
)
from .table import DpuTable, Table

__all__ = [
    "TPCH_QUERIES",
    "TpchQuery",
    "load_tpch_on_dpu",
    "q1_plan",
    "run_query",
]


@dataclass(frozen=True)
class TpchQuery:
    name: str
    dpu_fn: Callable
    xeon_fn: Callable
    paper_gain_hint: float  # approximate bar height in Figure 16


def load_tpch_on_dpu(dpu: DPU, data: TpchData) -> Dict[str, DpuTable]:
    """Copy every generated table into DPU DDR."""
    tables = {}
    for name, columns in data.tables.items():
        tables[name] = Table(name, dict(columns)).to_dpu(dpu)
    return tables


def _combine_dpu(results: List[DpuOpResult], value) -> DpuOpResult:
    return DpuOpResult(
        value=value,
        cycles=sum(result.cycles for result in results),
        config=results[0].config,
        bytes_streamed=sum(result.bytes_streamed for result in results),
    )


def _combine_xeon(results: List[XeonOpResult], value) -> XeonOpResult:
    return XeonOpResult(
        value=value,
        seconds=sum(result.seconds for result in results),
        bytes_streamed=sum(result.bytes_streamed for result in results),
    )


# -- Q1: pricing summary report ---------------------------------------------

_Q1_CUTOFF = date_code(1998, 12, 1) - 90


def _q1_aggs() -> List[AggSpec]:
    disc_price = AggSpec(
        "sum",
        expr=lambda c: c["l_extendedprice"].astype(np.int64)
        * (100 - c["l_discount"]),
        expr_columns=("l_extendedprice", "l_discount"),
        expr_cycles_per_row=2.0,
    )
    charge = AggSpec(
        "sum",
        expr=lambda c: c["l_extendedprice"].astype(np.int64)
        * (100 - c["l_discount"])
        * (100 + c["l_tax"]),
        expr_columns=("l_extendedprice", "l_discount", "l_tax"),
        expr_cycles_per_row=4.0,
    )
    return [
        AggSpec("sum", "l_quantity"),
        AggSpec("sum", "l_extendedprice"),
        disc_price,
        charge,
        AggSpec("sum", "l_discount"),
        AggSpec("count"),
    ]


_Q1_KEY = GroupKey(
    fn=lambda c: c["l_returnflag"].astype(np.int64) * 2
    + c["l_linestatus"].astype(np.int64),
    columns=("l_returnflag", "l_linestatus"),
    cycles_per_row=1.0,
    name="rf_ls",
)


def q1_plan() -> Tuple[GroupKey, List[AggSpec], Le]:
    """Q1's physical plan pieces (group key, aggregates, row filter).

    Shared between the single-DPU query and the cluster job
    (:func:`repro.cluster.scaleout.cluster_tpch_q1`), which runs the
    same plan per shard and merges the partials.
    """
    return _Q1_KEY, _q1_aggs(), Le("l_shipdate", _Q1_CUTOFF)


def q1_dpu(dpu: DPU, tables: Dict[str, DpuTable], data: TpchData) -> DpuOpResult:
    key, aggs, row_filter = q1_plan()
    result = dpu_groupby(
        dpu,
        tables["lineitem"],
        key,
        aggs,
        row_filter=row_filter,
    )
    return result


def q1_xeon(model: XeonModel, data: TpchData) -> XeonOpResult:
    table = Table("lineitem", data.tables["lineitem"])
    functional = xeon_groupby(
        model, table, _Q1_KEY, _q1_aggs(), row_filter=Le("l_shipdate", _Q1_CUTOFF)
    )
    dbms = DbmsCostModel(model)
    rows = table.num_rows
    nbytes = table.nbytes(
        ["l_shipdate", "l_returnflag", "l_linestatus", "l_quantity",
         "l_extendedprice", "l_discount", "l_tax"]
    )
    seconds = dbms.plan_seconds([
        ScanShape(rows=rows, nbytes=nbytes, filter_terms=1, aggregates=6,
                  groupby=True),
    ])
    return XeonOpResult(value=functional.value, seconds=seconds,
                        bytes_streamed=nbytes)


# -- Q6: forecasting revenue change -------------------------------------------

_Q6_PRED = (
    Between("l_shipdate", date_code(1994, 1, 1), date_code(1995, 1, 1) - 1)
    & Between("l_discount", 5, 7)
    & Le("l_quantity", 23)
)
_Q6_AGG = AggSpec(
    "sum",
    expr=lambda c: c["l_extendedprice"].astype(np.int64) * c["l_discount"],
    expr_columns=("l_extendedprice", "l_discount"),
    expr_cycles_per_row=2.0,
)
_Q6_KEY = GroupKey(
    fn=lambda c: np.zeros(len(c["l_extendedprice"]), dtype=np.int64),
    columns=("l_extendedprice",),
    cycles_per_row=0.0,
    name="const",
)


def q6_dpu(dpu: DPU, tables: Dict[str, DpuTable], data: TpchData) -> DpuOpResult:
    return dpu_groupby(
        dpu, tables["lineitem"], _Q6_KEY, [_Q6_AGG], row_filter=_Q6_PRED,
        ndv_hint=1,
    )


def q6_xeon(model: XeonModel, data: TpchData) -> XeonOpResult:
    table = Table("lineitem", data.tables["lineitem"])
    functional = xeon_groupby(
        model, table, _Q6_KEY, [_Q6_AGG], row_filter=_Q6_PRED, ndv_hint=1
    )
    dbms = DbmsCostModel(model)
    nbytes = table.nbytes(
        ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]
    )
    seconds = dbms.plan_seconds([
        ScanShape(rows=table.num_rows, nbytes=nbytes, filter_terms=3,
                  aggregates=1),
    ])
    return XeonOpResult(value=functional.value, seconds=seconds,
                        bytes_streamed=nbytes)


# -- Q3: shipping priority (customer x orders x lineitem, top 10) -------------

_Q3_DATE = date_code(1995, 3, 15)
_Q3_SEGMENT = SEGMENTS.index("BUILDING")
_REVENUE = AggSpec(
    "sum",
    expr=lambda c: c["l_extendedprice"].astype(np.int64)
    * (100 - c["l_discount"]),
    expr_columns=("l_extendedprice", "l_discount"),
    expr_cycles_per_row=2.0,
)


def q3_dpu(dpu: DPU, tables: Dict[str, DpuTable], data: TpchData) -> DpuOpResult:
    steps: List[DpuOpResult] = []
    # 1. customers in the BUILDING segment -> custkey bitmap.
    cust = dpu_filter(dpu, tables["customer"], Eq("c_mktsegment", _Q3_SEGMENT))
    steps.append(cust)
    cust_bitmap = key_bitmap(
        np.nonzero(cust.value)[0], data.num_rows("customer")
    )
    cust_bc, _view = broadcast_array(dpu, "cust_bitmap", cust_bitmap)
    # 2. open orders of those customers -> orderkey bitmap.
    orders = dpu_filter(
        dpu,
        tables["orders"],
        bitmap_filter(
            "o_custkey", cust_bitmap, extra=Le("o_orderdate", _Q3_DATE - 1)
        ),
        broadcasts=(cust_bc,),
    )
    steps.append(orders)
    order_bitmap = key_bitmap(
        np.nonzero(orders.value)[0], data.num_rows("orders")
    )
    order_bc, _view = broadcast_array(dpu, "order_bitmap", order_bitmap)
    # 3. revenue per order over qualifying lineitems.
    selected_orders = int(orders.value.sum())
    grouped = dpu_groupby(
        dpu,
        tables["lineitem"],
        "l_orderkey",
        [_REVENUE],
        row_filter=bitmap_filter(
            "l_orderkey", order_bitmap, extra=Ge("l_shipdate", _Q3_DATE + 1)
        ),
        ndv_hint=max(1, selected_orders),
        broadcasts=(order_bc,),
    )
    steps.append(grouped)
    # 4. top 10 by revenue; attach order date/priority (tiny tail).
    orderdate = data.table("orders")["o_orderdate"]
    shipprio = data.table("orders")["o_shippriority"]
    ranked = sorted(
        grouped.value.items(), key=lambda item: (-item[1][0], item[0])
    )[:10]
    rows = [
        (int(orderkey), slots[0], int(orderdate[orderkey]),
         int(shipprio[orderkey]))
        for orderkey, slots in ranked
    ]
    return _combine_dpu(steps, rows)


def q3_xeon(model: XeonModel, data: TpchData) -> XeonOpResult:
    steps: List[XeonOpResult] = []
    customer = Table("customer", data.tables["customer"])
    orders = Table("orders", data.tables["orders"])
    lineitem = Table("lineitem", data.tables["lineitem"])
    cust = xeon_filter(model, customer, Eq("c_mktsegment", _Q3_SEGMENT))
    steps.append(cust)
    cust_bitmap = key_bitmap(np.nonzero(cust.value)[0], customer.num_rows)
    sel_orders = xeon_filter(
        model,
        orders,
        bitmap_filter(
            "o_custkey", cust_bitmap, extra=Le("o_orderdate", _Q3_DATE - 1)
        ),
    )
    steps.append(sel_orders)
    order_bitmap = key_bitmap(np.nonzero(sel_orders.value)[0], orders.num_rows)
    grouped = xeon_groupby(
        model,
        lineitem,
        "l_orderkey",
        [_REVENUE],
        row_filter=bitmap_filter(
            "l_orderkey", order_bitmap, extra=Ge("l_shipdate", _Q3_DATE + 1)
        ),
        ndv_hint=max(1, int(sel_orders.value.sum())),
    )
    steps.append(grouped)
    orderdate = data.table("orders")["o_orderdate"]
    shipprio = data.table("orders")["o_shippriority"]
    ranked = sorted(
        grouped.value.items(), key=lambda item: (-item[1][0], item[0])
    )[:10]
    rows = [
        (int(orderkey), slots[0], int(orderdate[orderkey]),
         int(shipprio[orderkey]))
        for orderkey, slots in ranked
    ]
    dbms = DbmsCostModel(model)
    seconds = dbms.plan_seconds([
        ScanShape(rows=customer.num_rows,
                  nbytes=customer.nbytes(["c_mktsegment"]), filter_terms=1),
        ScanShape(rows=orders.num_rows,
                  nbytes=orders.nbytes(["o_custkey", "o_orderdate"]),
                  filter_terms=1, join_probes=1),
        ScanShape(rows=lineitem.num_rows,
                  nbytes=lineitem.nbytes(
                      ["l_orderkey", "l_shipdate", "l_extendedprice",
                       "l_discount"]),
                  filter_terms=1, aggregates=1, groupby=True, join_probes=1),
    ])
    return XeonOpResult(value=rows, seconds=seconds,
                        bytes_streamed=sum(s.bytes_streamed for s in steps))


# -- Q5: local supplier volume (ASIA) ------------------------------------------

_Q5_DATE_LO = date_code(1994, 1, 1)
_Q5_DATE_HI = date_code(1995, 1, 1) - 1
_NO_NATION = 127  # sentinel in the order->nation projection


def _q5_asian_nations(data: TpchData) -> np.ndarray:
    nation = data.table("nation")
    asia = 2  # REGIONS.index("ASIA")
    return np.nonzero(nation["n_regionkey"] == asia)[0]


def q5_dpu(dpu: DPU, tables: Dict[str, DpuTable], data: TpchData) -> DpuOpResult:
    steps: List[DpuOpResult] = []
    asian = set(_q5_asian_nations(data).tolist())
    cust_nation = data.table("customer")["c_nationkey"].astype(np.int8)
    cust_bc, cust_view = broadcast_array(dpu, "cust_nation", cust_nation)
    asian_mask = np.isin(np.arange(25), list(asian))

    # 1. orders scan: project each order's customer-nation if the
    # order qualifies (date range, Asian customer), else sentinel.
    def order_nation_project(columns):
        nations = cust_view[columns["o_custkey"].astype(np.int64)]
        dates = columns["o_orderdate"].astype(np.int64)
        ok = (
            (dates >= _Q5_DATE_LO)
            & (dates <= _Q5_DATE_HI)
            & asian_mask[nations.astype(np.int64)]
        )
        return np.where(ok, nations, _NO_NATION).astype(np.int8)

    order_filter = RowFilter(
        mask_fn=lambda c: np.ones(len(c["o_custkey"]), dtype=bool),
        columns=("o_custkey", "o_orderdate"),
        dpu_cycles_per_row=LOOKUP_CYCLES_PER_ROW + 2 * 1.6 + 1.0,
        xeon_ops_per_row=5.0,
    )
    order_nation = dpu_scan_project(
        dpu,
        tables["orders"],
        order_filter,
        order_nation_project,
        np.int8,
        broadcasts=(cust_bc,),
    )
    steps.append(order_nation)

    # 2. lineitem scan: group revenue by the order's nation where the
    # supplier shares it.
    order_nation_bc, order_nation_view = broadcast_array(
        dpu, "order_nation", order_nation.value
    )
    supp_nation = data.table("supplier")["s_nationkey"].astype(np.int8)
    supp_bc, supp_view = broadcast_array(dpu, "supp_nation", supp_nation)

    def line_mask(columns):
        order_nations = order_nation_view[
            columns["l_orderkey"].astype(np.int64)
        ]
        supplier_nations = supp_view[columns["l_suppkey"].astype(np.int64)]
        return (order_nations != _NO_NATION) & (
            order_nations == supplier_nations
        )

    line_filter = RowFilter(
        mask_fn=line_mask,
        columns=("l_orderkey", "l_suppkey"),
        dpu_cycles_per_row=2 * LOOKUP_CYCLES_PER_ROW + 2.0,
        xeon_ops_per_row=8.0,
    )
    nation_key = GroupKey(
        fn=lambda c: order_nation_view[
            c["l_orderkey"].astype(np.int64)
        ].astype(np.int64),
        columns=("l_orderkey",),
        cycles_per_row=LOOKUP_CYCLES_PER_ROW,
        name="order_nation",
    )
    grouped = dpu_groupby(
        dpu,
        tables["lineitem"],
        nation_key,
        [_REVENUE],
        row_filter=line_filter,
        ndv_hint=25,
        broadcasts=(order_nation_bc, supp_bc),
    )
    steps.append(grouped)
    revenue = sorted(
        ((int(nation), slots[0]) for nation, slots in grouped.value.items()
         if nation != _NO_NATION),
        key=lambda item: -item[1],
    )
    return _combine_dpu(steps, revenue)


def q5_xeon(model: XeonModel, data: TpchData) -> XeonOpResult:
    steps: List[XeonOpResult] = []
    asian = set(_q5_asian_nations(data).tolist())
    asian_mask = np.isin(np.arange(25), list(asian))
    cust_nation = data.table("customer")["c_nationkey"].astype(np.int8)
    orders = data.table("orders")
    nations = cust_nation[orders["o_custkey"].astype(np.int64)]
    dates = orders["o_orderdate"].astype(np.int64)
    ok = (
        (dates >= _Q5_DATE_LO)
        & (dates <= _Q5_DATE_HI)
        & asian_mask[nations.astype(np.int64)]
    )
    order_nation = np.where(ok, nations, _NO_NATION).astype(np.int8)
    orders_table = Table("orders", data.tables["orders"])
    steps.append(
        XeonOpResult(
            value=order_nation,
            seconds=model.roofline_seconds(
                instructions=len(order_nation) * 5.0,
                nbytes=orders_table.nbytes(["o_custkey", "o_orderdate"])
                + order_nation.nbytes,
            ),
            bytes_streamed=orders_table.nbytes(["o_custkey", "o_orderdate"]),
        )
    )
    supp_nation = data.table("supplier")["s_nationkey"].astype(np.int8)

    def line_mask(columns):
        order_nations = order_nation[columns["l_orderkey"].astype(np.int64)]
        supplier_nations = supp_nation[columns["l_suppkey"].astype(np.int64)]
        return (order_nations != _NO_NATION) & (
            order_nations == supplier_nations
        )

    line_filter = RowFilter(
        mask_fn=line_mask,
        columns=("l_orderkey", "l_suppkey"),
        dpu_cycles_per_row=2 * LOOKUP_CYCLES_PER_ROW + 2.0,
        xeon_ops_per_row=8.0,
    )
    nation_key = GroupKey(
        fn=lambda c: order_nation[c["l_orderkey"].astype(np.int64)].astype(
            np.int64
        ),
        columns=("l_orderkey",),
        cycles_per_row=LOOKUP_CYCLES_PER_ROW,
        name="order_nation",
    )
    lineitem = Table("lineitem", data.tables["lineitem"])
    grouped = xeon_groupby(
        model, lineitem, nation_key, [_REVENUE], row_filter=line_filter,
        ndv_hint=25,
    )
    steps.append(grouped)
    revenue = sorted(
        ((int(nation), slots[0]) for nation, slots in grouped.value.items()
         if nation != _NO_NATION),
        key=lambda item: -item[1],
    )
    dbms = DbmsCostModel(model)
    seconds = dbms.plan_seconds([
        ScanShape(rows=orders_table.num_rows,
                  nbytes=orders_table.nbytes(["o_custkey", "o_orderdate"]),
                  filter_terms=2, join_probes=1),
        ScanShape(rows=lineitem.num_rows,
                  nbytes=lineitem.nbytes(
                      ["l_orderkey", "l_suppkey", "l_extendedprice",
                       "l_discount"]),
                  filter_terms=1, aggregates=1, groupby=True, join_probes=2),
    ])
    return XeonOpResult(value=revenue, seconds=seconds,
                        bytes_streamed=sum(s.bytes_streamed for s in steps))


# -- Q12: shipping modes and delivery priority ----------------------------------

_Q12_MODES = (SHIP_MODES.index("MAIL"), SHIP_MODES.index("SHIP"))
_Q12_LO = date_code(1994, 1, 1)
_Q12_HI = date_code(1995, 1, 1) - 1


def _q12_filter() -> RowFilter:
    def mask_fn(columns):
        return (
            np.isin(columns["l_shipmode"], _Q12_MODES)
            & (columns["l_commitdate"] < columns["l_receiptdate"])
            & (columns["l_shipdate"] < columns["l_commitdate"])
            & (columns["l_receiptdate"].astype(np.int64) >= _Q12_LO)
            & (columns["l_receiptdate"].astype(np.int64) <= _Q12_HI)
        )

    return RowFilter(
        mask_fn=mask_fn,
        columns=(
            "l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate",
        ),
        dpu_cycles_per_row=5 * 1.6,  # five FILT-able terms
        xeon_ops_per_row=2.0,
    )


def _q12_aggs(priority_view: np.ndarray) -> List[AggSpec]:
    high = AggSpec(
        "sum",
        expr=lambda c: (
            priority_view[c["l_orderkey"].astype(np.int64)] <= 1
        ).astype(np.int64),
        expr_columns=("l_orderkey",),
        expr_cycles_per_row=LOOKUP_CYCLES_PER_ROW + 1.0,
    )
    low = AggSpec(
        "sum",
        expr=lambda c: (
            priority_view[c["l_orderkey"].astype(np.int64)] > 1
        ).astype(np.int64),
        expr_columns=("l_orderkey",),
        expr_cycles_per_row=1.0,  # reuses the looked-up priority
    )
    return [high, low]


def q12_dpu(dpu: DPU, tables: Dict[str, DpuTable], data: TpchData) -> DpuOpResult:
    priority = data.table("orders")["o_orderpriority"].astype(np.int8)
    prio_bc, prio_view = broadcast_array(dpu, "order_priority", priority)
    return dpu_groupby(
        dpu,
        tables["lineitem"],
        "l_shipmode",
        _q12_aggs(prio_view),
        row_filter=_q12_filter(),
        ndv_hint=len(SHIP_MODES),
        broadcasts=(prio_bc,),
    )


def q12_xeon(model: XeonModel, data: TpchData) -> XeonOpResult:
    priority = data.table("orders")["o_orderpriority"].astype(np.int8)
    lineitem = Table("lineitem", data.tables["lineitem"])
    functional = xeon_groupby(
        model,
        lineitem,
        "l_shipmode",
        _q12_aggs(priority),
        row_filter=_q12_filter(),
        ndv_hint=len(SHIP_MODES),
    )
    dbms = DbmsCostModel(model)
    nbytes = lineitem.nbytes(
        ["l_shipmode", "l_commitdate", "l_receiptdate", "l_shipdate",
         "l_orderkey"]
    )
    seconds = dbms.plan_seconds([
        ScanShape(rows=lineitem.num_rows, nbytes=nbytes, filter_terms=5,
                  aggregates=2, groupby=True, join_probes=1),
    ])
    return XeonOpResult(value=functional.value, seconds=seconds,
                        bytes_streamed=nbytes)


# -- Q14: promotion effect ---------------------------------------------------------

_Q14_LO = date_code(1995, 9, 1)
_Q14_HI = date_code(1995, 10, 1) - 1
_Q14_PRED = Between("l_shipdate", _Q14_LO, _Q14_HI)
_Q14_KEY = GroupKey(
    fn=lambda c: np.zeros(len(c["l_partkey"]), dtype=np.int64),
    columns=("l_partkey",),
    cycles_per_row=0.0,
    name="const",
)


def _q14_aggs(promo_view: np.ndarray) -> List[AggSpec]:
    promo_revenue = AggSpec(
        "sum",
        expr=lambda c: np.where(
            promo_view[c["l_partkey"].astype(np.int64)],
            c["l_extendedprice"].astype(np.int64) * (100 - c["l_discount"]),
            0,
        ),
        expr_columns=("l_partkey", "l_extendedprice", "l_discount"),
        expr_cycles_per_row=LOOKUP_CYCLES_PER_ROW + 3.0,
    )
    total_revenue = AggSpec(
        "sum",
        expr=lambda c: c["l_extendedprice"].astype(np.int64)
        * (100 - c["l_discount"]),
        expr_columns=("l_extendedprice", "l_discount"),
        expr_cycles_per_row=2.0,
    )
    return [promo_revenue, total_revenue]


def q14_dpu(dpu: DPU, tables: Dict[str, DpuTable], data: TpchData) -> DpuOpResult:
    promo = part_type_is_promo(data.table("part")["p_type"]).astype(np.uint8)
    promo_bc, promo_view = broadcast_array(dpu, "part_promo", promo)
    result = dpu_groupby(
        dpu,
        tables["lineitem"],
        _Q14_KEY,
        _q14_aggs(promo_view),
        row_filter=_Q14_PRED,
        ndv_hint=1,
        broadcasts=(promo_bc,),
    )
    promo_rev, total_rev = result.value.get(0, [0, 0])
    ratio = 100.0 * promo_rev / total_rev if total_rev else 0.0
    return DpuOpResult(
        value=ratio,
        cycles=result.cycles,
        config=result.config,
        bytes_streamed=result.bytes_streamed,
    )


def q14_xeon(model: XeonModel, data: TpchData) -> XeonOpResult:
    promo = part_type_is_promo(data.table("part")["p_type"]).astype(np.uint8)
    lineitem = Table("lineitem", data.tables["lineitem"])
    result = xeon_groupby(
        model,
        lineitem,
        _Q14_KEY,
        _q14_aggs(promo),
        row_filter=_Q14_PRED,
        ndv_hint=1,
    )
    promo_rev, total_rev = result.value.get(0, [0, 0])
    ratio = 100.0 * promo_rev / total_rev if total_rev else 0.0
    dbms = DbmsCostModel(model)
    nbytes = lineitem.nbytes(
        ["l_shipdate", "l_partkey", "l_extendedprice", "l_discount"]
    )
    seconds = dbms.plan_seconds([
        ScanShape(rows=lineitem.num_rows, nbytes=nbytes, filter_terms=1,
                  aggregates=2, join_probes=1),
    ])
    return XeonOpResult(value=ratio, seconds=seconds, bytes_streamed=nbytes)




# -- Q10: returned item reporting (top customers by lost revenue) -------------

_Q10_LO = date_code(1993, 10, 1)
_Q10_HI = date_code(1994, 1, 1) - 1
_Q10_RETURNED = 2  # RETURN_FLAGS.index("R")


def q10_dpu(dpu: DPU, tables: Dict[str, DpuTable], data: TpchData) -> DpuOpResult:
    steps: List[DpuOpResult] = []
    num_orders = data.num_rows("orders")
    if num_orders >= 1 << 16:
        raise ValueError(
            "Q10's order->customer broadcast uses u16 customer codes; "
            "run at scale <= 0.04"
        )
    # 1. orders in the quarter -> orderkey bitmap.
    orders = dpu_filter(
        dpu, tables["orders"], Between("o_orderdate", _Q10_LO, _Q10_HI)
    )
    steps.append(orders)
    order_bitmap = key_bitmap(np.nonzero(orders.value)[0], num_orders)
    order_bc, _ = broadcast_array(dpu, "q10_orders", order_bitmap)
    # 2. order -> customer dense map (u16 codes), broadcast.
    cust_of_order = data.table("orders")["o_custkey"].astype(np.uint16)
    cust_bc, cust_view = broadcast_array(dpu, "q10_custs", cust_of_order)
    # 3. lineitem scan: returned items of those orders, revenue by
    # customer (looked-up group key).
    row_filter = bitmap_filter(
        "l_orderkey", order_bitmap, extra=Eq("l_returnflag", _Q10_RETURNED)
    )
    cust_key = GroupKey(
        fn=lambda c: cust_view[c["l_orderkey"].astype(np.int64)].astype(
            np.int64
        ),
        columns=("l_orderkey",),
        cycles_per_row=LOOKUP_CYCLES_PER_ROW,
        name="custkey",
    )
    grouped = dpu_groupby(
        dpu,
        tables["lineitem"],
        cust_key,
        [_REVENUE],
        row_filter=row_filter,
        ndv_hint=data.num_rows("customer"),
        broadcasts=(order_bc, cust_bc),
    )
    steps.append(grouped)
    ranked = sorted(
        grouped.value.items(), key=lambda item: (-item[1][0], item[0])
    )[:20]
    nations = data.table("customer")["c_nationkey"]
    rows = [
        (int(custkey), slots[0], int(nations[custkey]))
        for custkey, slots in ranked
    ]
    return _combine_dpu(steps, rows)


def q10_xeon(model: XeonModel, data: TpchData) -> XeonOpResult:
    orders = Table("orders", data.tables["orders"])
    lineitem = Table("lineitem", data.tables["lineitem"])
    sel_orders = xeon_filter(
        model, orders, Between("o_orderdate", _Q10_LO, _Q10_HI)
    )
    order_bitmap = key_bitmap(np.nonzero(sel_orders.value)[0],
                              orders.num_rows)
    cust_of_order = data.table("orders")["o_custkey"].astype(np.uint16)
    cust_key = GroupKey(
        fn=lambda c: cust_of_order[c["l_orderkey"].astype(np.int64)].astype(
            np.int64
        ),
        columns=("l_orderkey",),
        cycles_per_row=LOOKUP_CYCLES_PER_ROW,
        name="custkey",
    )
    grouped = xeon_groupby(
        model,
        lineitem,
        cust_key,
        [_REVENUE],
        row_filter=bitmap_filter(
            "l_orderkey", order_bitmap,
            extra=Eq("l_returnflag", _Q10_RETURNED),
        ),
        ndv_hint=data.num_rows("customer"),
    )
    ranked = sorted(
        grouped.value.items(), key=lambda item: (-item[1][0], item[0])
    )[:20]
    nations = data.table("customer")["c_nationkey"]
    rows = [
        (int(custkey), slots[0], int(nations[custkey]))
        for custkey, slots in ranked
    ]
    dbms = DbmsCostModel(model)
    seconds = dbms.plan_seconds([
        ScanShape(rows=orders.num_rows,
                  nbytes=orders.nbytes(["o_orderdate"]), filter_terms=1),
        ScanShape(rows=lineitem.num_rows,
                  nbytes=lineitem.nbytes(
                      ["l_orderkey", "l_returnflag", "l_extendedprice",
                       "l_discount"]),
                  filter_terms=2, aggregates=1, groupby=True, join_probes=2),
    ])
    return XeonOpResult(value=rows, seconds=seconds,
                        bytes_streamed=lineitem.nbytes(["l_orderkey"]))


# -- registry -------------------------------------------------------------------------

TPCH_QUERIES: Dict[str, TpchQuery] = {
    "Q1": TpchQuery("Q1", q1_dpu, q1_xeon, paper_gain_hint=12.0),
    "Q3": TpchQuery("Q3", q3_dpu, q3_xeon, paper_gain_hint=20.0),
    "Q5": TpchQuery("Q5", q5_dpu, q5_xeon, paper_gain_hint=15.0),
    "Q6": TpchQuery("Q6", q6_dpu, q6_xeon, paper_gain_hint=12.0),
    "Q10": TpchQuery("Q10", q10_dpu, q10_xeon, paper_gain_hint=15.0),
    "Q12": TpchQuery("Q12", q12_dpu, q12_xeon, paper_gain_hint=18.0),
    "Q14": TpchQuery("Q14", q14_dpu, q14_xeon, paper_gain_hint=15.0),
}


def run_query(
    name: str,
    dpu: DPU,
    tables: Dict[str, DpuTable],
    data: TpchData,
    model: XeonModel,
) -> Tuple[DpuOpResult, XeonOpResult]:
    query = TPCH_QUERIES[name]
    if dpu.trace.enabled:
        with dpu.trace.span(f"sql.query.{name}", unit="sql"):
            dpu_result = query.dpu_fn(dpu, tables, data)
    else:
        dpu_result = query.dpu_fn(dpu, tables, data)
    return dpu_result, query.xeon_fn(model, data)
