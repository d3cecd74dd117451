"""The DPU SQL processing engine (paper §5.3)."""

from .aggregate import (
    AggSpec,
    Broadcast,
    DeliveryMismatchError,
    GroupKey,
    dpu_groupby,
    merge_groups,
    xeon_groupby,
)
from .costs import (
    AGG_CYCLES_PER_ROW,
    FILTER_CYCLES_PER_TUPLE,
    measure_agg_loop,
    measure_filter_loop,
)
from .engine import (
    DpuOpResult,
    QueryComparison,
    XeonOpResult,
    comparison_table,
    efficiency_gain,
)
from .expr import And, Between, Eq, Ge, InSet, Le, Or, Predicate, RowFilter
from .filter import dpu_filter, dpu_scan_project, xeon_filter
from .frontend import compile_query, load_query, parse_sql
from .ir import Catalog, LogicalPlan, PlanError, compile_logical
from .join import (
    bitmap_filter,
    broadcast_array,
    dpu_partitioned_join_count,
    key_bitmap,
    lookup_filter,
    xeon_join_count,
)
from .physical import CompiledQuery, lower_plan, tpch_catalog
from .planner import DmemBudget, PartitionPlan, plan_partitioning
from .sort import dpu_sort, xeon_sort
from .table import DpuTable, Table
from .topk import dpu_topk, xeon_topk
from .tpch_queries import TPCH_QUERIES, TpchQuery, load_tpch_on_dpu, run_query

__all__ = [
    "AGG_CYCLES_PER_ROW",
    "AggSpec",
    "And",
    "Between",
    "Broadcast",
    "Catalog",
    "CompiledQuery",
    "DeliveryMismatchError",
    "DmemBudget",
    "DpuOpResult",
    "DpuTable",
    "Eq",
    "FILTER_CYCLES_PER_TUPLE",
    "Ge",
    "GroupKey",
    "InSet",
    "Le",
    "LogicalPlan",
    "Or",
    "PartitionPlan",
    "PlanError",
    "Predicate",
    "QueryComparison",
    "RowFilter",
    "TPCH_QUERIES",
    "Table",
    "TpchQuery",
    "XeonOpResult",
    "bitmap_filter",
    "broadcast_array",
    "comparison_table",
    "compile_logical",
    "compile_query",
    "dpu_filter",
    "dpu_groupby",
    "dpu_partitioned_join_count",
    "dpu_scan_project",
    "dpu_sort",
    "dpu_topk",
    "efficiency_gain",
    "key_bitmap",
    "load_query",
    "load_tpch_on_dpu",
    "lookup_filter",
    "lower_plan",
    "measure_agg_loop",
    "measure_filter_loop",
    "merge_groups",
    "parse_sql",
    "plan_partitioning",
    "run_query",
    "tpch_catalog",
    "xeon_filter",
    "xeon_groupby",
    "xeon_join_count",
    "xeon_sort",
    "xeon_topk",
]
