"""Grouping and aggregation (paper §5.3).

Three physical strategies, chosen by the partition planner:

* **low-NDV** — every core builds the whole (small) group table in
  its DMEM over its static share of rows; a cheap merge operator
  combines the 32 partial tables (the paper: "when the number of
  distinct groups is low ... a merge operator is added after the
  grouping operator").

* **hardware-partitioned** (1 < partitions <= 32) — the DMS scatters
  (key, payload) records straight into all 32 cores' DMEMs; each core
  aggregates its own partition, so no DRAM round trip is needed
  ("especially useful for moderately sized hash tables"). The waves,
  their mailbox handshake and the record format are the shared
  partition loop's (:func:`~repro.apps.streaming.partition_columns`,
  which join, sort and the cluster exchange use too); this module
  only sizes the waves and aggregates each wave's records.

* **software round + hardware** (partitions <= 1024) — one
  read+write round through DRAM splits the table 32 ways by *other*
  hash bits (software partitioning runs at near memory bandwidth
  alongside the hardware partitioner, §3.4's 1024-way claim); each
  bucket then takes the hardware path.

All three paths move real bytes: the group tables the tests check are
aggregated from data that traveled through the simulated DMS.

The operator is deliberately general: aggregates may be arithmetic
expressions over several columns (Q1's ``sum(price * (1-disc))``) and
the row filter may be a :class:`~repro.apps.sql.expr.Predicate` or an
arbitrary mask function (which is how the join operator fuses a
semijoin probe into the aggregation, see :mod:`repro.apps.sql.join`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ...baseline.xeon import XeonModel
from ...core.crc32 import crc32_column
from ...core.dpu import DPU
from ...dms.descriptor import PartitionMode, PartitionSpec
from ...dms.partition import PartitionLayout
from ...runtime.task import static_partition
from ...obs import traced_op
from ..streaming import (
    StagedWrites,
    load,
    parse_records,
    partition_columns,
    record_width,
    ref_dtype,
    ref_width,
    stream_columns,
    stream_tile_rows,
)
from .costs import (
    AGG_CYCLES_PER_ROW,
    MERGE_CYCLES_PER_GROUP,
    SW_PARTITION_CYCLES_PER_ROW_COL,
)
from .engine import DpuOpResult, XeonOpResult
from .expr import Predicate
from .planner import DmemBudget, plan_partitioning
from .table import DpuTable, Table

__all__ = [
    "AggSpec",
    "Broadcast",
    "GroupKey",
    "RowFilter",
    "dpu_groupby",
    "xeon_groupby",
    "merge_groups",
]

_XEON_AGG_OPS_PER_ROW = 8.0  # scalar hash-agg update micro-ops
_XEON_PARTITION_OPS_PER_ROW = 4.0

Columns = Dict[str, np.ndarray]
GroupTable = Dict[int, List[float]]  # key -> one slot per aggregate


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: {sum, count, min, max} over a column or an
    expression of columns.

    ``AggSpec("sum", "l_quantity")`` or
    ``AggSpec("sum", expr=lambda c: c["p"] * (100 - c["d"]),
    expr_columns=("p", "d"), expr_cycles_per_row=2.0)`` — the cycle
    hint charges the dpCore for evaluating the expression.
    """

    op: str
    column: Optional[str] = None
    expr: Optional[Callable[[Columns], np.ndarray]] = None
    expr_columns: Tuple[str, ...] = ()
    expr_cycles_per_row: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in ("sum", "count", "min", "max"):
            raise ValueError(f"unknown aggregate op {self.op!r}")
        if self.op != "count" and self.column is None and self.expr is None:
            raise ValueError(f"{self.op} needs a column or expression")
        if self.expr is not None and not self.expr_columns:
            raise ValueError("expression aggregates must list expr_columns")

    @property
    def name(self) -> str:
        if self.expr is not None:
            return f"{self.op}(expr{self.expr_columns})"
        return f"{self.op}({self.column or '*'})"

    def needed_columns(self) -> Tuple[str, ...]:
        if self.expr is not None:
            return self.expr_columns
        if self.column is not None:
            return (self.column,)
        return ()

    def values(self, columns: Columns) -> Optional[np.ndarray]:
        if self.op == "count" and self.column is None and self.expr is None:
            return None
        if self.expr is not None:
            return self.expr(columns)
        return columns[self.column]


@dataclass(frozen=True)
class Broadcast:
    """A small table broadcast into every core's DMEM (e.g. a join
    build side: a key bitmap or a dense key->value array).

    ``addr``/``nbytes`` locate it in DDR; each core DMS-loads it once
    before streaming. The functional lookup happens through numpy
    closures in the row filter / group key, which see the same bytes.
    """

    name: str
    addr: int
    nbytes: int


@dataclass(frozen=True)
class GroupKey:
    """A computed group key (e.g. a DMEM lookup of a streamed column).

    ``fn(columns) -> int array``; ``columns`` are the streamed inputs
    it reads; ``cycles_per_row`` charges the dpCore for the lookup
    arithmetic. Computed keys cannot drive the DMS hardware
    partitioner, so they are limited to the low-NDV strategy.
    """

    fn: Callable[[Columns], np.ndarray]
    columns: Tuple[str, ...]
    cycles_per_row: float = 2.0
    name: str = "expr_key"


@dataclass
class RowFilter:
    """A row mask over streamed columns, with its dpCore/x86 costs.

    Wraps either a scan :class:`Predicate` or an arbitrary function
    (e.g. a semijoin bitmap probe).
    """

    mask_fn: Callable[[Columns], np.ndarray]
    columns: Tuple[str, ...]
    dpu_cycles_per_row: float
    xeon_ops_per_row: float

    @classmethod
    def from_predicate(cls, predicate: Predicate) -> "RowFilter":
        return cls(
            mask_fn=predicate.mask,
            columns=tuple(predicate.column_names()),
            dpu_cycles_per_row=predicate.dpu_cycles_per_row(),
            xeon_ops_per_row=predicate.xeon_ops_per_row(),
        )


def _as_row_filter(
    row_filter: Union[None, Predicate, RowFilter]
) -> Optional[RowFilter]:
    if row_filter is None:
        return None
    if isinstance(row_filter, RowFilter):
        return row_filter
    return RowFilter.from_predicate(row_filter)


def _new_slots(aggs: List[AggSpec]) -> List[float]:
    slots: List[float] = []
    for agg in aggs:
        if agg.op == "min":
            slots.append(float("inf"))
        elif agg.op == "max":
            slots.append(float("-inf"))
        else:
            slots.append(0)
    return slots


def _update_groups(
    groups: GroupTable,
    keys: np.ndarray,
    value_arrays: List[Optional[np.ndarray]],
    aggs: List[AggSpec],
) -> None:
    """Vectorized per-tile group update (the functional half)."""
    if len(keys) == 0:
        return
    unique, inverse = np.unique(keys, return_inverse=True)
    per_agg: List[np.ndarray] = []
    for agg, values in zip(aggs, value_arrays):
        if agg.op == "count":
            per_agg.append(np.bincount(inverse, minlength=len(unique)))
        elif agg.op == "sum":
            per_agg.append(
                np.bincount(
                    inverse,
                    weights=values.astype(np.float64),
                    minlength=len(unique),
                )
            )
        elif agg.op == "min":
            out = np.full(len(unique), np.inf)
            np.minimum.at(out, inverse, values)
            per_agg.append(out)
        else:  # max
            out = np.full(len(unique), -np.inf)
            np.maximum.at(out, inverse, values)
            per_agg.append(out)
    key_list = unique.tolist()
    columns = [series.tolist() for series in per_agg]
    ops = [agg.op for agg in aggs]
    get = groups.get
    for position, key in enumerate(key_list):
        slots = get(key)
        if slots is None:
            slots = _new_slots(aggs)
            groups[key] = slots
        for slot, op in enumerate(ops):
            sample = columns[slot][position]
            if op == "sum" or op == "count":
                slots[slot] += sample
            elif op == "min":
                slots[slot] = min(slots[slot], sample)
            else:
                slots[slot] = max(slots[slot], sample)


def merge_groups(tables: Iterable[GroupTable], aggs: List[AggSpec]) -> GroupTable:
    """The paper's merge operator over per-core partial aggregates."""
    ops = [agg.op for agg in aggs]
    all_additive = all(op in ("sum", "count") for op in ops)
    merged: GroupTable = {}
    get = merged.get
    for table in tables:
        for key, slots in table.items():
            target = get(key)
            if target is None:
                merged[key] = list(slots)
            elif all_additive:
                # Same per-slot additions as the general path, batched
                # as a list comprehension (arithmetic order unchanged).
                merged[key] = [t + s for t, s in zip(target, slots)]
            else:
                for slot, op in enumerate(ops):
                    if op == "sum" or op == "count":
                        target[slot] += slots[slot]
                    elif op == "min":
                        target[slot] = min(target[slot], slots[slot])
                    else:
                        target[slot] = max(target[slot], slots[slot])
    return merged


def _needed_columns(
    key, aggs: List[AggSpec], row_filter: Optional[RowFilter]
) -> List[str]:
    if isinstance(key, GroupKey):
        names = list(key.columns)
    else:
        names = [key]
    for agg in aggs:
        for name in agg.needed_columns():
            if name not in names:
                names.append(name)
    if row_filter is not None:
        for name in row_filter.columns:
            if name not in names:
                names.append(name)
    return names


def _tile_update(
    groups: GroupTable,
    columns: Columns,
    key,
    aggs: List[AggSpec],
    row_filter: Optional[RowFilter],
) -> int:
    """Apply filter + aggregate one tile; returns selected count."""
    mask = row_filter.mask_fn(columns) if row_filter is not None else None
    if mask is not None:
        columns = {name: values[mask] for name, values in columns.items()}
    keys = key.fn(columns) if isinstance(key, GroupKey) else columns[key]
    value_arrays = [agg.values(columns) for agg in aggs]
    _update_groups(groups, keys, value_arrays, aggs)
    return len(keys)


def _agg_cycles(aggs: List[AggSpec]) -> float:
    return AGG_CYCLES_PER_ROW + sum(agg.expr_cycles_per_row for agg in aggs)


_BROADCAST_EVENT = 12


def _load_broadcasts(ctx, broadcasts, dmem_offset: int):
    """DMS-load each broadcast table into this core's DMEM once, in
    pieces of at most 8 KB."""
    for broadcast in broadcasts:
        for start in range(0, broadcast.nbytes, 8192):
            piece = min(8192, broadcast.nbytes - start)
            yield from load(ctx, broadcast.addr + start, dmem_offset + start,
                            piece, 1, _BROADCAST_EVENT)
        dmem_offset += broadcast.nbytes


def _broadcast_bytes(broadcasts) -> int:
    return sum(broadcast.nbytes for broadcast in broadcasts)


def fit_broadcasts(partitions_needed: int, row_bytes: int, bcast_bytes: int,
                   tile_rows: int = 2048) -> int:
    """Check that ``bcast_bytes`` of broadcast tables fit in DMEM beside
    the group-by's buffers for ``partitions_needed`` partitions, and
    return the low-NDV path's stream tile rows (at most ``tile_rows``)
    for ``row_bytes``-byte rows. The low-NDV path streams below the
    broadcasts in 30 KB; the hardware path keeps 12 KB for them above
    its partition buffer. Raises ValueError when they do not fit; the
    compiler asks the same of a plan."""
    if partitions_needed <= 1:
        return stream_tile_rows(tile_rows, row_bytes, 30 * 1024 - bcast_bytes)
    if bcast_bytes > 12 * 1024:
        raise ValueError(
            f"broadcast tables of {bcast_bytes} B do not fit alongside "
            "the partition buffer; materialize the join differently"
        )
    return tile_rows


@traced_op("sql.groupby")
def dpu_groupby(
    dpu: DPU,
    dtable: DpuTable,
    key: Union[str, GroupKey],
    aggs: List[AggSpec],
    row_filter: Union[None, Predicate, RowFilter] = None,
    ndv_hint: Optional[int] = None,
    tile_rows: int = 2048,
    budget: Optional[DmemBudget] = None,
    broadcasts: Tuple[Broadcast, ...] = (),
    governor=None,
) -> DpuOpResult:
    """Group ``dtable`` by ``key`` computing ``aggs`` on the DPU.

    ``governor`` (a :class:`~repro.runtime.admission.MemoryGovernor`)
    gates the software-partition strategy's DDR bucket footprint; see
    :func:`_groupby_one_sw_round`. ``None`` preserves the ungoverned
    plan and its timing exactly.
    """
    budget = budget or DmemBudget()
    filt = _as_row_filter(row_filter)
    if isinstance(key, GroupKey):
        host_columns = {
            name: dtable.table.column(name) for name in key.columns
        }
        key_values = key.fn(host_columns)
    else:
        key_values = dtable.table.column(key)
    ndv = int(ndv_hint) if ndv_hint is not None else len(np.unique(key_values))
    record_bytes = 8 + 8 * len(aggs)
    plan = plan_partitioning(ndv, record_bytes, budget)

    if isinstance(key, GroupKey) and plan.partitions_needed > 1:
        raise ValueError(
            "computed group keys cannot drive the hardware partitioner; "
            f"this key needs {plan.partitions_needed} partitions — "
            "materialize the key column first"
        )
    refs = dtable.column_refs(_needed_columns(key, aggs, filt))
    tile_rows = fit_broadcasts(
        plan.partitions_needed, sum(ref_width(spec) for _addr, spec in refs),
        _broadcast_bytes(broadcasts), tile_rows,
    )
    if plan.partitions_needed <= 1:
        result, cycles, nbytes = _groupby_low_ndv(
            dpu, dtable, key, aggs, filt, tile_rows, broadcasts
        )
    elif plan.partitions_needed <= 32:
        result, cycles, nbytes = _groupby_hw_partitioned(
            dpu, dtable, key, aggs, filt, broadcasts
        )
    else:
        if plan.dpu_sw_rounds > 1:
            raise ValueError(
                f"{plan.partitions_needed} partitions need "
                f"{plan.dpu_sw_rounds} software rounds; only one is "
                "implemented (enough for tables to ~24 GB of groups)"
            )
        result, cycles, nbytes = _groupby_one_sw_round(
            dpu, dtable, key, aggs, filt, tile_rows, broadcasts,
            governor=governor,
        )
    return DpuOpResult(
        value=result,
        cycles=cycles,
        config=dpu.config,
        bytes_streamed=nbytes,
        detail={
            "ndv": ndv,
            "partitions_needed": plan.partitions_needed,
            "sw_rounds": plan.dpu_sw_rounds,
            "groups": len(result),
        },
    )


# -- strategy 1: low NDV --------------------------------------------------


def _groupby_low_ndv(dpu, dtable, key, aggs, row_filter, tile_rows,
                     broadcasts=()):
    names = _needed_columns(key, aggs, row_filter)
    refs = dtable.column_refs(names)
    rows = dtable.num_rows
    cores = list(dpu.config.core_ids)
    filter_cycles = row_filter.dpu_cycles_per_row if row_filter else 0.0
    key_cycles = key.cycles_per_row if isinstance(key, GroupKey) else 0.0
    agg_cycles = _agg_cycles(aggs) + key_cycles
    # Broadcasts live at the top of DMEM, above the stream tiles.
    top = dpu.config.dmem_size - _broadcast_bytes(broadcasts)

    def kernel(ctx):
        lo, hi = static_partition(rows, len(cores), ctx.core_id)
        groups: GroupTable = {}
        if lo < hi:
            if broadcasts:
                yield from _load_broadcasts(ctx, broadcasts, top)
            shifted = [
                (addr + lo * ref_width(spec), spec) for addr, spec in refs
            ]

            def process(tile, tlo, thi, arrays):
                columns = dict(zip(names, arrays))
                selected = _tile_update(groups, columns, key, aggs, row_filter)
                return (thi - tlo) * filter_cycles + selected * agg_cycles

            yield from stream_columns(
                ctx, shifted, hi - lo, tile_rows, process, dmem_base=0
            )
        # Merge at core 0: everyone ships its partial table.
        if ctx.core_id != cores[0]:
            yield from ctx.mbox_send(cores[0], groups)
            return None
        merged = groups
        for _ in range(len(cores) - 1):
            _src, payload_groups = yield from ctx.mbox_receive()
            merged = merge_groups([merged, payload_groups], aggs)
            yield from ctx.compute(MERGE_CYCLES_PER_GROUP * len(payload_groups))
        return merged

    launch = dpu.launch(kernel, cores=cores)
    merged = launch.values[0]
    nbytes = dtable.nbytes(names)
    return merged, launch.cycles, nbytes


# -- strategy 2: hardware partitioning straight into DMEMs ------------------


def _groupby_hw_partitioned(dpu, dtable, key, aggs, row_filter,
                            broadcasts=()):
    """The DMS partitions the rows 32 ways in waves; every core
    aggregates its DMEM partition after each wave."""
    names = _needed_columns(key, aggs, row_filter)
    refs = dtable.column_refs(names)
    rows = dtable.num_rows
    dtypes = [ref_dtype(spec) for _addr, spec in refs]
    width = record_width(dtypes)
    cores = list(dpu.config.core_ids)
    filter_cycles = row_filter.dpu_cycles_per_row if row_filter else 0.0
    agg_cycles = _agg_cycles(aggs)

    # Wave sizing: a chunk fits a CMEM bank; a wave fills the per-core
    # DMEM output buffers half way on uniform keys (the partition loop
    # ends it early where skew would overflow one); broadcasts occupy
    # the space between the buffer and the count word.
    chunk_rows = max(64, dpu.config.cmem_bank_bytes // width)
    buffer_capacity = 18 * 1024
    wave_rows = int(len(cores) * (buffer_capacity / width) / 2)
    wave_rows = max(1, wave_rows // chunk_rows) * chunk_rows

    spec = PartitionSpec(mode=PartitionMode.HASH, radix_bits=5)
    layout = PartitionLayout(
        target_cores=tuple(cores),
        dmem_base=0,
        capacity=buffer_capacity,
        count_offset=31 * 1024,
    )

    def kernel(ctx):
        groups: GroupTable = {}
        if broadcasts:
            yield from _load_broadcasts(ctx, broadcasts, buffer_capacity)

        def aggregate(count):
            raw = ctx.dmem.view(0, count * width, np.uint8)
            columns = dict(zip(names, parse_records(raw, dtypes)))
            selected = _tile_update(groups, columns, key, aggs, row_filter)
            yield from ctx.compute(count * filter_cycles + selected * agg_cycles)

        yield from partition_columns(ctx, refs, rows, spec, layout,
                                     chunk_rows, wave_rows, aggregate)
        return groups

    launch = dpu.launch(kernel, cores=cores)
    merged = merge_groups(launch.values, aggs)  # disjoint keys: concat
    nbytes = rows * width
    return merged, launch.cycles, nbytes


# -- strategy 3: one software round, then hardware ---------------------------


def _groupby_one_sw_round(dpu, dtable, key, aggs, row_filter, tile_rows,
                          broadcasts=(), governor=None):
    """Split into 32 DDR buckets by high hash bits (software, one
    read+write round), then run the hardware path per bucket.

    The bucket regions double the table's DDR footprint. With a
    :class:`~repro.runtime.admission.MemoryGovernor`, that footprint
    is acquired as an up-front grant; a denied grant degrades to
    row-chunked rounds — each chunk partitions and aggregates within
    the granted budget, freeing its bucket regions before the next
    chunk, and the per-chunk group tables merge associatively. Results
    are identical, only cycles grow. Without a governor the code path
    is exactly the single-round plan.
    """
    if governor is None:
        return _groupby_sw_round_range(
            dpu, dtable, key, aggs, row_filter, tile_rows, broadcasts,
            0, dtable.num_rows, free_regions=False,
        )
    names = _needed_columns(key, aggs, row_filter)
    refs = dtable.column_refs(names)
    widths = [ref_dtype(spec).itemsize for _addr, spec in refs]
    rows = dtable.num_rows
    row_bytes = sum(widths)
    need = rows * row_bytes + 32 * len(widths) * 8  # regions + alloc slack
    floor = max(row_bytes * 32 * 64, 4096)
    granted = governor.grant_or_largest(need, floor, site="sql.groupby.buckets")
    chunks = max(1, -(-need // granted))
    chunk_rows = -(-rows // chunks)
    merged: GroupTable = {}
    total_cycles = 0.0
    total_nbytes = 0
    for r0 in range(0, rows, chunk_rows):
        r1 = min(rows, r0 + chunk_rows)
        part, cycles, nbytes = _groupby_sw_round_range(
            dpu, dtable, key, aggs, row_filter, tile_rows, broadcasts,
            r0, r1, free_regions=True,
        )
        merged = merge_groups([merged, part], aggs)
        total_cycles += cycles
        total_nbytes += nbytes
    governor.release_grant(granted)
    return merged, total_cycles, total_nbytes


def _groupby_sw_round_range(dpu, dtable, key, aggs, row_filter, tile_rows,
                            broadcasts, r0, r1, free_regions):
    """One software partition round over rows [r0, r1)."""
    names = _needed_columns(key, aggs, row_filter)
    refs = dtable.column_refs(names)
    dtypes = [ref_dtype(spec) for _addr, spec in refs]
    widths = [dtype.itemsize for dtype in dtypes]
    rows = r1 - r0
    cores = list(dpu.config.core_ids)
    num_buckets = 32
    # DMEM budget: stream buffers below 20 KB, four 1.5 KB write
    # staging slots above (at 24..30 KB).
    tile_rows = min(
        tile_rows, max(64, (20 * 1024 // (2 * sum(widths))) // 64 * 64)
    )
    staging_bytes = 1536

    # Host-side sizing of bucket regions (models chained-block output
    # buffers): exact per-core x bucket counts.
    key_host = dtable.table.column(key)[r0:r1]
    bucket_of = ((crc32_column(key_host) >> np.uint32(5)) % num_buckets).astype(
        np.int64
    )

    core_ranges = {
        core: static_partition(rows, len(cores), index)
        for index, core in enumerate(cores)
    }
    counts = np.zeros((len(cores), num_buckets), dtype=np.int64)
    for index, core in enumerate(cores):
        lo, hi = core_ranges[core]
        counts[index] = np.bincount(bucket_of[lo:hi], minlength=num_buckets)
    bucket_totals = counts.sum(axis=0)

    # Region layout: [bucket][column][core slice]; all in fresh DDR.
    bucket_col_addr: Dict[Tuple[int, int], int] = {}
    for bucket in range(num_buckets):
        for col, width in enumerate(widths):
            bucket_col_addr[(bucket, col)] = dpu.alloc(
                max(int(bucket_totals[bucket]) * width, 8)
            )
    core_slice_start = np.zeros((len(cores), num_buckets), dtype=np.int64)
    core_slice_start[1:] = np.cumsum(counts[:-1], axis=0)

    staging_slots = [24 * 1024 + i * staging_bytes for i in range(4)]

    def partition_kernel(ctx):
        index = cores.index(ctx.core_id)
        lo, hi = core_ranges[ctx.core_id]
        if lo >= hi:
            return None
        out = StagedWrites(ctx, staging_slots, events=(8, 9, 10, 11))
        cursors = {
            (bucket, col): int(core_slice_start[index][bucket])
            for bucket in range(num_buckets)
            for col in range(len(widths))
        }
        shifted = [
            (addr + (r0 + lo) * ref_width(spec), spec) for addr, spec in refs
        ]
        # Per-(bucket, column) combining buffers: values accumulate
        # until a staging-slot-sized run is ready, so DDR writes are
        # large enough to amortize per-burst overheads (the classic
        # software-managed partition buffer; its DMEM footprint is the
        # staging area plus the stream tiles budgeted above).
        accum: Dict[Tuple[int, int], np.ndarray] = {}

        def emit(slot_key, run) -> None:
            width = widths[slot_key[1]]
            out.put(run, bucket_col_addr[slot_key] + cursors[slot_key] * width)
            cursors[slot_key] += len(run)

        def process(tile, tlo, thi, arrays):
            buckets_here = bucket_of[lo + tlo : lo + thi]
            order = np.argsort(buckets_here, kind="stable")
            sorted_buckets = buckets_here[order]
            boundaries = np.searchsorted(
                sorted_buckets, np.arange(num_buckets + 1)
            )
            for bucket in range(num_buckets):
                b_lo, b_hi = boundaries[bucket], boundaries[bucket + 1]
                if b_lo == b_hi:
                    continue
                take = order[b_lo:b_hi]
                for col, values in enumerate(arrays):
                    slot_key = (bucket, col)
                    run = values[take]
                    if slot_key in accum:
                        run = np.concatenate((accum.pop(slot_key), run))
                    # Emit full staging runs; keep the remainder.
                    emit_count = staging_bytes // widths[col]
                    while len(run) >= emit_count:
                        emit(slot_key, run[:emit_count])
                        run = run[emit_count:]
                    if len(run):
                        accum[slot_key] = run
            return (thi - tlo) * SW_PARTITION_CYCLES_PER_ROW_COL * len(arrays)

        yield from out.wrap(stream_columns(
            ctx, shifted, hi - lo, tile_rows, process, dmem_base=0
        ))
        for slot_key, run in sorted(accum.items()):
            emit(slot_key, run)
        yield from out.close()
        return None

    launch = dpu.launch(partition_kernel, cores=cores)
    total_cycles = launch.cycles

    # Phase 2: hardware path per bucket, over the bucket's columns.
    merged: GroupTable = {}
    nbytes = sum(rows * width for width in widths) * 2  # read + write
    for bucket in range(num_buckets):
        total = int(bucket_totals[bucket])
        if total == 0:
            continue
        bucket_columns = {}
        for col, name in enumerate(names):
            addr = bucket_col_addr[(bucket, col)]
            bucket_columns[name] = dpu.load_array(addr, total, dtypes[col])
        sub_table = Table(name=f"{dtable.name}_b{bucket}", columns=bucket_columns)
        sub_addresses = {
            name: bucket_col_addr[(bucket, col)]
            for col, name in enumerate(names)
        }
        sub = DpuTable(table=sub_table, dpu=dpu, addresses=sub_addresses)
        bucket_groups, cycles, sub_bytes = _groupby_hw_partitioned(
            dpu, sub, key, aggs, row_filter, broadcasts
        )
        merged = merge_groups([merged, bucket_groups], aggs)
        total_cycles += cycles
        nbytes += sub_bytes
        if free_regions:
            # Governed mode: this bucket's regions are dead once its
            # groups are merged — release them so the next chunk's
            # allocations reuse the same footprint.
            for col in range(len(widths)):
                dpu.free(bucket_col_addr.pop((bucket, col)))
    if free_regions:
        for address in bucket_col_addr.values():
            dpu.free(address)  # empty buckets never entered phase 2
        bucket_col_addr.clear()
    return merged, total_cycles, nbytes


# -- Xeon baseline ---------------------------------------------------------------


def xeon_groupby(
    model: XeonModel,
    table: Table,
    key: str,
    aggs: List[AggSpec],
    row_filter: Union[None, Predicate, RowFilter] = None,
    ndv_hint: Optional[int] = None,
    budget: Optional[DmemBudget] = None,
) -> XeonOpResult:
    """Functional numpy group-by with roofline timing.

    Partition rounds follow the planner's x86 side: each round is a
    read+write pass over the grouped columns at effective bandwidth.
    """
    budget = budget or DmemBudget()
    filt = _as_row_filter(row_filter)
    rows = table.num_rows
    if isinstance(key, GroupKey):
        key_values = key.fn({name: table.column(name) for name in key.columns})
    else:
        key_values = table.column(key)
    ndv = int(ndv_hint) if ndv_hint is not None else len(np.unique(key_values))
    record_bytes = 8 + 8 * len(aggs)
    plan = plan_partitioning(ndv, record_bytes, budget)

    names = _needed_columns(key, aggs, filt)
    columns = {name: table.column(name) for name in names}
    groups: GroupTable = {}
    _tile_update(groups, columns, key, aggs, filt)

    nbytes = table.nbytes(names)
    instructions = rows * (
        _XEON_AGG_OPS_PER_ROW
        + (filt.xeon_ops_per_row if filt else 0.0)
        + plan.x86_rounds * _XEON_PARTITION_OPS_PER_ROW
    )
    seconds = model.roofline_seconds(
        instructions=instructions,
        nbytes=nbytes,
        memory_passes=plan.x86_memory_passes,
    )
    return XeonOpResult(
        value=groups,
        seconds=seconds,
        bytes_streamed=int(nbytes * plan.x86_memory_passes),
        detail={"ndv": ndv, "x86_rounds": plan.x86_rounds},
    )
