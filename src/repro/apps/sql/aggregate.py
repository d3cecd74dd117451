"""Grouping and aggregation (paper §5.3).

Three physical strategies, chosen by the partition planner:

* **low-NDV** — every core builds the whole (small) group table in
  its DMEM over its static share of rows; a cheap merge operator
  combines the 32 partial tables (the paper: "when the number of
  distinct groups is low ... a merge operator is added after the
  grouping operator").

* **hardware-partitioned** (1 < partitions <= 32) — the DMS scatters
  (key, payload) records straight into the launch's cores' DMEMs (all
  32 on a whole DPU); each core aggregates its own partition, so no
  DRAM round trip is needed ("especially useful for moderately sized
  hash tables"). The waves, their mailbox handshake and the record
  format are the shared partition loop's
  (:func:`~repro.apps.streaming.partition_columns`, which join, sort
  and the cluster exchange use too); this module only sizes the waves
  and aggregates each wave's records.

* **software round + hardware** (partitions <= 1024) — one
  read+write round through DRAM splits the table 32 ways by *other*
  hash bits (software partitioning runs at near memory bandwidth
  alongside the hardware partitioner, §3.4's 1024-way claim); each
  bucket then takes the hardware path.

All three paths move real bytes. The hardware paths aggregate the
records the simulated DMS delivered into each DMEM. The low-NDV path
aggregates the stored columns once per launch, in bulk, while its
streams still move every tile; after the launch it checks every byte
the streams delivered against the bytes it aggregated and raises
:class:`DeliveryMismatchError` at the first that differs, so its
tables too are aggregated from data that traveled through the DMS.

The operator is deliberately general: aggregates may be arithmetic
expressions over several columns (Q1's ``sum(price * (1-disc))``) and
the row filter is any :class:`~repro.apps.sql.expr.RowFilter`: a scan
predicate or an arbitrary mask function (which is how the join
operator fuses a semijoin probe into the aggregation, see
:mod:`repro.apps.sql.join`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ...baseline.xeon import XeonModel
from ...core.crc32 import crc32_column
from ...core.dpu import DPU
from ...runtime.admission import spill_segments
from ...runtime.task import static_partition
from ...obs import traced_op
from ..streaming import (
    StagedWrites,
    broadcast_loads,
    hash_spec,
    load_shared,
    parse_records,
    partition_chunk_rows,
    partition_columns,
    partition_wave_rows,
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
from .expr import Columns, RowFilter
from .planner import DmemBudget, plan_partitioning
from .table import DpuTable, Table

__all__ = [
    "AggSpec",
    "Broadcast",
    "DeliveryMismatchError",
    "GroupKey",
    "dpu_groupby",
    "xeon_groupby",
    "merge_groups",
]

_XEON_AGG_OPS_PER_ROW = 8.0  # scalar hash-agg update micro-ops
_XEON_PARTITION_OPS_PER_ROW = 4.0

GroupTable = Dict[int, List[float]]  # key -> one slot per aggregate


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: {sum, count, min, max} over a column or an
    expression of columns.

    ``AggSpec("sum", "l_quantity")`` or
    ``AggSpec("sum", expr=lambda c: c["p"] * (100 - c["d"]),
    expr_columns=("p", "d"), expr_cycles_per_row=2.0)`` — the cycle
    hint charges the dpCore for evaluating the expression.

    ``expr`` must be row-wise: one value per row, each a function of
    that row's inputs only, by the same arithmetic however many rows
    it is handed. The low-NDV group-by evaluates it once over all
    selected rows of a launch, where the other paths evaluate it per
    tile or per wave.
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

    ``fn`` must be row-wise (see :class:`AggSpec`) and return an
    integer array: ``dpu_groupby`` and ``xeon_groupby`` raise
    ``ValueError`` naming a key of any other dtype before anything
    runs, as they do for a key column that is not an integer type.
    """

    fn: Callable[[Columns], np.ndarray]
    columns: Tuple[str, ...]
    cycles_per_row: float = 2.0
    name: str = "expr_key"


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


def _check_integer_key(key, key_values: np.ndarray) -> None:
    """Group keys are integers (SQL keys are dictionary codes): with a
    float key, NaN would be one group per tile on one path and a single
    group on another."""
    key_values = np.asarray(key_values)
    if key_values.dtype.kind not in "iu":
        name = key.name if isinstance(key, GroupKey) else key
        raise ValueError(
            f"group key {name!r} is {key_values.dtype}, not an integer "
            "type; encode it as integer codes first"
        )


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


def _broadcast_loads(broadcasts, dmem_offset: int):
    """The descriptors that DMS-load each broadcast table into a core's
    DMEM at ``dmem_offset``, in pieces of at most 8 KB: built once per
    launch, pushed by each of its cores with
    :func:`~repro.apps.streaming.load_shared`."""
    return broadcast_loads(
        [(broadcast.addr, broadcast.nbytes) for broadcast in broadcasts],
        dmem_offset,
    )


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
    row_filter: Optional[RowFilter] = None,
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
    if isinstance(key, GroupKey):
        host_columns = {
            name: dtable.table.column(name) for name in key.columns
        }
        key_values = key.fn(host_columns)
    else:
        key_values = dtable.table.column(key)
    _check_integer_key(key, key_values)
    ndv = int(ndv_hint) if ndv_hint is not None else len(np.unique(key_values))
    record_bytes = 8 + 8 * len(aggs)
    plan = plan_partitioning(ndv, record_bytes, budget)

    if isinstance(key, GroupKey) and plan.partitions_needed > 1:
        raise ValueError(
            "computed group keys cannot drive the hardware partitioner; "
            f"this key needs {plan.partitions_needed} partitions — "
            "materialize the key column first"
        )
    refs = dtable.column_refs(_needed_columns(key, aggs, row_filter))
    tile_rows = fit_broadcasts(
        plan.partitions_needed, sum(ref_width(spec) for _addr, spec in refs),
        _broadcast_bytes(broadcasts), tile_rows,
    )
    if plan.partitions_needed <= 1:
        result, cycles, nbytes = _groupby_low_ndv(
            dpu, dtable, key, aggs, row_filter, tile_rows, broadcasts
        )
    elif plan.partitions_needed <= 32:
        result, cycles, nbytes = _groupby_hw_partitioned(
            dpu, dtable, key, aggs, row_filter, broadcasts
        )
    else:
        if plan.dpu_sw_rounds > 1:
            raise ValueError(
                f"{plan.partitions_needed} partitions need "
                f"{plan.dpu_sw_rounds} software rounds; only one is "
                "implemented (enough for tables to ~24 GB of groups)"
            )
        result, cycles, nbytes = _groupby_one_sw_round(
            dpu, dtable, key, aggs, row_filter, tile_rows, broadcasts,
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


class DeliveryMismatchError(RuntimeError):
    """A low-NDV group-by launch's DMS delivered bytes that differ from
    the stored column its bulk pass aggregated.

    ``column`` names the column, ``core`` the core whose stream
    delivered the row, ``row`` the table row; ``stored`` and
    ``delivered`` are that row's bytes.
    """

    def __init__(self, column: str, core: int, row: int, stored: bytes,
                 delivered: bytes) -> None:
        self.column = column
        self.core = core
        self.row = row
        self.stored = stored
        self.delivered = delivered
        super().__init__(
            f"column {column!r} row {row} reached core {core} as "
            f"{delivered.hex()}, stored as {stored.hex()}"
        )


# Each op's empty cell: what a tile without the group adds to a fold.
_EMPTY_CELL = {"sum": 0.0, "min": np.inf, "max": -np.inf}


def _fold(parts: np.ndarray, op: str) -> np.ndarray:
    """Fold ``parts`` along its first axis, in order, from the op's
    empty cell, with the slot arithmetic of :func:`_update_groups` and
    :func:`merge_groups`: ``a + b`` for sums, and Python's ``min(a, b)``
    / ``max(a, b)``, which keep ``a`` unless ``b`` is smaller / larger
    (so a NaN ``b`` never replaces ``a``).

    A sum is one ``np.add.accumulate`` over the parts with a 0.0 row
    placed first. An accumulation is sequential by definition (each
    output adds one part to the output before it), so it repeats
    ``acc = acc + part`` from 0.0 bit for bit. The 0.0 row matters: a
    lone -0.0 part folds to 0.0, where ``np.add.reduce``, which starts
    from the first part, would keep -0.0."""
    with np.errstate(invalid="ignore", over="ignore"):  # as Python floats
        if op == "sum":
            rows = np.empty((len(parts) + 1,) + parts.shape[1:])
            rows[0] = 0.0
            rows[1:] = parts
            return np.add.accumulate(rows, axis=0, out=rows)[-1]
        acc = np.full(parts.shape[1:], _EMPTY_CELL[op])
        for part in parts:
            if op == "min":
                acc = np.where(part < acc, part, acc)
            else:
                acc = np.where(part > acc, part, acc)
    return acc


class _LowNdvPass:
    """The functional half of one low-NDV launch, done once, in bulk.

    It reads the needed columns as stored in DDR, cuts their rows into
    the (core, tile) segments the launch's streams use, and evaluates
    the row filter, the group key and the aggregate inputs over all
    selected rows at once. Every aggregate then takes one ``bincount``
    (or ``minimum.at`` / ``maximum.at``) over (core, tile, group)
    cells: each cell holds exactly what the per-tile update made of
    that tile's rows of that group. Folding the cells tile by tile
    gives each core's partial table, and folding the partials in the
    order they reached core 0 gives the merged table, with the merge
    operator's arithmetic, key order and slot types
    (docs/PERFORMANCE.md, "One functional pass per low-NDV launch").

    This is exact only for row-wise filters, keys and aggregate
    expressions (see :class:`RowFilter`), over columns the launch does
    not write. The kernel copies every tile the DMS delivers into
    ``captures``, and :meth:`check` proves they equal the stored bytes.
    """

    def __init__(self, dpu, refs, dtypes, names, rows, cores, tile_rows,
                 key, aggs, row_filter) -> None:
        self.names = names
        self.cores = cores
        self.aggs = aggs
        count = len(cores)
        self.bounds = [static_partition(rows, count, index)
                       for index in range(count)]
        self.stored = [
            dpu.ddr.read(addr, rows * dtype.itemsize).view(dtype)
            for (addr, _spec), dtype in zip(refs, dtypes)
        ]
        self.captures = [np.empty_like(values) for values in self.stored]

        # Each row's (core, tile) segment, numbered core by core.
        sizes = np.array([hi - lo for lo, hi in self.bounds], dtype=np.int64)
        tiles = int(-(-sizes.max() // tile_rows))
        starts = np.array([lo for lo, _hi in self.bounds], dtype=np.int64)
        owner = np.repeat(np.arange(count, dtype=np.int64), sizes)
        segment = (owner * tiles
                   + (np.arange(rows, dtype=np.int64) - starts[owner])
                   // tile_rows)

        columns = dict(zip(names, self.stored))
        if row_filter is not None:
            mask = row_filter.mask_fn(columns)
            columns = {name: values[mask] for name, values in columns.items()}
            segment = segment[mask]
        keys = key.fn(columns) if isinstance(key, GroupKey) else columns[key]
        self.keys, inverse = np.unique(keys, return_inverse=True)
        groups = len(self.keys)
        cells = segment * groups + inverse
        shape = (count, tiles, groups)
        size = count * tiles * groups
        counts = np.bincount(cells, minlength=size).reshape(shape)
        self.selected = counts.sum(axis=2).tolist()
        self.occupied = counts > 0
        self.group_counts = self.occupied.any(axis=1).sum(axis=1).tolist()

        # Each core's partial slots, folded tile by tile.
        self.partials: List[np.ndarray] = []
        for agg in aggs:
            if agg.op == "count":
                self.partials.append(counts.sum(axis=1))
                continue
            values = agg.values(columns)
            if agg.op == "sum":
                cell_values = np.bincount(
                    cells, weights=values.astype(np.float64), minlength=size
                )
            else:
                cell_values = np.full(size, _EMPTY_CELL[agg.op])
                ufunc = np.minimum if agg.op == "min" else np.maximum
                ufunc.at(cell_values, cells, values)
            self.partials.append(
                _fold(np.moveaxis(cell_values.reshape(shape), 1, 0), agg.op)
            )

    def check(self) -> None:
        """Raise :class:`DeliveryMismatchError` at the first row whose
        delivered bytes differ from the stored ones."""
        for name, stored, captured in zip(self.names, self.stored,
                                          self.captures):
            expected = stored.view(np.uint8)
            delivered = captured.view(np.uint8)
            if np.array_equal(expected, delivered):
                continue
            width = stored.itemsize
            row = int(np.flatnonzero(expected != delivered)[0]) // width
            index = next(index for index, (lo, hi) in enumerate(self.bounds)
                         if lo <= row < hi)
            raise DeliveryMismatchError(
                name, self.cores[index], row,
                stored[row:row + 1].tobytes(),
                captured[row:row + 1].tobytes(),
            )

    def merge(self, arrivals: List[int]) -> GroupTable:
        """Fold the partials in the order they reached core 0 (the
        launch's core indexes, core 0's own first)."""
        count, tiles, groups = self.occupied.shape
        position = np.empty(count, dtype=np.int64)
        position[arrivals] = np.arange(count)
        # A group's place is the first (arrival, tile) cell it occupies;
        # groups first met in one tile keep key order, as each tile's
        # keys are sorted.
        cell = (position[:, None] * tiles
                + np.arange(tiles, dtype=np.int64)).reshape(-1, 1)
        first = np.where(self.occupied.reshape(count * tiles, groups), cell,
                         count * tiles).min(axis=0, initial=count * tiles)
        order = np.argsort(first, kind="stable")
        slots = []
        for agg, partial in zip(self.aggs, self.partials):
            if agg.op == "count":
                merged = partial.sum(axis=0)
            else:
                merged = _fold(partial[arrivals], agg.op)
            slots.append(merged[order].tolist())
        keys = self.keys[order].tolist()
        if not slots:
            return {key: [] for key in keys}
        return {key: list(row) for key, row in zip(keys, zip(*slots))}


def _groupby_low_ndv(dpu, dtable, key, aggs, row_filter, tile_rows,
                     broadcasts=()):
    """Each core of the launch streams its static share of rows
    through the DMS and mails its index to core 0, which pays the
    merge of each partial as it arrives and returns the arrival order.
    The values come from one bulk pass (:class:`_LowNdvPass`) built on
    the launch's first kernel step and checked against every byte the
    streams delivered. What the cores share is built once per launch:
    the column dtypes, each core's column bases and the broadcast
    loads."""
    names = _needed_columns(key, aggs, row_filter)
    refs = dtable.column_refs(names)
    dtypes = [ref_dtype(spec) for _addr, spec in refs]
    rows = dtable.num_rows
    filter_cycles = row_filter.dpu_cycles_per_row if row_filter else 0.0
    key_cycles = key.cycles_per_row if isinstance(key, GroupKey) else 0.0
    agg_cycles = _agg_cycles(aggs) + key_cycles
    # Broadcasts live at the top of DMEM, above the stream tiles.
    loads = _broadcast_loads(
        broadcasts, dpu.config.dmem_size - _broadcast_bytes(broadcasts))
    bulk: Optional[_LowNdvPass] = None
    core_refs: List[List[Tuple[int, object]]] = []

    def kernel(ctx):
        nonlocal bulk, core_refs
        cores = ctx.cores
        if bulk is None:
            bulk = _LowNdvPass(dpu, refs, dtypes, names, rows, cores,
                               tile_rows, key, aggs, row_filter)
            # Each core's columns from its first row on.
            core_refs = [
                [(addr + lo * dtype.itemsize, spec)
                 for (addr, spec), dtype in zip(refs, dtypes)]
                for lo, _hi in bulk.bounds
            ]
        index = cores.index(ctx.core_id)
        lo, hi = bulk.bounds[index]
        if lo < hi:
            if loads:
                yield from load_shared(ctx, loads)
            captures = bulk.captures
            selected = bulk.selected[index]

            def process(tile, tlo, thi, arrays):
                for captured, values in zip(captures, arrays):
                    captured[lo + tlo:lo + thi] = values
                return (thi - tlo) * filter_cycles + selected[tile] * agg_cycles

            yield from stream_columns(
                ctx, core_refs[index], hi - lo, tile_rows, process, dmem_base=0
            )
        # Merge at core 0: every other core mails its index, and core 0
        # pays for merging that core's partial table.
        if ctx.core_id != cores[0]:
            yield from ctx.mbox_send(cores[0], index)
            return None
        arrivals = [index]
        group_counts = bulk.group_counts
        for _ in range(len(cores) - 1):
            _src, sender = yield from ctx.mbox_receive()
            arrivals.append(sender)
            yield from ctx.compute(MERGE_CYCLES_PER_GROUP * group_counts[sender])
        return arrivals

    launch = dpu.launch(kernel)
    bulk.check()
    merged = bulk.merge(launch.values[0])
    nbytes = dtable.nbytes(names)
    return merged, launch.cycles, nbytes


# -- strategy 2: hardware partitioning straight into DMEMs ------------------


def _groupby_hw_partitioned(dpu, dtable, key, aggs, row_filter,
                            broadcasts=()):
    """The DMS hash-partitions the rows over the launch's cores (32
    ways on a whole DPU) in waves; every target core aggregates its
    DMEM partition after each wave."""
    names = _needed_columns(key, aggs, row_filter)
    refs = dtable.column_refs(names)
    rows = dtable.num_rows
    dtypes = [ref_dtype(spec) for _addr, spec in refs]
    width = record_width(dtypes)
    filter_cycles = row_filter.dpu_cycles_per_row if row_filter else 0.0
    agg_cycles = _agg_cycles(aggs)

    # A chunk fits a CMEM bank; a wave fills the targets' DMEM output
    # buffers half way on uniform keys (the partition loop ends it
    # early where skew would overflow one); broadcasts occupy the space
    # between the buffer and the count word.
    chunk_rows = partition_chunk_rows(width, dpu.config.cmem_bank_bytes)
    buffer_capacity = 18 * 1024
    buffer = (0, buffer_capacity, 31 * 1024)
    loads = _broadcast_loads(broadcasts, buffer_capacity)

    def kernel(ctx):
        spec = hash_spec(len(ctx.cores))
        groups: GroupTable = {}
        if loads and ctx.core_id in ctx.cores[:spec.fanout]:
            yield from load_shared(ctx, loads)

        def aggregate(count):
            raw = ctx.dmem.view(0, count * width, np.uint8)
            columns = dict(zip(names, parse_records(raw, dtypes)))
            selected = _tile_update(groups, columns, key, aggs, row_filter)
            yield from ctx.compute(count * filter_cycles + selected * agg_cycles)

        wave_rows = partition_wave_rows(spec.fanout, buffer_capacity, width,
                                        chunk_rows)
        yield from partition_columns(ctx, refs, rows, spec, buffer,
                                     chunk_rows, wave_rows, aggregate)
        return groups

    launch = dpu.launch(kernel)
    merged = merge_groups(launch.values, aggs)  # disjoint keys: concat
    return merged, launch.cycles, rows * width


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
    are identical, only cycles grow. Without a governor it is one
    chunk of every row, and the bucket regions stay allocated.
    """
    names = _needed_columns(key, aggs, row_filter)
    row_bytes = sum(ref_width(spec) for _, spec in dtable.column_refs(names))
    rows = dtable.num_rows
    need = rows * row_bytes + 32 * len(names) * 8  # regions + alloc slack
    floor = max(row_bytes * 32 * 64, 4096)
    merged: GroupTable = {}
    total_cycles = 0.0
    total_nbytes = 0
    with spill_segments(governor, need, floor,
                        "sql.groupby.buckets") as chunks:
        chunk_rows = max(1, -(-rows // chunks))
        for r0 in range(0, max(rows, 1), chunk_rows):
            r1 = min(rows, r0 + chunk_rows)
            part, cycles, nbytes = _groupby_sw_round_range(
                dpu, dtable, key, aggs, row_filter, tile_rows, broadcasts,
                r0, r1, free_regions=governor is not None,
            )
            merged = merge_groups([merged, part], aggs)
            total_cycles += cycles
            total_nbytes += nbytes
    return merged, total_cycles, total_nbytes


def _groupby_sw_round_range(dpu, dtable, key, aggs, row_filter, tile_rows,
                            broadcasts, r0, r1, free_regions):
    """One software partition round over rows [r0, r1)."""
    names = _needed_columns(key, aggs, row_filter)
    refs = dtable.column_refs(names)
    dtypes = [ref_dtype(spec) for _addr, spec in refs]
    widths = [dtype.itemsize for dtype in dtypes]
    rows = r1 - r0
    num_buckets = 32
    # DMEM budget: stream buffers below 20 KB, four 1.5 KB write
    # staging slots above (at 24..30 KB).
    tile_rows = min(
        tile_rows, max(64, (20 * 1024 // (2 * sum(widths))) // 64 * 64)
    )
    staging_bytes = 1536

    # Host-side sizing of bucket regions (models chained-block output
    # buffers): exact bucket totals.
    key_host = dtable.table.column(key)[r0:r1]
    bucket_of = ((crc32_column(key_host) >> np.uint32(5)) % num_buckets).astype(
        np.int64
    )
    bucket_totals = np.bincount(bucket_of, minlength=num_buckets)

    # Region layout: [bucket][column][core slice]; all in fresh DDR.
    bucket_col_addr: Dict[Tuple[int, int], int] = {}
    for bucket in range(num_buckets):
        for col, width in enumerate(widths):
            bucket_col_addr[(bucket, col)] = dpu.alloc(
                max(int(bucket_totals[bucket]) * width, 8)
            )

    staging_slots = [24 * 1024 + i * staging_bytes for i in range(4)]
    # Per launch core, its static share of the rows and where its slice
    # of each bucket starts: built on the launch's first kernel step.
    split = None

    def partition_kernel(ctx):
        nonlocal split
        cores = ctx.cores
        if split is None:
            ranges = [static_partition(rows, len(cores), index)
                      for index in range(len(cores))]
            counts = np.array([
                np.bincount(bucket_of[lo:hi], minlength=num_buckets)
                for lo, hi in ranges
            ])
            starts = np.zeros_like(counts)
            starts[1:] = np.cumsum(counts[:-1], axis=0)
            split = (ranges, starts)
        ranges, starts = split
        index = cores.index(ctx.core_id)
        lo, hi = ranges[index]
        if lo >= hi:
            return None
        out = StagedWrites(ctx, staging_slots, events=(8, 9, 10, 11))
        cursors = {
            (bucket, col): int(starts[index][bucket])
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

    launch = dpu.launch(partition_kernel)
    total_cycles = launch.cycles

    # Phase 2: hardware path per bucket, over the bucket's columns.
    merged: GroupTable = {}
    nbytes = sum(rows * width for width in widths) * 2  # read + write
    for bucket in range(num_buckets):
        total = int(bucket_totals[bucket])
        if total == 0:
            continue
        addresses = {name: bucket_col_addr[(bucket, col)]
                     for col, name in enumerate(names)}
        sub_table = Table(name=f"{dtable.name}_b{bucket}", columns={
            name: dpu.load_array(addresses[name], total, dtype)
            for name, dtype in zip(names, dtypes)})
        sub = DpuTable(table=sub_table, dpu=dpu, addresses=addresses)
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
    return merged, total_cycles, nbytes


# -- Xeon baseline ---------------------------------------------------------------


def xeon_groupby(
    model: XeonModel,
    table: Table,
    key: str,
    aggs: List[AggSpec],
    row_filter: Optional[RowFilter] = None,
    ndv_hint: Optional[int] = None,
    budget: Optional[DmemBudget] = None,
) -> XeonOpResult:
    """Functional numpy group-by with roofline timing.

    Partition rounds follow the planner's x86 side: each round is a
    read+write pass over the grouped columns at effective bandwidth.
    """
    budget = budget or DmemBudget()
    rows = table.num_rows
    if isinstance(key, GroupKey):
        key_values = key.fn({name: table.column(name) for name in key.columns})
    else:
        key_values = table.column(key)
    _check_integer_key(key, key_values)
    ndv = int(ndv_hint) if ndv_hint is not None else len(np.unique(key_values))
    record_bytes = 8 + 8 * len(aggs)
    plan = plan_partitioning(ndv, record_bytes, budget)

    names = _needed_columns(key, aggs, row_filter)
    columns = {name: table.column(name) for name in names}
    groups: GroupTable = {}
    _tile_update(groups, columns, key, aggs, row_filter)

    nbytes = table.nbytes(names)
    instructions = rows * (
        _XEON_AGG_OPS_PER_ROW
        + (row_filter.xeon_ops_per_row if row_filter else 0.0)
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
