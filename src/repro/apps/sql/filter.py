"""Scan-filter and scan-project (paper §5.3, Figure 15).

DPU execution: the DMS streams the predicate's columns into
double-buffered DMEM tiles; the dpCore runs the SETFL/SETFH + FILT
loop (~1.6 cycles/tuple/term, measured on the ISA interpreter) and
packs one result bit per row; packed bit-vector words stream back to
DDR on the second DMS channel. One dpCore sustains ~500 Mtuples/s
compute-bound; 32 cores saturate the DDR channel at ~9.5 GB/s.

``dpu_scan_project`` is the same streaming skeleton but materializes
a computed column instead of a bitvector (e.g. Q5's per-order nation
code), which is how the engine pipelines join lookups without a
separate materialization operator.

Xeon execution: AVX2 compares are cheap enough that the scan is
memory-bandwidth-bound; the roofline uses the measured 34.5 GB/s
effective bandwidth.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from ...baseline.xeon import XeonModel
from ...core.bitvector import pack_bits, unpack_bits
from ...core.dpu import DPU
from ...obs import traced_op
from ...runtime.task import static_partition
from ..streaming import (
    StagedWrites,
    load_shared,
    ref_width,
    stream_columns,
    stream_tile_rows,
)
from .aggregate import Broadcast, _broadcast_loads
from .engine import DpuOpResult, XeonOpResult
from .expr import RowFilter
from .table import DpuTable, Table

__all__ = ["dpu_filter", "xeon_filter", "dpu_scan_project"]

_OUT_STAGING = (0, 2048)  # two 2 KB staging slots at DMEM offsets 0/2K
_STREAM_BASE = 4096  # streaming buffers start above the staging area


def _streamed_scan(
    dpu: DPU,
    dtable: DpuTable,
    row_filter: RowFilter,
    out_addr: int,
    out_width: int,
    make_output: Callable,
    rows_per_out_unit: int,
    cores: Optional[Iterable[int]],
    tile_rows: int,
    broadcasts: Tuple[Broadcast, ...],
) -> float:
    """Common skeleton: stream columns, compute per-tile output units,
    write them back on channel 1. Returns launch cycles.

    ``make_output(columns) -> ndarray`` produces ``(hi-lo) /
    rows_per_out_unit`` elements of ``out_width`` bytes per tile.
    """
    rows = dtable.num_rows
    core_list = list(cores) if cores is not None else list(dpu.config.core_ids)
    names = list(row_filter.columns)
    refs = dtable.column_refs(names)
    cycles_per_row = row_filter.dpu_cycles_per_row
    # Broadcasts sit right above the staging slots and below the stream
    # tiles.
    bcast_bytes = sum(b.nbytes for b in broadcasts)
    row_bytes = sum(ref_width(spec) for _addr, spec in refs)
    tile_rows = stream_tile_rows(
        tile_rows, row_bytes, dpu.config.dmem_size - _STREAM_BASE - bcast_bytes
    )
    # A tile's output must fit one staging slot.
    max_out_tile = (_OUT_STAGING[1] // out_width) * rows_per_out_unit
    tile_rows = max(rows_per_out_unit, min(tile_rows, max_out_tile))

    # The launch's cores own disjoint ranges aligned to the output unit
    # so output words never straddle cores.
    num_units = -(-rows // rows_per_out_unit)
    loads, stream_base = _broadcast_loads(broadcasts, _STREAM_BASE)

    def kernel(ctx):
        cores = ctx.cores
        unit_lo, unit_hi = static_partition(
            num_units, len(cores), cores.index(ctx.core_id))
        row_lo = unit_lo * rows_per_out_unit
        row_hi = min(rows, unit_hi * rows_per_out_unit)
        if row_lo >= row_hi:
            return 0
        if loads:
            yield from load_shared(ctx, loads)
        out = StagedWrites(ctx, _OUT_STAGING, events=(4, 5))
        shifted = [
            (addr + row_lo * ref_width(spec), spec) for addr, spec in refs
        ]
        unit_cursor = unit_lo

        def process(tile, lo, hi, arrays):
            nonlocal unit_cursor
            values = make_output(dict(zip(names, arrays)))
            out.put(values, out_addr + unit_cursor * out_width)
            unit_cursor += len(values)
            return (hi - lo) * cycles_per_row

        yield from out.wrap(stream_columns(
            ctx, shifted, row_hi - row_lo, tile_rows, process,
            dmem_base=stream_base,
        ))
        yield from out.close()
        return row_hi - row_lo

    launch = dpu.launch(kernel, cores=core_list)
    return launch.cycles


@traced_op("sql.filter")
def dpu_filter(
    dpu: DPU,
    dtable: DpuTable,
    predicate: RowFilter,
    cores: Optional[Iterable[int]] = None,
    tile_rows: int = 2048,
    broadcasts: Tuple[Broadcast, ...] = (),
) -> DpuOpResult:
    """Run the filter on the DPU; returns the selection mask.

    The returned mask is *read back from the bit-vector the kernel
    actually wrote to simulated DDR* — the data path is functional.
    """
    rows = dtable.num_rows
    num_words = -(-rows // 64)
    bv_addr = dpu.alloc(max(num_words * 8, 8))

    def make_output(columns):
        return pack_bits(predicate.mask_fn(columns))

    cycles = _streamed_scan(
        dpu, dtable, predicate, bv_addr, 8, make_output, 64,
        cores, tile_rows, broadcasts,
    )
    words = dpu.load_array(bv_addr, num_words, np.uint64)
    mask = unpack_bits(words, rows)
    bytes_streamed = dtable.nbytes(list(predicate.columns)) + num_words * 8
    return DpuOpResult(
        value=mask,
        cycles=cycles,
        config=dpu.config,
        bytes_streamed=bytes_streamed,
        detail={"rows": rows, "selected": int(mask.sum())},
    )


@traced_op("sql.scan_project")
def dpu_scan_project(
    dpu: DPU,
    dtable: DpuTable,
    row_filter: RowFilter,
    project: Callable,
    out_dtype,
    cores: Optional[Iterable[int]] = None,
    tile_rows: int = 2048,
    broadcasts: Tuple[Broadcast, ...] = (),
) -> DpuOpResult:
    """Materialize ``project(columns)`` (one value per row) to DDR.

    ``row_filter`` supplies the streamed columns and the per-row cost;
    ``project`` computes the output element for every row (it can see
    the filter's mask logic through its own closure).
    """
    rows = dtable.num_rows
    out_width = np.dtype(out_dtype).itemsize
    out_addr = dpu.alloc(max(rows * out_width, 8))

    def make_output(columns):
        return np.ascontiguousarray(project(columns), dtype=out_dtype)

    cycles = _streamed_scan(
        dpu, dtable, row_filter, out_addr, out_width, make_output, 1,
        cores, tile_rows, broadcasts,
    )
    values = dpu.load_array(out_addr, rows, out_dtype)
    bytes_streamed = dtable.nbytes(list(row_filter.columns)) + rows * out_width
    return DpuOpResult(
        value=values,
        cycles=cycles,
        config=dpu.config,
        bytes_streamed=bytes_streamed,
        detail={"rows": rows, "out_addr": out_addr},
    )


def xeon_filter(
    model: XeonModel,
    table: Table,
    predicate: RowFilter,
) -> XeonOpResult:
    """The AVX2 scan on the roofline baseline."""
    columns = {name: table.column(name) for name in predicate.columns}
    mask = predicate.mask_fn(columns)
    rows = table.num_rows
    nbytes = table.nbytes(list(predicate.columns)) + rows / 8
    seconds = model.roofline_seconds(
        instructions=rows * predicate.xeon_ops_per_row,
        nbytes=nbytes,
    )
    return XeonOpResult(
        value=mask,
        seconds=seconds,
        bytes_streamed=int(nbytes),
        detail={"rows": rows, "selected": int(mask.sum())},
    )
