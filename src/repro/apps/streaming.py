"""Double-buffered DMS tile streaming — the idiom every DPU app uses.

The pattern from the paper's Listing 1: two DMEM buffers per input
column, descriptors refilling one while the dpCore consumes the
other, with DMS events for flow control. ``stream_columns`` wraps it
for kernels that read N parallel columns tile by tile and charge a
compute cost per tile; ``writeback`` optionally streams results out
on the second DMS channel with its own event pair so refills never
overwrite unwritten output.

The ``process`` callback does *functional* work with numpy views of
DMEM and returns the dpCore cycle cost to charge for the tile, using
constants derived from the ISA interpreter (see
``repro.apps.sql.costs``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dpu import CoreContext
from ..dms.descriptor import Descriptor, DescriptorType

__all__ = ["stream_columns", "ColumnRef", "WIDTH_DTYPE", "ref_dtype", "ref_width"]

WIDTH_DTYPE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

# A column in DDR: (base address, element dtype). A bare integer width
# is accepted and treated as the unsigned type of that many bytes.
ColumnRef = Tuple[int, object]


def ref_dtype(spec) -> np.dtype:
    """Normalize a ColumnRef's second element to a numpy dtype."""
    if isinstance(spec, (int, np.integer)):
        return np.dtype(WIDTH_DTYPE[int(spec)])
    return np.dtype(spec)


def ref_width(spec) -> int:
    return ref_dtype(spec).itemsize

_READ_EVENTS = (0, 1)
_WRITE_EVENTS = (2, 3)

# Software cost of a buffer swap: the wfe wake, event clear, pointer
# flip and descriptor push for the refill (~2 dozen instructions).
# Negligible for 8 KB tiles; visible at the small-tile end of the
# paper's Figure 15 sweep.
BUFFER_SWAP_CYCLES = 24.0


def stream_columns(
    ctx: CoreContext,
    columns: Sequence[ColumnRef],
    rows: int,
    tile_rows: int,
    process: Callable,
    dmem_base: int = 0,
    writeback: Optional[ColumnRef] = None,
):
    """Stream ``rows`` of ``columns`` through DMEM in double-buffered
    tiles, invoking ``process(tile_index, lo, hi, arrays)`` per tile.

    ``arrays`` are numpy views (one per column) over the tile's DMEM
    region — zero-copy, mutations visible to write-back. ``process``
    returns cycles to charge (0 for free). With ``writeback=(addr,
    width)``, the first ``hi-lo`` elements of the first column's
    buffer are streamed back to DDR after processing (read-modify-
    write tiles, the paper's R+W microbenchmark shape).

    Kernel usage::

        yield from stream_columns(ctx, cols, rows, 2048, work)
    """
    if rows <= 0:
        return
    if tile_rows <= 0:
        raise ValueError(f"tile_rows must be positive: {tile_rows}")
    num_tiles = -(-rows // tile_rows)
    dtypes = [ref_dtype(spec) for _addr, spec in columns]
    widths = [dtype.itemsize for dtype in dtypes]
    tile_bytes = [tile_rows * width for width in widths]
    # DMEM layout: [buf0: col0 col1 ...][buf1: col0 col1 ...]
    set_bytes = sum(tile_bytes)
    if dmem_base + 2 * set_bytes > ctx.dmem.size:
        raise ValueError(
            f"streaming needs {2 * set_bytes} B of DMEM at {dmem_base}, "
            f"have {ctx.dmem.size}"
        )
    # DMEM offset of each column's buffer in each buffer set.
    offsets: List[List[int]] = [[], []]
    cursor = 0
    for nbytes in tile_bytes:
        for buf in (0, 1):
            offsets[buf].append(dmem_base + buf * set_bytes + cursor)
        cursor += nbytes
    last_col = len(columns) - 1

    def issue(tile: int, buf: int) -> None:
        lo = tile * tile_rows
        hi = min(rows, lo + tile_rows)
        count = hi - lo
        buf_offsets = offsets[buf]
        for col, (addr, _spec) in enumerate(columns):
            width = widths[col]
            ctx.push(
                Descriptor(
                    dtype=DescriptorType.DDR_TO_DMEM,
                    rows=count,
                    col_width=width,
                    ddr_addr=addr + lo * width,
                    dmem_addr=buf_offsets[col],
                    notify_event=_READ_EVENTS[buf] if col == last_col else None,
                ),
                channel=0,
            )

    writeback_width = ref_width(writeback[1]) if writeback is not None else 0
    if writeback is not None:
        # Write events start "done" so the first two tiles don't wait.
        ctx.set_event(_WRITE_EVENTS[0])
        ctx.set_event(_WRITE_EVENTS[1])

    issue(0, 0)
    if num_tiles > 1:
        issue(1, 1)
    trace = ctx.dpu.trace
    for tile in range(num_tiles):
        buf = tile % 2
        span = trace.span("stream.tile", unit=ctx._unit, tile=tile)
        yield from ctx.wfe(_READ_EVENTS[buf])
        lo = tile * tile_rows
        hi = min(rows, lo + tile_rows)
        buf_offsets = offsets[buf]
        arrays = [
            ctx.dmem.view(buf_offsets[col], (hi - lo) * widths[col], dtypes[col])
            for col in range(len(columns))
        ]
        cycles = process(tile, lo, hi, arrays) + BUFFER_SWAP_CYCLES
        if cycles:
            yield from ctx.compute(cycles)
        if writeback is not None:
            out_addr, out_width = writeback[0], writeback_width
            yield from ctx.wfe(_WRITE_EVENTS[buf])
            ctx.clear_event(_WRITE_EVENTS[buf])
            ctx.push(
                Descriptor(
                    dtype=DescriptorType.DMEM_TO_DDR,
                    rows=hi - lo,
                    col_width=out_width,
                    ddr_addr=out_addr + lo * out_width,
                    dmem_addr=offsets[buf][0],
                    notify_event=_WRITE_EVENTS[buf],
                ),
                channel=1,
            )
        ctx.clear_event(_READ_EVENTS[buf])
        if tile + 2 < num_tiles:
            issue(tile + 2, buf)
        span.end()
    if writeback is not None:
        # Drain outstanding writes before returning.
        for event in _WRITE_EVENTS:
            yield from ctx.wfe(event)
