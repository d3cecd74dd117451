"""The kernel-side DMS library: every DDR<->DMEM transfer a kernel
makes goes through one of four idioms, each the paper's Listing 1
pattern of pushing descriptors that name a notify event and waiting
on it with ``wfe``.

* ``load`` / ``store`` — one blocking copy (the UPMEM SDK's
  ``mram_read`` / ``mram_write``): a ``DDR_TO_DMEM`` on channel 0 or a
  ``DMEM_TO_DDR`` on the caller's channel, then wait and clear. Event
  ids: sort spill 6 (channel 1); exchange drain 13 (channel 0);
  disparity loads 0 and stores 1 (channel 1); the SVM slice load and
  the naive similarity-search fetch 0. Broadcast tables load through
  ``load_shared``, the same copy over descriptors a launch builds
  once with ``broadcast_loads`` (8 KB pieces notifying event 12,
  ``BROADCAST_EVENT``) and all its cores push.
* ``stream_columns`` — the double-buffered stream: two DMEM buffers
  per input column, one refilling while the dpCore consumes the other
  (reads notify events 0 and 1 on channel 0; ``writeback`` streams the
  first column back on channel 1 with events 2 and 3). ``process``
  does the functional work on numpy views of DMEM and returns the
  tile's dpCore cycles, from constants derived from the ISA
  interpreter (see ``repro.apps.sql.costs``).
* ``StagedWrites`` — output runs written back through round-robin DMEM
  staging slots on channel 1, drained after every wait of the stream
  it wraps: the scan filter's two 2 KB slots (events 4 and 5) and the
  group-by software round's four 1.5 KB slots (events 8 to 11).
* ``partition_columns`` — the DMS hash/range partitioning engine
  (§3.1-3.2, Fig. 13) scattering rows into the DMEMs of the launch's
  first ``spec.fanout`` cores in waves, with a mailbox handshake
  between waves and no DMS event. It alone builds the pass's
  :class:`~repro.dms.partition.PartitionLayout`. Group-by, join, sort
  and the cluster exchange differ only in what each core does with
  its records (``consume``); ``parse_records`` reads the stored format
  (each row's columns back to back, key first).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import cycle
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.dpu import CoreContext
from ..dms.descriptor import (
    Descriptor,
    DescriptorType,
    PartitionMode,
    PartitionSpec,
)
from ..dms.partition import PartitionLayout, compute_cids

__all__ = [
    "load", "store", "broadcast_loads", "load_shared", "BROADCAST_EVENT",
    "stream_columns", "stream_tile_rows", "StagedWrites",
    "partition_columns", "partition_chunk_rows", "partition_wave_rows",
    "hash_spec", "parse_records",
    "record_width", "ColumnRef", "WIDTH_DTYPE", "ref_dtype", "ref_width",
]

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


def load(ctx: CoreContext, ddr_addr: int, dmem_addr: int, rows: int,
         width: int, event: int):
    """Copy ``rows`` elements of ``width`` bytes from DDR to DMEM: one
    ``DDR_TO_DMEM`` on channel 0 notifying ``event``; wait, clear."""
    ctx.push(Descriptor(
        dtype=DescriptorType.DDR_TO_DMEM, rows=rows, col_width=width,
        ddr_addr=ddr_addr, dmem_addr=dmem_addr, notify_event=event,
    ))
    yield from ctx.wfe(event)
    ctx.clear_event(event)


def store(ctx: CoreContext, dmem_addr: int, ddr_addr: int, rows: int,
          width: int, event: int, channel: int):
    """Copy ``rows`` elements of ``width`` bytes from DMEM to DDR: one
    ``DMEM_TO_DDR`` on ``channel`` notifying ``event``; wait, clear."""
    ctx.push(Descriptor(
        dtype=DescriptorType.DMEM_TO_DDR, rows=rows, col_width=width,
        ddr_addr=ddr_addr, dmem_addr=dmem_addr, notify_event=event,
    ), channel=channel)
    yield from ctx.wfe(event)
    ctx.clear_event(event)


# The notify event of every broadcast-table load.
BROADCAST_EVENT = 12


def broadcast_loads(tables: Sequence[Tuple[int, int]],
                    dmem_offset: int) -> Tuple[Descriptor, ...]:
    """The loads that copy each ``(ddr_addr, nbytes)`` table into DMEM,
    back to back from ``dmem_offset``, in pieces of at most 8 KB: one
    ``DDR_TO_DMEM`` of 1-byte rows per piece, notifying
    ``BROADCAST_EVENT``. A launch builds them once; every core pushes
    the same ones with :func:`load_shared`."""
    loads = []
    for ddr_addr, nbytes in tables:
        for start in range(0, nbytes, 8192):
            loads.append(Descriptor(
                dtype=DescriptorType.DDR_TO_DMEM,
                rows=min(8192, nbytes - start), col_width=1,
                ddr_addr=ddr_addr + start, dmem_addr=dmem_offset + start,
                notify_event=BROADCAST_EVENT,
            ))
        dmem_offset += nbytes
    return tuple(loads)


def load_shared(ctx: CoreContext, loads: Sequence[Descriptor]):
    """:func:`load` over descriptors built once: push each on channel
    0, wait for its notify event and clear it, one at a time. The DMS
    never changes a pushed descriptor, so the cores of a launch can
    all push the same ones."""
    for descriptor in loads:
        ctx.push(descriptor)
        event = descriptor.notify_event
        yield from ctx.wfe(event)
        ctx.clear_event(event)


_READ_EVENTS = (0, 1)
_WRITE_EVENTS = (2, 3)
_DDR_TO_DMEM = DescriptorType.DDR_TO_DMEM

# Software cost of a buffer swap: the wfe wake, event clear, pointer
# flip and descriptor push for the refill (~2 dozen instructions).
# Negligible for 8 KB tiles; visible at the small-tile end of the
# paper's Figure 15 sweep.
BUFFER_SWAP_CYCLES = 24.0


def stream_tile_rows(tile_rows: int, row_bytes: int, room: int) -> int:
    """Rows per tile (at most ``tile_rows``, a multiple of 64) of a
    double-buffered stream of ``row_bytes``-byte rows in ``room`` bytes
    of DMEM; ValueError when two 64-row tiles do not fit."""
    fit = room // (2 * row_bytes) // 64 * 64
    if fit < 64:
        raise ValueError(
            f"two 64-row tiles of {row_bytes} B rows need "
            f"{128 * row_bytes} B of DMEM; the broadcast tables leave "
            f"{max(room, 0)} B"
        )
    return min(tile_rows, fit)


@lru_cache(maxsize=1024)
def _stream_layout(specs: Tuple, tile_rows: int, dmem_base: int):
    """The DMEM layout of a double-buffered stream of columns of
    ``specs``: ``[buf0: col0 col1 ...][buf1: col0 col1 ...]`` from
    ``dmem_base``. Returns the bytes of one buffer set and, per buffer,
    each column's ``(width, DMEM offset, tile bytes, dtype, notify
    event)``; the last column's read notifies the buffer's event.

    It is a function of its arguments alone (no scratchpad, no view),
    so every core of every launch streaming the same column types
    shares one."""
    dtypes = [ref_dtype(spec) for spec in specs]
    tile_bytes = [tile_rows * dtype.itemsize for dtype in dtypes]
    set_bytes = sum(tile_bytes)
    last_col = len(specs) - 1
    buffers = []
    for buf in (0, 1):
        cursor = dmem_base + buf * set_bytes
        columns = []
        for col, (dtype, nbytes) in enumerate(zip(dtypes, tile_bytes)):
            columns.append((dtype.itemsize, cursor, nbytes, dtype,
                            _READ_EVENTS[buf] if col == last_col else None))
            cursor += nbytes
        buffers.append(tuple(columns))
    return set_bytes, tuple(buffers)


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
    set_bytes, buffers = _stream_layout(
        tuple([spec for _addr, spec in columns]), tile_rows, dmem_base)
    # Both buffers count against DMEM, even when one tile fills only
    # the first.
    if dmem_base + 2 * set_bytes > ctx.dmem.size:
        raise ValueError(
            f"streaming needs {2 * set_bytes} B of DMEM at {dmem_base}, "
            f"have {ctx.dmem.size}"
        )
    # Per buffer filled, each column's read (DDR base, width, DMEM
    # address, notify event) and a view of its DMEM as a full tile.
    view = ctx.dmem.view
    reads = []
    views = []
    for layout in buffers[:2 if num_tiles > 1 else 1]:
        reads.append([
            (addr, width, offset, notify)
            for (addr, _spec), (width, offset, _nbytes, _dtype, notify)
            in zip(columns, layout)
        ])
        views.append([view(offset, nbytes, dtype)
                      for _width, offset, nbytes, dtype, _notify in layout])
    push = ctx.dmad.push

    def issue(tile: int, buf: int) -> None:
        lo = tile * tile_rows
        count = min(rows, lo + tile_rows) - lo
        for addr, width, dmem_addr, notify in reads[buf]:
            push(Descriptor(dtype=_DDR_TO_DMEM, rows=count, col_width=width,
                            ddr_addr=addr + lo * width, dmem_addr=dmem_addr,
                            notify_event=notify), 0)

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
        span = (trace.span("stream.tile", unit=ctx._unit, tile=tile)
                if trace.enabled else None)
        yield from ctx.wfe(_READ_EVENTS[buf])
        lo = tile * tile_rows
        hi = min(rows, lo + tile_rows)
        if hi - lo == tile_rows:
            arrays = [*views[buf]]
        else:
            arrays = [view[: hi - lo] for view in views[buf]]
        cycles = process(tile, lo, hi, arrays) + BUFFER_SWAP_CYCLES
        if cycles:
            yield from ctx.compute(cycles)
        if writeback is not None:
            out_addr, out_width = writeback[0], writeback_width
            yield from ctx.wfe(_WRITE_EVENTS[buf])
            ctx.clear_event(_WRITE_EVENTS[buf])
            push(Descriptor(dtype=DescriptorType.DMEM_TO_DDR, rows=hi - lo,
                            col_width=out_width,
                            ddr_addr=out_addr + lo * out_width,
                            dmem_addr=buffers[buf][0][1],
                            notify_event=_WRITE_EVENTS[buf]), 1)
        ctx.clear_event(_READ_EVENTS[buf])
        if tile + 2 < num_tiles:
            issue(tile + 2, buf)
        if span is not None:
            span.end()
    if writeback is not None:
        # Drain outstanding writes before returning.
        for event in _WRITE_EVENTS:
            yield from ctx.wfe(event)


class StagedWrites:
    """Write output runs back to DDR through DMEM staging slots.

    ``put(values, ddr_addr)`` queues a run. Each run takes the next
    slot round-robin: wait for the slot's event (events start set),
    clear it, copy the run in and push a ``DMEM_TO_DDR`` on channel 1
    that sets it again. ``wrap(stream)`` runs a kernel generator that
    takes no values back from its waits (such as :func:`stream_columns`)
    and drains the queue after each of them; ``close()`` drains the
    rest and waits for the last writes.
    """

    def __init__(self, ctx: CoreContext, slots: Sequence[int],
                 events: Sequence[int]):
        self.ctx = ctx
        self.events = events
        self.ring = cycle(zip(slots, events))
        self.queue: deque = deque()  # O(1) drains however long it grows
        for event in events:
            ctx.set_event(event)

    def put(self, values: np.ndarray, ddr_addr: int) -> None:
        self.queue.append((values, ddr_addr))

    def drain(self):
        ctx = self.ctx
        while self.queue:
            values, ddr_addr = self.queue.popleft()
            slot, event = next(self.ring)
            yield from ctx.wfe(event)
            ctx.clear_event(event)
            ctx.dmem.write(slot, values)
            ctx.push(Descriptor(
                dtype=DescriptorType.DMEM_TO_DDR, rows=len(values),
                col_width=values.itemsize, ddr_addr=ddr_addr,
                dmem_addr=slot, notify_event=event,
            ), channel=1)

    def wrap(self, stream):
        for step in stream:
            yield step
            yield from self.drain()

    def close(self):
        yield from self.drain()
        for event in self.events:
            yield from self.ctx.wfe(event)


def record_width(dtypes: Sequence) -> int:
    """Bytes per record the partition engine stores: the columns'
    widths back to back."""
    return sum(np.dtype(dtype).itemsize for dtype in dtypes)


def parse_records(raw: np.ndarray, dtypes: Sequence) -> List[np.ndarray]:
    """Split row-major partition records (raw bytes) back into one
    array per column."""
    dtypes = [np.dtype(dtype) for dtype in dtypes]
    width = record_width(dtypes)
    count = len(raw) // width
    matrix = raw[: count * width].reshape(count, width)
    columns = []
    offset = 0
    for dtype in dtypes:
        field = matrix[:, offset : offset + dtype.itemsize].copy()
        columns.append(field.view(dtype).ravel())
        offset += dtype.itemsize
    return columns


def partition_chunk_rows(record_bytes: int, bank_bytes: int) -> int:
    """Rows per chunk of a partition pass: as many ``record_bytes``-byte
    records as one CMEM bank of ``bank_bytes`` holds (the DMAC loads a
    chunk's columns into one bank). ValueError when one record is
    wider than the bank."""
    rows = bank_bytes // record_bytes
    if rows < 1:
        raise ValueError(
            f"a {record_bytes} B record does not fit a {bank_bytes} B CMEM "
            f"bank; the hardware partitioner cannot move it"
        )
    return rows


def partition_wave_rows(fanout: int, capacity: int, width: int,
                        chunk_rows: int) -> int:
    """Rows per wave that fill ``fanout`` targets' ``capacity``-byte
    buffers half way on uniform keys, in whole chunks (at least one)."""
    rows = int(fanout * (capacity / width) / 2)
    return max(1, rows // chunk_rows) * chunk_rows


@lru_cache(maxsize=None)
def hash_spec(cores: int) -> PartitionSpec:
    """The hash split of a ``cores``-core launch: CRC bits 0.. over the
    largest power of two <= ``cores``, at most 32 (2 for a lone core)."""
    bits = min(5, max(1, cores.bit_length() - 1))
    return PartitionSpec(mode=PartitionMode.HASH, radix_bits=bits)


def _wave_plan(
    keys: np.ndarray, spec: PartitionSpec, layout: PartitionLayout,
    width: int, chunk_rows: int, wave_rows: int,
) -> List[Tuple[int, int]]:
    """Row ranges of the partition waves: ``wave_rows`` each, but a
    wave ends at an earlier chunk boundary when the next chunk would
    overflow some target's buffer (judged on the host by the engine's
    own CID math). A chunk fits one CMEM bank, smaller than every
    buffer, so each wave moves at least one chunk."""
    rows = len(keys)
    fanout = spec.fanout
    cids = compute_cids(keys, spec).astype(np.int64)
    waves = []
    lo = 0
    while lo < rows:
        hi = min(rows, lo + wave_rows)
        chunk_of = np.arange(hi - lo) // chunk_rows
        per_chunk = np.bincount(
            chunk_of * fanout + cids[lo:hi],
            minlength=(int(chunk_of[-1]) + 1) * fanout,
        ).reshape(-1, fanout)
        full = per_chunk.cumsum(axis=0).max(axis=1) > layout.capacity // width
        if full.any():
            hi = min(hi, lo + max(1, int(full.argmax())) * chunk_rows)
        waves.append((lo, hi))
        lo = hi
    return waves


def partition_columns(
    ctx: CoreContext,
    columns: Sequence[ColumnRef],
    rows: int,
    spec: PartitionSpec,
    buffer: Tuple[int, int, int],
    chunk_rows: int,
    wave_rows: int,
    consume: Callable,
):
    """Partition ``rows`` of ``columns`` (key column first) into the
    DMEMs of the launch's first ``spec.fanout`` cores, its targets, in
    waves. Every core of the launch runs this loop: cores past the
    targets return at once, and a launch of fewer cores raises
    ValueError. ``buffer`` is each target's ``(dmem_base, capacity,
    count_offset)``: a wave's records from ``dmem_base``, at most
    ``capacity`` bytes, their count a u32 at ``count_offset``.

    The first target drives the engine: it builds the pass's
    :class:`~repro.dms.partition.PartitionLayout`, pushes the
    ``HASH_CONFIG`` or ``RANGE_CONFIG`` descriptor for ``spec``, then
    per wave a ``DDR_TO_DMS`` (one per column) -> ``DMS_TO_DMS`` ->
    ``DMS_TO_DMEM`` chain per chunk of ``chunk_rows``, and polls its
    DMAD until the wave has landed. Every target then runs the
    generator ``consume(count)`` over the ``count`` records stored in
    its buffer; the driver collects the acks, rewinds the layout,
    zeroes the count words and releases the next wave. Waves span
    ``wave_rows`` rows, cut short at a chunk boundary where skewed keys
    would overflow a buffer. Kernel usage::

        yield from partition_columns(ctx, cols, rows, spec, buffer,
                                     chunk_rows, wave_rows, consume)
    """
    targets = ctx.cores[:spec.fanout]
    if len(targets) < spec.fanout:
        raise ValueError(f"a {spec.fanout}-way partition cannot run on a "
                         f"{len(ctx.cores)}-core launch")
    if ctx.core_id not in targets:
        return
    stored = ctx.dmem.view(buffer[2], 4, np.uint32)  # this core's count
    driver = targets[0]
    if ctx.core_id != driver:
        done = rows <= 0
        while not done:
            yield from ctx.mbox_receive()
            yield from consume(int(stored[0]))
            yield from ctx.mbox_send(driver, ("ack",))
            _src, (_tag, done) = yield from ctx.mbox_receive()
        return
    layout = PartitionLayout(targets, *buffer)
    config = (DescriptorType.RANGE_CONFIG if spec.mode is PartitionMode.RANGE
              else DescriptorType.HASH_CONFIG)
    ctx.push(Descriptor(dtype=config, partition=spec, partition_layout=layout))
    if rows <= 0:
        return
    widths = [ref_width(dtype) for _addr, dtype in columns]
    key_addr, key_width = columns[0][0], widths[0]
    keys = ctx.dpu.ddr.view(key_addr, rows * key_width, WIDTH_DTYPE[key_width])
    waves = _wave_plan(keys, spec, layout, sum(widths), chunk_rows, wave_rows)
    followers = targets[1:]
    scratchpads = ctx.dpu.scratchpads
    for wave, (lo, hi) in enumerate(waves, 1):
        for start in range(lo, hi, chunk_rows):
            count = min(chunk_rows, hi - start)
            for col, (addr, _dtype) in enumerate(columns):
                width = widths[col]
                ctx.push(
                    Descriptor(
                        dtype=DescriptorType.DDR_TO_DMS,
                        rows=count,
                        col_width=width,
                        ddr_addr=addr + start * width,
                        is_key_column=(col == 0),
                    )
                )
            ctx.push(Descriptor(dtype=DescriptorType.DMS_TO_DMS,
                                partition=spec))
            ctx.push(Descriptor(dtype=DescriptorType.DMS_TO_DMEM,
                                partition=spec))
        while not ctx.dmad.idle():
            yield from ctx.compute(200)
        for core in followers:
            yield from ctx.mbox_send(core, ("wave",))
        yield from consume(int(stored[0]))
        for _ in followers:
            yield from ctx.mbox_receive()
        layout.reset()
        for core in targets:
            scratchpads[core].view(layout.count_offset, 4, np.uint32)[0] = 0
        done = wave == len(waves)
        for core in followers:
            yield from ctx.mbox_send(core, ("next", done))
