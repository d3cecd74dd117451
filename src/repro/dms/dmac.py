"""DMAC: the central DMA controller of the Data Movement System.

The DMAC (paper §3.1-3.2) owns the DDR interface and the internal
SRAMs — three 8 KB column memories (CMEM), double-buffered 1 KB CRC
and 256 B CID memories, and four 4 KB bit-vector banks — and runs the
three-stage partition pipeline:

1. **load**: DDR -> CMEM (a chunk's key and payload columns),
2. **hash**: CRC32/radix/range over the key column -> CID memory,
3. **store**: scatter the chunk's rows into target dpCores' DMEMs
   through the per-macro DMAX crossbars.

Chunks flow through the pipeline concurrently: the CMEM banks admit
up to three chunks in flight and the CRC/CID double-buffers two, so
loading chunk *k+1* overlaps hashing chunk *k* and storing chunk
*k-1* (Figure 10). The DDR load stage is the designed bottleneck,
which is how the engine sustains ~9.3 GB/s 32-way partitioning
(Figure 13).

The first-silicon RTL bug in the gather path (§3.4) is modelled: if
more than one dpCore has a gather in flight and the config enables
``rtl_gather_bug``, the bit-vector count FIFO overflows and the DMAD
units stall — surfaced here as a :class:`DmsHardwareError` so
software must apply the paper's serialize-gathers workaround.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import DPUConfig
from ..core.crc32 import crc32_column
from ..memory.ddr import DDRChannel, DDRMemory
from ..memory.dmem import Scratchpad
from ..obs import NULL_TRACER, CounterRegistry
from ..sim import Engine, Resource, SimEvent
from .descriptor import (
    Descriptor,
    DescriptorError,
    DescriptorType,
    PartitionMode,
    PartitionSpec,
)
from .dmax import Dmax
from .events import EventFile
from .partition import PartitionLayout, compute_cids

__all__ = ["Dmac", "DmsHardwareError", "PartitionChunk"]

_WIDTH_DTYPE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

# Counter paths of each SRAM slot pool: occupancy and queue high-water
# marks, stall cycles and stalls.
_SLOT_PATHS = {
    pool: tuple(f"{pool}.{leaf}" for leaf in
                ("occupancy_peak", "queue_peak", "stall_cycles", "stalls"))
    for pool in ("dmac.cmem", "dmac.crc")
}


class DmsHardwareError(Exception):
    """A modelled hardware failure (e.g. the gather FIFO overflow).

    Carries structured context — the failing ``site``, simulation
    ``sim_time``, ``retry_count`` of replays already burned, and an
    ``occupancy`` snapshot of the relevant queues — so handlers can
    decide to retry, shed, or serialize without parsing messages.
    """

    def __init__(
        self,
        message: str,
        *,
        site: str = "",
        sim_time: Optional[float] = None,
        retry_count: int = 0,
        occupancy: Optional[Dict] = None,
    ) -> None:
        self.site = site
        self.sim_time = sim_time
        self.retry_count = retry_count
        self.occupancy = dict(occupancy) if occupancy else {}
        detail = []
        if site:
            detail.append(f"site={site}")
        if sim_time is not None:
            detail.append(f"t={sim_time:.0f}")
        if retry_count:
            detail.append(f"retries={retry_count}")
        if detail:
            message = f"{message} [{' '.join(detail)}]"
        super().__init__(message)


class PartitionChunk:
    """One chunk of rows moving through the partition pipeline."""

    __slots__ = ("key", "key_width", "columns", "load_events", "hashes",
                 "cids", "hash_done", "bank_acquired", "crc_acquired", "rows")

    def __init__(self, engine: Engine) -> None:
        self.key: Optional[np.ndarray] = None
        self.key_width: int = 0
        self.columns: List[Tuple[np.ndarray, int]] = []  # (values, width)
        self.load_events: List = []
        self.hashes: Optional[np.ndarray] = None
        self.cids: Optional[np.ndarray] = None
        self.hash_done = SimEvent(engine)
        self.bank_acquired = False
        self.crc_acquired = False
        self.rows: int = 0

    @property
    def record_width(self) -> int:
        width = self.key_width if self.key is not None else 0
        return width + sum(col_width for _values, col_width in self.columns)

    def total_bytes(self) -> int:
        return self.rows * self.record_width


class Dmac:
    """The central DMA controller."""

    # The owning DPU's counter store, handed over when it wires its units.
    counters: CounterRegistry

    def __init__(
        self,
        engine: Engine,
        config: DPUConfig,
        ddr_memory: DDRMemory,
        ddr_channel: DDRChannel,
        scratchpads: Dict[int, Scratchpad],
        event_files: Dict[int, EventFile],
        dmaxes: List[Dmax],
    ) -> None:
        self.engine = engine
        self.config = config
        self.ddr_memory = ddr_memory
        self.ddr_channel = ddr_channel
        self.scratchpads = scratchpads
        self.event_files = event_files
        self.dmaxes = dmaxes
        # Observability hook; DPU.enable_tracing swaps in a live tracer.
        self.trace = NULL_TRACER
        # Internal SRAM occupancy: one CMEM bank per chunk in flight,
        # one CRC/CID double-buffer slot from hash until store retires.
        self.cmem_slots = Resource(engine, config.cmem_banks)
        self.crc_slots = Resource(engine, config.crc_banks)
        # Partition engine configuration (HASH_CONFIG/RANGE_CONFIG).
        self.partition_spec: Optional[PartitionSpec] = None
        self.partition_layout: Optional[PartitionLayout] = None
        self._open_chunk: Optional[PartitionChunk] = None
        self._last_hashed: Optional[PartitionChunk] = None
        # Per-core gather bit-vector registers (loaded via DMEM->DMS).
        self._bv_registers: Dict[int, np.ndarray] = {}
        self._active_gathers = 0
        # Config-derived constants hoisted off the per-descriptor path.
        self._decode_cycles = config.dms_dmac_decode_cycles
        self._macro_of = tuple(
            config.macro_of(core) for core in range(config.num_cores)
        )
        # Each core's crossbar.
        self._core_dmax = tuple(dmaxes[macro] for macro in self._macro_of)

    # -- configuration ---------------------------------------------------

    def configure_partition(self, descriptor: Descriptor) -> None:
        """Apply a HASH_CONFIG / RANGE_CONFIG control descriptor."""
        if descriptor.partition is None:
            raise DescriptorError("partition config descriptor needs a spec")
        self.partition_spec = descriptor.partition
        if descriptor.partition_layout is not None:
            self.partition_layout = descriptor.partition_layout
            self.partition_layout.reset()

    # -- dispatch-time bookkeeping (called in DMAD program order) --------

    def prepare(self, descriptor: Descriptor, core_id: int):
        """Attach the descriptor to pipeline state; returns a context
        object consumed by :meth:`start`. Must be called in DMAD
        dispatch order so chunk membership matches program order. A
        DDR <-> DMEM descriptor has none (``(None, None, None)``), so
        the DMAD skips this call for one."""
        dtype = descriptor.dtype
        if dtype is DescriptorType.DDR_TO_DMS:
            if descriptor.is_key_column or self._open_chunk is None:
                self._open_chunk = PartitionChunk(self.engine)
            chunk = self._open_chunk
            load_event = SimEvent(self.engine)
            chunk.load_events.append(load_event)
            return ("load", chunk, load_event)
        if dtype is DescriptorType.DMS_TO_DMS:
            if self._open_chunk is None:
                raise DescriptorError("hash descriptor with no loaded chunk")
            chunk = self._open_chunk
            self._last_hashed = chunk
            return ("hash", chunk, list(chunk.load_events))
        if dtype is DescriptorType.DMS_TO_DMEM:
            if self._open_chunk is None:
                raise DescriptorError("store descriptor with no chunk in flight")
            chunk = self._open_chunk
            self._open_chunk = None
            return ("store", chunk, list(chunk.load_events))
        if dtype is DescriptorType.DMS_TO_DDR:
            return ("drain", self._last_hashed, None)
        if dtype is DescriptorType.DMEM_TO_DMS:
            # The BV register must be visible to any gather dispatched
            # later on the same channel: snapshot it in program order.
            if descriptor.internal_mem != "bv":
                raise DescriptorError("DMEM->DMS carries RID/BV data (Table 1)")
            nbytes = descriptor.transfer_bytes
            if nbytes > self.config.bv_bank_bytes:
                raise DescriptorError(
                    f"bit-vector of {nbytes} B exceeds BV bank "
                    f"({self.config.bv_bank_bytes} B)"
                )
            payload = self.scratchpads[core_id].read(
                descriptor.dmem_addr, nbytes
            )
            self._bv_registers[core_id] = payload.copy()
            return ("bv", None, None)
        return (None, None, None)

    # -- execution -----------------------------------------------------------
    #
    # A data descriptor runs as a chain of stages, each a heap callback
    # taking its DescriptorRun (see repro.dms.dmad). A stage books the
    # transfer it issues and hands the next stage to ``run.at(finish,
    # stage)``, at the heap key a Timeout for that transfer would take,
    # or waits with ``run.wait(event, stage)``; the last stage calls
    # ``run.done()``. Stages therefore interleave with same-instant
    # processes and timers exactly as a process waiting on those
    # timeouts and events would.

    def start(self, run) -> None:
        """First stage of ``run``'s data descriptor."""
        dtype = run.descriptor.dtype
        if dtype is DescriptorType.DDR_TO_DMEM:
            self._ddr_to_dmem(run)
        elif dtype is DescriptorType.DMEM_TO_DDR:
            self._dmem_to_ddr(run)
        elif dtype is DescriptorType.DDR_TO_DMS:
            self._load(run)
        elif dtype is DescriptorType.DMS_TO_DMS:
            self._hash(run)
        elif dtype is DescriptorType.DMS_TO_DMEM:
            self._store(run)
        elif dtype is DescriptorType.DMEM_TO_DMS:
            # The register contents were snapshotted at dispatch, in
            # program order; charge the crossbar time of the RID/BV load.
            run.at(self._core_dmax[run.core].book(run.descriptor.transfer_bytes),
                   self._counted)
        elif dtype is DescriptorType.DMS_TO_DDR:
            self._drain(run)
        else:
            raise DescriptorError(f"{dtype.name} is not a data descriptor")

    def _counted(self, run) -> None:
        self.counters.values["dms.descriptors"] += 1
        run.done()

    # -- DDR <-> DMEM streaming -------------------------------------------

    def _ddr_to_dmem(self, run) -> None:
        descriptor = run.descriptor
        if descriptor.rle:
            raise DescriptorError("RLE decode is not modelled")
        target = descriptor.dmem_core
        run.dmem = self.scratchpads[run.core if target is None else target]
        width = descriptor.col_width
        if descriptor.gather_src:
            run.gather_began = self.engine.now
            self._active_gathers += 1
            if self._active_gathers > 1 and self.config.rtl_gather_bug:
                active = self._active_gathers
                self._active_gathers -= 1
                raise DmsHardwareError(
                    "gather bit-vector count FIFO overflow: more than one "
                    "dpCore has a gather in flight on first-silicon "
                    "hardware; apply the software workaround (serialize "
                    "gathers) or disable rtl_gather_bug (paper §3.4, "
                    "Figure 12)",
                    site="dmac.gather",
                    sim_time=self.engine.now,
                    occupancy={"active_gathers": active},
                )
            run.gathering = True
            run.after(0, self._gather)
        elif descriptor.ddr_stride is not None and descriptor.ddr_stride != width:
            # Strided reads touch a DRAM burst per element.
            run.at(self.ddr_channel.book(
                descriptor.ddr_addr, descriptor.rows * max(width, 16),
                extra_overhead_cycles=self._decode_cycles,
            ), self._strided_read)
        else:
            run.at(self.ddr_channel.book(
                descriptor.ddr_addr, descriptor.transfer_bytes,
                extra_overhead_cycles=self._decode_cycles,
            ), self._read)

    def _read(self, run) -> None:
        descriptor = run.descriptor
        nbytes = descriptor.transfer_bytes
        run.data = self.ddr_memory.read(descriptor.ddr_addr, nbytes)
        # A DDR -> DMEM descriptor moves at least one row, so this is
        # the nonzero booking Dmax.book would make.
        run.at(self._core_dmax[run.core].server.book(
            nbytes if nbytes < 256 else 256), self._landed)

    def _strided_read(self, run) -> None:
        descriptor = run.descriptor
        width = descriptor.col_width
        stride = descriptor.ddr_stride
        span = (descriptor.rows - 1) * stride + width
        raw = self.ddr_memory.view(descriptor.ddr_addr, span)
        offsets = np.arange(descriptor.rows) * stride
        element = np.arange(width)
        run.data = raw[offsets[:, None] + element[None, :]].ravel()
        run.at(self._core_dmax[run.core].book(min(len(run.data), 256)),
               self._landed)

    def _gather(self, run) -> None:
        descriptor = run.descriptor
        indices = run.rows = self._gather_indices(descriptor, run.core)
        touched = len(indices) * descriptor.col_width + len(indices) * int(
            self.config.dms_gather_row_penalty_bytes
        )
        run.at(self.ddr_channel.book(
            descriptor.ddr_addr, touched,
            extra_overhead_cycles=self._decode_cycles,
        ), self._gather_read)

    def _gather_read(self, run) -> None:
        descriptor = run.descriptor
        width = descriptor.col_width
        source = self.ddr_memory.view(
            descriptor.ddr_addr, descriptor.rows * width, _WIDTH_DTYPE[width]
        )
        run.data = source[run.rows]
        run.at(self._core_dmax[run.core].book(min(len(run.rows) * width, 256)),
               self._landed)

    def _landed(self, run) -> None:
        """The DDR -> DMEM payload crossed the DMAX: write it."""
        descriptor = run.descriptor
        run.dmem.write(descriptor.dmem_addr, run.data)
        if run.gathering:
            run.gathering = False
            self._active_gathers -= 1
            moved = len(run.rows) * descriptor.col_width
            if self.trace.enabled:
                self.trace.complete_async(
                    "dms.gather", "dmac", run.gather_began, core=run.core,
                    rows=int(len(run.rows)), bytes=int(moved),
                    cycles=self.engine.now - run.gather_began,
                )
        else:
            moved = descriptor.transfer_bytes
        counts = self.counters.values
        counts["dms.bytes_read"] += moved
        counts["dms.descriptors"] += 1
        run.done()

    def _dmem_to_ddr(self, run) -> None:
        descriptor = run.descriptor
        if descriptor.rle:
            raise DescriptorError("RLE encode is not modelled")
        target = descriptor.dmem_core
        dmem = self.scratchpads[run.core if target is None else target]
        width = descriptor.col_width
        if descriptor.scatter_dst:
            indices = run.rows = self._gather_indices(descriptor, run.core)
            run.data = dmem.view(
                descriptor.dmem_addr, len(indices) * width, _WIDTH_DTYPE[width]
            )
            nbytes = len(indices) * width
        else:
            nbytes = descriptor.transfer_bytes
            run.data = dmem.read(descriptor.dmem_addr, nbytes)
        run.at(self._core_dmax[run.core].book(min(nbytes, 256)), self._write)

    def _write(self, run) -> None:
        """The DMEM -> DDR payload crossed the DMAX: issue the write."""
        descriptor = run.descriptor
        if run.rows is not None:
            indices = run.rows
            nbytes = len(indices) * descriptor.col_width + len(indices) * int(
                self.config.dms_gather_row_penalty_bytes
            )
        else:
            nbytes = descriptor.transfer_bytes
        run.at(self.ddr_channel.book(
            descriptor.ddr_addr, nbytes,
            extra_overhead_cycles=self._decode_cycles, is_write=True,
        ), self._written)

    def _written(self, run) -> None:
        descriptor = run.descriptor
        if run.rows is not None:
            width = descriptor.col_width
            target = self.ddr_memory.view(
                descriptor.ddr_addr, descriptor.rows * width,
                _WIDTH_DTYPE[width],
            )
            target[run.rows] = run.data
            moved = len(run.rows) * width
        else:
            self.ddr_memory.write(descriptor.ddr_addr, run.data)
            moved = descriptor.transfer_bytes
        counts = self.counters.values
        counts["dms.bytes_written"] += moved
        counts["dms.descriptors"] += 1
        run.done()

    def _gather_indices(self, descriptor: Descriptor, core_id: int) -> np.ndarray:
        register = self._bv_registers.get(core_id)
        if register is None:
            raise DescriptorError(
                f"core {core_id} gathered without loading a bit-vector "
                "(issue a DMEM->DMS descriptor first)"
            )
        bits = np.unpackbits(register.view(np.uint8), bitorder="little")
        bits = bits[: descriptor.rows]
        return np.nonzero(bits)[0]

    # -- internal-memory descriptors -----------------------------------------

    def _acquire_slot(self, run, slots: Resource, paths: Tuple[str, ...],
                      then) -> None:
        """Acquire an SRAM slot for ``run``, then run stage ``then``,
        recording stall cycles and occupancy under ``paths`` (see
        ``_SLOT_PATHS``).

        Counters are emitted only when the acquirer actually waited, so
        uncontended runs keep an unchanged counter snapshot."""
        began = self.engine.now
        counters = self.counters
        occupancy, queue, stall_cycles, stalls = paths
        counters.peak(occupancy, min(slots.in_use + 1, slots.capacity))
        if slots.in_use >= slots.capacity:
            counters.peak(queue, slots.queue_depth + 1)

        def acquired(run) -> None:
            waited = self.engine.now - began
            if waited > 0:
                counters.add(stall_cycles, waited)
                counters.add(stalls)
            then(run)

        run.wait(slots.acquire(), acquired)

    def _load(self, run) -> None:
        """Load one column of a partition chunk into a CMEM bank."""
        chunk = run.prep[1]
        if chunk.bank_acquired:
            self._load_column(run)
            return
        chunk.bank_acquired = True
        self._acquire_slot(run, self.cmem_slots, _SLOT_PATHS["dmac.cmem"],
                           self._load_column)

    def _load_column(self, run) -> None:
        descriptor = run.descriptor
        chunk = run.prep[1]
        nbytes = descriptor.rows * descriptor.col_width
        if chunk.total_bytes() + nbytes > self.config.cmem_bank_bytes:
            raise DescriptorError(
                f"chunk exceeds CMEM bank: {chunk.total_bytes() + nbytes} B "
                f"> {self.config.cmem_bank_bytes} B; use smaller chunks"
            )
        run.at(self.ddr_channel.book(
            descriptor.ddr_addr, nbytes,
            extra_overhead_cycles=self._decode_cycles,
        ), self._column_loaded)

    def _column_loaded(self, run) -> None:
        descriptor = run.descriptor
        _kind, chunk, load_event = run.prep
        width = descriptor.col_width
        nbytes = descriptor.rows * width
        values = self.ddr_memory.view(
            descriptor.ddr_addr, nbytes, _WIDTH_DTYPE[width]
        ).copy()
        if descriptor.is_key_column:
            chunk.key = values
            chunk.key_width = width
            chunk.rows = descriptor.rows
        else:
            chunk.columns.append((values, width))
            chunk.rows = max(chunk.rows, descriptor.rows)
        counts = self.counters.values
        counts["dms.bytes_read"] += nbytes
        counts["dms.descriptors"] += 1
        load_event.succeed()
        run.done()

    def _hash(self, run) -> None:
        """Hash/range stage: key column -> CRC memory -> CID memory."""
        chunk = run.prep[1]
        run.spec = run.descriptor.partition or self.partition_spec
        if run.spec is None:
            raise DescriptorError("hash descriptor without a partition spec")
        if chunk.crc_acquired:
            self._hash_loaded(run)
            return
        chunk.crc_acquired = True
        self._acquire_slot(run, self.crc_slots, _SLOT_PATHS["dmac.crc"],
                           self._hash_loaded)

    def _hash_loaded(self, run) -> None:
        run.wait(self.engine.all_of(run.prep[2]), self._hash_keys)

    def _hash_keys(self, run) -> None:
        chunk = run.prep[1]
        if chunk.key is None:
            raise DescriptorError("partition chunk has no key column")
        hash_bytes = chunk.rows * chunk.key_width
        run.after(-(-hash_bytes // self.config.dms_hash_bytes_per_cycle),
                  self._hashed)

    def _hashed(self, run) -> None:
        chunk = run.prep[1]
        spec = run.spec
        if spec.mode is PartitionMode.HASH:
            chunk.hashes = crc32_column(chunk.key)
            window = chunk.hashes
            if spec.radix_shift:
                window = window >> np.uint32(spec.radix_shift)
            chunk.cids = (window & np.uint32(spec.fanout - 1)).astype(
                np.uint16
            )
        else:
            chunk.cids = compute_cids(chunk.key, spec)
        self.counters.values["dms.descriptors"] += 1
        chunk.hash_done.succeed()
        run.done()

    def _store(self, run) -> None:
        """Store stage: scatter chunk rows into target DMEMs by CID."""
        run.spec = run.descriptor.partition_layout or self.partition_layout
        if run.spec is None:
            raise DescriptorError("partition store without an output layout")
        run.wait(self.engine.all_of(run.prep[2]), self._store_loaded)

    def _store_loaded(self, run) -> None:
        run.wait(run.prep[1].hash_done, self._store_hashed)

    def _store_hashed(self, run) -> None:
        chunk = run.prep[1]
        layout = run.spec
        assert chunk.cids is not None
        records = self._build_records(chunk)
        # Scatter rows grouped by target core; DMAX transfers to the
        # four macros proceed in parallel.
        macro_bytes: Dict[int, int] = {}
        order = np.argsort(chunk.cids, kind="stable")
        sorted_cids = chunk.cids[order]
        boundaries = np.searchsorted(
            sorted_cids, np.arange(len(layout.target_cores) + 1)
        )
        writes = run.data = []
        for slot, target in enumerate(layout.target_cores):
            start, stop = boundaries[slot], boundaries[slot + 1]
            if start == stop:
                continue
            rows = records[order[start:stop]]
            nbytes = rows.size
            offset = layout.advance(target, nbytes)
            writes.append((target, offset, rows))
            macro = self._macro_of[target]
            macro_bytes[macro] = macro_bytes.get(macro, 0) + nbytes
        transfers = [
            self.dmaxes[macro].transfer(nbytes)
            for macro, nbytes in sorted(macro_bytes.items())
        ]
        if transfers:
            run.wait(self.engine.all_of(transfers), self._stored)
        else:
            self._stored(run)

    def _stored(self, run) -> None:
        chunk = run.prep[1]
        layout = run.spec
        record_width = chunk.record_width
        touched_cores = set()
        for target, offset, rows in run.data:
            self.scratchpads[target].write(offset, rows.ravel())
            touched_cores.add(target)
        # Publish running row counts and notify consumers.
        for target in layout.target_cores:
            count = layout.rows_written(target, record_width)
            self.scratchpads[target].view(layout.count_offset, 4, np.uint32)[0] = (
                count
            )
            if layout.target_notify_event is not None and target in touched_cores:
                self.event_files[target].set(layout.target_notify_event)
        counts = self.counters.values
        counts["dms.bytes_partitioned"] += chunk.total_bytes()
        counts["dms.descriptors"] += 1
        # Retire the chunk: free its CMEM bank and CRC/CID buffers.
        if chunk.bank_acquired:
            self.cmem_slots.release()
        if chunk.crc_acquired:
            self.crc_slots.release()
        run.done()

    def _build_records(self, chunk: PartitionChunk) -> np.ndarray:
        """Row-major (rows x record_width) byte matrix of the chunk."""
        parts = []
        if chunk.key is not None:
            parts.append(chunk.key.view(np.uint8).reshape(chunk.rows, -1))
        for values, _width in chunk.columns:
            parts.append(values.view(np.uint8).reshape(chunk.rows, -1))
        return np.hstack(parts)

    def _drain(self, run) -> None:
        """Drain CRC or CID memory to DDR (Table 1's last row)."""
        chunk = run.prep[1]
        if chunk is None:
            raise DescriptorError("no hashed chunk to drain to DDR")
        run.wait(chunk.hash_done, self._drain_hashed)

    def _drain_hashed(self, run) -> None:
        descriptor = run.descriptor
        chunk = run.prep[1]
        if descriptor.internal_mem == "crc":
            if chunk.hashes is None:
                raise DescriptorError("chunk has no CRC column (non-hash mode)")
            payload = chunk.hashes.astype("<u4")
        elif descriptor.internal_mem == "cid":
            payload = chunk.cids.astype(np.uint8)
        else:
            raise DescriptorError(
                f"DMS->DDR drains crc or cid memory, not {descriptor.internal_mem}"
            )
        raw = run.data = payload.view(np.uint8).ravel()
        run.at(self.ddr_channel.book(
            descriptor.ddr_addr,
            len(raw),
            extra_overhead_cycles=self.config.dms_dmac_decode_cycles,
            is_write=True,
        ), self._drained)

    def _drained(self, run) -> None:
        self.ddr_memory.write(run.descriptor.ddr_addr, run.data)
        counts = self.counters.values
        counts["dms.bytes_written"] += len(run.data)
        counts["dms.descriptors"] += 1
        run.done()
