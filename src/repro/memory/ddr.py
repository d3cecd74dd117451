"""Functional DDR memory plus its timing channel.

Two orthogonal pieces:

* :class:`DDRMemory` — a flat byte array holding *real data*. DMS
  transfers copy actual bytes in and out, so application results are
  bit-exact, not merely timed.
* :class:`DDRChannel` — the timing model: a FIFO bandwidth server at
  the channel's peak rate. DDR3-1600 on the 40 nm DPU gives 12.8 GB/s
  peak = 16 bytes per 800 MHz core cycle; the effective ~9-10 GB/s the
  paper measures emerges from AXI transaction granularity (<= 256 B
  per request, §3.1) and per-transaction overheads, not from a fudged
  peak number.
"""

from __future__ import annotations

import math
import mmap
from typing import Optional

import numpy as np

from ..faults import FaultInjector
from ..obs import NULL_TRACER
from ..sim import BandwidthServer, Engine, SimEvent, Timeout
from .address import AddressMap
from .ecc import SecdedEcc

__all__ = ["DDRMemory", "DDRChannel", "AXI_MAX_TRANSFER"]

AXI_MAX_TRANSFER = 256  # max bytes per AXI transaction (paper §3.1)

# A payload that is already a flat, contiguous byte array is written
# as it is; anything else is first viewed as one (``DDRMemory.write``).
_UINT8 = np.dtype(np.uint8)


class DDRMemory:
    """Byte-addressable DRAM contents backed by a numpy array.

    Accessors test the bounds inline and call
    :meth:`AddressMap.check_ddr_range` only to raise its error.

    The array lies over a private anonymous ``mmap``: zero-filled by
    the kernel, in 4 KB pages, so a DPU's resident memory is the pages
    its data touches. (``np.zeros`` of this size asks for transparent
    huge pages, so there a store's footprint rounds up to 2 MB pages
    and varies with where the mapping happens to be aligned.)
    """

    def __init__(self, address_map: AddressMap) -> None:
        self.address_map = address_map
        self.data = np.frombuffer(
            mmap.mmap(-1, address_map.ddr_capacity,
                      flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS),
            dtype=np.uint8)

    @property
    def capacity(self) -> int:
        return self.address_map.ddr_capacity

    def read(self, address: int, length: int) -> np.ndarray:
        """Return a *copy* of ``length`` bytes at ``address``."""
        end = address + length
        if length < 0 or address < 0 or end > self.address_map.ddr_capacity:
            self.address_map.check_ddr_range(address, length)
        return self.data[address:end].copy()

    def write(self, address: int, payload: np.ndarray) -> None:
        """Store ``payload`` bytes at ``address``."""
        if not (type(payload) is np.ndarray and payload.dtype is _UINT8
                and payload.ndim == 1 and payload.flags.c_contiguous):
            payload = np.ascontiguousarray(payload).view(np.uint8).ravel()
        end = address + payload.size
        if address < 0 or end > self.address_map.ddr_capacity:
            self.address_map.check_ddr_range(address, payload.size)
        self.data[address:end] = payload

    def view(self, address: int, length: int, dtype=np.uint8) -> np.ndarray:
        """A zero-copy typed view of DDR contents (for fast kernels).

        Mutating the view mutates memory; use for hot loops where the
        copy in :meth:`read` would dominate Python runtime.
        """
        end = address + length
        if length < 0 or address < 0 or end > self.address_map.ddr_capacity:
            self.address_map.check_ddr_range(address, length)
        return self.data[address:end].view(dtype)

    def read_u64(self, address: int) -> int:
        return int(self.view(address, 8, np.uint64)[0])

    def write_u64(self, address: int, value: int) -> None:
        self.view(address, 8, np.uint64)[0] = np.uint64(value & (2**64 - 1))

    def read_i64(self, address: int) -> int:
        return int(self.view(address, 8, np.int64)[0])

    def write_i64(self, address: int, value: int) -> None:
        self.view(address, 8, np.int64)[0] = np.int64(value)


class DDRChannel:
    """Timing model of one DDR channel behind the memory controller.

    ``request(nbytes)`` models one logical transfer: it is split into
    AXI transactions of at most :data:`AXI_MAX_TRANSFER` bytes, each
    paying a small fixed controller overhead, then queued FIFO on the
    channel. A ``row_miss_cycles`` surcharge is applied once per
    request to model opening a new DRAM page when a transfer starts in
    a different region (the paper's "small latency overhead in
    fetching non-contiguous DRAM pages", §3.4).
    """

    def __init__(
        self,
        engine: Engine,
        peak_bytes_per_cycle: float = 16.0,
        transaction_overhead_cycles: float = 2.0,
        row_miss_cycles: float = 22.0,
        row_size: int = 4096,
        num_banks: int = 8,
        write_row_miss_factor: float = 0.25,
        faults: Optional[FaultInjector] = None,
        ecc_scrub_cycles: float = 6.0,
    ) -> None:
        self.engine = engine
        self.ecc = SecdedEcc(faults, scrub_cycles=ecc_scrub_cycles)
        self.server = BandwidthServer(
            engine, peak_bytes_per_cycle, overhead_cycles=0.0, name="ddr"
        )
        self.transaction_overhead_cycles = transaction_overhead_cycles
        self.row_miss_cycles = row_miss_cycles
        self.row_size = row_size
        self.num_banks = num_banks
        self.write_row_miss_factor = write_row_miss_factor
        # Open-row register per bank: DDR3 keeps one row open per bank,
        # so a handful of interleaved sequential streams (the partition
        # engine's column loads) each keep their own row open.
        self._open_rows = [-1] * num_banks
        self.row_misses = 0
        # The injector's plan is frozen, so whether ECC checks ever run
        # is a constant for the channel's lifetime.
        self._ecc_active = self.ecc.active
        # Observability hook; DPU.enable_tracing swaps in a live tracer.
        self.trace = NULL_TRACER

    @property
    def peak_bytes_per_cycle(self) -> float:
        return self.server.bytes_per_cycle

    def request(
        self,
        address: int,
        nbytes: int,
        extra_overhead_cycles: float = 0.0,
        is_write: bool = False,
    ) -> SimEvent:
        """Schedule a transfer; returns an event for its completion.

        ``extra_overhead_cycles`` lets callers charge controller-side
        work (e.g. DMAC descriptor decode) that occupies the channel.
        """
        now = self.engine.now
        return Timeout(self.engine, self.book(
            address, nbytes, extra_overhead_cycles, is_write) - now)

    def book(
        self,
        address: int,
        nbytes: int,
        extra_overhead_cycles: float = 0.0,
        is_write: bool = False,
    ) -> float:
        """Book a transfer as :meth:`request` does; return the time it
        completes instead of an event."""
        if nbytes <= 0:
            return self.engine.now
        overhead = float(extra_overhead_cycles)
        if self._ecc_active:
            # SECDED: correctable flips charge a scrub; a double flip
            # in one codeword raises MachineCheckError to the caller.
            overhead += self.ecc.check(address, nbytes)
        # Writes are posted: the controller's write buffer coalesces
        # and reorders them per bank, hiding most of the activate
        # latency scattered write streams would otherwise pay.
        miss_cost = self.row_miss_cycles * (
            self.write_row_miss_factor if is_write else 1.0
        )
        row_size = self.row_size
        first_row = address // row_size
        last_row = (address + nbytes - 1) // row_size
        open_rows = self._open_rows
        num_banks = self.num_banks
        if first_row == last_row:
            # Fast path: the transfer stays inside one DRAM row (every
            # AXI-sized and most tile-sized requests).
            row = first_row
            bank = (row ^ (row >> 3) ^ (row >> 6)) % num_banks
            if open_rows[bank] != row:
                overhead += miss_cost
                self.row_misses += 1
                open_rows[bank] = row
        else:
            for row in range(first_row, last_row + 1):
                # XOR-fold the row bits into the bank index, as real
                # controllers do, so power-of-two strided streams don't
                # all land in one bank.
                bank = (row ^ (row >> 3) ^ (row >> 6)) % num_banks
                if open_rows[bank] != row:
                    overhead += miss_cost
                    self.row_misses += 1
                    open_rows[bank] = row
        transactions = -(-nbytes // AXI_MAX_TRANSFER)
        overhead += transactions * self.transaction_overhead_cycles
        server = self.server
        rate = server.bytes_per_cycle
        total = nbytes + int(overhead * rate)
        # BandwidthServer.book, in place: served FIFO after the last
        # booked transfer.
        service = server.overhead_cycles + math.ceil(total / rate)
        now = self.engine.now
        free_at = server._free_at
        finish = (now if now > free_at else free_at) + service
        server._free_at = finish
        server.busy_cycles += service
        server.bytes_served += total
        server.transfers_served += 1
        if self.trace.enabled:
            # Queue backlog (cycles until the channel frees) and
            # cumulative bytes, sampled at each request: the DDR
            # bandwidth counter track in the Perfetto view.
            self.trace.counter(
                "ddr.channel", unit="ddr",
                backlog_cycles=max(0.0, self.server._free_at
                                   - self.engine.now),
                bytes_served=float(self.server.bytes_served),
            )
        return finish

    def utilization(self) -> float:
        return self.server.utilization()

    @property
    def bytes_served(self) -> int:
        return self.server.bytes_served
