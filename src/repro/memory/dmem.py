"""Per-dpCore DMEM scratchpad.

Each dpCore owns 32 KB of software-managed SRAM in lieu of a
hardware-managed data cache (paper §2.1). Access is single-cycle from
the core; the DMS writes into it directly, making transferred data
"immediately available for consumption" (§2.1). Like
:class:`repro.memory.ddr.DDRMemory`, the scratchpad holds real bytes,
over the same lazily faulted pages (:func:`~repro.memory.ddr.zeroed_pages`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from .address import DMEM_SIZE
from .ddr import zeroed_pages

__all__ = ["Scratchpad"]

# A payload that is already a flat, contiguous byte array is written
# as it is; anything else is first viewed as one (``write``).
_UINT8 = np.dtype(np.uint8)


def _check_size(size: int) -> None:
    if size <= 0:
        raise ValueError(f"scratchpad size must be positive: {size}")


class Scratchpad:
    """32 KB of byte-addressable SRAM local to one dpCore.

    ``data`` holds host memory only for the pages written to it. A
    standalone scratchpad maps its own pages; a DPU's are ``size``-byte
    views of one mapping (:meth:`bank`).
    """

    def __init__(self, core_id: int, size: int = DMEM_SIZE) -> None:
        _check_size(size)
        self._attach(core_id, zeroed_pages(size))

    @classmethod
    def bank(cls, core_ids: Sequence[int],
             size: int) -> Dict[int, "Scratchpad"]:
        """One ``size``-byte scratchpad per core, each a view of one
        mapping: one per DPU, not one per core, so 512 DPUs take 512
        mappings, not 16,384 (docs/PERFORMANCE.md)."""
        _check_size(size)
        pages = zeroed_pages(len(core_ids) * size)
        bank = {}
        for index, core_id in enumerate(core_ids):
            pad = bank[core_id] = cls.__new__(cls)
            pad._attach(core_id, pages[index * size:(index + 1) * size])
        return bank

    def _attach(self, core_id: int, data: np.ndarray) -> None:
        self.core_id = core_id
        self.size = data.size
        self.data = data
        self.peak_offset = 0  # high-water mark of bytes touched by writes
        self.bytes_written = 0
        self._watermarks: List[List] = []  # [threshold, fired, callback]

    def add_watermark(
        self, fraction: float, callback: Callable[["Scratchpad"], None]
    ) -> None:
        """Call ``callback(pad)`` when the write high-water mark first
        crosses ``fraction`` of capacity. Watermarks on a scratchpad
        are one-shot per crossing: the mark stays fired because DMEM
        contents are not reclaimed until :meth:`fill` resets them."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"watermark fraction must be in (0, 1]: {fraction}")
        self._watermarks.append([int(fraction * self.size), False, callback])

    def stats(self) -> dict:
        """Occupancy snapshot for overload diagnosis."""
        return {
            "core_id": self.core_id,
            "size": self.size,
            "peak_offset": self.peak_offset,
            "bytes_written": self.bytes_written,
        }

    def _check(self, offset: int, length: int) -> None:
        # Hot paths test the bounds inline and call this only to raise.
        if length < 0:
            raise ValueError(f"negative access length {length}")
        if offset < 0 or offset + length > self.size:
            raise IndexError(
                f"DMEM access [{offset:#x}, {offset + length:#x}) outside "
                f"0..{self.size:#x} on core {self.core_id}"
            )

    def read(self, offset: int, length: int) -> np.ndarray:
        """Copy ``length`` bytes starting at ``offset``."""
        self._check(offset, length)
        return self.data[offset : offset + length].copy()

    def write(self, offset: int, payload: np.ndarray) -> None:
        """Store ``payload`` bytes at ``offset``."""
        if not (type(payload) is np.ndarray and payload.dtype is _UINT8
                and payload.ndim == 1 and payload.flags.c_contiguous):
            payload = np.ascontiguousarray(payload).view(np.uint8).ravel()
        self.land(offset, payload)

    def land(self, offset: int, payload: np.ndarray) -> None:
        """Store ``payload``, a flat contiguous ``uint8`` array (what a
        DMS read lands), at ``offset``: :meth:`write` without turning
        other payloads into one."""
        length = payload.size
        end = offset + length
        if offset < 0 or end > self.size:
            self._check(offset, length)
        self.data[offset:end] = payload
        self.bytes_written += length
        if end > self.peak_offset:
            self.peak_offset = end
            for mark in self._watermarks:
                if not mark[1] and end >= mark[0]:
                    mark[1] = True
                    mark[2](self)

    def view(self, offset: int, length: int, dtype=np.uint8) -> np.ndarray:
        """Zero-copy typed view (mutations are visible to hardware)."""
        end = offset + length
        if length < 0 or offset < 0 or end > self.size:
            self._check(offset, length)
        return self.data[offset:end].view(dtype)

    def read_u64(self, offset: int) -> int:
        return int(self.view(offset, 8, np.uint64)[0])

    def write_u64(self, offset: int, value: int) -> None:
        self.view(offset, 8, np.uint64)[0] = np.uint64(value & (2**64 - 1))

    def read_i64(self, offset: int) -> int:
        return int(self.view(offset, 8, np.int64)[0])

    def write_i64(self, offset: int, value: int) -> None:
        self.view(offset, 8, np.int64)[0] = np.int64(value)

    def fill(self, value: int = 0) -> None:
        """Blank the scratchpad (used between kernel launches)."""
        self.data[:] = np.uint8(value & 0xFF)
        self.peak_offset = 0
        for mark in self._watermarks:
            mark[1] = False
