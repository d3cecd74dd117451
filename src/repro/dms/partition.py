"""The DMAC hash/range partitioning engine (paper §3.1-3.2).

Given a key column staged in column memory, the engine produces a
dpCore ID (CID) per row by one of three schemes:

* **hash-radix** — CRC32 each key, inspect ``radix_bits`` of the hash;
* **radix** — inspect ``radix_bits`` of the raw key;
* **range** — match each key against up to 32 pre-programmed ranges.

This module is the *functional* half (pure numpy on columns); the
timing half lives in :mod:`repro.dms.dmac`. Keeping the math separate
lets the SQL engine's software partitioner reuse exactly the same CID
computation, which is what makes mixed hardware/software partitioning
rounds compose correctly (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.crc32 import crc32_column
from .descriptor import DescriptorError, PartitionMode, PartitionSpec

__all__ = ["compute_cids", "PartitionLayout"]


def compute_cids(keys: np.ndarray, spec: PartitionSpec) -> np.ndarray:
    """dpCore ID per key, per the engine's partitioning scheme."""
    if spec.mode is PartitionMode.NONE:
        return np.zeros(len(keys), dtype=np.uint16)
    if spec.mode is PartitionMode.HASH:
        hashes = crc32_column(keys)
        if spec.key_from_crc is False:
            raise DescriptorError("hash mode always inspects the CRC column")
        if spec.radix_shift:
            hashes = hashes >> np.uint32(spec.radix_shift)
        return (hashes & np.uint32(spec.fanout - 1)).astype(np.uint16)
    if spec.mode is PartitionMode.RADIX:
        raw = keys.astype(np.uint64, copy=False)
        if spec.radix_shift:
            raw = raw >> np.uint64(spec.radix_shift)
        return (raw & np.uint64(spec.fanout - 1)).astype(np.uint16)
    # RANGE: bounds are ascending upper bounds; keys above the last
    # bound clamp into the final partition.
    bounds = np.asarray(spec.bounds, dtype=np.int64)
    signed = keys.astype(np.int64, copy=False)
    cids = np.searchsorted(bounds, signed, side="left")
    return np.minimum(cids, len(bounds) - 1).astype(np.uint16)


@dataclass
class PartitionLayout:
    """Where the store engine puts partitioned rows (per target core).

    The DMAC keeps a write cursor per target core starting at
    ``dmem_base``; each stored row advances it by the record width.
    Row counts are written as a little-endian u32 at ``count_offset``
    in each target core's DMEM, and ``target_notify_event`` (if any)
    is set on every target core when a store descriptor completes so
    consumers can start draining.
    """

    target_cores: Tuple[int, ...]
    dmem_base: int
    capacity: int
    count_offset: int
    target_notify_event: Optional[int] = None
    cursors: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.target_cores:
            raise DescriptorError("partition layout needs target cores")
        if self.capacity <= 0:
            raise DescriptorError(f"capacity must be positive: {self.capacity}")
        self.reset()

    def reset(self) -> None:
        """Rewind all write cursors (start of a new partition round)."""
        self.cursors = {core: self.dmem_base for core in self.target_cores}

    def advance(self, core: int, nbytes: int) -> int:
        """Reserve ``nbytes`` at ``core``'s cursor; returns the offset."""
        offset = self.cursors[core]
        if offset + nbytes > self.dmem_base + self.capacity:
            raise DescriptorError(
                f"partition output overflow on core {core}: "
                f"{offset + nbytes - self.dmem_base} > {self.capacity} "
                "(hardware would apply back pressure; size buffers up)"
            )
        self.cursors[core] = offset + nbytes
        return offset

    def rows_written(self, core: int, record_width: int) -> int:
        return (self.cursors[core] - self.dmem_base) // record_width
