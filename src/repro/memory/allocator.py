"""Two-level heap allocator for DPU DRAM.

The paper (§4) manages "most of DRAM space" with a two-level heap
allocator "similar to Hoard or TCMalloc": per-core local heaps serve
small allocations out of size-classed superblocks with no
synchronization, and a global heap hands out superblocks and serves
large allocations. We reproduce that structure:

* small requests (<= half a superblock) round up to a size class and
  are served from a per-core :class:`LocalHeap`;
* each size class is backed by 64 KB *superblocks* obtained from the
  :class:`GlobalHeap`; an emptied superblock is returned to it;
* large requests are served directly by the global heap with a
  first-fit free list.

Addresses are plain integers into the DPU's DDR space; the allocator
is deterministic, which keeps every simulation bit-reproducible.

A job's DDR has one owner, :meth:`HeapAllocator.scope`: a ``with``
block that, when it returns normally, frees every region allocated
inside it that is still live, so later work finds the same addresses
free again.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["HeapAllocator", "OutOfMemoryError", "SUPERBLOCK_SIZE", "SIZE_CLASSES"]

SUPERBLOCK_SIZE = 64 * 1024
# Size classes: 16 B .. 32 KB, quadrupling then doubling for coverage
# comparable to TCMalloc's small-object classes.
SIZE_CLASSES = [
    16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
    1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 32768,
]
_ALIGNMENT = 16


class OutOfMemoryError(Exception):
    """The modelled DRAM heap is exhausted.

    Carries structured context so an exhaustion is diagnosable without
    parsing the message: the allocation ``site``, the ``requested``
    byte count, the simulation ``sim_time`` of the failure, and a
    ``heap_stats`` snapshot (bytes in use, free-list shape, per-class
    superblock counts) taken at raise time.
    """

    def __init__(
        self,
        message: str,
        *,
        site: str = "",
        requested: int = 0,
        sim_time: Optional[float] = None,
        heap_stats: Optional[Dict] = None,
    ) -> None:
        self.site = site
        self.requested = requested
        self.sim_time = sim_time
        self.heap_stats = dict(heap_stats) if heap_stats else {}
        detail = []
        if site:
            detail.append(f"site={site}")
        if sim_time is not None:
            detail.append(f"t={sim_time:.0f}")
        if self.heap_stats:
            in_use = self.heap_stats.get("live_bytes")
            free = self.heap_stats.get("free_bytes")
            if in_use is not None and free is not None:
                detail.append(f"live={in_use} free={free}")
        if detail:
            message = f"{message} [{' '.join(detail)}]"
        super().__init__(message)


def _size_class_for(size: int) -> Optional[int]:
    for cls in SIZE_CLASSES:
        if size <= cls:
            return cls
    return None


@dataclass
class _Superblock:
    base: int
    slot_size: int
    free_slots: List[int] = field(default_factory=list)
    allocated: int = 0
    index: int = 0  # position in its core's list for the size class

    def __post_init__(self) -> None:
        count = SUPERBLOCK_SIZE // self.slot_size
        self.free_slots = [self.base + i * self.slot_size for i in range(count)][::-1]

    @property
    def empty(self) -> bool:
        return self.allocated == 0

    @property
    def full(self) -> bool:
        return not self.free_slots

    def take(self) -> int:
        address = self.free_slots.pop()
        self.allocated += 1
        return address

    def give_back(self, address: int) -> None:
        self.free_slots.append(address)
        self.allocated -= 1


class GlobalHeap:
    """Owner of the raw heap range: superblocks and large objects."""

    def __init__(self, base: int, capacity: int) -> None:
        if capacity < SUPERBLOCK_SIZE:
            raise ValueError(f"heap capacity {capacity} smaller than a superblock")
        self.base = base
        self.capacity = capacity
        # First-fit free list of (address, length), kept sorted/merged.
        self._free: List[Tuple[int, int]] = [(base, capacity)]
        self.superblocks_out = 0

    def carve(self, size: int) -> int:
        """First-fit allocation of a raw range (aligned)."""
        size = -(-size // _ALIGNMENT) * _ALIGNMENT
        for index, (address, length) in enumerate(self._free):
            if length >= size:
                remainder = length - size
                if remainder:
                    self._free[index] = (address + size, remainder)
                else:
                    del self._free[index]
                return address
        raise OutOfMemoryError(
            f"cannot carve {size} bytes from heap of {self.capacity}",
            site="global_heap.carve",
            requested=size,
            heap_stats=self.stats(),
        )

    def reclaim(self, address: int, size: int) -> None:
        """Return a raw range, coalescing with neighbours."""
        size = -(-size // _ALIGNMENT) * _ALIGNMENT
        self._free.append((address, size))
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for start, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((start, length))
        self._free = merged

    def take_superblock(self, slot_size: int) -> _Superblock:
        base = self.carve(SUPERBLOCK_SIZE)
        self.superblocks_out += 1
        return _Superblock(base, slot_size)

    def return_superblock(self, superblock: _Superblock) -> None:
        self.superblocks_out -= 1
        self.reclaim(superblock.base, SUPERBLOCK_SIZE)

    def free_bytes(self) -> int:
        return sum(length for _addr, length in self._free)

    def stats(self) -> Dict:
        """Diagnosability snapshot of the raw heap range."""
        free = self.free_bytes()
        return {
            "capacity": self.capacity,
            "free_bytes": free,
            "live_bytes": self.capacity - free,
            "largest_free": max(
                (length for _addr, length in self._free), default=0
            ),
            "fragments": len(self._free),
            "superblocks_out": self.superblocks_out,
        }


class LocalHeap:
    """Per-core cache of partially-filled superblocks by size class.

    ``malloc`` serves a class from its first superblock, in insertion
    order, that has a free slot. That superblock's index is kept per
    class (``_open``), so a pick is O(1): blocks before it are full,
    ``give_back`` lowers it, and a ``take`` that fills its block moves
    it to the next block with a free slot.
    """

    def __init__(self, core_id: int, global_heap: GlobalHeap) -> None:
        self.core_id = core_id
        self.global_heap = global_heap
        self._by_class: Dict[int, List[_Superblock]] = {}
        # size class -> index of its first block with a free slot
        # (the list's length when every block is full).
        self._open: Dict[int, int] = {}

    def malloc(self, size_class: int) -> Tuple[int, _Superblock]:
        blocks = self._by_class.setdefault(size_class, [])
        index = self._open.setdefault(size_class, 0)
        if index == len(blocks):
            block = self.global_heap.take_superblock(size_class)
            block.index = index
            blocks.append(block)
        else:
            block = blocks[index]
        address = block.take()
        if block.full:
            index += 1
            while index < len(blocks) and blocks[index].full:
                index += 1
            self._open[size_class] = index
        return address, block

    def free(self, address: int, block: _Superblock) -> None:
        block.give_back(address)
        size_class = block.slot_size
        if block.index < self._open[size_class]:
            self._open[size_class] = block.index
        if block.empty:
            blocks = self._by_class[size_class]
            # Keep one empty superblock cached per class (hysteresis,
            # as in Hoard); return the rest to the global heap.
            empties = [b for b in blocks if b.empty]
            if len(empties) > 1:
                # O(len(blocks)) removal is deliberate: hysteresis caps
                # empties at one, so this fires at most once per empty
                # transition, and list order must be preserved — malloc
                # picks in insertion order and a reordering would move
                # subsequent allocations to different addresses.
                del blocks[block.index]
                for index in range(block.index, len(blocks)):
                    blocks[index].index = index
                self._open[size_class] = next(
                    (index for index, b in enumerate(blocks) if not b.full),
                    len(blocks))
                self.global_heap.return_superblock(block)

    def stats(self) -> Dict:
        """Per-size-class superblock counts and bytes in use."""
        per_class: Dict[int, Dict[str, int]] = {}
        bytes_in_use = 0
        for size_class, blocks in sorted(self._by_class.items()):
            allocated = sum(block.allocated for block in blocks)
            if not blocks:
                continue
            per_class[size_class] = {
                "superblocks": len(blocks),
                "allocated_slots": allocated,
            }
            bytes_in_use += allocated * size_class
        return {
            "core_id": self.core_id,
            "bytes_in_use": bytes_in_use,
            "size_classes": per_class,
        }


class HeapAllocator:
    """Public facade: ``malloc``/``free`` with per-core fast paths.

    ``malloc`` returns an integer DDR address. ``free`` needs only the
    address (allocation metadata is tracked internally, like a real
    allocator's page map).
    """

    def __init__(
        self, base: int, capacity: int, num_cores: int, engine=None
    ) -> None:
        self.global_heap = GlobalHeap(base, capacity)
        self.local_heaps = [LocalHeap(cid, self.global_heap) for cid in range(num_cores)]
        # address -> ("small", size_class, superblock, core_id, serial)
        # | ("large", size, serial), in allocation order; ``serial``
        # counts mallocs, so a scope's regions are the records from
        # its mark on.
        self._live: Dict[int, tuple] = {}
        self._mallocs = 0
        self.peak_live_bytes = 0
        self._live_bytes = 0
        self.engine = engine  # optional: timestamps exhaustion errors
        # Watermark callbacks: (threshold_bytes, fired, callback).
        # Each fires once when live bytes cross its threshold upward
        # and re-arms when usage drops back below.
        self._watermarks: List[List] = []

    def add_watermark(
        self, fraction: float, callback: Callable[["HeapAllocator"], None]
    ) -> None:
        """Call ``callback(heap)`` when live bytes first exceed
        ``fraction`` of capacity (re-armed after usage falls back)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"watermark fraction must be in (0, 1]: {fraction}")
        threshold = int(fraction * self.global_heap.capacity)
        self._watermarks.append([threshold, False, callback])

    def _check_watermarks(self) -> None:
        for mark in self._watermarks:
            threshold, fired, callback = mark
            if not fired and self._live_bytes >= threshold:
                mark[1] = True
                callback(self)
            elif fired and self._live_bytes < threshold:
                mark[1] = False

    def _now(self) -> Optional[float]:
        return float(self.engine.now) if self.engine is not None else None

    def malloc(self, size: int, core_id: int = 0) -> int:
        if size <= 0:
            raise ValueError(f"allocation size must be positive: {size}")
        size_class = _size_class_for(size)
        try:
            if size_class is not None:
                local = self.local_heaps[core_id % len(self.local_heaps)]
                address, block = local.malloc(size_class)
                self._live[address] = ("small", size_class, block, core_id,
                                       self._mallocs)
                self._live_bytes += size_class
            else:
                address = self.global_heap.carve(size)
                self._live[address] = ("large", size, self._mallocs)
                self._live_bytes += size
        except OutOfMemoryError as error:
            # Re-raise with the full two-level picture: the carve-level
            # error only sees the global free list.
            raise OutOfMemoryError(
                f"malloc of {size} bytes failed on core {core_id}",
                site=f"heap.malloc[core {core_id}]",
                requested=size,
                sim_time=self._now(),
                heap_stats=self.stats(),
            ) from error
        self._mallocs += 1
        self.peak_live_bytes = max(self.peak_live_bytes, self._live_bytes)
        if self._watermarks:
            self._check_watermarks()
        return address

    def free(self, address: int) -> None:
        record = self._live.pop(address, None)
        if record is None:
            raise ValueError(f"free of unallocated address {address:#x}")
        if record[0] == "small":
            _kind, size_class, block, core_id, _serial = record
            self.local_heaps[core_id % len(self.local_heaps)].free(address, block)
            self._live_bytes -= size_class
        else:
            _kind, size, _serial = record
            self.global_heap.reclaim(address, size)
            self._live_bytes -= size
        if self._watermarks:
            # Dropping below a threshold re-arms its watermark.
            self._check_watermarks()

    def live_bytes(self) -> int:
        return self._live_bytes

    @contextmanager
    def scope(self) -> Iterator[None]:
        """Own the regions allocated inside the ``with`` block.

        When the block returns normally, every region allocated inside
        it that is still live is freed, in allocation order; a region the
        block frees itself is not freed twice, and an inner scope has
        already freed its own. When the block raises, nothing is
        freed: a failed launch can leave kernels that still write
        their regions, so those regions stay allocated."""
        mark = self._mallocs
        yield
        for address in [address for address, record in self._live.items()
                        if record[-1] >= mark]:
            self.free(address)

    def stats(self) -> Dict:
        """Full two-level snapshot: global free-list shape plus
        per-core, per-size-class superblock occupancy. Attached to
        every exhaustion error and used by watermark callbacks."""
        per_core = [
            heap.stats() for heap in self.local_heaps if heap.stats()["size_classes"]
        ]
        return {
            "live_bytes": self._live_bytes,
            "peak_live_bytes": self.peak_live_bytes,
            "free_bytes": self.global_heap.free_bytes(),
            "global": self.global_heap.stats(),
            "local_heaps": per_core,
        }

    def allocation_size(self, address: int) -> int:
        record = self._live.get(address)
        if record is None:
            raise ValueError(f"{address:#x} is not a live allocation")
        return record[1]
