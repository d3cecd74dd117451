"""Tests for the two-level (Hoard/TCMalloc-like) heap allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
    SIZE_CLASSES,
    SUPERBLOCK_SIZE,
    HeapAllocator,
    OutOfMemoryError,
)
from repro.memory.allocator import LocalHeap


def make_heap(capacity=4 * 1024 * 1024, cores=4):
    return HeapAllocator(base=0, capacity=capacity, num_cores=cores)


def test_small_allocations_distinct_and_aligned():
    heap = make_heap()
    addresses = [heap.malloc(48, core_id=0) for _ in range(100)]
    assert len(set(addresses)) == 100
    for address in addresses:
        assert address % 16 == 0


def test_allocations_do_not_overlap():
    heap = make_heap()
    live = []
    for size in (16, 100, 5000, 40000, 16, 100):
        address = heap.malloc(size)
        live.append((address, heap.allocation_size(address)))
    intervals = sorted((a, a + s) for a, s in live)
    for (lo1, hi1), (lo2, _hi2) in zip(intervals, intervals[1:]):
        assert hi1 <= lo2


def test_free_and_reuse_same_class():
    heap = make_heap()
    address = heap.malloc(64, core_id=1)
    heap.free(address)
    again = heap.malloc(64, core_id=1)
    assert again == address  # slot reused from the local free list


def test_per_core_heaps_are_independent():
    heap = make_heap()
    a = heap.malloc(64, core_id=0)
    b = heap.malloc(64, core_id=1)
    # Different cores draw from different superblocks.
    assert abs(a - b) >= SUPERBLOCK_SIZE or a // SUPERBLOCK_SIZE != b // SUPERBLOCK_SIZE


def test_large_allocation_bypasses_classes():
    heap = make_heap()
    big = max(SIZE_CLASSES) + 1
    address = heap.malloc(big)
    assert heap.allocation_size(address) == big
    heap.free(address)


def test_double_free_rejected():
    heap = make_heap()
    address = heap.malloc(32)
    heap.free(address)
    with pytest.raises(ValueError):
        heap.free(address)


def test_free_unknown_address_rejected():
    heap = make_heap()
    with pytest.raises(ValueError):
        heap.free(12345)


def test_out_of_memory_raises():
    heap = HeapAllocator(base=0, capacity=SUPERBLOCK_SIZE, num_cores=1)
    with pytest.raises(OutOfMemoryError):
        heap.malloc(SUPERBLOCK_SIZE * 2)


def test_live_bytes_and_peak_tracking():
    heap = make_heap()
    a = heap.malloc(1000)
    peak_a = heap.peak_live_bytes
    heap.free(a)
    assert heap.live_bytes() == 0
    assert heap.peak_live_bytes == peak_a


def test_superblock_returned_after_drain():
    heap = make_heap(capacity=8 * SUPERBLOCK_SIZE)
    # Fill several superblocks of one class, then free everything;
    # hysteresis keeps one cached, the rest return to the global heap.
    per_block = SUPERBLOCK_SIZE // 1024
    addresses = [heap.malloc(1024, core_id=0) for _ in range(3 * per_block)]
    out_before = heap.global_heap.superblocks_out
    for address in addresses:
        heap.free(address)
    assert heap.global_heap.superblocks_out < out_before


def test_coalescing_allows_big_after_frees():
    heap = make_heap(capacity=4 * SUPERBLOCK_SIZE)
    big = SUPERBLOCK_SIZE + 1  # large class
    a = heap.malloc(big)
    b = heap.malloc(big)
    heap.free(a)
    heap.free(b)
    # After coalescing, an even bigger allocation fits.
    c = heap.malloc(2 * big)
    assert heap.allocation_size(c) == 2 * big


@given(
    st.lists(
        st.tuples(st.integers(1, 50000), st.integers(0, 3), st.booleans()),
        min_size=1,
        max_size=150,
    )
)
@settings(max_examples=50, deadline=None)
def test_random_alloc_free_never_overlaps(operations):
    heap = make_heap()
    live = {}
    for size, core, should_free in operations:
        address = heap.malloc(size, core_id=core)
        effective = heap.allocation_size(address)
        for other, other_size in live.items():
            assert address + effective <= other or other + other_size <= address
        if should_free:
            heap.free(address)
        else:
            live[address] = effective
    for address in live:
        heap.free(address)
    assert heap.live_bytes() == 0


class _ScanLocalHeap(LocalHeap):
    """The superblock pick as a scan from a class's first superblock on
    every call: the insertion-order result the kept index must give."""

    def malloc(self, size_class):
        blocks = self._by_class.setdefault(size_class, [])
        for block in blocks:
            if not block.full:
                return block.take(), block
        block = self.global_heap.take_superblock(size_class)
        blocks.append(block)
        return block.take(), block

    def free(self, address, block):
        block.give_back(address)
        if block.empty:
            blocks = self._by_class.get(block.slot_size, [])
            if len([b for b in blocks if b.empty]) > 1:
                blocks.remove(block)
                self.global_heap.return_superblock(block)


def _scan_heap(capacity, cores):
    heap = make_heap(capacity, cores)
    heap.local_heaps = [_ScanLocalHeap(core, heap.global_heap)
                        for core in range(cores)]
    return heap


@given(
    st.lists(
        st.one_of(
            # Sizes across several classes, down to two slots per
            # superblock (so a class soon spans several), and one past
            # the classes (a large object).
            st.tuples(st.just("malloc"),
                      st.sampled_from([16, 3000, 12000, 20000, 32768,
                                       40000]),
                      st.integers(0, 1)),
            st.tuples(st.just("free"), st.integers(0, 1 << 16)),
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_kept_index_picks_what_the_scan_picks(operations):
    capacity = 16 * 1024 * 1024
    heap, reference = make_heap(capacity, 2), _scan_heap(capacity, 2)
    live = []
    for op, value, *core in operations:
        if op == "malloc":
            address = heap.malloc(value, core_id=core[0])
            assert address == reference.malloc(value, core_id=core[0])
            live.append(address)
        elif live:
            address = live.pop(value % len(live))
            heap.free(address)
            reference.free(address)
    assert heap.stats() == reference.stats()


def test_kept_index_refills_a_superblock_before_a_later_one():
    heap, reference = make_heap(cores=1), _scan_heap(4 * 1024 * 1024, 1)
    for allocator in (heap, reference):
        blocks = [allocator.malloc(32768) for _ in range(6)]
        allocator.free(blocks[0])  # the first superblock has a slot again
        allocator.free(blocks[3])
    assert heap.malloc(32768) == reference.malloc(32768) == blocks[0]
    assert heap.malloc(32768) == reference.malloc(32768) == blocks[3]
    assert heap.malloc(32768) == reference.malloc(32768)


def test_kept_index_after_a_superblock_is_returned():
    heap, reference = make_heap(cores=1), _scan_heap(4 * 1024 * 1024, 1)
    for allocator in (heap, reference):
        slots = [allocator.malloc(32768) for _ in range(8)]  # 4 full blocks
        # Empty the last superblock (kept), then the second: it goes
        # back to the global heap and the third, full, takes its place.
        for index in (6, 7, 2, 3):
            allocator.free(slots[index])
    assert [heap.malloc(32768) for _ in range(3)] \
        == [reference.malloc(32768) for _ in range(3)]


# -- structured exhaustion errors, stats, and watermarks -------------------


def test_oom_error_carries_structured_context():
    heap = make_heap(capacity=SUPERBLOCK_SIZE)
    with pytest.raises(OutOfMemoryError) as info:
        heap.malloc(SUPERBLOCK_SIZE * 4, core_id=2)
    error = info.value
    assert error.site == "heap.malloc[core 2]"
    assert error.requested == SUPERBLOCK_SIZE * 4
    assert error.heap_stats["live_bytes"] == 0
    assert error.heap_stats["global"]["capacity"] == SUPERBLOCK_SIZE
    assert "site=heap.malloc" in str(error)


def test_oom_error_includes_superblock_occupancy():
    heap = make_heap(capacity=2 * SUPERBLOCK_SIZE)
    held = [heap.malloc(1024, core_id=0) for _ in range(8)]
    with pytest.raises(OutOfMemoryError) as info:
        heap.malloc(4 * SUPERBLOCK_SIZE)
    stats = info.value.heap_stats
    (local,) = stats["local_heaps"]
    assert local["core_id"] == 0
    assert local["size_classes"][1024]["allocated_slots"] == 8
    assert local["size_classes"][1024]["superblocks"] == 1
    for address in held:
        heap.free(address)


def test_stats_reports_two_level_shape():
    heap = make_heap()
    a = heap.malloc(100, core_id=1)
    b = heap.malloc(SUPERBLOCK_SIZE)  # large path
    stats = heap.stats()
    assert stats["live_bytes"] == heap.live_bytes()
    assert stats["global"]["superblocks_out"] == 1
    assert stats["global"]["fragments"] >= 1
    (local,) = stats["local_heaps"]
    assert local["core_id"] == 1 and local["bytes_in_use"] == 128
    heap.free(a)
    heap.free(b)


def test_superblock_recycled_across_cycles():
    """Exhaustion then full drain: the next allocation cycle reuses
    recycled superblocks instead of leaking the address space."""
    heap = make_heap(capacity=4 * SUPERBLOCK_SIZE)
    per_block = SUPERBLOCK_SIZE // 32768
    for _ in range(3):
        addresses = [heap.malloc(32768) for _ in range(3 * per_block)]
        with pytest.raises(OutOfMemoryError):
            heap.malloc(2 * SUPERBLOCK_SIZE)
        for address in addresses:
            heap.free(address)
    assert heap.live_bytes() == 0
    assert heap.global_heap.free_bytes() >= 3 * SUPERBLOCK_SIZE


def test_watermark_fires_on_crossing_and_rearms():
    heap = make_heap(capacity=4 * SUPERBLOCK_SIZE)
    fired = []
    heap.add_watermark(0.5, lambda h: fired.append(h.live_bytes()))
    big = SUPERBLOCK_SIZE + 1
    a = heap.malloc(big)
    assert not fired
    b = heap.malloc(big)
    assert len(fired) == 1  # crossed 50%
    c = heap.malloc(big)
    assert len(fired) == 1  # still above: no re-fire
    heap.free(b)
    heap.free(c)
    d = heap.malloc(big)
    e = heap.malloc(big)
    assert len(fired) == 2  # dropped below, re-armed, crossed again
    for address in (a, d, e):
        heap.free(address)


def test_watermark_rejects_bad_fraction():
    heap = make_heap()
    with pytest.raises(ValueError):
        heap.add_watermark(0.0, lambda h: None)
    with pytest.raises(ValueError):
        heap.add_watermark(1.5, lambda h: None)


# -- the DDR owner: HeapAllocator.scope ----------------------------------------


def test_scope_frees_what_it_allocated_and_keeps_the_rest():
    heap = make_heap()
    kept = heap.malloc(100)
    outside = heap.live_bytes()
    with heap.scope():
        first = [heap.malloc(size, core_id=1) for size in (16, 5000, 40000)]
        heap.free(first[1])  # freed inside: not freed again at exit
        heap.malloc(300)
    assert heap.live_bytes() == outside
    assert heap.allocation_size(kept) == 128  # still live
    # The freed regions come back at the same addresses.
    with heap.scope():
        again = [heap.malloc(size, core_id=1) for size in (16, 5000, 40000)]
    assert again[0] == first[0] and again[2] == first[2]


def test_nested_scopes_free_their_own():
    heap = make_heap()
    with heap.scope():
        outer = heap.malloc(5000)
        with heap.scope():
            heap.malloc(64)
            heap.malloc(70000)
        assert heap.live_bytes() == heap.allocation_size(outer)
    assert heap.live_bytes() == 0


def test_scope_that_raises_frees_nothing():
    heap = make_heap()
    with pytest.raises(RuntimeError):
        with heap.scope():
            heap.malloc(64)
            heap.malloc(70000)
            raise RuntimeError("a launch failed")
    assert heap.live_bytes() == 64 + 70000
    # An enclosing scope that returns normally still owns them.
    with heap.scope():
        with pytest.raises(RuntimeError):
            with heap.scope():
                heap.malloc(64)
                raise RuntimeError("a launch failed")
    assert heap.live_bytes() == 64 + 70000


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 70000), st.integers(0, 3),
                          st.booleans()), min_size=1, max_size=40))
def test_scope_restores_live_bytes(allocations):
    heap = make_heap(capacity=8 * 1024 * 1024)
    before = heap.live_bytes()
    with heap.scope():
        live = []
        for size, core, free_now in allocations:
            live.append(heap.malloc(size, core_id=core))
            if free_now:
                heap.free(live.pop(0))
    assert heap.live_bytes() == before
    assert heap.stats()["local_heaps"] == [] or all(
        heap_stats["bytes_in_use"] == 0
        for heap_stats in heap.stats()["local_heaps"])
