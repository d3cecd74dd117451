"""Tests for DMS streaming: DMAD lists, loops, flow control, gather."""

import numpy as np
import pytest

from repro.core import DPU, DPU_40NM
from repro.core.bitvector import pack_bits
from repro.dms import (
    Descriptor,
    DescriptorType,
    DmsHardwareError,
    ddr_to_dmem,
    dmem_to_ddr,
    loop,
)


@pytest.fixture
def dpu():
    return DPU()


def test_simple_ddr_to_dmem_moves_real_bytes(dpu):
    data = np.arange(256, dtype=np.uint32)
    address = dpu.store_array(data)

    def kernel(ctx):
        ctx.push(ddr_to_dmem(256, 4, address, 0, notify_event=0))
        yield from ctx.wfe(0)
        return ctx.dmem.view(0, 1024, np.uint32).copy()

    result = dpu.launch(kernel, cores=[0])
    assert np.array_equal(result.values[0], data)


def test_dmem_to_ddr_writes_back(dpu):
    target = dpu.alloc(1024)

    def kernel(ctx):
        ctx.dmem.write(0, np.full(256, 7, dtype=np.uint32))
        ctx.push(dmem_to_ddr(256, 4, target, 0, notify_event=1))
        yield from ctx.wfe(1)

    dpu.launch(kernel, cores=[3])
    assert np.array_equal(
        dpu.load_array(target, 256, np.uint32), np.full(256, 7, np.uint32)
    )


def test_listing1_loop_descriptor_streams_whole_buffer(dpu):
    """The paper's Listing 1: 3 descriptors stream megabytes."""
    data = np.arange(64 * 1024, dtype=np.uint32)  # 256 KB
    address = dpu.store_array(data)
    iterations = len(data) * 4 // 2048

    def kernel(ctx):
        ctx.push(ddr_to_dmem(256, 4, address, 0, notify_event=0,
                             src_addr_inc=True))
        ctx.push(ddr_to_dmem(256, 4, address, 1024, notify_event=1,
                             src_addr_inc=True))
        ctx.push(loop(2, iterations - 1))
        total = 0
        buf = 0
        for _ in range(2 * iterations):
            yield from ctx.wfe(buf)
            total += int(ctx.dmem.view(buf * 1024, 1024, np.uint32).sum())
            ctx.clear_event(buf)
            buf = 1 - buf
        return total

    result = dpu.launch(kernel, cores=[0])
    assert result.values[0] == int(data.sum())


def test_flow_control_backpressure_blocks_refill(dpu):
    """A descriptor whose notify event is still set must not refill
    the buffer (the §3.1 back-pressure rule)."""
    data = np.arange(512, dtype=np.uint32)
    address = dpu.store_array(data)

    def kernel(ctx):
        ctx.push(ddr_to_dmem(256, 4, address, 0, notify_event=0,
                             src_addr_inc=True))
        ctx.push(ddr_to_dmem(256, 4, address, 0, notify_event=0,
                             src_addr_inc=True))
        yield from ctx.wfe(0)
        first = ctx.dmem.view(0, 1024, np.uint32).copy()
        # Stall long enough that an un-gated refill would have landed.
        yield from ctx.compute(5000)
        still = ctx.dmem.view(0, 1024, np.uint32).copy()
        assert np.array_equal(first, still), "buffer overwritten early"
        ctx.clear_event(0)
        yield from ctx.wfe(0)
        second = ctx.dmem.view(0, 1024, np.uint32).copy()
        return first, second

    first, second = dpu.launch(kernel, cores=[0]).values[0]
    assert np.array_equal(first, data[:256])
    assert np.array_equal(second, data[256:])


def test_wait_event_gates_descriptor(dpu):
    data = np.arange(64, dtype=np.uint32)
    address = dpu.store_array(data)

    def kernel(ctx):
        ctx.push(
            ddr_to_dmem(64, 4, address, 0, notify_event=1, wait_event=2)
        )
        yield from ctx.compute(2000)
        assert not ctx.events.is_set(1), "descriptor ran before its gate"
        ctx.set_event(2)
        yield from ctx.wfe(1)
        return True

    assert dpu.launch(kernel, cores=[0]).values[0]


def test_gather_with_bitvector(dpu):
    rows = 512
    data = np.arange(rows, dtype=np.uint64)
    address = dpu.store_array(data)
    mask = np.zeros(rows, dtype=bool)
    mask[::7] = True
    expected = data[mask]

    def kernel(ctx):
        words = pack_bits(mask)
        ctx.dmem.write(8192, words)
        ctx.push(
            Descriptor(
                dtype=DescriptorType.DMEM_TO_DMS,
                rows=len(words), col_width=8, dmem_addr=8192,
                internal_mem="bv",
            )
        )
        ctx.push(
            Descriptor(
                dtype=DescriptorType.DDR_TO_DMEM,
                rows=rows, col_width=8, ddr_addr=address, dmem_addr=0,
                gather_src=True, notify_event=0,
            )
        )
        yield from ctx.wfe(0)
        return ctx.dmem.view(0, len(expected) * 8, np.uint64).copy()

    result = dpu.launch(kernel, cores=[0])
    assert np.array_equal(result.values[0], expected)


def test_scatter_with_bitvector(dpu):
    rows = 256
    target = dpu.alloc(rows * 8)
    mask = np.zeros(rows, dtype=bool)
    mask[[3, 50, 100, 255]] = True
    payload = np.array([11, 22, 33, 44], dtype=np.uint64)

    def kernel(ctx):
        ctx.dmem.write(8192, pack_bits(mask))
        ctx.push(Descriptor(dtype=DescriptorType.DMEM_TO_DMS,
                            rows=4, col_width=8, dmem_addr=8192,
                            internal_mem="bv"))
        ctx.dmem.write(0, payload)
        ctx.push(Descriptor(dtype=DescriptorType.DMEM_TO_DDR,
                            rows=rows, col_width=8, ddr_addr=target,
                            dmem_addr=0, scatter_dst=True, notify_event=0))
        yield from ctx.wfe(0)

    dpu.launch(kernel, cores=[0])
    written = dpu.load_array(target, rows, np.uint64)
    assert list(written[[3, 50, 100, 255]]) == [11, 22, 33, 44]
    assert written.sum() == payload.sum()


def test_strided_read(dpu):
    matrix = np.arange(64 * 4, dtype=np.uint32).reshape(64, 4)
    address = dpu.store_array(matrix)

    def kernel(ctx):
        # Column 2 of a row-major matrix: stride 16 B between elements.
        ctx.push(
            Descriptor(
                dtype=DescriptorType.DDR_TO_DMEM,
                rows=64, col_width=4, ddr_addr=address + 8, dmem_addr=0,
                ddr_stride=16, notify_event=0,
            )
        )
        yield from ctx.wfe(0)
        return ctx.dmem.view(0, 256, np.uint32).copy()

    result = dpu.launch(kernel, cores=[0])
    assert np.array_equal(result.values[0], matrix[:, 2])


def test_rtl_gather_bug_raises_on_concurrent_gathers():
    dpu = DPU(DPU_40NM.with_updates(rtl_gather_bug=True))
    rows = 2048
    data = np.arange(rows, dtype=np.uint64)
    address = dpu.store_array(data)
    mask = np.ones(rows, dtype=bool)

    def kernel(ctx):
        ctx.dmem.write(16384, pack_bits(mask[:rows]))
        ctx.push(Descriptor(dtype=DescriptorType.DMEM_TO_DMS,
                            rows=rows // 64, col_width=8, dmem_addr=16384,
                            internal_mem="bv"))
        ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMEM,
                            rows=rows, col_width=8, ddr_addr=address,
                            dmem_addr=0, gather_src=True, notify_event=0))
        yield from ctx.wfe(0)

    with pytest.raises(DmsHardwareError, match="gather"):
        dpu.launch(kernel, cores=[0, 1])


def test_gather_fixed_silicon_allows_concurrency():
    dpu = DPU(DPU_40NM.with_updates(rtl_gather_bug=False))
    rows = 2048
    data = np.arange(rows, dtype=np.uint64)
    address = dpu.store_array(data)
    mask = np.ones(rows, dtype=bool)

    def kernel(ctx):
        ctx.dmem.write(16384, pack_bits(mask))
        ctx.push(Descriptor(dtype=DescriptorType.DMEM_TO_DMS,
                            rows=rows // 64, col_width=8, dmem_addr=16384,
                            internal_mem="bv"))
        ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMEM,
                            rows=rows, col_width=8, ddr_addr=address,
                            dmem_addr=0, gather_src=True, notify_event=0))
        yield from ctx.wfe(0)
        return int(ctx.dmem.view(0, rows * 8, np.uint64)[5])

    result = dpu.launch(kernel, cores=[0, 1])
    assert result.values == [5, 5]


def test_aggregate_stream_bandwidth_above_9_gbps():
    """Figure 11's headline: >9 GB/s at 8 KB buffers on 32 cores."""
    dpu = DPU()
    per_core = 128 * 1024
    nrows = per_core // 4
    sources = {c: dpu.store_array(np.zeros(nrows, dtype=np.uint32))
               for c in range(32)}

    def kernel(ctx):
        source = sources[ctx.core_id]
        iterations = nrows // 2048 // 2
        ctx.push(ddr_to_dmem(2048, 4, source, 0, notify_event=0,
                             src_addr_inc=True))
        ctx.push(ddr_to_dmem(2048, 4, source, 8192, notify_event=1,
                             src_addr_inc=True))
        ctx.push(loop(2, iterations - 1))
        buf = 0
        for _ in range(2 * iterations):
            yield from ctx.wfe(buf)
            ctx.clear_event(buf)
            buf = 1 - buf

    result = dpu.launch(kernel)
    gbps = result.gbps(32 * per_core)
    assert 9.0 < gbps < 12.8  # paper: >9 GB/s, below DDR3 peak


def test_rle_not_modelled_is_explicit(dpu):
    def kernel(ctx):
        ctx.push(ddr_to_dmem(16, 4, 4096, 0, rle=True, notify_event=0))
        yield from ctx.wfe(0)

    with pytest.raises(Exception, match="RLE"):
        dpu.launch(kernel, cores=[0])


def test_serialize_gathers_workaround_on_buggy_silicon():
    """The paper's software workaround for the first-silicon gather
    bug: wrap each gather in an ATE mutex so only one dpCore ever has
    a gather in flight. Concurrent gather kernels then succeed on
    rtl_gather_bug hardware, byte-exact with the fixed-silicon run."""
    from repro.runtime import AteMutex

    rows = 2048
    data = np.arange(rows, dtype=np.uint64)
    mask = np.ones(rows, dtype=bool)

    def run(rtl_bug, serialize):
        dpu = DPU(DPU_40NM.with_updates(rtl_gather_bug=rtl_bug))
        address = dpu.store_array(data)
        mutex = AteMutex(dpu, owner=0, dmem_offset=24576)

        def kernel(ctx):
            ctx.dmem.write(16384, pack_bits(mask))
            if serialize:
                yield from mutex.acquire(ctx)
            try:
                ctx.push(Descriptor(dtype=DescriptorType.DMEM_TO_DMS,
                                    rows=rows // 64, col_width=8,
                                    dmem_addr=16384, internal_mem="bv"))
                ctx.push(Descriptor(dtype=DescriptorType.DDR_TO_DMEM,
                                    rows=rows, col_width=8, ddr_addr=address,
                                    dmem_addr=0, gather_src=True,
                                    notify_event=0))
                yield from ctx.wfe(0)
                ctx.clear_event(0)
            finally:
                if serialize:
                    yield from mutex.release(ctx)
            return ctx.dmem.view(0, rows * 8, np.uint64).copy()

        return dpu.launch(kernel, cores=[0, 1, 2, 3])

    serialized = run(rtl_bug=True, serialize=True)
    fixed = run(rtl_bug=False, serialize=False)
    for got, want in zip(serialized.values, fixed.values):
        assert np.array_equal(got, want)
    assert np.array_equal(serialized.values[0], data)
    # Serialization costs cycles; the mutex must not deadlock or skew
    # results, only slow the overlapping gathers down.
    assert serialized.cycles >= fixed.cycles


def _c8_kernel(dpu, rows=8192, tile_rows=256, num_columns=8):
    """Fig. 11's ``c8`` point: each core streams eight 4 B columns in
    256-row tiles (32 tiles, 256 data descriptors per core)."""
    from repro.apps.streaming import stream_columns

    columns = {core: [dpu.store_array(np.zeros(rows, dtype=np.uint32))
                      for _ in range(num_columns)]
               for core in dpu.config.core_ids}

    def kernel(ctx):
        refs = [(address, 4) for address in columns[ctx.core_id]]
        yield from stream_columns(ctx, refs, rows, tile_rows, lambda *a: 8)
    return kernel


def test_ring_keeps_only_unwalked_descriptors(monkeypatch):
    """A push drops the channel's walked prefix (no LOOP is held), so
    right after every push a channel holds exactly its unwalked
    descriptors, and after the launch only what was unwalked at its
    last push. The ring used to keep every descriptor a stream pushed
    until it drained: 256 per channel after this launch."""
    from repro.dms.dmad import Dmad

    dpu = DPU()
    kernel = _c8_kernel(dpu)
    push = Dmad.push
    held_beyond_unwalked = []

    def checked(self, descriptor, channel=0):
        push(self, descriptor, channel)
        chan = self.channels[channel]
        if len(chan.program) != self.occupancy(channel):
            held_beyond_unwalked.append((self.core_id, chan.pc))

    monkeypatch.setattr(Dmad, "push", checked)
    cores = [0, 1, 2, 3]
    result = dpu.launch(kernel, cores=cores)
    assert held_beyond_unwalked == []
    snapshot = dpu.counter_registry().snapshot()
    assert snapshot["dpu0.dmad.completed"] == 256 * len(cores)
    peak = snapshot["dpu0.dmad.occupancy_peak"]
    assert peak == 16
    for core in cores:
        (channel,) = [chan for chan in dpu.dmads[core].channels if chan]
        assert len(channel.program) <= peak
        assert dpu.dmads[core].idle()
    # The same launch as when the ring kept every descriptor.
    assert result.cycles == 112_700.0
    assert snapshot["dpu0.dms.bytes_read"] == 1_048_576


def test_loop_chain_after_a_walked_prefix():
    """Listing 1's chain pushed in one burst behind a walked descriptor
    and a blocked one: the push drops the walked one, the LOOP still
    rewinds over its own body, and the stream moves the same bytes in
    the same cycles as when the ring kept every descriptor."""
    dpu = DPU()
    data = np.arange(16 * 1024, dtype=np.uint32)  # 64 KB
    address = dpu.store_array(data)
    head = dpu.store_array(np.arange(256, dtype=np.uint32) + 7)
    iterations = len(data) * 4 // 2048

    def kernel(ctx):
        ctx.push(ddr_to_dmem(256, 4, head, 4096, notify_event=2))
        ctx.push(ddr_to_dmem(256, 4, head, 5120, notify_event=3,
                             wait_event=5))
        yield from ctx.wfe(2)  # the first descriptor is walked
        assert ctx.dmad.occupancy() == 1  # the second waits on event 5
        ctx.push(ddr_to_dmem(256, 4, address, 0, notify_event=0,
                             src_addr_inc=True))
        ctx.push(ddr_to_dmem(256, 4, address, 1024, notify_event=1,
                             src_addr_inc=True))
        ctx.push(loop(2, iterations - 1))
        ctx.set_event(5)
        yield from ctx.wfe(3)
        total = int(ctx.dmem.view(5120, 1024, np.uint32).sum())
        buf = 0
        for _ in range(2 * iterations):
            yield from ctx.wfe(buf)
            total += int(ctx.dmem.view(buf * 1024, 1024, np.uint32).sum())
            ctx.clear_event(buf)
            buf = 1 - buf
        return total

    result = dpu.launch(kernel, cores=[0])
    assert result.values[0] == int(data.sum()) + int(
        (np.arange(256) + 7).sum())
    assert result.cycles == 6_091.0
    snapshot = dpu.counter_registry().snapshot()
    assert snapshot["dpu0.dms.bytes_read"] == 67_584
    assert snapshot["dpu0.dmad.completed"] == 66
    # The blocked descriptor, the chain's two and its LOOP: the walked
    # head was dropped at the chain's first push.
    assert len(dpu.dmads[0].channels[0].program) == 4


def test_push_while_a_loop_runs_keeps_its_body():
    """A descriptor pushed while a LOOP still rewinds drops nothing:
    the channel holds its LOOP until it drains, so the loop body stays
    in the ring, the loop moves every byte and the late descriptor
    runs after it, in the same cycles as when the ring kept every
    descriptor."""
    dpu = DPU()
    data = np.arange(16 * 1024, dtype=np.uint32)  # 64 KB
    address = dpu.store_array(data)
    tail = dpu.store_array(np.arange(256, dtype=np.uint32) + 7)
    iterations = len(data) * 4 // 2048

    def kernel(ctx):
        ctx.push(ddr_to_dmem(256, 4, address, 0, notify_event=0,
                             src_addr_inc=True))
        ctx.push(ddr_to_dmem(256, 4, address, 1024, notify_event=1,
                             src_addr_inc=True))
        ctx.push(loop(2, iterations - 1))
        total = 0
        buf = 0
        for step in range(2 * iterations):
            yield from ctx.wfe(buf)
            if step == 3:  # rewound twice, the walker past the body's head
                ctx.push(ddr_to_dmem(256, 4, tail, 5120, notify_event=3))
                assert ctx.dmad.channels[0].pc == 1  # nothing was dropped
            total += int(ctx.dmem.view(buf * 1024, 1024, np.uint32).sum())
            ctx.clear_event(buf)
            buf = 1 - buf
        yield from ctx.wfe(3)
        return total + int(ctx.dmem.view(5120, 1024, np.uint32).sum())

    result = dpu.launch(kernel, cores=[0])
    assert result.values[0] == int(data.sum()) + int(
        (np.arange(256) + 7).sum())
    snapshot = dpu.counter_registry().snapshot()
    assert snapshot["dpu0.dms.bytes_read"] == 66_560
    assert snapshot["dpu0.dmad.completed"] == 65
    assert result.cycles == 5_978.0
